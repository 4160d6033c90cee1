"""Seeded workload catalogues: every item is one ``ergolab run`` config.

Each workload is a list of strata.  A stratum owns a fixed catalogue of
``pool`` item configs; item ``j`` is built from its own generator seeded with
``"<workload>/<stratum>/<j>"``, so a catalogue never depends on the run seed
and its reference results can be stored once (``references/``).  A run seed
picks ``draw`` items from every stratum and shuffles the whole list.  Fixed
per-stratum counts keep the mix of cheap and expensive items, and hence the
work of one pass, nearly the same for every seed.

The generators are plain Python on purpose: they build configs as JSON
values and never call the package, so a change to the package cannot change
the inputs it is measured on.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

Config = Dict
Rng = random.Random


class Stratum(NamedTuple):
    name: str
    make: Callable[[Rng], Config]
    pool: int
    draw: int


def _num(x: float) -> float:
    return round(x, 4)


# -- free-group words as run lists ------------------------------------------------
#
# A word is a list of (family, index, exponent) runs, kept freely reduced.

_SHIFT_FAMILIES = ("s", "t")
_CYCLE = 3
_FAMILIES = (("s", None), ("t", None), ("c", _CYCLE))
_ALPHABET = {
    "families": [
        {"name": "s", "kind": "shift"},
        {"name": "t", "kind": "shift"},
        {"name": "c", "kind": "cycle", "length": _CYCLE},
    ]
}
_SC_ALPHABET = {
    "families": [
        {"name": "s", "kind": "shift"},
        {"name": "c", "kind": "cycle", "length": _CYCLE},
    ]
}


def _reduce(runs) -> List[Tuple[str, int, int]]:
    out: List[Tuple[str, int, int]] = []
    for fam, idx, exp in runs:
        if out and out[-1][:2] == (fam, idx):
            exp += out.pop()[2]
        if exp:
            out.append((fam, idx, exp))
    return out


def _inverse(word):
    return [(f, i, -e) for f, i, e in reversed(word)]


def _shifted(word, n: int):
    return [(f, (i + n) % _CYCLE if f == "c" else i + n, e) for f, i, e in word]


def _infinite(word) -> bool:
    return any(f in _SHIFT_FAMILIES for f, _, _ in word)


def _text(word) -> str:
    return " ".join(f"{f}[{i}]" + (f"^{e}" if e != 1 else "") for f, i, e in word)


def _rand_word(rng: Rng, max_runs: int = 3, lo: int = -3, hi: int = 3, fams=_FAMILIES):
    runs = []
    for _ in range(rng.randint(1, max_runs)):
        fam, m = rng.choice(fams)
        idx = rng.randint(0, m - 1) if m else rng.randint(lo, hi)
        runs.append((fam, idx, rng.choice([-2, -1, 1, 2])))
    return _reduce(runs)


def _coef(rng: Rng) -> complex:
    return complex(_num(rng.uniform(-1, 1)), _num(rng.uniform(-1, 1)))


def _element(terms) -> List[Dict]:
    """Config form of an algebra element from (word, coefficient) pairs."""
    return [{"word": _text(w), "re": c.real, "im": c.imag} for w, c in terms]


def _vector(rng: Rng) -> List[Dict]:
    """Amplitudes on one or two words, usually including the identity."""
    support = [[]] if rng.random() < 0.7 else []
    target = rng.randint(1, 2)
    while len(support) < target:
        w = _rand_word(rng, 2, 0, 6)
        if all(w != s for s in support):
            support.append(w)
    return _element((w, _coef(rng) or 1.0) for w in support)


def _state(rng: Rng) -> Dict:
    """A vector state, or (30 %) a two-component mixture."""
    if rng.random() < 0.3:
        p = _num(rng.uniform(0.2, 0.8))
        return {
            "kind": "mixture",
            "components": [
                {"weight": p, "amplitudes": _vector(rng)},
                {"weight": _num(1.0 - p), "amplitudes": _vector(rng)},
            ],
        }
    return {"kind": "vector", "amplitudes": _vector(rng)}


# -- gap-scan --------------------------------------------------------------------

_GAP_WINDOWS = {2: 40, 3: 30, 4: 16}


def _gap_operators(rng: Rng, k: int, two_terms: bool, pairs: Optional[int]):
    """Operator tuples in the style of the c04 acceptance corpus.

    Most tuples place an infinite-orbit word and a shifted inverse next to
    each other in the product, with mostly finite-orbit words elsewhere: the
    pair cancels at one time difference, which the finite-orbit images cannot
    see, the rest of the product can then land on a state's support, and the
    scan records violations.  ``pairs`` is the number of such pairs: 0, 2
    (k = 4: both halves of the product), or None for one pair 70 % of the
    time.
    """
    while True:
        ops = [[(_rand_word(rng), 1.0)] for _ in range(k)]
        count = (1 if rng.random() < 0.7 else 0) if pairs is None else pairs
        if count:
            starts = [0, 2] if count == 2 else [rng.randrange(k - 1)]
            for j in starts:
                base = _rand_word(rng, 2)
                while not _infinite(base):
                    base = _rand_word(rng, 2)
                ops[j] = [(base, 1.0)]
                ops[j + 1] = [(_shifted(_inverse(base), rng.randint(1, 5)), 1.0)]
            paired = {i for j in starts for i in (j, j + 1)}
            for i in range(k):
                if i not in paired and rng.random() < 0.7:
                    ops[i] = [([("c", rng.randint(0, 2), rng.choice([-1, 1]))], 1.0)]
        if two_terms:
            j = rng.randrange(k)
            ops[j] = ops[j] + [(_rand_word(rng), _coef(rng))]
        words = [w for op in ops for w, _ in op]
        if all(words) and any(_infinite(w) for w in words):
            if not two_terms or len({tuple(w) for w, _ in ops[j]}) == 2:
                return ops


def _gap_config(k: int, two_terms: bool, pairs: Optional[int] = None) -> Callable[[Rng], Config]:
    perms = [list(p) for p in itertools.permutations(range(k))]

    def make(rng: Rng) -> Config:
        ops = _gap_operators(rng, k, two_terms, pairs)
        window = _GAP_WINDOWS[k]
        # operator j is shifted by n[perm[j]] and times increase, so a pair
        # (j, j + 1) cancels only if perm[j] > perm[j + 1]; with [1, 0, 3, 2]
        # both pairs cancel on every tuple with n2 - n1 and n4 - n3 fixed:
        # 16 * 16 tuples, each seen by all 10 states
        perm = [1, 0, 3, 2] if pairs == 2 else rng.choice(perms)
        return {
            "experiment": "gap-search",
            "alphabet": _ALPHABET,
            "operators": [_element(op) for op in ops],
            "states": [_state(rng) for _ in range(10)],
            "permutation": perm,
            "scan_window": window,
            "gap_max": window,
        }

    return make


GAP_SCAN = [
    Stratum("k2-single", _gap_config(2, False), 30, 15),
    Stratum("k3-single", _gap_config(3, False), 20, 10),
    # one pair and two finite-orbit words at k = 4 can cancel on a third of
    # all tuples; such scans are left to the two-pair stratum, whose
    # violation count is the same for every item
    Stratum("k4-single", _gap_config(4, False, pairs=0), 90, 45),
    Stratum("k4-two-pairs", _gap_config(4, False, pairs=2), 10, 5),
    Stratum("k2-two-term", _gap_config(2, True), 10, 5),
    # item_p90_ms lands in this stratum; drawing 20 of 40 items moved it by
    # up to 13 % between seeds, so every seed runs the same 20
    Stratum("k3-two-term", _gap_config(3, True), 20, 20),
]


# -- recurrence ------------------------------------------------------------------

_SC_FAMILIES = (("s", None), ("c", _CYCLE))


def _sc_element(rng: Rng, terms: int):
    """Distinct-word terms over {s shift, c cycle}, half the time led by the identity."""
    words: List = [[]] if rng.random() < 0.5 else []
    while len(words) < terms:
        w = _rand_word(rng, 2, -2, 2, fams=_SC_FAMILIES)
        if all(w != v for v in words):
            words.append(w)
    return _element((w, _coef(rng) if i else 1.0) for i, w in enumerate(words))


def _led_by_identity(rng: Rng, terms: int) -> List[Dict]:
    """Identity plus (terms - 1) distinct infinite-orbit words over {s, c}.

    Infinite-orbit words keep shifted products close to their full term
    count, so the cost of an item depends on its shape, not on luck."""
    words: List = [[]]
    while len(words) < terms:
        w = _rand_word(rng, 2, -2, 2, fams=_SC_FAMILIES)
        if len(w) == 2 and _infinite(w) and all(w != v for v in words):
            words.append(w)
    return _element((w, _coef(rng) if i else 1.0) for i, w in enumerate(words))


def _furstenberg(order: int, terms: int, sweep: int) -> Callable[[Rng], Config]:
    def make(rng: Rng) -> Config:
        return {
            "experiment": "furstenberg",
            "alphabet": _SC_ALPHABET,
            "factor": _led_by_identity(rng, terms),
            "order": order,
            "sweep": sweep,
            "absolute": rng.random() < 0.8,
        }

    return make


def _bergelson(rng: Rng) -> Config:
    config = {
        "experiment": "bergelson",
        "alphabet": _SC_ALPHABET,
        "operators": [_led_by_identity(rng, 2) for _ in range(4)],
        "m_base": rng.randint(0, 5),
        "n_base": rng.randint(0, 5),
        "count": 8,
    }
    if rng.random() < 0.5:
        config["equality_tolerance"] = 1e-9
    return config


def _mixing_decay(rng: Rng) -> Config:
    return {
        "experiment": "mixing-decay",
        "alphabet": _ALPHABET,
        "operator": _sc_element(rng, rng.randint(2, 3)),
        "state": _state(rng),
        "n_max": rng.randint(80, 120),
    }


def _multitime(rng: Rng) -> Config:
    k = rng.randint(2, 4)
    ops = []
    for _ in range(k):
        terms = [(_rand_word(rng), 1.0)]
        if rng.random() < 0.4:
            terms.append((_rand_word(rng), _coef(rng)))
        ops.append(_element(terms))
    times = sorted(rng.sample(range(1, 25), k))
    return {
        "experiment": "multitime",
        "alphabet": _ALPHABET,
        "state": _state(rng),
        "operators": ops,
        "times": times,
        "permutation": list(rng.choice(list(itertools.permutations(range(k))))),
    }


RECURRENCE = [
    Stratum("furstenberg-o1", _furstenberg(1, 3, 200), 16, 8),
    Stratum("furstenberg-o2", _furstenberg(2, 3, 100), 48, 24),
    Stratum("furstenberg-o3", _furstenberg(3, 2, 200), 16, 8),
    Stratum("furstenberg-o3-t3", _furstenberg(3, 3, 40), 6, 3),
    Stratum("bergelson", _bergelson, 60, 30),
    Stratum("mixing-decay", _mixing_decay, 30, 15),
    Stratum("multitime", _multitime, 40, 20),
]


# -- matrix ----------------------------------------------------------------------


def _p(rng: Rng) -> Fraction:
    return Fraction(rng.randint(0, 15), 16)


def _four_state(p: Fraction):
    """Transition and peripheral projection of the 4-state example, exactly.

    The peripheral projection removes the p-eigenvector e0 along the left
    eigenvector r = (1, -p/(1+p), -1/(1+p), 0)."""
    one, zero = Fraction(1), Fraction(0)
    transition = [
        [p, one - p, zero, zero],
        [zero, zero, one, zero],
        [zero, one, zero, zero],
        [zero, zero, zero, one],
    ]
    peripheral = [[one if i == j else zero for j in range(4)] for i in range(4)]
    peripheral[0] = [zero, p / (1 + p), 1 / (1 + p), zero]
    return transition, peripheral


def _family_rows(points: int):
    """The functional family (0, x, x, 1 - x), x on an even grid of [0, 1]."""
    xs = [Fraction(i, points - 1) for i in range(points)]
    return [[Fraction(0), x, x, 1 - x] for x in xs]


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _floats(rows):
    return [[float(v) for v in row] for row in rows]


def _section4(rng: Rng) -> Config:
    return {
        "experiment": "section4",
        "p": float(_p(rng)),
        "sweep": 600,
        "family_points": rng.randint(8, 20),
        "normalization": rng.choice(["as-written", "unital"]),
    }


def _section4_system(rng: Rng) -> Dict:
    return {
        "type": "section4",
        "p": float(_p(rng)),
        "projection": rng.choice(["EL", "Efix"]),
        "family_points": rng.randint(4, 10),
    }


def _tensor16(rng: Rng) -> Config:
    return {
        "experiment": "tensor",
        "left": _section4_system(rng),
        "right": _section4_system(rng),
        "check": rng.choice(["weak-mixing", "ergodicity"]),
        "sweep": rng.randint(150, 250),
        "tolerance": 1e-10,
    }


def _tensor64(rng: Rng) -> Config:
    """A 16-state matrix system (two 4-state examples, written out) tensored
    with one more 4-state example: d = 64."""
    t1, e1 = _four_state(_p(rng))
    t2, e2 = _four_state(_p(rng))
    rows = _kron(_family_rows(10), _family_rows(10))
    return {
        "experiment": "tensor",
        "left": {
            "type": "matrix",
            "transition": _floats(_kron(t1, t2)),
            "idempotent": _floats(_kron(e1, e2)),
            "functionals": _floats(rng.sample(rows, 30)),
        },
        "right": {"type": "section4", "p": float(_p(rng)), "projection": "EL",
                  "family_points": 10},
        "check": "weak-mixing",
        "sweep": 200,
        "tolerance": 1e-10,
    }


def _thm215(rng: Rng) -> Config:
    d = rng.randint(3, 8)
    rows = []
    for _ in range(d):
        weights = [rng.randint(0, 9) for _ in range(d)]
        weights[rng.randrange(d)] += 1
        total = sum(weights)
        rows.append([w / total for w in weights])
    return {"experiment": "thm215", "transition": rows, "sweep": rng.randint(400, 800)}


_CONTINUOUS_SCHEMES = (
    {"family": "uniform"},
    {"family": "power", "exponent": 1.0},
    {"family": "power", "exponent": -0.5},
    {"family": "log"},
    {"family": "voronoi", "exponent": 1.0},
)


def _frequency(rng: Rng) -> float:
    return _num(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))


_PYTHAGOREAN = ((3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13), (8, 15, 17), (7, 24, 25))


def _mean_ergodic(rng: Rng) -> Config:
    d = rng.randint(2, 4)
    vector = [[_num(rng.uniform(-1, 1)), _num(rng.uniform(-1, 1))] for _ in range(d)]
    if rng.random() < 0.5:
        # a diagonal generator with one zero frequency: the fixed space is e0
        generator = [[0.0] * d for _ in range(d)]
        for i in range(1, d):
            generator[i][i] = _frequency(rng)
        return {
            "experiment": "mean-ergodic",
            "flow": {"kind": "continuous", "generator": generator},
            "vector": vector,
            "scheme": dict(rng.choice(_CONTINUOUS_SCHEMES)),
            "indices": [10, 100, 1000],
            "tolerance": 0.05,
        }
    # a diagonal unitary with one unit eigenvalue; the other eigenvalues are
    # Pythagorean points of the unit circle, so no platform's cos/sin enters
    matrix = [[[0.0, 0.0] for _ in range(d)] for _ in range(d)]
    matrix[0][0] = [1.0, 0.0]
    for i in range(1, d):
        x, y, r = rng.choice(_PYTHAGOREAN)
        matrix[i][i] = [rng.choice([-1, 1]) * x / r, rng.choice([-1, 1]) * y / r]
    return {
        "experiment": "mean-ergodic",
        "flow": {"kind": "discrete", "matrix": matrix},
        "vector": vector,
        "scheme": {"family": rng.choice(["uniform", "log"])},
        "indices": [10, 100, 1000],
        "tolerance": 0.05,
    }


def _mean_ergodic_long(rng: Rng) -> Config:
    """Continuous uniform mean at N = 1e5: about 1e7 quadrature nodes."""
    return {
        "experiment": "mean-ergodic",
        "flow": {"kind": "continuous",
                 "generator": [[0.0, 0.0, 0.0], [0.0, _frequency(rng), 0.0],
                               [0.0, 0.0, _frequency(rng)]]},
        "vector": [1.0, 1.0, 1.0],
        "scheme": {"family": "uniform"},
        "indices": [100000],
        "tolerance": 0.05,
    }


def _folner_defect(rng: Rng) -> Config:
    scheme = dict(rng.choice(_CONTINUOUS_SCHEMES[1:]))
    scheme["domain"] = "continuous"
    return {
        "experiment": "folner-defect",
        "scheme": scheme,
        "shift": rng.randint(1, 4),
        "indices": [10, 100, 1000, 5000],
    }


def _rotation(n: int) -> Dict:
    return {"permutation": [(i + 1) % n for i in range(n)],
            "measure": [f"1/{n}"] * n}


def _coupling(rng: Rng, a: int, b: int) -> List[List[str]]:
    """North-west-corner coupling of two uniform measures, rows and columns
    in random order: always an exact coupling, rarely a joining."""
    rows, cols = [Fraction(1, a)] * a, [Fraction(1, b)] * b
    cell = [[Fraction(0)] * b for _ in range(a)]
    i = j = 0
    while i < a and j < b:
        m = min(rows[i], cols[j])
        cell[i][j] = m
        rows[i] -= m
        cols[j] -= m
        if rows[i] == 0:
            i += 1
        else:
            j += 1
    order_a, order_b = rng.sample(range(a), a), rng.sample(range(b), b)
    return [[str(cell[order_a[x]][order_b[y]]) for y in range(b)] for x in range(a)]


def _joinings_small(rng: Rng) -> Config:
    a, b = rng.randint(2, 5), rng.randint(2, 5)
    config = {"experiment": "joinings", "left": _rotation(a), "right": _rotation(b)}
    if rng.random() < 0.5:
        config["couplings"] = [_coupling(rng, a, b) for _ in range(rng.randint(1, 2))]
        config["scheme"] = rng.choice(
            [{"family": "uniform"}, {"family": "power", "exponent": 1.0}]
        )
        config["sweep"] = rng.randint(6, 30)
    return config


def _joinings_factor(rng: Rng) -> Config:
    """Rotations with gcd g > 1 and the factor (x - y) mod g: the joining is
    unique once the g cell masses are prescribed."""
    a, b = rng.choice([(2, 4), (2, 6), (3, 3), (3, 6), (4, 4), (4, 6)])
    g = gcd(a, b)
    weights = [rng.randint(1, 5) for _ in range(g)]
    masses = [str(Fraction(w, sum(weights))) for w in weights]
    return {
        "experiment": "joinings",
        "left": _rotation(a),
        "right": _rotation(b),
        "factor": {
            "generators": [[[(x - y) % g for y in range(b)] for x in range(a)]],
            "cell_masses": masses,
        },
    }


def _joinings_pair(a: int, b: int) -> Callable[[Rng], Config]:
    """One coprime pair, a * b LP variables: the largest LPs of the workload."""

    def make(rng: Rng) -> Config:
        return {"experiment": "joinings", "left": _rotation(a), "right": _rotation(b)}

    return make


MATRIX = [
    Stratum("tensor-16", _tensor16, 16, 8),
    Stratum("mean-ergodic", _mean_ergodic, 12, 6),
    Stratum("thm215", _thm215, 12, 6),
    Stratum("joinings", _joinings_small, 12, 6),
    Stratum("joinings-factor", _joinings_factor, 8, 4),
    Stratum("section4", _section4, 96, 48),
    Stratum("folner-defect", _folner_defect, 20, 10),
    # item_p90_ms lands in this stratum, whose items take one of two times;
    # drawing 10 of 20 moved it by up to 25 % between seeds, so every seed
    # runs the same 10
    Stratum("tensor-64", _tensor64, 10, 10),
    Stratum("mean-ergodic-long", _mean_ergodic_long, 4, 1),
    Stratum("joinings-7x8", _joinings_pair(7, 8), 1, 1),
    Stratum("joinings-9x10", _joinings_pair(9, 10), 1, 1),
]

WORKLOADS: Dict[str, List[Stratum]] = {
    "gap-scan": GAP_SCAN,
    "recurrence": RECURRENCE,
    "matrix": MATRIX,
}


def catalogue(workload: str) -> List[Tuple[str, Config]]:
    """Every (item id, config) of a workload, in a fixed order."""
    items = []
    for stratum in WORKLOADS[workload]:
        for j in range(stratum.pool):
            rng = random.Random(f"{workload}/{stratum.name}/{j}")
            items.append((f"{stratum.name}/{j}", stratum.make(rng)))
    return items


def draw(workload: str, seed: int) -> List[Tuple[str, Config]]:
    """The seeded items of one run: ``draw`` per stratum, in shuffled order."""
    rng = random.Random(seed)
    items = []
    for stratum in WORKLOADS[workload]:
        for j in sorted(rng.sample(range(stratum.pool), stratum.draw)):
            item_rng = random.Random(f"{workload}/{stratum.name}/{j}")
            items.append((f"{stratum.name}/{j}", stratum.make(item_rng)))
    rng.shuffle(items)
    return items
