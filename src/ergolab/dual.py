"""The dual system on a free group: group algebra, vectors and states.

Finite complex combinations of group unitaries form the computable dense
*-subalgebra of the reduced group C*-algebra.  The shift automorphism of the
word module acts on it termwise, and the finite-orbit projection keeps
exactly the terms whose words have finite shift orbits.  States are the
canonical trace, unit vector states on finitely supported l2 vectors, and
finite convex mixtures of those.

Word arithmetic is exact; coefficients are double precision and magnitudes
below ``PRUNE_TOL`` are dropped after every ring operation so that exact
cancellations stay exact.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Sequence, Tuple

from .words import Alphabet, AlphabetError, Word, invert_runs, merge_runs, shift_runs

PRUNE_TOL = 1e-14
CLOSE_TOL = 1e-12  # is_close: largest coefficient distance
UNIT_TOL = 1e-9  # states: largest deviation of a norm, or of a weight total, from 1


def _pruned(terms: Dict[tuple, complex]) -> Dict[tuple, complex]:
    """The table, pruned in place of its coefficients at most ``PRUNE_TOL``;
    the kept terms keep their order and no key is hashed again.  A modulus
    past the float range is read as ``hypot``'s infinity, not raised, and a
    NaN coefficient is kept, so that the result carries it."""
    try:
        small = [runs for runs, c in terms.items() if abs(c) <= PRUNE_TOL]
    except OverflowError:
        small = [runs for runs, c in terms.items() if math.hypot(c.real, c.imag) <= PRUNE_TOL]
    for runs in small:
        del terms[runs]
    return terms


def _term_rows(terms: Dict[tuple, complex]) -> list:
    """(runs, coefficient, first symbol, last symbol) per term, in term order;
    a symbol is ``(family, index)``, None for the identity word."""
    return [
        (runs, c, runs[0][:2] if runs else None, runs[-1][:2] if runs else None)
        for runs, c in terms.items()
    ]


def _convolve(left: list, right: list) -> Dict[tuple, complex]:
    """Pruned term table of sum_u sum_v left[u] right[v] [u v]: products and the action.

    Both factors come as ``_term_rows``, so their junction symbols are read
    once per table, not once per pair.  Keys are canonical (``_TermTable``),
    so [u v] is u + v unless u's last symbol is v's first; only those pairs
    go through ``merge_runs``.
    """
    acc: Dict[tuple, complex] = {}
    for ru, cu, _, last in left:
        for rv, cv, first, _ in right:
            w = ru + rv if first != last or first is None else merge_runs(ru, rv)
            acc[w] = acc.get(w, 0.0) + cu * cv
    return _pruned(acc)


def _trace_of(left: Dict[tuple, complex], right: Dict[tuple, complex]) -> complex:
    """Trace of the product of two term tables, sum_u L[u] R[u^-1], not formed.

    The smaller side (left on a tie) is walked in its term order and the
    other looked up at the inverted runs.  A total within ``PRUNE_TOL`` of
    zero is exactly zero, as the identity coefficient of the pruned product
    would be; a NaN total stays NaN.
    """
    walked, other = (left, right) if len(left) <= len(right) else (right, left)
    total = 0.0
    for runs, c in walked.items():
        d = other.get(invert_runs(runs))
        if d is not None:
            total += c * d
    return 0.0 + 0.0j if abs(total) <= PRUNE_TOL else complex(total)


def _shift_shape(runs: tuple, lengths) -> tuple:
    """(shape, base, cycle letters) of a key: the families and exponents in
    order with each shift index less ``base``, the first shift index (None if
    none), and (length, index) per cycle letter.  shift^n(v) = w exactly when
    the shapes agree, w's base is v's plus n and each cycle index moves by n."""
    base, shape, cycles = None, [], []
    for fam, idx, exp in runs:
        m = lengths[fam]
        if m is None:
            if base is None:
                base = idx
            shape.append((fam, exp, idx - base))
        else:
            shape.append((fam, exp))
            cycles.append((m, idx))
    return tuple(shape), base, cycles


def _shift_traces(left: Dict[tuple, complex], right: Dict[tuple, complex],
                  shifts: Iterable[int], lengths) -> Dict[int, complex]:
    """n -> trace of left times shift^n(right), for every n of ``shifts``.

    Each value equals ``_trace_of(left, shift^n(right))`` bit for bit: the
    smaller side (left on a tie) is walked in its term order, each walked
    key inverted once, and its products added to each total in that order; a
    total within ``PRUNE_TOL`` of zero is exactly zero and a NaN stays NaN.
    The other side's keys are indexed once by ``_shift_shape``, so a walked
    key with a shift letter meets at most one n per key of its shape (the
    difference of the bases), a key of cycle letters alone the n whose
    residues match, and the identity every n.  No shifted table is built.
    """
    totals = dict.fromkeys(shifts, 0.0)
    # a walked right key v pairs with the left key shift^n(v^-1), a walked
    # left key u with the right key v where shift^n(v) = u^-1
    sign = 1 if len(left) <= len(right) else -1
    walked, other = (left, right) if sign == 1 else (right, left)
    index: Dict[tuple, list] = {}
    for runs, d in other.items():
        shape, base, cycles = _shift_shape(runs, lengths)
        index.setdefault(shape, []).append((base, cycles, d))
    for runs, c in walked.items():
        shape, base, cycles = _shift_shape(invert_runs(runs), lengths)
        for other_base, other_cycles, d in index.get(shape, ()):
            if base is not None:
                n = sign * (base - other_base)
                hits = (n,) if n in totals else ()
            else:
                hits = totals
            for n in hits:
                if not cycles or all((idx - other_idx - sign * n) % m == 0
                                     for (m, idx), (_, other_idx) in zip(cycles, other_cycles)):
                    totals[n] += c * d
    return {n: 0.0 + 0.0j if abs(t) <= PRUNE_TOL else complex(t) for n, t in totals.items()}


class _TermTable:
    """Finite complex combination of group elements keyed by reduced runs.

    The linear structure shared by algebra elements and l2 vectors; a table
    not marked ``_trusted`` is read as complex and pruned.  Every key is a
    canonical run tuple, which ``_convolve`` relies on: keys are the runs of
    words (``Alphabet.word``, ``letter`` and ``identity``) or come from
    ``merge_runs``, ``shift_runs`` and ``invert_runs``, all canonical.
    """

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms: Dict[tuple, complex], *, _trusted=False):
        self.alphabet = alphabet
        self._terms = terms if _trusted else _pruned({r: complex(c) for r, c in terms.items()})

    @classmethod
    def from_terms(cls, alphabet: Alphabet, pairs: Iterable[Tuple[Word, complex]]):
        acc: Dict[tuple, complex] = {}
        for word, c in pairs:
            acc[word.runs] = acc.get(word.runs, 0.0) + complex(c)
        return cls(alphabet, acc)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[Tuple[Word, complex]]:
        for runs, c in self._terms.items():
            yield Word(self.alphabet, runs), c

    def _check_compatible(self, other: "_TermTable") -> None:
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetError("operands come from different alphabets")

    def __add__(self, other):
        self._check_compatible(other)
        acc = dict(self._terms)
        for runs, c in other._terms.items():
            acc[runs] = acc.get(runs, 0.0) + c
        return type(self)(self.alphabet, _pruned(acc), _trusted=True)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        s = complex(scalar)
        return type(self)(
            self.alphabet, _pruned({r: s * c for r, c in self._terms.items()}), _trusted=True
        )


class AlgebraElement(_TermTable):
    """Finite sum of coefficients times group unitaries, keyed by reduced runs."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "AlgebraElement":
        return cls(alphabet, {}, _trusted=True)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "AlgebraElement":
        return cls(alphabet, {(): 1.0 + 0.0j}, _trusted=True)

    @classmethod
    def unitary(cls, word: Word, coefficient: complex = 1.0) -> "AlgebraElement":
        """The group unitary of ``word`` (scaled), a single-term element."""
        return cls(word.alphabet, {word.runs: complex(coefficient)})

    # -- inspection ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, word: Word) -> complex:
        return self._terms.get(word.runs, 0.0 + 0.0j)

    @property
    def trace(self) -> complex:
        """Coefficient of the identity word: the canonical trace."""
        return self._terms.get((), 0.0 + 0.0j)

    def l1(self) -> float:
        return sum(abs(c) for c in self._terms.values())

    def distance(self, other: "AlgebraElement") -> float:
        keys = set(self._terms) | set(other._terms)
        if not keys:
            return 0.0
        return max(abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) for k in keys)

    def is_close(self, other: "AlgebraElement") -> bool:
        return self.distance(other) <= CLOSE_TOL

    def __repr__(self) -> str:
        shown = []
        for runs, c in list(self._terms.items())[:4]:
            word = Word(self.alphabet, runs)
            shown.append(f"({c:.3g})*[{word}]")
        tail = " + ..." if len(self._terms) > 4 else ""
        return "AlgebraElement(" + (" + ".join(shown) or "0") + tail + ")"

    # -- ring structure --------------------------------------------------------

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return self._times(other)
        return self.__rmul__(other)

    def _times(self, other: "_TermTable") -> "_TermTable":
        """The convolution ``self * other``, of ``other``'s type: products and the action."""
        self._check_compatible(other)
        terms = _convolve(_term_rows(self._terms), _term_rows(other._terms))
        return type(other)(self.alphabet, terms, _trusted=True)

    def adjoint(self) -> "AlgebraElement":
        """Conjugate coefficients on inverted words."""
        return AlgebraElement(
            self.alphabet,
            {invert_runs(r): c.conjugate() for r, c in self._terms.items()},
            _trusted=True,
        )

    def shifted(self, n: int = 1) -> "AlgebraElement":
        """The dual automorphism power: shift every word, keep coefficients."""
        lengths = self.alphabet._lengths
        return AlgebraElement(
            self.alphabet,
            {shift_runs(r, n, lengths): c for r, c in self._terms.items()},
            _trusted=True,
        )

    def finite_orbit_part(self) -> "AlgebraElement":
        """Conditional expectation onto the finite-orbit subalgebra.

        Keeps a term exactly when every symbol of its word lies in a cycle
        family; terms on infinite-orbit words are dropped.
        """
        lengths = self.alphabet._lengths
        kept = {
            runs: c
            for runs, c in self._terms.items()
            if all(lengths[fam] is not None for fam, _, _ in runs)
        }
        return AlgebraElement(self.alphabet, kept, _trusted=True)

    # -- representation on finitely supported vectors ---------------------------

    def apply(self, vec: "L2Vector") -> "L2Vector":
        """Left action extending unitary(g) delta_h = delta_{g h}."""
        return self._times(vec)


class L2Vector(_TermTable):
    """Finitely supported vector in l2 of the group, keyed by reduced runs."""

    __slots__ = ()

    @classmethod
    def basis(cls, word: Word) -> "L2Vector":
        """The standard basis vector supported on one group element."""
        return cls(word.alphabet, {word.runs: 1.0 + 0.0j}, _trusted=True)

    def amplitude(self, word: Word) -> complex:
        return self._terms.get(word.runs, 0.0 + 0.0j)

    def inner(self, other: "L2Vector") -> complex:
        """Inner product, conjugate-linear in the first argument."""
        small, big, conj_first = (
            (self._terms, other._terms, True)
            if len(self._terms) <= len(other._terms)
            else (other._terms, self._terms, False)
        )
        total = 0.0 + 0.0j
        for r, c in small.items():
            d = big.get(r)
            if d is not None:
                total += c.conjugate() * d if conj_first else d.conjugate() * c
        return total

    def norm(self) -> float:
        """The l2 norm, infinite only where the true norm is: a sum of squares
        past the float range is redone by ``hypot``.  No square underflows,
        since coefficients are above ``PRUNE_TOL``."""
        try:
            squares = sum(abs(c) ** 2 for c in self._terms.values())
        except OverflowError:
            squares = math.inf
        if squares < math.inf:
            return math.sqrt(squares)
        return math.hypot(*(part for c in self._terms.values() for part in (c.real, c.imag)))

    def normalized(self) -> "L2Vector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        if not n < math.inf:
            raise ValueError(f"cannot normalize a vector of norm {n!r}")
        return (1.0 / n) * self

    def __repr__(self) -> str:
        shown = ", ".join(
            f"[{Word(self.alphabet, r)}]: {c:.3g}" for r, c in list(self._terms.items())[:4]
        )
        tail = ", ..." if len(self._terms) > 4 else ""
        return f"L2Vector({shown}{tail})"


def matrix_element(bra: Word, element: AlgebraElement, ket: Word) -> complex:
    """The (bra, ket) matrix entry of the element in the delta basis.

    Equals the coefficient of ``bra * ket^{-1}``, since a unitary term on g
    sends delta_ket to delta_{g ket}.
    """
    runs = merge_runs(bra.runs, invert_runs(ket.runs))
    return element._terms.get(runs, 0.0 + 0.0j)


class State:
    """A positive unital functional evaluated on algebra elements.

    Three kinds: the canonical trace (identity-word coefficient), a unit
    vector state, and a finite convex mixture of unit vector states.  A
    vector state on x keeps ``components`` ((1.0, x),), as a mixture does.
    """

    __slots__ = ("kind", "vector", "components")

    _TRACE = "trace"
    _VECTOR = "vector"
    _MIXTURE = "mixture"

    def __init__(self, kind: str, vector=None, components=None):
        self.kind = kind
        self.vector = vector
        self.components = components

    @classmethod
    def trace(cls) -> "State":
        return cls(cls._TRACE)

    @classmethod
    def vector_state(cls, x: L2Vector) -> "State":
        if not abs(x.norm() - 1.0) <= UNIT_TOL:
            raise ValueError(f"vector state needs a unit vector, got norm {x.norm()!r}")
        return cls(cls._VECTOR, vector=x, components=((1.0, x),))

    @classmethod
    def mixture(cls, pairs: Sequence[Tuple[float, L2Vector]]) -> "State":
        pairs = [(float(p), x) for p, x in pairs]
        if not pairs:
            raise ValueError("mixture needs at least one component")
        if any(p <= 0 for p, _ in pairs):
            raise ValueError("mixture weights must be positive")
        if abs(sum(p for p, _ in pairs) - 1.0) > UNIT_TOL:
            raise ValueError("mixture weights must sum to 1")
        for _, x in pairs:
            if not abs(x.norm() - 1.0) <= UNIT_TOL:
                raise ValueError("mixture components must be unit vectors")
        return cls(cls._MIXTURE, components=tuple(pairs))

    def __call__(self, element: AlgebraElement) -> complex:
        if self.kind == self._TRACE:
            return element.trace
        total = 0.0 + 0.0j
        for p, x in self.components:
            total += p * x.inner(element.apply(x))
        return total

    def on_product(self, left: AlgebraElement, right: AlgebraElement) -> complex:
        """The state's value on ``left * right``, without forming the product
        for the trace (``_trace_of``).  Vector and mixture states evaluate the
        formed product."""
        if self.kind != self._TRACE:
            return self(left * right)
        left._check_compatible(right)
        return _trace_of(left._terms, right._terms)

    def profile(self, alphabet: Alphabet) -> Dict[Word, complex]:
        """Values of the state on group unitaries, as a finite word table."""
        return {
            Word(alphabet, runs): value
            for runs, value in self.runs_profile().items()
        }

    def runs_profile(self) -> Dict[tuple, complex]:
        """Support table keyed by raw runs; internal fast form of profile()."""
        if self.kind == self._TRACE:
            return {(): 1.0 + 0.0j}
        acc: Dict[tuple, complex] = {}
        for p, x in self.components:
            # each h^-1 once; as in ``_convolve``, only junctions that meet merge
            inverses = [(invert_runs(rh), ch) for rh, ch in x._terms.items()]
            for rf, cf in x._terms.items():
                last = rf[-1][:2] if rf else None
                pc = p * cf.conjugate()
                for ri, ch in inverses:
                    w = merge_runs(rf, ri) if ri and ri[0][:2] == last else rf + ri
                    acc[w] = acc.get(w, 0.0) + pc * ch
        return _pruned(acc)

    def __repr__(self) -> str:
        return f"State({self.kind})"
