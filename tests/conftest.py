"""Shared helpers: a naive letter-level reduction oracle and random builders."""

from __future__ import annotations

import itertools
import random
from typing import List, Tuple

from ergolab import AlgebraElement, Alphabet, L2Vector, State, Word


def letters_of(word: Word) -> List[Tuple[str, int, int]]:
    """Expand a word's runs into unit letters with exponent +-1."""
    out = []
    for fam, idx, exp in word.runs:
        step = 1 if exp > 0 else -1
        out.extend([(fam, idx, step)] * abs(exp))
    return out


def naive_reduce(letters: List[Tuple[str, int, int]]) -> List[Tuple[str, int, int]]:
    """Repeatedly delete the first adjacent inverse pair until none remains."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            f1, i1, e1 = out[i]
            f2, i2, e2 = out[i + 1]
            if f1 == f2 and i1 == i2 and e1 == -e2:
                del out[i : i + 2]
                changed = True
                break
    return out


def word_from_letters(alphabet: Alphabet, letters) -> Word:
    w = alphabet.identity()
    for fam, idx, exp in letters:
        w = w * alphabet.letter(fam, idx, exp)
    return w


def random_word(rng: random.Random, alphabet: Alphabet, max_letters: int = 6,
                idx_span: int = 3, families=None) -> Word:
    """Up to max_letters random letters, from the given families or all of them."""
    w = alphabet.identity()
    fams = [(f, m) for f, m in alphabet.lengths.items() if families is None or f in families]
    for _ in range(rng.randint(0, max_letters)):
        fam, length = rng.choice(fams)
        idx = rng.randint(0, length - 1) if length else rng.randint(-idx_span, idx_span)
        w = w * alphabet.letter(fam, idx, rng.choice([-1, 1]))
    return w


def random_element(rng: random.Random, alphabet: Alphabet, terms: int = 2,
                   max_letters: int = 4) -> AlgebraElement:
    el = AlgebraElement.zero(alphabet)
    for _ in range(terms):
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        el = el + AlgebraElement.unitary(random_word(rng, alphabet, max_letters), coeff)
    return el


def random_vector_state(rng: random.Random, alphabet: Alphabet, support: int = 2,
                        max_letters: int = 2, idx_span: int = 2) -> State:
    vec = None
    seen = set()
    for _ in range(support):
        w = random_word(rng, alphabet, max_letters, idx_span)
        if w.runs in seen:
            continue
        seen.add(w.runs)
        amp = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        term = amp * L2Vector.basis(w)
        vec = term if vec is None else vec + term
    if vec is None or vec.norm() == 0.0:
        vec = L2Vector.basis(alphabet.identity())
    return State.vector_state(vec.normalized())


def mixing_corpus() -> list:
    """The gap scans of acceptance criterion 4: (states, operators, permutation).

    Ten vector states over {s, t shift; c cycle 3}, then for k = 2, 3, 4 a set
    of operator tuples with at least one infinite-orbit term, each scanned
    under two random permutations (100 scans).
    """
    ab = Alphabet({"s": None, "t": None, "c": 3})
    rng = random.Random(20240604)
    fams = [("s", None), ("t", None), ("c", 3)]

    def lam(word, coeff=1.0):
        return AlgebraElement.unitary(word, coeff)

    def rand_word(max_runs=3, lo=-3, hi=3):
        w = ab.identity()
        for _ in range(rng.randint(1, max_runs)):
            fam, m = rng.choice(fams)
            idx = rng.randint(0, m - 1) if m else rng.randint(lo, hi)
            w = w * ab.letter(fam, idx, rng.choice([-2, -1, 1, 2]))
        return w

    def rand_tuple(k, allow_two_terms):
        while True:
            ops = [lam(rand_word()) for _ in range(k)]
            if rng.random() < 0.5:
                # half the tuples pair a word against a shifted inverse, with
                # mostly finite-orbit middles, so cancellations are reachable
                base = rand_word(2)
                ops[0] = lam(base)
                ops[-1] = lam(base.inverse().shifted(rng.randint(1, 5)))
                for j in range(1, k - 1):
                    if rng.random() < 0.5:
                        middle = (
                            rand_word(1, 0, 2)
                            if rng.random() < 0.3
                            else ab.word(f"c[{rng.randint(0, 2)}]")
                        )
                        ops[j] = lam(middle)
            if allow_two_terms and rng.random() < 0.3:
                j = rng.randrange(k)
                ops[j] = ops[j] + lam(
                    rand_word(), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                )
            infinite = any(
                not AlgebraElement.unitary(w).finite_orbit_part()
                for op in ops
                for w, _ in op.items()
            )
            if infinite:
                return ops

    states = []
    while len(states) < 10:
        support = [ab.identity()] if rng.random() < 0.7 else []
        while len(support) < rng.randint(1, 2):
            w = rand_word(2, 0, 6)
            if all(w != s for s in support):
                support.append(w)
        vec = None
        for w in support:
            amp = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            piece = amp * L2Vector.basis(w)
            vec = piece if vec is None else vec + piece
        if vec.norm() > 1e-6:
            states.append(State.vector_state(vec.normalized()))

    scans = []
    for k, count, allow_two in [(2, 20, True), (3, 20, True), (4, 10, False)]:
        perms = list(itertools.permutations(range(k)))
        for _ in range(count):
            ops = rand_tuple(k, allow_two)
            for perm in rng.sample(perms, 2):
                scans.append((states, ops, perm))
    return scans
