"""Reduced words in a free group whose symbols carry a shift bijection.

An :class:`Alphabet` declares finitely many symbol families.  A ``shift``
family is indexed by all integers and the symbol map sends index ``i`` to
``i + 1``; a ``cycle`` family of length ``m`` has indices ``0 .. m-1`` and the
map rotates them.  The induced map on the full symbol set is a bijection, so
it extends letterwise to an automorphism of the free group on those symbols.

Words are stored as run-length sequences ``(family, index, exponent)`` in
freely reduced canonical form: two words represent the same group element
exactly when their run tuples are equal.  All values are immutable and all
operations are pure functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

Run = tuple  # (family: str, index: int, exponent: int)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(-?\d+)\](?:\^(-?\d+))?$")


class AlphabetError(ValueError):
    """Invalid family declaration or symbol outside its family's range."""


class WordParseError(ValueError):
    """Malformed word literal."""


def merge_runs(*parts: Sequence[Run]) -> tuple:
    """Concatenate run sequences and freely reduce the result.

    Each input sequence may be arbitrary (adjacent equal symbols, zero
    exponents are tolerated); the output never has adjacent runs on the same
    symbol and never has a zero exponent, so it is the canonical form.
    """
    out: list = []
    for runs in parts:
        for run in runs:
            fam, idx, exp = run
            if exp == 0:
                continue
            if out:
                top = out[-1]
                if top[0] == fam and top[1] == idx:
                    exp += top[2]
                    out.pop()
                    if exp:
                        out.append((fam, idx, exp))
                    continue
            out.append(run)
    return tuple(out)


def invert_runs(runs: Sequence[Run]) -> tuple:
    """Runs of the group inverse: reversed order, negated exponents."""
    return tuple((fam, idx, -exp) for fam, idx, exp in reversed(runs))


def shift_runs(runs: Sequence[Run], n: int, lengths: Mapping[str, Optional[int]]) -> tuple:
    """Apply the symbol shift ``n`` times, letterwise.

    The shift is a bijection on symbols, so the result is reduced whenever
    the input is.
    """
    if n == 0:
        return tuple(runs)
    out = []
    for fam, idx, exp in runs:
        m = lengths[fam]
        out.append((fam, idx + n if m is None else (idx + n) % m, exp))
    return tuple(out)


def _divisors(n: int) -> list:
    divs = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            divs.append(d)
            if d != n // d:
                divs.append(n // d)
        d += 1
    return sorted(divs)


@dataclass(frozen=True)
class Orbit:
    """Orbit type of a word under the shift automorphism.

    ``period`` is the least ``p > 0`` with ``shifted(p) == word`` when the
    orbit is finite, and ``None`` when the orbit is infinite.
    """

    period: Optional[int]

    @property
    def finite(self) -> bool:
        return self.period is not None

    @classmethod
    def infinite(cls) -> "Orbit":
        return cls(None)


class Alphabet:
    """Declared symbol families; ``length`` is ``None`` for a shift family."""

    __slots__ = ("_lengths",)

    def __init__(self, families: Union[Mapping[str, Optional[int]], Iterable]):
        if isinstance(families, Mapping):
            items = list(families.items())
        else:
            items = list(families)
        lengths = {}
        for name, length in items:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise AlphabetError(f"invalid family name {name!r}")
            if name in lengths:
                raise AlphabetError(f"duplicate family {name!r}")
            if length is not None and (not isinstance(length, int) or length < 1):
                raise AlphabetError(f"cycle length for {name!r} must be a positive integer")
            lengths[name] = length
        if not lengths:
            raise AlphabetError("alphabet needs at least one family")
        self._lengths = lengths

    @property
    def lengths(self) -> Mapping[str, Optional[int]]:
        return dict(self._lengths)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self._lengths == other._lengths

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._lengths.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}: {'shift' if m is None else f'cycle({m})'}"
            for name, m in self._lengths.items()
        )
        return f"Alphabet({inner})"

    def is_cycle(self, family: str) -> bool:
        return self._lengths[family] is not None

    def check_symbol(self, family: str, index: int) -> None:
        m = self._lengths.get(family)
        if family not in self._lengths:
            raise AlphabetError(f"unknown family {family!r}")
        if m is not None and not 0 <= index < m:
            raise AlphabetError(f"index {index} outside cycle {family!r} of length {m}")

    def identity(self) -> "Word":
        return Word(self, ())

    def letter(self, family: str, index: int, exponent: int = 1) -> "Word":
        self.check_symbol(family, index)
        if exponent == 0:
            raise WordParseError("zero exponent")
        return Word(self, ((family, index, exponent),))

    def word(self, text: str) -> "Word":
        """Parse a whitespace-separated list of ``family[index]^exp`` tokens."""
        runs: list = []
        for token in text.split():
            m = _TOKEN_RE.match(token)
            if not m:
                raise WordParseError(f"malformed token {token!r}")
            family, idx, exp = m.group(1), int(m.group(2)), m.group(3)
            exp = 1 if exp is None else int(exp)
            if exp == 0:
                raise WordParseError(f"zero exponent in {token!r}")
            if family not in self._lengths:
                raise WordParseError(f"unknown family {family!r} in {token!r}")
            length = self._lengths[family]
            if length is not None and not 0 <= idx < length:
                raise WordParseError(
                    f"index {idx} outside cycle {family!r} of length {length}"
                )
            runs.append((family, idx, exp))
        return Word(self, merge_runs(runs))


class Word:
    """A canonically reduced free-group word over a fixed alphabet.

    Instances are immutable, hashable and totally determined by their run
    tuple; the empty run tuple is the group identity.
    """

    __slots__ = ("alphabet", "runs", "_hash")

    def __init__(self, alphabet: Alphabet, runs: tuple):
        self.alphabet = alphabet
        self.runs = runs
        self._hash = hash(runs)

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.runs == other.runs
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        """Letter length of the reduced word."""
        return sum(abs(exp) for _, _, exp in self.runs)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __str__(self) -> str:
        return " ".join(
            f"{fam}[{idx}]" + (f"^{exp}" if exp != 1 else "")
            for fam, idx, exp in self.runs
        )

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    @property
    def is_identity(self) -> bool:
        return not self.runs

    # -- group operations ----------------------------------------------------

    def _check_compatible(self, other: "Word") -> None:
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetError("words come from different alphabets")

    def __mul__(self, other: "Word") -> "Word":
        self._check_compatible(other)
        return Word(self.alphabet, merge_runs(self.runs, other.runs))

    def inverse(self) -> "Word":
        return Word(self.alphabet, invert_runs(self.runs))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word(self.alphabet, ())
        base = self if n > 0 else self.inverse()
        result = Word(self.alphabet, ())
        for _ in range(abs(n)):
            result = result * base
        return result

    def shifted(self, n: int = 1) -> "Word":
        """Image under the n-th power of the symbol-shift automorphism."""
        return Word(self.alphabet, shift_runs(self.runs, n, self.alphabet._lengths))

    # -- orbit classification -------------------------------------------------

    def orbit(self) -> Orbit:
        """Finite orbit with minimal period, or infinite.

        A word has a finite orbit exactly when every symbol lies in a cycle
        family; the minimal period then divides the lcm of the occurring
        cycle lengths, so only divisors of that lcm need testing.
        """
        lengths = self.alphabet._lengths
        cycles = set()
        for fam, _, _ in self.runs:
            m = lengths[fam]
            if m is None:
                return Orbit.infinite()
            cycles.add(m)
        if not cycles:
            return Orbit(1)
        total = math.lcm(*cycles)
        for d in _divisors(total):
            if shift_runs(self.runs, d, lengths) == self.runs:
                return Orbit(d)
        return Orbit(total)  # unreachable: total always fixes the word
