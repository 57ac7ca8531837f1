"""Monomials, monomial ideals, and factors I/J over a fixed polynomial ring.

A monomial is a bare exponent tuple; the ambient variable count travels with
the ideal.  Ideals keep their generating set minimal and deglex-sorted, so
equality is structural and printing is deterministic.  All types are
immutable by construction and every operation returns fresh values.

Minimality is read off per-axis bitsets rather than by comparing pairs:
for each axis, every exponent value maps to the set of generators whose
exponent there is at most that value, and a generator is minimal iff the
AND of its sets over all axes holds it alone.  That is O(g n) word
operations for g generators in n variables, after two sorts.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from operator import and_, eq, le

Monomial = tuple[int, ...]

# machine-width guard: exponents beyond this are rejected at construction
MAX_EXPONENT = 2**31 - 1


class DimensionError(ValueError):
    """Operands belong to rings with different variable counts."""


class FactorError(ValueError):
    """The pair (I, J) does not satisfy J strictly contained in I."""


def deglex_key(m: Monomial) -> tuple:
    """Sort key: total degree first, then lexicographically larger vectors first."""
    return (sum(m), tuple(-e for e in m))


def divides(u: Monomial, v: Monomial) -> bool:
    """True iff x^u divides x^v, i.e. u <= v componentwise."""
    if len(u) != len(v):
        raise DimensionError(
            f"cannot compare exponent vectors of lengths {len(u)} and {len(v)}"
        )
    return all(a <= b for a, b in zip(u, v))


def minimalize(gens) -> tuple[Monomial, ...]:
    """Divisibility-minimal subset of gens, deglex-sorted and duplicate-free."""
    ms = set(map(tuple, gens))
    if len(ms) < 2:
        return tuple(ms)
    if len(set(map(len, ms))) > 1:
        ms = sorted(ms, key=deglex_key)
        other = next(m for m in ms if len(m) != len(ms[0]))
        raise DimensionError(f"cannot compare exponent vectors of lengths "
                             f"{len(ms[0])} and {len(other)}")
    # deglex: lex-descending, then stably by degree
    ms = sorted(ms, reverse=True)
    ms.sort(key=sum)
    # distinct monomials of equal degree never divide each other, so those
    # of the lowest degree are minimal and only the rest need a test
    degrees = list(map(sum, ms))
    low = bisect_right(degrees, degrees[0])
    if low == len(ms):
        return tuple(ms)
    # per axis j, below[e] has bit k set for each generator k with exponent
    # <= e on j; ANDing below[m_j] over all j leaves the generators that
    # divide m, and m is minimal iff that is m alone
    bits = [1 << k for k in range(len(ms))]
    divisors = [-1] * (len(ms) - low)
    for col in zip(*ms):
        below = dict.fromkeys(col, 0)
        for e, bit in zip(col, bits):
            below[e] |= bit
        acc = 0
        for e in sorted(below):
            acc = below[e] = acc | below[e]
        divisors = list(map(and_, divisors, map(below.__getitem__, col[low:])))
    return tuple(ms[:low]) + tuple(compress(ms[low:], map(eq, divisors, bits[low:])))


class MonomialIdeal:
    """A monomial ideal stored as its minimal generating set.

    The zero ideal has no generators; the unit ideal is generated by the
    all-zero exponent vector.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens=()):
        if n < 1:
            raise ValueError("variable count must be positive")
        checked = []
        for g in gens:
            g = tuple(map(int, g))
            if len(g) != n:
                raise DimensionError(
                    f"generator {g} has {len(g)} exponents, expected {n}"
                )
            if min(g) < 0 or max(g) > MAX_EXPONENT:
                for e in g:
                    if e < 0:
                        raise ValueError(f"negative exponent in generator {g}")
                    if e > MAX_EXPONENT:
                        raise ValueError(f"exponent {e} exceeds the 2^31 - 1 cap")
            checked.append(g)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", minimalize(checked))

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, m) -> bool:
        """Membership of x^m: some generator divides it (the length is
        checked once, not per generator as divides would)."""
        m = tuple(m)
        if len(m) != self.n:
            raise DimensionError(
                f"monomial {m} has {len(m)} exponents, expected {self.n}"
            )
        for g in self.gens:
            if all(map(le, g, m)):
                return True
        return False

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff other is a subset of self."""
        if self.n != other.n:
            raise DimensionError("ideals live in different rings")
        return all(self.contains(g) for g in other.gens)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, gens={list(self.gens)})"


class Factor:
    """The factor module I/J; J must be strictly contained in I (J = 0 allowed)."""

    __slots__ = ("I", "J", "_join", "_types")

    def __init__(self, I: MonomialIdeal, J: MonomialIdeal | None = None):
        if J is None:
            J = MonomialIdeal(I.n)
        if I.n != J.n:
            raise DimensionError("I and J live in different rings")
        if not I.contains_ideal(J):
            bad = next(g for g in J.gens if not I.contains(g))
            raise FactorError(
                f"J is not contained in I: generator {bad} of J lies outside I"
            )
        if J.contains_ideal(I):
            raise FactorError("J equals I; the factor I/J would be zero")
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "J", J)
        object.__setattr__(
            self, "_join", tuple(map(max, zip((0,) * I.n, *I.gens, *J.gens))))
        object.__setattr__(self, "_types", None)

    def __setattr__(self, name, value):
        raise AttributeError("Factor is immutable")

    @property
    def n(self) -> int:
        return self.I.n

    def join_exponents(self) -> Monomial:
        """Componentwise maximum over all generators of I and J, computed
        once, when the factor is made."""
        return self._join

    def types(self) -> tuple[tuple[int, ...], ...]:
        """The type of every variable: its distinct positive exponents over
        G(I) and G(J), increasing.  Computed on first use and kept."""
        if self._types is None:
            object.__setattr__(self, "_types", tuple(
                tuple(sorted(set(col) - {0})) for col in zip(*self.I.gens, *self.J.gens)))
        return self._types

    def support(self, a) -> bool:
        """True iff x^a lies in I but not in J."""
        return self.I.contains(a) and not self.J.contains(a)

    def __eq__(self, other):
        return isinstance(other, Factor) and self.I == other.I and self.J == other.J

    def __hash__(self):
        return hash((self.I, self.J))

    def __repr__(self):
        return f"Factor(I={self.I!r}, J={self.J!r})"
