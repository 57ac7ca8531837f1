"""Exponent-compression canonical form and the elementary transforms around it.

For each variable the distinct positive exponents appearing among the
generators of I and J form the "type" (k_1 < ... < k_s); the canonical form
replaces the i-th smallest exponent by i, per variable, in one simultaneous
substitution.  Gap collapsing and shifting are the same kind of substitution
on a single variable, and all of them go through _substitute.  Each
substitution is a strictly increasing bijection on occurring exponents, so
divisibility among generators is both preserved and reflected: minimal
generating sets stay minimal, generator counts are unchanged, and J strictly
inside I stays that way.  _substitute re-checks both facts once per
transform and raises if either fails, since it would mean the map was wrong.
"""

from __future__ import annotations

from operator import getitem

from .ideals import Factor, FactorError, MonomialIdeal
from .sdepth import IntervalPartition


class GapError(ValueError):
    """collapse_gap_step was asked to close a gap that is not there."""


def type_wrt(F: Factor | MonomialIdeal, v: int) -> tuple[int, ...]:
    """Distinct positive x_v-exponents, increasing: across G(I) and G(J) for
    a Factor, read from its kept types, across the generators for a
    MonomialIdeal."""
    if not 0 <= v < F.n:
        raise IndexError(f"variable index {v} out of range for {F.n} variables")
    if isinstance(F, Factor):
        return F.types()[v]
    return tuple(sorted({m[v] for m in F.gens if m[v] > 0}))


def _substitute(X, maps: dict[int, dict[int, int]]):
    """X, a Factor or an ideal, with every x_v-exponent e replaced by
    maps[v].get(e, e), all variables at once.  X itself when nothing moves."""
    maps = {v: mp for v, mp in maps.items() if any(k != e for k, e in mp.items())}
    if not maps:
        return X
    if isinstance(X, Factor):
        try:
            return Factor(_substitute(X.I, maps), _substitute(X.J, maps))
        except FactorError as exc:
            raise RuntimeError(
                f"internal error: exponent substitution broke J < I: {exc}"
            )
    if not X.gens:
        return X
    cols = list(zip(*X.gens))
    for v, mp in maps.items():
        cols[v] = map(mp.get, cols[v], cols[v])
    out = MonomialIdeal(X.n, zip(*cols))
    if len(out.gens) != len(X.gens):
        raise RuntimeError(
            "internal error: exponent substitution merged generators "
            f"({len(X.gens)} -> {len(out.gens)}); the map was not order-preserving"
        )
    return out


def _compression_map(powers) -> dict[int, int]:
    return {k: i for i, k in enumerate(powers, start=1)}


def _compression_maps(X) -> dict[int, dict[int, int]]:
    """The compression map of every variable: from a Factor's kept types, or
    from one scan of an ideal's generators."""
    if isinstance(X, Factor):
        return dict(enumerate(map(_compression_map, X.types())))
    return {v: _compression_map(sorted(set(col) - {0}))
            for v, col in enumerate(zip(*X.gens))}


def canonicalize_var(F: Factor, v: int) -> Factor:
    """Compress the x_v-exponents of F to 1..s, preserving their order."""
    return _substitute(F, {v: _compression_map(type_wrt(F, v))})


def canonicalize(F: Factor) -> Factor:
    """Canonical form: compress every variable.  Idempotent and order-independent."""
    return _substitute(F, _compression_maps(F))


def lift(F: Factor, partition: IntervalPartition) -> IntervalPartition:
    """The boxes of F's poset over the intervals of a partition of
    canonicalize(F)'s poset.

    With type k_1 < ... < k_s of x_j and k_0 = 0, canonical exponent i
    stands for the exponents k_i, ..., k_{i+1} - 1 of F, and i = s for k_s,
    ..., g_j.  x^a lies in I or J iff its canonical image does, so [a', b']
    lifts to the box [lo, hi] with lo_j = k_{a'_j} and hi_j = k_{b'_j+1} - 1,
    or g_j when b'_j = s.  The boxes are intervals that partition F's poset,
    and hi_j = g_j iff b'_j = s, so each top keeps its rho: a partition at
    level d lifts to one at level d, which proves sdepth(F) >= d
    (Herzog-Vladoiu-Zheng).  verify_decomposition checks the result on F; a
    coordinate past s raises ValueError.
    """
    lows, highs = [], []
    for top, mp in zip(F.join_exponents(), _compression_maps(F).values()):
        lows.append((0, *mp))
        highs.append((*[k - 1 for k in mp], top))
    try:
        return IntervalPartition(tuple(
            (tuple(map(getitem, lows, a)), tuple(map(getitem, highs, b)))
            for a, b in partition.intervals))
    except IndexError:
        raise ValueError("the partition leaves the canonical box of F") from None


def canonicalize_ideal(I: MonomialIdeal) -> MonomialIdeal:
    """Canonical form of a single ideal (the J = 0 case, without the wrapper)."""
    return _substitute(I, _compression_maps(I))


def is_canonical(F: Factor) -> bool:
    """True iff every variable has type (1, ..., s)."""
    return all(not p or p[-1] == len(p) for p in F.types())


def collapse_gap_step(F: Factor, v: int, j: int) -> Factor:
    """Slide every x_v-exponent above the j-th one down by one, across a gap.

    With type (k_1 < ... < k_s) and k_0 = 0, index j (0 <= j < s) is valid
    when k_j + 1 < k_{j+1}; the step decrements the x_v-exponent of every
    generator whose exponent is k_i with i > j.  Iterating until no gap
    remains, over all variables, reproduces canonicalize.
    """
    powers = type_wrt(F, v)
    s = len(powers)
    if not 0 <= j < s:
        raise GapError(f"gap index {j} out of range for type {powers}")
    lower = powers[j - 1] if j > 0 else 0
    if lower + 1 >= powers[j]:
        raise GapError(
            f"no gap at index {j} of type {powers} for variable {v}: "
            f"{lower} + 1 >= {powers[j]}"
        )
    return _substitute(F, {v: {k: k - 1 for k in powers[j:]}})


def applicable_gaps(F: Factor) -> list[tuple[int, int]]:
    """All (v, j) pairs accepted by collapse_gap_step."""
    out = []
    for v in range(F.n):
        prev = 0
        for j, k in enumerate(type_wrt(F, v)):
            if prev + 1 < k:
                out.append((v, j))
            prev = k
    return out


def shift_transform(F: Factor, v: int, k: int) -> Factor:
    """Multiply every generator with x_v-degree at least k by x_v (k >= 1)."""
    powers = type_wrt(F, v)
    if k < 1:
        raise ValueError("shift threshold k must be at least 1")
    return _substitute(F, {v: {e: e + 1 for e in powers if e >= k}})
