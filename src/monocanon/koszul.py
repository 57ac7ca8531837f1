"""Exact depth via multigraded Koszul homology.

For a factor M = I/J the Koszul complex on all n variables splits by
multidegree.  The slice at multidegree a has one basis element e_F per
subset F of the variables with x^(a - eps_F) in I minus J (eps_F the 0/1
indicator vector), and boundary

    d(e_F) = sum over j in F of sign(j, F) * e_{F minus j},

sign(j, F) = (-1)^(position of j in the ascending order of F), entries
dropped when the target subset is absent.  Then

    depth(M) = n - max{ i : H_i of some slice is nonzero }.

Only the lcm lattices of G(I) and G(J) are scanned: the lcms of nonempty
subsets of the minimal generators of I, and of J.  Koszul homology is
Tor^S(K, -).  In each multidegree a, the long exact sequence of
0 -> J -> I -> I/J -> 0 places Tor_i(I/J)_a between Tor_i(I)_a and
Tor_{i-1}(J)_a, so Tor_i(I/J)_a can be nonzero only where one of those is.
The Taylor resolution of a monomial ideal has its free generators in the
degrees of the lcms of generator subsets, so Tor of I (of J) vanishes off
the lcm lattice of G(I) (of G(J)); see Gasharov-Peeva-Welker, The
lcm-lattice in monomial resolutions, Math. Res. Lett. 1999.  Every lattice
point lies in the box [0, g] (g the join of all generator exponents), and
there are at most as many as the cells of the canonical form's box, so the
scan does not grow with the size of the exponents.

One rank coding serves the lcm closure and every test of the scan: the
exponent e on axis j is coded by its rank r among the exponents of G(I),
G(J) and 0 on that axis, as r ones at the bottom of axis j's field of one
int, axis 0 highest.  Then lcm(m, c) = m | c, m <= c iff m | c == c, j is in
supp(c) iff c & field_j, and for m <= c, m_j < c_j iff (c ^ m) & field_j.
Codes sort as their multidegrees do in lex order; only trace decodes them.

The present subsets at a come from generator slack sets: x^(a - eps_F) is a
multiple of a generator m <= a iff F only uses axes j with m_j < a_j.  So the
subsets with x^(a - eps_F) in I are the union, over generators of I below a,
of the bitsets of all subsets of their slack sets, minus the same for J.
Each generator below a point costs a fixed few int operations, whatever
|supp(a)| is.  top = c & (~(c >> 1) | tops), tops the top bit of every
nonzero field, holds c's top bit in each support field, and m <= c is slack
on axis j iff top & ~m has a bit in field j.  Those bits, gathered at the
bits of top, the highest into bit 0, are the slack set's index over the
support axes; the gather runs a byte of top at a time, through one 256-entry
table per byte pattern.  The subset bitset of the index is then one lookup
in a table of down-closures over the low 10 support axes, doubled in once
for each higher slack axis.  Both tables are built on first use and are
bounded: at most 256 gather tables and one of 1024 down-closures.

Every present subset lies in supp(a), because a slack axis has
a_j > m_j >= 0.  So each slice is built over its k = |supp(a)| support axes
only: bit t of a subset stands for the t-th support axis.  The homology of a
slice depends only on its family of subsets, so slices with the same family
on different support axes share one profile: the per-scan cache is keyed by
the family coded over k axes, and each profile, computed in k variables, is
padded with zeros to length n + 1 (H_i = 0 for i > k).

Most slices need no boundary map at all.  Both the subsets x^(a - eps_F) in
I and those in J are closed under taking subsets, so a slice's family is a
relative simplicial complex, and an acyclic matching of its cells leaves a
Morse complex, on the unmatched (critical) cells, with the same homology
(Skoldberg, Trans. AMS 2006; Joellenbeck-Welker, Mem. AMS 2009).  The
matching is the element matching on each axis t in turn: every unmatched
S without t is paired with S + t when that is present and unmatched too.
Such sequential element matchings are acyclic (Jonsson, Simplicial
Complexes of Graphs, 2008), and each pair is joined by a coefficient of
+-1, so the Morse complex exists over Z and over every field.  It runs on
the whole family bitmask at once, with a per-k table of the subsets missing
each axis and of the subsets of each size.  If no two critical cells lie in
adjacent degrees, the Morse differential is zero and H_i is the number of
critical i-subsets.  Otherwise the slice falls back to ranks, as below.

A fallback slice's boundary maps are built once, in one pass over its
present subsets in increasing mask order, as sparse columns keyed by subset:
d_i maps S to {S minus j: sign(j, S)}, and a face is present iff it is
already a key of d_(i-1).  On those columns d(d(e)) = 0 is asserted by
multiplying the maps column by column over their nonzeros (at most n per
column), and the ranks are taken on the same columns, as rows of the
transpose; no dense matrix is built.  Ranks are exact, by one sparse
elimination that pivots on a shortest row: over the rationals on integers
divided by their row content after each update, over a prime field modulo
p.  The d(d(e)) = 0 check thus covers the fallback slices only.  The final
homology profile is checked to be gap-free (Koszul homology is rigid), on
every scan; either check failing raises instead of returning wrong data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from operator import getitem

from .ideals import Factor
from .limits import DEFAULT_BOX_CAP, box_volume, check_deadline

DEFAULT_PRIME = 32003

# _is_prime is exact below this bound, the least strong pseudoprime to all
# of its twelve bases 2..37 (Sorenson and Webster, Math. Comp. 2017).
_PRIME_TEST_BOUND = 318665857834031151167461


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if p % q == 0:
            return p == q
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rationals:
    """The field Q; ranks are computed fraction-free over the integers."""

    p = 0  # the characteristic: a class constant, not a dataclass field

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field Z/p for a prime p below _PRIME_TEST_BOUND."""

    p: int

    def __post_init__(self):
        if self.p >= _PRIME_TEST_BOUND:
            raise ValueError(f"{self.p} is too large to test for primality")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __str__(self):
        return f"GF({self.p})"


FieldChoice = Rationals | PrimeField


def parse_field(text: str) -> FieldChoice:
    """'q' -> Rationals, 'p<prime>' -> PrimeField."""
    t = text.strip().lower()
    if t in ("q", "qq", "rationals"):
        return Rationals()
    if t.startswith("p") and t[1:].isdigit():
        return PrimeField(int(t[1:]))
    raise ValueError(f"unrecognized field {text!r}; use 'q' or 'p<prime>'")


def _rank_sparse(rows, p: int) -> int:
    """Rank of rows, an iterable of {column: entry nonzero mod p}, over GF(p),
    or over Q when p is 0.  Each step pivots on a shortest row and clears its
    first column from the rows that have it: row = a * row - b * pivot, with
    a a unit.  Over Q, a = pv/g and b = e/g for g = gcd(pv, e), and the new
    row is divided by the gcd of its entries, so the integers stay exact and
    small.  Over GF(p), a = 1, b = e/pv, and new entries are reduced mod p."""
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        piv = min(rows, key=len)
        col, pv = next(iter(piv.items()))
        inv = pow(pv, -1, p) if p else 0
        rank += 1
        rest = []
        for row in rows:
            if row is piv:
                continue
            e = row.get(col)
            if e is None:
                rest.append(row)
                continue
            if p:
                a, b = 1, e * inv % p
            else:
                g = math.gcd(pv, e)
                a, b = pv // g, e // g
            new = dict(row) if a == 1 else {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                x = new.get(c, 0) - b * v
                if p:
                    x %= p
                if x:
                    new[c] = x
                else:
                    del new[c]
            if new and not p:
                h = math.gcd(*new.values())
                if h > 1:
                    new = {c: x // h for c, x in new.items()}
            if new:
                rest.append(new)
        rows = rest
    return rank


def matrix_rank(rows, field: FieldChoice = Rationals()) -> int:
    """Exact rank of a rectangular matrix over the chosen field: the dense
    front end to _rank_sparse, which reduces the entries first."""
    rows = [list(r) for r in rows]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    if not rows or not rows[0]:
        return 0
    if set(map(type, chain.from_iterable(rows))) != {int}:
        ints = []
        for r in rows:
            fr = [Fraction(e) for e in r]
            den = math.lcm(*(f.denominator for f in fr))
            ints.append([int(f * den) for f in fr])
        rows = ints
    if field.p:
        rows = [[e % field.p for e in r] for r in rows]
    return _rank_sparse([{c: e for c, e in enumerate(r) if e} for r in rows], field.p)


def _matmul_is_zero(A, B) -> bool:
    """True iff the product A B is zero, for A and B given as {column:
    {row: nonzero entry}}.  A boundary column has at most n nonzeros, so each
    column of A B costs at most n^2 products."""
    for col in B.values():
        acc: dict[int, int] = {}
        for k, v in col.items():
            for r, w in A[k].items():
                acc[r] = acc.get(r, 0) + v * w
        if any(acc.values()):
            return False
    return True


@cache
def _morse_tables(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(free, layer) over the 2^k subsets of k axes, as bitmasks over subset
    bitmasks: free[t] marks the subsets without axis t, layer[i] those of
    size i.  Each k is built once, by doubling the tables of k - 1."""
    if not k:
        return (), (1,)
    free, layer = _morse_tables(k - 1)
    half = 1 << (k - 1)  # subsets with axis k - 1 sit 2^(k-1) bits higher
    return ((*(f | f << half for f in free), (1 << half) - 1),
            tuple(a | b << half for a, b in zip(layer + (0,), (0,) + layer)))


def homology_profile(n: int, present_mask: int, field: FieldChoice = Rationals()
                     ) -> tuple[int, ...]:
    """Dimensions (H_0, ..., H_n) of the slice complex with the given present
    subsets; bit S of present_mask says subset-bitmask S is present."""
    # the element matching: axis by axis, pair each unmatched S without t with
    # S + t; u keeps the critical cells, and a gap between every two critical
    # degrees leaves the Morse differential zero (see the module docstring)
    free, layer = _morse_tables(n)
    u = present_mask
    for t, f in enumerate(free):
        a = u & f & (u >> (1 << t))
        u &= ~(a | a << (1 << t))
    critical = [(u & cells).bit_count() for cells in layer]
    if not any(map(min, critical, critical[1:])):
        return tuple(critical)
    # d[i]: each present i-subset S, in ascending order, to its boundary
    # column {S minus j: sign(j, S)} over the faces already in d[i - 1]
    d: list[dict[int, dict[int, int]]] = [{} for _ in range(n + 1)]
    pm = present_mask
    while pm:
        low = pm & -pm
        S = low.bit_length() - 1
        pm ^= low
        i = S.bit_count()
        faces = d[i - 1]  # unused when i == 0: S has no bits
        col, sign, rem = {}, 1, S
        while rem:
            bit = rem & -rem
            face = S ^ bit
            if face in faces:
                col[face] = sign
            sign = -sign
            rem ^= bit
        d[i][S] = col
    ranks = [0] * (n + 2)
    for i in range(1, n + 1):  # empty maps need no check and have rank 0
        if d[i]:
            if i < n and d[i + 1] and not _matmul_is_zero(d[i], d[i + 1]):
                raise RuntimeError(
                    f"internal error: boundary composition d_{i} o d_{i + 1} "
                    f"is nonzero for present mask {present_mask:#x}"
                )
            ranks[i] = _rank_sparse(d[i].values(), field.p)  # d_i as its transpose
    return tuple(len(d[i]) - ranks[i] - ranks[i + 1] for i in range(n + 1))


def _rank_coding(F: Factor, *extra):
    """The rank codes (see the module docstring) of G(I) and G(J), as a pair,
    and of extra, the field of each axis, and the decoder of a code.  With no
    extra the exponents of each axis are 0 and F's type of it."""
    if extra:
        values = [sorted({0, *col}) for col in zip(*F.I.gens, *F.J.gens, *extra)]
    else:
        values = [(0, *t) for t in F.types()]
    shift = sum(map(len, values)) - F.n  # total width: one bit per nonzero rank
    ranks, fields = [], []
    for vs in values:
        shift -= len(vs) - 1
        rank = {v: ((1 << r) - 1) << shift for r, v in enumerate(vs)}
        ranks.append(rank)
        fields.append(rank[vs[-1]])
    encode = lambda m: sum(map(getitem, ranks, m))  # fields are disjoint: + is |
    decode = lambda c: tuple(vs[(c & f).bit_count()] for vs, f in zip(values, fields))
    gens = ([*map(encode, F.I.gens)], [*map(encode, F.J.gens)])
    return gens, [*map(encode, extra)], fields, decode


def _coding_key(gens, fields) -> tuple:
    """The key of a rank coding (gens and fields as _rank_coding returns
    them): the codes of G(I) and G(J) as sets, and the axis fields.  Two
    factors share it iff their canonical forms are equal, since each code
    spells the canonical exponents in fields as wide as the types."""
    return frozenset(gens[0]), frozenset(gens[1]), tuple(fields)


@cache
def _gather(pattern: int) -> bytes:
    """The gather table of a byte pattern: entry v packs the bits of v at the
    set bits of pattern, the highest into bit 0."""
    bits = [1 << b for b in range(7, -1, -1) if pattern >> b & 1]
    return bytes(sum(1 << t for t, b in enumerate(bits) if v & b) for v in range(256))


@cache
def _down_closures() -> tuple[int, ...]:
    """Entry S, for S below 2^10, is the mask of all subsets of S: bit R is
    set iff R | S == S."""
    down = [1]
    for t in range(10):
        down += [d | d << (1 << t) for d in down]
    return tuple(down)


def _present_mask(c: int, tops: int, gens) -> tuple[int, int]:
    """(k, mask) at the multidegree a coded as c: k = |supp(a)|, and bit fm of
    mask is set iff x^(a - eps_S) lies in I minus J, S the t-th support axes
    over the bits t of fm (see the module docstring).  tops has the top bit of
    every nonzero field."""
    top = c & (~(c >> 1) | tops)  # c's top bit in each support field
    k = top.bit_count()
    down = _down_closures()
    fam = [0, 0]
    sh = max(top.bit_length() - 8, 0)
    if not top & ((1 << sh) - 1):  # one byte holds every top bit
        gather = _gather(top >> sh)
        for side, codes in enumerate(gens):
            for m in codes:
                if m | c == c:
                    fam[side] |= down[gather[(top & ~m) >> sh]]
        return k, fam[0] & ~fam[1]
    # top in windows of at most 8 bits, the highest first: (shift, gather
    # table, index of the window's first support axis)
    windows, t, rest = [], 0, top
    while rest:
        sh = max(rest.bit_length() - 8, 0)
        w = rest >> sh
        windows.append((sh, _gather(w), t))
        t += w.bit_count()
        rest ^= w << sh
    for side, codes in enumerate(gens):
        for m in codes:
            if m | c == c:
                slack = top & ~m  # the top bits m lacks: its slack axes
                S = 0
                for sh, gather, t in windows:
                    S |= gather[slack >> sh & 255] << t
                sub = down[S & 1023]
                if S >> 10:  # slack on a support axis past the table
                    for t in range(10, k):
                        if S >> t & 1:
                            sub |= sub << (1 << t)
                fam[side] |= sub
    return k, fam[0] & ~fam[1]


def homology_dims(F: Factor, a, field: FieldChoice = Rationals()) -> tuple[int, ...]:
    """Koszul homology dimensions (H_0 .. H_n) of the slice at multidegree a."""
    a = tuple(a)
    n = F.n
    if len(a) != n:
        raise ValueError(f"multidegree {a} has {len(a)} entries, expected {n}")
    if any(e < 0 for e in a):
        raise ValueError(f"multidegree {a} has a negative entry")
    gens, (c,), fields, _ = _rank_coding(F, a)
    k, pm = _present_mask(c, sum(1 << f.bit_length() >> 1 for f in fields), gens)
    return homology_profile(k, pm, field) + (0,) * (n - k)


def _lcm_lattice(codes, deadline) -> set[int]:
    """The lcms of the nonempty subsets of codes, closed up one code at a time."""
    check_deadline(deadline)
    lattice: set[int] = set()
    for c in codes:
        it = iter(lattice)
        grown = {c}
        for _ in range(0, len(lattice), 4096):
            check_deadline(deadline)
            grown.update([c | l for l in islice(it, 4096)])
        lattice |= grown
    return lattice


def depth(F: Factor, field: FieldChoice = Rationals(), *,
          box_cap: int = DEFAULT_BOX_CAP, deadline: float | None = None,
          trace=None) -> int:
    """depth of I/J: n minus the top nonvanishing Koszul homology index.

    Only the lcm lattices of G(I) and G(J) are scanned (see the module
    docstring), so the cost follows the number of distinct generator lcms,
    not the size of the exponents.  trace, if given, is called with
    (multidegree, present-subset count, homology dims) for every lattice
    slice with a present subset.  The homology profile is checked to be
    gap-free before returning.  F is read only through its rank coding, so
    factors that share it share the depth; invariance.check_forms keeps the
    memo that reuses it.
    """
    box_volume(F.join_exponents(), box_cap, "Koszul box")
    gens, _, fields, decode = _rank_coding(F)
    tops = sum(1 << f.bit_length() >> 1 for f in fields)
    points = sorted(_lcm_lattice(gens[0], deadline) | _lcm_lattice(gens[1], deadline))
    n = F.n
    cache: dict[int, tuple[int, ...]] = {}
    nz: set[int] = set()  # indices i with H_i nonzero in some slice
    for count, c in enumerate(points):
        if deadline is not None and not (count + 1) % 512:
            check_deadline(deadline)
        k, pm = _present_mask(c, tops, gens)
        if pm == 0:
            continue
        prof = cache.get(pm)
        if prof is None:
            # subsets of k axes leave H_i = 0 for i > k
            prof = cache[pm] = homology_profile(k, pm, field) + (0,) * (n - k)
        if trace is not None:
            trace(decode(c), pm.bit_count(), prof)
        for i, h in enumerate(prof):
            if h:
                nz.add(i)
    if not nz:
        raise RuntimeError("internal error: no nonzero Koszul homology found")
    q = max(nz)
    if nz != set(range(q + 1)):  # Koszul homology is rigid
        raise RuntimeError(
            f"internal error: rigidity violated, nonzero homology at {sorted(nz)}"
        )
    return n - q
