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

Ranks are computed exactly: fraction-free Bareiss elimination on arbitrary
precision integers over the rationals, modular elimination over a prime
field.  The boundary composition d(d(e)) = 0 is asserted for every computed
slice shape, and the final homology profile is checked to be gap-free
(Koszul homology is rigid); either failing raises instead of returning
wrong data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ideals import Factor
from .limits import DEFAULT_BOX_CAP, BoxCapError, check_deadline

DEFAULT_PRIME = 32003


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
    for a in small:  # deterministic for p < 3.3 * 10^24
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

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field Z/p for a prime p."""

    p: int

    def __post_init__(self):
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


def _rank_bareiss(m: list[list[int]]) -> int:
    """Fraction-free elimination; all intermediate entries stay integral."""
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        row_p = m[rank]
        for i in range(rank + 1, nrows):
            mic = m[i][c]
            row_i = m[i]
            for j in range(c + 1, ncols):
                row_i[j] = (pv * row_i[j] - mic * row_p[j]) // prev
            row_i[c] = 0
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_mod(rows, p: int) -> int:
    m = [[int(e) % p for e in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        row_p = m[rank]
        for i in range(rank + 1, nrows):
            f = m[i][c]
            if f:
                fi = f * inv % p
                row_i = m[i]
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] - fi * row_p[j]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def matrix_rank(rows, field: FieldChoice = Rationals()) -> int:
    """Exact rank of a rectangular matrix over the chosen field."""
    rows = [list(r) for r in rows]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
    if not rows or not rows[0]:
        return 0
    if isinstance(field, PrimeField):
        return _rank_mod(rows, field.p)
    ints = []
    for r in rows:
        fr = [Fraction(e) for e in r]
        den = math.lcm(*(f.denominator for f in fr))
        ints.append([int(f * den) for f in fr])
    return _rank_bareiss(ints)


def support(F: Factor, a) -> bool:
    """True iff x^a lies in I minus J."""
    a = tuple(a)
    if any(e < 0 for e in a):
        raise ValueError(f"multidegree {a} has a negative entry")
    return F.support(a)


def _bit_positions(n: int) -> list[tuple[int, ...]]:
    return [tuple(j for j in range(n) if fm >> j & 1) for fm in range(1 << n)]


def _matmul_is_zero(A, B) -> bool:
    for row in A:
        for c in range(len(B[0])):
            if sum(row[k] * B[k][c] for k in range(len(B))):
                return False
    return True


def homology_profile(n: int, present_mask: int, field: FieldChoice = Rationals()
                     ) -> tuple[int, ...]:
    """Dimensions (H_0, ..., H_n) of the slice complex with the given present
    subsets; bit fm of present_mask says subset-bitmask fm is present."""
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    pm = present_mask
    while pm:
        low = pm & -pm
        fm = low.bit_length() - 1
        by_size[fm.bit_count()].append(fm)  # ascending within each size
        pm ^= low
    mats: dict[int, list[list[int]]] = {}
    for i in range(1, n + 1):
        if not by_size[i] or not by_size[i - 1]:
            continue
        rowpos = {fm: r for r, fm in enumerate(by_size[i - 1])}
        rows = [[0] * len(by_size[i]) for _ in by_size[i - 1]]
        for c, fm in enumerate(by_size[i]):
            sign = 1
            rem = fm
            while rem:
                low = rem & -rem
                r = rowpos.get(fm ^ low)
                if r is not None:
                    rows[r][c] = sign
                sign = -sign
                rem ^= low
        mats[i] = rows
    for i in range(1, n):  # boundary composition must vanish, slice by slice
        if i in mats and i + 1 in mats:
            if not _matmul_is_zero(mats[i], mats[i + 1]):
                raise RuntimeError(
                    f"internal error: boundary composition d_{i} o d_{i + 1} "
                    f"is nonzero for present mask {present_mask:#x}"
                )
    ranks = [0] * (n + 2)
    for i, mat in mats.items():
        ranks[i] = matrix_rank(mat, field)
    return tuple(len(by_size[i]) - ranks[i] - ranks[i + 1] for i in range(n + 1))


def _present_mask(member, a, n: int, positions) -> int:
    """Bit fm set iff a - eps_fm is a nonnegative multidegree that member accepts."""
    pm = 0
    for fm in range(1 << n):
        b = list(a)
        ok = True
        for j in positions[fm]:
            b[j] -= 1
            if b[j] < 0:
                ok = False
                break
        if ok and member(tuple(b)):
            pm |= 1 << fm
    return pm


def homology_dims(F: Factor, a, field: FieldChoice = Rationals()) -> tuple[int, ...]:
    """Koszul homology dimensions (H_0 .. H_n) of the slice at multidegree a."""
    a = tuple(a)
    n = F.n
    if len(a) != n:
        raise ValueError(f"multidegree {a} has {len(a)} entries, expected {n}")
    if any(e < 0 for e in a):
        raise ValueError(f"multidegree {a} has a negative entry")
    return homology_profile(n, _present_mask(F.support, a, n, _bit_positions(n)), field)


def _lcm_lattice(gens, deadline) -> set:
    """lcms of the nonempty subsets of gens, closed up one generator at a time."""
    check_deadline(deadline)
    lattice: set = set()
    products = 0
    for m in gens:
        new = {m}
        for l in lattice:
            products += 1
            if deadline is not None and not products % 4096:
                check_deadline(deadline)
            new.add(tuple(map(max, m, l)))
        lattice |= new
    return lattice


def _nonzero_homology(F: Factor, field, pad, box_cap, deadline,
                      trace=None) -> set[int]:
    """Indices i with H_i nonzero in some slice of the lcm lattices of G(I), G(J)."""
    g = tuple(e + pad for e in F.join_exponents())
    volume = 1
    for e in g:
        volume *= e + 1
    if volume > box_cap:
        raise BoxCapError(f"Koszul box has {volume} cells, over the cap of {box_cap}")
    points = sorted(_lcm_lattice(F.I.gens, deadline) | _lcm_lattice(F.J.gens, deadline))
    n = F.n
    positions = _bit_positions(n)
    seen: dict = {}

    def member(b):
        hit = seen.get(b)
        if hit is None:
            hit = seen[b] = F.support(b)
        return hit

    full = (1 << (1 << n)) - 1
    zero_profile = (0,) * (n + 1)
    cache: dict[int, tuple[int, ...]] = {}
    nz: set[int] = set()
    for count, a in enumerate(points):
        if deadline is not None and not (count + 1) % 512:
            check_deadline(deadline)
        pm = _present_mask(member, a, n, positions)
        if pm == 0:
            continue
        if pm == full:
            # the slice of a free module at a >= (1,..,1): exact
            if trace is not None:
                trace(a, pm.bit_count(), zero_profile)
            continue
        prof = cache.get(pm)
        if prof is None:
            prof = homology_profile(n, pm, field)
            cache[pm] = prof
        if trace is not None:
            trace(a, pm.bit_count(), prof)
        for i, h in enumerate(prof):
            if h:
                nz.add(i)
    return nz


def _top_index(nz: set[int]) -> int:
    """The largest index in nz, after checking nz is nonempty and gap-free
    (Koszul homology is rigid)."""
    if not nz:
        raise RuntimeError("internal error: no nonzero Koszul homology found")
    q = max(nz)
    if nz != set(range(q + 1)):
        raise RuntimeError(
            f"internal error: rigidity violated, nonzero homology at {sorted(nz)}"
        )
    return q


def depth(F: Factor, field: FieldChoice = Rationals(), *, pad: int = 0,
          box_cap: int = DEFAULT_BOX_CAP, deadline: float | None = None,
          trace=None) -> int:
    """depth of I/J: n minus the top nonvanishing Koszul homology index.

    Only the lcm lattices of G(I) and G(J) are scanned (see the module
    docstring), so the cost follows the number of distinct generator lcms,
    not the size of the exponents.  pad enlarges the box [0, g] to
    [0, g + pad] for the box_cap check only: every lattice point already
    lies in [0, g], so padding never changes the scan or the answer.  trace,
    if given, is called with (multidegree, present-subset count, homology
    dims) for every lattice slice with a present subset.  The homology
    profile is checked to be gap-free before returning.
    """
    return F.n - _top_index(_nonzero_homology(F, field, pad, box_cap, deadline, trace))


def pd(F: Factor, field: FieldChoice = Rationals(), *, pad: int = 0,
       box_cap: int = DEFAULT_BOX_CAP) -> int:
    """Projective dimension: the top nonvanishing Koszul homology index,
    n - depth, from the same gap-free check as depth."""
    return _top_index(_nonzero_homology(F, field, pad, box_cap, None))
