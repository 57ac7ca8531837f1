"""Exact Stanley depth via interval partitions of the characteristic poset.

The characteristic poset of a factor I/J is the set of multidegrees a with
0 <= a <= g and x^a in I minus J, where g is the componentwise join of all
generator exponents of I and J.  A partition of it into intervals [a, b]
encodes a Stanley decomposition whose depth is the minimum of
rho(b) = #{j : b_j = g_j} over the interval tops; the Stanley depth of I/J
is the best achievable minimum over all interval partitions
(Herzog-Vladoiu-Zheng, J. Algebra 2009).

char_poset builds one frozen record, never written to after the build: the
element set with what growing rows needs of each element.  The rows of the
exact cover are, for every element a, each interval [a, b] inside the
element set whose top has every b_j in {a_j, g_j}.  exists_partition decides
one level d: after one root test, the Hilbert-series test below, it solves
exact cover problems over the rows.  Elements are numbered in lex order; a
row stores the elements it covers as a bitmask, and an element stores the
rows that contain it as a bitmask.  Rows are grown in bands (_band), the
rows whose top has rho in a range, numbered within the band: a row's top is
kept as its cell index, and its bound pattern is packed into one byte string
per eight axes, so the rows on the bound along an axis are one
bytes.translate of such a string.  The rows are grown as runs of plain ints,
with no object per row for the garbage collector to track.
Each search is Algorithm X on those bitsets (Knuth, Dancing Links, 2000):
it branches on the uncovered element with the fewest rows still compatible
with the choices made so far, biggest intervals first; a chosen row drops
the rows that meet it, the OR of rows_with over its elements.  Two such
searches, resumable engines of one core (_cover), race under node
allowances that double every round: the truncated engine covers only the
elements with rho <= d by the band of rows with rho == d and leaves the
rest as single elements, the full engine covers everything by the band
with rho >= d.  Each grows its band when it is first run, so a level that
the truncated engine settles in the first round grows no row with
rho > d.  Neither wins everywhere, and the first to finish settles the
level.  One Hilbert-series test refutes a set U of elements when the
truncated polynomial sum over a in U with rho(a) <= d of
t^|a| (1-t)^(d - rho(a)) has a negative coefficient.  It runs on the whole
element set before the search, where it subsumes the bound that a Stanley
decomposition of depth >= d makes (1-t)^d H(t) nonnegative, H(t) being the
Hilbert series of I/J (Uliczka, Manuscripta Math. 2010), and on the
uncovered set of every node from an engine's first dead end on.  No U that
the rows partition is refuted (see exists_partition).  Each engine is
complete and the rows lose no partition, so sdepth below is exact.
root_refutation runs the reach test of one level from the element mask
alone, with no rows built: whether some element is the bottom of no row
with rho >= d.  The root Hilbert test is exists_partition's alone; a caller
that runs both passes char_poset the element set it built for the first.
verify_decomposition checks a certificate against the element mask alone;
its intervals may have any tops, so boxes lifted from the canonical form
(canonical.lift) are checked the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, combinations, islice, pairwise
from math import comb
from operator import eq, le, mul

from .ideals import DimensionError, Factor, Monomial, deglex_key
from .limits import DEFAULT_BOX_CAP, SearchBudgetError, box_volume, check_deadline
from .parse import format_monomial

DEFAULT_NODE_BUDGET = 10**7


def rho(b, g) -> int:
    """Number of coordinates of b sitting on the bound g."""
    if len(b) != len(g):
        raise DimensionError(f"rho of vectors with lengths {len(b)} and {len(g)}")
    if any(x > y or x < 0 for x, y in zip(b, g)):
        raise ValueError(f"{b} does not lie in the box [0, {g}]")
    return sum(1 for x, y in zip(b, g) if x == y)


def _block_mask(lo, hi, strides) -> int:
    """Box-cell mask of the sub-box [lo, hi] of a box with the given strides.

    One run of ones on the last axis is copied hi_j - lo_j + 1 times,
    strides[j] apart, for each earlier axis j.  The block being copied is
    narrower than strides[j], so the copies never overlap.  They are made by
    doubling, in a logarithmic number of shifts and ORs; dividing out the
    geometric series sum_k 2^(k s) instead is long division, about 0.1 s per
    block on a 4M-cell box.
    """
    block = (1 << (hi[-1] - lo[-1] + 1)) - 1
    for j in range(len(strides) - 2, -1, -1):
        c = hi[j] - lo[j] + 1
        if c > 1:
            s = strides[j]
            copies, done, k = 0, 0, 1  # block holds k copies; done are placed
            while c > 0:
                if c & 1:
                    copies |= block << (done * s)
                    done += k
                c >>= 1
                if c:
                    block |= block << (k * s)
                    k *= 2
            block = copies
    return block << sum(map(mul, lo, strides))


def _element_set(F: Factor, box_cap: int, deadline: float | None):
    """(g, strides, volume, elem_mask) of F's box [0, g].

    Box cells are numbered lexicographically with the last coordinate
    running fastest, so bit i of elem_mask refers to cell i.  The box is
    never scanned cell by cell: the multiples of a generator m inside it are
    the sub-box [m, g], so elem_mask is the OR of the blocks [m, g] over G(I)
    with the blocks over G(J) cleared.
    """
    g = F.join_exponents()
    volume = box_volume(g, box_cap, "characteristic box")
    strides = [1] * len(g)
    for j in range(len(g) - 2, -1, -1):
        strides[j] = strides[j + 1] * (g[j + 1] + 1)
    upsets = [0, 0]
    for side, gens in enumerate((F.I.gens, F.J.gens)):
        for m in gens:
            check_deadline(deadline)
            upsets[side] |= _block_mask(m, g, strides)
    return g, tuple(strides), volume, upsets[0] & ~upsets[1]


@dataclass(frozen=True, slots=True, eq=False)
class CharacteristicPoset:
    """Multidegrees of I minus J inside the box [0, g], with what row
    growth needs of each element.

    coords lists the elements in lex order, which is the order of their cell
    indices (see _element_set).  raises[i] is (c, p, axes, ks, shifts) for
    element a = coords[i]: c its cell, p the bits of the axes j with
    a_j = g_j > 0, and for each axis j along which a + e_j is an element,
    in axis order, the bit 1 << j, the number of a + e_j and the shift
    (g_j - a_j) * strides[j] that raises a top's b_j from a_j to g_j.
    degree_classes maps (|a|, rho(a)) to the bitmask of the elements a with
    that degree and rho.  The rows of the exact cover are not kept: each
    engine of exists_partition grows its own band of them (see _band).
    Nothing is written to the record after char_poset returns, so searches
    may share it.
    """

    n: int
    g: Monomial
    strides: tuple[int, ...]
    volume: int
    coords: tuple[Monomial, ...]
    elem_mask: int
    raises: list[tuple]
    degree_classes: dict[tuple[int, int], int]


def _column(records: bytes, table: bytes) -> int:
    """The int with bit r set iff table maps byte r of records to b"1";
    _BIT[k] maps a byte to b"1" iff its bit k is set.  No records give 0."""
    return int(records.translate(table)[::-1] or b"0", 2)


_BIT = [(b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8)]


def _decode(elem_mask: int, g, strides, deadline):
    """(cells, coords) of the elements of elem_mask, in lex order."""
    bits = _bits(elem_mask)
    cells, coords = [], []
    while part := [*islice(bits, 4096)]:  # 4,096 elements between deadline checks
        check_deadline(deadline)
        cells += part
        coords += zip(*[[c // s % (y + 1) for c in part] for s, y in zip(strides, g)])
    return cells, tuple(coords)


def char_poset(F: Factor, box_cap: int = DEFAULT_BOX_CAP,
               deadline: float | None = None, *,
               elements: tuple | None = None) -> CharacteristicPoset:
    """The characteristic poset of F, coords decoded from the element mask;
    refuses boxes over box_cap cells and raises TimeLimitError once deadline
    passes.  elements, if given, is _element_set(F, box_cap, deadline),
    built once by a caller that also checks F's element set without rows
    (verify_decomposition, root_refutation)."""
    g, strides, volume, elem_mask = elements or _element_set(F, box_cap, deadline)
    cells, coords = _decode(elem_mask, g, strides, deadline)
    index = dict(zip(cells, range(len(cells))))
    bit = [1 << j if y else 0 for j, y in enumerate(g)]
    zero_axes = g.count(0)
    raises = []
    classes: dict[tuple[int, int], int] = {}
    for i, (a, c) in enumerate(zip(coords, cells)):
        if not i % 64:
            check_deadline(deadline)
        axes, ks, shifts = [], [], []
        p = 0
        for s, x, y, axis in zip(strides, a, g, bit):
            if x < y:  # a + e_j is cell c + s
                if (k := index.get(c + s)) is not None:
                    axes.append(axis)
                    ks.append(k)
                    shifts.append((y - x) * s)
            else:
                p |= axis
        key = (sum(a), p.bit_count() + zero_axes)
        classes[key] = classes.get(key, 0) | 1 << i
        raises.append((c, p, axes, ks, shifts))
    return CharacteristicPoset(len(g), g, strides, volume, coords, elem_mask,
                               raises, classes)


# Restricting tops to b_j in {a_j, g_j} loses no partition.  Take any
# interval [a, b] of a partition and a coordinate j with a_j <= b_j < g_j.
# Split [a, b] into the slices with x_j = t for t = a_j, ..., b_j.  Each
# slice has coordinate j fixed, its top has the same rho as b (coordinate j
# was off the bound before and stays off it), and it lies inside [a, b], so
# inside the element set.  Splitting along every such j leaves intervals
# whose tops have each coordinate either fixed at the bottom or on g.
def _band(poset: CharacteristicPoset, lo: int, hi: int, deadline):
    """The rows whose top has lo <= rho <= hi, as (tops, masks, rows_with).

    A row is an interval [a, b] inside the element set with every b_j in
    {a_j, g_j}.  Row r has its top b as the cell tops[r] and covers the
    elements of masks[r], its bottom a being the lowest (lex order extends
    the componentwise order); rows_with[e] has bit r for each row r that
    covers element e.  Rows are numbered by bottom, an element's own in the
    order they are grown, so every band numbers its rows in the order the
    band (0, n) of all rows gives them.  Only rows with rho <= hi are grown,
    and a passed deadline raises TimeLimitError.
    """
    zero_axes = poset.g.count(0)
    # a row's rho is zero_axes plus k, its count of axes with b_j = g_j > 0
    least, cap = max(lo - zero_axes, 0), hi - zero_axes
    size = len(poset.coords)
    # [a, b'] with b'_j = g_j > a_j = b_j is [a, b] plus [a + e_j, b'], a row
    # of a lex-later element with the same top cell, so rows are grown from
    # the last element down, each only from a smaller row that fits
    # (Apriori).  Breadth first, so an element's rows come with k never
    # falling: those below the band are a prefix, and only a single element
    # can lie above it, as no row with k >= cap is raised.  tops[i] maps the
    # top cells of element i's rows to their masks; grown[i] lists its rows
    # in the band flat, four ints a row: top cell, mask, pattern
    # {j : b_j = g_j > 0}, first entry of axes left to raise.
    tops: list[dict] = [None] * size
    grown: list[list] = [None] * size
    for i in range(size - 1, -1, -1):
        if not i % 64:
            check_deadline(deadline)
        c, p, axes, ks, shifts = poset.raises[i]
        m = 1 << i
        tops[i] = rows = {c: m}
        grow = [c, m, p, 0]
        aboves = [*map(tops.__getitem__, ks)]
        below = 0  # entries of grow below the band
        it = iter(grow)
        for t, m, p, start in zip(it, it, it, it):
            k = p.bit_count()
            if k < least:
                below += 4
            elif k >= cap:
                if k > cap:
                    below = 4
                break
            for q in range(start, len(axes)):
                b = t + shifts[q]
                above = aboves[q].get(b)
                if above is not None:
                    rows[b] = above = m | above
                    grow += b, above, p | axes[q], q + 1
        grown[i] = grow[below:] if below else grow

    check_deadline(deadline)
    flat = [*chain.from_iterable(grown)]
    pattern = flat[2::4]
    first = [0, *accumulate(map(len, grown))]  # four entries a row
    # on_bound[j] has bit r for each row r with b_j = g_j > 0, read off the
    # patterns one byte lane at a time
    lanes = [bytes([x >> s & 255 for x in pattern]) for s in range(0, poset.n, 8)]
    on_bound = {1 << j: _column(lanes[j >> 3], _BIT[j & 7]) for j in range(poset.n)}
    # A row [a, b] with a_j < e_j covers e iff it covers e - e_j and b_j = g_j,
    # so rows_with[e] is e's own rows plus, for each j, the rows of e - e_j
    # that are raised on axis j.  Each element passes its rows up once its
    # own set is whole: lex order puts every e - e_j before e.
    rows_with = [(1 << (y >> 2)) - (1 << (x >> 2)) for x, y in pairwise(first)]
    for e, (_, _, axes, ks, _) in enumerate(poset.raises):
        if not e % 64:
            check_deadline(deadline)
        w = rows_with[e]
        for axis, k in zip(axes, ks):
            rows_with[k] |= w & on_bound[axis]
    return flat[::4], flat[1::4], rows_with


@dataclass(frozen=True)
class IntervalPartition:
    """Disjoint intervals [bottom, top] whose union is the poset's element set."""

    intervals: tuple[tuple[Monomial, Monomial], ...]

    def as_lists(self):
        return [[list(a), list(b)] for a, b in self.intervals]


def _bits(x: int):
    """Positions of the set bits of x, lowest first."""
    s = bin(x)[:1:-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


@cache
def _packed_power(e: int, w: int) -> int:
    """(1-t)^e with the coefficient of t^j in bits w*j to w*j + w - 1."""
    return sum((-1) ** j * comb(e, j) << w * j for j in range(e + 1))


def _refutes_nothing(uncovered: int) -> bool:
    """The test at a level where no element has rho < d."""
    return False


def _truncated_check(classes: dict[tuple[int, int], int], size: int, d: int):
    """A test refutes(U) of whether P_U(t), the sum over a in the element
    set U (a bitmask) with rho(a) <= d of t^|a| (1-t)^(d - rho(a)), has a
    negative coefficient.  classes maps (|a|, rho(a)) to the bitmask of the
    elements in that class, and size is the number of elements.

    P_U is packed into one integer with degree k in the field of w bits
    starting at bit w*k: each class with rho(a) <= d adds its packed
    (1-t)^(d - rho(a)), shifted to field |a|, once per element of U in the
    class.  No coefficient is larger than size * 2^d in size, so after
    2^(w-1) is added to every field none overflows, and P_U has a negative
    coefficient iff some field's top bit is clear.  A U with no element of
    rho < d is passed without the sum, and at a level where no element has
    rho < d, such as d = 0, the test is _refutes_nothing and nothing is
    packed.
    """
    if all(r >= d for _, r in classes):
        return _refutes_nothing
    w = (size << d).bit_length() + 1
    low = top = 0  # the elements with rho < d; the highest degree of P_U
    packed = []
    for (k, r), m in classes.items():
        if r <= d:
            if r < d:
                low |= m
            if k + d - r > top:
                top = k + d - r
            packed.append((m, _packed_power(d - r, w) << w * k))
    high = ((1 << w * (top + 1)) - 1) // ((1 << w) - 1) << w - 1

    def refutes(uncovered: int) -> bool:
        if not uncovered & low:
            return False
        value = high + sum(t * (uncovered & m).bit_count() for m, t in packed)
        return value & high != high

    return refutes


def _candidates(uncovered: int, live: int, rows_with, row_mask, deadline) -> list[int]:
    """Live rows of the uncovered element with the fewest, biggest first."""
    best, fewest = 0, None
    for k, e in enumerate(_bits(uncovered)):
        if deadline is not None and not k % 64:
            check_deadline(deadline)
        n_live = (rows_with[e] & live).bit_count()
        if fewest is None or n_live < fewest:
            best, fewest = e, n_live
            if n_live <= 1:
                break
    rows = [*_bits(rows_with[best] & live)]
    if len(rows) > 1:
        # the sort is stable under reverse, so equal sizes stay in row order
        rows.sort(key=lambda r: row_mask[r].bit_count(), reverse=True)
    return rows


def _cover(poset: CharacteristicPoset, uncovered: int, lo: int, hi: int, refutes,
           deadline):
    """One engine of exists_partition: a depth-first exact cover of the
    elements in uncovered by the rows whose top has lo <= rho <= hi, run in
    rounds.

    A generator, primed with next().  Each value sent to it is the number of
    nodes it may have made in all, and it yields when the next node would
    pass that, keeping its stack for the next round.  The first value sent
    grows the engine's band of rows (_band), so an engine that is never sent
    one grows none.  It returns the chosen rows as (mask, top cell) pairs,
    or None once it has searched everything.  It branches on the uncovered
    element with the fewest live rows, biggest rows first; a node is one
    candidate row applied.  refutes (see _truncated_check) runs on the
    uncovered set of every node from the engine's first dead end on (the
    first frame that runs out of candidates).
    """
    allowance = yield
    row_top, row_mask, rows_with = _band(poset, lo, hi, deadline)
    live = (1 << len(row_mask)) - 1
    # a frame is [uncovered, live, candidates, next candidate]; the rows
    # chosen so far are the frames' last tried candidates
    stack = [[uncovered, live,
              _candidates(uncovered, live, rows_with, row_mask, deadline), 0]]
    nodes = 0
    gated = False
    while stack:
        frame = stack[-1]
        uncovered, live, cands, i = frame
        if i >= len(cands):
            stack.pop()
            gated = True
            continue
        nodes += 1
        while nodes > allowance:
            allowance = yield
        frame[3] = i + 1
        if not nodes % 256:
            check_deadline(deadline)
        r = cands[i]
        remaining = uncovered & ~row_mask[r]
        if gated and refutes(remaining):
            continue
        if remaining == 0:
            return [(row_mask[r], row_top[r])
                    for r in (f[2][f[3] - 1] for f in stack)]
        meets = 0  # the rows that share an element with row r
        for k, e in enumerate(_bits(row_mask[r])):
            if not k % 256:
                check_deadline(deadline)
            meets |= rows_with[e]
        live &= ~meets
        stack.append([remaining, live,
                      _candidates(remaining, live, rows_with, row_mask, deadline), 0])
    return None


def exists_partition(poset: CharacteristicPoset, d: int,
                     node_budget: int = DEFAULT_NODE_BUDGET,
                     deadline: float | None = None) -> IntervalPartition | None:
    """A partition whose interval tops all have rho >= d, or None if none exists.

    A level d that the Hilbert-series test below refutes on the whole
    element set is refuted without search; this is the only test before
    the search.  Otherwise two complete engines of _cover decide the level:

    - the truncated engine covers the elements with rho <= d by the rows
      whose top has rho == d, and leaves every element with rho > d as a
      singleton interval;
    - the full engine covers every element by the rows with rho >= d.

    Each grows its band of rows when it is first run, so the full engine's
    rows are grown only on levels that the first round does not settle.
    They run in rounds, the truncated engine first in each.  In the first
    round each engine may make as many nodes as the truncated engine has
    elements to cover; the allowance doubles every round, and each engine
    resumes where it stopped (Luby-Sinclair-Zuckerman, Inf. Process. Lett.
    1993).  The first engine that finds a partition or finishes its search
    settles the level.  node_budget caps the nodes of each engine; only when
    both have used it up is SearchBudgetError raised.  A passed deadline
    raises TimeLimitError.  Both are distinct from the None answer.  When no
    element has rho > d the two engines are one, and it runs alone.

    Truncation lemma: a partition with tops of rho >= d exists iff the rows
    with rho == d partition the elements with rho <= d.  Split each interval
    of a partition along its raised axes until every piece has a top with
    rho exactly d or is a single element with rho > d (the splitting
    argument above _band).  rho does not fall from the top of an
    interval to its elements, so the pieces with rho == d hold exactly the
    elements with rho <= d.  Conversely such rows, with singletons for the
    elements with rho > d, make a partition.

    At every level one Hilbert-series test (see _truncated_check) refutes
    a set U of elements when P_U(t), the sum over a in U with rho(a) <= d
    of t^|a| (1-t)^(d - rho(a)), has a negative coefficient.  It runs on
    the whole element set at the root, and inside each engine (see _cover).
    It is sound for every U.  Suppose some rows with rho >= d partition U.
    Split them into pieces as above.  The elements of a piece [a, b]
    with rho(b) = d have series summing to t^|a| / (1-t)^d, and a single
    element with rho > d is not in P_U, so P_U is the sum of t^|a| over the
    pieces with rho(b) = d, with no negative coefficient.  At the root, P_U
    is (1-t)^d H(t), H being the Hilbert series of I/J, minus the series of
    the elements with rho > d, whose coefficients are nonnegative, so the
    test refutes every level that Uliczka's bound does.  A cut subtree
    holds no partition and candidates keep their order, so each engine
    returns the same partition as without the test.
    """
    n = poset.n
    if not 0 <= d <= n:
        raise ValueError(f"interval-top bound d={d} outside 0..{n}")
    refutes = _truncated_check(poset.degree_classes, len(poset.coords), d)
    everything = (1 << len(poset.coords)) - 1
    if refutes(everything):
        return None
    low = 0  # the elements with rho <= d
    for (_, r), m in poset.degree_classes.items():
        if r <= d:
            low |= m
    rows = []
    if low:
        engines = [_cover(poset, low, d, d, refutes, deadline)]
        if low != everything:
            engines.append(_cover(poset, everything, d, n, refutes, deadline))
        rows = _race(engines, low.bit_count(), node_budget, d)
        if rows is None:
            return None
    coords, axes = poset.coords, [*zip(poset.strides, poset.g)]
    # a row's bottom is its lowest element, and its top cell decodes as in _decode
    intervals = [(coords[(m & -m).bit_length() - 1],
                  tuple(t // s % (y + 1) for s, y in axes)) for m, t in rows]
    single = everything  # the elements that no chosen row covers
    for m, _ in rows:
        single &= ~m
    intervals += [(coords[e], coords[e]) for e in _bits(single)]
    return IntervalPartition(tuple(intervals))


def _race(engines, allowance: int, node_budget: int, d: int):
    """The answer of the first of the engines (_cover generators) to finish,
    run in rounds: each engine may make allowance more nodes in a round, up
    to node_budget in all, and the allowance doubles every round."""
    for engine in engines:
        next(engine)
    cap = 0
    while True:
        cap = min(cap + allowance, node_budget)
        for engine in engines:
            try:
                engine.send(cap)
            except StopIteration as done:
                return done.value
        if cap >= node_budget:
            raise SearchBudgetError(
                f"partition search exceeded {node_budget} nodes at d={d}")
        allowance *= 2


def root_refutation(F: Factor, d: int, box_cap: int = DEFAULT_BOX_CAP,
                    deadline: float | None = None, *,
                    elements: tuple | None = None) -> str | None:
    """"reach" when some element of F is the bottom of no row with rho >= d,
    else None, read off F's element set with no rows built.  Such an
    element a lies in no row with rho >= d, so level d has no partition: a
    row [a', b] holding a would hold the row from a to a raised to g on the
    axes where b_j = g_j.  None settles nothing; exists_partition then runs
    the root Hilbert test and the search.

    An element a is the bottom of a row with rho >= d iff raise(a, T), a with
    the axes in T set to g, lies outside J for some d-set T of axes: such a
    top has rho >= d, and any row's top with rho >= d lies above raise(a, T)
    for a d-set T of its axes on the bound.  raise(a, T) is in J iff a is in
    the block [m with the axes in T set to 0, g] of some m in G(J), so the
    elements that start no such row are the element mask ANDed, over every
    d-set T, with the OR of those blocks.  elements, if given, is
    _element_set(F, box_cap, deadline), as in char_poset.
    """
    g, strides, _, elem_mask = elements or _element_set(F, box_cap, deadline)
    if not 0 <= d <= len(g):
        raise ValueError(f"interval-top bound d={d} outside 0..{len(g)}")
    stuck = elem_mask
    for axes in combinations(range(len(g)), d):
        check_deadline(deadline)
        blocks = 0
        for m in F.J.gens:
            blocks |= _block_mask([0 if j in axes else x for j, x in enumerate(m)],
                                  g, strides)
        stuck &= blocks
        if not stuck:
            return None
    return "reach"


def sdepth(F: Factor, *, box_cap: int = DEFAULT_BOX_CAP,
           node_budget: int = DEFAULT_NODE_BUDGET,
           deadline: float | None = None) -> tuple[int, IntervalPartition]:
    """Stanley depth of F together with a witnessing interval partition.

    Tries d = n, n-1, ... and returns at the first achievable level; d = 0
    always succeeds on a nonempty poset, so this terminates with the exact
    value (the decision problem is monotone in d).
    """
    poset = char_poset(F, box_cap=box_cap, deadline=deadline)
    for d in range(poset.n, -1, -1):
        part = exists_partition(poset, d, node_budget=node_budget, deadline=deadline)
        if part is not None:
            return d, part
    raise AssertionError("unreachable: d = 0 always admits the singleton partition")


def verify_decomposition(F: Factor, partition: IntervalPartition, d: int,
                         box_cap: int = DEFAULT_BOX_CAP,
                         deadline: float | None = None, *,
                         elements: tuple | None = None) -> bool:
    """Certificate check against F's element mask: disjoint intervals whose
    union is the element set, every top with rho >= d.  A block holding a
    cell outside the element set leaves the union unequal to it.  No
    coordinates are decoded and no rows are built.  A passed deadline,
    checked every 256 intervals, raises TimeLimitError.  elements, if given,
    is _element_set(F, box_cap, deadline), as in char_poset."""
    g, strides, _, elem_mask = elements or _element_set(F, box_cap, deadline)
    n = len(g)
    covered = 0
    for k, (a, b) in enumerate(partition.intervals):
        if not k % 256:
            check_deadline(deadline)
        if len(a) != n or len(b) != n:
            return False
        if min(a) < 0 or not all(map(le, a, b)) or not all(map(le, b, g)):
            return False
        if sum(map(eq, b, g)) < d:  # rho(b, g)
            return False
        mask = _block_mask(a, b, strides)
        if covered & mask:  # overlap
            return False
        covered |= mask
    return covered == elem_mask


def decomposition_lines(partition: IntervalPartition, g, names) -> list[str]:
    """Stanley spaces 'x^a * K[vars]' with vars = {x_j : b_j = g_j}, sorted."""
    lines = []
    for a, b in sorted(partition.intervals, key=lambda ab: deglex_key(ab[0])):
        free = ", ".join(names[j] for j in range(len(g)) if b[j] == g[j])
        lines.append(f"{format_monomial(a, names)} * K[{free}]")
    return lines
