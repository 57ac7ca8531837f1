"""Characteristic poset, interval partition search, and certificates."""

import copy
import dataclasses
import functools
import hashlib
import itertools
import random
import sys
import time
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import helpers
import oracle
from helpers import fac
from monocanon import (
    BoxCapError,
    DimensionError,
    Factor,
    IntervalPartition,
    MonomialIdeal,
    SearchBudgetError,
    TimeLimitError,
    char_poset,
    decomposition_lines,
    exists_partition,
    parse_problem,
    random_factor,
    rho,
    sdepth,
    verify_decomposition,
)
from monocanon.sdepth import (DEFAULT_NODE_BUDGET, _block_mask, _cell_coords, _cover,
                              _race, _truncated_check, root_refutation)


def oracle_verify(F, intervals, d) -> bool:
    """Brute-force certificate check: every interval lies in the box with a
    top of rho >= d, and the cells of the intervals, listed one by one, are
    the oracle's members with none repeated."""
    g, pts = oracle.members(F)
    cells = []
    for a, b in intervals:
        if len(a) != len(g) or len(b) != len(g):
            return False
        if not all(0 <= x <= y <= e for x, y, e in zip(a, b, g)):
            return False
        if sum(1 for y, e in zip(b, g) if y == e) < d:
            return False
        cells += itertools.product(*(range(x, y + 1) for x, y in zip(a, b)))
    return sorted(cells) == sorted(pts)


def oracle_feasible(F, d) -> bool:
    """Does the oracle find a level-d partition among all intervals, with
    arbitrary tops?"""
    g, pts = oracle.members(F)
    rows = [cells for _, _, cells in oracle._interval_rows(g, pts, d)]
    return oracle.exact_cover_exists(pts, rows)


class TestRho:
    def test_top_of_the_box(self):
        assert rho((2, 5, 1), (2, 5, 1)) == 3

    def test_origin_under_positive_bound(self):
        assert rho((0, 0), (3, 4)) == 0

    def test_partial_saturation(self):
        assert rho((1, 1), (1, 2)) == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rho((1,), (1, 2))

    def test_outside_box(self):
        with pytest.raises(ValueError):
            rho((3,), (2,))


class TestCharPoset:
    def test_small_golden(self):
        P = char_poset(fac("x, y, z", "x^2*y*z, x*y*z^2, x*y^2*z"))
        assert P.g == (2, 2, 2)
        assert P.volume == 27

    def test_elements_match_direct_enumeration(self):
        F = fac("x, y", "x^2, x*y", "x^3*y")
        P = char_poset(F)
        box = itertools.product(*(range(e + 1) for e in F.join_exponents()))
        assert set(P.coords) == {a for a in box if F.support(a)}

    def test_element_mask_agrees_with_coords(self):
        P = char_poset(fac("x, y", "x^2, x*y"))
        assert P.elem_mask == sum(1 << P.index_of(a) for a in P.coords)

    @given(helpers.factors(nmax=4, emax=3))
    def test_elements_match_box_scan_property(self, F):
        P = char_poset(F)
        box = itertools.product(*(range(e + 1) for e in F.join_exponents()))
        assert set(P.coords) == {a for a in box if F.support(a)}
        indices = [P.index_of(a) for a in P.coords]
        assert indices == sorted(set(indices))
        assert P.elem_mask == sum(1 << P.index_of(a) for a in P.coords)

    def test_box_cap(self):
        with pytest.raises(BoxCapError, match="cap of 10"):
            char_poset(fac("x, y", "x^5*y^5"), box_cap=10)

    def test_index_is_lexicographic(self):
        P = char_poset(fac("x, y, z", "x*y*z"))
        assert P.index_of((0, 0, 0)) == 0
        assert P.index_of((0, 0, 1)) == 1
        assert P.index_of((1, 1, 1)) == P.volume - 1

    @given(st.data())
    def test_interval_mask_matches_enumeration(self, data):
        n = data.draw(st.integers(1, 3))
        g = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
        P = char_poset(Factor(MonomialIdeal(n, [g])))
        a = tuple(data.draw(st.integers(0, e)) for e in g)
        b = tuple(data.draw(st.integers(lo, e)) for lo, e in zip(a, g))
        expected = sum(
            1 << P.index_of(c)
            for c in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(a, b)))
        )
        assert _block_mask(a, b, P.strides) == expected


def brute_force_rows(F) -> set:
    """Rows from the definition, as (a, b, rho(b), {j : b_j = g_j}, cells):
    for each element a every interval [a, b] inside the oracle's element
    set with each b_j in {a_j, g_j}."""
    g, pts = oracle.members(F)
    ptset = set(pts)
    rows = set()
    for a in pts:
        free = [j for j in range(len(g)) if a[j] < g[j]]
        for S in itertools.chain.from_iterable(
                itertools.combinations(free, k) for k in range(len(free) + 1)):
            b = tuple(g[j] if j in S else x for j, x in enumerate(a))
            cells = frozenset(itertools.product(*(range(x, y + 1) for x, y in zip(a, b))))
            if cells <= ptset:
                bound = frozenset(j for j in range(len(g)) if b[j] == g[j])
                rows.add((a, b, len(bound), bound, cells))
    return rows


def set_bits(x: int) -> list[int]:
    """Positions of the set bits of x, lowest first."""
    return [k for k, c in enumerate(reversed(bin(x))) if c == "1"]


def decode(P, cell: int) -> tuple:
    """The exponent vector of a box cell, last coordinate fastest."""
    a = []
    for e in reversed(P.g):
        cell, x = divmod(cell, e + 1)
        a.append(x)
    return tuple(reversed(a))


def row_bottoms(P) -> list[int]:
    """The bottom element of each of P's rows: the lowest bit of its mask,
    as lex order extends the componentwise order."""
    return [(m & -m).bit_length() - 1 for m in P.row_mask]


def catalogue_rows(P) -> set:
    """P's rows in the form of brute_force_rows, with each top decoded from
    its cell, rho read off row_rho_nz, and the covered cells off row_mask."""
    rows = set()
    for r, (e, t) in enumerate(zip(row_bottoms(P), P.row_top)):
        b = decode(P, t)
        rho_b = P.row_rho_nz[r] + P.zero_axes
        bound = frozenset(j for j in range(P.n) if b[j] == P.g[j])
        cells = frozenset(P.coords[k] for k in set_bits(P.row_mask[r]))
        rows.add((P.coords[e], b, rho_b, bound, cells))
    return rows


def assert_catalogue_matches_definition(F):
    """Rows, their order, rows_with (built from the byte-packed bound
    patterns) and reach against the definition."""
    P = char_poset(F)
    bottoms = row_bottoms(P)
    assert catalogue_rows(P) == brute_force_rows(F)
    assert len(set(zip(bottoms, P.row_top))) == len(P.row_top)
    rhos = [x + P.zero_axes for x in P.row_rho_nz]
    assert bottoms == sorted(bottoms)
    best = []
    for e, group in itertools.groupby(range(len(rhos)), bottoms.__getitem__):
        own = list(group)
        assert decode(P, P.row_top[own[0]]) == P.coords[e]
        assert [rhos[r] for r in own] == sorted(rhos[r] for r in own)
        best.append(rhos[own[-1]])
    assert P.reach == min(best)
    rows_with = [0] * len(P.coords)
    for r, m in enumerate(P.row_mask):
        for e in set_bits(m):
            rows_with[e] |= 1 << r
    assert P.rows_with == rows_with
    assert [r for r in range(len(rhos)) if P.live_rows(P.reach) >> r & 1] == [
        r for r, x in enumerate(rhos) if x >= P.reach]


def pad(F, positions, total):
    """F in a ring of total variables, its axes at the given positions and
    every other variable in no generator."""
    def spread(gens):
        out = []
        for m in gens:
            v = [0] * total
            for p, e in zip(positions, m):
                v[p] = e
            out.append(tuple(v))
        return out
    return Factor(MonomialIdeal(total, spread(F.I.gens)),
                  MonomialIdeal(total, spread(F.J.gens)))


class TestCatalogue:
    @given(helpers.factors(nmax=4, emax=3))
    def test_rows_match_the_definition(self, F):
        assert_catalogue_matches_definition(F)

    @given(helpers.factors(nmax=3, emax=3), st.data())
    def test_unused_variables(self, F, data):
        total = F.n + data.draw(st.integers(1, 3))
        positions = sorted(data.draw(st.permutations(range(total)))[:F.n])
        assert_catalogue_matches_definition(pad(F, positions, total))

    @pytest.mark.parametrize("seed", range(3))
    def test_nine_and_more_variables(self, seed):
        # patterns of n >= 9 axes take two bytes a row; I has squarefree
        # degree-2 generators, J multiplies three of them by five variables,
        # and the first of each has x1^2
        rng = random.Random(seed)
        n = 9 + seed % 2
        def monomial(support, square=False):
            return tuple(2 if square and j == 0 else int(j in support) for j in range(n))
        I = [set(rng.sample(range(n), 2)) for _ in range(4)]
        J = [S | set(rng.sample(range(n), 5)) for S in I[:3]]
        F = Factor(MonomialIdeal(n, [monomial(S, k == 0) for k, S in enumerate(I)]),
                   MonomialIdeal(n, [monomial(S, k == 0) for k, S in enumerate(J)]))
        assert len(char_poset(F).coords) > 100
        assert_catalogue_matches_definition(F)

    def test_rho_past_a_byte(self):
        # 297 variables in no generator put every top's rho above 255
        names = ", ".join(f"x{i}" for i in range(300))
        F = fac(names, "x1*x150, x299^2", "x1^2*x150*x299^2, x1*x150^3")
        small = fac("x, y, z", "x*y, z^2", "x^2*y*z^2, x*y^3")
        assert_catalogue_matches_definition(F)
        value, cert = sdepth(F)
        assert value == 298 == sdepth(small)[0] + 297
        assert verify_decomposition(F, cert, value)
        P = char_poset(F)
        assert exists_partition(P, 299) is None


class TestExistsPartition:
    def test_two_variable_maximal_ideal(self):
        P = char_poset(fac("x, y", "x, y"))
        assert exists_partition(P, 1) is not None
        assert exists_partition(P, 2) is None

    def test_depth_zero_always_covers(self):
        P = char_poset(fac("x, y", "x^2, x*y", "x^3"))
        part = exists_partition(P, 0)
        assert part is not None
        assert verify_decomposition(fac("x, y", "x^2, x*y", "x^3"), part, 0)

    def test_rejects_ill_formed_bound(self):
        P = char_poset(fac("x, y", "x"))
        with pytest.raises(ValueError):
            exists_partition(P, 3)

    def test_node_budget(self):
        P = char_poset(fac("x, y, z", "x, y, z"))
        with pytest.raises(SearchBudgetError, match="0 nodes"):
            exists_partition(P, 2, node_budget=0)

    def test_deadline(self):
        # a passed deadline fires at the first candidate scan
        P = char_poset(fac("x, y", "x, y"))
        with pytest.raises(TimeLimitError):
            exists_partition(P, 1, deadline=time.monotonic() - 1.0)

    def test_deadline_overshoot_on_a_raw_box(self):
        # 7518 elements in a 31 x 41 x 36 box; the d=1 search alone runs for
        # seconds, so the deadline fires in the search
        P = char_poset(parse_problem(WIDE_1).factor())
        start = time.monotonic()
        with pytest.raises(TimeLimitError):
            exists_partition(P, 1, deadline=start + 0.5)
        assert time.monotonic() - start < 2.0

    @given(helpers.factors(nmax=3, emax=2))
    def test_every_level_matches_oracle(self, F):
        # the oracle's rows are all intervals with arbitrary tops, so this
        # checks that tops in {a_j, g_j} lose no partition
        P = char_poset(F)
        for d in range(P.n + 1):
            part = exists_partition(P, d)
            assert (part is not None) == oracle_feasible(F, d)
            if part is not None:
                assert verify_decomposition(F, part, d)

    @given(helpers.factors(nmax=3, emax=2))
    def test_decision_is_monotone_in_d(self, F):
        P = char_poset(F)
        feasible = [
            d for d in range(P.n + 1) if exists_partition(P, d) is not None
        ]
        assert feasible == list(range(len(feasible)))

    @given(helpers.factors(nmax=3, emax=2))
    def test_search_leaves_the_poset_unchanged(self, F):
        P = char_poset(F)
        names = [f.name for f in dataclasses.fields(P)]
        before = {name: copy.deepcopy(getattr(P, name)) for name in names}
        for d in range(P.n + 1):
            exists_partition(P, d)
        for name, value in before.items():
            assert getattr(P, name) == value, name


def veronese_factor(n, k, j=None):
    """V(n, k), or V(n, k)/V(n, j); V(n, 1) is m_n."""
    def gens(k):
        return [tuple(int(i in S) for i in range(n))
                for S in itertools.combinations(range(n), k)]
    return Factor(MonomialIdeal(n, gens(k)), MonomialIdeal(n, gens(j) if j else []))


@functools.cache
def squarefree_veronese_poset(n, k):
    """The characteristic poset of V(n, k)."""
    return char_poset(veronese_factor(n, k))


def level_check(P, d):
    """The truncated Hilbert check of poset P at level d."""
    return _truncated_check(P.degree_classes, len(P.coords), d)


def root_refutes(P, d) -> bool:
    """Does the truncated Hilbert check refute level d on the whole element set?"""
    return level_check(P, d)((1 << len(P.coords)) - 1)


def hilbert_bound(P) -> int:
    """The largest level the Hilbert check leaves standing."""
    return max(d for d in range(P.n + 1) if not root_refutes(P, d))


# Raw presentation of the benchmark's wide[1] factor (seed 1): 7,518 elements
# in a 31 x 41 x 36 box, sdepth 1
WIDE_1 = """ring f1, f2, f3;
I = f1^18*f2^40, f1^30*f2^13*f3^14, f1^18*f3^35, f2^26*f3^22;
J = f1^30*f2^40*f3^35;
"""


class TestHilbertRefutation:
    @given(helpers.factors())
    @example(fac("x, y, z", "1", "x*z, y*z, z^2"))
    def test_witnesses_match_the_oracle_coefficients(self, F):
        # the root refutes d iff the terms with rho(a) <= d sum to a
        # negative coefficient, and so wherever (1-t)^d H(t) has one: past
        # the degree where those terms end, every coefficient is
        # nonnegative.  In the example, at d=1 the terms with rho(a) <= 1
        # go negative in degree 2, where x*y (rho 2) lifts the full
        # coefficient back to 0
        P = char_poset(F)
        g, pts = oracle.members(F)
        for d in range(1, P.n + 1):
            refuted = root_refutes(P, d)
            assert refuted == truncated_negative(pts, g, d)
            ends = [sum(a) + d - rho(a, g) for a in pts if rho(a, g) <= d]
            if any(oracle.oracle_hilbert_coefficient(F, d, k) < 0
                   for k in range(max(ends, default=-1) + 1)):
                assert refuted

    @given(helpers.factors(nmax=4))
    def test_refuted_levels_are_infeasible(self, F):
        P = char_poset(F)
        refuted = [d for d in range(1, P.n + 1) if root_refutes(P, d)]
        if not refuted:
            return
        assert oracle.oracle_sdepth(F) < min(refuted)
        module = sys.modules["monocanon.sdepth"]
        with mock.patch.object(module, "_truncated_check",
                               lambda classes, size, d: lambda uncovered: False):
            for d in refuted:
                assert exists_partition(P, d) is None

    def test_level_zero_refutes_nothing(self):
        # at d=0 every term is a monomial t^|a|, so no set is refuted; the
        # truncated engine covers (2, 0), the one element with rho 0, by its
        # own row, and the elements with rho 1 stay single
        P = char_poset(fac("x, y", "x^2, x*y", "x^3"))
        refutes = level_check(P, 0)
        assert not refutes((1 << len(P.coords)) - 1)
        assert not refutes(0)
        assert exists_partition(P, 0) == IntervalPartition((
            ((2, 0), (2, 0)), ((1, 1), (1, 1)), ((2, 1), (2, 1))))

    @pytest.mark.parametrize("n, k, d", [
        (8, 1, 5), (9, 1, 6), (8, 3, 5), (8, 2, 5), (7, 2, 4),
    ])
    def test_refutes_without_search(self, n, k, d):
        # each of these took 1.4 s or more of search, and more than 20 s for
        # most, when only the reach refuted levels
        P = squarefree_veronese_poset(n, k)
        assert d <= P.reach
        assert exists_partition(P, d, node_budget=0) is None

    def test_refutes_a_raw_level_without_search(self):
        # proving d=2 infeasible by search took about 10 s on this poset
        P = char_poset(parse_problem(WIDE_1).factor())
        assert len(P.coords) == 7518
        assert 2 <= P.reach
        assert exists_partition(P, 2, node_budget=0) is None

    def test_root_refutes_a_level_the_full_series_passes(self):
        # (1-t)^3 H(t) has no negative coefficient here, and a search from
        # the root with the check only at its nodes needs 2 nodes to refute
        # d=3; the truncated polynomial of the whole element set refutes it
        F = parse_problem("""ring x1, x2, x3, x4, x5;
            I = x2*x3^2*x5, x1^3*x4^2, x1^2*x2^3*x3*x4^2, x1*x2^2*x4^3*x5^3;
            J = x2*x3^2*x5, x1^3*x3*x4^2*x5;""").factor()
        assert all(oracle.oracle_hilbert_coefficient(F, 3, k) >= 0 for k in range(18))
        P = char_poset(F)
        assert 3 <= P.reach
        assert exists_partition(P, 3, node_budget=0) is None
        assert sdepth(F)[0] == 2
        assert oracle.oracle_sdepth(F) == 2

    @pytest.mark.parametrize("n", range(3, 10))
    def test_bound_on_maximal_ideals(self, n):
        # sdepth(m_n) = ceil(n/2) (Biro-Howard-Keller-Trotter-Young 2010)
        assert hilbert_bound(squarefree_veronese_poset(n, 1)) == (n + 1) // 2

    @pytest.mark.parametrize("n, k", [
        (4, 2), (5, 2), (7, 2), (8, 2), (6, 3), (7, 3), (8, 3), (9, 4),
    ])
    def test_bound_on_squarefree_veronese_ideals(self, n, k):
        # sdepth(V(n, k)) = (n - k) // (k + 1) + k for k <= n < 5k + 4
        # (Keller-Shen-Streib-Young 2011)
        assert hilbert_bound(squarefree_veronese_poset(n, k)) == (n - k) // (k + 1) + k


class TestRootRefutation:
    @given(helpers.factors_and_shifts())
    @example(fac("x, y", "x^2, y^2"))  # Hilbert at d=2
    @example(fac("x, y, z", "1", "x*z, y*z, z^2"))  # reach at d=1
    @example(fac("x, y, z", "y^3*z, y^2*z^3, x^2*y^2*z^2", "y^3*z^2"))  # both
    def test_matches_the_reach_and_the_root_check(self, F):
        P = char_poset(F)
        for d in range(F.n + 1):
            expected = ("reach" if d > P.reach
                        else "hilbert" if root_refutes(P, d) else None)
            assert root_refutation(F, d) == expected

    def test_refutes_no_feasible_level(self):
        rng = random.Random(5)
        for _ in range(60):
            F = random_factor(rng, rng.randint(1, 3), 5)
            s = oracle.oracle_sdepth(F)
            assert all(root_refutation(F, d) is None for d in range(s + 1))

    def test_rejects_ill_formed_level(self):
        with pytest.raises(ValueError, match="outside 0..2"):
            root_refutation(fac("x, y", "x, y"), 3)

    def test_deadline(self):
        with pytest.raises(TimeLimitError):
            root_refutation(fac("x, y", "x, y"), 1, deadline=time.monotonic() - 1)


def truncated_negative(points, g, d) -> bool:
    """Has sum over a in points with rho(a) <= d of t^|a| (1-t)^(d - rho(a))
    a negative coefficient?  Summed term by term from binomials."""
    poly = {}
    for a in points:
        e = d - sum(1 for x, y in zip(a, g) if x == y)
        for m in range(e + 1):
            poly[sum(a) + m] = poly.get(sum(a) + m, 0) + (-1) ** m * comb(e, m)
    return any(c < 0 for c in poly.values())


def level_intervals(points, g, d) -> list[frozenset]:
    """Every interval [a, b] inside points whose top has at least d
    coordinates equal to g's, as a set of points."""
    found = []
    for a in points:
        for b in itertools.product(*(range(x, e + 1) for x, e in zip(a, g))):
            if sum(1 for y, e in zip(b, g) if y == e) >= d:
                cells = frozenset(itertools.product(*(range(x, y + 1) for x, y in zip(a, b))))
                if cells <= points:
                    found.append(cells)
    return found


def cover_exists(points, intervals, memo) -> bool:
    """Brute force: can the set points be split into some of the intervals?
    Branches on the point in the fewest intervals that fit."""
    if not points:
        return True
    if points not in memo:
        fits = [c for c in intervals if c <= points]
        p = min(points, key=lambda q: sum(1 for c in fits if q in c))
        memo[points] = any(cover_exists(points - c, fits, memo) for c in fits if p in c)
    return memo[points]


class TestNodeCheck:
    @given(helpers.factors(nmax=4))
    def test_search_finds_the_same_partitions_without_it(self, F):
        # cutting only subtrees that hold no partition, in an unchanged
        # candidate order, leads the search to the same first partition
        P = char_poset(F)
        found = [exists_partition(P, d) for d in range(P.n + 1)]
        module = sys.modules["monocanon.sdepth"]
        with mock.patch.object(module, "_truncated_check",
                               lambda classes, size, d: lambda uncovered: False):
            assert [exists_partition(P, d) for d in range(P.n + 1)] == found

    @pytest.mark.parametrize("n, k, j, d", [
        (4, 1, None, 2), (5, 1, None, 3), (5, 2, None, 3), (6, 1, None, 3), (6, 2, 5, 3),
    ])
    def test_refuted_sets_have_no_cover(self, n, k, j, d):
        # uncovered sets as the search makes them: the element set minus
        # disjoint rows with rho >= d, chosen at random and ending at the
        # first refuted set
        F = veronese_factor(n, k, j)
        P = char_poset(F)
        refutes = level_check(P, d)
        full = (1 << len(P.coords)) - 1
        live = set_bits(P.live_rows(d))
        rng = random.Random(n * 100 + k)
        intervals = level_intervals(frozenset(P.coords), P.g, d)
        memo: dict = {}
        refuted = 0
        for _ in range(150):
            uncovered = full
            for r in rng.sample(live, len(live)):
                if P.row_mask[r] & ~uncovered or rng.random() < 0.1:
                    continue
                uncovered &= ~P.row_mask[r]
                points = frozenset(a for i, a in enumerate(P.coords) if uncovered >> i & 1)
                negative = truncated_negative(points, P.g, d)
                assert refutes(uncovered) == negative
                if negative:
                    refuted += 1
                    assert not cover_exists(points, intervals, memo)
                    break
        assert refuted

    def test_elements_above_the_level_add_nothing(self):
        # at d=1 x*y (rho 2) lifts the negative degree-2 coefficient of the
        # rho <= 1 terms, so (1-t) H(t) has none; the check leaves it out
        # and refutes the level at the root
        F = fac("x, y, z", "1", "x*z, y*z, z^2")
        P = char_poset(F)
        assert all(oracle.oracle_hilbert_coefficient(F, 1, k) >= 0 for k in range(4))
        assert root_refutes(P, 1)
        assert exists_partition(P, 1, node_budget=0) is None

    @pytest.mark.parametrize("n, k, j", [(6, 2, 5), (5, 2, None)])
    def test_solves_within_a_small_budget(self, n, k, j):
        # without the node check these searches need 1741 and 449 nodes
        P = char_poset(veronese_factor(n, k, j))
        assert exists_partition(P, 3, node_budget=100) == exists_partition(P, 3)

    @pytest.mark.parametrize("n, k, d", [(7, 3, 4), (8, 2, 4), (8, 3, 4), (9, 1, 5)])
    def test_solves_levels_that_timed_out(self, n, k, d):
        # each of these ran past 10 s without the node check
        F = veronese_factor(n, k)
        part = exists_partition(squarefree_veronese_poset(n, k), d, node_budget=2000)
        assert part is not None
        assert verify_decomposition(F, part, d)


class TestNodeCounts:
    """The nodes each of these levels takes to solve, pinned exactly: the
    smallest node budget, which counts per engine, under which the level
    solves, so the nodes of the engine that needs fewer.

    Candidate order and pruning decide how many nodes a search makes.  A
    change of search order or pruning moves these counts: it updates the
    pins here and lists the update, and why the counts moved, in CHANGES.md.
    """

    @pytest.mark.parametrize("n, k, j, d, nodes", [
        (6, 2, 5, 3, 20), (5, 2, None, 3, 14), (6, 1, None, 3, 20),
        (7, 3, None, 4, 41), (8, 2, None, 4, 132), (9, 1, None, 5, 776),
    ])
    def test_solves_in_the_pinned_number_of_nodes(self, n, k, j, d, nodes):
        P = char_poset(veronese_factor(n, k, j)) if j else squarefree_veronese_poset(n, k)
        assert exists_partition(P, d, node_budget=nodes) is not None
        with pytest.raises(SearchBudgetError):
            exists_partition(P, d, node_budget=nodes - 1)


def decide_alone(P, d, truncated, node_budget=DEFAULT_NODE_BUDGET):
    """Level d decided by one engine of exists_partition alone, through
    _cover and _race, from the root with no reach or root Hilbert test: the
    partition it finds, or None.  The truncated engine covers the elements
    with rho <= d by the rows with rho == d and leaves the rest single; the
    full engine covers every element by the rows with rho >= d."""
    everything = (1 << len(P.coords)) - 1
    if truncated:
        universe = sum(1 << e for e, a in enumerate(P.coords) if rho(a, P.g) <= d)
        rows = P.level_rows(d)
    else:
        universe, rows = everything, P.live_rows(d)
    chosen = []
    if universe:
        engine = _cover(P, universe, rows, level_check(P, d), None)
        chosen = _race([engine], node_budget, node_budget, d)
        if chosen is None:
            return None
    intervals, bottoms = [], row_bottoms(P)
    for r in chosen:
        intervals.append((P.coords[bottoms[r]], _cell_coords(P.row_top[r], P.strides)))
        everything &= ~P.row_mask[r]
    intervals += [(a, a) for e, a in enumerate(P.coords) if everything >> e & 1]
    return IntervalPartition(tuple(intervals))


# criterion 7's factor in its raw presentation: 7450 elements in a
# 262,701-cell box
CRITERION_7 = fac("x, y, z", "x^100*y*z, x^50*y*z^50, x^50*y^50*z")


class TestPortfolio:
    @given(helpers.factors(nmax=3, emax=2))
    def test_each_engine_alone_matches_oracle(self, F):
        P = char_poset(F)
        for d in range(P.n + 1):
            feasible = oracle_feasible(F, d)
            for truncated in (True, False):
                part = decide_alone(P, d, truncated)
                assert (part is not None) == feasible
                if part is not None:
                    assert verify_decomposition(F, part, d)

    def test_the_full_engine_meets_a_budget_the_truncated_one_cannot(self):
        P = squarefree_veronese_poset(9, 1)
        assert decide_alone(P, 5, truncated=False, node_budget=776) is not None
        with pytest.raises(SearchBudgetError):
            decide_alone(P, 5, truncated=True, node_budget=776)
        assert exists_partition(P, 5, node_budget=776) is not None

    def test_the_truncated_engine_meets_a_budget_the_full_one_cannot(self):
        P = char_poset(veronese_factor(9, 3))
        assert decide_alone(P, 4, truncated=True, node_budget=126) is not None
        with pytest.raises(SearchBudgetError):
            decide_alone(P, 4, truncated=False, node_budget=126)
        assert exists_partition(P, 4, node_budget=126) is not None

    def test_rounds_double_the_allowance_truncated_engine_first(self, monkeypatch):
        # m_9 has 381 elements with rho <= 5, so each engine may make 381
        # nodes in all in round one and 381 + 762 by the end of round two,
        # when the full engine finishes at its 776th node
        module = sys.modules["monocanon.sdepth"]
        cover, sent = module._cover, []

        class Logged:
            def __init__(self, name, engine):
                self.name, self.engine = name, engine

            def __next__(self):
                return next(self.engine)

            def send(self, cap):
                sent.append((self.name, cap))
                return self.engine.send(cap)

        P = squarefree_veronese_poset(9, 1)
        full = (1 << len(P.coords)) - 1
        monkeypatch.setattr(module, "_cover", lambda poset, uncovered, *args: Logged(
            "full" if uncovered == full else "truncated", cover(poset, uncovered, *args)))
        assert exists_partition(P, 5) is not None
        assert sent == [("truncated", 381), ("full", 381), ("truncated", 1143), ("full", 1143)]

    def test_budget_error_only_when_both_engines_use_it_up(self):
        P = char_poset(veronese_factor(9, 3))
        with pytest.raises(SearchBudgetError, match="125 nodes at d=4"):
            exists_partition(P, 4, node_budget=125)

    def test_raw_levels_zero_and_one(self):
        # the full engine alone took 7 s on each of these levels
        P = char_poset(CRITERION_7)
        start = time.monotonic()
        part = exists_partition(P, 0, deadline=start + 5.0)
        assert time.monotonic() - start < 0.5
        assert verify_decomposition(CRITERION_7, part, 0)
        part = exists_partition(P, 1, deadline=time.monotonic() + 10.0)
        assert verify_decomposition(CRITERION_7, part, 1)

    def test_empty_truncated_universe_is_solved(self):
        # at d=0 the element x (rho 1) has no rho below the level: every
        # element is left single, with no search
        F = fac("x", "x")
        assert exists_partition(char_poset(F), 0, node_budget=0) == IntervalPartition(
            (((1,), (1,)),))

    def test_solves_a_level_that_ran_past_fifteen_seconds(self):
        F = veronese_factor(9, 3)
        part = exists_partition(char_poset(F), 4, deadline=time.monotonic() + 5.0)
        assert part is not None
        assert verify_decomposition(F, part, 4)


class TestSdepth:
    def test_principal_ideal(self):
        assert sdepth(fac("x", "x"))[0] == 1

    def test_maximal_ideal_two_variables(self):
        assert sdepth(fac("x, y", "x, y"))[0] == 1

    def test_maximal_ideal_three_variables(self):
        assert sdepth(fac("x, y, z", "x, y, z"))[0] == 2

    def test_free_module_has_full_depth(self):
        assert sdepth(fac("x, y, z", "1"))[0] == 3

    def test_residue_field(self):
        assert sdepth(fac("x, y", "1", "x, y"))[0] == 0

    def test_deadline_during_poset_build(self):
        F = fac("x, y, z", "x^100*y*z, x^50*y*z^50, x^50*y^50*z")
        with pytest.raises(TimeLimitError):
            char_poset(F, deadline=time.monotonic() - 1.0)

    def test_deadline_overshoot_on_a_large_box(self):
        # 4,080,501 cells and 49,900 elements; the full sdepth takes seconds
        F = fac("x, y, z", "x^200*y*z, x^100*y*z^100, x^100*y^200*z")
        start = time.monotonic()
        with pytest.raises(TimeLimitError):
            sdepth(F, deadline=start + 0.1)
        assert time.monotonic() - start < 0.5

    def test_deadline_during_the_decode_of_a_dense_box(self):
        # 4,004,001 cells and 4,003,998 elements; decoding them all before
        # the first deadline check takes a quarter of a second or more
        F = fac("x, y", "x, y", "x^2000, y^2000")
        start = time.monotonic()
        with pytest.raises(TimeLimitError):
            char_poset(F, deadline=start + 0.02)
        assert time.monotonic() - start < 0.15

    def test_certificate_verifies(self):
        F = fac("x, y, z", "x*y, y*z", "x*y*z^2")
        d, cert = sdepth(F)
        assert verify_decomposition(F, cert, d)
        assert not verify_decomposition(F, cert, d + 1)

    def test_matches_oracle_on_fixed_cases(self):
        for F in [
            fac("x, y", "x, y"),
            fac("x, y, z", "x, y, z"),
            fac("x, y", "x^2, x*y"),
            fac("x, y, z", "x*y, y*z", "x*y*z"),
            fac("x, y", "x^2, x*y", "x^3, x^2*y^2"),
        ]:
            assert sdepth(F)[0] == oracle.oracle_sdepth(F)

    @pytest.mark.parametrize("n, k, expected", [(6, 1, 3), (6, 3, 3), (7, 1, 4)])
    def test_squarefree_veronese_ladder(self, n, k, expected):
        # m_n = V(n, 1); these exhausted a 25000-node level budget under the
        # earlier backtracker
        gens = ", ".join(
            "*".join(f"x{i}" for i in S)
            for S in itertools.combinations(range(1, n + 1), k)
        )
        F = fac(", ".join(f"x{i}" for i in range(1, n + 1)), gens)
        d, cert = sdepth(F, deadline=time.monotonic() + 20.0)
        assert d == expected
        assert verify_decomposition(F, cert, d)

    @given(helpers.factors(nmax=2, emax=3))
    def test_matches_oracle(self, F):
        assert sdepth(F)[0] == oracle.oracle_sdepth(F)


def certificate_digest(factors) -> str:
    """sha256 over the sdepth value and certificate of each factor, in order."""
    h = hashlib.sha256()
    for F in factors:
        d, cert = sdepth(F, node_budget=20000)
        assert verify_decomposition(F, cert, d)
        h.update(repr((d, cert.intervals)).encode())
    return h.hexdigest()


class TestPinnedCertificates:
    """The sdepth values and certificates the search returns, hashed.

    Row numbering, candidate order and the node check decide which of the
    many partitions of a level the search finds first, so these digests
    pin the search order, not only the answers.  A change that moves the
    search order changes them: it updates the digests here and lists the
    update, and why the certificates moved, in CHANGES.md.
    """

    def test_random_sample(self):
        rng = random.Random(7)
        factors = [random_factor(rng, rng.randint(1, 4), 3) for _ in range(300)]
        assert certificate_digest(factors) == (
            "e670c825c4ed91e4918dc4c68b26eb5c5126e833da2ba6b78ccc8daba7f75b82")

    def test_veronese_ladder(self):
        # the factors of the benchmark's search workload
        factors = [veronese_factor(5, 1), veronese_factor(5, 2),
                   veronese_factor(6, 3, 5), veronese_factor(6, 2, 5),
                   veronese_factor(6, 1), veronese_factor(6, 3)]
        assert certificate_digest(factors) == (
            "7bfb0a57e51b39ca4f27a0706c171c412bb522f0c8ea92f548c87c32ef7dc5e6")


class TestVerifyDecomposition:
    def setup_method(self):
        self.F = fac("x, y", "x, y")
        self.d, self.cert = sdepth(self.F)

    def test_accepts_its_own_certificate(self):
        assert verify_decomposition(self.F, self.cert, self.d)

    def test_rejects_overlap(self):
        doubled = IntervalPartition(self.cert.intervals + self.cert.intervals[:1])
        assert not verify_decomposition(self.F, doubled, self.d)

    def test_rejects_missing_element(self):
        short = IntervalPartition(self.cert.intervals[:-1])
        assert not verify_decomposition(self.F, short, self.d)

    def test_rejects_low_rho_top(self):
        # a well-formed cover whose second top saturates only one coordinate
        bad = IntervalPartition((((0, 1), (1, 1)), ((1, 0), (1, 0))))
        assert verify_decomposition(self.F, bad, 1)
        assert not verify_decomposition(self.F, bad, 2)

    def test_rejects_interval_leaving_the_element_set(self):
        # (0, 0) is not a member of the poset of (x, y)/0
        bad = IntervalPartition((((0, 0), (1, 1)),))
        assert not verify_decomposition(self.F, bad, 1)

    def test_rejects_wrong_arity(self):
        bad = IntervalPartition((((0,), (1,)),))
        assert not verify_decomposition(self.F, bad, 0)

    def test_rejects_malformed_tops_in_three_variables(self):
        F = fac("x, y, z", "x*y, y*z", "x*y*z^2")
        d, cert = sdepth(F)
        g = F.join_exponents()
        (a, b), rest = cert.intervals[0], cert.intervals[1:]
        assert verify_decomposition(F, cert, d)
        for top in [(g[0] + 1,) + b[1:],  # b_0 past g_0
                    b[:2] + (g[2] + 1,),  # b_2 past g_2
                    b + (0,), b[:2]]:  # one exponent too many, one too few
            bad = IntervalPartition(((a, top),) + rest)
            assert not verify_decomposition(F, bad, 0)
        # read as box cells, [(0, 0, 1), (0, 0, 2)] is cells 1 and 2 of the
        # box [0, (1, 1, 1)]: (0, 0, 1) and (0, 1, 0), both elements of m_3
        m3 = fac("x, y, z", "x, y, z")
        rest = [(c, c) for c in [(0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]]
        wrapped = IntervalPartition((((0, 0, 1), (0, 0, 2)), *rest))
        assert not verify_decomposition(m3, wrapped, 0)

    def test_deadline(self):
        with pytest.raises(TimeLimitError):
            verify_decomposition(self.F, self.cert, self.d,
                                 deadline=time.monotonic() - 1.0)

    def test_rejects_interval_outside_box(self):
        bad = IntervalPartition((((0, 1), (0, 5)), ((1, 0), (1, 1))))
        assert not verify_decomposition(self.F, bad, 1)

    @given(helpers.factors(nmax=3, emax=3), st.data())
    def test_verdicts_match_brute_force(self, F, data):
        d, cert = sdepth(F)
        ivs = cert.intervals
        i = data.draw(st.integers(0, len(ivs) - 1))
        a, b = ivs[i]
        j = data.draw(st.integers(0, F.n - 1))
        raised = b[:j] + (b[j] + 1,) + b[j + 1:]
        cases = [
            (ivs, d),
            (ivs[:i] + ivs[i + 1:], d),  # one interval dropped
            (ivs + ivs[i:i + 1], d),  # one interval twice
            (ivs[:i] + ((a, raised),) + ivs[i + 1:], d),  # one top raised
            (ivs, d + 1),
        ]
        verdicts = [verify_decomposition(F, IntervalPartition(p), k) for p, k in cases]
        assert verdicts == [oracle_verify(F, p, k) for p, k in cases]
        assert verdicts[0]

    def test_builds_no_catalogue(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify_decomposition built a catalogue")

        # the package attribute monocanon.sdepth is the function, not the module
        monkeypatch.setattr(sys.modules["monocanon.sdepth"], "CharacteristicPoset", refuse)
        with pytest.raises(AssertionError, match="built a catalogue"):
            char_poset(self.F)
        assert verify_decomposition(self.F, self.cert, self.d)


class TestDecompositionLines:
    def test_golden(self):
        F = fac("x, y", "x, y")
        d, cert = sdepth(F)
        lines = decomposition_lines(cert, F.join_exponents(), ("x", "y"))
        assert lines == ["x * K[x]", "y * K[y]", "x*y * K[x, y]"]
