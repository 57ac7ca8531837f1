"""Exact linear algebra, Koszul slices, and depth."""

import math
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import helpers
import oracle
from helpers import fac
from monocanon import (
    BoxCapError,
    Factor,
    MonomialIdeal,
    PrimeField,
    Rationals,
    TimeLimitError,
    canonicalize,
    depth,
    homology_dims,
    matrix_rank,
    parse_field,
)
from monocanon import koszul
from monocanon.canonical import shift_transform
from monocanon.koszul import _lcm_lattice, _matmul_is_zero, _rank_coding, homology_profile


class TestFields:
    def test_prime_field_requires_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(32004)
        assert PrimeField(2).p == 2
        assert str(PrimeField(32003)) == "GF(32003)"
        assert str(Rationals()) == "Q"

    @pytest.mark.parametrize("p", [
        318665857834031151167461,  # 399165290221 * 798330580441
        3317044064679887385961981,  # 1287836182261 * 2575672364521
    ])
    def test_rejects_strong_pseudoprimes_past_the_proven_bound(self, p):
        # both pass Miller-Rabin to every base 2..37
        with pytest.raises(ValueError, match="too large"):
            PrimeField(p)

    def test_accepts_a_large_prime_below_the_bound(self):
        assert PrimeField(2**61 - 1).p == 2**61 - 1

    def test_parse_field(self):
        assert parse_field("q") == Rationals()
        assert parse_field("p32003") == PrimeField(32003)
        with pytest.raises(ValueError):
            parse_field("p15")
        with pytest.raises(ValueError):
            parse_field("gf9")


class TestMatrixRank:
    def test_identity(self):
        assert matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_zero(self):
        assert matrix_rank([[0, 0], [0, 0]]) == 0

    def test_rank_one(self):
        assert matrix_rank([[1, 1], [1, 1]]) == 1

    def test_empty(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[]]) == 0

    def test_ragged(self):
        with pytest.raises(ValueError, match="ragged"):
            matrix_rank([[1, 2], [3]])

    def test_fraction_entries(self):
        assert matrix_rank([[Fraction(1, 2), 1], [1, 2]]) == 1
        # 1/2 is 2 in GF(3), not truncated to 0
        assert matrix_rank([[Fraction(1, 2)]], PrimeField(3)) == 1

    def test_rank_can_drop_in_finite_characteristic(self):
        assert matrix_rank([[2]]) == 1
        assert matrix_rank([[2]], PrimeField(2)) == 0

    @given(st.booleans(), st.data())
    def test_matches_fraction_gauss(self, sparse, data):
        # dense entries up to 9 in magnitude, or sparse {-1, 0, 1} entries,
        # where the shortest-row pivot order departs from column order
        size = st.integers(1, 10 if sparse else 5)
        entry = st.sampled_from((0, 0, 0, 1, -1)) if sparse else st.integers(-9, 9)
        nrows, ncols = data.draw(size), data.draw(size)
        rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
        expected = oracle.rank(rows)
        assert matrix_rank(rows) == expected
        # no 5x5 minor with entries up to 9 can reach 2^31 - 1, nor can a
        # {-1, 0, 1} minor up to 10x10 (Hadamard bound 10^5), so the modular
        # rank must agree with the rational one
        assert matrix_rank(rows, PrimeField(2**31 - 1)) == expected


class TestSupport:
    def test_membership_difference(self):
        F = fac("x, y", "x*y")
        assert F.support((1, 1))
        assert not F.support((1, 0))

    def test_quotient(self):
        F = fac("x, y", "x^2, x*y", "x^3, x^2*y")
        assert F.support((2, 0))
        assert not F.support((3, 0))


def _membership_mask(F, a):
    """The present subsets at a over all n axes, straight from membership:
    bit fm is set iff x^(a - eps_S) lies in I minus J, S the axes of fm."""
    mask = 0
    for fm in range(1 << F.n):
        S = [j for j in range(F.n) if fm >> j & 1]
        if all(a[j] for j in S) and oracle._in_factor(
                F, tuple(x - (j in S) for j, x in enumerate(a))):
            mask |= 1 << fm
    return mask


def _full_boundary(n, i):
    """d_i on the whole Koszul complex in n variables, as {S: column} keyed by
    subset bitmask, each column {face: sign}: d(e_S) = sum_k (-1)^k
    e_(S minus S[k])."""
    mask = lambda S: sum(1 << j for j in S)
    return {mask(S): {mask(S[:k] + S[k + 1:]): (-1) ** k for k in range(i)}
            for S in combinations(range(n), i)}


def _veronese(n, k):
    """V(n, k), the squarefree Veronese ideal: all squarefree monomials of
    degree k in n variables; V(n, 1) is the maximal ideal m_n."""
    return Factor(MonomialIdeal(n, [tuple(int(j in S) for j in range(n))
                                    for S in combinations(range(n), k)]))


class TestHomologyDims:
    def test_hypersurface_slice(self):
        F = fac("x, y", "1", "x*y")
        assert homology_dims(F, (1, 1)) == (0, 1, 0)

    def test_empty_slice(self):
        F = fac("x, y", "1", "x*y")
        assert homology_dims(F, (2, 2)) == (0, 0, 0)

    def test_free_module_slices(self):
        S = fac("x, y", "1")
        assert homology_dims(S, (0, 0)) == (1, 0, 0)
        assert homology_dims(S, (1, 0)) == (0, 0, 0)
        assert homology_dims(S, (1, 1)) == (0, 0, 0)

    def test_rejects_bad_multidegree(self):
        with pytest.raises(ValueError):
            homology_dims(fac("x", "x"), (1, 1))
        with pytest.raises(ValueError):
            homology_dims(fac("x", "x"), (-1,))

    def test_full_profile_is_exact(self):
        for n in (1, 2, 3):
            assert homology_profile(n, (1 << (1 << n)) - 1) == (0,) * (n + 1)

    @given(helpers.factors(nmax=4, emax=2), st.data())
    def test_matches_profile_over_all_axes(self, F, data):
        # points off the lcm lattice and with zero coordinates included; the
        # mask is built over all n axes, straight from membership
        a = tuple(data.draw(st.integers(0, e + 1)) for e in F.join_exponents())
        assert homology_dims(F, a) == homology_profile(F.n, _membership_mask(F, a))

    @given(helpers.factors(nmin=4, nmax=4, emax=4), st.data())
    def test_matches_profile_on_codes_wider_than_a_byte(self, F, data):
        # up to five ranks on each of four axes: most points' top bits span
        # two bytes of the rank coding, so the slack gather runs in windows
        a = tuple(data.draw(st.integers(0, e + 1)) for e in F.join_exponents())
        assert homology_dims(F, a) == homology_profile(F.n, _membership_mask(F, a))

    @pytest.mark.parametrize("n", [11, 12])
    def test_more_than_ten_support_axes(self, n):
        # at the top point of m_n every proper subset is present: subsets
        # past the down-closure table's 10 axes are doubled in
        F = _veronese(n, 1)
        gens, (c,), fields, _ = _rank_coding(F, (1,) * n)
        tops = sum(1 << f.bit_length() >> 1 for f in fields)
        proper = (1 << (1 << n) - 1) - 1  # bits 0 .. 2^n - 2: all but the full set
        assert koszul._present_mask(c, tops, gens) == (n, proper)
        assert homology_dims(F, (1,) * n) == (0,) * (n - 1) + (1, 0)

    def test_gather_tables_match_their_definition(self):
        # entry v packs v's bits at the pattern's set bits, the highest first
        for pattern in range(256):
            table = koszul._gather(pattern)
            assert len(table) == 256
            for v in range(256):
                picked = [b for b, p in zip(f"{v:08b}", f"{pattern:08b}") if p == "1"]
                assert table[v] == int("".join(reversed(picked)) or "0", 2)

    def test_down_closures_match_their_definition(self):
        down = koszul._down_closures()
        assert len(down) == 1024
        for S in range(1024):
            subsets, R = {S}, S
            while R:
                R = (R - 1) & S
                subsets.add(R)
            assert down[S] == sum(1 << R for R in subsets)

    @pytest.mark.parametrize("n", [3, 4])
    def test_boundary_composition_check(self, n):
        d = {i: _full_boundary(n, i) for i in range(1, n + 1)}
        for i in range(1, n):
            assert _matmul_is_zero(d[i], d[i + 1])
            flipped = {S: dict(col) for S, col in d[i + 1].items()}
            col = flipped[min(flipped)]
            face = min(col)
            col[face] = -col[face]
            assert not _matmul_is_zero(d[i], flipped)


def _dense_profile(k, mask, rank):
    """(H_0, ..., H_k) of the present subsets (bit fm of mask) of k axes, from
    dense boundary matrices ranked by rank: d_i has a row per present
    (i-1)-subset and a column per present i-subset, and the entry at
    (S minus j, S) is (-1)^(number of axes of S below j)."""
    by_size = [[fm for fm in range(1 << k) if mask >> fm & 1 and fm.bit_count() == i]
               for i in range(k + 1)]
    ranks = [0] * (k + 2)
    for i in range(1, k + 1):
        mat = [[0 if r & ~c else (-1) ** (c & ((c ^ r) - 1)).bit_count()
                for c in by_size[i]] for r in by_size[i - 1]]
        ranks[i] = rank(mat) if mat and mat[0] else 0
    return tuple(len(by_size[i]) - ranks[i] - ranks[i + 1] for i in range(k + 1))


def _ignore(*record):
    """A trace callback that keeps nothing: it sends depth to the lattice scan."""


def _closure(k, facets):
    """Bitmask over subset bitmasks of k axes: every face of the facets."""
    return sum(1 << s for s in range(1 << k) if any(s | f == f for f in facets))


@st.composite
def relative_complexes(draw):
    """(k, mask): the faces of a relative complex Delta_I minus Delta_J on
    k <= 6 axes, as a bitmask over subset bitmasks; Delta_I is generated by
    drawn facets and Delta_J by subsets of those, so Delta_J lies in Delta_I."""
    k = draw(st.integers(0, 6))
    face = st.integers(0, (1 << k) - 1)
    fi = draw(st.lists(face, min_size=1, max_size=6))
    fj = [f & draw(face) for f in draw(st.lists(st.sampled_from(fi), max_size=3))]
    return k, _closure(k, fi) & ~_closure(k, fj)


# the six-vertex real projective plane: its reduced homology is GF(2) in
# degrees 1 and 2 over GF(2), and 0 in characteristic other than 2; with the
# empty face counted, the slice has it at H_2 and H_3
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]

FIELDS = [Rationals(), PrimeField(2), PrimeField(3), PrimeField(32003)]


class TestHomologyProfileReference:
    @given(relative_complexes())
    def test_matches_dense_ranks(self, km):
        k, mask = km
        expected = _dense_profile(k, mask, oracle.rank)
        assert _dense_profile(k, mask, matrix_rank) == expected
        for field in FIELDS:
            assert homology_profile(k, mask, field) == _dense_profile(
                k, mask, lambda rows: matrix_rank(rows, field))

    @given(relative_complexes(), st.data())
    def test_invariant_under_relabelled_axes(self, km, data):
        # one permutation of the k axes, applied to the bits of every subset
        k, mask = km
        perm = data.draw(st.permutations(range(k)))
        moved = 0
        for S in range(1 << k):
            if mask >> S & 1:
                moved |= 1 << sum(1 << perm[t] for t in range(k) if S >> t & 1)
        assert moved.bit_count() == mask.bit_count()
        for field in FIELDS[:3]:
            assert homology_profile(k, moved, field) == homology_profile(k, mask, field)

    def test_projective_plane_has_torsion(self):
        mask = _closure(6, [sum(1 << j for j in f) for f in RP2])
        assert homology_profile(6, mask) == (0,) * 7
        for field in FIELDS[1:]:
            dims = (0, 0, 1, 1, 0, 0, 0) if field.p == 2 else (0,) * 7
            assert homology_profile(6, mask, field) == dims
            assert _dense_profile(6, mask, lambda rows: matrix_rank(rows, field)) == dims


class TestMorseReadOff:
    """Slices whose critical cells have no two in adjacent degrees are read
    off the element matching; the others fall back to ranked boundary maps."""

    @pytest.mark.parametrize("k", range(6))
    def test_tables_match_listed_subsets(self, k):
        free, layer = koszul._morse_tables(k)
        subsets = range(1 << k)
        assert free == tuple(sum(1 << S for S in subsets if not S >> t & 1)
                             for t in range(k))
        assert layer == tuple(sum(1 << S for S in subsets if S.bit_count() == i)
                              for i in range(k + 1))

    LADDER = [(8, 1, 1), (8, 4, 4), (9, 4, 4), (9, 3, 3), (12, 1, 1)]

    @staticmethod
    def _no_rank(n, k, value, field, trace, monkeypatch):
        def no_rank(*args):
            raise AssertionError("a slice was ranked")

        monkeypatch.setattr(koszul, "_rank_sparse", no_rank)
        assert depth(_veronese(n, k), field, deadline=time.monotonic() + 30.0,
                     trace=trace) == value

    @pytest.mark.parametrize("field", [Rationals(), PrimeField(32003)], ids=str)
    @pytest.mark.parametrize("n, k, value", LADDER)
    def test_ladder_needs_no_rank(self, n, k, value, field, monkeypatch):
        self._no_rank(n, k, value, field, None, monkeypatch)  # the box pass

    @pytest.mark.parametrize("field", [Rationals(), PrimeField(32003)], ids=str)
    @pytest.mark.parametrize("n, k, value", LADDER)
    def test_traced_ladder_needs_no_rank(self, n, k, value, field, monkeypatch):
        self._no_rank(n, k, value, field, _ignore, monkeypatch)  # the lattice scan

    def test_projective_plane_reaches_the_fallback(self, monkeypatch):
        calls = []
        real = koszul._rank_sparse

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(koszul, "_rank_sparse", counted)
        mask = _closure(6, [sum(1 << j for j in f) for f in RP2])
        assert homology_profile(6, mask, PrimeField(2)) == (0, 0, 1, 1, 0, 0, 0)
        assert len(calls) > 0

    def test_fallback_keeps_the_boundary_composition_check(self, monkeypatch):
        monkeypatch.setattr(koszul, "_matmul_is_zero", lambda A, B: False)
        mask = _closure(6, [sum(1 << j for j in f) for f in RP2])
        with pytest.raises(RuntimeError, match="boundary composition"):
            homology_profile(6, mask, PrimeField(2))


class TestLcmLattice:
    @given(st.data())
    def test_matches_lcms_of_all_subsets(self, data):
        n = data.draw(st.integers(1, 4))
        exp = st.integers(0, 4) | st.integers(0, 2**31 - 1)
        gens = data.draw(st.lists(st.tuples(*[exp] * n), max_size=6))
        expected = {
            tuple(map(max, zip(*sub)))
            for k in range(1, len(gens) + 1)
            for sub in combinations(gens, k)
        }
        # coded, closed and decoded; code order is lex order of exponents
        unit = Factor(MonomialIdeal(n, [(0,) * n]))
        _, codes, _, decode = _rank_coding(unit, *gens)
        assert [decode(c) for c in sorted(_lcm_lattice(codes, None))] == sorted(expected)


class TestDepth:
    def test_residue_field(self):
        assert depth(fac("x, y", "1", "x, y")) == 0

    def test_hypersurface(self):
        assert depth(fac("x, y", "1", "x*y")) == 1

    def test_maximal_ideal_as_module(self):
        assert depth(fac("x, y", "x, y")) == 1

    def test_free_module(self):
        for n in range(1, 5):
            names = ", ".join(f"x{i}" for i in range(1, n + 1))
            assert depth(fac(names, "1")) == n

    def test_embedded_prime_kills_depth(self):
        assert depth(fac("x, y", "1", "x^2, x*y")) == 0

    def test_field_choice_agrees_at_this_scale(self):
        for F in [
            fac("x, y", "1", "x*y"),
            fac("x, y, z", "x*y, y*z", "x*y*z"),
            fac("x, y", "x^2, x*y"),
        ]:
            assert depth(F) == depth(F, PrimeField(32003))

    def test_box_cap(self):
        with pytest.raises(BoxCapError, match="cap of 100"):
            depth(fac("x, y", "x^100*y^100"), box_cap=100)

    def test_deadline(self):
        big = fac("x, y", "x^63*y^63")
        with pytest.raises(TimeLimitError):
            depth(big, deadline=time.monotonic() - 1.0, box_cap=10**8)

    def test_trace_reports_every_slice(self):
        records = []
        F = fac("x, y", "1", "x*y")
        depth(F, trace=lambda a, present, dims: records.append((a, present, dims)))
        assert ((1, 1), 3, (0, 1, 0)) in records
        assert ((0, 0), 1, (1, 0, 0)) in records

    @given(helpers.factors(nmax=4, emax=2))
    def test_trace_records_match_homology_dims(self, F):
        # the scan and homology_dims build their slices with the same code;
        # skipped exact slices must also read as a fresh slice computes them
        records = []
        depth(F, trace=lambda a, present, dims: records.append((a, present, dims)))
        assert records
        for a, present, dims in records:
            assert dims == homology_dims(F, a)
            assert present == sum(
                oracle._in_factor(F, tuple(x - (j in S) for j, x in enumerate(a)))
                for r in range(F.n + 1)
                for S in combinations(range(F.n), r)
                if all(a[j] for j in S)
            )

    @given(helpers.factors(nmax=4))
    def test_trace_multidegrees_increase_in_lex_order(self, F):
        points = []
        depth(F, trace=lambda a, present, dims: points.append(a))
        assert all(p < q for p, q in zip(points, points[1:]))

    def test_wide_exponents_match_full_box_oracle(self):
        F = fac("x, y, z", "x^7, y^7, z^7, x*y*z")
        assert depth(F) == oracle.oracle_depth(F)

    def test_raw_depth_on_a_large_box(self):
        # 8,120,601 cells; only the lcm lattice (at most 7 points) is scanned
        F = fac("x, y, z", "x^200*y*z, x^100*y*z^100, x^100*y^200*z")
        assert depth(F, deadline=time.monotonic() + 2.0) == 1 == depth(canonicalize(F))

    @pytest.mark.parametrize("field", [Rationals(), PrimeField(32003)], ids=str)
    @pytest.mark.parametrize("n, k", [(8, 1), (8, 4), (9, 3)])
    def test_koszul_ladder(self, n, k, field):
        # depth m_n = 1 and depth V(n, k) = k; V(9, 3) has 84 generators
        F = _veronese(n, k)
        d = depth(F, field, deadline=time.monotonic() + 30.0)
        assert d == k

    def test_maximal_ideal_in_twelve_variables(self):
        F = _veronese(12, 1)
        assert depth(F, PrimeField(32003), deadline=time.monotonic() + 8.0) == 1

    def test_rp2_depth_depends_on_the_field(self):
        # K[RP2] on its six-vertex triangulation: Cohen-Macaulay over Q, but
        # not over GF(2), where it has homology in H_1
        non_faces = [S for S in combinations(range(6), 3) if S not in RP2]
        F = Factor(MonomialIdeal(6, [(0,) * 6]),
                   MonomialIdeal(6, [tuple(int(j in S) for j in range(6))
                                     for S in non_faces]))
        assert depth(F) == 3
        assert depth(F, PrimeField(2)) == 2
        # a shift of F has other exponents but F's rank coding
        assert depth(shift_transform(F, 0, 1), PrimeField(2)) == 2
        with pytest.raises(BoxCapError, match="Koszul box"):
            depth(F, box_cap=63)

    @staticmethod
    def _profiles_of_m8(trace, monkeypatch) -> int:
        calls = []
        real = koszul.homology_profile

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(koszul, "homology_profile", counted)
        assert depth(_veronese(8, 1), trace=trace) == 1
        return len(calls)

    def test_one_profile_per_support_shape(self, monkeypatch):
        # m_8 has 255 lattice points but only 8 support sizes, each with the
        # same family of subsets: all but the whole support.  The box pass
        # reads every slice off the matching and computes no profile.
        assert self._profiles_of_m8(None, monkeypatch) == 0

    def test_traced_one_profile_per_support_shape(self, monkeypatch):
        # the lattice scan computes one profile per family
        assert self._profiles_of_m8(_ignore, monkeypatch) <= 8

    @given(helpers.factors(nmax=3, emax=2))
    def test_matches_full_box_oracle(self, F):
        assert depth(F) == oracle.oracle_depth(F) == oracle.oracle_depth(F, pad=1)

    @given(helpers.factors(nmax=3, emax=2))
    def test_field_independence_property(self, F):
        assert depth(F) == depth(F, PrimeField(32003))


def _rp2_factor():
    """K[RP2] as (1) / (the non-faces), a factor in six variables."""
    non_faces = [S for S in combinations(range(6), 3) if S not in RP2]
    return Factor(MonomialIdeal(6, [(0,) * 6]),
                  MonomialIdeal(6, [tuple(int(j in S) for j in range(6))
                                    for S in non_faces]))


def _box_depth(F, field):
    """depth from the box pass alone, whichever pass depth would take."""
    gens, _, fields, _ = _rank_coding(F)
    used = [f for f in fields if f]
    volume = math.prod(f.bit_count() + 1 for f in used)
    return F.n - max(koszul._box_pass(gens, used, volume, F.n, field, None))


class TestBoxPass:
    """Untraced depth runs the element matching on the whole rank box when
    its bitsets fit koszul._BOX_PASS_BITS and it costs less than the lattice
    can; traced calls, larger boxes and sparse ones scan the lcm lattice."""

    @staticmethod
    def _only(monkeypatch, path):
        # make the other path fail, so that a test pins the one it names
        other = "_lattice_scan" if path == "box" else "_box_pass"

        def refuse(*args):
            raise AssertionError(f"depth took {other}")

        monkeypatch.setattr(koszul, other, refuse)

    @pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(32003)],
                             ids=str)
    @given(F=helpers.factors(nmax=3, emax=2))
    def test_matches_lattice_scan_and_oracle(self, field, F):
        # no slice on at most 3 axes has torsion, so the oracle's rational
        # ranks give the depth over every field
        assert (depth(F, field) == _box_depth(F, field) == depth(F, field, trace=_ignore)
                == oracle.oracle_depth(F))

    @pytest.mark.parametrize("field", [Rationals(), PrimeField(2)], ids=str)
    @given(F=helpers.factors(nmin=4, nmax=6, emax=2))
    def test_matches_lattice_scan_on_more_axes(self, field, F):
        assert depth(F, field) == _box_depth(F, field) == depth(F, field, trace=_ignore)

    def test_projective_plane_reaches_the_fallback(self, monkeypatch):
        # the slice at (1, ..., 1) is RP2 with its empty face: its critical
        # cells lie in adjacent degrees, so its cell is ranked one at a time
        self._only(monkeypatch, "box")
        calls = []
        real = koszul.homology_profile

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(koszul, "homology_profile", counted)
        assert depth(_rp2_factor(), PrimeField(2)) == 2
        assert calls
        assert depth(_rp2_factor()) == 3

    def test_fallback_keeps_the_boundary_composition_check(self, monkeypatch):
        self._only(monkeypatch, "box")
        monkeypatch.setattr(koszul, "_matmul_is_zero", lambda A, B: False)
        with pytest.raises(RuntimeError, match="boundary composition"):
            depth(_rp2_factor(), PrimeField(2))

    def test_sparse_many_variables_take_the_lattice(self, monkeypatch):
        # three generators on disjoint supports covering 20 variables: a
        # complete intersection of height 3, so depth I = 20 - 3 + 1.  The
        # rank box has 2^20 cells; its lcm lattice has 7 points.
        self._only(monkeypatch, "lattice")
        blocks = [range(0, 7), range(7, 14), range(14, 20)]
        F = Factor(MonomialIdeal(20, [tuple(int(j in b) for j in range(20))
                                      for b in blocks]))
        assert depth(F, deadline=time.monotonic() + 2.0) == 18

    def test_few_generators_in_a_large_box_take_the_lattice(self, monkeypatch):
        # two generators with three exponents on each of 7 axes: a 3^7-cell
        # box, 2^7 bitsets, against a lattice of 3 points
        F = Factor(MonomialIdeal(7, [(1, 2, 3, 1, 2, 3, 1), (3, 1, 2, 3, 1, 2, 3)]))
        expected = _box_depth(F, Rationals())
        self._only(monkeypatch, "lattice")
        assert depth(F) == expected

    def test_thirteen_variables_fit_the_box(self, monkeypatch):
        # V(13, 6): 2^13 subsets of a 2^13-cell box are 2^26 bits, the
        # bound; the lattice scan of its 1716 generators takes seconds
        self._only(monkeypatch, "box")
        assert depth(_veronese(13, 6), PrimeField(32003),
                     deadline=time.monotonic() + 5.0) == 6

    def test_unused_variable(self):
        # z divides no generator: a regular element, which adds one to the
        # depth; its axis has rank 0 and the box pass leaves it out
        F = fac("x, y, z", "x*y, y^2", "x^2*y^2")
        assert F.types()[2] == ()
        expected = oracle.oracle_depth(F)
        assert depth(F) == depth(F, trace=_ignore) == expected
        assert depth(fac("x, y", "x*y, y^2", "x^2*y^2")) + 1 == expected

    def test_box_tables_cache_is_bounded(self, monkeypatch):
        # the 301 generators x^i y^(300 - i) of m^300: a 301 x 301 rank box,
        # too large for the table cache, and an lcm lattice of 45,451 points
        self._only(monkeypatch, "box")
        koszul._box_tables.cache_clear()
        F = Factor(MonomialIdeal(2, [(i, 300 - i) for i in range(301)]))
        assert depth(F, deadline=time.monotonic() + 5.0) == 1
        assert koszul._box_tables.cache_info().currsize == 0
        assert depth(fac("x, y", "x^2, y^3")) == 1
        assert koszul._box_tables.cache_info()[2:] == (256, 1)  # maxsize, currsize
