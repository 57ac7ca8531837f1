"""Types, canonical forms, gap collapsing, the shift transform, and lifting
certificates from the canonical form."""

import itertools

import pytest
from hypothesis import given, strategies as st

import helpers
import oracle
from helpers import fac, ideal
from monocanon import (
    Factor,
    GapError,
    IntervalPartition,
    MonomialIdeal,
    applicable_gaps,
    canonicalize,
    canonicalize_ideal,
    canonicalize_var,
    collapse_gap_step,
    divides,
    format_factor,
    format_ideal,
    is_canonical,
    lift,
    minimalize,
    sdepth,
    shift_transform,
    type_wrt,
    verify_decomposition,
)
from monocanon.canonical import _substitute
from monocanon.koszul import _coding_key, _rank_coding


class TestTypeWrt:
    def test_two_generator_ideal(self):
        F = fac("x, y", "x^4, x^3*y^7")
        assert type_wrt(F, 0) == (3, 4)
        assert type_wrt(F, 1) == (7,)

    def test_collects_both_sides_of_the_quotient(self):
        F = fac(
            "x, y, z",
            "x^10*y^5, x^4*y*z^7, y^3*z^7",
            "x^10*y^20*z^2, x^3*y^4*z^13, x^9*y^2*z^7",
        )
        assert type_wrt(F, 2) == (2, 7, 13)

    def test_squarefree_is_type_one(self):
        F = fac("x, y, z", "x*y, y*z")
        for v in range(3):
            assert type_wrt(F, v) == (1,)

    def test_missing_variable_has_empty_type(self):
        assert type_wrt(fac("x, y", "x^2"), 1) == ()

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            type_wrt(fac("x, y", "x"), 2)

    def test_ideal_variant(self):
        assert type_wrt(ideal("x, y", "x^4, x^3*y^7"), 0) == (3, 4)

    @given(helpers.factors())
    def test_kept_types_match_a_scan_of_the_generators(self, F):
        assert F.types() is F.types()
        for v, kept in enumerate(F.types()):
            assert kept == tuple(sorted({m[v] for m in F.I.gens + F.J.gens if m[v]}))


class TestCanonicalizeVar:
    def test_single_variable_compression(self):
        F = canonicalize_var(fac("x, y", "x^4, x^3*y^7"), 0)
        assert F.I.gens == ((2, 0), (1, 7))

    def test_fixed_point(self):
        F = fac("x, y", "x^2, x*y")
        assert canonicalize_var(F, 0) is F

    def test_leaves_other_variables_alone(self):
        F = canonicalize_var(
            fac("x, y, z", "x^100*y*z, x^50*y*z^50, x^50*y^50*z"), 0
        )
        assert set(F.I.gens) == {(2, 1, 1), (1, 1, 50), (1, 50, 1)}


class TestCanonicalize:
    def test_two_variable_golden(self):
        C = canonicalize(fac("x, y", "x^4, x^3*y^7"))
        assert format_factor(C, ("x", "y")) == "(x^2, x*y)"

    def test_quotient_golden(self):
        C = canonicalize(
            fac(
                "x, y, z",
                "x^10*y^5, x^4*y*z^7, y^3*z^7",
                "x^10*y^20*z^2, x^3*y^4*z^13, x^9*y^2*z^7",
            )
        )
        assert format_factor(C, ("x", "y", "z")) == (
            "(x^2*y*z^2, y^3*z^2, x^4*y^5) / (x^3*y^2*z^2, x*y^4*z^3, x^4*y^6*z)"
        )

    def test_factor_differs_from_componentwise(self):
        # canonicalizing I and J separately can break the containment that
        # canonicalizing the factor as a whole preserves
        F = fac("x, y", "x^4, y^10, x^2*y^7", "x^20, y^30")
        C = canonicalize(F)
        assert format_factor(C, ("x", "y")) == "(x^2, x*y, y^2) / (x^3, y^3)"
        names = ("x", "y")
        assert format_ideal(canonicalize_ideal(F.I), names) == "(x^2, x*y, y^2)"
        assert format_ideal(canonicalize_ideal(F.J), names) == "(x, y)"

    def test_wide_exponent_golden(self):
        C = canonicalize(fac("x, y, z", "x^100*y*z, x^50*y*z^50, x^50*y^50*z"))
        assert format_factor(C, ("x", "y", "z")) == "(x^2*y*z, x*y^2*z, x*y*z^2)"

    def test_three_variable_chain_golden(self):
        C = canonicalize(fac("x, y, z", "x^13, x^4*y^7, y^7*z^10"))
        assert format_factor(C, ("x", "y", "z")) == "(x^2, x*y, y*z)"

    def test_ideal_variant_matches_factor_on_zero_denominator(self):
        I = ideal("x, y, z", "x^13, x^4*y^7, y^7*z^10")
        assert canonicalize_ideal(I) == canonicalize(Factor(I)).I

    @given(helpers.factors())
    def test_idempotent(self, F):
        C = canonicalize(F)
        assert canonicalize(C) == C
        assert is_canonical(C)

    @given(helpers.ideals(emax=1))
    def test_squarefree_fixed_points(self, I):
        assert canonicalize_ideal(I) == I
        assert is_canonical(Factor(I))

    @given(helpers.factors())
    def test_generator_counts_preserved(self, F):
        C = canonicalize(F)
        assert len(C.I.gens) == len(F.I.gens)
        assert len(C.J.gens) == len(F.J.gens)

    @given(helpers.factors())
    def test_types_become_initial_segments(self, F):
        C = canonicalize(F)
        for v in range(F.n):
            before = type_wrt(F, v)
            after = type_wrt(C, v)
            assert after == tuple(range(1, len(before) + 1))

    @given(helpers.factors(), st.data())
    def test_variable_order_irrelevant(self, F, data):
        order = data.draw(st.permutations(range(F.n)))
        G = F
        for v in order:
            G = canonicalize_var(G, v)
        assert G == canonicalize(F)

    @given(helpers.factors())
    def test_divisibility_preserved_and_reflected(self, F):
        maps = [
            {k: i for i, k in enumerate(type_wrt(F, v), start=1)}
            for v in range(F.n)
        ]

        def image(m):
            return tuple(maps[v][e] if e else 0 for v, e in enumerate(m))

        C = canonicalize(F)
        assert {image(m) for m in F.I.gens} == set(C.I.gens)
        assert {image(m) for m in F.J.gens} == set(C.J.gens)
        gens = F.I.gens + F.J.gens
        for a in gens:
            for b in gens:
                assert divides(a, b) == divides(image(a), image(b))


class TestIsCanonical:
    def test_golden_cases(self):
        assert is_canonical(fac("x, y", "x^2, x*y"))
        assert not is_canonical(fac("x, y", "x^4, x^3*y^7"))
        assert is_canonical(fac("x, y, z", "x*y, y*z"))


class TestCollapseGapStep:
    def test_closes_the_gap_below_the_smallest_exponent(self):
        F = collapse_gap_step(fac("x, y", "x^4, x^3*y^7"), 0, 0)
        assert F.I.gens == ((3, 0), (2, 7))

    def test_rejects_adjacent_exponents(self):
        # type (3, 4) wrt x: no gap between 3 and 4
        with pytest.raises(GapError, match="no gap"):
            collapse_gap_step(fac("x, y", "x^4, x^3*y^7"), 0, 1)

    def test_rejects_when_already_compressed(self):
        F = fac("x, y", "x^2, x*y")
        for j in range(2):
            with pytest.raises(GapError):
                collapse_gap_step(F, 0, j)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(GapError, match="out of range"):
            collapse_gap_step(fac("x, y", "x^4, x^3*y^7"), 0, 5)

    def test_applicable_gaps_enumeration(self):
        F = fac("x, y", "x^4, x^3*y^7")
        # x has types (3, 4): gap only below 3; y has type (7,): gap below 7
        assert applicable_gaps(F) == [(0, 0), (1, 0)]
        assert applicable_gaps(fac("x, y", "x^2, x*y")) == []

    @given(helpers.factors())
    def test_iterating_collapses_reaches_the_canonical_form(self, F):
        G = F
        while True:
            gaps = applicable_gaps(G)
            if not gaps:
                break
            v, j = gaps[0]
            G = collapse_gap_step(G, v, j)
        assert G == canonicalize(F)


class TestShiftTransform:
    def test_bumps_only_high_degrees(self):
        F = shift_transform(fac("x, y", "x^2, x*y"), 0, 2)
        assert F.I.gens == ((1, 1), (3, 0))

    def test_bumps_everything_at_threshold_one(self):
        F = shift_transform(fac("x, y", "x^2, x*y"), 0, 1)
        assert F.I.gens == ((3, 0), (2, 1))

    def test_identity_above_every_degree(self):
        F = fac("x, y", "x^2, x*y")
        assert shift_transform(F, 0, 3) == F

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError):
            shift_transform(fac("x, y", "x"), 0, 0)

    def test_rejects_bad_variable(self):
        with pytest.raises(IndexError):
            shift_transform(fac("x, y", "x"), 5, 1)

    @given(helpers.factors(), st.data())
    def test_shift_keeps_the_canonical_class(self, F, data):
        v = data.draw(st.integers(0, F.n - 1))
        cap = max(m[v] for m in F.I.gens + F.J.gens)
        k = data.draw(st.integers(1, cap + 1))
        assert canonicalize(shift_transform(F, v, k)) == canonicalize(F)

    @given(helpers.factors(), st.data())
    def test_matches_bumping_each_generator(self, F, data):
        v = data.draw(st.integers(0, F.n - 1))
        k = data.draw(st.integers(1, max(m[v] for m in F.I.gens + F.J.gens) + 2))

        def bumped(gens):
            return minimalize(
                m[:v] + (m[v] + 1,) + m[v + 1 :] if m[v] >= k else m for m in gens
            )

        G = shift_transform(F, v, k)
        assert G.I.gens == bumped(F.I.gens)
        assert G.J.gens == bumped(F.J.gens)


class TestSubstitutionChecks:
    """A map that is not strictly increasing on the occurring exponents
    must be caught, not silently produce a different factor."""

    def test_merged_generators_raise(self):
        F = fac("x, y", "x^2*y, x*y^2")
        with pytest.raises(RuntimeError, match="merged generators"):
            _substitute(F, {0: {2: 1}})

    def test_merged_generators_raise_on_an_ideal(self):
        with pytest.raises(RuntimeError, match="merged generators"):
            _substitute(ideal("x, y", "x^2*y, x*y^2"), {0: {2: 1}})

    def test_broken_containment_raises(self):
        F = fac("x", "x^2", "x^3")
        with pytest.raises(RuntimeError, match="broke J < I"):
            _substitute(F, {0: {3: 2}})

    def test_identity_maps_return_the_input(self):
        F = fac("x, y", "x^4, x^3*y^7")
        assert _substitute(F, {0: {3: 3, 4: 4}, 1: {}}) is F


def lifted_certificate(F):
    """sdepth of F's canonical form, and its certificate lifted to F."""
    s, cert = sdepth(canonicalize(F))
    return s, lift(F, cert)


class TestLift:
    @given(helpers.factors_and_shifts())
    def test_lifted_certificate_verifies(self, F):
        s, lifted = lifted_certificate(F)
        assert verify_decomposition(F, lifted, s)

    @given(helpers.factors_and_shifts())
    def test_boxes_partition_the_oracle_members(self, F):
        # cells listed box by box, with no production code: none repeats,
        # and together they are the members
        s, lifted = lifted_certificate(F)
        g, pts = oracle.members(F)
        cells = [c for lo, hi in lifted.intervals
                 for c in itertools.product(*map(range, lo, [y + 1 for y in hi]))]
        assert sorted(cells) == sorted(pts)
        for lo, hi in lifted.intervals:
            assert sum(1 for y, e in zip(hi, g) if y == e) >= s

    @given(helpers.factors_and_shifts(), st.data())
    def test_a_top_moved_off_by_one_fails(self, F, data):
        s, lifted = lifted_certificate(F)
        boxes = [list(map(list, box)) for box in lifted.intervals]
        box = data.draw(st.sampled_from(boxes))
        j = data.draw(st.integers(0, F.n - 1))
        box[1][j] += data.draw(st.sampled_from((-1, 1)))
        moved = IntervalPartition(tuple((tuple(lo), tuple(hi)) for lo, hi in boxes))
        assert not verify_decomposition(F, moved, s)

    def test_readme_example(self):
        # types x: (1, 100), y: (50,), z: (1, 50); the canonical certificate
        # is the README's decomposition, four single elements, and canonical
        # x = 1 stands for the raw exponents 1..99, y = 0 for 0..49 and
        # z = 1 for 1..49
        F = fac("x, y, z", "x*y^50*z^50, x^100*z^50, x^100*y^50*z")
        s, lifted = lifted_certificate(F)
        assert s == 2
        assert sorted(lifted.intervals) == [
            ((1, 50, 50), (99, 50, 50)),
            ((100, 0, 50), (100, 49, 50)),
            ((100, 50, 1), (100, 50, 49)),
            ((100, 50, 50), (100, 50, 50)),
        ]

    def test_a_coordinate_past_the_type_raises(self):
        F = fac("x, y", "x^4, x^3*y^7")  # types (3, 4) and (7,)
        with pytest.raises(ValueError, match="canonical box"):
            lift(F, IntervalPartition((((0, 2), (2, 2)),)))


def coding_key(F):
    gens, _, fields, _ = _rank_coding(F)
    return _coding_key(gens, fields)


class TestCanonicalGens:
    @given(helpers.factors())
    def test_matches_canonicalize(self, F):
        # the rank coding that keys check_forms' searches stands for the
        # canonical generators: F shares it with its canonical form, and its
        # codes count out the canonical exponents in the axis fields
        C = canonicalize(F)
        assert coding_key(F) == coding_key(C)
        codes_I, codes_J, fields = coding_key(F)
        for codes, gens in [(codes_I, C.I.gens), (codes_J, C.J.gens)]:
            assert {tuple((c & f).bit_count() for f in fields) for c in codes} == set(gens)
