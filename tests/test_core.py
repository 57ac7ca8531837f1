"""Monomials, ideals, factors, and the ideal file grammar."""

import pytest
from hypothesis import example, given, strategies as st

import helpers
from helpers import fac, gens_of, ideal
from monocanon import (
    MAX_EXPONENT,
    DimensionError,
    Factor,
    FactorError,
    MonomialIdeal,
    ParseError,
    default_names,
    divides,
    format_factor,
    format_ideal,
    format_monomial,
    format_problem,
    minimalize,
    parse_ideal,
    parse_problem,
)


class TestDivides:
    def test_reflexive(self):
        assert divides((2, 1), (2, 1))

    def test_strict_coordinate_blocks(self):
        assert not divides((1, 1), (2, 0))

    def test_componentwise(self):
        assert divides((3, 0), (4, 7))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            divides((1, 2), (1, 2, 3))


def _staircase_points(n):
    """Points (u*s + a, 2^31 - 1 - u*s, b, ...) with 0 <= u <= 64, s the
    64th part of the cap and a, b, ... <= 3.  Points on different steps u
    never divide each other and those on one step often do, so a list of
    up to 150 of them keeps dozens of generators, of several degrees, past
    the first 64 bits of every bitset."""
    step = MAX_EXPONENT // 64

    def point(code):  # one draw per point: u and the small exponents, base 4
        u, small = divmod(code, 4 ** (n - 1))
        a, *b = (small >> 2 * j & 3 for j in range(n - 1))
        return (u * step + a, MAX_EXPONENT - u * step, *b)

    return st.integers(0, 65 * 4 ** (n - 1) - 1).map(point)


class TestMinimalize:
    def test_drops_multiples(self):
        assert minimalize([(2, 0), (3, 0), (0, 1)]) == ((0, 1), (2, 0))

    def test_keeps_incomparable(self):
        assert minimalize([(4, 0), (3, 7)]) == ((4, 0), (3, 7))

    def test_empty(self):
        assert minimalize([]) == ()

    def test_duplicates(self):
        assert minimalize([(1, 1), (1, 1)]) == ((1, 1),)

    def test_mixed_lengths(self):
        # the first generator in deglex order is compared with each other one
        with pytest.raises(DimensionError, match="lengths 2 and 3"):
            minimalize([(1, 2), (1, 2, 3)])
        with pytest.raises(DimensionError, match="lengths 3 and 2"):
            minimalize([(5, 5), (0, 0, 1)])

    @given(helpers.ideals(min_gens=0))
    def test_antichain_generating_same_ideal(self, I):
        gens = I.gens
        for i, a in enumerate(gens):
            for j, b in enumerate(gens):
                if i != j:
                    assert not divides(a, b)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12))
        | st.tuples(st.integers(2, 4), st.integers(0, 150)).flatmap(
        lambda nk: st.lists(_staircase_points(nk[0]), min_size=nk[1], max_size=nk[1])))
    def test_matches_brute_force_minimal_set(self, gens):
        # every pair compared, equal degrees and duplicates included
        distinct = set(gens)
        minimal = [m for m in distinct
                   if not any(k != m and divides(k, m) for k in distinct)]
        assert minimalize(gens) == tuple(
            sorted(minimal, key=lambda m: (sum(m), tuple(-e for e in m))))


class TestMonomialIdeal:
    def test_auto_minimalizes(self):
        assert MonomialIdeal(2, [(1, 0), (2, 0)]).gens == ((1, 0),)

    def test_zero_and_unit(self):
        assert MonomialIdeal(2).is_zero()
        assert MonomialIdeal(2, [(1, 2), (0, 0)]).gens == ((0, 0),)

    def test_contains(self):
        I = ideal("x, y", "x^2, x*y")
        assert I.contains((2, 3))
        assert not I.contains((0, 5))
        assert ideal("x, y", "x*y").contains((1, 1))

    def test_contains_checks_length(self):
        with pytest.raises(DimensionError):
            ideal("x, y", "x").contains((1, 0, 0))

    def test_contains_ideal(self):
        I = ideal("x, y", "x")
        assert I.contains_ideal(ideal("x, y", "x^3, x*y"))
        assert not I.contains_ideal(ideal("x, y", "y"))

    @given(helpers.ideals(nmax=4, emax=4, min_gens=0), st.data())
    def test_contains_agrees_with_divides(self, I, data):
        m = data.draw(st.tuples(*[st.integers(0, 5)] * I.n))
        assert I.contains(m) == any(divides(g, m) for g in I.gens)
        assert I.contains(list(m)) == I.contains(m)

    def test_zero_ideal_contains_nothing(self):
        assert not MonomialIdeal(2).contains((0, 0))

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            MonomialIdeal(1, [(-1,)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(DimensionError):
            MonomialIdeal(2, [(1, 2, 3)])

    def test_rejects_huge_exponent(self):
        with pytest.raises(ValueError):
            MonomialIdeal(1, [(MAX_EXPONENT + 1,)])
        assert MonomialIdeal(1, [(MAX_EXPONENT,)]).gens  # the cap itself is fine

    def test_immutable(self):
        I = MonomialIdeal(2, [(1, 0)])
        with pytest.raises(AttributeError):
            I.gens = ()

    def test_equality_and_hash(self):
        a = ideal("x, y", "x^2, x*y")
        b = MonomialIdeal(2, [(1, 1), (2, 0), (2, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ideal("x, y", "x")


class TestFactor:
    def test_default_denominator_is_zero(self):
        F = Factor(ideal("x, y", "x"))
        assert F.J.is_zero()

    def test_rejects_denominator_outside(self):
        # component-wise canonical forms of a valid pair need not stay nested
        I2 = ideal("x, y", "x^2, y^2, x*y")
        J2 = ideal("x, y", "x, y")
        with pytest.raises(FactorError, match="outside"):
            Factor(I2, J2)

    def test_rejects_equal_pair(self):
        I = ideal("x, y", "x, y")
        with pytest.raises(FactorError, match="equals"):
            Factor(I, ideal("x, y", "y, x"))

    def test_rejects_mixed_rings(self):
        with pytest.raises(DimensionError):
            Factor(ideal("x, y", "x"), MonomialIdeal(3))

    def test_join_exponents(self):
        F = fac("x, y, z", "x^100*y*z, x^50*y*z^50, x^50*y^50*z")
        assert F.join_exponents() == (100, 50, 50)
        assert fac("x, y, z", "x^2*y*z, x*y*z^2, x*y^2*z").join_exponents() == (2, 2, 2)
        assert fac("x, y, z", "1").join_exponents() == (0, 0, 0)

    @given(helpers.factors(nmax=4, emax=4))
    @example(fac("x, y, z", "x", "x*y^3"))  # y only in J, z in neither
    @example(fac("x, y", "x^2*y"))  # J = 0
    def test_join_exponents_is_the_componentwise_max(self, F):
        gens = F.I.gens + F.J.gens
        assert F.join_exponents() == tuple(max(m[j] for m in gens) for j in range(F.n))

    def test_support(self):
        F = fac("x, y", "x^2, x*y", "x^3, x^2*y")
        assert F.support((2, 0))
        assert not F.support((3, 0))
        assert not F.support((0, 4))

    def test_generators_in_deglex_order(self):
        F = fac("x, y", "x^2, x*y", "x^3")
        assert F.I.gens + F.J.gens == ((2, 0), (1, 1), (3, 0))


class TestParse:
    def test_generator_list(self):
        assert gens_of("x, y", "x^4, x^3*y^7") == ((4, 0), (3, 7))

    def test_minimalizes(self):
        assert gens_of("x, y", "x, x^2") == ((1, 0),)

    def test_zeroth_power_is_unit(self):
        assert ideal("x, y", "x^0").gens == ((0, 0),)

    def test_literal_one(self):
        assert ideal("x, y", "1").gens == ((0, 0),)

    def test_zero_rhs(self):
        assert ideal("x, y", "0").is_zero()

    def test_repeated_variable_adds(self):
        assert gens_of("x, y", "x*y*x^2") == ((3, 1),)

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'w'"):
            ideal("x, y", "x*w")

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            ideal("x, y", "x^-2")

    def test_bare_number(self):
        with pytest.raises(ParseError, match="unexpected number"):
            ideal("x, y", "2*x")

    def test_exponent_over_cap(self):
        with pytest.raises(ParseError, match="cap"):
            ideal("x", f"x^{MAX_EXPONENT + 1}")

    def test_exponent_leading_zeros(self):
        assert gens_of("x", "x^" + "0" * 20 + str(MAX_EXPONENT)) == ((MAX_EXPONENT,),)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_problem("ring x, y;\nI = x*q;\n")
        assert err.value.line == 2
        assert err.value.col == 7

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_ideal("x y", ("x", "y"))


class TestParseProblem:
    def test_numerator_only(self):
        p = parse_problem("ring x, y;\nI = x^4, x^3*y^7;\n")
        assert p.names == ("x", "y")
        assert not p.has_denominator
        F = p.factor()
        assert F.I.gens == ((4, 0), (3, 7))
        assert F.J.is_zero()

    def test_numerator_and_denominator(self):
        p = parse_problem("ring x, y;\nI = x;\nJ = x^2;\n")
        assert p.has_denominator
        assert p.factor().J.gens == ((2, 0),)

    def test_zero_denominator_line(self):
        p = parse_problem("ring x;\nI = x;\nJ = 0;\n")
        assert p.factor().J.is_zero()

    def test_duplicate_variable(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_problem("ring x, x;\nI = x;\n")

    def test_missing_assignment(self):
        with pytest.raises(ParseError, match="no ideal assignment"):
            parse_problem("ring x, y;\n")

    def test_too_many_assignments(self):
        with pytest.raises(ParseError, match="at most two"):
            parse_problem("ring x;\nA = x;\nB = x^2;\nC = x^3;\n")

    def test_missing_ring_keyword(self):
        with pytest.raises(ParseError, match="expected 'ring'"):
            parse_problem("I = x;\n")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_problem("ring x, y;\nI = x\n")


# One row per ParseError the parser raises: (ring names for parse_ideal, or
# None for parse_problem; text; message; line; column).
PARSE_ERRORS = [
    (None, "", "unexpected end of input", 1, 1),
    (None, "ring", "unexpected end of input", 1, 5),
    (None, "ring x;\nI = x^", "unexpected end of input", 2, 7),
    (None, "ring x, y;\nI = x\n", "expected ';'", 3, 1),
    (None, "I = x;\n", "expected 'ring', found 'I'", 1, 1),
    (None, "ring 1;\nI = x;\n", "expected a variable name, found '1'", 1, 6),
    (None, "ring x, x;\nI = x;\n", "duplicate variable name 'x'", 1, 9),
    (None, "ring x y;\nI = x;\n", "expected ';', found 'y'", 1, 8),
    (None, "ring x;\nI x;\n", "expected '=', found 'x'", 2, 3),
    (None, "ring x, y;\n1 = x;\n", "expected an ideal name, found '1'", 2, 1),
    (None, "ring x, y;\nI = 2*x;\n", "unexpected number '2' in monomial", 2, 5),
    (None, "ring x, y;\nI = x*w;\n", "unknown variable 'w'", 2, 7),
    (None, "ring x;\nI = x^-2;\n", "negative exponent", 2, 7),
    (None, "ring x;\nI = x^y;\n", "expected exponent, found 'y'", 2, 7),
    (None, "ring x;\nI = x^2147483648;\n",
     "exponent 2147483648 exceeds the 2^31 - 1 cap", 2, 7),
    (None, "ring x;\nI = x, ;\n", "expected a variable, found ';'", 2, 8),
    (None, "ring x;\nI = x$;\n", "unexpected character '$'", 2, 6),
    # characters are rejected before any syntax error earlier in the text
    (None, "ring x\nI = x;²", "unexpected character '²'", 2, 7),
    (None, "ring x;\n\tI = q;\n", "unknown variable 'q'", 2, 6),
    (None, "ring x;\r\nI = q;\r\n", "unknown variable 'q'", 2, 5),
    (None, "ring x, y;\n", "no ideal assignment found", 2, 1),
    (None, "ring x;\nA = x;\nB = x^2;\nC = x^3;\n",
     "at most two ideal assignments are allowed (I and J)", 4, 1),
    (("x", "y"), "x y", "trailing input 'y'", 1, 3),
    # too long for int() to convert: rejected by its length, leading zeros aside
    pytest.param(None, "ring x;\nI = x^" + "9" * 5000 + ";\n",
                 "exponent " + "9" * 5000 + " exceeds the 2^31 - 1 cap", 2, 7,
                 id="exponent-of-5000-digits"),
    (None, "ring x, y;\nI = y*x^2147483647*x;\n",
     "exponent sum 2147483648 of 'x' exceeds the 2^31 - 1 cap", 2, 20),
]


class TestParseErrors:
    @pytest.mark.parametrize("names, text, message, line, col", PARSE_ERRORS)
    def test_message_line_and_column(self, names, text, message, line, col):
        with pytest.raises(ParseError) as err:
            if names is None:
                parse_problem(text)
            else:
                parse_ideal(text, names)
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        assert str(err.value) == message
        assert (err.value.line, err.value.col) == (line, col)

    @given(helpers.near_valid_texts())
    def test_near_valid_texts_fail_cleanly(self, text):
        # a near-valid text parses, or fails with one of the library's
        # errors; a ParseError's position lies inside the text
        try:
            parse_problem(text).factor()
        except ParseError as err:
            lines = text.split("\n")
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.col <= len(lines[err.line - 1]) + 1
        except (DimensionError, FactorError):
            pass


class TestFormatting:
    def test_monomial(self):
        assert format_monomial((2, 1, 0), ("x", "y", "z")) == "x^2*y"
        assert format_monomial((0, 0), ("x", "y")) == "1"

    def test_ideal(self):
        assert format_ideal(ideal("x, y", "x^2, x*y"), ("x", "y")) == "(x^2, x*y)"
        assert format_ideal(MonomialIdeal(2), ("x", "y")) == "0"

    def test_factor_hides_zero_denominator(self):
        F = fac("x, y", "x")
        assert format_factor(F, ("x", "y")) == "(x)"
        assert format_factor(F, ("x", "y"), force_quotient=True) == "(x) / 0"

    def test_default_names(self):
        assert default_names(2) == ("x", "y")
        assert default_names(4) == ("x1", "x2", "x3", "x4")

    def test_problem_round_trip(self):
        text = "ring x, y;\nI = x^2, x*y;\nJ = x^3;\n"
        p = parse_problem(text)
        assert format_problem(p.names, p.factor().I, p.factor().J) == text

    @given(helpers.ideals())
    def test_print_parse_print_fixpoint(self, I):
        names = default_names(I.n)
        text = format_problem(names, I)
        again = parse_problem(text)
        assert again.factor().I == I
        assert format_problem(again.names, again.factor().I) == text

    @given(helpers.factors())
    def test_factor_round_trip(self, F):
        names = default_names(F.n)
        text = format_problem(names, F.I, F.J)
        assert parse_problem(text).factor() == F
