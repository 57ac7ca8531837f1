"""Shared construction helpers and hypothesis strategies for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from monocanon import (Factor, FactorError, MonomialIdeal, default_names,
                       format_problem, parse_ideal, parse_problem,
                       shift_transform)


def names_of(ring: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in ring.split(","))


def ideal(ring: str, body: str) -> MonomialIdeal:
    return parse_ideal(body, names_of(ring))


def fac(ring: str, i: str, j: str | None = None) -> Factor:
    """Factor from compact strings: fac("x, y", "x^2, x*y", "x^3")."""
    text = f"ring {ring};\nI = {i};\n"
    if j is not None:
        text += f"J = {j};\n"
    return parse_problem(text).factor()


def gens_of(ring: str, body: str) -> tuple[tuple[int, ...], ...]:
    return ideal(ring, body).gens


@st.composite
def ideals(draw, nmax: int = 4, emax: int = 9, min_gens: int = 1):
    n = draw(st.integers(1, nmax))
    exp = st.integers(0, emax)
    gens = draw(st.lists(st.tuples(*[exp] * n), min_size=min_gens, max_size=5))
    return MonomialIdeal(n, gens)


@st.composite
def factors(draw, nmax: int = 3, emax: int = 5, nmin: int = 1):
    """Random factors; J is built from multiples of I's generators so that
    containment holds, and a draw landing on J = I falls back to J = 0."""
    n = draw(st.integers(nmin, nmax))
    exp = st.integers(0, emax)
    gi = draw(st.lists(st.tuples(*[exp] * n), min_size=1, max_size=4))
    I = MonomialIdeal(n, gi)
    bump = st.integers(0, 2)
    mults = draw(
        st.lists(
            st.tuples(st.integers(0, len(I.gens) - 1), st.tuples(*[bump] * n)),
            max_size=3,
        )
    )
    jg = [
        tuple(a + b for a, b in zip(I.gens[idx], extra)) for idx, extra in mults
    ]
    try:
        return Factor(I, MonomialIdeal(n, jg))
    except FactorError:
        return Factor(I)


@st.composite
def factors_and_shifts(draw):
    """A factor from factors(), mostly not canonical, or one random shift
    transform of it."""
    F = draw(factors())
    if draw(st.booleans()):
        v = draw(st.integers(0, F.n - 1))
        F = shift_transform(F, v, draw(st.integers(1, F.join_exponents()[v] + 1)))
    return F


@st.composite
def near_valid_texts(draw):
    """format_problem output for a random factor with one character
    inserted, deleted or replaced; the characters are the grammar's own,
    blanks, and one that no token allows."""
    F = draw(factors())
    text = format_problem(default_names(F.n), F.I, None if F.J.is_zero() else F.J)
    k = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from("xyzw0129_^*,;=- \n$"))
    edit = draw(st.sampled_from(("insert", "delete", "replace")))
    if edit == "insert":
        return text[:k] + c + text[k:]
    if edit == "delete":
        return text[:k] + text[k + 1:]
    return text[:k] + c + text[k + 1:]
