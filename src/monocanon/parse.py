"""Reader and printer for the ideal file format.

::

    ring x, y, z;
    I = x^2*y, x*z^2;
    J = 0;

One ``ring`` line, then one or two ideal assignments: the first names the
numerator, the optional second the denominator.  On the right-hand side
``0`` denotes the zero ideal and ``1`` the unit monomial; monomials are
``*``-separated variable powers.  Whitespace and line breaks are free.
Printing is deterministic (generators in deglex order) and parsing a
printed ideal gives back the same ideal.  Tokens carry only their offset in
the text; the line and column a ParseError reports are worked out from it
when the error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ideals import MAX_EXPONENT, Factor, Monomial, MonomialIdeal


class ParseError(ValueError):
    """Syntax or validation error in an ideal file, with source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


_TOKEN = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>[0-9]+)"
                    r"|(?P<punct>[,;=^*-])|(?P<bad>\S)")


class _Stream:
    """The tokens of text as (text, kind, offset), kind a group of _TOKEN."""

    def __init__(self, text):
        self.text = text
        self.toks = [(m.group(), m.lastgroup, m.start()) for m in _TOKEN.finditer(text)]
        self.i = 0
        for tok, kind, offset in self.toks:
            if kind == "bad":
                raise self.error(f"unexpected character {tok!r}", offset)

    def error(self, message, offset=None) -> ParseError:
        """ParseError at offset, by default the end of the text."""
        if offset is None:
            offset = len(self.text)
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self, expect=None):
        if self.i >= len(self.toks):
            raise self.error(f"expected {expect!r}" if expect else "unexpected end of input")
        tok = self.toks[self.i]
        self.i += 1
        if expect is not None and tok[0] != expect:
            raise self.error(f"expected {expect!r}, found {tok[0]!r}", tok[2])
        return tok


def _parse_monomial(st: _Stream, index_of: dict, n: int) -> Monomial:
    exps = [0] * n
    while True:
        tok, kind, offset = st.next(None)
        if tok == "1":
            pass  # unit factor, contributes nothing
        elif kind == "num":
            raise st.error(f"unexpected number {tok!r} in monomial", offset)
        elif kind == "name":
            if tok not in index_of:
                raise st.error(f"unknown variable {tok!r}", offset)
            e = 1
            if st.peek() == "^":
                st.next("^")
                etok, ekind, eoffset = st.next(None)
                if etok == "-":
                    raise st.error("negative exponent", eoffset)
                if ekind != "num":
                    raise st.error(f"expected exponent, found {etok!r}", eoffset)
                e = int(etok)
                if e > MAX_EXPONENT:
                    raise st.error(f"exponent {e} exceeds the 2^31 - 1 cap", eoffset)
            exps[index_of[tok]] += e
        else:
            raise st.error(f"expected a variable, found {tok!r}", offset)
        if st.peek() == "*":
            st.next("*")
            continue
        break
    return tuple(exps)


def _parse_gens(st: _Stream, index_of: dict, n: int) -> MonomialIdeal:
    if st.peek() == "0":
        st.next("0")
        return MonomialIdeal(n)
    gens = [_parse_monomial(st, index_of, n)]
    while st.peek() == ",":
        st.next(",")
        gens.append(_parse_monomial(st, index_of, n))
    return MonomialIdeal(n, gens)


def parse_ideal(text: str, names) -> MonomialIdeal:
    """Parse a comma-separated generator list (or ``0``) over the given variables."""
    names = tuple(names)
    index_of = {name: j for j, name in enumerate(names)}
    st = _Stream(text)
    ideal = _parse_gens(st, index_of, len(names))
    if st.peek() is not None:
        tok, _, offset = st.next(None)
        raise st.error(f"trailing input {tok!r}", offset)
    return ideal


@dataclass(frozen=True)
class ParsedProblem:
    """A ring declaration plus one or two named ideal assignments."""

    names: tuple[str, ...]
    assignments: tuple[tuple[str, MonomialIdeal], ...]

    def factor(self) -> Factor:
        I = self.assignments[0][1]
        J = self.assignments[1][1] if len(self.assignments) > 1 else None
        return Factor(I, J)

    @property
    def has_denominator(self) -> bool:
        return len(self.assignments) > 1


def parse_problem(text: str) -> ParsedProblem:
    """Parse a full ideal file: ring line, then assignments for I and optionally J."""
    st = _Stream(text)
    kw, _, offset = st.next(None)
    if kw != "ring":
        raise st.error(f"expected 'ring', found {kw!r}", offset)
    names = []
    while True:
        tok, kind, offset = st.next(None)
        if kind != "name":
            raise st.error(f"expected a variable name, found {tok!r}", offset)
        if tok in names:
            raise st.error(f"duplicate variable name {tok!r}", offset)
        names.append(tok)
        if st.peek() == ",":
            st.next(",")
            continue
        break
    st.next(";")
    index_of = {name: j for j, name in enumerate(names)}
    assignments = []
    while st.peek() is not None:
        name, kind, offset = st.next(None)
        if kind != "name":
            raise st.error(f"expected an ideal name, found {name!r}", offset)
        st.next("=")
        ideal = _parse_gens(st, index_of, len(names))
        st.next(";")
        assignments.append((name, ideal))
    if not assignments:
        raise st.error("no ideal assignment found")
    if len(assignments) > 2:
        raise ParseError("at most two ideal assignments are allowed (I and J)")
    return ParsedProblem(tuple(names), tuple(assignments))


def format_monomial(m: Monomial, names) -> str:
    """x^(2,1,0) -> 'x^2*y'; the unit monomial prints as '1'."""
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_ideal_body(I: MonomialIdeal, names) -> str:
    """Generator list as it appears on an assignment's right-hand side."""
    if I.is_zero():
        return "0"
    return ", ".join(format_monomial(m, names) for m in I.gens)


def format_ideal(I: MonomialIdeal, names) -> str:
    if I.is_zero():
        return "0"
    return f"({format_ideal_body(I, names)})"


def format_factor(F: Factor, names, force_quotient=False) -> str:
    if F.J.is_zero() and not force_quotient:
        return format_ideal(F.I, names)
    return f"{format_ideal(F.I, names)} / {format_ideal(F.J, names)}"


def format_problem(names, I: MonomialIdeal, J: MonomialIdeal | None = None) -> str:
    """Serialize back to the file grammar; parse_problem inverts this."""
    lines = [f"ring {', '.join(names)};", f"I = {format_ideal_body(I, names)};"]
    if J is not None:
        lines.append(f"J = {format_ideal_body(J, names)};")
    return "\n".join(lines) + "\n"


def default_names(n: int) -> tuple[str, ...]:
    """x, y, z for up to three variables, else x1..xn."""
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))
