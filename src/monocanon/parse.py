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
printed ideal gives back the same ideal.

Reading is one scan: a regex search rejects any bad character first, one
``findall`` turns the text into plain token strings, and the parser indexes
that list directly, reading a token's kind from its first character.
Tokens carry no position; the line and column a ParseError reports are
worked out only when it is raised, by re-scanning the text up to the
failing token.  An exponent, or an exponent sum within one monomial, over
the 2^31 - 1 cap is a ParseError at the token that crosses it.
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


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[,;=^*-]")
_BAD = re.compile(r"[^\sA-Za-z0-9_,;=^*-]")


def _at(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _error(text: str, k: int, message: str) -> ParseError:
    """ParseError at token k of text, or at the end of the text past the
    last token; the offset is found by re-scanning the tokens up to k."""
    for idx, m in enumerate(_TOKEN.finditer(text)):
        if idx == k:
            return _at(text, m.start(), message)
    return _at(text, len(text), message)


def _tokens(text: str) -> list[str]:
    """The tokens of text followed by "" for its end; a bad character
    anywhere raises first."""
    bad = _BAD.search(text)
    if bad:
        raise _at(text, bad.start(), f"unexpected character {bad.group()!r}")
    toks = _TOKEN.findall(text)
    toks.append("")
    return toks


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _expect(text: str, toks: list, k: int, what: str) -> int:
    """The index after token k, which must be what."""
    tok = toks[k]
    if tok != what:
        raise _error(text, k, f"expected {what!r}, found {tok!r}" if tok
                     else f"expected {what!r}")
    return k + 1


def _exponent(text: str, toks: list, k: int) -> int:
    """The value of exponent token k, a digit string; one over 10 digits is
    over the cap unless only leading zeros make it long."""
    tok = toks[k]
    if not tok.isdigit():
        if not tok:
            raise _error(text, k, "unexpected end of input")
        if tok == "-":
            raise _error(text, k, "negative exponent")
        raise _error(text, k, f"expected exponent, found {tok!r}")
    digits = tok.lstrip("0") or "0"
    if len(digits) > 10:  # over the cap, and int() may refuse it
        raise _error(text, k, f"exponent {digits} exceeds the 2^31 - 1 cap")
    return int(digits)


def _factor_error(text: str, toks: list, k: int) -> ParseError:
    """Token k, which is neither a ring variable nor ``1``, where a monomial
    factor should start."""
    tok = toks[k]
    if not tok:
        return _error(text, k, "unexpected end of input")
    if tok.isdigit():
        return _error(text, k, f"unexpected number {tok!r} in monomial")
    if _is_name(tok):
        return _error(text, k, f"unknown variable {tok!r}")
    return _error(text, k, f"expected a variable, found {tok!r}")


def _over_cap(text: str, toks: list, i: int, e: int, total: int) -> ParseError:
    """The factor ending before token i took its variable's exponent e to
    total, over the cap: blame the exponent if it is over by itself, else
    the factor."""
    if e > MAX_EXPONENT:
        return _error(text, i - 1, f"exponent {e} exceeds the 2^31 - 1 cap")
    k = i - 3 if toks[i - 2] == "^" else i - 1
    return _error(text, k, f"exponent sum {total} of {toks[k]!r} exceeds the 2^31 - 1 cap")


def _parse_gens(text: str, toks: list, i: int, index_of: dict, n: int):
    """The generator list (or ``0``) from token i on, and the index after it.

    The loop indexes toks directly; the "" end token stops every lookahead.
    """
    if toks[i] == "0":
        return MonomialIdeal(n), i + 1
    gens = []
    while True:
        exps = [0] * n
        while True:
            tok = toks[i]
            j = index_of.get(tok)
            if j is None:
                if tok != "1":  # the unit factor contributes nothing
                    raise _factor_error(text, toks, i)
                i += 1
            else:
                if toks[i + 1] == "^":
                    e = _exponent(text, toks, i + 2)
                    i += 3
                else:
                    e = 1
                    i += 1
                total = exps[j] + e
                if total > MAX_EXPONENT:
                    raise _over_cap(text, toks, i, e, total)
                exps[j] = total
            if toks[i] != "*":
                break
            i += 1
        gens.append(exps)
        if toks[i] != ",":
            return MonomialIdeal(n, gens), i
        i += 1


def parse_ideal(text: str, names) -> MonomialIdeal:
    """Parse a comma-separated generator list (or ``0``) over the given variables."""
    names = tuple(names)
    toks = _tokens(text)
    ideal, i = _parse_gens(text, toks, 0, {name: j for j, name in enumerate(names)},
                           len(names))
    if toks[i]:
        raise _error(text, i, f"trailing input {toks[i]!r}")
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
    toks = _tokens(text)
    if toks[0] != "ring":
        raise _error(text, 0, f"expected 'ring', found {toks[0]!r}" if toks[0]
                     else "unexpected end of input")
    index_of = {}
    i = 1
    while True:
        tok = toks[i]
        if not _is_name(tok):
            raise _error(text, i, f"expected a variable name, found {tok!r}" if tok
                         else "unexpected end of input")
        if tok in index_of:
            raise _error(text, i, f"duplicate variable name {tok!r}")
        index_of[tok] = len(index_of)
        if toks[i + 1] != ",":
            break
        i += 2
    i = _expect(text, toks, i + 1, ";")
    names = tuple(index_of)
    assignments = []
    while toks[i]:
        name = toks[i]
        if not _is_name(name):
            raise _error(text, i, f"expected an ideal name, found {name!r}")
        if len(assignments) == 2:
            raise _error(text, i, "at most two ideal assignments are allowed (I and J)")
        ideal, i = _parse_gens(text, toks, _expect(text, toks, i + 1, "="),
                               index_of, len(names))
        i = _expect(text, toks, i, ";")
        assignments.append((name, ideal))
    if not assignments:
        raise _error(text, i, "no ideal assignment found")
    return ParsedProblem(names, tuple(assignments))


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
