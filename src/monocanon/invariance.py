"""Cross-checking that depth and Stanley depth survive the transforms.

Canonicalization and shifting are supposed to leave both invariants alone;
this module takes depth and sdepth on the original, canonical, and shifted
forms, once per distinct pair of generator tuples, and compares.  Depth
comes from one Koszul scan per distinct rank coding, kept in a memo of
check_forms: the scan reads a form only through its own rank coding, which
all forms of one factor share, so one scan usually serves them all, while
each form's box cap is still checked.  Sdepth comes from one partition
search per distinct rank coding, in the same memo, which is one search per
distinct canonical form.  Every other form gets its sdepth from two checks
on that form itself: the canonical certificate, lifted to it, must verify,
and the next level must be refuted on its own element set, or by a search
of its own poset when that does not settle it.
Resource limits turn a comparison into SKIPPED (never PASS), and a
certificate that fails verification is itself a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .canonical import canonicalize, is_canonical, lift, shift_transform
from .ideals import MAX_EXPONENT, Factor
from .koszul import FieldChoice, Rationals, _coding_key, _rank_coding, depth
from .limits import DEFAULT_BOX_CAP, ResourceError, box_volume, check_deadline
from .sdepth import (DEFAULT_NODE_BUDGET, _element_set, char_poset,
                     exists_partition, root_refutation, sdepth,
                     verify_decomposition)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


class InvarianceViolation(RuntimeError):
    """An invariant disagreed across presentations that must give equal values."""


@dataclass
class CheckRecord:
    """Outcome of one factor's invariance check."""

    label: str
    status: str
    depth_values: dict = dataclass_field(default_factory=dict)
    sdepth_values: dict = dataclass_field(default_factory=dict)
    reason: str | None = None
    limit: ResourceError | None = None  # the limit that skipped the check

    def line(self) -> str:
        if self.status != PASS:
            return f"{self.status} {self.label}: {self.reason}"
        d = sorted(set(self.depth_values.values()))[0]
        s = sorted(set(self.sdepth_values.values()))[0]
        return f"{PASS} {self.label}: depth={d} sdepth={s} on {len(self.depth_values)} forms"


def build_forms(F: Factor, rng: random.Random) -> dict[str, Factor]:
    """The original, its canonical form, and one random shift transform,
    left out when it would raise an exponent past MAX_EXPONENT."""
    forms = {"input": F, "canonical": canonicalize(F)}
    v = rng.randrange(F.n)
    top = F.join_exponents()[v]
    k = rng.randint(1, top + 1)
    if k > top or top < MAX_EXPONENT:
        forms[f"shift(v={v},k={k})"] = shift_transform(F, v, k)
    return forms


def check_forms(label: str, forms: dict[str, Factor],
                field: FieldChoice = Rationals(), *,
                node_budget: int = DEFAULT_NODE_BUDGET,
                box_cap: int = DEFAULT_BOX_CAP,
                deadline: float | None = None) -> CheckRecord:
    """Compute depth and sdepth on every form, and compare.  A form whose
    generators equal an earlier form's copies that form's values.

    One memo, keyed by each form's own rank coding, holds the depth, the
    searched form, its sdepth and its certificate, so koszul.depth and the
    partition search run once per distinct coding.  A form whose coding is
    already there takes that depth after its own box cap and deadline
    checks.  The key is never the canonical form, so a canonical form that
    is wrong still shows up as a depth that differs.

    Two forms share a coding iff they share a canonical form.  The search
    runs on the form with that coding that is_canonical, or failing that
    canonicalize(G).  Its certificate at level s, lifted to each other form
    G (canonical.lift), must verify on G, so sdepth(G) >= s; a certificate
    that does not lift fails too.  Level s + 1 must then be refuted on G
    itself: s = n, or root_refutation on G's element set (built once for it
    and the verification), or failing both, exists_partition on G's own
    poset under the same limits.  If that search finds a partition,
    sdepth(G) is computed in full and differs from s.
    """
    dvals: dict[str, int] = {}
    svals: dict[str, int] = {}
    first: dict[tuple, str] = {}  # generators of I and J -> first form with them
    codes = {}  # rank coding of each form that is first with its generators
    for name, G in forms.items():
        if first.setdefault((G.I.gens, G.J.gens), name) == name:
            gens, _, fields, _ = _rank_coding(G)
            codes[name] = _coding_key(gens, fields)
    memo = {}  # rank coding -> depth, searched form, sdepth, certificate
    limits = {"box_cap": box_cap, "deadline": deadline}
    try:
        for name, G in forms.items():
            key = (G.I.gens, G.J.gens)
            if first[key] != name:
                dvals[name], svals[name] = dvals[first[key]], svals[first[key]]
                continue
            code = codes[name]
            if code in memo:
                box_volume(G.join_exponents(), box_cap, "Koszul box")
                check_deadline(deadline)
                dvals[name], C, value, cert = memo[code]
            else:
                dvals[name] = depth(G, field, **limits)
                canonical = [forms[m] for m, c in codes.items()
                             if c == code and is_canonical(forms[m])]
                C = canonical[0] if canonical else canonicalize(G)
                value, cert = sdepth(C, node_budget=node_budget, **limits)
                memo[code] = dvals[name], C, value, cert
            elements = None  # G's element set, when G is not the searched form
            if G is not C:
                try:
                    cert = lift(G, cert)
                except ValueError:  # the certificate leaves G's canonical box
                    cert = None
                else:
                    elements = _element_set(G, box_cap, deadline)
            if cert is None or not verify_decomposition(G, cert, value,
                                                        elements=elements, **limits):
                return CheckRecord(
                    label, FAIL, dvals, svals,
                    reason=f"sdepth certificate of form {name!r} failed verification",
                )
            if (elements is not None and value < G.n
                    and root_refutation(G, value + 1, elements=elements, **limits) is None
                    and exists_partition(char_poset(G, **limits), value + 1,
                                         node_budget, deadline) is not None):
                value = sdepth(G, node_budget=node_budget, **limits)[0]
            svals[name] = value
    except ResourceError as exc:
        return CheckRecord(label, SKIPPED, dvals, svals, reason=str(exc), limit=exc)
    record = CheckRecord(label, PASS, dvals, svals)
    if len(set(dvals.values())) != 1:
        record.status = FAIL
        record.reason = f"depth differs across forms: {dvals}"
    elif len(set(svals.values())) != 1:
        record.status = FAIL
        record.reason = f"sdepth differs across forms: {svals}"
    return record


def check_factor(label: str, F: Factor, rng: random.Random,
                 field: FieldChoice = Rationals(), **limits) -> CheckRecord:
    return check_forms(label, build_forms(F, rng), field, **limits)
