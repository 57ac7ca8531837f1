"""Cross-checking that depth and Stanley depth survive the transforms.

Canonicalization and shifting are supposed to leave both invariants alone;
this module computes them on the original, canonical, and shifted forms,
once per distinct pair of generator tuples, and compares.  Resource limits
turn a comparison into SKIPPED (never PASS), and a certificate that fails
verification is itself a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .canonical import canonicalize, shift_transform
from .ideals import MAX_EXPONENT, Factor
from .koszul import FieldChoice, Rationals, depth
from .limits import DEFAULT_BOX_CAP, ResourceError
from .sdepth import DEFAULT_NODE_BUDGET, sdepth, verify_decomposition

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
    """Compute depth and sdepth on every form and compare.  A form whose
    generators equal an earlier form's copies that form's values."""
    dvals: dict[str, int] = {}
    svals: dict[str, int] = {}
    seen: dict[tuple, str] = {}  # generators of I and J -> first form with them
    try:
        for name, G in forms.items():
            first = seen.setdefault((G.I.gens, G.J.gens), name)
            if first != name:
                dvals[name], svals[name] = dvals[first], svals[first]
                continue
            dvals[name] = depth(G, field, box_cap=box_cap, deadline=deadline)
            value, cert = sdepth(
                G, box_cap=box_cap, node_budget=node_budget, deadline=deadline
            )
            if not verify_decomposition(G, cert, value, box_cap=box_cap,
                                        deadline=deadline):
                return CheckRecord(
                    label, FAIL, dvals, svals,
                    reason=f"sdepth certificate of form {name!r} failed verification",
                )
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
