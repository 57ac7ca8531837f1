"""Cross-checking that depth and Stanley depth survive the transforms.

Canonicalization and shifting are supposed to leave both invariants alone;
this module computes depth on the original, canonical, and shifted forms,
once per distinct pair of generator tuples, and sdepth with one partition
search per distinct canonical form, and compares.  Every other form gets
its sdepth from two checks on that form itself: the canonical certificate,
lifted to it, must verify, and the next level must be refuted on its own
element set, or by a search of its own poset when that does not settle it.
Resource limits turn a comparison into SKIPPED (never PASS), and a
certificate that fails verification is itself a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .canonical import canonical_gens, canonicalize, lift, shift_transform
from .ideals import MAX_EXPONENT, Factor
from .koszul import FieldChoice, Rationals, depth
from .limits import DEFAULT_BOX_CAP, ResourceError
from .sdepth import (DEFAULT_NODE_BUDGET, char_poset, exists_partition,
                     root_refutation, sdepth, verify_decomposition)

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
    """Compute depth on every form and sdepth with one search per distinct
    canonical form, and compare.  A form whose generators equal an earlier
    form's copies that form's values.

    The search runs on the canonical form C of a form G, taken from forms
    when one has C's generators, and otherwise built by canonicalize.  Its
    certificate at level s, lifted to G (canonical.lift), must verify on G,
    so sdepth(G) >= s.  Unless G is C, level s + 1 must then be refuted on G
    itself: s = n, or root_refutation on G's element set, or failing both,
    exists_partition on G's own poset under the same limits.  If that search
    finds a partition, sdepth(G) is computed in full and differs from s.
    """
    dvals: dict[str, int] = {}
    svals: dict[str, int] = {}
    seen: dict[tuple, str] = {}  # generators of I and J -> first form with them
    searched: dict[tuple, tuple] = {}  # canonical generators -> sdepth, certificate
    limits = {"box_cap": box_cap, "deadline": deadline}
    try:
        for name, G in forms.items():
            key = (G.I.gens, G.J.gens)
            first = seen.setdefault(key, name)
            if first != name:
                dvals[name], svals[name] = dvals[first], svals[first]
                continue
            dvals[name] = depth(G, field, **limits)
            ckey = canonical_gens(G)
            if ckey not in searched:
                C = next((H for H in forms.values() if (H.I.gens, H.J.gens) == ckey),
                         None) or canonicalize(G)
                searched[ckey] = sdepth(C, node_budget=node_budget, **limits)
            value, cert = searched[ckey]
            if ckey != key:
                cert = lift(G, cert)
            if not verify_decomposition(G, cert, value, **limits):
                return CheckRecord(
                    label, FAIL, dvals, svals,
                    reason=f"sdepth certificate of form {name!r} failed verification",
                )
            if (ckey != key and value < G.n
                    and root_refutation(G, value + 1, **limits) is None
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
