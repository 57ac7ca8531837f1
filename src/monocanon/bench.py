"""Benchmark harness: raw input versus canonical form, wall-clock timed.

Every timing uses the monotonic clock.  When the raw side hits the timeout
its elapsed time is still recorded and the speedup becomes a lower bound;
when the canonical side hits it there is no speedup.  Any other resource
limit, such as a box over the cap, is raised rather than timed.  Depth is
over Q, and a timed sdepth run includes verify_decomposition of its
certificate.  A failed check, or raw and canonical values that differ when
both finished, is an error, not data.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass

from .canonical import canonicalize
from .ideals import Factor
from .invariance import InvarianceViolation
from .koszul import depth
from .limits import TimeLimitError, box_volume, deadline_from_timeout
from .parse import format_factor
from .sdepth import DEFAULT_NODE_BUDGET, sdepth, verify_decomposition


@dataclass
class SideTiming:
    value: int | None
    millis: float
    timed_out: bool


@dataclass
class MetricBench:
    raw: SideTiming
    canonical: SideTiming
    speedup: float | None
    speedup_is_lower_bound: bool


@dataclass
class BenchReport:
    label: str
    variables: list[str]
    raw_form: str
    canonical_form: str
    raw_box_volume: int
    canonical_box_volume: int
    box_ratio: float
    repeat: int
    timeout_seconds: float | None
    metrics: dict[str, MetricBench]

    def to_dict(self) -> dict:
        return asdict(self)


def _measure(fn, repeat: int, timeout: float | None) -> SideTiming:
    """Median wall time over `repeat` runs; a timed-out run ends the series."""
    times = []
    value = None
    for _ in range(repeat):
        deadline = deadline_from_timeout(timeout)
        start = time.monotonic()
        try:
            got = fn(deadline)
        except TimeLimitError:
            elapsed = (time.monotonic() - start) * 1000.0
            times.append(elapsed)
            return SideTiming(value=None, millis=statistics.median(times), timed_out=True)
        elapsed = (time.monotonic() - start) * 1000.0
        times.append(elapsed)
        if value is not None and got != value:
            raise InvarianceViolation(
                f"repeated runs disagreed: {value} then {got}"
            )
        value = got
    return SideTiming(value=value, millis=statistics.median(times), timed_out=False)


def _verified_sdepth(F: Factor, deadline: float | None = None,
                     node_budget: int = DEFAULT_NODE_BUDGET):
    """(sdepth, certificate) of F; a certificate that fails verification
    raises InvarianceViolation."""
    value, cert = sdepth(F, node_budget=node_budget, deadline=deadline)
    if not verify_decomposition(F, cert, value, deadline=deadline):
        raise InvarianceViolation(f"certificate for sdepth = {value} failed verification")
    return value, cert


def run_bench(F: Factor, names, *, label: str = "", repeat: int = 1,
              timeout: float | None = None) -> BenchReport:
    if repeat < 1:
        raise ValueError(f"repeat must be at least 1, got {repeat}")
    canonical = canonicalize(F)
    raw_volume = box_volume(F.join_exponents())
    canonical_volume = box_volume(canonical.join_exponents())

    metrics: dict[str, MetricBench] = {}
    plans = {"sdepth": lambda G, dl: _verified_sdepth(G, dl)[0],
             "depth": lambda G, dl: depth(G, deadline=dl)}
    for name, fn in plans.items():
        raw = _measure(lambda dl: fn(F, dl), repeat, timeout)
        canon = _measure(lambda dl: fn(canonical, dl), repeat, timeout)
        if (
            raw.value is not None
            and canon.value is not None
            and raw.value != canon.value
        ):
            raise InvarianceViolation(
                f"{name} differs between raw ({raw.value}) and canonical "
                f"({canon.value}) forms of {label or format_factor(F, names)}"
            )
        speedup = None
        if canon.millis > 0 and not canon.timed_out:
            speedup = raw.millis / canon.millis
        metrics[name] = MetricBench(
            raw=raw,
            canonical=canon,
            speedup=speedup,
            speedup_is_lower_bound=raw.timed_out,
        )
    return BenchReport(
        label=label,
        variables=list(names),
        raw_form=format_factor(F, names),
        canonical_form=format_factor(canonical, names),
        raw_box_volume=raw_volume,
        canonical_box_volume=canonical_volume,
        box_ratio=raw_volume / canonical_volume,
        repeat=repeat,
        timeout_seconds=timeout,
        metrics=metrics,
    )
