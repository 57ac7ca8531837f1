"""The monocanon benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload is a closed loop with one client: requests run serially, each
under its own deadline, and a pass is one run of the workload's request
list.  After the set-ups and one untimed warm-up pass, passes repeat for
about --seconds.  Every answer is checked; a wrong answer ends the run with
exit code 2 and no result line.

Every time is in reference seconds (see refclock.py): wall time with the
host's drifting speed divided out, sampled on the benchmark's own thread
while the work runs.  The host's raw figures are printed above the result.

--trace 0 reports the end-to-end metrics.  Latency percentiles are taken
within each pass, over its requests, and reported as medians over passes.
--trace 1 spends the first half of the run untraced and the second half
with spans around every layer (see spans.py) and reports the per-layer
metrics instead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from refclock import RefClock
from spans import Tracer, TraceSetupError, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Measured seconds per workload when --seconds is not given.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

DEFAULT_SEED = 1
# Kept out of every run made while writing a change; re-check claims on it.
HELD_OUT_SEED = 20141402

# Set-ups made before the first pass; setup_s is their median.
SETUP_REPEATS = 9
# Seeded check answers recomputed with tests/oracle.py after timing ends.
ORACLE_SAMPLE = 200

END_TO_END = {
    "wall_s": "s",
    "request_ms.p50": "ms",
    "request_ms.p90": "ms",
    "solved_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WrongAnswer(RuntimeError):
    """The library returned an answer the benchmark's checks reject."""


class LibraryMissing(RuntimeError):
    """The checkout has no importable monocanon under src/."""


# ------------------------------------------------------------------- set-up

def import_library():
    """Import monocanon afresh from this checkout's src/, never from elsewhere."""
    if not (SRC / "monocanon" / "__init__.py").is_file():
        raise LibraryMissing(f"no monocanon package under {SRC}")
    for name in [m for m in sys.modules if m == "monocanon" or m.startswith("monocanon.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("monocanon")
    if Path(lib.__file__).resolve().parent != SRC / "monocanon":
        raise LibraryMissing(f"monocanon was imported from {lib.__file__}, not {SRC}")
    return lib


def set_up(workload: str, seed: int, repeats: int):
    """Import plus input generation, `repeats` times; returns the
    (start, end) perf_counter readings of each."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        lib = import_library()
        requests = workloads.make(workload, seed)
        times.append((start, time.perf_counter()))
    return lib, requests, times


# ----------------------------------------------------------------- requests

def execute(lib, req: workloads.Request):
    """Run one request; returns its answer, or None when a limit was hit.

    The answer is an int, except for "check", where it is the pair of
    depth and sdepth the check agreed on.
    """
    limits = {"deadline": time.monotonic() + workloads.DEADLINE_S}
    if req.node_budget is not None:
        limits["node_budget"] = req.node_budget
    F = lib.parse_problem(req.text).factor()
    try:
        if req.op == "check":
            record = lib.check_factor(req.label, F, random.Random(req.check_seed), **limits)
            if record.status == lib.FAIL:
                raise WrongAnswer(f"{req.label}: {record.line()}")
            if record.status == lib.SKIPPED:
                return None
            return (record.depth_values["input"], record.sdepth_values["input"])
        target = F if req.op == "raw-depth" else lib.canonicalize(F)
        if req.op == "sdepth":
            value, cert = lib.sdepth(target, **limits)
            if not lib.verify_decomposition(target, cert, value):
                raise WrongAnswer(f"{req.label}: sdepth certificate failed verification")
            return value
        return lib.depth(target, lib.parse_field(req.field), deadline=limits["deadline"])
    except lib.ResourceError:
        return None


def check_pass(requests, answers) -> None:
    """Pinned values, and agreement between presentations and fields."""
    depths: dict[str, int] = {}
    for req, got in zip(requests, answers):
        if got is None:
            continue
        if req.expected is not None and got != req.expected:
            raise WrongAnswer(f"{req.label} {req.op}: got {got}, expected {req.expected}")
        if req.op in ("depth", "raw-depth"):
            # raw depth equals canonical depth; Q and GF(32003) agree on
            # these small complexes, which carry no 32003-torsion
            if depths.setdefault(req.label, got) != got:
                raise WrongAnswer(f"{req.label}: depth {got} disagrees with {depths[req.label]}")


def check_with_oracle(lib, requests, answers) -> None:
    """Recompute the sdepth of the first solved checks with the independent
    Algorithm X oracle in tests/oracle.py; the checker itself only compares
    the engine with itself across presentations."""
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "tests" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    solved = [(r, a) for r, a in zip(requests, answers) if r.op == "check" and a]
    for req, (_, got) in solved[:ORACLE_SAMPLE]:
        want = oracle.oracle_sdepth(lib.canonicalize(lib.parse_problem(req.text).factor()))
        if got != want:
            raise WrongAnswer(f"{req.label}: sdepth {got}, oracle says {want}")


def run_pass(lib, requests, tracer: Tracer | None):
    """One pass over the request list; returns the (start, end)
    perf_counter readings of the pass and of each request, and the answers."""
    requests_at, answers = [], []
    start = time.perf_counter()
    for rid, req in enumerate(requests):
        if tracer is not None:
            tracer.request = rid
        t0 = time.perf_counter()
        got = execute(lib, req)
        requests_at.append((t0, time.perf_counter()))
        answers.append(got)
    at = (start, time.perf_counter())
    check_pass(requests, answers)
    return at, requests_at, answers


# -------------------------------------------------------------------- runs

def _quantile(values, q: float) -> float:
    """Nearest-rank percentile of a sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _another_pass(passes, run_start: float, until: float) -> bool:
    """Start a pass unless it would end more than half a pass after `until`,
    so that a run measures about `until` seconds whatever the pass length."""
    if not passes:
        return True
    elapsed = time.perf_counter() - run_start
    return elapsed + statistics.median(b - a for a, b in passes) / 2 <= until


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spans_path: Path | None = None):
    """Run one workload for about `seconds`; times are in reference seconds
    (see refclock.py), measured while a RefClock samples the host's speed."""
    clock = RefClock()
    clock.start()
    try:
        lib, requests, setups = set_up(workload, seed, SETUP_REPEATS)
        run_start = time.perf_counter()
        # Warm-up, checked but not timed: the interpreter specialises the
        # library's code and its caches fill before the first timed pass.
        run_pass(lib, requests, None)
        passes, lats, attempted, solved = [], [], 0, 0
        untraced_until = seconds / 2 if trace else seconds
        while _another_pass(passes, run_start, untraced_until):
            at, requests_at, answers = run_pass(lib, requests, None)
            passes.append(at)
            lats.append(requests_at)
            attempted += len(answers)
            solved += sum(a is not None for a in answers)
        if trace:
            tracer = Tracer()
            tracer.install()
            traced = []
            try:
                while _another_pass(traced, run_start, seconds):
                    tracer.start_pass(len(traced))
                    at, _, answers = run_pass(lib, requests, tracer)
                    traced.append(at)
            finally:
                tracer.uninstall()
    finally:
        clock.stop()
    if workload == "check-batch":
        check_with_oracle(lib, requests, answers)

    walls = [clock.seconds(a, b) for a, b in passes]
    summary = {
        "workload": workload, "seed": seed, "requests": len(requests),
        "passes": len(passes),
        "unsolved": attempted - solved,
        "raw_wall_s": statistics.median(b - a for a, b in passes),
        "slowness": statistics.quantiles(clock.slowness, n=4),
        "clock_overhead": clock.overhead(),
    }
    if not trace:
        per_pass = [[clock.seconds(a, b) * 1000.0 for a, b in p] for p in lats]
        metrics = {
            "wall_s": statistics.median(walls),
            "request_ms.p50": statistics.median(statistics.median(p) for p in per_pass),
            "request_ms.p90": statistics.median(_quantile(p, 0.9) for p in per_pass),
            "solved_frac": solved / attempted,
            "setup_s": statistics.median(clock.seconds(a, b) for a, b in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return summary, attempted, {k: {"value": v, "unit": END_TO_END[k]}
                                    for k, v in metrics.items()}

    tracer.retime(clock.at)
    per_pass = [tracer.pass_metrics(i) for i in range(len(traced))]
    overhead = statistics.median(clock.seconds(a, b) for a, b in traced) / statistics.median(walls) - 1.0
    summary["traced_passes"] = len(traced)
    summary["absent"] = tracer.absent()
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        summary["spans"] = str(spans_path)
    return summary, attempted + len(traced) * len(requests), summarize(per_pass, overhead)


def report(summary, metrics) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    w = summary["workload"]
    print(f"[{w}] seed {summary['seed']}: {summary['requests']} requests per pass "
          f"(the sample behind each pass's percentiles), {summary['passes']} untraced "
          f"passes, {summary['unsolved']} requests unsolved (limit hit)")
    q1, med, q3 = summary["slowness"]
    print(f"[{w}] host: pass median {summary['raw_wall_s']:.6g} s of wall time; "
          f"slowness median {med:.3g} (quartiles {q1:.3g}, {q3:.3g}); "
          f"speed samples took {summary['clock_overhead']:.1%} of the run")
    if "traced_passes" in summary:
        print(f"[{w}] {summary['traced_passes']} traced passes, spans in "
              f"{summary.get('spans', 'memory only')}")
        for prefix, why in summary["absent"].items():
            print(f"[{w}] {prefix}* read 0 on this workload: {why}")
    for name, m in metrics.items():
        print(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help=f"measured time per workload (default {RUN_SECONDS}, "
                        "BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, metrics = 0, {}
    try:
        for name in names:
            spans_path = HERE / "out" / f"spans-{name}-seed{args.seed}.jsonl"
            summary, n, m = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), spans_path)
            report(summary, m)
            attempted += n
            if len(names) == 1:
                metrics = m
            else:
                metrics.update({f"{name}/{k}": v for k, v in m.items()})
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TraceSetupError as exc:
        print(f"error: cannot trace: {exc}", file=sys.stderr)
        return 4
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
