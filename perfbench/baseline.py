"""Run the benchmark over many seeds and summarize each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is one `run.py` process per workload and seed, seeds 1..10, made
one after another; each measures BENCHMARK.json's `run_seconds`.  For every
workload and end-to-end metric this prints and records the median, the
quartiles and the spread: the distance between the quartiles as a share of
the median, as `statistics.quantiles(values, n=4)` gives them.  The output also records the
CPU count, the Python version and the line count of `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(run.RUN_SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args(argv)
    result = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_lines(),
        "run_seconds": run.RUN_SECONDS,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        runs = [one_run(workload, s) for s in SEEDS]
        table = {name: dict(summarize([r[name]["value"] for r in runs]),
                            unit=runs[0][name]["unit"])
                 for name in runs[0]}
        result["workloads"][workload] = table
        for name, row in table.items():
            print(f"{workload:12s} {name:28s} median {row['median']:<12.6g}"
                  f" q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g}"
                  f" spread {row['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
