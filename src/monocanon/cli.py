"""Command-line front end.

Exit codes: 0 success, 1 usage or parse errors, 2 invariance violations,
3 resource exhaustion.  --json switches any command to a single JSON object
on stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .bench import _verified_sdepth, run_bench
from .canonical import canonicalize, type_wrt
from .invariance import FAIL, SKIPPED, InvarianceViolation, check_factor
from .koszul import depth, parse_field
from .limits import (ResourceError, SearchBudgetError, check_deadline,
                     deadline_from_timeout)
from .parse import format_factor, format_monomial, parse_problem
from .sdepth import DEFAULT_NODE_BUDGET, decomposition_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_RESOURCE = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for violations
        raise UsageError(message)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _type_table(F, names):
    return {name: list(type_wrt(F, v)) for v, name in enumerate(names)}


def cmd_canon(args) -> int:
    problem = _load(args.file)
    F = problem.factor()
    names = problem.names
    canonical = canonicalize(F)
    types = _type_table(F, names)
    force = problem.has_denominator
    lines = [format_factor(canonical, names, force_quotient=force)]
    lines += [f"type {name}: {tuple(ks)}" for name, ks in types.items()]
    _emit(
        {
            "command": "canon",
            "ring": list(names),
            "input": format_factor(F, names, force_quotient=force),
            "canonical": format_factor(canonical, names, force_quotient=force),
            "canonical_gens": {
                "I": [format_monomial(m, names) for m in canonical.I.gens],
                "J": [format_monomial(m, names) for m in canonical.J.gens],
            },
            "types": types,
        },
        args.json,
        lines,
    )
    return EXIT_OK


def cmd_type(args) -> int:
    problem = _load(args.file)
    F = problem.factor()
    names = problem.names
    types = _type_table(F, names)
    _emit(
        {"command": "type", "ring": list(names), "types": types},
        args.json,
        [f"type {name}: {tuple(ks)}" for name, ks in types.items()],
    )
    return EXIT_OK


def cmd_depth(args) -> int:
    deadline = deadline_from_timeout(args.timeout)
    problem = _load(args.file)
    F = problem.factor()
    names = problem.names
    field = parse_field(args.field)
    target = F if args.no_canon else canonicalize(F)
    trace = None
    if args.trace:
        trace = lambda a, count, dims: print(
            json.dumps({"multidegree": list(a), "present": count, "h": list(dims)}),
            file=sys.stderr,
        )
    value = depth(target, field, deadline=deadline, trace=trace)
    payload = {
        "command": "depth",
        "value": value,
        "field": str(field),
        "canonicalized": not args.no_canon,
        "computed_on": format_factor(target, names, force_quotient=True),
    }
    _emit(payload, args.json, [f"depth = {value}"])
    return EXIT_OK


def _node_budget(args) -> int:
    if args.node_budget is None:
        return DEFAULT_NODE_BUDGET
    if args.node_budget < 1:
        raise UsageError(f"node budget must be a positive integer, got {args.node_budget}")
    return args.node_budget


def cmd_sdepth(args) -> int:
    deadline = deadline_from_timeout(args.timeout)
    budget = _node_budget(args)
    problem = _load(args.file)
    F = problem.factor()
    names = problem.names
    target = F if args.no_canon else canonicalize(F)
    value, cert = _verified_sdepth(target, deadline, budget)
    g = target.join_exponents()
    lines = [f"sdepth = {value}"]
    if not args.no_canon:
        lines.append(f"computed on canonical form {format_factor(target, names, force_quotient=True)}")
    lines += ["decomposition:"] + [
        "  " + s for s in decomposition_lines(cert, g, names)
    ]
    _emit(
        {
            "command": "sdepth",
            "value": value,
            "canonicalized": not args.no_canon,
            "computed_on": format_factor(target, names, force_quotient=True),
            "intervals": cert.as_lists(),
            "stanley_spaces": decomposition_lines(cert, g, names),
        },
        args.json,
        lines,
    )
    return EXIT_OK


def cmd_check(args) -> int:
    if (args.file is None) == (args.random is None):
        raise UsageError("check needs a file or --random N GMAX COUNT SEED")
    deadline = deadline_from_timeout(args.timeout)
    budget = _node_budget(args)
    rng: random.Random
    jobs = []
    if args.file is not None:
        problem = _load(args.file)
        jobs.append((args.file, problem.factor()))
        rng = random.Random(0)
    else:
        n, gmax, count, seed = args.random
        if n < 1 or gmax < 0 or count < 1:
            raise UsageError("--random needs N >= 1, GMAX >= 0, COUNT >= 1")
        rng = random.Random(seed)
        from .randomgen import random_factor

        for i in range(count):
            check_deadline(deadline)
            jobs.append((f"random[{i}]", random_factor(rng, n, gmax)))
    records = []
    for label, F in jobs:
        # a check cut off by the deadline, or by a search over --node-budget,
        # is SKIPPED; the command stops there
        record = check_factor(label, F, rng, deadline=deadline, node_budget=budget)
        records.append(record)
        check_deadline(deadline)
        if args.node_budget is not None and isinstance(record.limit, SearchBudgetError):
            raise record.limit
    payload = {
        "command": "check",
        "results": [
            {
                "label": r.label,
                "status": r.status,
                "depth": r.depth_values,
                "sdepth": r.sdepth_values,
                "reason": r.reason,
            }
            for r in records
        ],
    }
    _emit(payload, args.json, [r.line() for r in records])
    if any(r.status == FAIL for r in records):
        return EXIT_VIOLATION
    if not args.json and any(r.status == SKIPPED for r in records):
        print("note: skipped checks are not passes", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    problem = _load(args.file)
    F = problem.factor()
    names = problem.names
    report = run_bench(
        F,
        names,
        label=args.file,
        repeat=args.repeat,
        timeout=args.timeout,
    )
    lines = [
        f"raw form:        {report.raw_form}",
        f"canonical form:  {report.canonical_form}",
        f"box volumes:     raw={report.raw_box_volume} canonical={report.canonical_box_volume}"
        f" ratio={report.box_ratio:.1f}",
    ]
    for name, m in report.metrics.items():
        raw_val = "timeout" if m.raw.timed_out else m.raw.value
        canon_val = "timeout" if m.canonical.timed_out else m.canonical.value
        bound = ">=" if m.speedup_is_lower_bound else "="
        speedup = f"{bound} {m.speedup:.1f}x" if m.speedup is not None else "n/a"
        lines.append(
            f"{name}: raw={raw_val} ({m.raw.millis:.1f} ms)"
            f" canonical={canon_val} ({m.canonical.millis:.1f} ms)"
            f" speedup {speedup}"
        )
    _emit({"command": "bench", **report.to_dict()}, args.json, lines)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="monocanon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, timeout_help=None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        if timeout_help:
            p.add_argument("--timeout", type=float, default=None, help=timeout_help)
        return p

    whole = "wall-clock seconds for the whole command (exit 3 when exceeded)"

    p = add("canon", cmd_canon, "canonical form plus per-variable types")
    p.add_argument("file")
    p = add("type", cmd_type, "per-variable types of the factor")
    p.add_argument("file")
    p = add("depth", cmd_depth, "exact depth via Koszul homology", whole)
    p.add_argument("file")
    p.add_argument("--no-canon", action="store_true", help="skip canonicalization")
    p.add_argument("--field", default="q", help="q (rationals) or p<prime>")
    p.add_argument("--trace", action="store_true",
                   help="one JSON record on stderr per scanned lcm-lattice slice")
    budget = ("partition search nodes per engine per level d; exit 3 when both "
              f"engines exceed it (default {DEFAULT_NODE_BUDGET})")

    p = add("sdepth", cmd_sdepth, "exact Stanley depth with certificate", whole)
    p.add_argument("file")
    p.add_argument("--no-canon", action="store_true", help="skip canonicalization")
    p.add_argument("--node-budget", type=int, metavar="N", help=budget)
    p = add("check", cmd_check, "depth/sdepth invariance under the transforms", whole)
    p.add_argument("file", nargs="?")
    p.add_argument("--random", nargs=4, type=int, metavar=("N", "GMAX", "COUNT", "SEED"))
    p.add_argument("--node-budget", type=int, metavar="N", help=budget)
    p = add("bench", cmd_bench, "raw versus canonical timings", "seconds per run")
    p.add_argument("file")
    p.add_argument("--repeat", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # UsageError and ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvarianceViolation as exc:
        print(f"invariance violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
