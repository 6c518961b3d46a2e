"""``repro-bench`` — run the perf suite, track the trajectory, gate CI.

Usage::

    repro-bench run                         # smoke suite, print report
    repro-bench run --scale quick --append  # append to BENCH_simulator.json
    repro-bench run --only macro            # one family
    repro-bench compare benchmarks/baselines/BENCH_baseline.json \
        --current BENCH_simulator.json --threshold 0.25

Also reachable as ``python -m repro.bench``.  See
``docs/performance.md`` for methodology and schema.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import BenchReport, append_trajectory, run_suite
from .macro import MACRO_BENCHMARKS
from .micro import MICRO_BENCHMARKS
from .regression import compare_reports, load_report

__all__ = ["main", "build_parser"]

#: default trajectory file at the repository root
DEFAULT_TRAJECTORY = "BENCH_simulator.json"


def _select(only: str | None):
    if only == "micro":
        return MICRO_BENCHMARKS
    if only == "macro":
        return MACRO_BENCHMARKS
    return MICRO_BENCHMARKS + MACRO_BENCHMARKS


def _cmd_run(args: argparse.Namespace) -> int:
    echo = (lambda line: print(line, file=sys.stderr)) if args.verbose \
        else None
    report = run_suite(_select(args.only), args.scale, label=args.label,
                       echo=echo)
    print(report.format())
    if args.append:
        entries = append_trajectory(args.out, report)
        print(f"appended entry #{len(entries)} to {args.out}")
    elif args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([report.to_dict()], fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = load_report(args.baseline)
    current = load_report(args.current)
    report = compare_reports(baseline, current, threshold=args.threshold,
                             hit_rate_drop=args.hit_rate_drop,
                             speedup_floor=args.speedup_floor)
    print(report.format())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Simulator performance benchmarks and regression gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmark suite")
    run.add_argument("--scale", choices=("smoke", "quick", "full"),
                     default="smoke",
                     help="workload size (smoke = CI gate, seconds)")
    run.add_argument("--only", choices=("micro", "macro"), default=None,
                     help="run one benchmark family")
    run.add_argument("--out", metavar="PATH", default=None,
                     help="write the report as JSON to PATH")
    run.add_argument("--append", action="store_true",
                     help=f"append to the trajectory file "
                          f"(default {DEFAULT_TRAJECTORY})")
    run.add_argument("--label", default="",
                     help="free-form label recorded in the report")
    run.add_argument("--verbose", action="store_true",
                     help="progress lines on stderr")
    run.set_defaults(fn=_cmd_run)

    compare = sub.add_parser(
        "compare", help="gate a report against a baseline")
    compare.add_argument("baseline",
                         help="baseline report JSON (report or trajectory)")
    compare.add_argument("--current", default=DEFAULT_TRAJECTORY,
                         help="current report (newest trajectory entry)")
    compare.add_argument("--threshold", type=float, default=0.25,
                         help="fail when work per wall second (simulated "
                              "seconds, launches or events) drops more than "
                              "this fraction below baseline (default 0.25)")
    compare.add_argument("--hit-rate-drop", type=float, default=0.10,
                         help="fail when a benchmark's transform-cache "
                              "hit rate drops more than this many points "
                              "below baseline (default 0.10)")
    compare.add_argument("--speedup-floor", type=float, default=4.0,
                         help="fail when a speedup-gated benchmark "
                              "(macro.cluster_1k on a host with enough "
                              "cores) reports less than this parallel-"
                              "over-serial speedup (default 4.0)")
    compare.set_defaults(fn=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run" and args.append and not args.out:
        args.out = DEFAULT_TRAJECTORY
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
