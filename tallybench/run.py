"""Outside-in benchmark of the Tally simulator.

Commands (run from the repository root)::

    python3 tallybench/run.py run [--seed S] [--repeat R] [--out FILE]
    python3 tallybench/run.py trace [--seed S] [--out FILE]
    python3 tallybench/run.py compare A.json B.json

and the single-workload form, which prints one JSON line::

    python3 tallybench/run.py --workload W --seed S --seconds T --trace 0|1

Every repetition of every workload runs in a fresh ``child.py`` process
with an empty working directory and ``TMPDIR``, ``PYTHONHASHSEED=0``
and ``OMP_NUM_THREADS=1``, one child at a time.  Between children this
process times ``reference.py``, and each repetition's wall time is
reported over it as ``wall_ratio``.  See ``README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from child import PACKAGE, ROOT, WORKLOADS
from compare import compare, format_rows
from metrics import END_TO_END, bounds, metric, summarise
from reference import reference

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
TMP_ROOT = os.path.join(ROOT, ".tallybench-tmp")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

CHILD_TIMEOUT = 300.0
#: a single-workload run starts no child after this many seconds
SINGLE_RUN_BUDGET = 150.0
#: child-seed distance between the input draws of a single-workload run
DRAW_STRIDE = 1000

_HOST = ("wall_ratio", "wall_s", "reference_s", "setup_s", "peak_rss_mb")
_CLUSTER = ("cluster_failover", "cluster_sharded")


# ---------------------------------------------------------------------------
# children

def draw_seed(seed: int, draw: int) -> int:
    """Child seed of the ``draw``-th input draw of a run with ``seed``;
    draw 0 is ``seed`` itself."""
    return seed + DRAW_STRIDE * draw


def run_child(workload: str, seed: int, *, traced: bool = False,
              timeout: float = CHILD_TIMEOUT) -> dict:
    """Run one repetition in a fresh process and return its record.

    A child that raises, exits non-zero or outlives ``timeout`` yields
    a record with ``ok`` false; its whole process group is killed.
    """
    os.makedirs(TMP_ROOT, exist_ok=True)
    cwd = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               TMPDIR=cwd, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, CHILD, workload, str(seed),
           "--spawned-at", repr(time.time())]
    cmd += ["--trace"] * traced
    failure = {"workload": workload, "seed": seed, "traced": traced,
               "ok": False}
    try:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return dict(failure, error=f"timed out after {timeout:.0f} s")
        finally:
            try:  # stray workers of a crashed child
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        path = os.path.join(cwd, "result.json")
        if proc.returncode != 0 or not os.path.exists(path):
            return dict(failure, error=f"exit {proc.returncode}: "
                        + err.decode(errors="replace")[-2000:])
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _describe(record: dict) -> str:
    if not record["ok"]:
        return "FAILED: " + record["error"].strip().splitlines()[-1]
    ratio = (f" = {record['wall_ratio']:.3f} x reference"
             if "wall_ratio" in record else "")
    return (f"wall {record['wall_s']:.3f} s{ratio}, setup "
            f"{record['setup_s']:.3f} s, {record['sim']['sim.events']} events")


class Runner:
    """Runs children one at a time, timing :func:`reference` between
    them.

    An untraced record that succeeded gets ``reference_s``, the mean of
    the reference times just before and just after the child, and
    ``wall_ratio``, its ``wall_s`` over ``reference_s``.  A reference
    time serves as the "after" of one child and the "before" of the
    next, unless a traced child ran in between.
    """

    def __init__(self) -> None:
        self._last: float | None = None

    def child(self, workload: str, seed: int, *, traced: bool = False,
              timeout: float = CHILD_TIMEOUT) -> dict:
        if traced:
            self._last = None
            record = run_child(workload, seed, traced=True, timeout=timeout)
        else:
            before = reference() if self._last is None else self._last
            record = run_child(workload, seed, timeout=timeout)
            self._last = reference()
            if record["ok"]:
                record["reference_s"] = (before + self._last) / 2
                record["wall_ratio"] = record["wall_s"] / record["reference_s"]
        _log(f"  {workload}{' [traced]' * traced}: {_describe(record)}")
        return record


# ---------------------------------------------------------------------------
# output checks

def check(by_workload: dict[str, list[dict]]) -> None:
    """Record in each record's ``failures`` why it fails, if it does.

    A repetition fails when it raised or timed out, when its simulated
    metrics or result digest differ from the first repetition of the
    same workload and seed, or when a cluster workload records no
    migration.  Across workloads of one seed, the serial and parallel
    cluster engines must give the same result, and Tally must isolate
    the HP job better than TGS.
    """
    first: dict[tuple[str, int], dict] = {}
    for workload, records in by_workload.items():
        for record in records:
            failures = record.setdefault("failures", [])
            if not record["ok"]:
                failures.append(record["error"].strip().splitlines()[-1])
                continue
            ref = first.setdefault((workload, record["seed"]), record)
            if (record["sim"], record["digest"]) != (ref["sim"],
                                                     ref["digest"]):
                failures.append("simulated results differ between "
                                "repetitions of one seed")
            if workload in _CLUSTER and record["sim"]["cluster.migrations"] < 1:
                failures.append("no migration recorded")

    def fail_all(workload: str, seed: int, why: str) -> None:
        for record in by_workload[workload]:
            if record["seed"] == seed:
                record["failures"].append(why)

    for (workload, seed), ref in first.items():
        if workload == "cluster_sharded":
            serial = first.get(("cluster_failover", seed))
            if serial is not None and serial["digest"] != ref["digest"]:
                fail_all(workload, seed, "parallel engine result differs "
                         "from the serial engine's")
        if workload == "fig4_tally" and ("fig4_tgs", seed) in first:
            tally = ref["sim"]["hp_p99_overhead"]
            tgs = first[("fig4_tgs", seed)]["sim"]["hp_p99_overhead"]
            if not tally < tgs:
                fail_all(workload, seed, f"Tally HP p99 overhead "
                         f"{tally:.4g} is not below TGS's {tgs:.4g}")


# ---------------------------------------------------------------------------
# summaries

def summarise_workload(records: list[dict]) -> dict[str, dict]:
    """Every metric of one workload, as a summary over its records."""
    values: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        values.setdefault(name, []).append(value)

    traced_walls = []
    for record in records:
        if not record["ok"]:
            continue
        if record["traced"]:
            traced_walls.append(record["wall_s"])
            for name, value in record["profile"].items():
                add(name, value)
            continue
        for name in _HOST:
            if name in record:
                add(name, record[name])
        for name, value in {**record["sim"], **record["phases"]}.items():
            add(name, value)
        add("gpu.engine.events_per_s",
            record["sim"]["sim.events"] / record["phases"]["phase.colocate_s"])
    if records:
        add("failed_runs",
            sum(1 for r in records if r["failures"]) / len(records))
    summary = {name: summarise(vals) for name, vals in values.items()}
    if traced_walls and "wall_s" in summary:
        summary["trace.overhead"] = summarise(
            [statistics.median(traced_walls) / summary["wall_s"]["median"]])
    for name, item in summary.items():
        m = metric(name)
        item.update(unit=m.unit, kind=m.kind)
    return summary


def summarise_all(by_workload: dict[str, list[dict]]) -> dict[str, dict]:
    summaries = {w: summarise_workload(r) for w, r in by_workload.items()}
    walls = [summaries.get(w, {}).get("wall_ratio") for w in _CLUSTER]
    if all(walls):
        speedup = summarise([walls[0]["median"] / walls[1]["median"]])
        speedup.update(unit="x", kind="layer")
        summaries["cluster_sharded"]["engine.speedup"] = speedup
    return summaries


def platform_info() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_rev = "unknown"
    return {"git_rev": git_rev, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system()}


def format_summaries(summaries: dict[str, dict]) -> str:
    order = {m.name: i for i, m in enumerate(END_TO_END)}
    kinds = {"host": 0, "simulated": 1, "layer": 2}
    lines = []
    for workload, metrics in summaries.items():
        lines.append(f"== {workload}")
        for name in sorted(metrics, key=lambda n: (
                kinds[metrics[n]["kind"]], order.get(n, len(order)), n)):
            s = metrics[name]
            lines.append(f"  {name:<28} {s['median']:>14.6g} {s['unit']:<8}"
                         f" [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"
                         f"  {s['kind']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands

def _suite(command: str, seed: int, repeat: int, out: str | None) -> int:
    by_workload: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    started = time.time()
    runner = Runner()
    for round_ in range(repeat):
        _log(f"[{command}] round {round_ + 1}/{repeat}, seed {seed}")
        for workload in WORKLOADS:
            by_workload[workload].append(runner.child(workload, seed))
            if command == "trace":
                by_workload[workload].append(
                    runner.child(workload, seed, traced=True))
    check(by_workload)
    summaries = summarise_all(by_workload)
    print(format_summaries(summaries))
    result = {"schema": "tallybench/1", "command": command, "seed": seed,
              "repeat": repeat, "elapsed_s": time.time() - started,
              "platform": platform_info(),
              "failures": {w: [f for r in rs for f in r["failures"]]
                           for w, rs in by_workload.items()},
              "workloads": summaries}
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        _log(f"[{command}] wrote {out}")
    failed = any(result["failures"].values())
    if failed:
        _log(f"[{command}] FAILED checks: {result['failures']}")
    return 1 if failed else 0


def _compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    rows = compare(a, b, bounds(BENCHMARK_JSON))
    print(format_rows(rows))
    return 1 if any(r.verdict == "worse" for r in rows) else 0


def _single(workload: str, seed: int, seconds: float, traced: bool) -> int:
    """One workload for ``seconds``; the last stdout line is the result.

    Iteration ``i`` runs input draw ``max(0, i - 1)`` of ``seed``: the
    second iteration repeats the first one's inputs, so the output
    checks see the workload reproduce itself, and every later one draws
    new traffic.  Every metric is the median over repetitions.
    """
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [m["name"] for m in
             declared["per_layer" if traced else "end_to_end"]]
    deadline = time.time() + SINGLE_RUN_BUDGET
    runner = Runner()
    records = []
    start = time.perf_counter()
    longest = 0.0
    for index in itertools.count():
        child_seed = draw_seed(seed, max(0, index - 1))
        began = time.perf_counter()
        for with_trace in ((False, True) if traced else (False,)):
            records.append(runner.child(workload, child_seed,
                                        traced=with_trace,
                                        timeout=deadline - time.time()))
        longest = max(longest, time.perf_counter() - began)
        if index >= 1 and (time.perf_counter() - start >= seconds
                           or time.time() + longest > deadline):
            break
    check({workload: records})
    summary = summarise_workload(records)
    missing = [n for n in names if n not in summary]
    if missing:
        _log(f"no successful repetition measured {missing}")
        return 1
    failed = sum(1 for r in records if r["failures"])
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {n: {"value": summary[n]["median"],
                        "unit": summary[n]["unit"]} for n in names},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] != ["compare"] and not os.path.exists(
            os.path.join(PACKAGE, "__init__.py")):
        _log(f"no repro package at {PACKAGE}; run from a repository "
             "checkout")
        return 2
    if argv and argv[0] in ("run", "trace", "compare"):
        parser = argparse.ArgumentParser(prog="run.py")
        sub = parser.add_subparsers(dest="command", required=True)
        for name, help_ in (("run", "measure with tracing off"),
                            ("trace", "per-layer split under cProfile")):
            p = sub.add_parser(name, help=help_)
            p.add_argument("--seed", type=int, default=0)
            if name == "run":
                p.add_argument("--repeat", type=int, default=3)
            p.add_argument("--out", help="write the result JSON here")
        p = sub.add_parser("compare", help="verdicts between two run files")
        p.add_argument("a")
        p.add_argument("b")
        args = parser.parse_args(argv)
        if args.command == "compare":
            return _compare(args.a, args.b)
        repeat = args.repeat if args.command == "run" else 1
        if repeat < 1:
            parser.error("--repeat must be at least 1")
        return _suite(args.command, args.seed, repeat, args.out)
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return _single(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
