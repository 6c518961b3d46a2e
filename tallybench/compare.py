"""Verdicts between two result files of ``run.py run``.

For each (workload, end-to-end metric) present in both files, B (the
change) is judged against A (the parent):

* ``worse`` — B's median is worse than A's by more than the metric's
  bound (any amount for a bound of 0: simulated metrics and
  ``failed_runs``);
* ``better`` — B's median is better by more than A's own spread
  (quartile distance), or every B run beats every A run;
* ``unresolved`` — the spread of either side exceeds the bound, so the
  runs cannot tell a regression from noise;
* ``unchanged`` — otherwise.

``sim.events`` is compared as ``changed``/``unchanged`` only: a change
that cuts events is allowed, but it must show.
"""

from __future__ import annotations

from dataclasses import dataclass

from metrics import END_TO_END, metric

#: layer counters shown by ``compare`` without a verdict on direction
COUNTERS = ("sim.events",)


@dataclass(frozen=True)
class Row:
    workload: str
    name: str
    unit: str
    a: dict
    b: dict
    verdict: str


def _spread(summary: dict) -> float:
    median = summary["median"]
    width = summary["q3"] - summary["q1"]
    return width / abs(median) if median else (0.0 if width == 0 else
                                               float("inf"))


def verdict(name: str, bound: float, a: dict, b: dict) -> str:
    """The verdict on one metric; ``a`` and ``b`` are summaries with
    ``median``, ``q1``, ``q3`` and ``values``."""
    m = metric(name)
    if not m.better:
        return "unchanged" if a["values"] == b["values"] else "changed"
    sign = 1.0 if m.better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"])
    if bound == 0:
        if worsening > 0:
            return "worse"
        return "better" if worsening < 0 else "unchanged"
    all_better = all(sign * (vb - va) < 0
                     for vb in b["values"] for va in a["values"])
    if max(_spread(a), _spread(b)) > bound:
        return "better" if all_better else "unresolved"
    if worsening > bound * abs(a["median"]):
        return "worse"
    if all_better or -worsening > a["q3"] - a["q1"] > 0:
        return "better"
    return "unchanged"


def compare(a: dict, b: dict, bounds: dict[str, float]) -> list[Row]:
    """Rows for every (workload, metric) that both result files hold."""
    names = [m.name for m in END_TO_END] + list(COUNTERS)
    rows = []
    for workload, metrics_a in a["workloads"].items():
        metrics_b = b["workloads"].get(workload)
        if metrics_b is None:
            continue
        for name in names:
            if name in metrics_a and name in metrics_b:
                rows.append(Row(workload, name, metric(name).unit,
                                metrics_a[name], metrics_b[name],
                                verdict(name, bounds.get(name, 0.0),
                                        metrics_a[name], metrics_b[name])))
    return rows


def _fmt(summary: dict) -> str:
    return (f"{summary['median']:.6g} "
            f"[{summary['q1']:.6g}, {summary['q3']:.6g}]")


def format_rows(rows: list[Row]) -> str:
    header = ("workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "verdict")
    table = [header] + [(r.workload, r.name, r.unit, _fmt(r.a), _fmt(r.b),
                         r.verdict) for r in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                     .rstrip() for line in table)
