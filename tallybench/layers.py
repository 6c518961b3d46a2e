"""Module-to-layer map and cProfile attribution for the benchmark.

A layer is a group of ``src/repro`` modules named after the modules.
Every module belongs to exactly one layer (``tests/test_bench_layers.py``
enforces it), so a new module cannot hide in ``python``, which holds
only code outside the package: the standard library, numpy, and the
benchmark's own call sites.

C builtins (``len``, ``list.append``, ``posix.read`` ...) have no file
of their own.  Their self time is charged to the layer of the function
that called them, split by the per-caller times in the pstats callers
table, so a device-model ``heapq.heappush`` counts as ``gpu.device``
rather than ``python``.
"""

from __future__ import annotations

import os
from fnmatch import fnmatchcase

#: layer -> path patterns relative to ``src/repro``; a ``*`` matches
#: within one path segment, so ``harness/*`` is the harness package and
#: ``*`` alone is the top-level modules
LAYERS: dict[str, tuple[str, ...]] = {
    "gpu.engine": ("gpu/engine.py",),
    "gpu.device": ("gpu/device.py", "gpu/kernel.py", "gpu/specs.py",
                   "gpu/__init__.py"),
    "policy": ("baselines/*", "core/scheduler.py", "core/config.py",
               "core/__init__.py"),
    "jit": ("core/profiler.py", "core/candidates.py", "core/transformer.py",
            "transform/*", "ptx/*"),
    "api": ("runtime/*", "virt/*", "core/server.py", "core/client.py"),
    "workloads": ("workloads/*", "traffic/*"),
    "harness": ("harness/*", "bench/*", "*"),
    "cluster": ("cluster/*",),
    "engine": ("engine/*",),
    "metrics": ("metrics/*",),
    "instrument": ("trace/*", "check/*", "faults/*"),
    "python": (),
}

#: the fallback layer for code outside ``src/repro``
OUTSIDE = "python"


def _matches(relpath: str, pattern: str) -> bool:
    parts = relpath.split("/")
    wanted = pattern.split("/")
    return (len(parts) == len(wanted)
            and all(fnmatchcase(p, w) for p, w in zip(parts, wanted)))


def layers_of_module(relpath: str) -> list[str]:
    """Every layer whose patterns match ``relpath`` (a ``/`` path
    relative to ``src/repro``); a well-formed map returns exactly one."""
    return [layer for layer, patterns in LAYERS.items()
            if any(_matches(relpath, p) for p in patterns)]


def layer_of_file(filename: str, package_root: str) -> str:
    """The layer of a profiled code object's file.

    ``package_root`` is the absolute path of ``src/repro``.  Files
    outside it belong to :data:`OUTSIDE`.
    """
    root = package_root.rstrip(os.sep) + os.sep
    if not filename.startswith(root):
        return OUTSIDE
    relpath = filename[len(root):].replace(os.sep, "/")
    found = layers_of_module(relpath)
    if len(found) != 1:
        raise ValueError(f"{relpath} maps to layers {found}; fix LAYERS")
    return found[0]


def _is_builtin(func: tuple) -> bool:
    return func[0] == "~"


class _Attributor:
    """Resolves each pstats function to the layers that own its cost.

    ``stats`` is ``pstats.Stats.stats`` (or ``cProfile.Profile.stats``
    after ``create_stats()``): ``func -> (cc, nc, tt, ct, callers)``,
    with ``callers[caller] = (nc, cc, tt, ct)`` per call edge.
    """

    def __init__(self, stats: dict, package_root: str) -> None:
        self.stats = stats
        self.root = package_root
        self._memo: dict[tuple, dict[str, float]] = {}

    def shares(self, func: tuple, edge_index: int,
               _visiting: frozenset = frozenset()) -> dict[str, float]:
        """Fraction of ``func``'s cost owned by each layer, weighting
        builtin call edges by ``edge_index`` (0 = calls, 2 = self time)."""
        if not _is_builtin(func):
            return {layer_of_file(func[0], self.root): 1.0}
        key = (func, edge_index)
        if key in self._memo:
            return self._memo[key]
        entry = self.stats.get(func)
        callers = entry[4] if entry is not None else {}
        weights = {caller: edge[edge_index] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:  # e.g. sub-resolution self times: fall back to calls
            weights = {caller: edge[0] for caller, edge in callers.items()}
            total = sum(weights.values())
        if total <= 0 or func in _visiting:
            return {OUTSIDE: 1.0}
        result: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in self.shares(caller, edge_index,
                                            _visiting | {func}).items():
                result[layer] = result.get(layer, 0.0) + share * weight / total
        if not _visiting:
            self._memo[key] = result
        return result


def attribute(stats: dict, package_root: str) -> dict[str, dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` of one profile.

    Returns ``{layer: {"self_s": seconds, "calls": count}}`` with every
    layer of :data:`LAYERS` present.
    """
    attributor = _Attributor(stats, package_root)
    totals = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, share in attributor.shares(func, 2).items():
            totals[layer]["self_s"] += tt * share
        for layer, share in attributor.shares(func, 0).items():
            totals[layer]["calls"] += nc * share
    for layer in totals:
        totals[layer]["calls"] = round(totals[layer]["calls"])
    return totals


def cumulative(stats: dict, filename: str, funcname: str) -> tuple[int, float]:
    """``(calls, cumulative seconds)`` of every profiled function named
    ``funcname`` in a file whose path ends with ``filename``."""
    calls, seconds = 0, 0.0
    for (path, _line, name), (_cc, nc, _tt, ct, _callers) in stats.items():
        if name == funcname and path.replace(os.sep, "/").endswith(filename):
            calls += nc
            seconds += ct
    return calls, seconds
