"""Guards on what a run imports, and when.

Each check runs in a fresh interpreter (``tools/import_graph.py``'s
:func:`probe`): this process has imported most of the package already,
which would hide both a module loaded too early and a broken lazy
re-export.

* **Budget.** Importing the harness, and building a fig4 co-location's
  inputs as the benchmark child does, load a bounded set of ``repro``
  modules and none of the functional stack (PTX, the functional
  runtime, virtualization, transform pipeline), the LLM serving driver,
  the cluster, the parallel engine or the process machinery.  A
  cluster_failover set-up has a budget of its own.
* **Timing only.** No benchmark workload's set-up loads the functional
  stack: the timing simulator builds no server, channel or buffer
  allocator.
* **Public surface.** Every name in every package's ``__all__``
  resolves, is listed by ``dir()`` and survives ``import *``.
* **Timed window.** For each benchmark workload, everything the
  benchmark child times (``standalone`` and ``run_colocation`` or
  ``run_controlplane``) imports no ``repro`` module that building the
  workload's inputs did not: a deferred import there would be charged
  to the run's wall time instead of its set-up.
"""

import importlib.util
import pathlib
import pkgutil

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
TALLYBENCH = ROOT / "tallybench"

#: repro modules and source lines a fig4 co-location's set-up may load
#: (it loaded 93 modules and 19,577 lines when every package imported
#: all of its submodules, and 49 modules and 9,605 lines while it still
#: loaded the LLM driver it does not run)
SETUP_MODULES, SETUP_LINES = 44, 7_800
FORBIDDEN = ("repro.ptx", "repro.runtime", "repro.workloads.llm",
             "repro.virt", "repro.cluster", "repro.engine",
             "repro.transform.pipeline", "multiprocessing",
             "concurrent.futures", "socket")
#: repro modules and source lines a cluster_failover set-up may load
#: (80 modules and 15,398 lines while each shard built a TallyServer)
CLUSTER_SETUP_MODULES, CLUSTER_SETUP_LINES = 60, 11_300
#: the functional half of Tally, which no timing run executes
FUNCTIONAL = ("repro.ptx", "repro.runtime", "repro.virt",
              "repro.core.server", "repro.transform.pipeline")
COLOCATION_WORKLOADS = ("fig4_tally", "fig4_tgs", "llm_serve")
#: the ``BENCHMARK.json`` workloads
WORKLOADS = (*COLOCATION_WORKLOADS, "cluster_failover")
PACKAGES = ("repro", *(f"repro.{m.name}"
                       for m in pkgutil.iter_modules(repro.__path__)
                       if m.ispkg))


def _tool():
    path = ROOT / "tools" / "import_graph.py"
    spec = importlib.util.spec_from_file_location("import_graph", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probe = _tool().probe


def _child(code: str) -> str:
    """``code`` run after importing the benchmark child."""
    return (f"import sys\nsys.path.insert(0, {str(TALLYBENCH)!r})\n"
            f"import child\n{code}")


def _loaded(report: dict, names: tuple[str, ...]) -> list[str]:
    return [name for name in names if name in report["all"]]


def test_importing_the_harness_loads_no_submodule_it_does_not_name():
    report = probe("import repro.harness")
    assert sorted(report["repro"]) == ["repro", "repro._lazy",
                                       "repro.harness"]


def test_a_colocation_setup_loads_only_what_it_runs():
    report = probe(_child("child.build_inputs('fig4_tally', 0)\n"
                          "from repro.harness import run_colocation, "
                          "standalone"))
    modules = report["repro"]
    assert len(modules) <= SETUP_MODULES, sorted(modules)
    assert sum(modules.values()) <= SETUP_LINES
    assert _loaded(report, FORBIDDEN) == []
    # an untraced run constructs no event, so it needs no event class
    assert "repro.trace.events" not in modules


def test_the_cli_loads_no_event_class():
    """Only ``--trace`` runs summarize events; a CLI start does not load
    the event classes."""
    report = probe("import repro.cli")
    assert "repro.trace.events" not in report["repro"]


@pytest.mark.parametrize("workload", COLOCATION_WORKLOADS)
def test_no_colocation_setup_loads_the_process_machinery(workload):
    report = probe(_child(f"child.build_inputs({workload!r}, 0)"))
    assert _loaded(report, ("multiprocessing", "concurrent.futures")) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_benchmark_setup_loads_the_functional_stack(workload):
    report = probe(_child(f"child.build_inputs({workload!r}, 0)"))
    assert _loaded(report, FUNCTIONAL) == []
    if workload == "cluster_failover":
        modules = report["repro"]
        assert len(modules) <= CLUSTER_SETUP_MODULES, sorted(modules)
        assert sum(modules.values()) <= CLUSTER_SETUP_LINES


@pytest.mark.slow
def test_every_public_name_resolves_lazily():
    code = f"""
import importlib, sys
for package in {PACKAGES!r}:
    module = importlib.import_module(package)
    names = module.__all__
    assert len(set(names)) == len(names), package
    for name in names:
        assert getattr(module, name) is not None, (package, name)
        assert name in dir(module), (package, name)
    star = {{}}
    exec(f"from {{package}} import *", star)
    missing = set(names) - set(star)
    assert not missing, (package, missing)
    assert not hasattr(module, "no_such_name")
"""
    probe(code)  # raises with the child's traceback on any failure


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_timed_run_imports_nothing(workload):
    probe(_child(f"""
import time

# short runs: which modules a run uses does not depend on its length
child.COLOCATION_DURATION, child.COLOCATION_WARMUP = 1.0, 0.2
child.CLUSTER_DURATION, child.CLUSTER_WARMUP = 2.0, 0.5
set_up = set()
build_inputs = child.build_inputs


def build_and_mark(*args):
    inputs = build_inputs(*args)
    set_up.update(sys.modules)
    return inputs


child.build_inputs = build_and_mark
child.measure({workload!r}, 0, time.time())
late = sorted(name for name in set(sys.modules) - set_up
              if name == "repro" or name.startswith("repro."))
assert not late, f"imported during the timed run: {{late}}"
"""))


@pytest.mark.slow
def test_a_traced_run_imports_nothing_once_its_tracer_exists():
    """Emission sites reach the event classes through the lazy
    :mod:`repro.trace` package; a live tracer loads them when built."""
    probe("""
import sys
from repro.harness import JobSpec, RunConfig, run_colocation
from repro.trace import Tracer

tracer = Tracer()
jobs = [JobSpec.inference("bert_infer", load=0.5),
        JobSpec.training("whisper_train")]
set_up = set(sys.modules)
run_colocation("Tally", jobs, RunConfig(duration=0.5, warmup=0.1),
               tracer=tracer)
assert tracer.emitted > 0
late = sorted(name for name in set(sys.modules) - set_up
              if name.startswith("repro."))
assert not late, f"imported during the traced run: {late}"
""")
