"""Transform memo on vs off must never change a run's metrics.

The memo is a pure compile cache: warm or cold, every artifact it
serves is content-addressed, so the figures the repository reports —
the fig4 colocation cell and the LLM serving macro — must be
bit-identical either way.  These tests run each shape against a cold
process-wide memo and again against a warmed (and deliberately
polluted-with-other-kernels) one, then compare every metric exactly.
The same holds on the functional path: a server executing over a warm
memo must compute the same buffers as one compiling from scratch.
"""

import numpy as np
import pytest

from repro.core import ExecMode, ExecPlan, TallyServer
from repro.harness import JobSpec, RunConfig, run_colocation
from repro.ptx.library import case_names, make_case
from repro.transform import TransformPipeline, transform_memo

CFG = RunConfig(duration=2.0, warmup=0.5)

FIG4_JOBS = [JobSpec.inference("bert_infer", load=0.5),
             JobSpec.training("whisper_train")]

LLM_JOBS = [JobSpec.llm("llama7b_serve", load=0.5),
            JobSpec.training("resnet50_train")]


@pytest.fixture(autouse=True)
def cold_global_memo():
    transform_memo().clear()
    yield
    transform_memo().clear()


def warm_the_memo():
    """Fill the process-wide store with the whole kernel corpus."""
    pipeline = TransformPipeline(memo=transform_memo())
    for name in case_names():
        kernel = make_case(name, np.random.default_rng(0)).kernel
        pipeline.sliced(kernel)
        pipeline.preemptible(kernel)
    assert len(transform_memo()) > 0


def metrics_of(result):
    out = {client: job.completed for client, job in result.jobs.items()}
    out["events"] = result.events
    out["utilization"] = result.utilization
    hp = next(iter(result.jobs.values()))
    if hp.latency is not None:
        out["p99"] = hp.latency.p99
    return out


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [FIG4_JOBS, LLM_JOBS],
                         ids=["fig4", "llm_serve"])
def test_macro_metrics_identical_cache_on_vs_off(jobs):
    cold = metrics_of(run_colocation("Tally", jobs, CFG))
    transform_memo().clear()
    warm_the_memo()
    warm = metrics_of(run_colocation("Tally", jobs, CFG))
    assert cold == warm


def test_llm_serving_metrics_identical_cache_on_vs_off():
    cold = run_colocation("Tally", LLM_JOBS, CFG).llm_results()[0].serving
    transform_memo().clear()
    warm_the_memo()
    warm = run_colocation("Tally", LLM_JOBS, CFG).llm_results()[0].serving
    assert cold is not None and warm is not None
    assert cold.tokens_per_s == warm.tokens_per_s
    assert cold.ttft.p99 == warm.ttft.p99


@pytest.mark.parametrize("mode", [ExecMode.SLICED, ExecMode.PTB])
def test_functional_path_results_identical_over_warm_memo(mode):
    """Servers sharing a warm memo still compute correct buffers."""
    warm_the_memo()
    for name in ("vector_add", "block_sum", "saxpy"):
        case = make_case(name, np.random.default_rng(5))
        server = TallyServer(best_effort_plan=ExecPlan(
            mode, blocks_per_slice=3, workers=3))
        server.connect(name)
        state = server.client(name)
        state.interpreter.memory = case.memory
        server.transformer.execute(
            state.interpreter, case.kernel, case.grid, case.block,
            case.args, state.plan)
        case.check()
    # every transform was served from the warm store, none recompiled
    assert server.transformer.pipeline.stats.cache_hits > 0
