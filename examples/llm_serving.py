"""LLM serving under co-location: protecting a token stream.

A Llama-7B continuous-batching server (chunked prefill, batched
decode, paged KV cache) shares the GPU with a best-effort ResNet-50
training job.  Unlike the Table 2 request/response services, the
quantity to protect here is a *cadence*: the millisecond-scale gaps
between consecutive tokens of every live stream.

The example measures the isolated baseline, derives an SLO from it
(2x the isolated TTFT / inter-token p99s), then runs the same pair
under Tally and under unmanaged sharing (MPS) and compares
time-to-first-token, inter-token p99, SLO goodput, and best-effort
training throughput.  A second act shrinks the KV pool to ~1.2
max-size requests to show eviction under memory pressure — the
failure mode continuous batching must surface honestly.

Run:  python examples/llm_serving.py
"""

from dataclasses import replace

from repro.baselines import Ideal
from repro.gpu import A100_SXM4_40GB, EventLoop, GPUDevice
from repro.harness import JobSpec, RunConfig, run_colocation, standalone
from repro.harness.reporting import format_seconds, format_table
from repro.metrics import ServingSLO
from repro.traffic import poisson_trace
from repro.workloads import LLMServingJob, get_llm_model

DURATION = 8.0
WARMUP = 1.0
LLM = "llama7b_serve"
TRAIN = "resnet50_train"


def serving_row(label, serving, base, note=""):
    ttft = serving.ttft.p99 / base.ttft.p99
    itl = serving.inter_token.p99 / base.inter_token.p99
    return (
        label,
        f"{format_seconds(serving.ttft.p99)} ({ttft:.2f}x)",
        f"{format_seconds(serving.inter_token.p99)} ({itl:.2f}x)",
        f"{serving.slo_attainment:.0%} @ {serving.goodput:.2f}/s",
        note,
    )


def main() -> None:
    cfg = RunConfig(duration=DURATION, warmup=WARMUP)
    llm = JobSpec.llm(LLM, load=0.5)

    # Act 1 — the isolated baseline defines what "good" means.
    base = standalone(llm, cfg).serving
    assert base is not None
    slo = ServingSLO.scaled_to_ideal(base.ttft.p99, base.inter_token.p99,
                                     slack=2.0)
    scored = replace(cfg, slo=slo)
    train_alone = standalone(JobSpec.training(TRAIN), cfg)

    rows = [serving_row("isolated", base, base, "the SLO anchor")]
    ratios = {}
    for policy in ("Tally", "MPS"):
        result = run_colocation(
            policy, [llm, JobSpec.training(TRAIN)], scored, check=True)
        job = result.job(f"{LLM}#0")
        train = result.job(f"{TRAIN}#0")
        norm = train.rate / train_alone.rate
        ratios[policy] = job.serving.inter_token.p99 / base.inter_token.p99
        rows.append(serving_row(
            f"{policy} colocated", job.serving, base,
            f"train at {norm:.2f} of standalone"))
    print(format_table(
        ("run", "ttft p99", "inter-token p99", "slo att @ goodput", "note"),
        rows,
        title=f"{LLM} (HP) vs {TRAIN} (BE), "
              f"SLO = 2x isolated p99s"))

    verdict = "PASS" if ratios["Tally"] < 1.2 <= ratios["MPS"] else "FAIL"
    print(f"\ninter-token p99 vs isolated — Tally {ratios['Tally']:.2f}x, "
          f"MPS {ratios['MPS']:.2f}x ({verdict}: block-level preemption "
          f"protects the cadence, unmanaged sharing does not)")

    # Act 2 — KV pressure: a pool of ~1.2 max-size requests forces the
    # batcher to evict its youngest stream when decodes outgrow memory.
    model = get_llm_model(LLM)
    one_request = (model.prompt_tokens.maximum
                   + model.output_tokens.maximum) * model.kv_bytes_per_token
    squeezed = replace(model, name="llama7b_squeezed",
                       kv_capacity_bytes=int(one_request * 1.2))
    engine = EventLoop()
    policy = Ideal(GPUDevice(A100_SXM4_40GB, engine), engine)
    traffic = poisson_trace(30.0, 6.0, seed=0)
    job = LLMServingJob(squeezed, traffic, policy, "llm#0", seed=0)
    job.start()
    engine.run_until(10.0)

    mm = job.kv.manager
    print(f"\nKV pressure: pool of {squeezed.kv_capacity_bytes >> 20} MiB "
          f"(~1.2 max requests), {traffic.count} arrivals")
    print(f"  completed {job.completed_requests}, "
          f"evicted {job.evictions} (youngest-first, terminal)")
    print(f"  KV conservation: {mm.allocated_elements_total} tokens "
          f"allocated == {mm.freed_elements_total} freed, "
          f"{mm.live_bytes()} live at drain")
    assert job.evictions > 0, "the squeezed pool must evict"
    assert mm.allocated_elements_total == mm.freed_elements_total


if __name__ == "__main__":
    main()
