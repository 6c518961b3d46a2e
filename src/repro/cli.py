"""Command-line interface for reproducing the paper's artefacts.

Usage::

    python -m repro table1
    python -m repro table2 --scale quick
    python -m repro fig4 --scale full
    python -m repro fig5a | fig5b | fig6a | fig6b | fig6c
    python -m repro colocate --inference bert_infer --training whisper_train \
        --policy Tally --load 0.5 --duration 10
    python -m repro colocate --trace out.json   # Perfetto-loadable trace
    python -m repro list

Each figure command prints the paper-vs-measured report that the
corresponding benchmark also writes to ``results/``.  ``colocate`` and
``cluster`` accept ``--trace PATH`` to record the run through
:mod:`repro.trace` (see ``docs/observability.md``), ``--check`` to
audit simulator invariants through :mod:`repro.check` (see
``docs/validation.md``), and ``--faults SPEC`` to enable seeded fault
injection through :mod:`repro.faults` (see ``docs/fault_tolerance.md``),
e.g. ``--faults "seed=1,lost_ack=0.2,crash_at=3.0"``; a knob the
command's run does not honour is rejected.
"""

from __future__ import annotations

import argparse
import sys
import time

from .harness import (
    POLICY_NAMES,
    JobSpec,
    RunConfig,
    run_colocation,
    standalone,
)
from .trace import JSONLSink, Tracer
from .harness.experiments import (
    fig4,
    fig5a,
    fig5a_report,
    fig5b,
    fig6a,
    fig6b,
    fig6b_report,
    fig6c,
    fig6c_report,
    llm_colocation,
    table1,
    table2,
    table2_report,
)
from .harness.reporting import format_seconds, format_table
from .workloads import INFERENCE_MODELS, LLM_MODELS, TRAINING_MODELS

__all__ = ["main"]


def _make_tracer(path: str) -> Tracer:
    """An unbounded tracer; a ``.jsonl`` path streams raw events too."""
    if path.endswith(".jsonl"):
        return Tracer(capacity=None, sinks=[JSONLSink(path)])
    open(path, "w", encoding="utf-8").close()  # unwritable? fail now,
    return Tracer(capacity=None)               # not after the run



def _finish_trace(tracer: Tracer, path: str, config: RunConfig) -> None:
    """Write the trace file and print the derived counters."""
    # the summary reads event classes, which untraced runs never load
    from .trace import summarize

    if not path.endswith(".jsonl"):
        tracer.export_chrome(path)
    tracer.close()
    print()
    print(summarize(tracer, config.spec).format())
    kind = "JSONL events" if path.endswith(".jsonl") else "Perfetto trace"
    print(f"{kind} written to {path} "
          f"({tracer.emitted} events)")


def _cmd_list(_args: argparse.Namespace) -> None:
    rows = [(name, "training", f"{m.paper_value:g} it/s")
            for name, m in TRAINING_MODELS.items()]
    rows += [(name, "inference", format_seconds(m.paper_value))
             for name, m in INFERENCE_MODELS.items()]
    rows += [(name, "llm serving",
              f"{format_seconds(m.mean_request_time())} /req")
             for name, m in LLM_MODELS.items()]
    print(format_table(("model", "kind", "paper metric"), rows,
                       title="Workload suite (Table 2 + LLM serving)"))


def _cmd_table1(_args: argparse.Namespace) -> None:
    print(table1().report())


def _cmd_table2(args: argparse.Namespace) -> None:
    print(table2_report(table2(args.scale)))


def _cmd_fig4(args: argparse.Namespace) -> None:
    print(fig4(args.scale).report())


def _cmd_fig5a(args: argparse.Namespace) -> None:
    print(fig5a_report(fig5a(args.scale)))


def _cmd_fig5b(args: argparse.Namespace) -> None:
    series, ideal = fig5b(args.scale)
    rows = []
    tally = next(s for s in series if s.system == "Tally")
    for i, count in enumerate(ideal.traffic):
        rows.append((
            i, count,
            _ms(ideal.p99[i]), _ms(tally.p99[i]),
            f"{tally.train_throughput[i]:.2f}",
        ))
    print(format_table(
        ("interval", "requests", "ideal p99", "Tally p99", "train norm"),
        rows, title="Figure 5b time series (BERT x BERT)",
    ))


def _cmd_fig6a(args: argparse.Namespace) -> None:
    rows = [
        (p.best_effort_jobs, format_seconds(p.p99), f"{p.p99_ratio:.2f}x",
         f"{p.requests_per_minute:.0f}")
        for p in fig6a(args.scale)
    ]
    print(format_table(
        ("best-effort jobs", "HP p99", "vs ideal", "requests/min"),
        rows, title="Figure 6a scalability",
    ))


def _cmd_fig6b(args: argparse.Namespace) -> None:
    print(fig6b_report(fig6b(args.scale)))


def _cmd_fig6c(args: argparse.Namespace) -> None:
    print(fig6c_report(fig6c(args.scale)))


def _parse_faults(args: argparse.Namespace):
    """``--faults SPEC`` → :class:`~repro.faults.FaultConfig` or None."""
    if not getattr(args, "faults", None):
        return None
    from .faults import FaultConfig

    return FaultConfig.parse(args.faults)


def _faulted_tally_config(faults) -> "TallyConfig | None":
    """Tally config for a faulted run: arm the preemption watchdog.

    Lost-PreemptAck recovery needs a deadline; a few turnaround bounds
    keeps the watchdog well clear of healthy preemptions (which finish
    within one bound) while still recovering quickly.
    """
    if faults is None:
        return None
    from .core import TallyConfig

    base = TallyConfig()
    return TallyConfig(
        preempt_deadline=4 * base.turnaround_latency_bound,
    )


def _parse_fail_device(specs: list[str]) -> tuple[tuple[int, float], ...]:
    """``--fail-device IDX@TIME`` occurrences → ``((idx, time), ...)``."""
    from .errors import HarnessError

    failures = []
    for spec in specs:
        try:
            index_text, _, time_text = spec.partition("@")
            failures.append((int(index_text), float(time_text)))
        except ValueError:
            raise HarnessError(
                f"--fail-device expects IDX@TIME (e.g. 0@2.0), got "
                f"{spec!r}") from None
    return tuple(failures)


def _cmd_cluster(args: argparse.Namespace) -> None:
    from .cluster import (
        AutoscalerConfig,
        ClusterJob,
        dedicated_placement,
        packed_placement,
        run_controlplane,
    )

    jobs: list[ClusterJob] = []
    seed = 0
    for model, load in [("resnet50_infer", 0.10), ("bert_infer", 0.12),
                        ("yolov6m_infer", 0.10), ("resnet50_infer", 0.08),
                        ("bert_infer", 0.10), ("yolov6m_infer", 0.12)]:
        jobs.append(ClusterJob(model, load=load, traffic_seed=seed))
        seed += 1
    if args.llm:
        jobs.append(ClusterJob("llama7b_serve", load=0.3,
                               traffic_seed=seed))
        seed += 1
    for model in ("resnet50_infer", "bert_infer", "resnet50_infer"):
        jobs.append(ClusterJob(model, load=0.3, offline=True,
                               traffic_seed=seed))
        seed += 1
    for model in ("resnet50_train", "pointnet_train", "bert_train",
                  "gpt2_train"):
        jobs.append(ClusterJob(model, traffic_seed=seed))
        seed += 1

    dedicated = dedicated_placement(jobs)
    packed = packed_placement(jobs, compute_budget=1.4)
    faults = _parse_faults(args)
    config = RunConfig(duration=args.duration, warmup=1.0,
                       tally_config=_faulted_tally_config(faults))
    tracer = _make_tracer(args.trace) if args.trace else None
    autoscale = (AutoscalerConfig.parse(args.autoscale)
                 if args.autoscale is not None else None)
    # with the autoscaler, spares start standby and are activated by
    # load; without it they are plain extra first-fit capacity
    standby = args.spares if autoscale is not None else 0
    devices = packed.gpus_used + args.spares
    engine = "serial" if args.parallel_shards is None else "parallel"
    workers = args.parallel_shards or 0
    start = time.time()
    # without --arrivals every job starts on its packed GPU at t=0
    result = run_controlplane(
        jobs, devices,
        placement=packed if args.arrivals is None else None,
        policy="Tally", config=config, arrival_rate=args.arrivals,
        faults=faults, fail_device=_parse_fail_device(args.fail_device),
        tracer=tracer, check=args.check, autoscale=autoscale,
        standby=standby, engine=engine, workers=workers)
    wall = time.time() - start
    saved = 1 - packed.gpus_used / dedicated.gpus_used
    mode = (f"online arrivals at {args.arrivals:g}/s"
            if args.arrivals is not None else "packed placement")
    rows = [
        ("jobs", len(jobs), mode),
        ("GPUs, dedicated", dedicated.gpus_used, ""),
        ("GPUs, Tally-packed", packed.gpus_used, f"{saved:.0%} saved"),
    ]
    if args.spares:
        rows.append(("devices", devices,
                     f"{packed.gpus_used} packed + {args.spares} spare(s)"
                     + (" [standby]" if standby else "")))
    rows += [
        ("SLA violations", result.sla_violations,
         f"worst p99 {result.worst_p99_ratio:.2f}x"),
        ("aggregate norm. thpt",
         f"{result.total_normalized_throughput:.1f}", ""),
        ("simulated / wall",
         f"{config.duration:.0f}s x {devices} GPUs / {wall:.1f}s",
         f"{result.events} events"
         + (f", parallel engine x{workers}" if engine == "parallel"
            else "")),
    ]
    if args.check:
        rows.append(("invariant checks", str(result.invariant_checks),
                     "0 violations"))
    print(format_table(("metric", "value", "note"), rows,
                       title="Cluster consolidation under Tally"))
    print()
    print(result.recovery.format())
    if args.save:
        import json

        from .harness import cluster_result_to_dict

        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(cluster_result_to_dict(result), fh, indent=2)
            fh.write("\n")
        print(f"result written to {args.save}")
    if tracer is not None:
        _finish_trace(tracer, args.trace, config)


def _cmd_storm(args: argparse.Namespace) -> None:
    """``storm``: retry-storm A/B — unbounded vs resilience layer."""
    from .faults.storm import StormConfig, run_storm_sweep, storm_pair

    shards = args.parallel_shards or 1
    base = StormConfig(clients=args.clients, duration=args.duration,
                       seed=args.seed, check=args.check, shards=shards)
    start = time.time()
    if shards > 1:
        # intra-run parallelism: each variant's shard cells fan out
        from .faults.storm import run_storm
        results = [run_storm(cfg, jobs=shards)
                   for cfg in storm_pair(base)]
    else:
        results = run_storm_sweep(list(storm_pair(base)), jobs=args.jobs)
    wall = time.time() - start
    rows = [
        (result.label,
         f"{result.amplification:.2f}x",
         f"{result.attainment_before:.0%}",
         f"{result.attainment_after:.0%}",
         f"{result.peak_backlog * 1e3:.0f}ms",
         str(result.overload.total_sheds))
        for result in results
    ]
    print(format_table(
        ("variant", "amplification", "slo before", "slo after",
         "peak backlog", "sheds"), rows,
        title=(f"Retry storm: {args.clients} clients, degrade window "
               f"[{base.degrade_start:g}, {base.degrade_end:g})s"
               + (f", {shards} service shards" if shards > 1 else "")),
    ))
    print()
    for result in results:
        print(result.format())
        print()
    if args.check:
        checks = sum(r.invariant_checks for r in results)
        print(f"invariant checks: {checks} ledgers audited, 0 violations")
    print(f"wall time {wall:.1f}s")


def _cmd_llm(args: argparse.Namespace) -> None:
    """LLM serving colocation: one policy in detail, or all policies."""
    if args.policy == "all":
        result = llm_colocation(
            args.scale, llm_model=args.model,
            training_model=args.training, load=args.load,
            seed=args.seed,
        )
        print(result.report())
        print(f"SLO: ttft <= {format_seconds(result.slo.ttft)}, "
              f"inter-token <= {format_seconds(result.slo.inter_token)} "
              f"(2x the isolated p99s)")
        return

    from .metrics import ServingSLO

    faults = _parse_faults(args)
    tally_config = (_faulted_tally_config(faults)
                    if args.policy == "Tally" else None)
    config = RunConfig(duration=args.duration, warmup=args.warmup,
                       tally_config=tally_config)
    llm = JobSpec.llm(args.model, load=args.load, traffic_seed=args.seed)
    training = JobSpec.training(args.training)
    base = standalone(llm, config)
    train_base = standalone(training, config)
    assert base.serving is not None
    assert base.serving.ttft is not None
    assert base.serving.inter_token is not None
    slo = ServingSLO.scaled_to_ideal(base.serving.ttft.p99,
                                     base.serving.inter_token.p99)
    config = RunConfig(duration=args.duration, warmup=args.warmup,
                       tally_config=tally_config, slo=slo)

    tracer = _make_tracer(args.trace) if args.trace else None
    start = time.time()
    result = run_colocation(args.policy, [llm, training], config,
                            tracer=tracer, check=args.check, faults=faults)
    wall = time.time() - start
    served = result.job(f"{args.model}#0")
    train = result.job(f"{args.training}#0")
    s = served.serving
    assert s is not None and s.ttft is not None and s.inter_token is not None
    train_norm = (train.rate / train_base.rate if train_base.rate else 0.0)
    rows = [
        ("TTFT p99", format_seconds(s.ttft.p99),
         f"{s.ttft.p99 / base.serving.ttft.p99:.2f}x vs ideal"),
        ("TTFT p50", format_seconds(s.ttft.p50), ""),
        ("inter-token p99", format_seconds(s.inter_token.p99),
         f"{s.inter_token.p99 / base.serving.inter_token.p99:.2f}x "
         f"vs ideal"),
        ("inter-token p50", format_seconds(s.inter_token.p50), ""),
        ("requests served", str(s.completed),
         f"{s.requests_per_s:.2f}/s, {s.tokens_per_s:.0f} tok/s"),
        ("SLO attainment", f"{s.slo_attainment * 100:.0f}%",
         f"goodput {s.goodput:.2f}/s at 1.5x isolated p99s"),
        ("evicted (KV pressure)", str(served.evicted), ""),
        ("admission queueing p99",
         format_seconds(served.queueing.p99)
         if served.queueing is not None else "-", ""),
        ("training throughput", f"{train.rate:.2f} it/s",
         f"{train_norm:.2f} of standalone"),
        ("GPU utilization", f"{result.utilization:.0%}", ""),
        ("simulated / wall",
         f"{config.duration:.0f}s / {wall:.1f}s",
         f"{result.events} events"),
    ]
    if args.check:
        rows.append(("invariant checks", str(result.invariant_checks),
                     "0 violations"))
    if result.fault_counts:
        injected = ", ".join(f"{kind}={n}" for kind, n
                             in sorted(result.fault_counts.items()))
        rows.append(("faults injected", str(sum(
            result.fault_counts.values())), injected))
    print(format_table(
        ("metric", "value", "note"), rows,
        title=(f"{args.policy}: {args.model} (load {args.load:.0%}) "
               f"x {args.training}"),
    ))
    if tracer is not None:
        _finish_trace(tracer, args.trace, config)


def _cmd_colocate(args: argparse.Namespace) -> None:
    faults = _parse_faults(args)
    tally_config = (_faulted_tally_config(faults)
                    if args.policy == "Tally" else None)
    config = RunConfig(duration=args.duration, warmup=args.warmup,
                       tally_config=tally_config)
    inference = JobSpec.inference(args.inference, load=args.load)
    training = JobSpec.training(args.training)
    if args.seeds > 1:
        _colocate_sweep(args, config, inference, training, faults)
        return
    base = standalone(inference, config)
    train_base = standalone(training, config)
    assert base.latency is not None

    tracer = _make_tracer(args.trace) if args.trace else None
    start = time.time()
    result = run_colocation(args.policy, [inference, training], config,
                            tracer=tracer, check=args.check, faults=faults)
    wall = time.time() - start
    inf = result.job(f"{args.inference}#0")
    train = result.job(f"{args.training}#0")
    assert inf.latency is not None
    train_norm = (train.rate / train_base.rate if train_base.rate else 0.0)
    rows = [
        ("inference p99", format_seconds(inf.latency.p99),
         f"{inf.latency.p99 / base.latency.p99:.2f}x vs ideal"),
        ("inference p50", format_seconds(inf.latency.p50), ""),
        ("requests served", str(inf.completed), f"{inf.rate:.1f}/s"),
        ("training throughput", f"{train.rate:.2f} it/s",
         f"{train_norm:.2f} of standalone"),
        ("system throughput",
         f"{inf.rate / base.rate + train_norm:.2f}", ""),
        ("GPU utilization", f"{result.utilization:.0%}", ""),
        ("simulated / wall",
         f"{config.duration:.0f}s / {wall:.1f}s",
         f"{result.events} events"),
    ]
    if args.check:
        rows.append(("invariant checks", str(result.invariant_checks),
                     "0 violations"))
    if result.fault_counts:
        injected = ", ".join(f"{kind}={n}" for kind, n
                             in sorted(result.fault_counts.items()))
        rows.append(("faults injected", str(sum(
            result.fault_counts.values())), injected))
    print(format_table(
        ("metric", "value", "note"), rows,
        title=(f"{args.policy}: {args.inference} (load {args.load:.0%}) "
               f"x {args.training}"),
    ))
    if tracer is not None:
        _finish_trace(tracer, args.trace, config)


def _colocate_sweep(args: argparse.Namespace, config: RunConfig,
                    inference: JobSpec, training: JobSpec, faults) -> None:
    """``colocate --seeds K [--jobs N]``: a seed-replicated sweep."""
    from .errors import HarnessError
    from .harness import seed_sweep, run_sweep

    if args.trace and args.jobs > 1:
        raise HarnessError("tracing is per-process state: use --jobs 1 "
                           "when tracing")
    cases = seed_sweep(args.policy, [inference, training], config,
                       seeds=range(args.seeds), check=args.check,
                       faults=faults)
    start = time.time()
    results = run_sweep(cases, jobs=args.jobs)
    wall = time.time() - start
    rows = []
    p99s: list[float] = []
    for case, result in zip(cases, results):
        inf = result.job(f"{args.inference}#0")
        train = result.job(f"{args.training}#0")
        assert inf.latency is not None
        p99s.append(inf.latency.p99)
        rows.append((
            case.label, format_seconds(inf.latency.p99),
            f"{inf.rate:.1f}/s", f"{train.rate:.2f} it/s",
            f"{result.utilization:.0%}",
        ))
    rows.append((
        "mean", format_seconds(sum(p99s) / len(p99s)), "", "",
        f"wall {wall:.1f}s, {args.jobs} worker(s)",
    ))
    print(format_table(
        ("seed", "inference p99", "req rate", "training", "util"), rows,
        title=(f"{args.policy}: {args.inference} (load {args.load:.0%}) "
               f"x {args.training}, {args.seeds} seeds"),
    ))


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Tally paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, scale=True):
        p = sub.add_parser(name, help=help_)
        if scale:
            p.add_argument("--scale", choices=("quick", "full"),
                           default="quick")
        p.set_defaults(fn=fn)
        return p

    add("list", _cmd_list, "list the workload suite", scale=False)
    add("table1", _cmd_table1, "turnaround by granularity", scale=False)
    add("table2", _cmd_table2, "standalone workload metrics")
    add("fig4", _cmd_fig4, "end-to-end latency/throughput grid")
    add("fig5a", _cmd_fig5a, "traffic load sensitivity")
    add("fig5b", _cmd_fig5b, "time-series under a condensed trace")
    add("fig6a", _cmd_fig6a, "scalability with workload count")
    add("fig6b", _cmd_fig6b, "scheduling/transformation ablation")
    add("fig6c", _cmd_fig6c, "turnaround threshold sweep")

    trace_help = ("record the run and write a Chrome/Perfetto "
                  "trace_event JSON to PATH (a .jsonl suffix streams "
                  "raw events instead); also prints derived counters")
    faults_help = ('seeded fault injection, e.g. '
                   '"seed=1,lost_ack=0.2,slot_fault_rate=2.0,crash_at=3.0" '
                   '(see docs/fault_tolerance.md)')
    check_help = ("audit simulator invariants after every event and "
                  "fail on the first violation (docs/validation.md)")

    cluster = sub.add_parser(
        "cluster", help="cluster consolidation demo (GPUs saved vs SLA)")
    cluster.add_argument("--duration", type=float, default=5.0)
    cluster.add_argument("--llm", action="store_true",
                         help="include an LLM serving endpoint "
                              "(llama7b_serve) in the job mix")
    cluster.add_argument("--trace", metavar="PATH", default=None,
                         help=trace_help)
    cluster.add_argument("--check", action="store_true", help=check_help)
    cluster.add_argument("--faults", metavar="SPEC", default=None,
                         help='seeded fault injection, e.g. '
                              '"seed=1,device_crash_rate=0.2,'
                              'slot_fault_rate=0.5" (see '
                              "docs/fault_tolerance.md); crash_at and "
                              "the channel kinds are rejected here: "
                              "crash a device with --fail-device instead")
    cluster.add_argument("--arrivals", type=float, default=None,
                         metavar="RATE",
                         help="online control plane: jobs arrive at "
                              "Poisson RATE per second and are admitted "
                              "first-fit (docs/cluster.md)")
    cluster.add_argument("--fail-device", action="append", default=[],
                         metavar="IDX@TIME",
                         help="online control plane: crash device IDX at "
                              "simulated TIME and live-migrate its "
                              "tenants (repeatable, e.g. 0@2.0)")
    cluster.add_argument("--spares", type=int, default=0, metavar="N",
                         help="provision N spare devices beyond the "
                              "packed count (failover headroom; with "
                              "--autoscale they start standby)")
    cluster.add_argument("--autoscale", metavar="SPEC", nargs="?",
                         const="", default=None,
                         help="enable the load-signal autoscaler; SPEC "
                              "overrides AutoscalerConfig fields, e.g. "
                              '"interval=0.25,queue_high=2" '
                              "(docs/cluster.md)")
    cluster.add_argument("--parallel-shards", type=_positive_int,
                         default=None, metavar="N",
                         help="run the control plane's device "
                              "shards in N worker processes, each "
                              "advancing to every control-event horizon "
                              "(bit-identical to serial; "
                              "docs/performance.md)")
    cluster.add_argument("--save", metavar="PATH", default=None,
                         help="write the control-plane result as JSON")
    cluster.set_defaults(fn=_cmd_cluster)

    storm = sub.add_parser(
        "storm", help="retry-storm chaos scenario: unbounded vs "
                      "retry-budget + circuit-breaker resilience")
    storm.add_argument("--clients", type=int, default=8)
    storm.add_argument("--duration", type=float, default=6.0)
    storm.add_argument("--seed", type=int, default=0)
    storm.add_argument("--check", action="store_true", help=check_help)
    storm.add_argument("--parallel-shards", type=_positive_int,
                       default=None, metavar="N",
                       help="split the service into N independent "
                            "shard replicas (capacity divided evenly) "
                            "and run the cells over N worker processes "
                            "with a deterministic merge")
    storm.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run the two variants in N worker processes "
                            "(results are identical to --jobs 1)")
    storm.set_defaults(fn=_cmd_storm)

    colocate = sub.add_parser("colocate",
                              help="run one custom co-location experiment")
    colocate.add_argument("--inference", default="bert_infer",
                          choices=sorted(INFERENCE_MODELS))
    colocate.add_argument("--training", default="whisper_train",
                          choices=sorted(TRAINING_MODELS))
    colocate.add_argument("--policy", default="Tally",
                          choices=POLICY_NAMES)
    colocate.add_argument("--load", type=float, default=0.5)
    colocate.add_argument("--duration", type=float, default=10.0)
    colocate.add_argument("--warmup", type=float, default=1.0)
    colocate.add_argument("--trace", metavar="PATH", default=None,
                          help=trace_help)
    colocate.add_argument("--check", action="store_true", help=check_help)
    colocate.add_argument("--faults", metavar="SPEC", default=None,
                         help=faults_help)
    colocate.add_argument("--seeds", type=int, default=1, metavar="K",
                          help="replicate the experiment across K "
                               "traffic/trace seeds (prints a per-seed "
                               "table)")
    colocate.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="run sweep cases in N worker processes "
                               "(results are identical to --jobs 1)")
    colocate.set_defaults(fn=_cmd_colocate)

    llm = sub.add_parser(
        "llm", help="LLM serving (continuous batching) vs best-effort "
                    "training")
    llm.add_argument("--model", default="llama7b_serve",
                     choices=sorted(LLM_MODELS))
    llm.add_argument("--training", default="resnet50_train",
                     choices=sorted(TRAINING_MODELS))
    llm.add_argument("--policy", default="Tally",
                     choices=POLICY_NAMES + ("all",),
                     help='"all" prints the per-policy comparison table')
    llm.add_argument("--scale", choices=("quick", "full"), default="quick",
                     help="grid size for --policy all")
    llm.add_argument("--load", type=float, default=0.5)
    llm.add_argument("--duration", type=float, default=10.0)
    llm.add_argument("--warmup", type=float, default=1.0)
    llm.add_argument("--seed", type=int, default=0,
                     help="traffic and length-sampling seed")
    llm.add_argument("--trace", metavar="PATH", default=None,
                     help=trace_help)
    llm.add_argument("--check", action="store_true", help=check_help)
    llm.add_argument("--faults", metavar="SPEC", default=None,
                     help=faults_help)
    llm.set_defaults(fn=_cmd_llm)
    return parser


def _ms(value: float) -> str:
    return "-" if value != value else f"{value * 1e3:.2f} ms"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
