"""End-to-end benchmark of the paper's procedures.

Runs one workload for a fixed wall-time budget through the ``repro``
package found under ``src/`` next to this directory, checks its
outputs, and prints every metric with its unit.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``)::

    python3 bench_e2e/run.py --workload ga-campaign --seed 0 \\
        --seconds 10 --trace 0

The command exits non-zero when an output check fails.  See
``bench_e2e/README.md`` for the workloads and metrics.
"""

import time

# setup_s counts from here: interpreter start-up precedes it, every
# import of numpy and repro follows it.
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
TRACE_DIR = ROOT / ".bench_build" / "traces"

#: Set-up is repeated this many times per run; setup_s reports the
#: median repetition (plus the one-off imports).
SETUP_REPEATS = 3

#: Rounds of fresh-input workloads recorded as references; a run's later
#: rounds are checked only for seed-independent properties.
RECORD_ROUNDS = 6

#: Allowed difference between span-derived chain-stage times and the
#: program's own stage timings (rounding to 1 us per call plus wrapper
#: cost account for the rest).
CROSSCHECK_REL_TOL = 0.10
CROSSCHECK_ABS_S = 0.002

WORKLOAD_NAMES = (
    "ga-campaign", "ga-workers", "sweep-study", "vmin-ladder",
    "service-burst",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="per-round problem size (tiny: smoke test)")
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="reference outputs recorded at the default seed")
    parser.add_argument("--record", action="store_true",
                        help="run one round at the default seed and store "
                             "its outputs in --references")
    return parser.parse_args(argv)


def import_repro():
    """Import the package from this checkout's ``src`` or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def tail(slots):
    """(value, percentile): the highest percentile with at least ten
    slots beyond it, i.e. the 11th-largest slot (the largest when there
    are fewer than eleven)."""
    ordered = sorted(slots)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0 * (n - 1) / n
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (kB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(m, setup_s, median):
    slots = m.slot_ops()
    value, pct = tail(slots)
    metrics = {
        "setup_s": (setup_s, "s"),
        "evals_per_s": (m.rate(), "1/s"),
        "op_p50_ms": (median(slots) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = sum(m.raw_ops)
    notes = [
        f"{len(m.ops)} ops in {m.rounds} rounds: {len(slots)} slots, each "
        "timed as its median over the rounds",
        f"op_tail_ms is p{pct:.2f} of {len(slots)} slots",
        f"wall time: {m.work} evaluations in {raw:.3f} s of ops, "
        f"op median {median(m.raw_ops) * 1e3:.3f} ms; host-speed scale "
        f"{sum(m.ops) / raw if raw else 0.0:.3f}",
    ]
    return metrics, notes


def per_layer(tracer, traced, untraced, median):
    from bench_trace import CHAIN_STAGES, ratio

    agg = tracer.aggregate()
    counters = tracer.counters

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def own(name):
        return agg.get(name, {}).get("self_s", 0.0)

    runs = calls("SignalPath.run")
    ends =[rec for e, _, rec in traced.events if e == "generation_end"]
    individuals = sum(
        rec["fresh_evaluations"] + rec["cache_hits"] for rec in ends
    )
    metrics = {
        "cpu.schedule_calls": (calls("Pipeline.execute"), "count"),
        "cpu.schedule_s": (total("Pipeline.execute"), "s"),
        "cpu.trace_s": (total("CurrentModel.trace"), "s"),
        "pdn.ac_analyses": (calls("analyze_ac"), "count"),
        "pdn.ac_freqs": (counters["pdn.ac_freqs"], "count"),
        "pdn.ac_s": (total("analyze_ac"), "s"),
        "pdn.solve_s": (own("SteadyStateSolver.solve"), "s"),
        "chain.items": (counters["chain.items"], "count"),
        "chain.items_per_run": (
            counters["chain.items"] / runs if runs else 0.0, "count"
        ),
    }
    for stage in CHAIN_STAGES:
        metrics[f"chain.{stage}_s"] = (own(f"chain.{stage}"), "s")
    for cache in ("execute", "tf", "gain"):
        metrics[f"session.{cache}_hit_ratio"] = (
            ratio(counters[f"session.{cache}_hits"],
                  counters[f"session.{cache}_misses"]),
            "ratio",
        )
    metrics.update({
        "analyzer.amplitude_s": (
            total("SpectrumAnalyzer.max_amplitude_from_power"), "s"),
        "analyzer.trace_s": (total("SpectrumAnalyzer.trace_from_power"), "s"),
        "analyzer.propagate_s": (
            total("SpectrumAnalyzer.received_power_w"), "s"),
        "radiator.emission_s": (total("DieRadiator.emission"), "s"),
        "ga.fresh_evals": (counters["ga.fresh_evals"], "count"),
        "ga.memo_hit_ratio": (
            1.0 - counters["ga.fresh_evals"] / individuals
            if individuals else 0.0,
            "ratio",
        ),
        "ga.evaluate_s": (total("ParallelEvaluator.evaluate"), "s"),
        "ga.breed_s": (own("GAEngine.run"), "s"),
        "ga.pool_setup_s": (
            total("ParallelEvaluator.warm_up") / calls(
                "ParallelEvaluator.warm_up")
            if calls("ParallelEvaluator.warm_up") else 0.0,
            "s",
        ),
        "core.sweep_self_s": (own("ResonanceSweep.run"), "s"),
        "vmin.descents": (
            sum(out.get("descents", 0) for rnd in traced.outputs
                for out in rnd if isinstance(out, dict)),
            "count",
        ),
        "vmin.steps": (calls("CriticalVoltageModel.classify"), "count"),
        "platforms.cluster_run_self_s": (own("Cluster.run"), "s"),
        "stability.classify_s": (
            total("CriticalVoltageModel.classify"), "s"),
    })
    metrics.update(service_layer(traced, agg, median))
    metrics["trace.overhead_frac"] = (
        sum(traced.ops) / sum(untraced.ops) - 1.0
        if untraced.ops and traced.ops else 0.0,
        "ratio",
    )
    return metrics


def service_layer(traced, agg, median):
    submitted, batched, done = {}, {}, {}
    sizes = []
    for event, stamp, rec in traced.events:
        if event == "job_submitted":
            submitted[rec["job_id"]] = stamp
        elif event == "job_batched":
            sizes.append(len(rec["job_ids"]))
            for job_id in rec["job_ids"]:
                batched[job_id] = stamp
        elif event == "job_done":
            done[rec["job_id"]] = stamp
    waits = [batched[j] - submitted[j] for j in batched if j in submitted]
    execs = [done[j] - batched[j] for j in done if j in batched]
    submit = agg.get("MeasurementService.submit")
    return {
        "service.jobs_per_batch": (
            sum(sizes) / len(sizes) if sizes else 0.0, "count"),
        "service.queue_wait_ms": (median(waits) * 1e3, "ms"),
        "service.exec_ms": (median(execs) * 1e3, "ms"),
        "service.submit_ms": (
            submit["total_s"] / submit["calls"] * 1e3 if submit else 0.0,
            "ms"),
        "loadgen.late_ms": (median(traced.late_s) * 1e3, "ms"),
    }


def crosscheck(tracer, traced, workload_name):
    """Largest relative gap between span-derived chain-stage times and
    the program's own stage timings (``generation_end.kernel_timings``
    on ga-campaign, ``chain_run.stage_times_s`` on sweep-study).

    Stage spans are inclusive (self plus children): the program times
    the whole ``stage.run`` call, so that is what must agree.
    """
    from bench_trace import CHAIN_STAGES

    program = {stage: 0.0 for stage in CHAIN_STAGES}
    if workload_name == "ga-campaign":
        spans = tracer.stage_totals(
            lambda request: str(request).startswith("gen-")
        )
        for event, _, rec in traced.events:
            if event == "generation_end" and rec.get("kernel_timings"):
                for stage in CHAIN_STAGES:
                    section = rec["kernel_timings"].get(f"chain.{stage}")
                    if section:
                        program[stage] += section["total_s"]
    elif workload_name == "sweep-study":
        spans = tracer.stage_totals()
        for event, _, rec in traced.events:
            if event == "chain_run":
                for stage, seconds in rec["stage_times_s"].items():
                    program[stage] += seconds
    else:
        return 0.0, []
    worst, failures = 0.0, []
    for stage in CHAIN_STAGES:
        gap = abs(spans[stage] - program[stage])
        rel = gap / program[stage] if program[stage] else 0.0
        worst = max(worst, rel)
        if gap > max(CROSSCHECK_REL_TOL * program[stage], CROSSCHECK_ABS_S):
            failures.append(
                f"chain.{stage}: spans {spans[stage]:.6f} s vs program "
                f"{program[stage]:.6f} s"
            )
    return worst, failures


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def reap_children() -> None:
    """Wait for every child process to end, including the resource
    tracker that shared-memory transport starts (it would otherwise
    outlive this process briefly)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class RequestIds:
    """Turns program events into span request ids for the traced run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.count = 0

    def __call__(self, record):
        event = record["event"]
        self.count += 1
        if event == "generation_start":
            self.tracer.request = f"gen-{self.count}"
        elif event == "generation_end":
            self.tracer.request = None
        elif event == "sweep_start":
            self.tracer.request = f"sweep-{self.count}"
        elif event == "ladder_step":
            self.tracer.request = f"step-{self.count}"
        elif event == "burst":
            self.tracer.set_thread_request(f"burst-{record['burst']}")
        elif event == "job_batched":
            self.tracer.request = record["batch_id"]


def load_references(path, size, workload):
    import bench_workloads as bw

    if not path.is_file():
        return None
    refs = json.loads(path.read_text(encoding="utf-8")).get(size, {})
    return refs if workload.seed == bw.DEFAULT_SEED else None


def record(args, workload):
    """Store the outputs of the rounds a run checks against: identical
    rounds need one, fresh-input rounds one per round a run can reach."""
    import bench_workloads as bw

    rounds = RECORD_ROUNDS if workload.distinct_rounds else 1
    m = workload.measure(workload.setup(), rounds=rounds)
    workload.close()
    refs = {}
    if args.references.is_file():
        refs = json.loads(args.references.read_text(encoding="utf-8"))
    refs.setdefault(args.size, {})[workload.name] = bw.jsonable(m.outputs)
    args.references.write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"# recorded {workload.name} ({args.size}) in {args.references}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    import bench_workloads as bw
    from bench_trace import Tracer

    imported = time.perf_counter()
    workload = bw.WORKLOADS[args.workload](args.seed, args.size)
    if args.record:
        if args.seed != bw.DEFAULT_SEED or args.workload in (
            "ga-workers", "service-burst"
        ):
            raise SystemExit("error: --record needs the default seed and a "
                             "workload with recorded references")
        return record(args, workload)

    speed = bw.HostSpeed()
    before = speed.sample()
    setups = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            workload.discard(state)
    setup_s = ((imported - T_START) + bw.median(setups)) * speed.factor(
        before, speed.sample()
    )

    tracer = None
    if args.trace:
        untraced = workload.measure(
            state, deadline=time.perf_counter() + args.seconds / 2
        )
        workload.discard(state)
        tracer = Tracer()
        workload.on_event = RequestIds(tracer)
        tracer.install()
        try:
            state = workload.setup()
            m = workload.measure(state, rounds=untraced.rounds)
        finally:
            tracer.uninstall()
            workload.on_event = None
    else:
        m = workload.measure(state, deadline=time.perf_counter() + args.seconds)

    references = load_references(args.references, args.size, workload)
    failures = workload.check(m, references, state)
    workload.close()
    reap_children()

    e2e, notes = end_to_end(untraced if args.trace else m, setup_s, bw.median)
    for name, (value, unit) in e2e.items():
        print(f"# {name:<28} {value:14.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    metrics = e2e
    if args.trace:
        metrics = per_layer(tracer, m, untraced, bw.median)
        worst, gaps = crosscheck(tracer, m, workload.name)
        metrics["trace.crosscheck_rel_err"] = (worst, "ratio")
        failures += [(-1, f"trace cross-check: {gap}") for gap in gaps]
        for name, (value, unit) in metrics.items():
            print(f"# {name:<28} {value:14.6g} {unit}")
        out = TRACE_DIR / f"{workload.name}-seed{args.seed}.json"
        tracer.write(out)
        print(f"# spans written to {out.relative_to(ROOT)}")
    if references is None and args.workload in ("ga-campaign", "sweep-study",
                                                "vmin-ladder"):
        print("# no reference for this seed: checked round-to-round "
              "identity and seed-independent properties only")

    failed_rounds = {r for r, _ in failures}
    failed = m.failed_ops + sum(
        count for r, count in enumerate(m.ops_per_round)
        if r in failed_rounds
    ) + (1 if -1 in failed_rounds else 0)
    for _, message in failures[:20]:
        print(f"# CHECK FAILED: {message}")
    result = {
        "correct": not failures and not m.failed_ops,
        "attempted": max(1, len(m.ops)),
        "failed": min(failed, max(1, len(m.ops))),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
