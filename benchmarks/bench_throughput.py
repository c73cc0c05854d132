"""Throughput benchmark for the vectorized evaluation kernels.

Times the optimized kernels against their preserved ``*_reference``
implementations and the parallel GA against its serial baseline, then
writes the results to ``BENCH_eval_engine.json``:

* ``schedule`` -- :meth:`Pipeline.execute` vs ``execute_reference``
  (not like-for-like: ``execute`` stops simulating once the machine
  state repeats, the reference simulates every iteration)
* ``trace`` -- :meth:`CurrentModel.trace` vs ``trace_reference``
* ``combined`` -- the full schedule+trace evaluation path (the GA's
  per-individual hot loop); target >= 5x
* ``transient`` -- :meth:`TransientSolver.run` vs ``run_reference``
* ``ga`` -- GA generation wall-clock at ``--workers`` vs serial,
  measured against a *pre-warmed* persistent worker pool: pool spawn,
  worker session warm-up and one untimed warm-up generation run first
  and are reported separately as ``ga.warmup_s`` (``ga.serial_warmup_s``
  for the serial leg), so ``ga.parallel_s`` is pure steady-state
  dispatch.  Target >= 2x at 4 workers *on a machine with >= 4 cores*
  (the JSON records the host's full ``cpu_count``, the
  scheduler-visible ``usable_cpus`` and the worker count actually
  used, so small-runner numbers are interpretable)
* ``islands`` -- 2-island ring campaign (``--workers // 2`` workers
  per island, migration every generation) vs one serial engine over
  the same total population; target >= 1.3x on >= 4 cores

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.cpu.arm import ARM_ISA
from repro.cpu.current import CurrentModel
from repro.cpu.pipeline import InOrderPipeline, OutOfOrderPipeline
from repro.cpu.program import LoopProgram, random_program
from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import FitnessEvaluation
from repro.pdn.elements import CurrentSource
from repro.pdn.models import CORTEX_A72_PDN, PDNModel
from repro.pdn.transient import TransientSolver


def _time(fn, repeats: int) -> float:
    """Best-of-N wall-clock for one call of ``fn``."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_pair(fast, slow, repeats: int) -> dict:
    ref_s = _time(slow, repeats)
    opt_s = _time(fast, repeats)
    return {
        "reference_s": ref_s,
        "optimized_s": opt_s,
        "speedup": ref_s / opt_s if opt_s > 0 else float("inf"),
    }


def bench_kernels(quick: bool) -> dict:
    """Schedule + trace microbenchmarks (the GA's evaluation path)."""
    rng = np.random.default_rng(7)
    programs = [
        random_program(ARM_ISA, 50, rng, name=f"bench{i}")
        for i in range(2 if quick else 8)
    ]
    pipes = [OutOfOrderPipeline(), InOrderPipeline()]
    model = CurrentModel()
    iterations = 16
    repeats = 3 if quick else 10

    def run_execute(ref: bool):
        for pipe in pipes:
            for prog in programs:
                if ref:
                    pipe.execute_reference(prog, iterations)
                else:
                    pipe.execute(prog, iterations)

    def run_trace(ref: bool):
        for sched in schedules:
            if ref:
                model.trace_reference(sched)
            else:
                model.trace(sched)

    def run_combined(ref: bool):
        for pipe in pipes:
            for prog in programs:
                if ref:
                    issue = pipe.execute_reference(prog, iterations)
                    # steady_schedule itself is cheap bookkeeping; reuse
                    # it so both paths share the extraction logic.
                    sched = pipe.steady_schedule(prog, iterations)
                    model.trace_reference(sched)
                else:
                    sched = pipe.steady_schedule(prog, iterations)
                    model.trace(sched)

    schedules = [
        pipe.steady_schedule(prog, iterations)
        for pipe in pipes
        for prog in programs
    ]
    return {
        "schedule": _bench_pair(
            lambda: run_execute(False), lambda: run_execute(True), repeats
        ),
        "trace": _bench_pair(
            lambda: run_trace(False), lambda: run_trace(True), repeats
        ),
        "combined": _bench_pair(
            lambda: run_combined(False), lambda: run_combined(True), repeats
        ),
    }


def bench_transient(quick: bool) -> dict:
    """Transient solver on the Cortex-A72 PDN with a square-wave load."""
    circuit = PDNModel(CORTEX_A72_PDN).build_circuit(powered_cores=2)
    period = 1.0 / 80e6

    def load(t: float) -> float:
        return 2.0 if (t % period) < period / 2 else 0.5

    circuit.add(CurrentSource("iload", "die", "0", current=load))
    solver = TransientSolver(circuit, dt=0.25e-9)
    duration = 100e-9 if quick else 400e-9
    repeats = 2 if quick else 5
    return _bench_pair(
        lambda: solver.run(duration),
        lambda: solver.run_reference(duration),
        repeats,
    )


class _KernelFitness:
    """Pure, picklable fitness: schedule + trace of the individual.

    Stands in for the full measurement chain so the GA benchmark
    isolates the dispatch overhead; module-level so worker processes
    can unpickle it.
    """

    def __init__(self) -> None:
        self._pipe = OutOfOrderPipeline()
        self._model = CurrentModel()

    def __call__(self, program: LoopProgram) -> FitnessEvaluation:
        sched = self._pipe.steady_schedule(program, iterations=16)
        trace = self._model.trace(sched)
        score = float(np.ptp(trace))
        return FitnessEvaluation(
            score=score,
            dominant_frequency_hz=0.0,
            max_droop_v=0.0,
            peak_to_peak_v=score,
            ipc=len(sched.program.body) / sched.cycles,
            loop_frequency_hz=0.0,
        )


def bench_ga(quick: bool, workers: int) -> dict:
    """GA generation wall-clock: serial vs ``workers`` processes.

    Each leg builds its persistent evaluator up front and runs one
    untimed warm-up generation (pool spawn + worker warm-up + first
    dispatch), so the timed region measures steady-state throughput --
    what a long campaign actually experiences -- with start-up cost
    reported as its own field.
    """
    base = dict(
        population_size=16 if quick else 32,
        generations=3 if quick else 6,
        loop_length=40,
        seed=11,
    )

    def run(n: int):
        from repro.ga.parallel import ParallelEvaluator

        fitness = _KernelFitness()
        evaluator = ParallelEvaluator(fitness, n)
        t0 = time.perf_counter()
        evaluator.warm_up()
        GAEngine(
            fitness, config=GAConfig(workers=n, **{**base, "generations": 1})
        ).run(ARM_ISA, evaluator=evaluator)
        warmup_s = time.perf_counter() - t0
        engine = GAEngine(fitness, config=GAConfig(workers=n, **base))
        t0 = time.perf_counter()
        engine.run(ARM_ISA, evaluator=evaluator)
        timed_s = time.perf_counter() - t0
        evaluator.close()
        return warmup_s, timed_s

    serial_warmup_s, serial_s = run(1)
    warmup_s, parallel_s = run(workers)
    return {
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "warmup_s": warmup_s,
        "serial_warmup_s": serial_warmup_s,
        "workers": workers,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
    }


def bench_islands(quick: bool, workers: int) -> dict:
    """Island campaign wall-clock: 2-island ring vs one serial engine.

    Both legs run the same total population and generation count; the
    island leg splits it across two islands with ``workers // 2``
    workers each (ring migration every generation), so the speedup
    measures what sharding the campaign buys over serial dispatch.
    Pools are pre-warmed and one untimed campaign runs first, so the
    timed region is steady-state -- warm-up is reported separately.
    """
    from repro.ga.islands import IslandConfig, IslandGAEngine

    base = dict(
        population_size=16 if quick else 32,
        generations=3 if quick else 6,
        loop_length=40,
        seed=11,
    )
    per_island = max(1, workers // 2)

    fitness = _KernelFitness()
    t0 = time.perf_counter()
    serial = GAEngine(fitness, config=GAConfig(workers=1, **base))
    serial.run(ARM_ISA)  # untimed warm-up campaign
    serial_warmup_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    serial.run(ARM_ISA)
    serial_s = time.perf_counter() - t0

    engine = IslandGAEngine(
        _KernelFitness(),
        GAConfig(workers=per_island, **base),
        IslandConfig(islands=2, topology="ring", migration_interval=1),
    )
    with engine:
        t0 = time.perf_counter()
        engine.warm_up()
        engine.run(ARM_ISA)  # untimed warm-up campaign
        warmup_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        engine.run(ARM_ISA)
        island_s = time.perf_counter() - t0

    return {
        "serial_s": serial_s,
        "island_s": island_s,
        "warmup_s": warmup_s,
        "serial_warmup_s": serial_warmup_s,
        "islands": 2,
        "workers_per_island": per_island,
        "speedup": serial_s / island_s if island_s > 0 else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem sizes (CI smoke run)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker count for the GA benchmark",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: <repo>/BENCH_eval_engine.json)",
    )
    args = parser.parse_args(argv)

    out = Path(
        args.out
        or Path(__file__).resolve().parent.parent / "BENCH_eval_engine.json"
    )
    affinity = getattr(os, "sched_getaffinity", None)
    report = {
        "benchmark": "eval_engine",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        # CPUs this process may actually be scheduled onto (container
        # cpusets / taskset make this smaller than the host count).
        "usable_cpus": (
            len(affinity(0)) if affinity is not None else os.cpu_count()
        ),
        "targets": {
            "combined_kernel_speedup": 5.0,
            "ga_speedup": 2.0,
            "islands_speedup": 1.3,
        },
    }
    print("benchmarking schedule/trace kernels ...", file=sys.stderr)
    report.update(bench_kernels(args.quick))
    print("benchmarking transient solver ...", file=sys.stderr)
    report["transient"] = bench_transient(args.quick)
    print(f"benchmarking GA at workers={args.workers} ...", file=sys.stderr)
    report["ga"] = bench_ga(args.quick, args.workers)
    print("benchmarking 2-island ring campaign ...", file=sys.stderr)
    report["islands"] = bench_islands(args.quick, args.workers)

    out.write_text(json.dumps(report, indent=2) + "\n")
    for key in (
        "schedule", "trace", "combined", "transient", "ga", "islands"
    ):
        entry = report[key]
        print(f"{key:>10}: {entry['speedup']:.2f}x")
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
