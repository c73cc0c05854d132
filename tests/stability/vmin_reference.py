"""Reference V_MIN ladder: ``VminTester.run`` without a memo scope.

Before ``VminTester.run`` opened a ``Cluster.memoized`` scope, every
step of every descent ran the workload afresh through the chain (or
``run_trace``).  That loop lives on here as functions of a cluster, a
failure model and an RNG, so the memoized ladder can be pinned bit for
bit against one that solves every rung every time it is visited.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stability.failure import Outcome
from repro.stability.vmin import DEFAULT_FLOOR_V, VminResult


def _reference_descent(
    cluster,
    failure_model,
    rng: np.random.Generator,
    workload,
    start_v: float,
    floor_v: float,
    step_v: float,
    active_cores: Optional[int],
) -> List[Tuple[float, Outcome]]:
    log: List[Tuple[float, Outcome]] = []
    voltage = start_v
    while voltage >= floor_v:
        cluster.set_voltage(voltage)
        run = workload.run(cluster, active_cores=active_cores)
        outcome = failure_model.classify(
            run.min_voltage, cluster.clock_hz, rng
        )
        log.append((voltage, outcome))
        if outcome is Outcome.SYSTEM_CRASH:
            break
        voltage = round(voltage - step_v, 6)
    return log


def reference_vmin(
    cluster,
    failure_model,
    rng: np.random.Generator,
    workload,
    repeats: int = 2,
    step_v: float = 0.010,
    start_v: Optional[float] = None,
    floor_v: float = DEFAULT_FLOOR_V,
    active_cores: Optional[int] = None,
) -> VminResult:
    """``VminTester.run`` as it was before its memo scope."""
    assert cluster._memo is None, "the reference must not be memoized"
    saved_voltage = cluster.voltage
    start = start_v if start_v is not None else (
        cluster.spec.nominal_voltage
    )
    try:
        cluster.set_voltage(cluster.spec.nominal_voltage)
        nominal_run = workload.run(cluster, active_cores=active_cores)
        droop = nominal_run.max_droop
        p2p = nominal_run.peak_to_peak
        all_logs = []
        deviations: List[float] = []
        crashes: List[float] = []
        for _ in range(repeats):
            log = _reference_descent(
                cluster, failure_model, rng, workload, start, floor_v,
                step_v, active_cores,
            )
            all_logs.append(log)
            for v, outcome in log:
                if outcome.is_deviation:
                    deviations.append(v)
                if outcome is Outcome.SYSTEM_CRASH:
                    crashes.append(v)
        vmin = max(deviations) if deviations else float("nan")
        crash_v = max(crashes) if crashes else float("nan")
    finally:
        cluster.set_voltage(saved_voltage)
    return VminResult(
        workload_name=workload.name,
        vmin=vmin,
        crash_voltage=crash_v,
        max_droop_at_nominal=droop,
        peak_to_peak_at_nominal=p2p,
        outcomes=all_logs,
    )


def reference_compare(
    cluster,
    failure_model,
    seed: int,
    workloads: Sequence,
    virus_repeats: int = 30,
    benchmark_repeats: int = 2,
    virus_names: Tuple[str, ...] = (),
    step_v: float = 0.010,
) -> Dict[str, VminResult]:
    """``VminTester(..., seed=seed).compare`` without memo scopes."""
    rng = np.random.default_rng(seed)
    return {
        workload.name: reference_vmin(
            cluster,
            failure_model,
            rng,
            workload,
            repeats=(
                virus_repeats
                if workload.name in virus_names
                else benchmark_repeats
            ),
            step_v=step_v,
        )
        for workload in workloads
    }
