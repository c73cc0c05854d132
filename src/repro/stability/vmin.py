"""The V_MIN test harness (Section 5.2).

Each experiment starts at a high supply voltage and lowers it in fixed
steps (10 mV on the ARM platforms).  At every step the workload runs to
completion and its output is checked against a golden reference taken
at nominal voltage; the harness records the highest voltage at which
*any* deviation -- SDC, application crash or system crash -- appears,
and stops at the system crash.  For statistical confidence the paper
repeats the test 30 times per virus and twice per benchmark; the
reported V_MIN is the highest deviation voltage seen across repeats.

On hardware the repeats differ because the failure point is random.
Here the rail response at a rung depends only on the workload and the
operating point, and only the failure classification draws random
numbers, so an experiment runs inside a :meth:`Cluster.memoized` scope
and solves each rung once, however many descents pass it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.platforms.base import Cluster
from repro.stability.failure import CriticalVoltageModel, Outcome
from repro.workloads.base import Workload

#: Lowest supply voltage a descent tries before it gives up.
DEFAULT_FLOOR_V = 0.5


@dataclass
class VminResult:
    """Outcome of the repeated progressive-undervolting experiment."""

    workload_name: str
    vmin: float
    crash_voltage: float
    max_droop_at_nominal: float
    peak_to_peak_at_nominal: float
    outcomes: List[List[Tuple[float, Outcome]]] = field(default_factory=list)

    @property
    def repeats(self) -> int:
        return len(self.outcomes)

    def margin_from(self, nominal_voltage: float) -> float:
        """Voltage margin = nominal - V_MIN (Table 2's last column)."""
        return nominal_voltage - self.vmin


def check_repeat_counts(virus_repeats: int, benchmark_repeats: int) -> None:
    """Raise ``ValueError`` if either repeat count of
    :meth:`VminTester.compare` is below 1."""
    for name, repeats in (
        ("virus_repeats", virus_repeats),
        ("benchmark_repeats", benchmark_repeats),
    ):
        if repeats < 1:
            raise ValueError(f"{name} must be >= 1")


def check_workload_names(names: Sequence[str]) -> None:
    """Raise ``ValueError`` if ``names`` is empty or repeats a name:
    :meth:`VminTester.compare` keys its results by workload name."""
    if not names:
        raise ValueError("workloads must name at least one workload")
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"workloads must not list {name!r} twice")
        seen.add(name)


def check_descent(
    start_v: float, step_v: float, floor_v: float = DEFAULT_FLOOR_V
) -> None:
    """Raise ``ValueError`` unless a descent from ``start_v`` in steps
    of ``step_v`` tests at least one voltage below ``start_v`` before it
    reaches ``floor_v``.

    A non-finite step, or one that jumps below the floor, leaves a
    ladder of one rung: it tests nothing but the start voltage.
    """
    if not (math.isfinite(step_v) and step_v > 0.0):
        raise ValueError("step_v must be positive and finite")
    if start_v - step_v < floor_v:
        raise ValueError(
            f"step_v must leave a second rung: {start_v:g} V - "
            f"{step_v:g} V is below the {floor_v:g} V floor"
        )


class VminTester:
    """Runs V_MIN experiments on a cluster with a failure model.

    ``step_v`` and ``seed`` are checked here, against the default
    descent from nominal voltage, so a bad value fails before any
    ladder runs.
    """

    def __init__(
        self,
        cluster: Cluster,
        failure_model: CriticalVoltageModel,
        step_v: float = 0.010,
        seed: int = 0,
    ):
        check_descent(cluster.spec.nominal_voltage, step_v)
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.cluster = cluster
        self.failure_model = failure_model
        self.step_v = step_v
        self._rng = np.random.default_rng(seed)

    def _single_descent(
        self,
        workload: Workload,
        start_v: float,
        floor_v: float,
        active_cores: Optional[int],
    ) -> List[Tuple[float, Outcome]]:
        """One descent: lower V until system crash (or the floor)."""
        log: List[Tuple[float, Outcome]] = []
        voltage = start_v
        while voltage >= floor_v:
            self.cluster.set_voltage(voltage)
            run = workload.run(self.cluster, active_cores=active_cores)
            outcome = self.failure_model.classify(
                run.min_voltage, self.cluster.clock_hz, self._rng
            )
            log.append((voltage, outcome))
            if outcome is Outcome.SYSTEM_CRASH:
                break
            voltage = round(voltage - self.step_v, 6)
        return log

    def run(
        self,
        workload: Workload,
        repeats: int = 2,
        start_v: Optional[float] = None,
        floor_v: float = DEFAULT_FLOOR_V,
        active_cores: Optional[int] = None,
    ) -> VminResult:
        """Full experiment: ``repeats`` descents, worst-case V_MIN.

        The nominal run and every descent share one
        :meth:`Cluster.memoized` scope, so each rung is solved once.
        Restores the cluster's previous voltage afterwards.
        """
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        saved_voltage = self.cluster.voltage
        start = start_v if start_v is not None else (
            self.cluster.spec.nominal_voltage
        )
        check_descent(start, self.step_v, floor_v)
        with self.cluster.memoized():
            try:
                # Reference measurement at nominal voltage.
                self.cluster.set_voltage(self.cluster.spec.nominal_voltage)
                nominal_run = workload.run(
                    self.cluster, active_cores=active_cores
                )
                droop = nominal_run.max_droop
                p2p = nominal_run.peak_to_peak

                all_logs = []
                deviations: List[float] = []
                crashes: List[float] = []
                for _ in range(repeats):
                    log = self._single_descent(
                        workload, start, floor_v, active_cores
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
                self.cluster.set_voltage(saved_voltage)
        return VminResult(
            workload_name=workload.name,
            vmin=vmin,
            crash_voltage=crash_v,
            max_droop_at_nominal=droop,
            peak_to_peak_at_nominal=p2p,
            outcomes=all_logs,
        )

    def compare(
        self,
        workloads: List[Workload],
        virus_repeats: int = 30,
        benchmark_repeats: int = 2,
        virus_names: Tuple[str, ...] = (),
        active_cores: Optional[int] = None,
    ) -> Dict[str, VminResult]:
        """V_MIN for a workload set (the Fig. 10/14/18 experiments).

        Viruses get more repeats than benchmarks, mirroring the paper's
        30-vs-2 protocol.  Both counts and the workload names are
        checked before any ladder runs.
        """
        check_repeat_counts(virus_repeats, benchmark_repeats)
        check_workload_names([workload.name for workload in workloads])
        results: Dict[str, VminResult] = {}
        for workload in workloads:
            repeats = (
                virus_repeats
                if workload.name in virus_names
                else benchmark_repeats
            )
            results[workload.name] = self.run(
                workload, repeats=repeats, active_cores=active_cores
            )
        return results
