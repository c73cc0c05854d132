"""Fast resonance-frequency detection (Section 5.3).

A fixed high/low-current loop (eight ADDs, one DIV) radiates an EM
spike at its loop frequency.  Sweeping the CPU clock modulates the
loop frequency; the spike's amplitude is maximized when the loop
frequency crosses the PDN's first-order resonance.  The whole sweep
takes ~15 minutes on hardware versus many hours for a GA run, and
is the tool that exposes the power-gating resonance shifts of
Figs. 11, 13 and 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.chain import ChainItem, ChainRequest, OperatingPoint
from repro.core.characterizer import EMCharacterizer
from repro.core.results import JsonResultMixin
from repro.obs.context import RunContext
from repro.platforms.base import Cluster
from repro.workloads.loops import high_low_program


@dataclass
class SweepPoint:
    """One clock point of the sweep."""

    clock_hz: float
    loop_frequency_hz: float
    amplitude_w: float


@dataclass
class SweepResult(JsonResultMixin):
    """Outcome of a clock-modulated loop-frequency sweep."""

    cluster_name: str
    powered_cores: int
    points: List[SweepPoint]

    kind = "resonance-sweep"

    def resonance_hz(self) -> float:
        """Loop frequency with the maximum EM amplitude."""
        best = max(self.points, key=lambda p: p.amplitude_w)
        return best.loop_frequency_hz

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(loop_frequencies_hz, amplitudes) sorted by frequency."""
        pts = sorted(self.points, key=lambda p: p.loop_frequency_hz)
        return (
            np.array([p.loop_frequency_hz for p in pts]),
            np.array([p.amplitude_w for p in pts]),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cluster_name": self.cluster_name,
            "powered_cores": self.powered_cores,
            "points": [
                {
                    "clock_hz": p.clock_hz,
                    "loop_frequency_hz": p.loop_frequency_hz,
                    "amplitude_w": p.amplitude_w,
                }
                for p in self.points
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepResult":
        return cls(
            cluster_name=data["cluster_name"],
            powered_cores=int(data["powered_cores"]),
            points=[
                SweepPoint(
                    clock_hz=float(p["clock_hz"]),
                    loop_frequency_hz=float(p["loop_frequency_hz"]),
                    amplitude_w=float(p["amplitude_w"]),
                )
                for p in data["points"]
            ],
        )


def check_samples_per_point(samples_per_point: int) -> None:
    """Raise ``ValueError`` unless each sweep point averages at least one
    analyzer sample."""
    if samples_per_point < 1:
        raise ValueError("samples_per_point must be >= 1")


class ResonanceSweep:
    """Drives the fast sweep against a cluster through an EM receive chain."""

    def __init__(
        self,
        characterizer: EMCharacterizer,
        samples_per_point: int = 5,
    ):
        check_samples_per_point(samples_per_point)
        self.characterizer = characterizer
        self.samples_per_point = samples_per_point

    def run(
        self,
        target: RunContext,
        clocks_hz: Optional[Sequence[float]] = None,
        active_cores: Optional[int] = None,
    ) -> SweepResult:
        """Sweep the cluster clock and record the EM spike amplitude.

        ``target`` must be a :class:`repro.obs.context.RunContext`; the
        sweep runs against ``target.cluster`` and reports each point to
        ``target.event_log``.  (The pre-context bare-``Cluster``
        signature was removed; wrap the cluster:
        ``sweep.run(RunContext(cluster=cluster))``.)

        ``clocks_hz`` defaults to every multiplier-reachable point from
        nominal down (the paper steps the A72 from 1.2 GHz to 120 MHz
        in 20 MHz steps).  The whole sweep is one batched chain call --
        the cluster's clock is never mutated, each point carries its
        clock as a per-item operating point -- so K points share one
        schedule and at most one AC transfer-function analysis per
        distinct cluster state.
        """
        if not isinstance(target, RunContext):
            raise TypeError(
                "ResonanceSweep.run requires a repro.obs.RunContext; "
                "the bare-Cluster signature was removed -- wrap it: "
                "run(RunContext(cluster=...))"
            )
        cluster = target.cluster
        event_log = target.event_log
        if active_cores is None:
            active_cores = target.active_cores
        program = high_low_program(cluster.spec.isa)
        clocks = (
            list(clocks_hz)
            if clocks_hz is not None
            else list(cluster.spec.allowed_clocks_hz())
        )
        event_log.emit(
            "sweep_start",
            cluster=cluster.name,
            points=len(clocks),
            powered_cores=cluster.powered_cores,
            samples_per_point=self.samples_per_point,
        )
        characterizer = self.characterizer
        request = ChainRequest(
            cluster=cluster,
            items=[
                ChainItem(
                    program=program,
                    operating_point=OperatingPoint(clock_hz=clock),
                    active_cores=active_cores,
                )
                for clock in clocks
            ],
            band=characterizer.band,
            samples=self.samples_per_point,
            want_amplitude=True,
            want_trace=True,
        )
        chain_result = characterizer.chain_path().run(
            request, event_log=event_log
        )
        points: List[SweepPoint] = []
        for clock, item in zip(clocks, chain_result.items):
            points.append(
                SweepPoint(
                    clock_hz=clock,
                    loop_frequency_hz=item.loop_frequency_hz,
                    amplitude_w=item.amplitude_w,
                )
            )
            event_log.emit(
                "sweep_point",
                clock_hz=clock,
                loop_frequency_hz=item.loop_frequency_hz,
                amplitude_w=item.amplitude_w,
            )
        result = SweepResult(
            cluster_name=cluster.name,
            powered_cores=cluster.powered_cores,
            points=points,
        )
        event_log.emit(
            "sweep_end",
            cluster=cluster.name,
            resonance_hz=result.resonance_hz() if points else None,
            stage_times_s=chain_result.stage_times_s,
            cache_stats=chain_result.cache_stats,
        )
        return result

    def power_gating_study(
        self,
        target: Union[RunContext, Cluster],
        core_counts: Optional[Sequence[int]] = None,
        clocks_hz: Optional[Sequence[float]] = None,
    ) -> List[SweepResult]:
        """Sweep at several power-gating states (Figs. 8, 11, 13).

        Only the first core stays active in every state, so the load
        current is constant and amplitude differences isolate the PDN
        capacitance change -- the Section 6 experiment.
        """
        if isinstance(target, RunContext):
            ctx = target
        else:
            ctx = RunContext(cluster=target)
        cluster = ctx.cluster
        counts = (
            list(core_counts)
            if core_counts is not None
            else list(range(cluster.spec.num_cores, 0, -1))
        )
        saved = cluster.powered_cores
        results = []
        try:
            for count in counts:
                cluster.power_gate(count)
                results.append(
                    self.run(ctx, clocks_hz=clocks_hz, active_cores=1)
                )
        finally:
            cluster.power_gate(saved)
        return results
