"""Continuous EM-based voltage-emergency monitoring.

Builds on two of the paper's observations:

- a single antenna hears every voltage domain at once (Section 6.1),
  and
- resonant voltage emergencies show up as a large EM spike in the
  first-order band,

which together give a non-intrusive production monitor: watch the
banded EM amplitude over time and raise an alarm when a workload starts
ringing the PDN -- whether that's an unlucky application phase or a
malicious dI/dt virus (the paper's future-work security angle).

Detection uses a robust baseline: the alarm threshold sits a fixed
number of dB above the running median of recent quiet samples, so slow
environmental drift doesn't trip it but a resonance spike does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain import ChainItemResult
from repro.core.characterizer import EMCharacterizer
from repro.platforms.base import Cluster
from repro.workloads.base import Workload


@dataclass
class MonitorSample:
    """One monitoring interval's observation."""

    index: int
    label: str
    amplitude_w: float
    amplitude_dbm: float
    alarm: bool


@dataclass
class MonitorLog:
    """Chronological record of a monitoring session."""

    samples: List[MonitorSample] = field(default_factory=list)

    def alarms(self) -> List[MonitorSample]:
        return [s for s in self.samples if s.alarm]

    def alarm_labels(self) -> List[str]:
        return [s.label for s in self.alarms()]


class EmergencyMonitor:
    """Threshold-over-baseline detector on the banded EM amplitude.

    Parameters
    ----------
    characterizer:
        The receive chain to observe through.
    margin_db:
        Alarm threshold above the quiet baseline.
    baseline_window:
        Number of most recent non-alarming samples forming the
        baseline median.
    samples_per_observation:
        Spectrum-analyzer sweeps averaged per observation.
    """

    def __init__(
        self,
        characterizer: Optional[EMCharacterizer] = None,
        margin_db: float = 12.0,
        baseline_window: int = 8,
        samples_per_observation: int = 5,
    ):
        if margin_db <= 0.0:
            raise ValueError("margin_db must be positive")
        if baseline_window < 2:
            raise ValueError("baseline_window must be >= 2")
        self.characterizer = characterizer or EMCharacterizer()
        self.margin_db = margin_db
        self.baseline_window = baseline_window
        self.samples_per_observation = samples_per_observation
        self._baseline: List[float] = []

    # ------------------------------------------------------------------
    def _amplitude_of(self, run: ChainItemResult) -> float:
        emission = self.characterizer.emission_of(run)
        return self.characterizer.analyzer.max_amplitude(
            emission,
            band=self.characterizer.band,
            samples=self.samples_per_observation,
        )

    def calibrate_baseline(
        self, cluster: Cluster, quiet_workloads: Sequence[Workload]
    ) -> float:
        """Prime the baseline with known-quiet workloads; returns it (dBm)."""
        for workload in quiet_workloads:
            run = workload.run(cluster)
            emission = self.characterizer.radiator.emission(run.response)
            amplitude = self.characterizer.analyzer.max_amplitude(
                emission,
                band=self.characterizer.band,
                samples=self.samples_per_observation,
            )
            self._baseline.append(amplitude)
        self._baseline = self._baseline[-self.baseline_window:]
        return self.baseline_dbm()

    def baseline_dbm(self) -> float:
        if not self._baseline:
            raise RuntimeError("baseline not calibrated")
        return 10.0 * np.log10(
            float(np.median(self._baseline)) / 1.0e-3
        )

    # ------------------------------------------------------------------
    def observe(
        self,
        cluster: Cluster,
        workload: Workload,
        index: int = 0,
    ) -> MonitorSample:
        """One monitoring interval: measure, compare, update baseline."""
        run = workload.run(cluster)
        emission = self.characterizer.radiator.emission(run.response)
        amplitude = self.characterizer.analyzer.max_amplitude(
            emission,
            band=self.characterizer.band,
            samples=self.samples_per_observation,
        )
        dbm = 10.0 * np.log10(amplitude / 1.0e-3)
        alarm = dbm > self.baseline_dbm() + self.margin_db
        if not alarm:
            self._baseline.append(amplitude)
            self._baseline = self._baseline[-self.baseline_window:]
        return MonitorSample(
            index=index,
            label=workload.name,
            amplitude_w=amplitude,
            amplitude_dbm=float(dbm),
            alarm=alarm,
        )

    def watch(
        self,
        cluster: Cluster,
        schedule: Sequence[Workload],
    ) -> MonitorLog:
        """Monitor a sequence of workload intervals."""
        log = MonitorLog()
        for i, workload in enumerate(schedule):
            log.samples.append(self.observe(cluster, workload, index=i))
        return log
