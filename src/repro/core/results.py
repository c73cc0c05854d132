"""Result containers for the characterization API.

Every result returned by a ``.run(ctx)`` entry point mixes in
:class:`JsonResultMixin`: one ``to_payload()`` plus a
``to_json()/from_json()`` pair, shared across :class:`GARunSummary`,
:class:`MeasurementResult` and
:class:`repro.core.resonance.SweepResult`, so run artifacts of every
experiment kind round-trip the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cpu.program import LoopProgram
from repro.ga.engine import GAResult
from repro.instruments.spectrum_analyzer import SpectrumTrace

RESULT_SCHEMA_VERSION = 1


class JsonResultMixin:
    """Common JSON round-trip for experiment results.

    Subclasses implement ``to_dict``/``from_dict``; the mixin supplies
    ``to_payload`` (the tagged dict) and ``to_json``/``from_json``,
    with a ``kind`` tag checked on load so a sweep result cannot be
    silently parsed as a GA summary.
    """

    kind: str = "result"

    def to_dict(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):  # pragma: no cover
        raise NotImplementedError

    def to_payload(self) -> Dict[str, Any]:
        """The tagged result as plain data: only dict, list, str, int,
        float, bool and None, so it equals its own JSON round trip."""
        return {
            "result_version": RESULT_SCHEMA_VERSION,
            "kind": self.kind,
            **self.to_dict(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_payload(), indent=indent)

    @classmethod
    def from_json(cls, text: str):
        data = json.loads(text)
        kind = data.pop("kind", None)
        if kind is not None and kind != cls.kind:
            raise ValueError(
                f"expected result kind {cls.kind!r}, got {kind!r}"
            )
        version = data.pop("result_version", RESULT_SCHEMA_VERSION)
        if version != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result version {version!r}"
            )
        return cls.from_dict(data)


@dataclass
class GARunSummary(JsonResultMixin):
    """A finished GA virus-generation run plus its headline numbers."""

    cluster_name: str
    metric: str
    ga_result: GAResult
    virus: LoopProgram
    dominant_frequency_hz: float
    max_droop_v: float
    peak_to_peak_v: float
    ipc: float
    loop_frequency_hz: float
    loop_period_s: float

    kind = "ga-run-summary"

    @property
    def generations(self) -> int:
        return len(self.ga_result.history)

    def to_dict(self) -> Dict[str, Any]:
        from repro.io.serialization import (
            ga_result_to_dict,
            program_to_dict,
        )

        return {
            "cluster_name": self.cluster_name,
            "metric": self.metric,
            "dominant_frequency_hz": self.dominant_frequency_hz,
            "max_droop_v": self.max_droop_v,
            "peak_to_peak_v": self.peak_to_peak_v,
            "ipc": self.ipc,
            "loop_frequency_hz": self.loop_frequency_hz,
            "loop_period_s": self.loop_period_s,
            "virus": program_to_dict(self.virus),
            "ga_result": ga_result_to_dict(self.ga_result),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GARunSummary":
        from repro.io.serialization import (
            ga_result_from_dict,
            program_from_dict,
        )

        return cls(
            cluster_name=data["cluster_name"],
            metric=data["metric"],
            ga_result=ga_result_from_dict(data["ga_result"]),
            virus=program_from_dict(data["virus"]),
            dominant_frequency_hz=float(data["dominant_frequency_hz"]),
            max_droop_v=float(data["max_droop_v"]),
            peak_to_peak_v=float(data["peak_to_peak_v"]),
            ipc=float(data["ipc"]),
            loop_frequency_hz=float(data["loop_frequency_hz"]),
            loop_period_s=float(data["loop_period_s"]),
        )

    def convergence_table(self) -> List[Tuple[int, float, float, float]]:
        """(generation, score, droop, dominant MHz) rows -- Fig. 7 data."""
        return [
            (
                r.generation,
                r.best.score,
                r.best.max_droop_v,
                r.best.dominant_frequency_hz / 1e6,
            )
            for r in self.ga_result.history
        ]


@dataclass
class MeasurementResult(JsonResultMixin):
    """One banded EM measurement of a program running on a cluster.

    Returned by :meth:`repro.core.characterizer.EMCharacterizer.run`;
    carries the headline numbers plus the full analyzer trace so the
    spectrum figure can be re-rendered from the archived JSON.
    """

    cluster_name: str
    program_name: str
    amplitude_w: float
    peak_frequency_hz: float
    loop_frequency_hz: float
    band_hz: Tuple[float, float]
    frequencies_hz: np.ndarray
    power_dbm: np.ndarray

    kind = "em-measurement"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cluster_name": self.cluster_name,
            "program_name": self.program_name,
            "amplitude_w": self.amplitude_w,
            "peak_frequency_hz": self.peak_frequency_hz,
            "loop_frequency_hz": self.loop_frequency_hz,
            "band_hz": list(self.band_hz),
            "frequencies_hz": np.asarray(self.frequencies_hz).tolist(),
            "power_dbm": np.asarray(self.power_dbm).tolist(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MeasurementResult":
        return cls(
            cluster_name=data["cluster_name"],
            program_name=data.get("program_name", ""),
            amplitude_w=float(data["amplitude_w"]),
            peak_frequency_hz=float(data["peak_frequency_hz"]),
            loop_frequency_hz=float(data["loop_frequency_hz"]),
            band_hz=tuple(data["band_hz"]),
            frequencies_hz=np.asarray(data["frequencies_hz"], dtype=float),
            power_dbm=np.asarray(data["power_dbm"], dtype=float),
        )


@dataclass
class MultiDomainSpectrum:
    """One spectrum-analyzer sweep covering several voltage domains.

    ``domain_peaks`` maps cluster name -> (frequency, dBm) of that
    domain's signature spike in the combined trace (Fig. 15).
    """

    trace: SpectrumTrace
    domain_peaks: Dict[str, Tuple[float, float]] = field(
        default_factory=dict
    )

    def visible_domains(self, floor_margin_db: float = 6.0) -> List[str]:
        """Domains whose signature rises clearly above the noise floor."""
        floor = float(np.median(self.trace.power_dbm))
        return [
            name
            for name, (_, dbm) in self.domain_peaks.items()
            if dbm > floor + floor_margin_db
        ]
