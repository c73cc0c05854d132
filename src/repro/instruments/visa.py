"""SCPI-style facade over the simulated instruments.

The paper's workstation drives the spectrum analyzer over an instrument
bus (the pyvisa pattern).  This module offers the same ergonomics so
that orchestration code is written exactly as it would be against real
hardware: open a resource manager, look up an instrument by address,
``write``/``query`` SCPI strings.  Swapping in real pyvisa resources
requires no changes to callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.em.radiation import EmissionSpectrum
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer, check_span


class ScpiError(Exception):
    """Unknown or malformed SCPI command."""


@dataclass
class ScpiInstrument:
    """A spectrum analyzer exposed through a minimal SCPI dialect.

    Supported commands (case-insensitive):

    - ``*IDN?`` -- identification string.
    - ``FREQ:STAR <hz>`` / ``FREQ:STAR?`` -- sweep start.
    - ``FREQ:STOP <hz>`` / ``FREQ:STOP?`` -- sweep stop.
    - ``BAND:RES <hz>`` / ``BAND:RES?`` -- resolution bandwidth.
    - ``INIT; TRAC?`` -- perform a sweep, return comma-separated dBm.
    - ``CALC:MARK:MAX; CALC:MARK:X?; CALC:MARK:Y?`` -- peak marker.

    A setting write gets the analyzer's own span checks: a value they
    refuse raises :class:`ScpiError` and leaves the analyzer as it was.

    The emission under measurement is supplied by the test harness via
    :meth:`present_emission` (in hardware, the device under test simply
    radiates; here the harness wires the simulated DUT in).
    """

    identity: str = "Simulated,EM-SA,0001,1.0"
    analyzer: SpectrumAnalyzer = field(default_factory=SpectrumAnalyzer)

    def __post_init__(self) -> None:
        self._emission: Optional[EmissionSpectrum] = None
        self._last_trace = None
        self._marker: Optional[tuple] = None

    def present_emission(self, emission: EmissionSpectrum) -> None:
        """Point the antenna at a (simulated) radiating device."""
        self._emission = emission

    # ------------------------------------------------------------------
    def write(self, command: str) -> None:
        for part in command.split(";"):
            self._execute(part.strip())

    def query(self, command: str) -> str:
        parts = [p.strip() for p in command.split(";")]
        reply = ""
        for part in parts:
            reply = self._execute(part)
        if reply is None:
            raise ScpiError(f"command {command!r} returns no data")
        return reply

    # ------------------------------------------------------------------
    def _execute(self, command: str) -> Optional[str]:
        if not command:
            return None
        upper = command.upper()
        a = self.analyzer
        if upper == "*IDN?":
            return self.identity
        if upper.startswith("FREQ:STAR"):
            return self._number_cmd(upper, "FREQ:STAR", "start_hz", command)
        if upper.startswith("FREQ:STOP"):
            return self._number_cmd(upper, "FREQ:STOP", "stop_hz", command)
        if upper.startswith("BAND:RES"):
            return self._number_cmd(upper, "BAND:RES", "rbw_hz", command)
        if upper == "INIT":
            if self._emission is None:
                raise ScpiError("no device under test presented")
            self._last_trace = a.sweep(self._emission)
            return None
        if upper == "TRAC?":
            self._require_trace()
            return ",".join(f"{x:.2f}" for x in self._last_trace.power_dbm)
        if upper == "CALC:MARK:MAX":
            self._require_trace()
            self._marker = self._last_trace.peak()
            return None
        if upper == "CALC:MARK:X?":
            self._require_marker()
            return f"{self._marker[0]:.1f}"
        if upper == "CALC:MARK:Y?":
            self._require_marker()
            return f"{self._marker[1]:.2f}"
        raise ScpiError(f"unknown command {command!r}")

    def _number_cmd(
        self, upper: str, prefix: str, attr: str, raw: str
    ) -> Optional[str]:
        rest = upper[len(prefix):].strip()
        if rest == "?":
            return f"{getattr(self.analyzer, attr):.1f}"
        try:
            value = float(raw[len(prefix):].strip())
        except ValueError:
            raise ScpiError(f"bad numeric argument in {raw!r}") from None
        a = self.analyzer
        span = dict(start_hz=a.start_hz, stop_hz=a.stop_hz, rbw_hz=a.rbw_hz)
        span[attr] = value
        try:
            check_span(**span)
        except ValueError as err:
            raise ScpiError(f"{raw!r} refused: {err}") from None
        setattr(a, attr, value)
        return None

    def _require_trace(self) -> None:
        if self._last_trace is None:
            raise ScpiError("no sweep taken; send INIT first")

    def _require_marker(self) -> None:
        if self._marker is None:
            raise ScpiError("no marker set; send CALC:MARK:MAX first")


class SimulatedResourceManager:
    """pyvisa-like resource manager over simulated instruments."""

    def __init__(self) -> None:
        self._resources: Dict[str, ScpiInstrument] = {}

    def register(self, address: str, instrument: ScpiInstrument) -> None:
        self._resources[address] = instrument

    def list_resources(self) -> tuple:
        return tuple(sorted(self._resources))

    def open_resource(self, address: str) -> ScpiInstrument:
        try:
            return self._resources[address]
        except KeyError:
            raise ScpiError(f"no instrument at {address!r}") from None
