"""Workstation/target orchestration (Section 3.2).

In the paper, the GA runs on a workstation; each individual's source is
shipped to the target machine over SSH, compiled and executed there,
measured from the workstation through the instrument, and finally
killed.  This module reproduces that control flow against the simulated
platform so the framework structure survives a swap to real hardware:
``Workstation.evaluate`` performs exactly the send -> compile -> run ->
measure -> kill sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.chain import ChainItemResult
from repro.cpu.program import LoopProgram
from repro.platforms.base import Cluster


class TargetError(Exception):
    """Compilation or execution failure on the target machine."""


@dataclass
class CompiledBinary:
    """Handle to a compiled individual on the target."""

    binary_id: int
    program: LoopProgram


class SimulatedTarget:
    """The device under test's software side: compile, run, kill.

    ``run`` starts steady-state execution of the binary's loop on the
    given cluster; the 'process' stays conceptually running until
    ``kill`` -- measurements sample the steady state in between, which
    is how the spectrum analyzer sees a stable line spectrum.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._ids = itertools.count(1)
        self._running: Dict[int, ChainItemResult] = {}

    def compile(self, program: LoopProgram) -> CompiledBinary:
        """'Compile' the individual: validate it against the target ISA."""
        if program.isa.name.split("-")[0] != (
            self.cluster.spec.isa.name.split("-")[0]
        ):
            raise TargetError(
                f"program targets {program.isa.name}, cluster runs "
                f"{self.cluster.spec.isa.name}"
            )
        return CompiledBinary(binary_id=next(self._ids), program=program)

    def run(
        self, binary: CompiledBinary, active_cores: Optional[int] = None
    ) -> ChainItemResult:
        """Launch the binary; returns the steady-state execution."""
        run = self.cluster.run(binary.program, active_cores=active_cores)
        self._running[binary.binary_id] = run
        return run

    def kill(self, binary: CompiledBinary) -> None:
        """Terminate the binary's execution."""
        self._running.pop(binary.binary_id, None)

    @property
    def running_count(self) -> int:
        return len(self._running)


class MeasurementError(Exception):
    """Transient instrument/transport failure during a measurement."""


@dataclass
class Workstation:
    """The optimization host driving a target and an instrument.

    Long GA runs on real hardware hit transient failures -- an SSH
    timeout, a GPIB hiccup -- so measurement is retried up to
    ``retries`` times (each retry restarts the binary: the measurement
    must observe a running steady state).  Only
    :class:`MeasurementError` is retried; programming errors propagate.
    """

    target: SimulatedTarget
    measure: Callable[[ChainItemResult], float]
    log: Optional[Callable[[str], None]] = None
    retries: int = 2

    def evaluate(
        self, program: LoopProgram, active_cores: Optional[int] = None
    ) -> float:
        """Full remote-evaluation sequence for one individual."""
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            binary = self.target.compile(program)
            run = self.target.run(binary, active_cores=active_cores)
            try:
                score = self.measure(run)
            except MeasurementError as exc:
                last_error = exc
                if self.log is not None:
                    self.log(
                        f"{program.name}: measurement failed "
                        f"(attempt {attempt + 1}): {exc}"
                    )
                continue
            finally:
                self.target.kill(binary)
            if self.log is not None:
                self.log(f"{program.name}: score={score:.4g}")
            return score
        raise MeasurementError(
            f"measurement failed after {self.retries + 1} attempts"
        ) from last_error
