"""Reference issue scheduler: the readable event-driven formulation.

``Pipeline.execute`` keeps all scheduler state in flat lists over the
packed program arrays and stops once the machine state repeats; it
must return exactly the array this reference gives by simulating every
iteration through a unit pool and a scoreboard.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cpu.isa import ExecutionUnit, Instruction, RegisterFile
from repro.cpu.pipeline import Pipeline
from repro.cpu.program import LoopProgram


class _UnitPool:
    """Tracks free times of the instances of each functional unit."""

    def __init__(self, counts: Dict[ExecutionUnit, int]):
        self._free: Dict[ExecutionUnit, List[int]] = {
            unit: [0] * max(1, n) for unit, n in counts.items()
        }
        for unit in ExecutionUnit:
            self._free.setdefault(unit, [0])

    def earliest(self, unit: ExecutionUnit) -> Tuple[int, int]:
        """(cycle, instance-index) of the first free instance."""
        times = self._free[unit]
        idx = min(range(len(times)), key=times.__getitem__)
        return times[idx], idx

    def reserve(self, unit: ExecutionUnit, idx: int, until: int) -> None:
        self._free[unit][idx] = until


class _ScoreBoard:
    """Register and memory readiness tracking across loop iterations."""

    def __init__(self) -> None:
        self._reg_ready: Dict[Tuple[RegisterFile, int], int] = {}
        self._mem_ready: Dict[int, int] = {}

    def operand_ready(self, instr: Instruction) -> int:
        t = 0
        rf = instr.spec.regfile
        for src in instr.sources:
            t = max(t, self._reg_ready.get((rf, src), 0))
        if instr.spec.touches_memory:
            t = max(t, self._mem_ready.get(instr.address, 0))
        return t

    def record(self, instr: Instruction, complete: int) -> None:
        if instr.spec.has_dest:
            self._reg_ready[(instr.spec.regfile, instr.dest)] = complete
        if instr.spec.touches_memory:
            self._mem_ready[instr.address] = complete


def execute_reference(
    pipeline: Pipeline,
    program: LoopProgram,
    iterations: int = 16,
    cache=None,
    memory_rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Issue cycles of every dynamic instruction, shape
    ``(iterations, len(program))``, with every iteration simulated."""
    if iterations < 2:
        raise ValueError("need >= 2 iterations to find a steady state")
    if cache is not None and memory_rng is None:
        raise ValueError("cache model requires a memory_rng")
    cfg = pipeline.config
    units = _UnitPool(cfg.unit_counts)
    board = _ScoreBoard()
    issue_count: Dict[int, int] = {}
    n_body = len(program)
    issue = np.zeros((iterations, n_body), dtype=np.int64)
    complete = np.zeros(iterations * n_body, dtype=np.int64)

    last_issue = -1  # most recent issue cycle (in-order constraint)
    for it in range(iterations):
        for j, instr in enumerate(program.body):
            k = it * n_body + j  # dynamic index
            spec = instr.spec
            extra_latency = 0
            if cache is not None and spec.touches_memory:
                extra_latency = cache.extra_latency(
                    instr.address, memory_rng
                )
            t = board.operand_ready(instr)
            if cfg.out_of_order:
                # Window: cannot issue before the instruction
                # `window` older has issued (dispatch backpressure).
                if k >= cfg.window:
                    older = k - cfg.window
                    t = max(t, issue[older // n_body, older % n_body])
                # ROB: the instruction `rob_size` older must have
                # completed to free a reorder-buffer slot.
                if k >= cfg.rob_size:
                    t = max(t, complete[k - cfg.rob_size])
            else:
                t = max(t, last_issue)

            # Find a cycle with a free unit instance and issue slot.
            while True:
                unit_free, unit_idx = units.earliest(spec.unit)
                t = max(t, unit_free)
                if issue_count.get(t, 0) < cfg.width:
                    break
                t += 1

            latency = spec.latency + extra_latency
            issue[it, j] = t
            complete[k] = t + latency
            issue_count[t] = issue_count.get(t, 0) + 1
            units.reserve(spec.unit, unit_idx, t + spec.recip_throughput)
            board.record(instr, t + latency)
            if not cfg.out_of_order:
                last_issue = t
    return issue
