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
    return _simulate(pipeline, program, iterations, cache, memory_rng)


def first_repeat_reference(
    pipeline: Pipeline, program: LoopProgram, iterations: int = 16
) -> Optional[Tuple[int, int]]:
    """``(boundary, earlier)``: the first iteration boundary whose
    clamped, floor-relative machine state equals an earlier boundary's,
    or None when no boundary repeats.

    This is the repeat check with the full state built at every
    boundary, as ``Pipeline.execute`` made it before the issue-slot
    fingerprint gated it; the production early exit must stop at
    exactly this boundary.
    """
    cfg = pipeline.config
    ooo = cfg.out_of_order
    first_check = max(cfg.window, cfg.rob_size) if ooo else 1
    reads = sorted(
        {(i.spec.regfile.value, s) for i in program.body for s in i.sources}
    )
    addresses = sorted(
        {i.address for i in program.body if i.spec.touches_memory}
    )
    used = list(dict.fromkeys(i.spec.unit for i in program.body))
    seen: Dict[tuple, int] = {}
    found: List[Tuple[int, int]] = []

    def boundary(it, k, last_issue, issue_flat, complete, units, board,
                 issue_count):
        if k < first_check:
            return False
        if ooo:
            look = list(issue_flat[k - cfg.window:k])
            f, hi = min(look), max(look)
        else:
            f = hi = last_issue
        regs = {(rf.value, r): t for (rf, r), t in board._reg_ready.items()}
        state = [max(regs.get(r, 0) - f, 0) for r in reads]
        state += [max(board._mem_ready.get(a, 0) - f, 0) for a in addresses]
        state += [max(v - f, 0) for u in used for v in sorted(units._free[u])]
        if ooo:
            state += [v - f for v in look]
            state += [max(int(c) - f, 0) for c in complete[k - cfg.rob_size:k]]
        state += [issue_count.get(t, 0) for t in range(f, hi + 1)]
        earlier = seen.setdefault(tuple(int(v) for v in state), it)
        if earlier != it:
            found.append((it, earlier))
            return True
        return False

    _simulate(pipeline, program, iterations, None, None, boundary)
    return found[0] if found else None


def _simulate(
    pipeline: Pipeline,
    program: LoopProgram,
    iterations: int,
    cache,
    memory_rng: Optional[np.random.Generator],
    boundary=None,
) -> np.ndarray:
    """Every iteration through a unit pool and a scoreboard; a
    ``boundary`` callback sees the state before each iteration and
    stops the run by returning True."""
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
        if boundary is not None and boundary(
            it, it * n_body, last_issue, issue.reshape(-1), complete,
            units, board, issue_count,
        ):
            break
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
