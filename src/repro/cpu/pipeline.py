"""Issue-schedule models for in-order and out-of-order cores.

Both models are event-driven list schedulers: every dynamic instruction
gets the earliest issue cycle consistent with

- data dependencies (register and same-address memory ordering),
- functional-unit occupancy (non-pipelined DIV/SQRT block their unit
  for their full latency -- the low-current windows viruses exploit),
- issue bandwidth (``width`` instructions per cycle), and
- program-order constraints: strict in-order issue for the A53-like
  model; a finite instruction window and ROB for the OoO model.

The scheduler runs the loop for a number of iterations and extracts the
steady-state iteration (machine state becomes periodic after a few
iterations because the hardware is deterministic); the steady schedule
is what the current model converts into a waveform.

Without a cache model the machine is deterministic, so
:meth:`Pipeline.execute` stops simulating as soon as the machine state
at an iteration boundary repeats an earlier boundary's state up to a
time shift, and fills the remaining iterations by shifting the rows
already simulated.  The state is measured relative to a *floor*: a
cycle before which no later instruction can issue (the last issue cycle
in order; the oldest issue cycle of the window look-back out of order).
Every time that feeds a later issue decision enters it through a
``max`` with a bound of at least the floor, so register, memory, unit
and ROB times below the floor are equivalent to the floor itself and
are clamped to it; unit instances are interchangeable, so their free
times are compared as a sorted multiset.  Two boundaries with equal
clamped, floor-relative states therefore produce the same future issue
cycles up to the floor difference, and the early exit returns exactly
the array full simulation would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cpu.isa import ExecutionUnit, Instruction, RegisterFile
from repro.cpu.program import LoopProgram
from repro.obs.timing import timed_kernel

DEFAULT_UNIT_COUNTS: Dict[ExecutionUnit, int] = {
    ExecutionUnit.ALU: 2,
    ExecutionUnit.MUL: 1,
    ExecutionUnit.DIV: 1,
    ExecutionUnit.FPU: 1,
    ExecutionUnit.FDIV: 1,
    ExecutionUnit.SIMD: 1,
    ExecutionUnit.LSU: 1,
    ExecutionUnit.BRANCH: 1,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Microarchitectural resources of a core model."""

    name: str
    width: int
    unit_counts: Dict[ExecutionUnit, int]
    out_of_order: bool = False
    window: int = 1
    rob_size: int = 1

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("issue width must be >= 1")
        if self.out_of_order and (self.window < 1 or self.rob_size < 1):
            raise ValueError("OoO models need window and rob_size >= 1")


@dataclass
class Schedule:
    """Steady-state issue schedule of one loop iteration.

    ``issue_offsets[i]`` is the issue cycle of body instruction ``i``
    relative to the iteration start; ``cycles`` is the iteration length
    in cycles (the loop period in cycles).
    """

    program: LoopProgram
    issue_offsets: np.ndarray
    cycles: int

    @property
    def ipc(self) -> float:
        """Average instructions per cycle over the steady iteration."""
        return len(self.program) / self.cycles

    def loop_period_s(self, clock_hz: float) -> float:
        return self.cycles / clock_hz

    def loop_frequency_hz(self, clock_hz: float) -> float:
        return clock_hz / self.cycles


def _extend_periodic(
    issue_flat: List[int],
    n_body: int,
    iterations: int,
    repeat_of: int,
    shift: int,
) -> np.ndarray:
    """The ``(iterations, n_body)`` issue array from the rows simulated
    so far, given that the boundary after them repeats boundary
    ``repeat_of`` ``shift`` cycles later: every later row is the row one
    repeat period earlier plus ``shift``."""
    done = len(issue_flat) // n_body
    issue = np.empty((iterations, n_body), dtype=np.int64)
    issue[:done] = np.array(issue_flat, dtype=np.int64).reshape(
        done, n_body
    )
    period = done - repeat_of
    for row in range(done, iterations):
        issue[row] = issue[row - period] + shift
    return issue


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


class Pipeline:
    """Base scheduler shared by the in-order and out-of-order models."""

    def __init__(self, config: PipelineConfig):
        self.config = config

    # ------------------------------------------------------------------
    @timed_kernel("cpu.pipeline.execute")
    def execute(
        self,
        program: LoopProgram,
        iterations: int = 16,
        cache=None,
        memory_rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Issue cycles for every dynamic instruction of ``iterations`` runs.

        Returns an int array of shape ``(iterations, len(program))``.

        ``cache`` (a :class:`repro.cpu.cache.CacheModel`) makes memory
        accesses beyond the L1-resident window miss with a randomized
        penalty drawn from ``memory_rng`` -- the timing nondeterminism
        the paper's virus template deliberately avoids.

        This is the production kernel: it consumes the packed
        per-instruction arrays from
        :meth:`repro.cpu.program.LoopProgram.static_arrays` and keeps
        all scheduler state in flat lists, so the inner loop performs no
        attribute or ``(regfile, reg)``-dict lookups.  It is
        cycle-exact against :meth:`execute_reference` (the readable
        event-driven formulation), which the golden-equivalence tests
        and a hypothesis property enforce.

        Without ``cache`` the run exits early: at each iteration
        boundary the machine state, taken relative to the floor ``f``
        below which no later instruction can issue and clamped at it,
        is looked up among the states of earlier boundaries.  The state
        is the ready times of the registers the loop reads and of the
        addresses it touches, each used unit's instance free times
        (sorted: the first-minimum pick decides which instance is
        reserved, never the issue cycle), the issue-slot counts from
        ``f`` to the largest issue cycle so far and, out of order, the
        window's issue cycles and the ROB's completion cycles.  ``f``
        is the last issue cycle in order.  Out of order it is the
        smallest issue cycle among the last ``window`` instructions,
        and the check waits until ``window`` and ``rob_size``
        instructions have issued, so both look-backs always apply.
        Clamping is exact because every clamped time is only ever
        combined by ``max`` with a bound of at least ``f``.  When
        boundary ``i`` repeats boundary ``j`` shifted by
        ``f_i - f_j``, row ``i + m`` is row ``j + m`` plus that shift
        for every ``m``, so the remaining rows are filled without
        simulating them.  With a cache model every iteration is
        simulated, so the memory RNG sees the same draws.
        """
        if iterations < 2:
            raise ValueError("need >= 2 iterations to find a steady state")
        if cache is not None and memory_rng is None:
            raise ValueError("cache model requires a memory_rng")
        cfg = self.config
        st = program.static_arrays()
        n_body = len(program)

        # Per-run mutable state, all flat lists (no dicts in the loop).
        free: Dict[ExecutionUnit, List[int]] = {
            unit: [0] * max(1, n) for unit, n in cfg.unit_counts.items()
        }
        for unit in ExecutionUnit:
            free.setdefault(unit, [0])
        reg_ready = [0] * st.num_registers
        mem_ready = [0] * program.isa.memory_slots
        n_dyn = iterations * n_body
        issue_flat = [0] * n_dyn
        complete = [0] * n_dyn
        counts = [0] * 256  # issued-per-cycle table, extended on demand
        n_counts = len(counts)

        # One row of per-instruction statics, unpacked in a single step
        # inside the hot loop instead of seven list-index operations.
        rows = list(
            zip(
                st.sources,
                st.latency,
                st.recip,
                st.touches_memory,
                st.address,
                st.dest,
                [free[u] for u in st.units],
            )
        )
        width = cfg.width
        ooo = cfg.out_of_order
        window = cfg.window
        rob = cfg.rob_size

        # Early-exit bookkeeping: the parts of the state later issue
        # decisions can read, and the boundary each state was seen at.
        track = cache is None
        first_check = max(window, rob) if ooo else 1
        read_regs = sorted({s for srcs in st.sources for s in srcs})
        addresses = sorted({a for a in st.address if a >= 0})
        used_units = [free[u] for u in dict.fromkeys(st.units)]
        seen: Dict[tuple, Tuple[int, int]] = {}

        last_issue = -1  # most recent issue cycle (in-order constraint)
        k = 0
        for it in range(iterations):
            if track and k >= first_check:
                if ooo:
                    look = issue_flat[k - window:k]
                    f = min(look)
                    # An instruction issues no earlier than the one
                    # `window` older, so the look-back holds the latest
                    # issue cycle so far.
                    hi = max(look)
                else:
                    f = hi = last_issue
                state = [reg_ready[r] - f if reg_ready[r] > f else 0
                         for r in read_regs]
                state += [mem_ready[a] - f if mem_ready[a] > f else 0
                          for a in addresses]
                state += [v - f if v > f else 0
                          for times in used_units for v in sorted(times)]
                if ooo:
                    state += [v - f for v in look]
                    state += [c - f if c > f else 0
                              for c in complete[k - rob:k]]
                state += counts[f:hi + 1]
                earlier = seen.setdefault(tuple(state), (it, f))
                if earlier[0] != it:
                    return _extend_periodic(
                        issue_flat[:k], n_body, iterations,
                        earlier[0], f - earlier[1],
                    )
            for srcs, lat, rt, tch, adr, dst, times in rows:
                t = 0
                for s in srcs:
                    rs = reg_ready[s]
                    if rs > t:
                        t = rs
                extra = 0
                if tch:
                    if cache is not None:
                        extra = cache.extra_latency(adr, memory_rng)
                    ms = mem_ready[adr]
                    if ms > t:
                        t = ms
                if ooo:
                    # Window: cannot issue before the instruction
                    # `window` older has issued (dispatch backpressure).
                    if k >= window:
                        wt = issue_flat[k - window]
                        if wt > t:
                            t = wt
                    # ROB: the instruction `rob_size` older must have
                    # completed to free a reorder-buffer slot.
                    if k >= rob:
                        ct = complete[k - rob]
                        if ct > t:
                            t = ct
                elif last_issue > t:
                    t = last_issue

                # Find a cycle with a free unit instance and issue slot;
                # the first instance with the smallest free time wins.
                if len(times) == 1:
                    idx = 0
                elif len(times) == 2:
                    idx = 0 if times[0] <= times[1] else 1
                else:
                    idx = 0
                    for i in range(1, len(times)):
                        if times[i] < times[idx]:
                            idx = i
                unit_free = times[idx]
                if unit_free > t:
                    t = unit_free
                if t >= n_counts:
                    counts.extend([0] * (t - n_counts + 256))
                    n_counts = len(counts)
                while counts[t] >= width:
                    t += 1
                    if t >= n_counts:
                        counts.extend([0] * 256)
                        n_counts = len(counts)

                comp = t + lat + extra
                issue_flat[k] = t
                complete[k] = comp
                counts[t] += 1
                times[idx] = t + rt
                if dst >= 0:
                    reg_ready[dst] = comp
                if tch:
                    mem_ready[adr] = comp
                if not ooo:
                    last_issue = t
                k += 1
        return np.array(issue_flat, dtype=np.int64).reshape(
            iterations, n_body
        )

    def execute_reference(
        self,
        program: LoopProgram,
        iterations: int = 16,
        cache=None,
        memory_rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Readable event-driven formulation of :meth:`execute`.

        Kept as the golden reference for the optimized kernel: same
        semantics, expressed through :class:`_UnitPool` and
        :class:`_ScoreBoard` objects.  ``tests/test_vectorized_equivalence.py``
        asserts the two produce identical schedules.
        """
        if iterations < 2:
            raise ValueError("need >= 2 iterations to find a steady state")
        if cache is not None and memory_rng is None:
            raise ValueError("cache model requires a memory_rng")
        cfg = self.config
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

    def steady_schedule(
        self, program: LoopProgram, iterations: int = 16
    ) -> Schedule:
        """Extract the periodic steady state of the loop.

        A deterministic machine settles into a repeating pattern within
        a few iterations, but the pattern may span *several* loop
        iterations (e.g. alternating 1- and 2-cycle iterations when
        issue slots straddle the boundary).  The smallest repeating
        super-period of iteration lengths is detected and the schedule
        covers one full super-period, so the rendered current waveform
        is exactly the electrical period.

        Only the last ``period + 1`` rows are read.  :meth:`execute`
        usually stops simulating after a few iterations, once the
        machine state repeats, and fills the later rows by shifting
        earlier ones; those rows are exactly what full simulation gives,
        so the extracted schedule is unchanged.
        """
        issue = self.execute(program, iterations)
        starts = issue[:, 0]
        deltas = np.diff(starts)
        period = 1
        # Try every super-period up to iterations // 2 (the largest that
        # still fits two full repetitions in the observed window), so
        # odd periods like 5 or 7 are extracted, not silently collapsed
        # to a wrong 1-iteration period.
        for candidate in range(1, iterations // 2 + 1):
            if deltas.size >= 2 * candidate and np.array_equal(
                deltas[-candidate:], deltas[-2 * candidate:-candidate]
            ):
                period = candidate
                break
        cycles = int(starts[-1] - starts[-1 - period])
        if cycles <= 0:
            raise RuntimeError("degenerate schedule: loop has zero period")
        base = starts[-1 - period]
        offsets = (issue[-1 - period:-1] - base).reshape(-1).astype(
            np.int64
        )
        if period == 1:
            steady_program = program
        else:
            steady_program = LoopProgram(
                isa=program.isa,
                body=program.body * period,
                name=program.name,
            )
        # Offsets may exceed the period when issue of iteration k overlaps
        # iteration k+1; keep raw offsets, the current model wraps modulo
        # the period when accumulating charge.
        return Schedule(
            program=steady_program, issue_offsets=offsets, cycles=cycles
        )

    def windowed_schedule(
        self,
        program: LoopProgram,
        iterations: int = 16,
        cache=None,
        memory_rng: Optional[np.random.Generator] = None,
    ) -> WindowedSchedule:
        """Full multi-iteration window (supports cache nondeterminism)."""
        issue = self.execute(
            program, iterations, cache=cache, memory_rng=memory_rng
        )
        max_latency = max(s.latency for s in {i.spec for i in program.body})
        slack = max_latency + (
            cache.miss_penalty + cache.penalty_jitter if cache else 0
        )
        cycles = int(issue.max()) + slack
        return WindowedSchedule(program=program, issue=issue, cycles=cycles)


@dataclass
class WindowedSchedule:
    """A multi-iteration execution window (for nondeterministic runs).

    With a cache model enabled, execution never settles into an exact
    period, so instead of extracting one steady iteration the whole
    window is kept: ``issue[i, j]`` is the absolute issue cycle of body
    instruction ``j`` in iteration ``i``, and ``cycles`` spans the
    window.  The current model renders the full window, which is then
    treated as one (long) period by the PDN solver.
    """

    program: LoopProgram
    issue: np.ndarray
    cycles: int

    @property
    def iterations(self) -> int:
        return self.issue.shape[0]

    @property
    def ipc(self) -> float:
        return self.issue.size / self.cycles

    def mean_iteration_cycles(self) -> float:
        starts = self.issue[:, 0]
        if starts.size < 2:
            return float(self.cycles)
        return float(np.mean(np.diff(starts)))

    def iteration_jitter_cycles(self) -> float:
        """Standard deviation of the per-iteration period -- zero for
        deterministic execution, nonzero once cache misses are in play."""
        starts = self.issue[:, 0]
        if starts.size < 3:
            return 0.0
        return float(np.std(np.diff(starts)))


class InOrderPipeline(Pipeline):
    """Dual-issue in-order model (Cortex-A53-like by default)."""

    def __init__(
        self,
        width: int = 2,
        unit_counts: Optional[Dict[ExecutionUnit, int]] = None,
        name: str = "in-order",
    ):
        super().__init__(
            PipelineConfig(
                name=name,
                width=width,
                unit_counts=dict(unit_counts or DEFAULT_UNIT_COUNTS),
                out_of_order=False,
            )
        )


class OutOfOrderPipeline(Pipeline):
    """Out-of-order model (Cortex-A72 / Athlon-like by default)."""

    def __init__(
        self,
        width: int = 3,
        window: int = 40,
        rob_size: int = 64,
        unit_counts: Optional[Dict[ExecutionUnit, int]] = None,
        name: str = "out-of-order",
    ):
        super().__init__(
            PipelineConfig(
                name=name,
                width=width,
                unit_counts=dict(unit_counts or DEFAULT_UNIT_COUNTS),
                out_of_order=True,
                window=window,
                rob_size=rob_size,
            )
        )
