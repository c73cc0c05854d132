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
:meth:`Pipeline.simulate` stops as soon as the machine state at an
iteration boundary repeats an earlier boundary's state up to a time
shift; the remaining iterations are the rows already simulated,
shifted, which :meth:`Pipeline.execute` fills into an array and
:meth:`Pipeline.steady_schedule` reads without one.  The state is
measured relative to a *floor*: a cycle before which no later
instruction can issue (the last issue cycle in order; the oldest issue
cycle of the window look-back out of order).
Every time that feeds a later issue decision enters it through a
``max`` with a bound of at least the floor, so register, memory, unit
and ROB times below the floor are equivalent to the floor itself and
are clamped to it; unit instances are interchangeable, so their free
times are compared as a sorted multiset.  Two boundaries with equal
clamped, floor-relative states therefore produce the same future issue
cycles up to the floor difference, and the early exit gives exactly
the rows full simulation would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cpu.isa import ExecutionUnit
from repro.cpu.program import LoopProgram, ProgramStatics
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
    repeat period earlier plus ``shift``, so row ``repeat_of + m`` is
    row ``repeat_of + m % period`` plus ``m // period`` shifts, and the
    rows after the simulated ones are one gather."""
    done = len(issue_flat) // n_body
    simulated = np.array(issue_flat, dtype=np.int64).reshape(done, n_body)
    period = done - repeat_of
    m = np.arange(period, iterations - repeat_of)
    tail = simulated[repeat_of + m % period]
    tail += (m // period * shift)[:, None]
    return np.concatenate([simulated, tail])


def _super_period(starts: List[int], iterations: int) -> Tuple[int, int]:
    """(iterations, cycles) of the smallest repeating super-period of
    the iteration lengths between the reference issue cycles
    ``starts``, one per row."""
    deltas = [b - a for a, b in zip(starts, starts[1:])]
    period = 1
    # Try every super-period up to iterations // 2 (the largest that
    # still fits two full repetitions in the observed window), so odd
    # periods like 5 or 7 are extracted, not silently collapsed to a
    # wrong 1-iteration period.
    for candidate in range(1, iterations // 2 + 1):
        if (
            len(deltas) >= 2 * candidate
            and deltas[-candidate:] == deltas[-2 * candidate:-candidate]
        ):
            period = candidate
            break
    return period, starts[-1] - starts[-1 - period]


class Pipeline:
    """Base scheduler shared by the in-order and out-of-order models."""

    def __init__(self, config: PipelineConfig):
        self.config = config

    # ------------------------------------------------------------------
    def execute(
        self,
        program: LoopProgram,
        iterations: int = 16,
        cache=None,
        memory_rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Issue cycles for every dynamic instruction of ``iterations`` runs.

        Returns an int array of shape ``(iterations, len(program))``:
        the rows :meth:`simulate` ran and, when the machine state
        repeated, the later rows filled by shifting them.

        ``cache`` (a :class:`repro.cpu.cache.CacheModel`) makes memory
        accesses beyond the L1-resident window miss with a randomized
        penalty drawn from ``memory_rng`` -- the timing nondeterminism
        the paper's virus template deliberately avoids.
        """
        issue, repeat = self.simulate(program, iterations, cache, memory_rng)
        n_body = len(program)
        if repeat is None:
            return np.array(issue, dtype=np.int64).reshape(iterations, n_body)
        return _extend_periodic(issue, n_body, iterations, *repeat)

    @timed_kernel("cpu.pipeline.execute")
    def simulate(
        self,
        program: LoopProgram,
        iterations: int = 16,
        cache=None,
        memory_rng: Optional[np.random.Generator] = None,
    ) -> Tuple[List[int], Optional[Tuple[int, int]]]:
        """``(issue, repeat)``: the issue cycles of the rows simulated,
        flat in row order, and how the rest follow from them.

        ``repeat`` is None when all ``iterations`` rows were simulated.
        Otherwise it is ``(earlier, shift)``: the boundary after the
        simulated rows repeats boundary ``earlier`` ``shift`` cycles
        later, so with ``span`` the number of rows simulated from
        ``earlier`` on, row ``earlier + m`` is row
        ``earlier + m % span`` plus ``m // span`` shifts.
        :meth:`execute` and :meth:`steady_schedule` read this.

        This is the production kernel: it consumes the packed
        per-instruction arrays of
        :class:`repro.cpu.program.ProgramStatics` and keeps
        all scheduler state in flat lists, so the inner loop performs no
        attribute or ``(regfile, reg)``-dict lookups.  It is
        cycle-exact against the readable event-driven formulation in
        ``tests/cpu/pipeline_reference.py``, which the
        golden-equivalence tests and a hypothesis property enforce.

        Without ``cache`` the run exits early: at each iteration
        boundary the machine state, taken relative to the floor ``f``
        below which no later instruction can issue and clamped at it,
        is looked up among the states of earlier boundaries.  The state
        is the ready times of the registers the loop reads and of the
        addresses it touches, each used unit's instance free times
        (sorted: the first-minimum pick decides which instance is
        reserved, never the issue cycle), the issue-slot counts from
        ``f`` to the largest issue cycle so far and, out of order, the
        window's issue cycles and the ROB's completion cycles.  The
        issue-slot counts are part of the state, so they serve as an
        exact fingerprint: each boundary keeps its raw state as list
        slices, and the clamped state is built only for boundaries
        whose counts equal an earlier boundary's.  ``f``
        is the last issue cycle in order.  Out of order it is the
        smallest issue cycle among the last ``window`` instructions,
        and the check waits until ``window`` and ``rob_size``
        instructions have issued, so both look-backs always apply.
        Clamping is exact because every clamped time is only ever
        combined by ``max`` with a bound of at least ``f``.  When
        boundary ``i`` repeats boundary ``j`` shifted by
        ``f_i - f_j``, row ``i + m`` is row ``j + m`` plus that shift
        for every ``m``, so the run stops there and returns the
        repeat.  With a cache model every iteration is simulated, so
        the memory RNG sees the same draws.
        """
        if iterations < 2:
            raise ValueError("need >= 2 iterations to find a steady state")
        if cache is not None and memory_rng is None:
            raise ValueError("cache model requires a memory_rng")
        cfg = self.config
        st = ProgramStatics(program)
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
        # Issue-slot counts -> [raw state, clamped state or None] of
        # the earlier boundaries with those counts.
        seen: Dict[tuple, List[list]] = {}

        def clamped(raw: list) -> list:
            """The floor-relative, clamped state of a raw boundary."""
            _, f, regs, mems, units, look, recent = raw
            state = [regs[r] - f if regs[r] > f else 0 for r in read_regs]
            state += [mems[a] - f if mems[a] > f else 0 for a in addresses]
            state += [v - f if v > f else 0
                      for times in units for v in sorted(times)]
            if ooo:
                state += [v - f for v in look]
                state += [c - f if c > f else 0 for c in recent]
            return state

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
                    recent = complete[k - rob:k]
                else:
                    f = hi = last_issue
                    look = recent = None
                raw = [
                    it, f, reg_ready[:], mem_ready[:],
                    [times[:] for times in used_units], look, recent,
                ]
                bucket = seen.setdefault(tuple(counts[f:hi + 1]), [])
                if bucket:
                    state = clamped(raw)
                    for entry in bucket:
                        if entry[1] is None:
                            entry[1] = clamped(entry[0])
                        if entry[1] == state:
                            earlier = entry[0]
                            return issue_flat[:k], (earlier[0], f - earlier[1])
                    bucket.append([raw, state])
                else:
                    bucket.append([raw, None])
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
        return issue_flat, None

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

        The schedule is read from :meth:`simulate`, not from the
        ``(iterations, n)`` array :meth:`execute` builds: each row is a
        simulated row plus a whole number of repeat shifts, so the row
        starts, the super-period search and the fallback below take a
        few Python operations, and only the ``period * n`` offsets
        become an array.  The rows are exactly :meth:`execute`'s, so
        the extracted schedule is unchanged.

        Iterations are measured from body instruction 0's issue cycles.
        The ROB check reads only the instruction ``rob_size`` older, so
        an independent first instruction can run ahead of a long
        non-pipelined op without bound and repeat its issue cycle; when
        that gives no positive period, each row's latest issue cycle,
        which still advances by the loop's period, is the reference.
        """
        issue, repeat = self.simulate(program, iterations)
        n = len(program)
        earlier, shift = repeat if repeat is not None else (iterations, 0)
        span = len(issue) // n - earlier
        # (where each row starts in ``issue``, the cycles it is shifted
        # by), as in :func:`_extend_periodic`.
        rows = [
            (r * n, 0) if r < earlier else (
                (earlier + (r - earlier) % span) * n,
                (r - earlier) // span * shift,
            )
            for r in range(iterations)
        ]
        starts = [issue[i] + add for i, add in rows]
        period, cycles = _super_period(starts, iterations)
        if cycles <= 0:
            starts = [max(issue[i:i + n]) + add for i, add in rows]
            period, cycles = _super_period(starts, iterations)
        if cycles <= 0:
            raise RuntimeError("degenerate schedule: loop has zero period")
        base = starts[-1 - period]
        offsets: List[int] = []
        for i, add in rows[-1 - period:-1]:
            d = add - base
            offsets += [v + d for v in issue[i:i + n]]
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
            program=steady_program,
            issue_offsets=np.array(offsets, dtype=np.int64),
            cycles=cycles,
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
