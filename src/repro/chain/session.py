"""Session-scoped caches for the measurement chain.

A :class:`SimulationSession` caches the two expensive steps of a chain
item: pipeline executions (schedule + current trace, which do not
depend on the operating point) and AC transfer-function grids (the
only cache of them: ``SteadyStateSolver`` keeps none).  Every
:class:`repro.platforms.base.Cluster` owns one for its own ``run`` and
``run_trace``; each characterizer and GA fitness owns another for its
measurements.  The radiate, propagate and receive scalings cost a few
microseconds per item and are recomputed every time.

Grids are keyed by the cluster's powered cores and the harmonic grid,
so a sweep over K clock points performs at most one AC analysis per
distinct electrical state, and a re-measurement at a revisited state
is a pure cache hit.  Entries tied to a cluster are keyed by its
process-wide monotonic ``Cluster.uid``, never by ``id()``: CPython
reuses addresses after garbage collection, so an ``id()``-derived key
could serve a dead cluster's entries to a newly allocated one (audit
rule R3).

Both caches are FIFO-bounded (:data:`MAX_EXECUTIONS` executions,
:data:`MAX_GRIDS` grids), so a long campaign cannot grow without
limit; eviction order is insertion order.

Passing a :class:`repro.audit.DeterminismTracker` as ``audit=``
shadow-recomputes a seeded sample of cache hits and asserts bitwise
equality with the cached entry, catching aliasing and in-place
mutation at the moment they corrupt a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.multicore import ClusterExecution, execute_on_cluster

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pdn.steady_state import PeriodicResponse
    from repro.audit.tracker import DeterminismTracker
    from repro.cpu.program import LoopProgram
    from repro.platforms.base import Cluster

#: Executions one session keeps before evicting the oldest.
MAX_EXECUTIONS = 4096

#: Transfer-function grids one session keeps before evicting the oldest.
MAX_GRIDS = 1024


@dataclass
class SessionStats:
    """Hit/miss counters for both session caches (observability only)."""

    tf_hits: int = 0
    tf_misses: int = 0
    execute_hits: int = 0
    execute_misses: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "tf_hits": self.tf_hits,
            "tf_misses": self.tf_misses,
            "execute_hits": self.execute_hits,
            "execute_misses": self.execute_misses,
        }


class SimulationSession:
    """Cross-call caches for one simulation campaign.

    One session per experiment (an ``EMCharacterizer``, a GA fitness, a
    sweep) is the intended granularity; sharing a session across
    experiments against the same cluster compounds the reuse.  Each
    ``Cluster`` also owns one, behind its ``run`` and ``run_trace``, so
    a V_MIN ladder reuses one schedule and one grid per distinct state
    across its voltage steps.  All cached values are deterministic pure
    functions of their keys, so caching never changes results -- the
    bit-equivalence tests in ``tests/chain/test_equivalence.py`` and
    ``tests/property/test_property_chain.py`` pin this.
    """

    def __init__(self, audit: Optional["DeterminismTracker"] = None):
        self.stats = SessionStats()
        self.audit = audit
        # (cluster.uid, genome, active, iterations, phase offsets)
        # -> ClusterExecution
        self._executions: Dict[Tuple, ClusterExecution] = {}
        # (cluster.uid, powered_cores, n_samples, sample_rate) -> the
        # grid's (2, harmonics) stack of (-Z, H_I) and its harmonic
        # frequencies, as SteadyStateSolver.transfer_functions gives it
        self._tf_grids: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def _bounded_put(cache: Dict, key, value, cap: int) -> None:
        """Insert with FIFO eviction."""
        while len(cache) >= cap:
            cache.pop(next(iter(cache)))
        cache[key] = value

    # ------------------------------------------------------------------
    # execute stage: schedule + per-cycle current, clock-independent
    # ------------------------------------------------------------------
    def execution(
        self,
        cluster: "Cluster",
        program: "LoopProgram",
        active_cores: int,
        iterations: int = 16,
        phase_offsets: Optional[Sequence[int]] = None,
    ) -> ClusterExecution:
        """Steady-state execution of ``program`` on ``active_cores``.

        The record is clock-free (schedules are in cycles, the current
        in amperes per cycle), so one cached execution serves every
        operating point of a sweep as it is; phase offsets are part of
        the key.
        """

        def execute():
            return execute_on_cluster(
                cluster.pipeline,
                cluster.spec.current_model,
                program,
                active_cores=active_cores,
                phase_offsets=phase_offsets,
                uncore_current_a=cluster.spec.uncore_current_a,
                iterations=iterations,
            )

        key = (
            cluster.uid,
            program.genome(),
            active_cores,
            iterations,
            None if phase_offsets is None else tuple(phase_offsets),
        )
        cached = self._executions.get(key)
        if cached is None:
            self.stats.execute_misses += 1
            cached = execute()
            self._bounded_put(self._executions, key, cached, MAX_EXECUTIONS)
        else:
            self.stats.execute_hits += 1
            if self.audit is not None:
                self.audit.check_hit("executions", key, cached, execute)
        return cached

    # ------------------------------------------------------------------
    # pdn stage: transfer-function grids hoisted out of the solver
    # ------------------------------------------------------------------
    def pdn_solve(
        self,
        cluster: "Cluster",
        powered_cores: int,
        voltage: float,
        load_current: np.ndarray,
        sample_rate_hz: float,
    ) -> "PeriodicResponse":
        """Steady-state rail response at an explicit operating point:
        the one-row call of :meth:`pdn_responses`."""
        return self.pdn_responses(
            cluster, [(powered_cores, voltage, load_current, sample_rate_hz)]
        )[0]

    def pdn_responses(
        self,
        cluster: "Cluster",
        points: Sequence[Tuple[int, float, np.ndarray, float]],
    ) -> List["PeriodicResponse"]:
        """Steady-state rail responses, one per
        ``(powered_cores, voltage, load_current, sample_rate_hz)`` point.

        The AC transfer-function grid is cached here, keyed by
        ``(cluster, powered_cores, n_samples, sample_rate)`` -- i.e. by
        the distinct cluster states a campaign visits -- so repeated
        solves at a revisited state never re-run the AC analysis.
        Keys are looked up in request order, with a missed grid taking
        its cache slot at once, so the hit and miss counts, the FIFO
        evictions and the audited hits are those of one lookup per
        point.  Each solver then folds all of its missed grids in one
        AC analysis, and points of equal trace length on one solver
        are solved together.
        """
        grids = self._tf_grids
        stats = self.stats
        uid = cluster.uid
        transfers: List = []
        misses: Dict[int, List] = {}
        hits: List[Tuple[Tuple, int]] = []
        groups: Dict[Tuple[int, int], List[int]] = {}
        for i, (powered, _, trace, rate) in enumerate(points):
            key = (uid, powered, trace.size, rate)
            transfer = grids.get(key)
            if transfer is None:
                stats.tf_misses += 1
                # A cell the fold fills; later points of this request
                # at the same key hit it.
                transfer = [None]
                misses.setdefault(powered, []).append((key, transfer))
                self._bounded_put(grids, key, transfer, MAX_GRIDS)
            else:
                stats.tf_hits += 1
                hits.append((key, i))
            transfers.append(transfer)
            groups.setdefault((powered, trace.size), []).append(i)
        if misses:
            self._fold_missed(cluster, misses)
            transfers = [
                t[0] if type(t) is list else t for t in transfers
            ]
        if self.audit is not None:
            for key, i in hits:
                solver = cluster.pdn.solver(key[1])
                self.audit.check_hit(
                    "tf_grids",
                    key,
                    transfers[i],
                    lambda: solver.compute_transfer_functions(
                        [(key[2], key[3])]
                    )[0],
                )
        responses: List = [None] * len(points)
        for (powered, _), rows in groups.items():
            solved = cluster.pdn.solver(powered).solve_batch(
                np.array([points[i][2] for i in rows]),
                [points[i][3] for i in rows],
                transfers=[transfers[i] for i in rows],
                supply_voltages=[points[i][1] for i in rows],
            )
            for i, response in zip(rows, solved):
                responses[i] = response
        return responses

    def _fold_missed(self, cluster: "Cluster", misses: Dict[int, List]) -> None:
        """Fill the cells of :meth:`pdn_responses`' missed grids, one
        fold per solver, and put each grid in its cell's cache slot."""
        grids = self._tf_grids
        try:
            for powered, missed in misses.items():
                folded = cluster.pdn.solver(powered).transfer_functions(
                    [(key[2], key[3]) for key, _ in missed]
                )
                for (key, cell), transfer in zip(missed, folded):
                    cell[0] = transfer
                    if grids.get(key) is cell:
                        grids[key] = transfer
        finally:
            # A fold that raised leaves none of its cells behind.
            for missed in misses.values():
                for key, cell in missed:
                    if grids.get(key) is cell:
                        del grids[key]
