"""Session-scoped caches for the measurement chain.

A :class:`SimulationSession` owns everything that is expensive to
derive but stable across chain calls: AC transfer-function grids (the
only cache of them: ``SteadyStateSolver`` keeps none), pipeline
executions (schedule + current trace, which do not depend on the
operating point), radiator tilt curves, propagation/antenna gains and
analyzer band masks.  Every :class:`repro.platforms.base.Cluster` owns
one for its own ``run`` and ``run_trace``; each characterizer and GA
fitness owns another for its measurements.

Cache entries are keyed by the *cluster operating state*
(``Cluster.state()``: clock, voltage, powered cores) where relevant, so
a sweep over K clock points performs at most one AC analysis per
distinct state and a re-measurement at a revisited state is a pure
cache hit.  ``Cluster.state_version`` -- a counter bumped by
``set_clock`` / ``set_voltage`` / ``power_gate`` -- lets the session
detect state changes with a single integer comparison instead of
re-reading every field; a version bump invalidates the memoized state
snapshot (counted in ``stats.invalidations``) but never the
state-keyed entries themselves, which remain valid for their own key.

Identity keying: entries tied to a particular live object (a cluster,
an analyzer) are keyed by a *stable token*, never by ``id()``.
Clusters carry a process-wide monotonic ``Cluster.uid``; analyzers are
assigned a session-local token by :meth:`SimulationSession._analyzer_token`
from a monotonic counter, registered through a weak reference so the
registry stays bounded by the number of *live* analyzers (a long-lived
service session sees many) while a live object's token can never be
re-issued.  CPython reuses addresses after garbage collection, so a
bare ``id()``-derived key could silently serve a dead object's cached
entries to a newly allocated one (audit rule R3); the registry guards
its address index with an identity check against the weakly-held
object, so a reused address simply mints a fresh token.

Every cache is FIFO-bounded (``max_executions`` for executions,
``max_grids`` for the derived-grid caches) so a long campaign cannot
grow without limit; eviction order is insertion order.

Passing a :class:`repro.audit.DeterminismTracker` as ``audit=``
shadow-recomputes a seeded sample of cache hits and asserts bitwise
equality with the cached entry, catching aliasing, missing
``state_version`` bumps and in-place mutation at the moment they
corrupt a result.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.pdn.steady_state import PeriodicResponse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.audit.tracker import DeterminismTracker
    from repro.cpu.program import LoopProgram
    from repro.cpu.multicore import ClusterExecution
    from repro.em.radiation import DieRadiator
    from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
    from repro.platforms.base import Cluster, ClusterState


@dataclass
class SessionStats:
    """Hit/miss counters for every session cache (observability only)."""

    tf_hits: int = 0
    tf_misses: int = 0
    execute_hits: int = 0
    execute_misses: int = 0
    tilt_hits: int = 0
    tilt_misses: int = 0
    gain_hits: int = 0
    gain_misses: int = 0
    mask_hits: int = 0
    mask_misses: int = 0
    invalidations: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "tf_hits": self.tf_hits,
            "tf_misses": self.tf_misses,
            "execute_hits": self.execute_hits,
            "execute_misses": self.execute_misses,
            "tilt_hits": self.tilt_hits,
            "tilt_misses": self.tilt_misses,
            "gain_hits": self.gain_hits,
            "gain_misses": self.gain_misses,
            "mask_hits": self.mask_hits,
            "mask_misses": self.mask_misses,
            "invalidations": self.invalidations,
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

    def __init__(
        self,
        max_executions: int = 4096,
        max_grids: int = 1024,
        audit: Optional["DeterminismTracker"] = None,
    ):
        self.stats = SessionStats()
        self._max_executions = max_executions
        self._max_grids = max_grids
        self.audit = audit
        # cluster.uid -> (state_version, ClusterState)
        self._cluster_states: Dict[int, Tuple[int, "ClusterState"]] = {}
        # (cluster.uid, genome, active, iterations) -> ClusterExecution
        self._executions: Dict[Tuple, "ClusterExecution"] = {}
        # (cluster.uid, powered_cores, n_samples, sample_rate) -> (Z, H_I)
        self._tf_grids: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        # (radiator, grid_key) -> tilt array over the emission lines
        self._tilts: Dict[Tuple, np.ndarray] = {}
        # (analyzer_token, settings, grid_key) -> line gain array
        self._gains: Dict[Tuple, np.ndarray] = {}
        # (analyzer_token, settings, band) -> boolean bin mask
        self._band_masks: Dict[Tuple, np.ndarray] = {}
        # Weakref identity registry: id(analyzer) -> (weakref, token).
        # Entries self-remove when their analyzer is collected, so the
        # registry is bounded by the number of live analyzers.
        self._analyzer_tokens: Dict[
            int, Tuple["weakref.ref", int]
        ] = {}
        self._next_analyzer_token = 0

    # ------------------------------------------------------------------
    # identity + bounding helpers
    # ------------------------------------------------------------------
    def _analyzer_token(self, analyzer: "SpectrumAnalyzer") -> int:
        """Session-stable identity token for an analyzer, in O(1).

        Tokens come from a monotonic counter, so a live object's token
        can never be re-issued to another analyzer.  The address index
        is only a fast lookup: a hit counts solely when the weakly-held
        object *is* this analyzer, so a reused address (CPython
        re-issues ``id()`` after GC, audit rule R3) mints a fresh token
        instead of aliasing the dead object's entries.  The weakref
        death callback deletes the entry, which keeps a long-lived
        session -- a measurement service's lifetime profile -- from
        accumulating one registry row per analyzer it ever saw.
        (SpectrumAnalyzer is an eq-but-unfrozen dataclass and therefore
        unhashable, so it cannot key a dict directly.)
        """
        addr = id(analyzer)  # audit: ignore[R3]
        entry = self._analyzer_tokens.get(addr)
        if entry is not None and entry[0]() is analyzer:
            return entry[1]
        token = self._next_analyzer_token
        self._next_analyzer_token += 1
        registry = self._analyzer_tokens

        def _drop(_ref, registry=registry, addr=addr, token=token):
            # Only remove our own entry: a newer analyzer may already
            # occupy this (reused) address slot.
            current = registry.get(addr)
            if current is not None and current[1] == token:
                del registry[addr]

        registry[addr] = (weakref.ref(analyzer, _drop), token)
        return token

    @staticmethod
    def _bounded_put(cache: Dict, key, value, cap: int) -> None:
        """Insert with FIFO eviction; a cap of 0 disables the cache."""
        if cap <= 0:
            return
        while len(cache) >= cap:
            cache.pop(next(iter(cache)))
        cache[key] = value

    # ------------------------------------------------------------------
    # warm-up / cache priming
    # ------------------------------------------------------------------
    def warm_up(
        self, cluster: Optional["Cluster"] = None
    ) -> Dict[str, int]:
        """Prime the session's cheap deterministic entries.

        Called once per persistent GA worker at pool start (see
        :mod:`repro.ga.parallel`) so the first dispatched shard runs
        against warm caches: with a ``cluster`` the operating-state
        snapshot is memoized immediately.  Only pure, RNG-free
        derivations may run here -- warming must never perturb a
        measurement stream, or the ``workers=N == workers=1``
        bit-identity contract breaks.  Returns a stats snapshot for
        the ``worker_warmup`` event.
        """
        if cluster is not None:
            self.cluster_state(cluster)
        return self.stats.snapshot()

    # ------------------------------------------------------------------
    # cluster state tracking
    # ------------------------------------------------------------------
    def cluster_state(self, cluster: "Cluster") -> "ClusterState":
        """The cluster's operating point, memoized by state version."""
        key = cluster.uid
        entry = self._cluster_states.get(key)
        version = cluster.state_version
        if entry is not None:
            if entry[0] == version:
                if self.audit is not None:
                    self.audit.check_hit(
                        "cluster_states", key, entry[1], cluster.state
                    )
                return entry[1]
            self.stats.invalidations += 1
        state = cluster.state()
        self._bounded_put(
            self._cluster_states, key, (version, state), self._max_grids
        )
        return state

    # ------------------------------------------------------------------
    # execute stage: schedule + per-cycle current, clock-independent
    # ------------------------------------------------------------------
    def execution(
        self,
        cluster: "Cluster",
        program: "LoopProgram",
        active_cores: int,
        clock_hz: float,
        iterations: int = 16,
        phase_offsets: Optional[Sequence[int]] = None,
    ) -> "ClusterExecution":
        """Steady-state execution of ``program`` on ``active_cores``.

        The schedule and the per-cycle current trace are independent of
        the operating point (amperes per cycle are fixed; the clock
        only sets the sample rate), so one cached execution serves
        every clock point of a sweep -- the cache key deliberately
        omits the clock and the entry is re-stamped with the item's
        ``clock_hz`` on the way out.
        """
        from repro.cpu.multicore import CoreModel, execute_on_cluster

        core = CoreModel(
            pipeline=cluster.pipeline,
            current_model=cluster.spec.current_model,
            clock_hz=clock_hz,
        )
        if phase_offsets is not None:
            # Phase studies are rare and offset-specific; don't cache.
            return execute_on_cluster(
                core,
                program,
                active_cores=active_cores,
                phase_offsets=phase_offsets,
                uncore_current_a=cluster.spec.uncore_current_a,
                iterations=iterations,
            )
        key = (cluster.uid, program.genome(), active_cores, iterations)
        cached = self._executions.get(key)
        hit = cached is not None
        if cached is None:
            self.stats.execute_misses += 1
            cached = execute_on_cluster(
                core,
                program,
                active_cores=active_cores,
                uncore_current_a=cluster.spec.uncore_current_a,
                iterations=iterations,
            )
            self._bounded_put(
                self._executions, key, cached, self._max_executions
            )
        else:
            self.stats.execute_hits += 1
        if cached.clock_hz != clock_hz:
            cached = replace(cached, clock_hz=clock_hz)
        if hit and self.audit is not None:
            # Compare post-restamp so both sides carry this call's
            # clock (the cache stores the first-seen clock by design).
            self.audit.check_hit(
                "executions",
                key,
                cached,
                lambda: execute_on_cluster(
                    core,
                    program,
                    active_cores=active_cores,
                    uncore_current_a=cluster.spec.uncore_current_a,
                    iterations=iterations,
                ),
            )
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
        """Steady-state rail response at an explicit operating point.

        The AC transfer-function grid is cached here, keyed by
        ``(cluster, powered_cores, n_samples, sample_rate)`` -- i.e. by
        the distinct cluster states a campaign visits -- so repeated
        solves at a revisited state never re-run the AC analysis.
        """
        solver = cluster.pdn.solver(powered_cores)
        key = (
            cluster.uid,
            powered_cores,
            load_current.size,
            sample_rate_hz,
        )
        transfer = self._tf_grids.get(key)
        if transfer is None:
            self.stats.tf_misses += 1
            transfer = solver.transfer_functions(
                load_current.size, sample_rate_hz
            )
            self._bounded_put(
                self._tf_grids, key, transfer, self._max_grids
            )
        else:
            self.stats.tf_hits += 1
            if self.audit is not None:
                self.audit.check_hit(
                    "tf_grids",
                    key,
                    transfer,
                    lambda: solver.compute_transfer_functions(
                        load_current.size, sample_rate_hz
                    ),
                )
        response = solver.solve(
            load_current, sample_rate_hz, transfer=transfer
        )
        return _recentered(response, voltage)

    # ------------------------------------------------------------------
    # radiate / propagate / receive scalings
    # ------------------------------------------------------------------
    def radiator_tilt(
        self,
        radiator: "DieRadiator",
        frequencies_hz: np.ndarray,
        grid_key: Tuple,
    ) -> np.ndarray:
        """The radiator's frequency tilt over one harmonic grid."""
        key = (radiator, grid_key)
        tilt = self._tilts.get(key)
        if tilt is None:
            self.stats.tilt_misses += 1
            tilt = radiator.tilt(frequencies_hz)
            self._bounded_put(self._tilts, key, tilt, self._max_grids)
        else:
            self.stats.tilt_hits += 1
            if self.audit is not None:
                self.audit.check_hit(
                    "tilts",
                    key,
                    tilt,
                    lambda: radiator.tilt(frequencies_hz),
                )
        return tilt

    def line_gains(
        self,
        analyzer: "SpectrumAnalyzer",
        frequencies_hz: np.ndarray,
        grid_key: Tuple,
    ) -> np.ndarray:
        """Coupling x antenna gain over one grid's in-span lines."""
        key = (
            self._analyzer_token(analyzer),
            analyzer._settings_key(),
            grid_key,
        )
        gains = self._gains.get(key)
        if gains is None:
            self.stats.gain_misses += 1
            gains = analyzer.line_gains(frequencies_hz)
            self._bounded_put(self._gains, key, gains, self._max_grids)
        else:
            self.stats.gain_hits += 1
            if self.audit is not None:
                self.audit.check_hit(
                    "gains",
                    key,
                    gains,
                    lambda: analyzer.line_gains(frequencies_hz),
                )
        return gains

    def band_mask(
        self,
        analyzer: "SpectrumAnalyzer",
        band: Tuple[float, float],
    ) -> np.ndarray:
        """Boolean mask of the analyzer bins inside ``band``.

        Raises :class:`ValueError` for an inverted band
        (``band[0] > band[1]``) or non-finite endpoints -- both would
        otherwise yield an all-false mask that downstream code reads
        as "no power in band", mirroring the
        ``SpectrumTrace.power_at`` out-of-span contract.
        """
        lo, hi = float(band[0]), float(band[1])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(
                f"band endpoints must be finite, got ({band[0]!r}, "
                f"{band[1]!r})"
            )
        if lo > hi:
            raise ValueError(
                f"inverted band: {lo / 1e6:.3f} MHz > {hi / 1e6:.3f} "
                f"MHz (need band[0] <= band[1])"
            )
        key = (
            self._analyzer_token(analyzer),
            analyzer._settings_key(),
            tuple(band),
        )
        mask = self._band_masks.get(key)
        if mask is None:
            self.stats.mask_misses += 1
            centers = analyzer.bin_centers()
            mask = (centers >= band[0]) & (centers <= band[1])
            self._bounded_put(
                self._band_masks, key, mask, self._max_grids
            )
        else:
            self.stats.mask_hits += 1
            if self.audit is not None:
                centers = analyzer.bin_centers()
                self.audit.check_hit(
                    "band_masks",
                    key,
                    mask,
                    lambda: (centers >= band[0]) & (centers <= band[1]),
                )
        return mask


def _recentered(
    response: PeriodicResponse, supply_voltage: float
) -> PeriodicResponse:
    """Shift a response to a non-nominal supply voltage setting."""
    if supply_voltage == response.nominal_voltage:
        return response
    delta = supply_voltage - response.nominal_voltage
    return PeriodicResponse(
        sample_rate_hz=response.sample_rate_hz,
        nominal_voltage=supply_voltage,
        die_voltage=response.die_voltage + delta,
        die_current=response.die_current,
        harmonic_frequencies_hz=response.harmonic_frequencies_hz,
        die_voltage_harmonics=response.die_voltage_harmonics,
        die_current_harmonics=response.die_current_harmonics,
    )
