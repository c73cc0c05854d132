"""Batch-first measurement chain (CPU -> PDN -> EM -> analyzer).

The paper's methodology is one fixed signal path -- instruction loop ->
load current -> PDN response -> radiated EM -> analyzer amplitude.
This package reifies it once as a composable, batch-first pipeline:

- :class:`Stage` implementations for each physical step, composed into
  a :class:`SignalPath`;
- batch types (:class:`ChainRequest` carrying N programs x M cluster
  operating points, :class:`ChainResult` with per-item responses /
  emissions / amplitudes) so a whole resonance sweep or GA generation
  is one chain call;
- a :class:`SimulationSession` caching schedules and transfer-function
  grids across calls.

Every run of a program goes through this layer.  ``Cluster.run`` is a
one-item, response-only call (execute -> current -> pdn) through a
path and session the cluster owns; ``EMCharacterizer.measure``,
``ResonanceSweep.run``, the GA fitness evaluators and
``VirusGenerator`` are thin shims over the full chain.  Mixed-program
and cache-miss runs are chain items too.  The test-side copy of the
pre-chain per-call implementation in ``tests/chain/legacy_reference.py``
pins all of them bit for bit (``tests/chain/test_equivalence.py``,
``tests/property/test_property_chain.py``).
"""

from repro.chain.path import SignalPath
from repro.chain.session import SessionStats, SimulationSession
from repro.chain.stages import (
    ChainBatch,
    CurrentStage,
    ExecuteStage,
    PDNStage,
    PropagateStage,
    RadiateStage,
    ReceiveStage,
    Stage,
    resolve_request,
)
from repro.chain.types import (
    ChainItem,
    ChainItemResult,
    ChainRequest,
    ChainResult,
    OperatingPoint,
    TimingJitter,
)

__all__ = [
    "ChainBatch",
    "ChainItem",
    "ChainItemResult",
    "ChainRequest",
    "ChainResult",
    "CurrentStage",
    "ExecuteStage",
    "OperatingPoint",
    "PDNStage",
    "PropagateStage",
    "RadiateStage",
    "ReceiveStage",
    "SessionStats",
    "SignalPath",
    "SimulationSession",
    "Stage",
    "TimingJitter",
    "resolve_request",
]
