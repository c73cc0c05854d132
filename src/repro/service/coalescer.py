"""Request coalescing: compatible pending jobs become one chain run.

The service executes jobs in strict submission order (one worker, one
shared :class:`~repro.chain.SimulationSession` per platform), which is
what makes results independent of *how* requests happened to arrive.
Coalescing exploits the chain's batch-first design on top of that
order: the dispatcher takes the longest **contiguous prefix** of the
pending queue whose jobs share a :class:`CompatKey` -- same platform,
same analyzer settings, same band and sample count -- and folds their
items into a single :class:`~repro.chain.ChainRequest`.

Only a contiguous prefix is eligible: skipping over an incompatible
job to batch a later compatible one would reorder the analyzer RNG
stream relative to sequential submission and break the service's
bit-identity contract.  The chain itself guarantees that a batch of N
items equals N sequential one-item runs bit for bit (per-stream RNG
draws happen in request order), so *any* partition of a submission
sequence into contiguous batches yields identical per-job results --
the property ``tests/property/test_property_service.py`` pins.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional, Tuple

from repro.service.jobs import Job


class CompatKey(NamedTuple):
    """Everything two jobs must share to ride one chain request.

    ``analyzer_key`` is the analyzer's front-panel settings tuple;
    ``band`` / ``samples`` are request-level readout settings of the
    folded :class:`~repro.chain.ChainRequest`, so they cannot vary per
    item.  The cluster's operating state needs no field: no job
    mutates a cluster (measure and sweep jobs carry per-item operating
    points), so every job of a platform sees the same state.
    """

    platform: str
    analyzer_key: Tuple
    band: Tuple[float, float]
    samples: int


class Coalescer:
    """Bounded FIFO of pending jobs with prefix-run batch extraction."""

    def __init__(self, max_pending_jobs: int, max_batch_items: int):
        if max_pending_jobs < 1:
            raise ValueError("max_pending_jobs must be >= 1")
        if max_batch_items < 1:
            raise ValueError("max_batch_items must be >= 1")
        self.max_pending_jobs = max_pending_jobs
        self.max_batch_items = max_batch_items
        self._pending: Deque[Tuple[Job, Optional[CompatKey], int]] = (
            deque()
        )

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.max_pending_jobs

    def push(
        self, job: Job, key: Optional[CompatKey], items: int
    ) -> None:
        """Append a job with its compat key (``None`` = exclusive)."""
        self._pending.append((job, key, items))

    def remove(self, job_id: str) -> Optional[Job]:
        """Drop a queued job (cancellation); None if not queued."""
        for entry in self._pending:
            if entry[0].id == job_id:
                self._pending.remove(entry)
                return entry[0]
        return None

    def take_batch(self) -> List[Job]:
        """Pop the next batch: the head job plus every immediately
        following job with the same compat key, until the item budget
        is spent.  Exclusive jobs (``key=None``, e.g. virus runs)
        always come out alone."""
        if not self._pending:
            return []
        head, head_key, head_items = self._pending.popleft()
        batch = [head]
        if head_key is None:
            return batch
        budget = self.max_batch_items - head_items
        while self._pending:
            _, key, items = self._pending[0]
            if key != head_key or items > budget:
                break
            job, _, items = self._pending.popleft()
            batch.append(job)
            budget -= items
        return batch
