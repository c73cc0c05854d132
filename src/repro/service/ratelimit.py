"""Per-tenant token-bucket rate limiting.

A :class:`TokenBucket` refills continuously at ``rate_per_s`` up to
``burst`` tokens; each submission costs one token.  The clock is
injectable (defaulting to ``time.monotonic`` -- never wall time, audit
rule R2) so tests drive the bucket deterministically with a fake
clock.  :class:`TenantRateLimiter` lazily keeps one bucket per tenant
and is a no-op when constructed with ``rate_per_s=None``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional


def check_bucket(rate_per_s: float, burst: float) -> None:
    """Raise ``ValueError`` unless a bucket refilling at ``rate_per_s``
    up to ``burst`` tokens can ever grant a submission."""
    if not rate_per_s > 0.0:
        raise ValueError("rate_per_s must be positive")
    if not burst >= 1.0:
        raise ValueError("burst must allow at least one token")


class TokenBucket:
    """Continuous-refill token bucket."""

    def __init__(
        self,
        rate_per_s: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        check_bucket(rate_per_s, burst)
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._updated)
        self._updated = now
        self._tokens = min(
            self.burst, self._tokens + elapsed * self.rate_per_s
        )

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available.

        Returns ``0.0`` on success, else the seconds until the bucket
        will have refilled enough (the 429 ``retry_after_s`` hint);
        nothing is consumed on failure.
        """
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate_per_s


class TenantRateLimiter:
    """One lazily-created token bucket per tenant.

    ``rate_per_s=None`` disables limiting entirely (every check
    succeeds); tenants share nothing, so one noisy tenant cannot
    starve another's budget.  Settings are checked here, before any
    tenant's first bucket.
    """

    def __init__(
        self,
        rate_per_s: Optional[float],
        burst: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate_per_s is not None:
            check_bucket(rate_per_s, burst)
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}

    @property
    def enabled(self) -> bool:
        return self.rate_per_s is not None

    def try_acquire(self, tenant: str) -> float:
        """``0.0`` if ``tenant`` may submit now, else retry-after secs."""
        if self.rate_per_s is None:
            return 0.0
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.rate_per_s, self.burst, clock=self._clock
            )
            self._buckets[tenant] = bucket
        return bucket.try_acquire()
