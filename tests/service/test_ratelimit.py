"""Token-bucket rate limiting, driven by a fake clock."""

import pytest

from repro.service.ratelimit import TenantRateLimiter, TokenBucket


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestTokenBucket:
    def test_burst_then_reject(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=1.0, burst=3.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        retry = bucket.try_acquire()
        assert retry == pytest.approx(1.0)

    def test_nothing_consumed_on_failure(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=1.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        first = bucket.try_acquire()
        second = bucket.try_acquire()
        assert first == second == pytest.approx(0.5)

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=1.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        clock.advance(0.5)  # 2/s * 0.5s = 1 token
        assert bucket.try_acquire() == 0.0

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate_per_s=1.0, burst=0.5)


class TestTenantRateLimiter:
    def test_disabled_when_rate_is_none(self):
        limiter = TenantRateLimiter(None)
        assert not limiter.enabled
        for _ in range(100):
            assert limiter.try_acquire("anyone") == 0.0

    @pytest.mark.parametrize(
        "rate, burst", [(0.0, 5.0), (-1.0, 5.0), (1.0, 0.5)]
    )
    def test_invalid_parameters_rejected_before_any_tenant(
        self, rate, burst
    ):
        with pytest.raises(ValueError):
            TenantRateLimiter(rate, burst=burst)

    def test_tenants_have_independent_buckets(self):
        clock = FakeClock()
        limiter = TenantRateLimiter(1.0, burst=1.0, clock=clock)
        assert limiter.try_acquire("alice") == 0.0
        assert limiter.try_acquire("alice") > 0.0  # alice exhausted
        assert limiter.try_acquire("bob") == 0.0  # bob unaffected
