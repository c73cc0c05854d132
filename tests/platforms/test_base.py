"""Unit tests for the Cluster abstraction."""

import numpy as np
import pytest

from repro.chain import (
    ChainItem,
    ChainRequest,
    SimulationSession,
    TimingJitter,
)
from repro.chain.stages import resolve_request
from repro.cpu.program import program_from_mnemonics


@pytest.fixture
def hilo(a72):
    return program_from_mnemonics(a72.spec.isa, ["add"] * 8 + ["sdiv"])


class TestControls:
    def test_clock_must_be_reachable(self, a72):
        a72.set_clock(1.18e9)  # one 20 MHz step down
        assert a72.clock_hz == 1.18e9
        with pytest.raises(ValueError, match="not reachable"):
            a72.set_clock(1.19e9)

    def test_allowed_clocks_descend_to_min(self, a72):
        clocks = a72.spec.allowed_clocks_hz()
        assert clocks[0] == a72.spec.nominal_clock_hz
        assert clocks[-1] >= a72.spec.min_clock_hz - 1.0
        steps = np.diff(clocks)
        assert np.allclose(steps, -a72.spec.clock_step_hz)

    def test_voltage_range_guard(self, a72):
        with pytest.raises(ValueError):
            a72.set_voltage(0.1)
        with pytest.raises(ValueError):
            a72.set_voltage(2.0)

    def test_power_gate_bounds(self, a53):
        a53.power_gate(2)
        assert a53.powered_cores == 2
        with pytest.raises(ValueError):
            a53.power_gate(0)
        with pytest.raises(ValueError):
            a53.power_gate(5)

    def test_reset_restores_nominal(self, a72):
        a72.set_clock(1.0e9)
        a72.set_voltage(0.9)
        a72.power_gate(1)
        a72.reset()
        assert a72.clock_hz == a72.spec.nominal_clock_hz
        assert a72.voltage == a72.spec.nominal_voltage
        assert a72.powered_cores == a72.spec.num_cores


class TestExecution:
    def test_active_cannot_exceed_powered(self, a72, hilo):
        a72.power_gate(1)
        with pytest.raises(ValueError, match="exceed"):
            a72.run(hilo, active_cores=2)

    def test_zero_active_cores_rejected_when_resolving(self, a72, hilo):
        # Rejected before any stage runs, so a bad item cannot fail
        # the rest of a batch at execution time.
        request = ChainRequest(
            cluster=a72, items=[ChainItem(program=hilo, active_cores=0)]
        )
        with pytest.raises(ValueError, match="active_cores must be >= 1"):
            resolve_request(request, SimulationSession())

    def test_run_reports_operating_point(self, a72, hilo):
        a72.set_clock(1.0e9)
        run = a72.run(hilo)
        assert run.clock_hz == 1.0e9
        assert run.voltage == 1.0
        assert run.powered_cores == 2
        assert run.active_cores == 2

    def test_current_scales_with_clock(self, a72, hilo):
        run_fast = a72.run(hilo)
        a72.set_clock(0.6e9)
        run_slow = a72.run(hilo)
        fast_mean = run_fast.response.die_current.mean()
        slow_mean = run_slow.response.die_current.mean()
        assert slow_mean == pytest.approx(0.5 * fast_mean, rel=1e-6)

    def test_current_scales_with_voltage(self, a72, hilo):
        nominal = a72.run(hilo).response.die_current.mean()
        a72.set_voltage(0.9)
        reduced = a72.run(hilo).response.die_current.mean()
        assert reduced == pytest.approx(0.9 * nominal, rel=1e-6)

    def test_lower_voltage_shifts_rail_down(self, a72, hilo):
        a72.set_voltage(0.9)
        run = a72.run(hilo)
        assert run.response.nominal_voltage == pytest.approx(0.9)
        assert run.response.die_voltage.max() < 0.9

    def test_droop_peaks_when_loop_hits_resonance(self, a72, hilo):
        """Fig. 11 physics at cluster level: tune the clock so the loop
        frequency crosses 67 MHz and the droop maximizes there."""
        droops = {}
        for clock in (1.2e9, 800e6, 540e6):
            a72.set_clock(clock)
            run = a72.run(hilo)
            droops[run.loop_frequency_hz] = run.peak_to_peak
        # 800 MHz / 12 cycles? -> loop at 100, 66.7, 45 MHz
        freqs = sorted(droops)
        mid = [f for f in freqs if 60e6 < f < 72e6]
        assert mid, f"no sweep point near resonance: {freqs}"
        assert droops[mid[0]] == max(droops.values())

    def test_run_trace_path(self, a72):
        resp = a72.run_trace(np.full(64, 1.0), 1.2e9)
        assert resp.max_droop > 0.0

    def test_jitter_trace_longer_but_periodic(self, a72, hilo):
        run = a72.run(hilo, jitter=TimingJitter(seed=0, tiles=4))
        # response waveform covers jitter.tiles periods
        base = a72.run(hilo)
        assert run.response.die_voltage.size == (
            4 * base.response.die_voltage.size
        )


class TestMemoized:
    def test_repeat_shares_execution_and_response(self, a72, hilo):
        with a72.memoized():
            first = a72.run(hilo)
            second = a72.run(hilo)
        assert second is not first
        assert second.item is not first.item
        assert second.execution is first.execution
        assert second.response is first.response
        fresh = a72.run(hilo)
        np.testing.assert_array_equal(
            fresh.response.die_voltage, first.response.die_voltage
        )

    def test_operating_point_and_inputs_are_in_the_key(self, a72, hilo):
        jitter = TimingJitter(seed=3, tiles=2)
        with a72.memoized():
            base = a72.run(hilo)
            jittered = a72.run(hilo, jitter=jitter)
            assert jittered.response is not base.response
            # An equal jitter built anew is the same input.
            again = a72.run(hilo, jitter=TimingJitter(seed=3, tiles=2))
            assert again.response is jittered.response
            assert a72.run(hilo, jitter=TimingJitter(seed=4, tiles=2)
                           ).response is not jittered.response
            assert a72.run(hilo, active_cores=1).response is not (
                base.response
            )
            assert a72.run(hilo, iterations=8).response is not (
                base.response
            )
            a72.set_voltage(0.9)
            lower = a72.run(hilo)
            assert lower.response is not base.response
            assert lower.voltage == 0.9
            a72.set_voltage(a72.spec.nominal_voltage)
            assert a72.run(hilo).response is base.response

    def test_run_trace_keys_on_bytes_and_rate(self, a72):
        trace = np.linspace(1.0, 2.0, 64)
        with a72.memoized():
            first = a72.run_trace(trace, 1.2e9)
            assert a72.run_trace(list(trace), 1.2e9) is first
            assert a72.run_trace(trace, 1.0e9) is not first
            changed = trace.copy()
            changed[-1] = np.nextafter(changed[-1], 3.0)
            assert a72.run_trace(changed, 1.2e9) is not first

    def test_scopes_nest_and_the_outermost_drops_the_memo(self, a72, hilo):
        with a72.memoized():
            first = a72.run(hilo)
            with a72.memoized():
                assert a72.run(hilo).response is first.response
            assert a72.run(hilo).response is first.response
        assert a72.run(hilo).response is not first.response

    def test_memo_dropped_when_the_block_raises(self, a72, hilo):
        with pytest.raises(RuntimeError):
            with a72.memoized():
                first = a72.run(hilo)
                raise RuntimeError("experiment failed")
        assert a72.run(hilo).response is not first.response
