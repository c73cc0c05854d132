"""Unit tests for the trapezoidal transient solver."""

import numpy as np
import pytest

from repro.pdn.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.pdn.netlist import Circuit
from repro.pdn.transient import TransientSolver
from repro.pdn.models import PDNModel, CORTEX_A72_PDN


def rc_step_circuit(i_step=1.0, t_step=1e-6):
    c = Circuit("rc-step")
    c.add(Resistor("r1", "n", "0", resistance=10.0))
    c.add(Capacitor("c1", "n", "0", capacitance=1e-8))
    c.add(
        CurrentSource(
            "iload", "0", "n", current=lambda t: i_step if t >= t_step else 0.0
        )
    )
    return c


class TestTransientBasics:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            TransientSolver(rc_step_circuit(), dt=0.0)

    def test_rejects_too_short_duration(self):
        solver = TransientSolver(rc_step_circuit(), dt=1e-8)
        with pytest.raises(ValueError):
            solver.run(1e-9)

    def test_rc_charging_curve(self):
        """Current step into RC charges toward I*R with tau = RC.

        The solver starts at the DC operating point with the source at
        its t=0 value, so the step must land after t=0 to exercise the
        charging transient.
        """
        t_step = 1e-6
        c = rc_step_circuit(i_step=1.0, t_step=t_step)
        solver = TransientSolver(c, dt=1e-8)
        result = solver.run(6e-6)
        v = result.voltage("n")
        # starts discharged, ends at I * R = 10 V
        assert v[0] == pytest.approx(0.0, abs=1e-6)
        assert v[-1] == pytest.approx(10.0, rel=0.01)
        # at one time constant past the step, ~63% of final value
        idx = np.searchsorted(result.times, t_step + 1e-7)
        assert v[idx] == pytest.approx(10.0 * 0.632, rel=0.05)

    def test_record_decimation(self):
        c = rc_step_circuit()
        solver = TransientSolver(c, dt=1e-8)
        full = solver.run(1e-6, record_every=1)
        deci = solver.run(1e-6, record_every=10)
        assert deci.times.size < full.times.size
        assert deci.times.size >= full.times.size // 10


class TestPDNStepResponse:
    """Fig. 1(c): a current step rings the PDN at its resonances."""

    @pytest.fixture(scope="class")
    def step_result(self):
        m = PDNModel(CORTEX_A72_PDN)
        circuit = m.build_circuit(2)
        circuit.add(
            CurrentSource(
                "iload",
                "die",
                "0",
                current=lambda t: 2.0 if t >= 20e-9 else 0.5,
            )
        )
        solver = TransientSolver(circuit, dt=0.5e-9)
        return solver.run(800e-9)

    def test_starts_at_quiescent_point(self, step_result):
        v0 = step_result.voltage("die")[0]
        assert v0 == pytest.approx(1.0, abs=0.01)

    def test_step_causes_droop(self, step_result):
        assert step_result.min_voltage("die") < 0.995

    def test_ringing_at_first_order_resonance(self, step_result):
        """The post-step fast oscillation frequency is near 67 MHz.

        A step also excites the slower downstream tanks, so the fast
        ring is isolated by subtracting a moving-average baseline
        before locating the spectral peak.
        """
        v = step_result.voltage("die")
        t = step_result.times
        mask = (t >= 18e-9) & (t <= 140e-9)
        tt, vv = t[mask], v[mask]
        minima = [
            tt[i]
            for i in range(1, len(vv) - 1)
            if vv[i] < vv[i - 1] and vv[i] < vv[i + 1]
        ]
        assert len(minima) >= 2, "expected a visible damped ring"
        ring_freq = 1.0 / (minima[1] - minima[0])
        # damped natural frequency sits just below the |Z| peak
        assert 50e6 < ring_freq < 80e6

    def test_oscillation_decays(self, step_result):
        """Ringing is damped: late peak-to-peak below early peak-to-peak."""
        v = step_result.voltage("die")
        t = step_result.times
        early = v[(t > 20e-9) & (t < 120e-9)]
        late = v[t > 600e-9]
        assert np.ptp(late) < 0.5 * np.ptp(early)


class TestTransientVsSteadyState:
    def test_periodic_excitation_matches_steady_state_solver(self):
        """Transient settles to the steady-state solver's amplitude."""
        m = PDNModel(CORTEX_A72_PDN)
        f0 = 67e6
        # square wave load toggling at the resonance frequency
        def load(t):
            return 1.0 if (t * f0) % 1.0 < 0.5 else 0.0

        circuit = m.build_circuit(2)
        circuit.add(CurrentSource("iload", "die", "0", current=load))
        solver = TransientSolver(circuit, dt=0.25e-9)
        result = solver.run(1.5e-6)
        t = result.times
        late = result.voltage("die")[t > 1.0e-6]
        transient_p2p = float(np.ptp(late))

        n = 64
        wave = np.where(np.arange(n) < n // 2, 1.0, 0.0)
        ss = m.solver(2).solve(wave, n * f0)
        assert transient_p2p == pytest.approx(ss.peak_to_peak, rel=0.15)

    def test_settled_transient_matches_steady_state_point_by_point(self):
        """After 40 periods of a periodic load, the trapezoidal transient
        matches ``SteadyStateSolver.solve`` at each of the 64 samples of
        the last period, and the waveform error falls 4x per halving of
        ``dt``: the integration is second order.

        The load is 1 A plus five sine harmonics of ``f0``, so its value
        at ``t = 0`` is its mean and the DC start is the mean operating
        point.  The error then holds a dt-independent offset of about
        5 uV, what is left of the slow mode after 40 periods (a cosine
        phase, starting away from the mean, leaves about 10 mV), plus
        an AC part set by ``dt``.
        """
        m = PDNModel(CORTEX_A72_PDN)
        f0 = 22.33e6
        n = 64

        def load(t):
            return 1.0 + sum(
                0.5 / h * np.sin(2.0 * np.pi * h * f0 * t)
                for h in range(1, 6)
            )

        steady = m.solver(2).solve(
            np.array([load(j / (n * f0)) for j in range(n)]), n * f0
        )
        ac_errors = []
        for k in (4, 8, 16):
            circuit = m.build_circuit(2)
            circuit.add(CurrentSource("iload", "die", "0", current=load))
            # dt = 1 / (64 f0 k): every k-th step lands on a sample.
            result = TransientSolver(circuit, dt=1.0 / (n * f0 * k)).run(
                40.0 / f0, record_every=k
            )
            last = slice(39 * n, 40 * n)
            np.testing.assert_allclose(
                result.times[last] * n * f0, np.arange(39 * n, 40 * n)
            )
            error = result.voltage("die")[last] - steady.die_voltage
            # Measured 1.6e-5, 7.8e-6 and 5.8e-6 V against 15.8 mV.
            assert np.abs(error).max() < 2.0e-3 * steady.peak_to_peak
            ac_errors.append(np.abs(error - error.mean()).max())
        # Measured 1.18e-5, 2.95e-6 and 7.4e-7 V.
        for coarse, fine in zip(ac_errors, ac_errors[1:]):
            assert coarse / fine > 3.5
