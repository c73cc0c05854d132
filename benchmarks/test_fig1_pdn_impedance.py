"""Figure 1(b)/(c): PDN impedance spectrum and step response.

Paper: the die-side impedance shows multiple LC-tank peaks; the first-
order peak (die cap vs package inductance) is the highest and sits in
50-200 MHz, the second-order in ~1-10 MHz, the third-order in the tens
of kHz.  A current step rings the network at those resonances.
"""

import numpy as np

from repro.pdn.elements import CurrentSource
from repro.pdn.models import PDNModel, CORTEX_A72_PDN
from repro.pdn.transient import TransientSolver

from benchmarks.conftest import print_header


def regenerate_impedance():
    model = PDNModel(CORTEX_A72_PDN)
    freqs = np.logspace(3.5, 8.7, 400)
    analysis = model.impedance_analysis(freqs, powered_cores=2)
    return freqs, analysis.impedance_magnitude()


def test_fig1b_impedance_spectrum(benchmark):
    freqs, mag = benchmark.pedantic(
        regenerate_impedance, rounds=1, iterations=1
    )
    print_header("Fig. 1(b): PDN input impedance seen by the die (A72)")
    first = (freqs > 50e6) & (freqs < 200e6)
    second = (freqs > 5e5) & (freqs < 2e7)
    third = (freqs > 4e3) & (freqs < 5e5)
    rows = [
        ("1st-order", freqs[first][np.argmax(mag[first])], mag[first].max()),
        ("2nd-order", freqs[second][np.argmax(mag[second])], mag[second].max()),
        ("3rd-order", freqs[third][np.argmax(mag[third])], mag[third].max()),
    ]
    print(f"{'peak':<10} {'frequency':>14} {'|Z|':>12}")
    for name, f, z in rows:
        print(f"{name:<10} {f / 1e6:>11.3f} MHz {z * 1e3:>9.1f} mOhm")

    # shape: 1st-order peak in 50-200 MHz and it tops the spectrum
    assert 50e6 < rows[0][1] < 200e6
    assert rows[0][2] >= rows[1][2] >= rows[2][2] * 0.5
    # paper's frequency decades for the lower-order tanks
    assert rows[1][1] < 2e7
    assert rows[2][1] < 5e5


def test_fig1c_step_response(benchmark):
    def regenerate():
        model = PDNModel(CORTEX_A72_PDN)
        circuit = model.build_circuit(2)
        circuit.add(
            CurrentSource(
                "iload",
                "die",
                "0",
                current=lambda t: 2.0 if t >= 20e-9 else 0.5,
            )
        )
        solver = TransientSolver(circuit, dt=0.5e-9)
        return solver.run(600e-9)

    result = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print_header("Fig. 1(c): die voltage response to a 1.5 A load step")
    v = result.voltage("die")
    t = result.times
    for t_ns in (10, 25, 33, 40, 60, 100, 200, 400):
        idx = np.searchsorted(t, t_ns * 1e-9)
        print(f"  t = {t_ns:4d} ns   V_die = {v[idx] * 1e3:8.2f} mV")
    droop = 1.0 - v.min()
    print(f"  worst droop: {droop * 1e3:.1f} mV")
    assert droop > 0.01
    # damped first-order ring right after the step: the first local
    # minimum arrives within about one resonance period (~15 ns)
    after = (t > 20e-9) & (t < 60e-9)
    va = v[after]
    ta = t[after]
    local_minima = [
        ta[i]
        for i in range(1, va.size - 1)
        if va[i] < va[i - 1] and va[i] < va[i + 1]
    ]
    assert local_minima, "no fast ring after the step"
    assert local_minima[0] < 45e-9
