"""Reference steady-state solve: both die waveforms in one transform.

``SteadyStateSolver.solve_batch`` inverse-transforms only the voltage
rows and leaves each response's die current to its first read.  The
function here is the solve as it stood before that: one ``irfft`` of
the voltage and current rows together, every field computed up front
and given to the constructor.  Every field of a solver response must
equal, bit for bit, the field built here.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.pdn.steady_state import PeriodicResponse, SteadyStateSolver


def two_row_solve(
    solver: SteadyStateSolver,
    load_currents: np.ndarray,
    sample_rates_hz: Sequence[float],
    transfers: Sequence[Tuple[np.ndarray, np.ndarray]],
    supply_voltages: Optional[Sequence[float]] = None,
) -> List[PeriodicResponse]:
    """The responses of ``solver.solve_batch`` with the same arguments,
    every field computed at solve time."""
    i_load = np.asarray(load_currents, dtype=float)
    rows, n = i_load.shape
    nominal = solver.nominal_voltage
    transfer = (
        transfers[0][0]
        if rows == 1
        else np.stack([stack for stack, _ in transfers])
    )
    harmonics = transfer * np.fft.rfft(i_load)[:, None]
    waves = np.fft.irfft(harmonics, n=n)
    v_waves = waves[:, 0]
    v_waves += nominal
    supplies = (
        (nominal,) * rows if supply_voltages is None else supply_voltages
    )
    offsets = [v - nominal for v in supplies]
    if any(offsets):
        v_waves += np.array(offsets)[:, None]
    amplitudes = harmonics * (2.0 / n)
    np.divide(harmonics[..., 0], n, out=amplitudes[..., 0])
    return [
        PeriodicResponse(
            sample_rate_hz=sample_rates_hz[r],
            nominal_voltage=supplies[r],
            die_voltage=waves[r, 0],
            die_current=waves[r, 1],
            harmonic_frequencies_hz=transfers[r][1],
            die_voltage_harmonics=amplitudes[r, 0],
            die_current_harmonics=amplitudes[r, 1],
        )
        for r in range(rows)
    ]
