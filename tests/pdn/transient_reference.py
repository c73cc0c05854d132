"""Reference transient integration: one element loop per step.

``TransientSolver.run`` precomputes every history stamp into constant
matrices and advances each step with a few mat-vecs; it must agree
with this textbook loop, which stamps the right-hand side one element
at a time and back-substitutes through the solver's LU factors.
"""

from typing import Dict, Optional

import numpy as np
from scipy.linalg import lu_solve

from repro.pdn.transient import TransientResult, TransientSolver


def run_reference(
    solver: TransientSolver,
    duration: float,
    initial: Optional[Dict[str, float]] = None,
    record_every: int = 1,
) -> TransientResult:
    """Integrate ``solver``'s circuit for ``duration`` seconds."""
    layout = solver._layout
    h = solver.dt
    steps = int(round(duration / h))
    if steps <= 0:
        raise ValueError("duration shorter than one step")

    caps, inds, vsrcs = solver._caps, solver._inds, solver._vsrcs
    isrcs = solver._isrcs

    def node_v(state: np.ndarray, name: str) -> float:
        idx = layout.node(name)
        return 0.0 if idx < 0 else float(state[idx])

    x = solver._initial_state(initial)
    cap_i = {e.name: 0.0 for e in caps}  # capacitor currents (a->b)

    n_rec = steps // record_every + 1
    times = np.empty(n_rec)
    traj = np.empty((n_rec, layout.size))
    times[0] = 0.0
    traj[0] = x
    rec = 1

    g_cap = {e.name: 2.0 * e.capacitance / h for e in caps}
    r_ind = {e.name: 2.0 * e.inductance / h for e in inds}

    for step in range(1, steps + 1):
        t_next = step * h
        b = np.zeros(layout.size)
        # Current sources (load convention: from node_a to node_b).
        for s in isrcs:
            i_now = s.value_at(t_next)
            ia, ib = layout.node(s.node_a), layout.node(s.node_b)
            if ia >= 0:
                b[ia] -= i_now
            if ib >= 0:
                b[ib] += i_now
        # Capacitor history: I_hist = g*v_n + i_n injected a->b.
        for e in caps:
            i_hist = g_cap[e.name] * (
                node_v(x, e.node_a) - node_v(x, e.node_b)
            ) + cap_i[e.name]
            ia, ib = layout.node(e.node_a), layout.node(e.node_b)
            if ia >= 0:
                b[ia] += i_hist
            if ib >= 0:
                b[ib] -= i_hist
        # Inductor history: v_ab(n+1) - R i(n+1) = -R i(n) - v_ab(n).
        for e in inds:
            k = layout.branch(e.name)
            v_ab = node_v(x, e.node_a) - node_v(x, e.node_b)
            b[k] = -r_ind[e.name] * x[k] - v_ab
        for e in vsrcs:
            b[layout.branch(e.name)] = e.voltage

        x_next = lu_solve(solver._matrix_lu, b)

        # Update capacitor currents for the next history term.
        for e in caps:
            v_new = node_v(x_next, e.node_a) - node_v(x_next, e.node_b)
            v_old = node_v(x, e.node_a) - node_v(x, e.node_b)
            i_hist = g_cap[e.name] * v_old + cap_i[e.name]
            cap_i[e.name] = g_cap[e.name] * v_new - i_hist

        x = x_next
        if step % record_every == 0:
            times[rec] = t_next
            traj[rec] = x
            rec += 1

    return solver._package(times[:rec], traj[:rec])
