"""Time-domain transient simulation via trapezoidal companion models.

This is the classical SPICE approach: at a fixed step ``h`` every
capacitor becomes a conductance ``2C/h`` plus a history current source
and every inductor branch gains an equivalent resistance ``2L/h`` plus a
history voltage.  Because the PDN is linear and the step is fixed, the
system matrix is constant and is LU-factorized once; each step is a
single back-substitution, so long waveforms (Figs. 1c and 2) integrate
quickly.

The per-step right-hand side is itself linear in the state, so all
history stamps are precomputed at solver construction into constant
matrices (``_hist_mat``, ``_cap_inj``, ``_src_mat``, ``_b_vsrc``):
each step of :meth:`TransientSolver.run` and
:meth:`TransientStepper.step` assembles the RHS as two mat-vecs plus a
vector add -- no per-element Python loops or ``layout.node()`` dict
lookups.  The per-element formulation it is checked against is in
``tests/pdn/transient_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.obs.timing import timed_kernel
from repro.pdn.elements import Capacitor, CurrentSource, Inductor, VoltageSource
from repro.pdn.impedance import dc_operating_point
from repro.pdn.netlist import Circuit, MNALayout


@dataclass
class TransientResult:
    """Sampled waveforms produced by :class:`TransientSolver`.

    ``node_voltages[name][k]`` is the voltage of node ``name`` at
    ``times[k]``; ``branch_currents`` covers inductors and voltage
    sources (positive current flows from ``node_a`` to ``node_b``).
    """

    times: np.ndarray
    node_voltages: Dict[str, np.ndarray]
    branch_currents: Dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        return self.node_voltages[node]

    def current(self, branch: str) -> np.ndarray:
        return self.branch_currents[branch]

    def min_voltage(self, node: str) -> float:
        return float(np.min(self.node_voltages[node]))

    def max_voltage(self, node: str) -> float:
        return float(np.max(self.node_voltages[node]))

    def peak_to_peak(self, node: str) -> float:
        v = self.node_voltages[node]
        return float(np.max(v) - np.min(v))


class TransientSolver:
    """Fixed-step trapezoidal integrator for a linear circuit.

    Parameters
    ----------
    circuit:
        The netlist to integrate.  Time-varying behaviour comes from
        :class:`~repro.pdn.elements.CurrentSource` elements whose
        ``current`` is a callable of time.
    dt:
        Integration step in seconds.  It must resolve the fastest
        resonance of interest; 1/20 of the first-order resonance period
        (~0.7 ns for an 80 MHz resonance) is a sound default.
    """

    def __init__(self, circuit: Circuit, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self._circuit = circuit
        self._dt = dt
        self._layout: MNALayout = circuit.layout()
        self._matrix_lu = None
        self._build_matrix()
        self._build_stamps()

    @property
    def dt(self) -> float:
        return self._dt

    def _build_matrix(self) -> None:
        layout = self._layout
        h = self._dt
        a = self._circuit.dc_matrix()
        # Capacitor companion: conductance 2C/h.
        for e in self._circuit.elements:
            if isinstance(e, Capacitor):
                g = 2.0 * e.capacitance / h
                ia, ib = layout.node(e.node_a), layout.node(e.node_b)
                if ia >= 0:
                    a[ia, ia] += g
                if ib >= 0:
                    a[ib, ib] += g
                if ia >= 0 and ib >= 0:
                    a[ia, ib] -= g
                    a[ib, ia] -= g
            elif isinstance(e, Inductor):
                # Branch equation becomes  v_ab - (2L/h) i = v_hist.
                k = layout.branch(e.name)
                a[k, k] -= 2.0 * e.inductance / h
                # The DC matrix has no L term (an inductor is a short at
                # DC); the -2L/h supplies it.
        # scipy is imported where it is used, so `import repro` and
        # every workload that never steps a transient stay without it.
        from scipy.linalg import lu_factor

        self._matrix = a
        self._matrix_lu = lu_factor(a)

    def _build_stamps(self) -> None:
        """Precompute the constant history-stamp matrices.

        With the capacitor voltage selector ``S`` (rows of +-1 picking
        ``v_a - v_b``), its injection transpose, the inductor history
        rows and the source injection columns all constant, every step's
        RHS is ``hist_mat @ x + cap_inj @ cap_i + src_mat @ i(t) +
        b_vsrc``.
        """
        layout = self._layout
        h = self._dt
        n = layout.size
        elements = self._circuit.elements
        self._caps = [e for e in elements if isinstance(e, Capacitor)]
        self._inds = [e for e in elements if isinstance(e, Inductor)]
        self._vsrcs = [e for e in elements if isinstance(e, VoltageSource)]
        self._isrcs = list(self._circuit.current_sources())

        n_cap = len(self._caps)
        cap_sel = np.zeros((n_cap, n))
        for row, e in enumerate(self._caps):
            ia, ib = layout.node(e.node_a), layout.node(e.node_b)
            if ia >= 0:
                cap_sel[row, ia] = 1.0
            if ib >= 0:
                cap_sel[row, ib] = -1.0
        self._cap_sel = cap_sel
        self._cap_inj = cap_sel.T.copy()
        self._g_cap_vec = np.array(
            [2.0 * e.capacitance / h for e in self._caps]
        )

        hist = self._cap_inj @ (self._g_cap_vec[:, None] * cap_sel)
        for e in self._inds:
            k = layout.branch(e.name)
            r = 2.0 * e.inductance / h
            hist[k, k] = -r
            ia, ib = layout.node(e.node_a), layout.node(e.node_b)
            if ia >= 0:
                hist[k, ia] = -1.0
            if ib >= 0:
                hist[k, ib] = 1.0
        self._hist_mat = hist

        src_mat = np.zeros((n, len(self._isrcs)))
        for col, s in enumerate(self._isrcs):
            ia, ib = layout.node(s.node_a), layout.node(s.node_b)
            if ia >= 0:
                src_mat[ia, col] = -1.0
            if ib >= 0:
                src_mat[ib, col] = 1.0
        self._src_mat = src_mat

        b_vsrc = np.zeros(n)
        for e in self._vsrcs:
            b_vsrc[layout.branch(e.name)] = e.voltage
        self._b_vsrc = b_vsrc

        # Pre-solve the constant stamps against the factorized system:
        # x_next = lu_solve(A, hist_mat @ x + cap_inj @ cap_i + ...)
        # distributes over the sum, so each transient step reduces to
        # two or three small mat-vecs -- no per-step lu_solve call.
        from scipy.linalg import lu_solve

        lu = self._matrix_lu
        self._prop_state = lu_solve(lu, self._hist_mat)
        self._prop_cap = (
            lu_solve(lu, self._cap_inj)
            if n_cap
            else np.zeros((n, 0))
        )
        self._prop_src = (
            lu_solve(lu, src_mat)
            if self._isrcs
            else np.zeros((n, 0))
        )
        self._prop_const = lu_solve(lu, b_vsrc)

    def _source_values(self, t: float) -> np.ndarray:
        return np.fromiter(
            (s.value_at(t) for s in self._isrcs),
            dtype=float,
            count=len(self._isrcs),
        )

    def _initial_state(
        self, initial: Optional[Dict[str, float]]
    ) -> np.ndarray:
        """DC operating point, optionally overridden per node."""
        layout = self._layout
        op = dc_operating_point(self._circuit)
        if initial:
            op.update(initial)
        x = np.zeros(layout.size)
        for name, idx in layout.node_index.items():
            x[idx] = op.get(name, 0.0)
        # Initial inductor currents from the DC solve: re-run the DC MNA
        # to recover branch currents consistent with the node voltages.
        x_dc = self._dc_state()
        for e in self._inds + self._vsrcs:
            x[layout.branch(e.name)] = x_dc[layout.branch(e.name)]
        return x

    @timed_kernel("pdn.transient.run")
    def run(
        self,
        duration: float,
        initial: Optional[Dict[str, float]] = None,
        record_every: int = 1,
    ) -> TransientResult:
        """Integrate for ``duration`` seconds.

        ``initial`` optionally overrides the starting node voltages;
        by default the DC operating point (with each current source at
        its value at ``t = 0``) is used so a constant-load start sits at
        quiescence and only *changes* in load excite the network.
        ``record_every`` decimates the stored waveform.
        """
        layout = self._layout
        h = self._dt
        steps = int(round(duration / h))
        if steps <= 0:
            raise ValueError("duration shorter than one step")

        x = self._initial_state(initial)
        cap_i = np.zeros(len(self._caps))

        n_rec = steps // record_every + 1
        times = np.empty(n_rec)
        traj = np.empty((n_rec, layout.size))
        times[0] = 0.0
        traj[0] = x
        rec = 1

        prop_state = self._prop_state
        prop_cap = self._prop_cap
        prop_src = self._prop_src
        prop_const = self._prop_const
        cap_sel = self._cap_sel
        g_vec = self._g_cap_vec
        has_src = len(self._isrcs) > 0

        dv = cap_sel @ x  # capacitor voltage differences of the state
        for step in range(1, steps + 1):
            t_next = step * h
            x_next = prop_state @ x + prop_cap @ cap_i + prop_const
            if has_src:
                x_next += prop_src @ self._source_values(t_next)
            # Update capacitor currents for the next history term.
            dv_new = cap_sel @ x_next
            cap_i = g_vec * dv_new - (g_vec * dv + cap_i)
            dv = dv_new
            x = x_next
            if step % record_every == 0:
                times[rec] = t_next
                traj[rec] = x
                rec += 1

        return self._package(times[:rec], traj[:rec])

    def _package(
        self, times: np.ndarray, traj: np.ndarray
    ) -> TransientResult:
        layout = self._layout
        node_voltages = {
            name: traj[:, idx] for name, idx in layout.node_index.items()
        }
        branch_currents = {
            name: traj[:, layout.num_nodes + idx]
            for name, idx in layout.branch_index.items()
        }
        return TransientResult(
            times=times,
            node_voltages=node_voltages,
            branch_currents=branch_currents,
        )

    def stepper(self, load_node: str = "die") -> "TransientStepper":
        """A closed-loop stepper drawing load current at ``load_node``.

        Unlike :meth:`run`, the caller supplies the load current one
        step at a time -- the hook needed to put a feedback controller
        (e.g. adaptive clocking) in the loop with the network.
        """
        return TransientStepper(self, load_node)

    def _dc_state(self) -> np.ndarray:
        """Full DC MNA solution (node voltages and branch currents)."""
        layout = self._layout
        a = self._circuit.dc_matrix()
        a += np.diag(
            np.concatenate(
                [
                    np.full(layout.num_nodes, 1e-12),
                    np.zeros(layout.num_branches),
                ]
            )
        )
        injections: Dict[str, float] = {}
        for s in self._circuit.current_sources():
            i0 = s.value_at(0.0)
            injections[s.node_a] = injections.get(s.node_a, 0.0) - i0
            injections[s.node_b] = injections.get(s.node_b, 0.0) + i0
        b = np.zeros(layout.size)
        for node, val in injections.items():
            idx = layout.node(node)
            if idx >= 0:
                b[idx] += val
        for e in self._circuit.elements:
            if isinstance(e, VoltageSource):
                b[layout.branch(e.name)] = e.voltage
        return np.linalg.solve(a, b)


class TransientStepper:
    """Step-at-a-time trapezoidal integration with an external load.

    Wraps a :class:`TransientSolver`'s factorized system but takes the
    die load current per step from the caller instead of from a source
    element -- current sources in the circuit still apply on top.  The
    initial state is the DC operating point with the first load value.

    The per-step RHS reuses the solver's precomputed history stamps, so
    a step is two mat-vecs, one back-substitution and a capacitor
    history update -- no per-element loops.
    """

    def __init__(self, solver: TransientSolver, load_node: str):
        self._solver = solver
        self._circuit = solver._circuit
        self._layout = solver._layout
        self._load_node = load_node
        if load_node != "0" and load_node not in (
            self._layout.node_index
        ):
            raise KeyError(f"unknown load node {load_node!r}")
        self._isrcs = solver._isrcs
        self._vsrcs = solver._vsrcs
        # Load injection vector: -1 at the load node (load convention),
        # pre-solved against the factorized system like the other stamps.
        self._load_vec = np.zeros(self._layout.size)
        idx = self._layout.node(load_node)
        if idx >= 0:
            self._load_vec[idx] = -1.0
        from scipy.linalg import lu_solve

        self._prop_load = lu_solve(solver._matrix_lu, self._load_vec)
        self._state: Optional[np.ndarray] = None
        self._cap_i: Optional[np.ndarray] = None
        self._t = 0.0

    @property
    def time_s(self) -> float:
        return self._t

    def reset(self, initial_load_a: float = 0.0) -> None:
        """Initialize at the DC operating point with the given load."""
        layout = self._layout
        a = self._circuit.dc_matrix()
        a += np.diag(
            np.concatenate(
                [
                    np.full(layout.num_nodes, 1e-12),
                    np.zeros(layout.num_branches),
                ]
            )
        )
        b = self._load_vec * initial_load_a + self._solver._b_vsrc.copy()
        if self._isrcs:
            b += self._solver._src_mat @ self._solver._source_values(0.0)
        self._state = np.linalg.solve(a, b)
        self._cap_i = np.zeros(len(self._solver._caps))
        self._t = 0.0

    def _node_v(self, state: np.ndarray, name: str) -> float:
        idx = self._layout.node(name)
        return 0.0 if idx < 0 else float(state[idx])

    def step(self, load_a: float) -> float:
        """Advance one step with ``load_a`` amperes drawn at the load
        node; returns the new load-node voltage."""
        if self._state is None:
            self.reset(load_a)
        solver = self._solver
        x = self._state
        t_next = self._t + solver.dt
        x_next = (
            solver._prop_state @ x
            + solver._prop_cap @ self._cap_i
            + solver._prop_const
            + self._prop_load * load_a
        )
        if self._isrcs:
            x_next += solver._prop_src @ solver._source_values(t_next)
        g_vec = solver._g_cap_vec
        self._cap_i = g_vec * (solver._cap_sel @ x_next) - (
            g_vec * (solver._cap_sel @ x) + self._cap_i
        )
        self._state = x_next
        self._t = t_next
        return self._node_v(x_next, self._load_node)

    def voltage(self, node: str) -> float:
        if self._state is None:
            raise RuntimeError("stepper not initialized; call reset()")
        return self._node_v(self._state, node)
