"""Time evolution in the single-excitation sector.

Four propagators are provided; the first three are one ModePropagator
(sine modes, a 2x2 unitary per mode, back to sites) that differ in its table:

* AnalyticPropagator -- exact, via the 2x2 dressed blocks of the normal-mode
  decomposition; valid in every coupling regime.
* WeakCouplingPropagator -- resonant-mode approximation (one mode dressed,
  the rest frozen); meaningful when g is small against all other detunings.
* StrongCouplingPropagator -- decoupled polariton chains; meaningful when g
  dominates the free-field bandwidth and the atomic frequency.
* DenseOraclePropagator -- exact, via a full Jacobi eigendecomposition of the
  Hamiltonian matrix; shares no formulas with the analytic path beyond
  ``evolution_phases`` and accepts arbitrary symmetric photon-hopping matrices.

All propagators are immutable after construction and expose
``evolve(state, t)``: shape (2N,) for a scalar t, (len(t), 2N) for an array
of times.  The exact ones are unitary to machine precision.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import evolution_phases, jacobi_eigh
from .model import ModelParams
from .spectral import ModeTable, mode_table


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid, in units of 1/J."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        if self.t_start < 0 or self.t_end < self.t_start:
            raise ValueError("need t_end >= t_start >= 0")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


def _split(state, n):
    state = np.asarray(state, dtype=complex)
    if state.shape != (2 * n,):
        raise ValueError(f"expected a length-{2 * n} amplitude vector")
    return state[:n], state[n:]


class ModePropagator:
    """Evolution through the sine modes, one 2x2 unitary per mode.

    Mode amplitudes (a, b) go into branches p_pm = a_pm a + b_pm b turning at
    eps_pm; ``table`` gives the (a_pm, b_pm, eps_pm) that a subclass applies.
    """

    def __init__(self, params: ModelParams, modes: ModeTable | None = None):
        self.params = params
        self.modes = self.table(modes if modes is not None else mode_table(params))

    def table(self, modes: ModeTable) -> ModeTable:
        """The per-mode blocks this propagator applies; the exact dressed ones here."""
        return modes

    def evolve(self, state: np.ndarray, t) -> np.ndarray:
        """State at time t, shape (2N,); for an array of times, shape (len(t), 2N)."""
        m = self.modes
        times = np.atleast_1d(t)
        cf, ca = _split(state, self.params.n_cavities)
        a = m.vectors @ cf
        b = m.vectors @ ca
        # branch coordinates per mode, evolved by their eigenphases
        p_plus = (m.a_plus * a + m.b_plus * b) * evolution_phases(m.eps_plus, times)
        p_minus = (m.a_minus * a + m.b_minus * b) * evolution_phases(m.eps_minus, times)
        a_t = m.a_plus * p_plus + m.a_minus * p_minus
        b_t = m.b_plus * p_plus + m.b_minus * p_minus
        states = np.concatenate([a_t @ m.vectors, b_t @ m.vectors], axis=1)
        return states[0] if np.ndim(t) == 0 else states


class AnalyticPropagator(ModePropagator):
    """Exact evolution through the per-mode 2x2 dressed blocks."""

    method = "analytic"


class DenseOraclePropagator:
    """Exact evolution via a full Jacobi eigendecomposition of H."""

    method = "dense"

    def __init__(self, hamiltonian: np.ndarray):
        self.eigenvalues, self.eigenvectors = jacobi_eigh(hamiltonian)

    def evolve(self, state: np.ndarray, t) -> np.ndarray:
        """State at time t, shape (2N,); for an array of times, shape (len(t), 2N)."""
        u = self.eigenvectors
        coeffs = u.T @ np.asarray(state, dtype=complex)
        return (evolution_phases(self.eigenvalues, t) * coeffs) @ u.T


class WeakCouplingPropagator(ModePropagator):
    """Effective evolution with a single dressed mode, all others frozen.

    ``validity`` is g over the smallest off-resonant detuning; the
    approximation is good when it is small.  The caller picks the resonant
    mode (``make_propagator`` takes the one closest to the atoms); nothing is
    refused when the metric is large.
    """

    method = "weak"

    def __init__(self, params: ModelParams, resonant_mode: int, modes: ModeTable | None = None):
        n = params.n_cavities
        if not 1 <= resonant_mode <= n:
            raise ValueError(f"resonant mode {resonant_mode} out of range [1, {n}]")
        self.resonant_mode = resonant_mode
        super().__init__(params, modes)
        others = np.abs(np.delete(self.modes.detunings, resonant_mode - 1))
        self.validity = float(params.coupling / others.min()) if others.min() > 0 else np.inf

    def table(self, modes: ModeTable) -> ModeTable:
        res = np.arange(self.params.n_cavities) == self.resonant_mode - 1
        w_a, g, h = self.params.atom_freq, self.params.coupling, np.sqrt(0.5)
        # off-resonant modes keep their bare phases ('+' the photon, '-' the atom);
        # the resonant block rotates at the atomic frequency and Rabi-flops
        return replace(modes, a_plus=np.where(res, h, 1.0), b_plus=np.where(res, h, 0.0),
                       a_minus=np.where(res, h, 0.0), b_minus=np.where(res, -h, 1.0),
                       eps_plus=np.where(res, w_a + g, modes.frequencies),
                       eps_minus=np.where(res, w_a - g, w_a))


class StrongCouplingPropagator(ModePropagator):
    """Effective evolution with the two polariton chains decoupled.

    ``validity`` is (bandwidth + atomic frequency) relative to g; small means
    the dropped inter-branch terms rotate fast and the approximation is good.
    """

    method = "strong"

    def __init__(self, params: ModelParams, modes: ModeTable | None = None):
        super().__init__(params, modes)
        g = params.coupling
        self.validity = (
            float(2.0 * (2.0 * params.hopping + abs(params.atom_freq)) / g) if g > 0 else np.inf
        )

    def table(self, modes: ModeTable) -> ModeTable:
        # polariton branches, each a chain with hopping J/2 (mode energy w_k/2)
        half = np.full(self.params.n_cavities, np.sqrt(0.5))
        g = self.params.coupling
        return replace(modes, a_plus=half, a_minus=half, b_plus=half, b_minus=-half,
                       eps_plus=modes.frequencies / 2.0 + g, eps_minus=modes.frequencies / 2.0 - g)


def weak_coupling_amplitudes(x0, t, modes, resonant_mode):
    """Atomic amplitudes of the resonant-mode approximation for |e_x0>.

    c_{a,x}(t) = e^{-i w_a t} [sum_{k != k'} v_{k,x} v_{k,x0}
                               + cos(gt) v_{k',x} v_{k',x0}].
    """
    params = modes.params
    v = modes.vectors
    kr = resonant_mode - 1
    vx0 = v[:, x0 - 1]
    weights = vx0.copy()
    weights[kr] *= np.cos(params.coupling * t)
    return np.exp(-1j * params.atom_freq * t) * (v.T @ weights).astype(complex)


def strong_coupling_amplitudes(x0, t, modes):
    """Atomic amplitudes of the decoupled-polariton approximation for |e_x0>.

    c_{a,x}(t) = cos(gt) sum_k e^{-i w_k t / 2} v_{k,x} v_{k,x0}.
    """
    params = modes.params
    v = modes.vectors
    vx0 = v[:, x0 - 1]
    return np.cos(params.coupling * t) * (v.T @ (np.exp(-1j * modes.frequencies * t / 2.0) * vx0))


def build_polariton_hamiltonian(params: ModelParams, drop_cross_terms: bool) -> np.ndarray:
    """Hamiltonian in the local polariton basis {|+_x>, |-_x>}.

    |+-_x> = (|photon_x> +- |atom_x>)/sqrt(2).  Each branch carries an on-site
    energy (w_c + w_a)/2 +- g and hopping -J/2.  The inter-branch pieces (the
    -J/2 cross hoppings plus an on-site (w_c - w_a)/2 term when the atoms are
    detuned) make the change of basis exact; ``drop_cross_terms`` removes them,
    leaving two decoupled chains.
    """
    n = params.n_cavities
    mean = 0.5 * (params.cavity_freq + params.atom_freq)
    half_j = 0.5 * params.hopping
    chain = np.zeros((n, n))
    chain[np.arange(n - 1), np.arange(1, n)] = -half_j
    chain[np.arange(1, n), np.arange(n - 1)] = -half_j
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = chain + (mean + params.coupling) * np.eye(n)
    h[n:, n:] = chain + (mean - params.coupling) * np.eye(n)
    if not drop_cross_terms:
        cross = chain + 0.5 * (params.cavity_freq - params.atom_freq) * np.eye(n)
        h[:n, n:] = cross
        h[n:, :n] = cross
    return h


def make_propagator(method: str, params: ModelParams, modes: ModeTable | None = None):
    """Propagator factory keyed by method name.

    The weak propagator dresses the mode closest to resonance with the atoms:
    the lowest index whose |delta_k| is within 1e-12 of the smallest.
    """
    if method == "analytic":
        return AnalyticPropagator(params, modes)
    if method == "dense":
        from .model import build_hamiltonian

        return DenseOraclePropagator(build_hamiltonian(params))
    if method == "weak":
        modes = modes if modes is not None else mode_table(params)
        detuning = np.abs(modes.detunings)
        resonant = int(np.argmax(detuning <= detuning.min() + 1e-12)) + 1
        return WeakCouplingPropagator(params, resonant, modes)
    if method == "strong":
        return StrongCouplingPropagator(params, modes)
    raise ValueError(f"unknown propagation method {method!r}")


def evolve_series(state0: np.ndarray, grid: TimeGrid, prop) -> np.ndarray:
    """States at every grid point, shape (n_samples, 2N).

    Each sample is propagated independently from the t = 0 state; there is no
    accumulation across samples, so results do not depend on grid resolution.
    """
    return prop.evolve(state0, grid.times)
