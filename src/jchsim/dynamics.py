"""Time evolution in the single-excitation sector.

Four propagators are provided; the first three are one ModePropagator
(sine modes, a 2x2 unitary per mode, back to sites) that differ in its table:

* AnalyticPropagator -- exact, via the 2x2 dressed blocks of the normal-mode
  decomposition; valid in every coupling regime.
* WeakCouplingPropagator -- resonant-mode approximation (the mode closest to
  resonance with the atoms dressed, the rest frozen); meaningful when g is
  small against all other detunings.
* StrongCouplingPropagator -- decoupled polariton chains; meaningful when g
  dominates the free-field bandwidth and the atomic frequency.
* DenseOraclePropagator -- exact, via a full Jacobi eigendecomposition of the
  Hamiltonian matrix; shares no formulas with the analytic path beyond
  ``evolution_phases`` and accepts arbitrary symmetric photon-hopping matrices.

The mode propagators take only the ModelParams and build their own mode table.
All propagators are immutable after construction and expose
``evolve(state, t, atoms_only=False)``: shape (2N,) for a scalar t, (len(t), 2N)
for an array of times; with ``atoms_only`` only the N atomic amplitudes, shape
(N,) or (len(t), N), bit for bit the last N columns of the full result.  The
exact ones are unitary to machine precision.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import evolution_phases, jacobi_eigh
from .model import ModelParams, build_hamiltonian
from .spectral import ModeTable, mode_table, sine_modes


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid, in units of 1/J."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        if not (0 <= self.t_start <= self.t_end and np.isfinite(self.t_end)):
            raise ValueError("need finite t_end >= t_start >= 0")
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

    def __init__(self, params: ModelParams):
        self.params = params
        self.modes = self.table(mode_table(params))
        # the complex copy every back transform would otherwise cast afresh (exact)
        self._vectors = sine_modes(params.n_cavities)[2]

    def table(self, modes: ModeTable) -> ModeTable:
        """The per-mode blocks this propagator applies; the exact dressed ones here."""
        return modes

    def evolve(self, state: np.ndarray, t, atoms_only: bool = False) -> np.ndarray:
        """State at time t, shape (2N,); for an array of times, shape (len(t), 2N).

        With ``atoms_only`` only the atomic half comes back, shape (N,) or (len(t), N).
        """
        m, v = self.modes, self._vectors
        times = np.atleast_1d(t)
        cf, ca = _split(state, self.params.n_cavities)
        a = v @ cf
        b = v @ ca
        # branch coordinates per mode, evolved by their eigenphases
        p_plus = (m.a_plus * a + m.b_plus * b) * evolution_phases(m.eps_plus, times)
        p_minus = (m.a_minus * a + m.b_minus * b) * evolution_phases(m.eps_minus, times)
        b_t = m.b_plus * p_plus + m.b_minus * p_minus
        if atoms_only:
            states = b_t @ v
        else:
            a_t = m.a_plus * p_plus + m.a_minus * p_minus
            states = np.concatenate([a_t @ v, b_t @ v], axis=1)
        return states[0] if np.ndim(t) == 0 else states


class AnalyticPropagator(ModePropagator):
    """Exact evolution through the per-mode 2x2 dressed blocks."""

    method = "analytic"


class DenseOraclePropagator:
    """Exact evolution via a full Jacobi eigendecomposition of H."""

    method = "dense"

    def __init__(self, hamiltonian: np.ndarray):
        self.eigenvalues, self.eigenvectors = jacobi_eigh(hamiltonian)

    def evolve(self, state: np.ndarray, t, atoms_only: bool = False) -> np.ndarray:
        """State at time t, shape (2N,); for an array of times, shape (len(t), 2N).

        With ``atoms_only`` only the atomic half comes back, shape (N,) or (len(t), N);
        it is sliced from the full product, since a scalar t takes gemv, whose
        kernels round a subset of the output rows differently.
        """
        u = self.eigenvectors
        coeffs = u.T @ np.asarray(state, dtype=complex)
        states = (evolution_phases(self.eigenvalues, t) * coeffs) @ u.T
        return states[..., len(u) // 2:] if atoms_only else states


def _resonant_mode(modes: ModeTable) -> int:
    """1-based index of the lowest mode whose |delta_k| is within 1e-12 of the smallest."""
    detuning = np.abs(modes.detunings)
    return int(np.argmax(detuning <= detuning.min() + 1e-12)) + 1


class WeakCouplingPropagator(ModePropagator):
    """Effective evolution with a single dressed mode, all others frozen.

    The dressed mode is ``resonant_mode``, the one closest to resonance with
    the atoms.  ``validity`` is g over the smallest off-resonant detuning; the
    approximation is good when it is small, and nothing is refused when it is
    large.
    """

    method = "weak"

    @property
    def resonant_mode(self) -> int:
        return _resonant_mode(self.modes)

    @property
    def validity(self) -> float:
        others = np.abs(np.delete(self.modes.detunings, self.resonant_mode - 1))
        return float(self.params.coupling / others.min()) if others.min() > 0 else np.inf

    def table(self, modes: ModeTable) -> ModeTable:
        res = np.arange(self.params.n_cavities) == _resonant_mode(modes) - 1
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

    @property
    def validity(self) -> float:
        p = self.params
        if p.coupling == 0:
            return np.inf
        return float(2.0 * (2.0 * p.hopping + abs(p.atom_freq)) / p.coupling)

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


def make_propagator(method: str, params: ModelParams):
    """Propagator factory keyed by method name."""
    if method == "dense":
        return DenseOraclePropagator(build_hamiltonian(params))
    for cls in (AnalyticPropagator, WeakCouplingPropagator, StrongCouplingPropagator):
        if cls.method == method:
            return cls(params)
    raise ValueError(f"unknown propagation method {method!r}")


def evolve_series(state0: np.ndarray, grid: TimeGrid, prop) -> np.ndarray:
    """States at every grid point, shape (n_samples, 2N).

    Each sample is propagated independently from the t = 0 state; there is no
    accumulation across samples, so results do not depend on grid resolution.
    """
    return prop.evolve(state0, grid.times)
