"""Time evolution in the single-excitation sector.

Four propagators are provided; the first three are AnalyticPropagator (the
read-only complex sine vectors ``sine_modes(N)``, a 2x2 unitary per mode, back
to sites), each with its own mode table:

* AnalyticPropagator -- exact, via the 2x2 dressed blocks of the normal-mode
  decomposition; valid in every coupling regime.
* WeakCouplingPropagator -- the table ``weak_table``: the mode closest to
  resonance with the atoms (``resonant_mode``) dressed, the rest frozen;
  meaningful when g is small against all other detunings.
* StrongCouplingPropagator -- the table ``strong_table``: decoupled polariton
  chains; meaningful when g dominates the free-field bandwidth and the atomic
  frequency.
* DenseOraclePropagator -- exact, from the entries of ``build_hamiltonian``'s matrix,
  sharing no formulas with the analytic path beyond ``evolution_phases``: the photon
  chain's two mirror sectors in one ``tridiagonal_eigh`` call, then one Jacobi rotation
  per mode-atom pair.

Every propagator takes only the ModelParams; the mode propagators build their own mode
table and the dense oracle its own Hamiltonian.
``validity(method, params)`` says how far an effective one strays from exact.
All propagators are immutable after construction and expose
``evolve(state, t, atoms_only=False)``: shape (2N,) for a scalar t, (len(t), 2N)
for an array of times; with ``atoms_only`` only the N atomic amplitudes, shape
(N,) or (len(t), N).  Each forms the photon half only for the full state, so the
atomic half is the same product either way, bit for bit.  The exact ones are
unitary to machine precision.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import _rayleigh_refine, evolution_phases, jacobi_rotation, tridiagonal_eigh
from .linalg import jacobi_eigh  # unused here: the benchmark tracer resolves it by this name
from .model import ModelParams, build_hamiltonian, check_integers
from .spectral import BRANCH_SIGNS, ModeTable, mode_table, sine_modes


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid, in units of 1/J."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        if not (0 <= self.t_start <= self.t_end and np.isfinite(self.t_end)):
            raise ValueError("need finite t_end >= t_start >= 0")
        check_integers("n_samples", self.n_samples)
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


def _state_vector(state, dim):
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise ValueError(f"expected a length-{dim} amplitude vector")
    return state


class AnalyticPropagator:
    """Exact evolution through the sine modes, one 2x2 dressed block per mode.

    Mode amplitudes (a, b) go into branches p_s = a[s] a + b[s] b turning at
    eps[s], s = 0 for '+' and 1 for '-'; ``table`` gives the (a, b, eps) rows,
    which the effective subclasses set to ``weak_table`` or ``strong_table``.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.modes = self.table(mode_table(params))
        self._vectors = sine_modes(params.n_cavities)

    def table(self, modes: ModeTable) -> ModeTable:
        """The per-mode blocks this propagator applies; the exact dressed ones here."""
        return modes

    def evolve(self, state: np.ndarray, t, atoms_only: bool = False) -> np.ndarray:
        """State at time t, shape (2N,); for an array of times, shape (len(t), 2N).

        With ``atoms_only`` only the atomic half comes back, shape (N,) or (len(t), N).
        """
        m, v = self.modes, self._vectors
        cf, ca = np.split(_state_vector(state, self.params.dim), 2)
        a = v @ cf
        b = v @ ca
        # branch coordinates per mode, evolved by their eigenphases one branch at a
        # time, so that only one (len(t), N) phase table is alive at once
        coords = m.a * a + m.b * b
        p = [coords[s] * evolution_phases(m.eps[s], t) for s in (0, 1)]
        atoms = (m.b[0] * p[0] + m.b[1] * p[1]) @ v
        if atoms_only:
            return atoms
        return np.concatenate([(m.a[0] * p[0] + m.a[1] * p[1]) @ v, atoms], axis=-1)


def _chain_eigh(c: np.ndarray):
    """Eigenpairs of a tridiagonal chain block c equal to its mirror x -> N+1-x, by sector.

    Seat s of the chain's first half carries (e_s + sign e_m(s)) / sqrt(2) for its partner
    m(s) in the mirror-even (sign +1) and mirror-odd (sign -1) sectors, and a centre site of
    odd N, its own partner, carries e_s in the even sector alone; N >= 2 leaves neither empty.
    Both sectors are tridiagonal, and one ``tridiagonal_eigh`` call solves them as a stack.
    """
    n = len(c)
    mirror, size = np.arange(n)[::-1], (n + 1) // 2
    sectors = [(np.arange(size), 1.0), (np.arange(n // 2), -1.0)]
    # odd N leaves the odd sector a seat short; the seat it gains is cut off by a zero link at
    # twice the largest row sum of |c|, above every eigenvalue, so its pair comes back last
    d, e = np.full((2, size), 2.0 * np.abs(c).sum(1).max()), np.zeros((2, size - 1))
    for k, (seats, sign) in enumerate(sectors):
        # c[s, t] + sign c[s, m(t)] is the entry between two non-centre seats; the centre
        # counts its site twice there, so it scales its row and column by 1/sqrt(2)
        half = 0.5 * (seats == mirror[seats])
        block = c[np.ix_(seats, seats)] + sign * c[np.ix_(seats, mirror[seats])]
        block *= 0.5 ** np.add.outer(half, half)
        d[k, : len(seats)], e[k, : len(seats) - 1] = block.diagonal(), block.diagonal(1)
    w, v = tridiagonal_eigh(d, e)
    u = np.zeros((n, 2, size))
    for k, (seats, sign) in enumerate(sectors):
        v_k = v[k, : len(seats)] * np.where(seats == mirror[seats], 1.0, np.sqrt(0.5))[:, None]
        u[mirror[seats], k], u[seats, k] = sign * v_k, v_k
    # the pair of an odd sector's extra seat is the last
    return w.reshape(-1)[:n], u.reshape(n, -1)[:, :n]


class DenseOraclePropagator:
    """Exact evolution from the entries of H = ``build_hamiltonian(params)``.

    H is [[H_c, g I], [g I, w_a I]] with H_c equal to its mirror x -> N+1-x, so it commutes
    with diag(H_c, H_c): H_c = V diag(lam) V^T is solved per mirror sector and one
    ``jacobi_rotation`` turns each block [[lam_k, g], [g, w_a]], mapped back by diag(V, V).
    The eigenvalues are the vectors' long-double Rayleigh quotients against H (double where
    the platform's long double is).
    """

    def __init__(self, params: ModelParams):
        self.params = params
        h, n = build_hamiltonian(params), params.n_cavities
        lam, v = _chain_eigh(h[:n, :n])
        with np.errstate(over="ignore"):  # g so small that theta overflows turns by (1, 0)
            c, s = jacobi_rotation(lam, h[n, n], h[n, 0])
        u = np.block([[v * c, v * s], [v * -s, v * c]])
        w = _rayleigh_refine(h, u)
        order = np.argsort(w, kind="stable")
        # take gives C order: evolve's matrix products round by layout
        self.eigenvalues, self.eigenvectors = w[order], u.take(order, 1)

    def evolve(self, state: np.ndarray, t, atoms_only: bool = False) -> np.ndarray:
        """State at time t, shape (2N,); for an array of times, shape (len(t), 2N).

        With ``atoms_only`` only the atomic half comes back, shape (N,) or (len(t), N).
        """
        u, n = self.eigenvectors, self.params.n_cavities
        state = _state_vector(state, self.params.dim)
        mixed = evolution_phases(self.eigenvalues, t) * (u.T @ state)
        atoms = mixed @ u[n:].T
        return atoms if atoms_only else np.concatenate([mixed @ u[:n].T, atoms], axis=-1)


def resonant_mode(modes: ModeTable) -> int:
    """1-based index of the lowest mode whose |delta_k| is within 1e-12 J of the smallest."""
    detuning = np.abs(modes.detunings)
    return int(np.argmax(detuning <= detuning.min() + 1e-12 * modes.params.hopping)) + 1


def weak_table(modes: ModeTable) -> ModeTable:
    """The resonant-mode approximation: ``resonant_mode`` dressed, every other mode frozen."""
    p = modes.params
    res = np.arange(p.n_cavities) == resonant_mode(modes) - 1
    w_a, g, h = p.atom_freq, p.coupling, np.sqrt(0.5)
    # off-resonant modes keep their bare phases ('+' the photon, '-' the atom);
    # the resonant block rotates at the atomic frequency and Rabi-flops
    bare = np.stack([modes.frequencies, np.full_like(modes.frequencies, w_a)])
    return replace(modes, a=np.where(res, h, [[1.0], [0.0]]),
                   b=np.where(res, h * BRANCH_SIGNS, [[0.0], [1.0]]),
                   eps=np.where(res, w_a + BRANCH_SIGNS * g, bare))


def strong_table(modes: ModeTable) -> ModeTable:
    """The decoupled polariton chains, each with hopping J/2 (mode energy w_k/2) at +-g."""
    half = np.full((2, modes.params.n_cavities), np.sqrt(0.5))
    return replace(modes, a=half, b=half * BRANCH_SIGNS,
                   eps=modes.frequencies / 2.0 + BRANCH_SIGNS * modes.params.coupling)


class WeakCouplingPropagator(AnalyticPropagator):
    """AnalyticPropagator through ``weak_table``: one dressed mode, all others frozen."""

    table = staticmethod(weak_table)


class StrongCouplingPropagator(AnalyticPropagator):
    """AnalyticPropagator through ``strong_table``: the two polariton chains decoupled."""

    table = staticmethod(strong_table)


# every propagation method by name, with the class that builds it from ModelParams
METHODS = {
    "analytic": AnalyticPropagator,
    "dense": DenseOraclePropagator,
    "weak": WeakCouplingPropagator,
    "strong": StrongCouplingPropagator,
}


def _known(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"unknown propagation method {method!r}")
    return method


def make_propagator(method: str, params: ModelParams):
    """Propagator factory keyed by method name."""
    return METHODS[_known(method)](params)


def validity(method: str, params: ModelParams) -> float:
    """How far ``method`` strays from the exact model at ``params``; small is good, 0 exact.

    weak: g over the smallest off-resonant |delta_k|; strong: the bandwidth plus the
    atomic frequency relative to g, 2 (2J + |w_a|) / g.  Each is inf where its
    denominator is 0; nothing is refused when it is large.
    """
    if _known(method) == "weak":
        modes = mode_table(params)
        others = np.abs(np.delete(modes.detunings, resonant_mode(modes) - 1))
        return float(params.coupling / others.min()) if others.min() > 0 else np.inf
    if method == "strong":
        scale = 2.0 * (2.0 * params.hopping + abs(params.atom_freq))
        return float(scale / params.coupling) if params.coupling else np.inf
    return 0.0


def evolve_series(state0: np.ndarray, grid: TimeGrid, prop) -> np.ndarray:
    """States at every grid point, shape (n_samples, 2N).

    Each sample is propagated independently from the t = 0 state; there is no
    accumulation across samples, so results do not depend on grid resolution.
    """
    return prop.evolve(state0, grid.times)
