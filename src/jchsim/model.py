"""Model parameters, single-excitation basis indexing and Hamiltonian assembly.

The single-excitation sector of an N-cavity array is spanned by the 2N states
{|photon at x>, |atom excited at x>}, x = 1..N.  Amplitude vectors are laid out
as the N photon amplitudes followed by the N atomic amplitudes.
"""

from dataclasses import dataclass

import numpy as np

PHOTON = "photon"
ATOM = "atom"
# largest |energy| a model accepts, in units of J.  Derived quantities reach the
# square of an energy (the Frobenius norm of H in the Jacobi oracle) or several
# times it (hypot(delta_k + Omega_k, 2g) in the mode table), so the bound sits
# far below sqrt(DBL_MAX) ~ 1.34e154.  The hopping J, the energy unit, must be at
# least 1 / MAX_ENERGY, so the norm of H cannot underflow either.
MAX_ENERGY = 1e150
# largest max|E| * t_max a config run accepts.  The phases E t are reduced in a long
# double, and the analytic and dense sum over x of |c_x|^2 then differ by about
# 4e-17 |E| t, which passes 1e-10 near |E| t = 2.5e6 (measured at N = 11, 16, 24).
MAX_ENERGY_TIME = 1e6


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of a uniform 1D coupled-cavity array.

    Energies are in units of the photon hopping J; times in 1/J.
    The cavity frequency defaults to 0, so the detuning is set by
    ``atom_freq`` alone.
    """

    n_cavities: int
    hopping: float = 1.0
    coupling: float = 0.0
    cavity_freq: float = 0.0
    atom_freq: float = 0.0

    def __post_init__(self):
        if int(self.n_cavities) != self.n_cavities or self.n_cavities < 2:
            raise ValueError(f"n_cavities must be an integer >= 2, got {self.n_cavities}")
        for name in ("hopping", "coupling", "cavity_freq", "atom_freq"):
            if not abs(getattr(self, name)) <= MAX_ENERGY:
                raise ValueError(f"{name} must be finite and at most {MAX_ENERGY:g} "
                                 f"in magnitude, got {getattr(self, name)}")
        if not self.hopping >= 1 / MAX_ENERGY:
            raise ValueError(f"hopping must be at least {1 / MAX_ENERGY:g}, got {self.hopping}")
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")

    @property
    def dim(self) -> int:
        """Dimension of the single-excitation sector (2N)."""
        return 2 * self.n_cavities


def flat_index(kind: str, site: int, n_cavities: int) -> int:
    """Map (kind, 1-based site) to the flat index in [0, 2N)."""
    if not 1 <= site <= n_cavities:
        raise ValueError(f"site {site} out of range [1, {n_cavities}]")
    if kind == PHOTON:
        return site - 1
    if kind == ATOM:
        return n_cavities + site - 1
    raise ValueError(f"unknown basis kind {kind!r}")


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Assemble the 2N x 2N single-excitation Hamiltonian (real symmetric).

    Photon block: cavity frequency on the diagonal, -J on the first
    off-diagonals (open chain).  Atom block: atomic frequency times identity.
    Photon-atom blocks: the coupling g times identity.
    """
    n = params.n_cavities
    h = np.zeros((2 * n, 2 * n))
    ph = h[:n, :n]
    ph[np.arange(n), np.arange(n)] = params.cavity_freq
    ph[np.arange(n - 1), np.arange(1, n)] = -params.hopping
    ph[np.arange(1, n), np.arange(n - 1)] = -params.hopping
    h[n:, n:] = params.atom_freq * np.eye(n)
    h[:n, n:] = params.coupling * np.eye(n)
    h[n:, :n] = params.coupling * np.eye(n)
    return h


def initial_atomic_excitation(params: ModelParams, x0: int) -> np.ndarray:
    """State with the atom at site x0 excited, everything else in vacuum."""
    state = np.zeros(params.dim, dtype=complex)
    state[flat_index(ATOM, x0, params.n_cavities)] = 1.0
    return state
