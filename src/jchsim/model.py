"""Model parameters, single-excitation basis indexing and Hamiltonian assembly.

The single-excitation sector of an N-cavity array is spanned by the 2N states
{|photon at x>, |atom excited at x>}, x = 1..N.  Amplitude vectors are laid out
as the N photon amplitudes followed by the N atomic amplitudes.
"""

import numbers
from dataclasses import dataclass

import numpy as np

# largest |energy| a model accepts, in units of J.  Derived quantities reach the
# square of an energy (the squared hoppings of the dense oracle's Sturm counts) or
# several times it (hypot(delta_k + Omega_k, 2g) in the mode table), so the bound sits
# far below sqrt(DBL_MAX) ~ 1.34e154.  The hopping J, the energy unit, must be at
# least 1 / MAX_ENERGY, so the square of J cannot underflow either.
MAX_ENERGY = 1e150
# largest ``max_energy`` * t an evolution accepts.  At 9.9e5 (N = 4, g = 5.7e5 J) the analytic
# atomic probability is 3.6e-11 from a 50-digit solve, its eigenvalues rounded to double, and
# the dense oracle's, kept in long double, 3.8e-14; the two must agree to within 1e-10.  Over
# t in the last decade below the bound (N = 4, 7, 12, 24, g = 10^0..10^8 J +- 0.3 dex, centre
# release, 20000 times each) analytic is at most 9.2e-11 off dense (N = 7, g = 8.6e6 J,
# max_energy * t = 1.0e6): a margin of 1.08x.  A 2x margin needs a bound near 5e5, which
# would refuse runs at 9.1e5 that the tests and CI keep.
MAX_ENERGY_TIME = 1e6


def check_integers(name, *values):
    """Raise ValueError unless every one of ``values`` is an integer; numpy's integers count."""
    for value in values:
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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
        if not isinstance(self.n_cavities, numbers.Integral) or self.n_cavities < 2:
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


def max_energy(p: ModelParams) -> float:
    """Gershgorin bound on max|E| of H: max(|omega_c| + 2J, |omega_a|) + g."""
    return float(max(abs(p.cavity_freq) + 2.0 * p.hopping, abs(p.atom_freq)) + p.coupling)


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Assemble the 2N x 2N single-excitation Hamiltonian (real symmetric).

    Photon block: cavity frequency on the diagonal, -J on the first
    off-diagonals (open chain).  Atom block: atomic frequency times identity.
    Photon-atom blocks: the coupling g times identity.
    """
    n = params.n_cavities
    eye, g = np.eye(n), params.coupling * np.eye(n)
    hops = params.hopping * (np.eye(n, k=1) + np.eye(n, k=-1))
    return np.block([[np.diag(np.full(n, params.cavity_freq)) - hops, g],
                     [g, params.atom_freq * eye]])


def initial_atomic_excitation(params: ModelParams, x0: int) -> np.ndarray:
    """State with the atom at site x0 excited (index N + x0 - 1), everything else in vacuum."""
    n = params.n_cavities
    check_integers("site", x0)
    if not 1 <= x0 <= n:
        raise ValueError(f"site {x0} out of range [1, {n}]")
    state = np.zeros(params.dim, dtype=complex)
    state[n + x0 - 1] = 1.0
    return state
