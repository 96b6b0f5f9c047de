"""Entanglement observables on single-excitation states.

Atom-field entanglement reduces to the binary entropy of the total atomic
probability.  Pairwise atomic entanglement has a closed form,
C_ij = 2|c_{a,i}||c_{a,j}|; the generic spin-flip (Wootters) computation is
kept as an independent oracle for it.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import jacobi_eigh

# rho may have eigenvalues this far below zero (rounding) and still count as PSD
_PSD_TOL = 1e-9
# eigenvalues of rho and of sqrt(rho) rho_tilde sqrt(rho) at or below this count as zero
_ZERO_TOL = 1e-13
_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class BipartiteEntropy:
    """Total atomic/photonic probabilities and their binary entropy (base 2)."""

    pi_a: float
    pi_f: float
    entropy: float


def binary_entropy(p):
    """-p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0; elementwise, a float for a scalar p."""
    p = np.asarray(p, dtype=float)
    edge = (p <= 1e-15) | (p >= 1.0 - 1e-15)
    q = np.where(edge, 0.5, p)
    h = np.where(edge, 0.0, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q))
    return float(h) if h.ndim == 0 else h


def atomic_amplitudes(state: np.ndarray) -> np.ndarray:
    """The N atomic amplitudes of a 2N amplitude vector."""
    state = np.asarray(state)
    n = state.shape[-1] // 2
    return state[..., n:]


def atom_field_entropy(state: np.ndarray) -> BipartiteEntropy:
    """Von Neumann entropy between the atomic ensemble and the field."""
    pi_a = float(np.sum(np.abs(atomic_amplitudes(state)) ** 2))
    return BipartiteEntropy(pi_a=pi_a, pi_f=1.0 - pi_a, entropy=binary_entropy(pi_a))


def _pair_amplitudes(state, i, j):
    ca = atomic_amplitudes(state)
    n = len(ca)
    if i == j:
        raise ValueError("need two distinct sites")
    for s in (i, j):
        if not 1 <= s <= n:
            raise ValueError(f"site {s} out of range [1, {n}]")
    return ca[i - 1], ca[j - 1]


def reduce_to_pair(state: np.ndarray, i: int, j: int) -> np.ndarray:
    """Two-atom reduced density matrix over {|gg>, |ge>, |eg>, |ee>}.

    In the single-excitation sector the |ee> population is exactly zero and
    only the single-excitation central block carries coherence.
    """
    ci, cj = _pair_amplitudes(state, i, j)
    pi, pj = abs(ci) ** 2, abs(cj) ** 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - pi - pj
    rho[1, 1] = pi
    rho[2, 2] = pj
    rho[1, 2] = ci * np.conj(cj)
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def pair_concurrence(mag_i, mag_j):
    """C_ij = 2 |c_{a,i}| |c_{a,j}| from the two atomic magnitudes; elementwise."""
    return 2.0 * mag_i * mag_j


def concurrence_closed_form(state: np.ndarray, i: int, j: int) -> float:
    """C_ij = 2 |c_{a,i}| |c_{a,j}|."""
    ci, cj = _pair_amplitudes(state, i, j)
    return float(pair_concurrence(abs(ci), abs(cj)))


def _real_form(h: np.ndarray) -> np.ndarray:
    """Real symmetric form [[Re H, -Im H], [Im H, Re H]] of a Hermitian H.

    The form respects products and functions (the form of f(H) is f of the
    form), and each eigenvalue of H appears in it twice.
    """
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def concurrence_wootters_oracle(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix via the spin flip.

    Builds rho_tilde = (sy x sy) rho* (sy x sy).  The eigenvalues of
    rho @ rho_tilde are those of the Hermitian M = sqrt(rho) rho_tilde sqrt(rho);
    both sqrt(rho) and M are taken on the real symmetric forms with
    ``jacobi_eigh``, eigenvalues up to ``_ZERO_TOL`` count as zero, and the
    result is max(0, sqrt(l1)-sqrt(l2)-sqrt(l3)-sqrt(l4)).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 density matrix")
    if abs(np.trace(rho) - 1.0) > 1e-8 or np.abs(rho - rho.conj().T).max() > 1e-8:
        raise ValueError("input is not a valid density matrix")
    rho = 0.5 * (rho + rho.conj().T)
    w, v = jacobi_eigh(_real_form(rho))
    if w[0] < -_PSD_TOL:
        raise ValueError("density matrix is not positive semidefinite")
    root = (v * np.sqrt(np.where(w > _ZERO_TOL, w, 0.0))) @ v.T
    m = root @ _real_form(_SIGMA_YY @ rho.conj() @ _SIGMA_YY) @ root
    lam = jacobi_eigh(m)[0][::2]
    lam = np.sqrt(np.where(lam > _ZERO_TOL, lam, 0.0))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_map(state: np.ndarray) -> np.ndarray:
    """All pairwise concurrences as an N x N symmetric matrix, zero diagonal."""
    return max_concurrence_map(atomic_amplitudes(state)[None, :])


def running_max_map(states) -> np.ndarray:
    """Elementwise maximum of the concurrence map over a sequence of states."""
    return max_concurrence_map(atomic_amplitudes(states))


def max_concurrence_map(ca) -> np.ndarray:
    """Elementwise maximum of the concurrence map over the rows of ``ca``.

    ``ca`` holds atomic amplitudes, one time per row, shape (T, N); the result
    is N x N, symmetric, with a zero diagonal.
    """
    mags = np.abs(np.asarray(ca))
    if len(mags) == 0:
        raise ValueError("empty state series")
    best = pair_concurrence(mags[0, :, None], mags[0])
    for row in mags[1:]:
        np.maximum(best, pair_concurrence(row[:, None], row), out=best)
    np.fill_diagonal(best, 0.0)
    return best
