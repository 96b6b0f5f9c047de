"""Entanglement observables on single-excitation states.

Atom-field entanglement reduces to the binary entropy of the total atomic
probability.  Pairwise atomic entanglement has a closed form,
C_ij = 2|c_{a,i}||c_{a,j}|; the generic spin-flip (Wootters) computation is
kept as an independent oracle for it.
"""

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


def reduce_to_pair(state: np.ndarray, i: int, j: int) -> np.ndarray:
    """Two-atom reduced density matrix over {|gg>, |ge>, |eg>, |ee>}.

    In the single-excitation sector the |ee> population is exactly zero and
    only the single-excitation central block carries coherence.
    """
    ca = atomic_amplitudes(state)
    if i == j or not (1 <= i <= len(ca) and 1 <= j <= len(ca)):
        raise ValueError(f"need two distinct sites in [1, {len(ca)}], got {i} and {j}")
    ci, cj = ca[i - 1], ca[j - 1]
    pi, pj = abs(ci) ** 2, abs(cj) ** 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - pi - pj
    rho[1, 1] = pi
    rho[2, 2] = pj
    rho[1, 2] = ci * np.conj(cj)
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def pair_concurrence(mag_i, mag_j, out=None):
    """C_ij = 2 |c_{a,i}| |c_{a,j}| from the two atomic magnitudes; elementwise, into ``out``."""
    return np.multiply(2.0 * mag_i, mag_j, out=out)


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

    ``ca`` holds atomic amplitudes, one time per row, shape (T, N); the result is N x N with
    a zero diagonal and exactly symmetric, as doubling is exact: each pair is reduced once.
    """
    mags = np.abs(np.asarray(ca))
    if len(mags) == 0:
        raise ValueError("empty state series")
    sites = np.ascontiguousarray(mags.T)  # one site per row
    n = len(sites)
    best = np.zeros((n, n))
    products = np.empty((n - 1, len(mags)))  # site i's pairs fill its first n - i - 1 rows
    for i in range(n - 1):
        pairs = pair_concurrence(sites[i], sites[i + 1:], out=products[: n - i - 1])
        pairs.max(axis=1, out=best[i, i + 1:])
    return np.maximum(best, best.T)
