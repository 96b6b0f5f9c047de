"""The Wootters spin-flip concurrence: the tests' independent check on C_ij = 2|c_i||c_j|.

The package computes pairwise concurrence in closed form (``pair_concurrence``,
``max_concurrence_map``).  Here the generic formula for an arbitrary two-qubit
density matrix (Wootters, PRL 80, 2245, 1998) recomputes it from the reduced pair,
taking every eigenvalue from ``jchsim.linalg.jacobi_eigh``.  To stay independent of
what it checks, this module imports nothing from the analytic path: not
``jchsim.entanglement``, not the mode tables, and no LAPACK eigen-routine.
"""

import numpy as np

from jchsim.linalg import jacobi_eigh
from jchsim.model import check_integers

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


def reduce_to_pair(state: np.ndarray, i: int, j: int) -> np.ndarray:
    """Two-atom reduced density matrix over {|gg>, |ge>, |eg>, |ee>}.

    In the single-excitation sector the |ee> population is exactly zero and
    only the single-excitation central block carries coherence.
    """
    state = np.asarray(state)
    ca = state[..., state.shape[-1] // 2:]  # the N atomic amplitudes of 2N
    check_integers("site", i, j)
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
