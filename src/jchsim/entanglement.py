"""Entanglement observables on single-excitation states.

Atom-field entanglement reduces to the binary entropy of the total atomic
probability.  Pairwise atomic entanglement has a closed form,
C_ij = 2|c_{a,i}||c_{a,j}|.  The generic spin-flip (Wootters) computation that
checks it lives with the tests, in ``tests/wootters_reference.py``.
"""

import numpy as np


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


def pair_concurrence(mag_i, mag_j):
    """C_ij = 2 |c_{a,i}| |c_{a,j}| from the two atomic magnitudes; elementwise."""
    return 2.0 * mag_i * mag_j


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
    best = np.zeros((len(sites), len(sites)))
    for i in range(len(sites) - 1):
        pair_concurrence(sites[i], sites[i + 1:]).max(axis=1, out=best[i, i + 1:])
    return np.maximum(best, best.T)
