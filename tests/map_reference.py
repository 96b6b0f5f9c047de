"""Test-only reference: the row-by-row running-maximum concurrence map that
jchsim shipped before its reduction visited each pair of sites once.

It is the oracle for bit-identical maps. Apart from this docstring the
module is the shipped code, unchanged and independent of
``jchsim.entanglement``.
"""

import numpy as np


def pair_concurrence(mag_i, mag_j):
    """C_ij = 2 |c_{a,i}| |c_{a,j}| from the two atomic magnitudes; elementwise."""
    return 2.0 * mag_i * mag_j


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
