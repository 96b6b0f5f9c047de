"""Self-contained eigenvalue machinery used by the verification oracles.

One solver lives here so that the oracle paths do not share code with the
closed-form physics they are meant to check: a Jacobi eigensolver for real
symmetric matrices in round-robin (parallel) order, each round of disjoint
rotations one in-place update x <- c x + s x[partner] per axis.  It serves both
oracles: the dense propagator diagonalizes the Hamiltonian with it, and the
Wootters concurrence takes the eigenvalues of Hermitian 4x4 matrices through
their real symmetric 8x8 forms.

It calls no LAPACK eigen-routine (``numpy.linalg.eig*``): the oracles are
meant to stay independent of the library solvers they may be compared with.
"""

import functools

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when an iterative eigensolver fails to converge."""


_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 100
_SIGNS = np.array([[-1.0], [1.0]])  # -s for p, s for q


def jacobi_eigh(a: np.ndarray):
    """Eigendecomposition of a real symmetric matrix by round-robin Jacobi.

    Each sweep visits every (p, q) pair once in round-robin (Brent-Luk
    parallel) order: a round holds up to n/2 disjoint pairs, and with n odd
    one index sits out each round.  The disjoint rotations of a round commute,
    so they are applied together to the columns of a, its rows and the rows
    of the eigenvectors, each as one in-place x <- c x + s x[partner] over the
    whole matrix: partner swaps p and q, and an index that sits out and a
    skipped pair turn by cos 1 and sin 0, so no round branches on its kept
    pairs or allocates an array of the matrix's size.  Sweeps repeat until
    the off-diagonal Frobenius norm drops below ``_JACOBI_TOL`` relative to
    the matrix norm.  Returns (eigenvalues ascending, eigenvectors as columns).

    Raises ValueError if the matrix norm is not finite (entries of about
    1.3e154 and up overflow it, and the convergence test would then pass at
    once) or underflows to 0 for a nonzero matrix (entries below about
    1.6e-162, which would otherwise come back unrotated), and ConvergenceError
    if ``_JACOBI_MAX_SWEEPS`` sweeps do not converge.
    """
    original = np.asarray(a, dtype=float)
    a = original.copy()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(a)
    if not np.isfinite(scale):
        raise ValueError(f"matrix norm is {scale}: entries must be finite and below 1e154")
    if scale == 0.0 and a.any():
        raise ValueError("matrix norm underflows to 0 for a nonzero matrix: "
                         "its largest entry must be at least about 1.6e-162")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    if scale == 0.0 or n == 1:
        order = np.argsort(np.diag(a))
        return np.diag(a)[order], np.eye(n)[:, order]
    # rotations with |a_pq| below this cannot affect the converged result
    skip = 0.01 * _JACOBI_TOL * scale / n
    rounds = _schedule(n)
    flat, diag = a.reshape(-1), np.diagonal(a)
    # the eigenvectors are rotated as rows, whose partner gather copies whole rows
    vt = np.eye(n)
    # the partner gather, the off-diagonal copy and the cos/sin planes of every round
    taken, off, planes = np.empty_like(a), np.empty_like(a), np.empty((2, n, n))
    cos, sin = planes
    # (c, c, 1) over (-s, s, 0) for the n // 2 pairs of a round, spread by the schedule
    coef = np.array([[1.0], [0.0]]).repeat(2 * (n // 2) + 1, axis=1)
    cc, ss = (row[:-1].reshape(2, -1) for row in coef)

    for _ in range(_JACOBI_MAX_SWEEPS):
        np.copyto(off, a)  # a with its diagonal zeroed, for the off-diagonal norm
        np.fill_diagonal(off, 0.0)
        if np.linalg.norm(off) <= _JACOBI_TOL * scale:
            # the columns in C order: _rayleigh_refine's sums round by layout
            vecs = vt.T.copy()
            w = _rayleigh_refine(original, vecs)
            order = np.argsort(w, kind="stable")
            return w[order], vecs[:, order]
        for p, q, zeroed, partner, spread in rounds:
            apq = flat[zeroed[0]]
            keep = np.abs(apq) > skip
            if not keep.any():
                continue
            # a skipped pair turns by cos 1 and sin 0; its a_pq = 1 only keeps theta finite
            theta = 0.5 * (diag[q] - diag[p]) / np.where(keep, apq, 1.0)
            t = np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t[theta == 0.0] = 1.0
            c = np.where(keep, 1.0 / np.sqrt(t * t + 1.0), 1.0)
            cc[:] = c
            np.multiply(np.where(keep, t * c, 0.0), _SIGNS, ss)
            # new (x_p, x_q) = (c x_p - s x_q, s x_p + c x_q); an index that sits out keeps x
            cs = coef.take(spread, 1)
            np.copyto(planes, cs[:, None, :])  # cos[i, j] = c of column j
            _rotate(a, partner, 1, cos, sin, taken)
            np.copyto(planes, cs[:, :, None])  # cos[i, j] = c of row i, for both row passes
            _rotate(a, partner, 0, cos, sin, taken)
            flat[zeroed.compress(keep, 1)] = 0.0
            _rotate(vt, partner, 0, cos, sin, taken)
    raise ConvergenceError(f"Jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")


def _rotate(x, partner, axis, cos, sin, taken):
    """Set x to cos * x + sin * x.take(partner, axis) in place (axis 0: rows, 1: columns).

    ``cos`` and ``sin`` have the shape of x; the gather lands in ``taken``.  Every
    index is turned: one left alone has cos 1 and sin 0, and x * 1 + y * 0 is x
    for every finite y (a -0.0 may come back as +0.0).
    """
    x.take(partner, axis, taken, "clip")
    np.multiply(x, cos, x)
    np.multiply(taken, sin, taken)
    np.add(x, taken, x)


@functools.lru_cache(maxsize=64)
def _schedule(n: int) -> tuple:
    """One Jacobi sweep in round-robin order, each round with the indices its update uses.

    Circle method: index 0 stays put while the others rotate one place per
    round, and position i meets position m-1-i.  For odd n a phantom index n
    pads the circle to even m, and its partner sits the round out.

    Each round is its pairs p < q, the flat indices of a_pq (row 0) and a_qp
    (row 1), the partner permutation (p <-> q, an index that sits out to
    itself) and the slots that spread (c, c, 1) and (-s, s, 0) of its k pairs
    onto the n indices: i for p_i, k + i for q_i, 2k to sit out.  The arrays
    are read-only, as every solve of size n shares them.
    """
    m, k = n + n % 2, n // 2
    # round r seats index 0, then 1..m-1 rotated r places (np.roll of the ring)
    shift = np.arange(m - 1)[:, None]
    seats = np.concatenate((np.zeros_like(shift), 1 + (np.arange(m - 1) - shift) % (m - 1)), 1)
    left, right = seats[:, : m // 2], seats[:, ::-1][:, : m // 2]
    real = (left < n) & (right < n)  # every round has k real pairs
    p = np.minimum(left, right)[real].reshape(m - 1, k)
    q = np.maximum(left, right)[real].reshape(m - 1, k)
    partner, spread = np.tile(np.arange(n), (m - 1, 1)), np.full((m - 1, n), 2 * k)
    partner[shift, p], partner[shift, q] = q, p
    spread[shift, p], spread[shift, q] = np.arange(k), np.arange(k, 2 * k)
    arrays = (p, q, np.stack((p * n + q, q * n + p), axis=1), partner, spread)
    for x in arrays:
        x.setflags(write=False)
    return tuple(zip(*arrays))


def _rayleigh_refine(a: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rayleigh quotients of the Jacobi eigenvectors, accumulated in extended precision.

    The rotation cascade leaves the diagonal with an O(sqrt(rotations) * eps *
    ||A||) error, which propagation phases E*t amplify; recomputing against the
    untouched input matrix in long double removes the accumulation.

    A v sums each row's nonzero terms in ascending column order from +0: the sum
    that numpy's long-double matmul (which has no BLAS path) forms over every
    column, as a zero term never changes a partial sum that starts at +0.  Rows
    with fewer nonzeros are padded with 0 * v[0], which adds such a zero term.
    """
    al = a.astype(np.longdouble)
    vl = vecs.astype(np.longdouble)
    rows, cols = np.nonzero(a)  # in row-major order
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)  # place within its row
    # row i's k-th nonzero and its column at [k, i]
    values = np.zeros((rank.max(initial=-1) + 1, len(a)), dtype=np.longdouble)
    columns = np.zeros(values.shape, dtype=np.intp)
    values[rank, rows], columns[rank, rows] = al[rows, cols], cols
    av = np.zeros_like(vl)
    for value, column in zip(values, columns):
        av += value[:, None] * vl[column]
    w = np.einsum("ij,ij->j", vl, av) / np.einsum("ij,ij->j", vl, vl)
    return w.astype(float)


def evolution_phases(energies: np.ndarray, t: float) -> np.ndarray:
    """exp(-i E t) with the product E*t reduced mod 2pi in extended precision.

    For |E| t >> 1 the double rounding of the product alone costs
    eps * |E| t radians, which matters when two exact propagators are
    compared at tight tolerance.  ``t`` may be a scalar or an array; an array
    broadcasts to shape ``t.shape + energies.shape``.  The cosine and minus the
    sine are written straight into the complex result; no complex exponential
    or temporary complex angle is formed.
    """
    angle = np.mod(
        np.multiply.outer(
            np.asarray(t, dtype=np.longdouble), np.asarray(energies, dtype=np.longdouble)
        ),
        _TWO_PI_LD,
    ).astype(float)
    phases = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phases.real)
    np.sin(angle, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    return phases


# 2*pi to long-double precision; np.pi alone would leak eps(double) per wrap
_TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900577")
