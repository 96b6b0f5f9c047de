"""Test-only reference: the gather-based round-robin Jacobi solver that jchsim
shipped before its rounds rotated through preallocated buffers.

It is the oracle for bit-identical eigenvalues and eigenvectors. Apart from
this docstring the module is the shipped code, unchanged and independent of
``jchsim.linalg``.
"""

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when an iterative eigensolver fails to converge."""


_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 100


def jacobi_eigh(a: np.ndarray):
    """Eigendecomposition of a real symmetric matrix by round-robin Jacobi.

    Each sweep visits every (p, q) pair once in round-robin (Brent-Luk
    parallel) order: a round holds up to n/2 disjoint pairs, and with n odd
    one index sits out each round.  The disjoint rotations of a round commute,
    so they are applied together as one vectorized row, column and
    eigenvector update.  Sweeps repeat until the off-diagonal Frobenius norm
    drops below ``_JACOBI_TOL`` relative to the matrix norm.  Returns
    (eigenvalues ascending, eigenvectors as columns).

    No LAPACK eigen-routine is used, so the oracle stays independent of the
    library eigensolvers it may be compared with.

    Raises ValueError if the matrix norm is not finite (entries of about
    1.3e154 and up overflow it, and the convergence test would then pass at
    once), and ConvergenceError if ``_JACOBI_MAX_SWEEPS`` sweeps do not converge.
    """
    original = np.asarray(a, dtype=float)
    a = original.copy()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(a)
    if not np.isfinite(scale):
        raise ValueError(f"matrix norm is {scale}: entries must be finite and below 1e154")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    vecs = np.eye(n)
    if scale == 0.0 or n == 1:
        order = np.argsort(np.diag(a))
        return np.diag(a)[order], vecs[:, order]
    # rotations with |a_pq| below this cannot affect the converged result
    skip = 0.01 * _JACOBI_TOL * scale / n
    rounds = _round_robin(n)

    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= _JACOBI_TOL * scale:
            w = _rayleigh_refine(original, vecs)
            order = np.argsort(w, kind="stable")
            return w[order], vecs[:, order]
        for p, q in rounds:
            apq = a[p, q]
            keep = np.abs(apq) > skip
            if not keep.all():
                if not keep.any():
                    continue
                p, q, apq = p[keep], q[keep], apq[keep]
            theta = 0.5 * (a[q, q] - a[p, p]) / apq
            t = np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t[theta == 0.0] = 1.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # new (x_p, x_q) = (c x_p - s x_q, s x_p + c x_q), all pairs at once
            pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
            cc, ss = np.concatenate((c, c)), np.concatenate((-s, s))
            a[:, pq] = cc * a[:, pq] + ss * a[:, qp]
            a[pq, :] = cc[:, None] * a[pq, :] + ss[:, None] * a[qp, :]
            a[pq, qp] = 0.0
            vecs[:, pq] = cc * vecs[:, pq] + ss * vecs[:, qp]
    raise ConvergenceError(f"Jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pair schedule of one Jacobi sweep: each round as index arrays (p, q), p < q.

    Circle method: index 0 stays put while the others rotate one place per
    round, and position i meets position m-1-i.  For odd n a phantom index n
    pads the circle to even m, and its partner sits the round out.
    """
    m = n + n % 2
    ring = np.arange(1, m)
    rounds = []
    for r in range(m - 1):
        seats = np.concatenate(([0], np.roll(ring, r)))
        left, right = seats[: m // 2], seats[::-1][: m // 2]
        real = (left < n) & (right < n)
        p, q = np.minimum(left, right)[real], np.maximum(left, right)[real]
        rounds.append((p, q))
    return rounds


def _rayleigh_refine(a: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rayleigh quotients of the Jacobi eigenvectors, accumulated in extended precision.

    The rotation cascade leaves the diagonal with an O(sqrt(rotations) * eps *
    ||A||) error, which propagation phases E*t amplify; recomputing against the
    untouched input matrix in long double removes the accumulation.
    """
    al = a.astype(np.longdouble)
    vl = vecs.astype(np.longdouble)
    w = np.einsum("ij,ij->j", vl, al @ vl) / np.einsum("ij,ij->j", vl, vl)
    return w.astype(float)
