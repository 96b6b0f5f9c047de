"""Self-contained eigenvalue machinery used by the verification oracles.

One solver lives here so that the oracle paths do not share code with the
closed-form physics they are meant to check: a Jacobi eigensolver for real
symmetric matrices in round-robin (parallel) order, vectorized one round of
disjoint rotations at a time through buffers allocated once per call.  It
serves both oracles: the dense propagator diagonalizes the Hamiltonian with
it, and the Wootters concurrence takes the eigenvalues of Hermitian 4x4
matrices through their real symmetric 8x8 forms.

It calls no LAPACK eigen-routine (``numpy.linalg.eig*``): the oracles are
meant to stay independent of the library solvers they may be compared with.
"""

import functools

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
    so they are applied together as one vectorized column, row and
    eigenvector update.  Each update gathers the p and q slices into buffers
    allocated once per call, combines them there and scatters them back, so
    no round allocates an array of the matrix's size.  Sweeps repeat until
    the off-diagonal Frobenius norm drops below ``_JACOBI_TOL`` relative to
    the matrix norm.  Returns (eigenvalues ascending, eigenvectors as columns).

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
    if scale == 0.0 or n == 1:
        order = np.argsort(np.diag(a))
        return np.diag(a)[order], np.eye(n)[:, order]
    # rotations with |a_pq| below this cannot affect the converged result
    skip = 0.01 * _JACOBI_TOL * scale / n
    rounds = _schedule(n)
    flat, diag = a.reshape(-1), np.diagonal(a)
    # the eigenvectors are rotated as rows, which gather and scatter faster
    vt = np.eye(n)
    # Round temporaries of this size would sit above malloc's mmap threshold,
    # so a fresh process would map and fault them in anew on every round.
    store = np.empty((2, n * 2 * (n // 2)))
    buffers = {}
    off = np.empty_like(a)

    for _ in range(_JACOBI_MAX_SWEEPS):
        np.copyto(off, a)  # a with its diagonal zeroed, for the off-diagonal norm
        np.fill_diagonal(off, 0.0)
        if np.linalg.norm(off) <= _JACOBI_TOL * scale:
            # the columns in C order: _rayleigh_refine's sums round by layout
            vecs = vt.T.copy()
            w = _rayleigh_refine(original, vecs)
            order = np.argsort(w, kind="stable")
            return w[order], vecs[:, order]
        for p, q, apq_at, pq, qp, zeroed in rounds:
            apq = flat[apq_at]
            keep = np.abs(apq) > skip
            if not keep.all():
                if not keep.any():
                    continue
                p, q, apq = p[keep], q[keep], apq[keep]
                pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
                zeroed = pq * n + qp
            theta = 0.5 * (diag[q] - diag[p]) / apq
            t = np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            t[theta == 0.0] = 1.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # new (x_p, x_q) = (c x_p - s x_q, s x_p + c x_q), all pairs at once
            cc, ss = np.concatenate((c, c)), np.concatenate((-s, s))
            m = len(pq)
            if m not in buffers:
                buffers[m] = ([b[: n * m].reshape(n, m) for b in store],
                              [b[: n * m].reshape(m, n) for b in store])
            columns, rows = buffers[m]
            _rotate(a, pq, qp, cc, ss, 1, columns)
            cc, ss = cc[:, None], ss[:, None]
            _rotate(a, pq, qp, cc, ss, 0, rows)
            flat[zeroed] = 0.0
            _rotate(vt, pq, qp, cc, ss, 0, rows)
    raise ConvergenceError(f"Jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")


def _rotate(x, pq, qp, cc, ss, axis, buffers):
    """Set x_pq to cc * x_pq + ss * x_qp along ``axis`` (0: rows, 1: columns).

    Both gathers land in ``buffers``, two C-contiguous arrays of the gathered
    shape; the sum forms in the first, which is scattered back.  ``cc`` and
    ``ss`` broadcast against them.
    """
    x_pq, x_qp = buffers
    x.take(pq, axis, x_pq, "clip")
    x.take(qp, axis, x_qp, "clip")
    np.multiply(x_pq, cc, x_pq)
    np.multiply(x_qp, ss, x_qp)
    np.add(x_pq, x_qp, x_pq)
    if axis:
        x[:, pq] = x_pq
    else:
        x[pq] = x_pq


@functools.lru_cache(maxsize=64)
def _schedule(n: int) -> tuple:
    """The rounds of ``_round_robin(n)`` with the indices their updates use.

    Each round is p, q, the flat indices of its a_pq, p and q joined both
    ways (p then q, q then p), and the flat indices of its a_pq and a_qp.
    The arrays are read-only, as every solve of size n shares them.
    """
    rounds = []
    for p, q in _round_robin(n):
        pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
        arrays = (p, q, p * n + q, pq, qp, pq * n + qp)
        for x in arrays:
            x.setflags(write=False)
        rounds.append(arrays)
    return tuple(rounds)


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
