"""Self-contained eigenvalue machinery used by the verification oracles.

Two solvers live here so that the oracle paths do not share code with the
closed-form physics they are meant to check:

* a Jacobi eigensolver for real symmetric matrices in round-robin (parallel)
  order, vectorized one round of disjoint rotations at a time, and
* eigenvalues of small complex matrices via the characteristic polynomial,
  companion-matrix reduction and a shifted QR iteration.

Neither calls a LAPACK eigen-routine (``numpy.linalg.eig*``): the oracles are
meant to stay independent of the library solvers they may be compared with.
"""

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when an iterative eigensolver fails to converge."""


_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 100
# QR deflates a subdiagonal entry below this fraction of its diagonal neighbours
_QR_TOL = 1e-14
_QR_MAX_ITER = 1000
_COEFF_TOL = 1e-13


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

    Raises ConvergenceError if ``_JACOBI_MAX_SWEEPS`` sweeps do not converge.
    """
    original = np.asarray(a, dtype=float)
    a = original.copy()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    vecs = np.eye(n)
    scale = np.linalg.norm(a)
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


def evolution_phases(energies: np.ndarray, t: float) -> np.ndarray:
    """exp(-i E t) with the product E*t reduced mod 2pi in extended precision.

    For |E| t >> 1 the double rounding of the product alone costs
    eps * |E| t radians, which matters when two exact propagators are
    compared at tight tolerance.  ``t`` may be a scalar or an array; an array
    broadcasts to shape ``t.shape + energies.shape``.
    """
    angle = np.mod(
        np.multiply.outer(
            np.asarray(t, dtype=np.longdouble), np.asarray(energies, dtype=np.longdouble)
        ),
        _TWO_PI_LD,
    ).astype(float)
    return np.exp(-1j * angle)


# 2*pi to long-double precision; np.pi alone would leak eps(double) per wrap
_TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900577")


def characteristic_polynomial(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns ``c`` with ``det(lambda I - a) = lambda^n + c[0] lambda^(n-1)
    + ... + c[n-1]``.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n, dtype=complex)
    m = np.eye(n, dtype=complex)
    for i in range(1, n + 1):
        m = a @ m
        c = -np.trace(m) / i
        coeffs[i - 1] = c
        m = m + c * np.eye(n)
    return coeffs


def companion_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Companion matrix of a monic polynomial given by its non-leading coefficients."""
    n = len(coeffs)
    c = np.zeros((n, n), dtype=complex)
    c[1:, :-1] = np.eye(n - 1)
    c[:, -1] = -np.asarray(coeffs, dtype=complex)[::-1]
    return c


def hessenberg_qr_eigvals(h: np.ndarray):
    """Eigenvalues of a complex upper-Hessenberg matrix by shifted QR with Givens rotations."""
    h = np.array(h, dtype=complex)
    n = h.shape[0]
    eigs = []
    iters = 0
    while n > 0:
        if n == 1:
            eigs.append(h[0, 0])
            break
        if abs(h[n - 1, n - 2]) <= _QR_TOL * (abs(h[n - 2, n - 2]) + abs(h[n - 1, n - 1])):
            eigs.append(h[n - 1, n - 1])
            n -= 1
            h = h[:n, :n]
            continue
        if n == 2:
            eigs.extend(_eigvals_2x2(h))
            break
        if abs(h[n - 2, n - 3]) <= _QR_TOL * (abs(h[n - 3, n - 3]) + abs(h[n - 2, n - 2])):
            eigs.extend(_eigvals_2x2(h[n - 2:, n - 2:]))
            n -= 2
            h = h[:n, :n]
            continue
        iters += 1
        if iters > _QR_MAX_ITER:
            raise ConvergenceError("QR iteration did not converge")
        # single-shift QR step: H - mu I = QR, H <- RQ + mu I
        mu = _wilkinson_shift(h[n - 2:, n - 2:])
        d = np.arange(n)
        h[d, d] -= mu
        rotations = []
        for i in range(n - 1):
            c, s = _givens(h[i, i], h[i + 1, i])
            rotations.append((c, s))
            gi = np.array([[c, s], [-np.conj(s), c]])
            h[i:i + 2, i:] = gi @ h[i:i + 2, i:]
        for i, (c, s) in enumerate(rotations):
            gi_h = np.array([[c, -s], [np.conj(s), c]])
            h[:, i:i + 2] = h[:, i:i + 2] @ gi_h
        h[d, d] += mu
    return np.array(eigs[::-1], dtype=complex)


def _givens(f, g):
    """Complex Givens pair (c real, s) with [c s; -conj(s) c] @ [f; g] = [r; 0]."""
    if g == 0:
        return 1.0, 0.0 + 0j
    if f == 0:
        return 0.0, np.conj(g) / abs(g)
    r = np.hypot(abs(f), abs(g))
    return abs(f) / r, (f / abs(f)) * np.conj(g) / r


def _eigvals_2x2(m):
    tr = m[0, 0] + m[1, 1]
    disc = np.sqrt((m[0, 0] - m[1, 1]) ** 2 + 4.0 * m[0, 1] * m[1, 0] + 0j)
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


def _wilkinson_shift(m):
    e = _eigvals_2x2(m)
    return e[0] if abs(e[0] - m[1, 1]) < abs(e[1] - m[1, 1]) else e[1]


def small_matrix_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small complex matrix via companion-matrix reduction.

    The matrix is normalized, its characteristic polynomial taken, and the
    companion eigenproblem solved by shifted QR.  Coefficients below
    ``_COEFF_TOL`` are rounded to exact zero first: a defective zero eigenvalue
    would otherwise smear into a root cluster of radius ~eps^(1/multiplicity).
    """
    a = np.asarray(a, dtype=complex)
    scale = np.abs(a).max()
    if scale == 0.0:
        return np.zeros(a.shape[0], dtype=complex)
    coeffs = characteristic_polynomial(a / scale)
    coeffs[np.abs(coeffs) < _COEFF_TOL] = 0.0
    # exact zero roots deflate analytically
    zeros = 0
    while len(coeffs) > 0 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
        zeros += 1
    if len(coeffs) == 0:
        roots = np.array([], dtype=complex)
    elif len(coeffs) == 1:
        roots = np.array([-coeffs[0]])
    elif len(coeffs) == 2:
        roots = _eigvals_2x2(np.array([[-coeffs[0], -coeffs[1]], [1.0, 0.0]]))
    else:
        roots = hessenberg_qr_eigvals(companion_matrix(coeffs))
    return scale * np.concatenate([roots, np.zeros(zeros, dtype=complex)])
