"""Self-contained eigenvalue machinery used by the verification oracles.

The dense propagator solves the whole photon chain with ``tridiagonal_eigh``,
O(n^2) by Sturm-count multisection and twisted factorizations, and turns each
mode-atom pair by one ``jacobi_rotation``, so that it shares no code with the
closed-form physics it checks.  ``jacobi_eigh``, a round-robin Jacobi solver, is
the tests' reference solver, and the Wootters oracle in ``tests/wootters_reference.py``
takes its eigenvalues with it; no CLI command runs it.  Both oracles' eigenvalues are
their vectors' long-double Rayleigh quotients against the matrix.  Neither solver calls
a LAPACK eigen-routine (``numpy.linalg.eig*``): the oracles are meant to stay independent
of the library solvers they may be compared with.
"""

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when an iterative eigensolver fails to converge."""


_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 100


def jacobi_eigh(a: np.ndarray):
    """Eigendecomposition of a real symmetric matrix by round-robin Jacobi.

    Each sweep visits every (p, q) pair once in round-robin (Brent-Luk parallel)
    order, up to n/2 disjoint pairs a round; their ``jacobi_rotation``s commute, so one
    row, column and eigenvector update applies a round's kept pairs at once.
    Sweeps repeat until the off-diagonal Frobenius norm drops below ``_JACOBI_TOL``
    relative to the matrix norm.  Returns (eigenvalues ascending, eigenvectors as
    columns); each eigenvalue is its vector's Rayleigh quotient against ``a``, formed
    as the plain long-double product and rounded to double.  Raises ValueError for an empty matrix, and for a norm that is not
    finite (entries from about 1.3e154) or that underflows to 0 for a nonzero
    matrix (entries below about 1.6e-162): either would pass the convergence test
    at once.  Raises ConvergenceError if ``_JACOBI_MAX_SWEEPS`` sweeps do not converge.
    The tests' reference solver: it stays in the package only because the benchmark
    tracer looks it up by name, as ``jchsim.dynamics.jacobi_eigh``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.size == 0:
        raise ValueError("expected a nonempty matrix, got shape (0, 0)")
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(a)
    if not np.isfinite(scale):
        raise ValueError(f"matrix norm is {scale}: entries must be finite and below 1e154")
    if scale == 0.0 and a.any():
        raise ValueError("matrix norm underflows to 0 for a nonzero matrix: "
                         "its largest entry must be at least about 1.6e-162")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    original, a, n = a, a.copy(), len(a)
    vecs = np.eye(n)
    # rotations with |a_pq| below this cannot affect the converged result
    skip = 0.01 * _JACOBI_TOL * scale / n
    # round r seats index 0, then 1..m-1 rotated r places, and seat i meets seat m-1-i; for odd
    # n a phantom index n pads the circle to even m, and its partner sits the round out
    m = n + n % 2
    seats = [np.concatenate(([0], np.roll(np.arange(1, m), r))) for r in range(m - 1)]
    pairs = [np.sort((s[: m // 2], s[::-1][: m // 2]), axis=0) for s in seats]
    rounds = [tuple(pq[:, pq[1] < n]) for pq in pairs]
    for _ in range(_JACOBI_MAX_SWEEPS):
        if np.linalg.norm(a - np.diag(np.diag(a))) <= _JACOBI_TOL * scale:
            # the rotation cascade leaves the diagonal about sqrt(rotations) eps ||A|| off; a
            # Rayleigh quotient's error is the square of its vector's (Parlett, ch. 4)
            vl = vecs.astype(np.longdouble, order="C")  # the sums round by layout
            av = original.astype(np.longdouble) @ vl
            w = (np.einsum("ij,ij->j", vl, av) / np.einsum("ij,ij->j", vl, vl)).astype(float)
            order = np.argsort(w, kind="stable")
            return w[order], vecs[:, order]
        for p, q in rounds:
            keep = np.abs(a[p, q]) > skip
            if not keep.any():
                continue
            p, q = p[keep], q[keep]
            c, s = jacobi_rotation(a[p, p], a[q, q], a[p, q])
            # new (x_p, x_q) = (c x_p - s x_q, s x_p + c x_q), all pairs at once
            pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
            cc, ss = np.concatenate((c, c)), np.concatenate((-s, s))
            a[:, pq] = cc * a[:, pq] + ss * a[:, qp]
            a[pq, :] = cc[:, None] * a[pq, :] + ss[:, None] * a[qp, :]
            a[pq, qp] = 0.0
            vecs[:, pq] = cc * vecs[:, pq] + ss * vecs[:, qp]
    raise ConvergenceError(f"Jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")


def jacobi_rotation(app, aqq, apq):
    """(c, s) with which (x_p, x_q) -> (c x_p - s x_q, s x_p + c x_q) diagonalizes each block
    [[app, apq], [apq, aqq]] by its smaller angle (Golub and Van Loan, sec. 8.5): (1, 0) where
    a_pq = 0.  Where a_pq is below about |aqq - app| / 1e308, theta overflows (numpy warns)
    and the result is the same limit."""
    zero = apq == 0.0
    # a_pq = 1 where it is 0 only keeps theta finite
    theta = 0.5 * (aqq - app) / np.where(zero, 1.0, apq)
    t = np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0))
    t[theta == 0.0] = 1.0
    c = np.where(zero, 1.0, 1.0 / np.sqrt(t * t + 1.0))
    return c, np.where(zero, 0.0, t * c)


def tridiagonal_eigh(d, e):
    """Eigendecomposition of a real symmetric tridiagonal matrix, O(n^2) but for one QR.

    ``d``, shape (n,), is its diagonal and ``e``, shape (n - 1,), its off-diagonal.  Every
    eigenvalue is multisected at once on Sturm counts (Barth, Martin and Wilkinson, Numer.
    Math. 9, 1967): each pass counts at ``_SECTIONS - 1`` points inside every bracket and
    keeps the part that holds its eigenvalue, until the brackets are eps times the
    Gershgorin scale wide.  Each vector comes from one twisted factorization (Fernando,
    SIAM J. Matrix Anal. Appl. 18, 1997), and one QR restores orthogonality.  The
    eigenvalues must be distinct, as they are where no e is 0.  Returns (eigenvalues
    ascending, shape (n,); eigenvectors as columns, shape (n, n)).
    """
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    if d.ndim != 1 or e.shape != (len(d) - 1,) or not np.isfinite(np.append(d, e)).all():
        raise ValueError(f"expected finite (n,) and (n - 1,) arrays, got {d.shape}, {e.shape}")
    n, tiny, eps = len(d), np.finfo(float).tiny, np.finfo(float).eps
    radius = np.pad(np.abs(e), (1, 0)) + np.pad(np.abs(e), (0, 1))
    lo, hi = np.full(n, (d - radius).min()), np.full(n, (d + radius).max())
    scale = max(-lo[0], hi[0])
    e2, pivmin = e * e, max(eps * eps * scale, tiny)
    fractions = np.arange(1, _SECTIONS)[:, None] / _SECTIONS
    while (active := hi - lo > max(eps * scale, tiny)).any():
        # brackets are parts of nested cuts of the first, so those with one lower end are
        # the same bracket, side by side: its points are counted once
        new = np.append(True, lo[1:] != lo[:-1])
        x, bracket = lo[new] + fractions * (hi - lo)[new], np.cumsum(new) - 1
        # the negative pivots of T - x = L D L^T count the eigenvalues below x; components
        # run along axis 0, points along the next and brackets along the last
        count = (_pivots(d, x, e2, pivmin) < 0.0).sum(0)
        x, below = x[:, bracket], count[:, bracket] > np.arange(n)
        hi = np.where(active, np.where(below, x, hi).min(0), hi)
        lo = np.where(active, np.where(below, lo, x).max(0), lo)
    w = 0.5 * (lo + hi)
    # T - w = N_r D_r N_r^T twisted at the r with the smallest |gamma_r|, from the pivots
    # taken from the top (plus) and from the bottom (minus)
    plus, minus = _pivots(d, w, e2, pivmin), _pivots(d[::-1], w, e2[::-1], pivmin)[::-1]
    twist = np.abs(plus + minus - np.subtract.outer(d, w)).argmin(0)
    # z_r = 1; z_i = -e_i z_(i+1) / plus_i above r and z_(i+1) = -e_i z_i / minus_(i+1) below
    z = (np.arange(n)[:, None] == twist).astype(float)
    for i in range(n - 2, -1, -1):
        z[i] = np.where(i < twist, -e[i] * z[i + 1] / plus[i], z[i])
    for i in range(n - 1):
        z[i + 1] = np.where(i >= twist, -e[i] * z[i] / minus[i + 1], z[i + 1])
    q, r = np.linalg.qr(z / np.linalg.norm(z, axis=0))
    # turned by the signs of R's diagonal, Q is the nearest to the twisted vectors
    return w, q * np.where(r.diagonal() < 0.0, -1.0, 1.0)


# a multisection pass cuts every bracket into this many parts
_SECTIONS = 4


def _pivots(d, x, e2, pivmin):
    """The pivots D of T - x = L D L^T from the top, row i over every point x, for T of
    diagonal ``d`` and squared off-diagonal ``e2``; a pivot smaller than pivmin is -pivmin."""
    pivots = np.empty((len(d), *np.shape(x)))
    for i, pivot in enumerate(pivots):
        np.subtract(d[i], x, out=pivot)
        if i:
            pivot -= e2[i - 1] / pivots[i - 1]
        np.copyto(pivot, -pivmin, where=np.abs(pivot) < pivmin)
    return pivots


def evolution_phases(energies: np.ndarray, t: float) -> np.ndarray:
    """exp(-i E t) with the product E*t reduced mod 2pi in extended precision.

    For |E| t >> 1 the double rounding of the product alone costs
    eps * |E| t radians, which matters when two exact propagators are
    compared at tight tolerance.  ``t`` may be a scalar or an array; an array
    broadcasts to shape ``t.shape + energies.shape``.  The cosine and minus the
    sine are written straight into the complex result; no complex exponential
    or temporary complex angle is formed.
    """
    t, energies = np.asarray(t, dtype=np.longdouble), np.asarray(energies, dtype=np.longdouble)
    angle = np.mod(np.multiply.outer(t, energies), _TWO_PI_LD).astype(float)
    phases = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phases.real)
    np.sin(angle, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    return phases


# 2*pi to long-double precision; np.pi alone would leak eps(double) per wrap
_TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900577")
