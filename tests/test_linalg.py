import warnings

import numpy as np
import pytest

from jchsim import dynamics, entanglement, linalg, spectral
from jchsim.dynamics import DenseOraclePropagator, make_propagator
from jchsim.entanglement import concurrence_wootters_oracle, reduce_to_pair
from jchsim.linalg import (ConvergenceError, evolution_phases, jacobi_eigh, jacobi_rotation,
                           tridiagonal_eigh)
from jchsim.model import ModelParams, build_hamiltonian, initial_atomic_excitation


def test_jacobi_diagonal_input():
    w, v = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(w, [-1.0, 2.0, 3.0])
    assert np.abs(np.abs(v) - np.eye(3)[:, [1, 2, 0]]).max() == 0.0


def test_jacobi_known_2x2():
    w, _ = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(w - [-1.0, 1.0]).max() <= 1e-14


def test_jacobi_random_decomposition():
    rng = np.random.default_rng(3)
    for n in (4, 11, 30):
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, v = jacobi_eigh(a)
        assert np.all(np.diff(w) >= 0)
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12
        assert np.abs(a @ v - v * w).max() <= 1e-12 * np.abs(a).max() * n


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        jacobi_eigh(np.zeros((2, 3)))


def test_jacobi_raises_when_its_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
    a = np.random.default_rng(5).standard_normal((6, 6))
    with pytest.raises(ConvergenceError, match="^Jacobi did not converge in 1 sweeps$"):
        jacobi_eigh(a + a.T)


def test_jacobi_zero_matrix():
    w, v = jacobi_eigh(np.zeros((4, 4)))
    assert np.array_equal(w, np.zeros(4))
    assert np.array_equal(v, np.eye(4))


def _whole_matrix_quotients(a, v):
    # the long-double Rayleigh quotients of v's columns as numpy's long-double matmul forms
    # them over the whole of a, zeros included
    al, vl = a.astype(np.longdouble), v.astype(np.longdouble)
    return (np.einsum("ij,ij->j", vl, al @ vl) / np.einsum("ij,ij->j", vl, vl)).astype(float)


def assert_refined_decomposition(a):
    # a divide or invalid-value warning would mean a skipped pair reached theta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = jacobi_eigh(a)
    n, scale = len(a), np.linalg.norm(a)
    assert np.all(np.diff(w) >= 0)
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12
    assert np.abs(a @ v - v * w).max() <= 1e-12 * scale
    # refined, each eigenvalue is its vector's long-double Rayleigh quotient rounded to
    # double; the Jacobi diagonal itself sits about sqrt(rotations) eps ||A|| away
    q = _whole_matrix_quotients(a, v)
    assert np.all(np.abs(w - q) <= np.spacing(np.abs(q)))
    return w, v


def _symmetric(n, seed):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return x + x.T


def _real_form_with_negative_zeros():
    # a real density matrix's real form [[Re, -Im], [Im, Re]] holds -0.0 in its -Im block
    x = np.random.default_rng(8).standard_normal((4, 4))
    rho = (x @ x.T).astype(complex) / np.trace(x @ x.T)
    form = np.block([[rho.real, -rho.imag], [rho.imag, rho.real]])
    assert np.any((form == 0.0) & np.signbit(form))
    return form


def _two_uncoupled_blocks():
    a, rng = np.zeros((9, 9)), np.random.default_rng(5)
    for block in (slice(0, 4), slice(4, 9)):
        x = rng.standard_normal((9, 9))[block, block]
        a[block, block] = x + x.T
    return a


@pytest.mark.parametrize("a", [
    *(pytest.param(build_hamiltonian(ModelParams(n, coupling=g, atom_freq=omega_a)),
                   id=f"jch-{n}-{g}-{omega_a}")
      for g, omega_a in [(0.0, 0.0), (1.0, 0.3), (97.3, 0.0)] for n in (5, 8, 17, 32)),
    *(pytest.param(_symmetric(n, 100 + n), id=f"random-{n}") for n in (1, 2, 3, 7, 8, 31)),
    # an odd size, so one index sits out each round
    pytest.param(_symmetric(101, 101), id="random-101"),
    # this matrix's refined eigenvalues move in the last place when _rayleigh_refine is
    # handed the eigenvectors as a transposed view rather than as a C-ordered array
    pytest.param(_symmetric(64, 5), id="layout-sensitive"),
    pytest.param(_real_form_with_negative_zeros(), id="negative-zeros"),
])
def test_jacobi_decomposes_with_the_same_bits_for_any_input_layout(a):
    w, v = assert_refined_decomposition(a)
    wf, vf = jacobi_eigh(np.asfortranarray(a))
    assert wf.tobytes() == w.tobytes() and vf.tobytes() == v.tobytes()


def test_jacobi_decomposes_the_wootters_real_forms(monkeypatch):
    seen = []

    def record(a):
        seen.append(np.array(a, dtype=float))
        return jacobi_eigh(a)

    monkeypatch.setattr(entanglement, "jacobi_eigh", record)
    rng = np.random.default_rng(11)
    for n in (2, 5, 12):
        state = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        concurrence_wootters_oracle(reduce_to_pair(state / np.linalg.norm(state), 1, n))
    for p in (0.2, 0.9):
        werner = (1 - p) / 4 * np.eye(4, dtype=complex)
        werner[1:3, 1:3] += p * np.array([[0.5, -0.5], [-0.5, 0.5]])
        concurrence_wootters_oracle(werner)
    assert len(seen) == 10 and all(m.shape == (8, 8) for m in seen)
    for m in seen:
        assert_refined_decomposition(m)


@pytest.mark.parametrize("a, width", [
    pytest.param(_two_uncoupled_blocks(), 4, id="two-blocks-9"),
    pytest.param(build_hamiltonian(ModelParams(96, coupling=1.0)), 96, id="chain-192"),
])
def test_jacobi_decomposes_with_partly_skipped_rounds(monkeypatch, a, width):
    # some rounds keep only part of their width pairs: a round turns the pairs inside a
    # block and skips those across, and the first sweep over the whole 2N = 192
    # Hamiltonian at N = 96 skips the pairs with a_pq == 0
    kept = []

    def record(app, aqq, apq):
        kept.append(len(apq))
        return jacobi_rotation(app, aqq, apq)

    monkeypatch.setattr(linalg, "jacobi_rotation", record)
    assert_refined_decomposition(a)
    assert any(0 < k < width for k in kept)


@pytest.mark.parametrize("a", [
    *(pytest.param([[x]], id=f"1x1-{x:g}") for x in (-3.5, 0.0, 1e-160, 1e150)),
    *(pytest.param(np.zeros((n, n)), id=f"zeros-{n}") for n in range(1, 6)),
])
def test_jacobi_one_by_one_and_zero_matrices_are_exact(a):
    # the convergence test passes before the first round, and _rayleigh_refine returns the
    # diagonal: +0.0 for a zero matrix, which holds no nonzeros to sum.  1e-160 is near the
    # smallest 1 x 1 entry whose norm does not underflow (1e-300 is refused, as at every size)
    a = np.array(a, dtype=float)
    w, v = assert_refined_decomposition(a)
    assert w.tobytes() == np.diag(a).tobytes() and v.tobytes() == np.eye(len(a)).tobytes()


def _tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_tridiagonal_eigh_decomposes_random_matrices(n):
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    w, v = tridiagonal_eigh(d, e)
    assert w.shape == (n,) and v.shape == (n, n)
    t, tol = _tridiagonal(d, e), 16 * np.finfo(float).eps
    assert np.all(np.diff(w) > 0)
    assert np.abs(t @ v - v * w).max() <= tol * np.abs(t).sum(1).max()
    assert np.abs(v.T @ v - np.eye(n)).max() <= tol


@pytest.mark.parametrize("n", [3, 101])
def test_tridiagonal_eigh_finds_the_zero_mode_of_an_odd_chain(n):
    # the centre mode of a chain with zero on-site energy has eigenvalue exactly 0, where a
    # multisection point or a pivot of T - w may be exactly 0 too
    d, e = np.zeros(n), -np.ones(n - 1)
    w, v = tridiagonal_eigh(d, e)
    assert abs(w[n // 2]) <= 2 * np.finfo(float).eps
    exact = -2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    assert np.abs(w - np.sort(exact)).max() <= 8 * np.finfo(float).eps
    assert np.abs(_tridiagonal(d, e) @ v - v * w).max() <= 8 * np.finfo(float).eps
    assert np.abs(v.T @ v - np.eye(n)).max() <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("n", [2, 3, 96, 1001])
@pytest.mark.parametrize("omega_c", [-0.2, -0.0])
def test_tridiagonal_eigh_multisects_the_uniform_chain_to_its_closed_form(n, omega_c):
    # the photon block of H, against omega_c - 2J cos(pi m / (N + 1)) at 40 digits; every
    # bracket is cut into quarters down to eps times the Gershgorin scale |omega_c| + 2J
    mpmath = pytest.importorskip("mpmath")
    h = build_hamiltonian(ModelParams(n, coupling=1.0, cavity_freq=omega_c))[:n, :n]
    w, _ = tridiagonal_eigh(h.diagonal(), h.diagonal(1))
    with mpmath.workdps(40):
        exact = [omega_c - 2 * mpmath.cos(mpmath.pi * m / (n + 1)) for m in range(1, n + 1)]
        error = max(abs(mpmath.mpf(float(x)) - y) for x, y in zip(w, exact))
    assert np.all(np.diff(w) > 0)
    assert error <= 4 * np.finfo(float).eps * (abs(omega_c) + 2.0)


def test_tridiagonal_eigh_refuses_mismatched_or_infinite_entries():
    for d, e in [(np.zeros(3), np.zeros(3)), (np.zeros(0), np.zeros(0)),
                 (np.zeros((1, 3)), np.zeros((1, 2))), (np.zeros((2, 3)), np.zeros((1, 2))),
                 ([1.0, np.inf], [1.0]), ([1.0, 2.0], [np.nan])]:
        with pytest.raises(ValueError, match=r"^expected finite \(n,\) and \(n - 1,\) arrays"):
            tridiagonal_eigh(d, e)


def test_evolution_phases_scalar_and_batch():
    e = np.array([0.0, 1.0, -2.0])
    p = evolution_phases(e, 0.5)
    assert np.abs(p - np.exp(-1j * e * 0.5)).max() <= 1e-15
    batch = evolution_phases(e, np.array([0.0, 0.5]))
    assert batch.shape == (2, 3)
    assert np.array_equal(batch[1], p)
    assert np.array_equal(batch[0], np.ones(3))


def test_evolution_phases_large_argument():
    # |E| t ~ 1e8: the mod-2pi reduction must not lose the fractional part
    e = np.array([1e3 + 0.25])
    t = 1e5
    two_pi = np.longdouble("6.28318530717958647692528676655900577")
    exact = np.exp(-1j * float(np.mod(np.longdouble(t) * np.longdouble(e[0]), two_pi)))
    assert abs(evolution_phases(e, t)[0] - exact) <= 1e-10


def test_oracles_run_without_lapack_eigensolvers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called a LAPACK eigen-routine")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    w, _ = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.abs(w - [1.0, 3.0]).max() <= 1e-14
    rho = np.zeros((4, 4), dtype=complex)
    rho[1:3, 1:3] = 0.5
    assert abs(concurrence_wootters_oracle(rho) - 1.0) <= 1e-12
    params = ModelParams(6, coupling=0.7)
    state = make_propagator("dense", params).evolve(initial_atomic_excitation(params, 3), 2.0)
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12


def test_oracles_share_no_formula_with_the_analytic_path(monkeypatch):
    # the dense and Wootters oracles check the mode tables, so they must run, to the
    # same bits, with the LAPACK eigensolvers and the sine modes and mode table refused
    def oracles():
        params = ModelParams(12, coupling=1.3, atom_freq=0.2)
        state0 = initial_atomic_excitation(params, 4)
        states = DenseOraclePropagator(params).evolve(state0, [0.5, 7.25])
        return states, [concurrence_wootters_oracle(reduce_to_pair(states[1], i, 6))
                        for i in (2, 5, 9)]

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle reached the analytic path or a LAPACK eigen-routine")

    states, concurrences = oracles()
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for module in (dynamics, spectral):
        monkeypatch.setattr(module, "mode_table", refuse)
        monkeypatch.setattr(module, "sine_modes", refuse)
    guarded_states, guarded_concurrences = oracles()
    assert guarded_states.tobytes() == states.tobytes()
    assert np.array(guarded_concurrences).tobytes() == np.array(concurrences).tobytes()
    assert 0.0 < max(concurrences) < 1.0
