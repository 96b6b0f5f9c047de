import numpy as np
import pytest

from jchsim import dynamics, linalg, spectral
from jchsim.dynamics import DenseOraclePropagator, make_propagator
from jchsim.entanglement import concurrence_wootters_oracle, reduce_to_pair
from jchsim.linalg import ConvergenceError, evolution_phases, jacobi_eigh
from jchsim.model import ModelParams, initial_atomic_excitation


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
