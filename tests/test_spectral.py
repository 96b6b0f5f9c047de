import numpy as np
import pytest

from jchsim.dynamics import AnalyticPropagator, StrongCouplingPropagator
from jchsim.linalg import jacobi_eigh
from jchsim.model import ModelParams, build_hamiltonian
from jchsim.spectral import eigenstate_vector, mode_table, sine_modes


def test_band_center_mode():
    modes = mode_table(ModelParams(41))
    assert abs(modes.frequencies[20]) <= 1e-14
    assert abs(modes.vectors[20, 20] ** 2 - 1.0 / 21.0) <= 1e-14


def test_mode_normalization():
    modes = mode_table(ModelParams(17))
    norms = np.sum(modes.vectors**2, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_even_mode_vanishes_at_center():
    # even m has a node at the center site
    modes = mode_table(ModelParams(41))
    assert abs(modes.vectors[1, 20]) <= 1e-14


def test_orthonormality_and_completeness():
    modes = mode_table(ModelParams(23))
    gram = modes.vectors @ modes.vectors.T
    assert np.abs(gram - np.eye(23)).max() <= 1e-12
    # completeness: sum_k v_{k,x} v_{k,x0} = delta_{x,x0}
    comp = modes.vectors.T @ modes.vectors
    assert np.abs(comp - np.eye(23)).max() <= 1e-12


def test_frequencies_strictly_increasing():
    for n in (2, 5, 64):
        modes = mode_table(ModelParams(n))
        assert np.all(np.diff(modes.frequencies) > 0)


def test_dressed_amplitude_normalization():
    mt = mode_table(ModelParams(11, coupling=0.7, atom_freq=0.3))
    assert np.abs(mt.a_plus**2 + mt.b_plus**2 - 1.0).max() <= 1e-12
    assert np.abs(mt.a_minus**2 + mt.b_minus**2 - 1.0).max() <= 1e-12


def test_dressed_energy_sum_and_gap():
    mt = mode_table(ModelParams(11, coupling=0.7, atom_freq=0.3))
    assert np.abs(mt.eps_plus + mt.eps_minus - (0.3 + mt.frequencies)).max() <= 1e-12
    assert np.abs(mt.eps_plus - mt.eps_minus - mt.rabi).max() <= 1e-12


def test_resonant_mode_dressing():
    # band center of an odd chain is exactly resonant with omega_a = 0
    mt = mode_table(ModelParams(41, coupling=0.5))
    m = 20
    assert abs(mt.detunings[m]) <= 1e-14
    assert abs(mt.a_plus[m] - 1 / np.sqrt(2)) <= 1e-12
    assert abs(mt.b_plus[m] - 1 / np.sqrt(2)) <= 1e-12
    assert abs(mt.b_minus[m] + 1 / np.sqrt(2)) <= 1e-12
    assert abs(mt.eps_plus[m] - 0.5) <= 1e-12
    assert abs(mt.eps_minus[m] + 0.5) <= 1e-12


def test_decoupled_limit_bare_modes():
    # g = 0 with positive detuning: '+' is the bare atom... the '+' branch
    # carries (delta + rabi)/r -> photon weight 1 when delta > 0
    params = ModelParams(5, coupling=0.0, atom_freq=10.0)
    mt = mode_table(params)
    assert np.all(mt.detunings > 0)
    assert np.abs(mt.a_plus).max() <= 1e-14
    assert np.abs(mt.b_plus - 1.0).max() <= 1e-14


def test_eigenstate_residuals_across_regimes():
    rng = np.random.default_rng(7)
    for g in (1e-3, 1.0, 1e3):
        params = ModelParams(9, coupling=g, atom_freq=float(rng.uniform(-1, 1)))
        h = build_hamiltonian(params)
        mt = mode_table(params)
        hmax = np.abs(h).max()
        for m in range(1, 10):
            for branch, eps in (("+", mt.eps_plus[m - 1]), ("-", mt.eps_minus[m - 1])):
                psi = eigenstate_vector(mt, m, branch)
                assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
                assert np.linalg.norm(h @ psi - eps * psi) <= 1e-10 * hmax


def test_eigenstate_orthogonality():
    mt = mode_table(ModelParams(7, coupling=0.4, atom_freq=0.1))
    vecs = [eigenstate_vector(mt, m, b) for m in range(1, 8) for b in "+-"]
    gram = np.abs(np.array([[np.vdot(u, v) for v in vecs] for u in vecs]))
    assert np.abs(gram - np.eye(14)).max() <= 1e-12


def test_eigenstate_vector_validation():
    modes = mode_table(ModelParams(5, coupling=0.3))
    with pytest.raises(ValueError):
        eigenstate_vector(modes, 1, "x")


@pytest.mark.parametrize("n", [3, 16, 41, 64])
def test_spectrum_matches_jacobi(n):
    params = ModelParams(n, coupling=0.2, atom_freq=0.0)
    mt = mode_table(params)
    analytic = np.sort(np.concatenate([mt.eps_plus, mt.eps_minus]))
    w, _ = jacobi_eigh(build_hamiltonian(params))
    assert np.abs(analytic - w).max() <= 1e-10


def test_sine_modes_are_built_once_read_only_and_equal_a_fresh_build():
    n = 37
    k, vectors, complex_vectors = sine_modes(n)
    fresh_k = np.pi * np.arange(1, n + 1) / (n + 1)
    fresh = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(fresh_k, np.arange(1, n + 1)))
    assert k.tobytes() == fresh_k.tobytes()
    assert vectors.tobytes() == fresh.tobytes()
    assert complex_vectors.tobytes() == fresh.astype(complex).tobytes()
    for x in (k, vectors, complex_vectors):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
    # every coupling and propagator of this N shares the one build
    for g in (0.01, 3.0):
        params = ModelParams(n, coupling=g)
        assert mode_table(params).vectors is vectors and mode_table(params).momenta is k
        assert AnalyticPropagator(params)._vectors is complex_vectors
        assert StrongCouplingPropagator(params).modes.vectors is vectors
