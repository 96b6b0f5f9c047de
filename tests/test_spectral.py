import warnings

import numpy as np
import pytest

from jchsim.dynamics import AnalyticPropagator, StrongCouplingPropagator, WeakCouplingPropagator
from jchsim.linalg import jacobi_eigh
from jchsim.model import ModelParams, build_hamiltonian
from jchsim import spectral
from jchsim.spectral import mode_table, momenta, sine_modes


def eigenstate_vector(modes, m: int, branch: str) -> np.ndarray:
    """Full 2N eigenvector of mode m (1-based) on branch '+' or '-'."""
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    row, v = "+-".index(branch), sine_modes(modes.params.n_cavities)[m - 1].real
    return np.concatenate([modes.a[row, m - 1] * v, modes.b[row, m - 1] * v]).astype(complex)


def test_band_center_mode():
    modes = mode_table(ModelParams(41))
    assert abs(modes.frequencies[20]) <= 1e-14
    assert abs(sine_modes(41)[20, 20].real ** 2 - 1.0 / 21.0) <= 1e-14


def test_mode_normalization():
    vectors = sine_modes(17).real
    norms = np.sum(vectors**2, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_even_mode_vanishes_at_center():
    # even m has a node at the center site
    assert abs(sine_modes(41)[1, 20].real) <= 1e-14


def test_orthonormality_and_completeness():
    vectors = sine_modes(23).real
    gram = vectors @ vectors.T
    assert np.abs(gram - np.eye(23)).max() <= 1e-12
    # completeness: sum_k v_{k,x} v_{k,x0} = delta_{x,x0}
    comp = vectors.T @ vectors
    assert np.abs(comp - np.eye(23)).max() <= 1e-12


def test_frequencies_strictly_increasing():
    for n in (2, 5, 64):
        modes = mode_table(ModelParams(n))
        assert np.all(np.diff(modes.frequencies) > 0)


def test_dressed_amplitude_normalization():
    mt = mode_table(ModelParams(11, coupling=0.7, atom_freq=0.3))
    assert np.abs(mt.a[0]**2 + mt.b[0]**2 - 1.0).max() <= 1e-12
    assert np.abs(mt.a[1]**2 + mt.b[1]**2 - 1.0).max() <= 1e-12


def test_dressed_energy_sum_and_gap():
    mt = mode_table(ModelParams(11, coupling=0.7, atom_freq=0.3))
    assert np.abs(mt.eps[0] + mt.eps[1] - (0.3 + mt.frequencies)).max() <= 1e-12
    assert np.abs(mt.eps[0] - mt.eps[1] - mt.rabi).max() <= 1e-12


def test_resonant_mode_dressing():
    # band center of an odd chain is exactly resonant with omega_a = 0
    mt = mode_table(ModelParams(41, coupling=0.5))
    m = 20
    assert abs(mt.detunings[m]) <= 1e-14
    assert abs(mt.a[0, m] - 1 / np.sqrt(2)) <= 1e-12
    assert abs(mt.b[0, m] - 1 / np.sqrt(2)) <= 1e-12
    assert abs(mt.b[1, m] + 1 / np.sqrt(2)) <= 1e-12
    assert abs(mt.eps[0, m] - 0.5) <= 1e-12
    assert abs(mt.eps[1, m] + 0.5) <= 1e-12


def test_decoupled_limit_bare_modes():
    # g = 0 with positive detuning: '+' is the bare atom... the '+' branch
    # carries (delta + rabi)/r -> photon weight 1 when delta > 0
    params = ModelParams(5, coupling=0.0, atom_freq=10.0)
    mt = mode_table(params)
    assert np.all(mt.detunings > 0)
    assert np.abs(mt.a[0]).max() <= 1e-14
    assert np.abs(mt.b[0] - 1.0).max() <= 1e-14


@pytest.mark.parametrize("n,resonant", [(9, 3), (10, 0), (41, 20), (41, 40)])
def test_decoupled_table_holds_bare_modes_on_both_sides_of_resonance(n, resonant):
    # omega_a is one mode's exact frequency: modes below it have delta > 0, modes above
    # delta < 0, and that mode delta == 0, the degenerate case the atom row is kept for
    omega_a = float(mode_table(ModelParams(n)).frequencies[resonant])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mt = mode_table(ModelParams(n, coupling=0.0, atom_freq=omega_a))
    assert mt.a.shape == mt.b.shape == mt.eps.shape == (2, n)
    delta = mt.detunings
    assert delta[resonant] == 0.0 and np.all(delta[:resonant] > 0) and np.all(delta[resonant + 1:] < 0)
    photon = (mt.a == 1.0) & (mt.b == 0.0)
    atom = (mt.a == 0.0) & (np.abs(mt.b) == 1.0)
    assert np.all(photon | atom)
    # each mode has one photon and one atom, '+' on the higher bare energy
    assert np.array_equal(photon[0], delta <= 0) and np.array_equal(atom[0], delta > 0)
    assert np.array_equal(photon[1], ~photon[0])
    assert photon[0, resonant] and mt.b[1, resonant] == 1.0
    assert np.abs(np.where(photon, mt.frequencies, omega_a) - mt.eps).max() <= 1e-14
    for m in range(n):
        block = np.array([mt.a[:, m], mt.b[:, m]]).T  # rows '+' and '-'
        assert np.array_equal(block @ block.T, np.eye(2)), m


def test_eigenstate_residuals_across_regimes():
    rng = np.random.default_rng(7)
    for g in (1e-3, 1.0, 1e3):
        params = ModelParams(9, coupling=g, atom_freq=float(rng.uniform(-1, 1)))
        h = build_hamiltonian(params)
        mt = mode_table(params)
        hmax = np.abs(h).max()
        for m in range(1, 10):
            for branch, eps in (("+", mt.eps[0, m - 1]), ("-", mt.eps[1, m - 1])):
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
    with pytest.raises(ValueError, match="branch must be"):
        eigenstate_vector(modes, 1, "")


@pytest.mark.parametrize("n", [3, 16, 41, 64])
def test_spectrum_matches_jacobi(n):
    params = ModelParams(n, coupling=0.2, atom_freq=0.0)
    mt = mode_table(params)
    analytic = np.sort(mt.eps.ravel())
    w, _ = jacobi_eigh(build_hamiltonian(params))
    assert np.abs(analytic - w).max() <= 1e-10


def test_sine_modes_are_built_once_read_only_and_equal_a_fresh_build():
    n = 37
    vectors = sine_modes(n)
    fresh_k = np.pi * np.arange(1, n + 1) / (n + 1)
    fresh = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(fresh_k, np.arange(1, n + 1)))
    assert momenta(n).tobytes() == fresh_k.tobytes()
    assert vectors.dtype == complex and vectors.tobytes() == fresh.astype(complex).tobytes()
    assert not vectors.flags.writeable
    with pytest.raises(ValueError):
        vectors[0] = 0.0
    # every coupling and propagator of this N shares the one build
    for g in (0.01, 3.0):
        params = ModelParams(n, coupling=g)
        assert mode_table(params).momenta.tobytes() == fresh_k.tobytes()
        assert AnalyticPropagator(params)._vectors is vectors
        assert StrongCouplingPropagator(params)._vectors is vectors
        assert WeakCouplingPropagator(params)._vectors is vectors


def test_mode_table_reads_the_momenta_without_the_sine_basis(monkeypatch):
    params = ModelParams(41, coupling=0.2, atom_freq=0.3)
    modes = mode_table(params)

    def refuse(n):
        raise AssertionError(f"mode_table built the {n} x {n} sine basis")

    monkeypatch.setattr(spectral, "sine_modes", refuse)
    guarded = mode_table(params)
    for name in ("momenta", "frequencies", "detunings", "rabi", "a", "b", "eps"):
        assert getattr(guarded, name).tobytes() == getattr(modes, name).tobytes(), name
