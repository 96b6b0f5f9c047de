import numpy as np
import pytest

from jchsim.model import (
    ATOM,
    PHOTON,
    ModelParams,
    build_hamiltonian,
    flat_index,
    initial_atomic_excitation,
    norm,
    site_of,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n_cavities=1)
    with pytest.raises(ValueError):
        ModelParams(n_cavities=5, hopping=0.0)
    with pytest.raises(ValueError):
        ModelParams(n_cavities=5, coupling=-0.1)


@pytest.mark.parametrize("field", ["hopping", "coupling", "cavity_freq", "atom_freq"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        ModelParams(n_cavities=5, **{field: value})


def test_flat_index_layout():
    assert flat_index(PHOTON, 1, 4) == 0
    assert flat_index(PHOTON, 4, 4) == 3
    assert flat_index(ATOM, 1, 4) == 4
    assert flat_index(ATOM, 4, 4) == 7


def test_flat_index_round_trip():
    n = 7
    for idx in range(2 * n):
        kind, site = site_of(idx, n)
        assert flat_index(kind, site, n) == idx


def test_hamiltonian_decoupled_atoms():
    h = build_hamiltonian(ModelParams(2, hopping=1.0, coupling=0.0))
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = -1.0
    assert np.array_equal(h, expected)


def test_hamiltonian_coupling_blocks():
    h = build_hamiltonian(ModelParams(2, hopping=1.0, coupling=0.5))
    assert h[0, 2] == h[2, 0] == 0.5
    assert h[1, 3] == h[3, 1] == 0.5
    assert h[0, 1] == h[1, 0] == -1.0


def test_hamiltonian_exactly_symmetric():
    h = build_hamiltonian(ModelParams(6, hopping=0.7, coupling=2.3, cavity_freq=0.1, atom_freq=-0.4))
    assert np.array_equal(h, h.T)
    # open chain: no hopping wrap-around
    assert h[0, 5] == 0.0


def test_hamiltonian_eigenvalues_match_dressed_energies():
    # strong coupling, cross-checked against the closed-form spectrum
    from jchsim.spectral import mode_table

    params = ModelParams(3, hopping=1.0, coupling=1e3)
    w = np.sort(np.linalg.eigvalsh(build_hamiltonian(params)))
    mt = mode_table(params)
    eps = np.sort(np.concatenate([mt.eps_plus, mt.eps_minus]))
    assert np.abs(w - eps).max() <= 1e-10


@pytest.mark.parametrize("n,x0,idx", [(41, 21, 61), (101, 51, 151)])
def test_initial_excitation_index(n, x0, idx):
    state = initial_atomic_excitation(ModelParams(n, coupling=1.0), x0)
    assert state[idx] == 1.0
    assert np.count_nonzero(state) == 1


def test_initial_excitation_bounds():
    params = ModelParams(3, coupling=1.0)
    with pytest.raises(ValueError):
        initial_atomic_excitation(params, 5)
    with pytest.raises(ValueError):
        initial_atomic_excitation(params, 0)


def test_norm():
    params = ModelParams(5, coupling=0.2)
    assert norm(initial_atomic_excitation(params, 3)) == 1.0
    assert norm(np.zeros(10, dtype=complex)) == 0.0


def test_decoupled_atom_is_stationary():
    from jchsim.dynamics import AnalyticPropagator

    params = ModelParams(6, hopping=1.0, coupling=0.0, atom_freq=0.8)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 4)
    state = prop.evolve(state0, 5.3)
    expected = np.exp(-1j * 0.8 * 5.3) * state0
    assert np.abs(state - expected).max() <= 1e-12
