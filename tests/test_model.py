import numpy as np
import pytest

from jchsim.linalg import jacobi_eigh
from jchsim.model import MAX_ENERGY, ModelParams, build_hamiltonian, initial_atomic_excitation
from jchsim.spectral import mode_table


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n_cavities=1)
    with pytest.raises(ValueError):
        ModelParams(n_cavities=5, hopping=0.0)
    with pytest.raises(ValueError):
        ModelParams(n_cavities=5, coupling=-0.1)


def test_hopping_must_reach_the_inverse_energy_bound():
    assert ModelParams(n_cavities=5, hopping=1 / MAX_ENERGY).hopping == 1e-150
    for hopping in (1e-151, 1e-200, 5e-324):
        with pytest.raises(ValueError, match="hopping must be at least 1e-150"):
            ModelParams(n_cavities=5, hopping=hopping, coupling=hopping)


@pytest.mark.parametrize("field", ["hopping", "coupling", "cavity_freq", "atom_freq"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        ModelParams(n_cavities=5, **{field: value})


def test_initial_excitation_layout():
    # the N photon amplitudes come first, then the atom at site x0 at index N + x0 - 1
    for n in (2, 4, 7):
        params = ModelParams(n, coupling=1.0)
        for x0 in range(1, n + 1):
            assert np.flatnonzero(initial_atomic_excitation(params, x0)).tolist() == [n + x0 - 1]
        for x0 in (0, n + 1):
            with pytest.raises(ValueError, match=rf"site {x0} out of range \[1, {n}\]"):
                initial_atomic_excitation(params, x0)


@pytest.mark.parametrize("n", [5.0, np.float64(5.0)], ids=["float", "numpy-float"])
def test_params_reject_a_size_that_is_not_an_integer(n):
    # 5.0 once passed as a size, and the first use of it raised TypeError
    with pytest.raises(ValueError, match="n_cavities must be an integer >= 2"):
        ModelParams(n_cavities=n)
    assert ModelParams(n_cavities=np.int64(5)).dim == 10


@pytest.mark.parametrize("x0", [2.0, np.float64(2.0), 2.5], ids=["float", "numpy-float", "half"])
def test_initial_excitation_rejects_a_site_that_is_not_an_integer(x0):
    params = ModelParams(4, coupling=1.0)
    with pytest.raises(ValueError, match="site must be an integer, got"):
        initial_atomic_excitation(params, x0)
    assert np.flatnonzero(initial_atomic_excitation(params, np.int32(2))).tolist() == [5]


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
    eps = np.sort(mt.eps.ravel())
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
    assert np.linalg.norm(initial_atomic_excitation(params, 3)) == 1.0
    assert np.linalg.norm(np.zeros(10, dtype=complex)) == 0.0


def test_decoupled_atom_is_stationary():
    from jchsim.dynamics import AnalyticPropagator

    params = ModelParams(6, hopping=1.0, coupling=0.0, atom_freq=0.8)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 4)
    state = prop.evolve(state0, 5.3)
    expected = np.exp(-1j * 0.8 * 5.3) * state0
    assert np.abs(state - expected).max() <= 1e-12


@pytest.mark.parametrize("field", ["hopping", "coupling", "cavity_freq", "atom_freq"])
def test_params_bound_every_energy(field):
    ModelParams(n_cavities=5, **{field: MAX_ENERGY})
    with pytest.raises(ValueError, match="at most 1e\\+150 in magnitude"):
        ModelParams(n_cavities=5, **{field: 1.01 * MAX_ENERGY})
    if field.endswith("freq"):
        with pytest.raises(ValueError, match="at most"):
            ModelParams(n_cavities=5, **{field: -1.01 * MAX_ENERGY})


def test_energies_at_the_bound_give_finite_tables_and_spectra():
    # g = 8e307 once overflowed the branch weights to an all-zero table
    params = ModelParams(5, hopping=MAX_ENERGY, coupling=MAX_ENERGY, atom_freq=-MAX_ENERGY)
    mt = mode_table(params)
    for name in ("rabi", "a", "b", "eps"):
        assert np.all(np.isfinite(getattr(mt, name))), name
    assert np.allclose(mt.a[0]**2 + mt.b[0]**2, 1.0)
    w = jacobi_eigh(build_hamiltonian(params))[0]
    assert np.allclose(w, np.sort(mt.eps.ravel()),
                       rtol=0, atol=1e-12 * MAX_ENERGY)
