import inspect

import numpy as np
import pytest

from jchsim.dynamics import (
    AnalyticPropagator,
    DenseOraclePropagator,
    StrongCouplingPropagator,
    TimeGrid,
    WeakCouplingPropagator,
    build_polariton_hamiltonian,
    evolve_series,
    make_propagator,
    strong_coupling_amplitudes,
    weak_coupling_amplitudes,
)
from jchsim.linalg import jacobi_eigh
from jchsim.model import ModelParams, build_hamiltonian, initial_atomic_excitation
from jchsim.spectral import mode_table


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 2.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(2.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    # TimeGrid(0, inf, 5).times was [nan, inf, ...], and nan passed both checks
    for t_start, t_end in [(0.0, np.inf), (np.nan, np.nan), (0.0, np.nan), (np.nan, 1.0)]:
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(t_start, t_end, 5)


def test_analytic_identity_at_t0():
    params = ModelParams(7, coupling=0.3)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 3)
    assert np.abs(prop.evolve(state0, 0.0) - state0).max() <= 1e-14


def test_analytic_matches_dense():
    params = ModelParams(5, coupling=0.7)
    analytic = AnalyticPropagator(params)
    dense = DenseOraclePropagator(build_hamiltonian(params))
    state0 = initial_atomic_excitation(params, 2)
    t = 3.1
    assert np.abs(analytic.evolve(state0, t) - dense.evolve(state0, t)).max() <= 1e-10


def test_dense_identity_at_t0():
    params = ModelParams(4, coupling=1.2, atom_freq=0.5)
    dense = DenseOraclePropagator(build_hamiltonian(params))
    state0 = initial_atomic_excitation(params, 1)
    assert np.abs(dense.evolve(state0, 0.0) - state0).max() <= 1e-12


def test_two_site_photon_hopping():
    # decoupled two-site photon: full transfer at t = pi/2 over hopping 1
    params = ModelParams(2, hopping=1.0, coupling=0.0)
    dense = DenseOraclePropagator(build_hamiltonian(params))
    state0 = np.zeros(4, dtype=complex)
    state0[0] = 1.0
    state = dense.evolve(state0, np.pi / 2)
    assert abs(abs(state[1]) - 1.0) <= 1e-12


def test_unitarity():
    rng = np.random.default_rng(0)
    params = ModelParams(9, coupling=2.5, atom_freq=0.4)
    props = [AnalyticPropagator(params), DenseOraclePropagator(build_hamiltonian(params))]
    state0 = initial_atomic_excitation(params, 5)
    for prop in props:
        for t in rng.uniform(0.0, 50.0, size=10):
            assert abs(np.linalg.norm(prop.evolve(state0, t)) - 1.0) <= 1e-10


def test_energy_conservation():
    params = ModelParams(11, coupling=0.8, atom_freq=-0.2)
    h = build_hamiltonian(params)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 6)
    e0 = np.vdot(state0, h @ state0).real
    scale = max(abs(e0), 1.0)
    for t in np.linspace(0.0, 40.0, 17):
        state = prop.evolve(state0, t)
        assert abs(np.vdot(state, h @ state).real - e0) <= 1e-9 * scale


def test_group_property():
    params = ModelParams(8, coupling=1.3)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 4)
    t1, t2 = 2.7, 4.4
    once = prop.evolve(state0, t1 + t2)
    twice = prop.evolve(prop.evolve(state0, t1), t2)
    assert np.abs(once - twice).max() <= 1e-9


def test_mirror_symmetry():
    params = ModelParams(21, coupling=0.6)
    prop = AnalyticPropagator(params)
    x0 = 11
    state0 = initial_atomic_excitation(params, x0)
    for t in (1.0, 7.3, 19.0):
        ca = prop.evolve(state0, t)[21:]
        for d in range(1, 11):
            assert abs(abs(ca[x0 - 1 - d]) - abs(ca[x0 - 1 + d])) <= 1e-10


def test_evolve_series_constant_grid():
    params = ModelParams(4, coupling=0.5)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 2)
    states = evolve_series(state0, TimeGrid(0.0, 0.0, 2), prop)
    assert states.shape == (2, 8)
    assert np.array_equal(states[0], states[1])


def test_evolve_series_matches_oracle():
    params = ModelParams(16, coupling=0.9, atom_freq=0.1)
    grid = TimeGrid(0.0, 30.0, 64)
    state0 = initial_atomic_excitation(params, 8)
    a = evolve_series(state0, grid, AnalyticPropagator(params))
    d = evolve_series(state0, grid, DenseOraclePropagator(build_hamiltonian(params)))
    assert np.abs(a - d).max() <= 1e-10
    assert np.abs(np.linalg.norm(a, axis=1) - 1.0).max() <= 1e-10


def test_weak_amplitudes_return_probability():
    # gt = pi at the band-center resonant mode: p(x0) = (1 - 2/21)^2,
    # odd x != x0 get 4/441, even x get nothing
    params = ModelParams(41, coupling=1e-3)
    modes = mode_table(params)
    t = np.pi / params.coupling
    ca = weak_coupling_amplitudes(21, t, modes, 21)
    p = np.abs(ca) ** 2
    assert abs(p[20] - (1.0 - 2.0 / 21.0) ** 2) <= 1e-10
    odd = np.array([x for x in range(1, 42) if x % 2 == 1 and x != 21])
    assert np.abs(p[odd - 1] - 4.0 / 441.0).max() <= 1e-10
    even = np.arange(2, 42, 2)
    assert np.abs(p[even - 1]).max() <= 1e-20


def test_weak_propagator_matches_exact_envelope():
    params = ModelParams(41, coupling=1e-3)
    modes = mode_table(params)
    weak = WeakCouplingPropagator(params)
    assert weak.resonant_mode == 21 and weak.validity < 0.02
    exact = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 21)
    for t in np.linspace(0.0, 2 * np.pi / params.coupling, 9):
        ps = weak.evolve(state0, t)
        pe = exact.evolve(state0, t)
        assert abs(np.linalg.norm(ps) - 1.0) <= 1e-10
        # per-amplitude error is O(g / min detuning) ~ 7e-3 worst case
        assert np.abs(np.abs(ps) - np.abs(pe)).max() <= 5e-3
        # closed-form amplitudes agree with the propagator itself
        ca = weak_coupling_amplitudes(21, t, modes, 21)
        assert np.abs(ps[41:] - ca).max() <= 1e-10


def test_strong_amplitudes_envelope():
    params = ModelParams(101, coupling=1e3)
    modes = mode_table(params)
    for t in (0.7, 5.0, 20.0):
        ca = strong_coupling_amplitudes(51, t, modes)
        assert abs(np.sum(np.abs(ca) ** 2) - np.cos(params.coupling * t) ** 2) <= 1e-12
    assert abs(strong_coupling_amplitudes(51, 0.0, modes)[50] - 1.0) <= 1e-12


def test_strong_propagator_tracks_exact():
    params = ModelParams(21, coupling=1e3)
    modes = mode_table(params)
    strong = StrongCouplingPropagator(params)
    assert strong.validity < 0.01
    exact = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 11)
    for t in np.arange(1, 6) * (np.pi / params.coupling) * 100:
        ps = strong.evolve(state0, t)
        pe = exact.evolve(state0, t)
        assert abs(np.linalg.norm(ps) - 1.0) <= 1e-10
        assert np.abs(ps - pe).max() <= 5e-3
        ca = strong_coupling_amplitudes(11, t, modes)
        assert np.abs(ps[21:] - ca).max() <= 1e-10


def test_weak_regime_return_envelope():
    # exact atomic probability vs 1 - (1/21) sin^2(gt)
    params = ModelParams(41, coupling=1e-3)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 21)
    g = params.coupling
    times = np.linspace(0.0, 2 * np.pi / g, 257)
    states = prop.evolve(state0, times)
    pi_a = np.sum(np.abs(states[:, 41:]) ** 2, axis=1)
    model = 1.0 - np.sin(g * times) ** 2 / 21.0
    assert np.abs(pi_a - model).max() <= 1e-3


def test_strong_regime_return_envelope():
    params = ModelParams(41, coupling=1e3)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 21)
    g = params.coupling
    times = np.linspace(0.0, 20 * np.pi / g, 513)
    states = prop.evolve(state0, times)
    pi_a = np.sum(np.abs(states[:, 41:]) ** 2, axis=1)
    assert np.abs(pi_a - np.cos(g * times) ** 2).max() <= 5e-3


def test_ballistic_front():
    # strong coupling: the leading edge of the atomic packet advances about
    # one site per 1/J.  The low-probability (>1e-4) edge overshoots for
    # tJ < ~20 where the evanescent tail has not yet separated from the
    # ballistic cone, so the window starts at tJ = 20.
    params = ModelParams(101, coupling=1e3)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 51)
    g = params.coupling
    for tj in (20.0, 30.0, 40.0):
        t = round(tj * g / np.pi) * np.pi / g
        p = np.abs(prop.evolve(state0, t)[101:]) ** 2
        dist = np.abs(np.arange(1, 102) - 51)
        front = dist[p > 1e-4].max()
        assert 0.8 * tj <= front <= 1.2 * tj


def test_polariton_basis_exact_spectrum():
    for omega_a in (0.0, 0.37):
        params = ModelParams(10, coupling=1.1, atom_freq=omega_a)
        h_site = build_hamiltonian(params)
        h_pol = build_polariton_hamiltonian(params, drop_cross_terms=False)
        ws, _ = jacobi_eigh(h_site)
        wp, _ = jacobi_eigh(h_pol)
        assert np.abs(ws - wp).max() <= 1e-12


def test_polariton_decoupled_spectrum():
    params = ModelParams(12, coupling=5.0)
    h = build_polariton_hamiltonian(params, drop_cross_terms=True)
    w, _ = jacobi_eigh(h)
    k = np.pi * np.arange(1, 13) / 13.0
    expected = np.sort(np.concatenate([5.0 - np.cos(k), -5.0 - np.cos(k)]))
    assert np.abs(w - expected).max() <= 1e-12


def test_polariton_branches_stay_decoupled():
    params = ModelParams(8, coupling=3.0)
    h = build_polariton_hamiltonian(params, drop_cross_terms=True)
    prop = DenseOraclePropagator(h)
    state0 = np.zeros(16, dtype=complex)
    state0[3] = 1.0  # one |+_x> polariton
    for t in (0.5, 4.0, 12.0):
        state = prop.evolve(state0, t)
        assert np.abs(state[8:]).max() <= 1e-12


def test_make_propagator_dispatch():
    params = ModelParams(9, coupling=0.5)
    assert make_propagator("analytic", params).method == "analytic"
    assert make_propagator("dense", params).method == "dense"
    weak = make_propagator("weak", params)
    assert weak.method == "weak" and weak.resonant_mode == 5
    assert make_propagator("strong", params).method == "strong"
    with pytest.raises(ValueError):
        make_propagator("magic", params)


@pytest.mark.parametrize("atom_freq", [0.0, 1.0, -0.37, 1.9])
def test_weak_propagator_picks_the_mode_closest_to_resonance(atom_freq):
    for n in range(2, 201):
        params = ModelParams(n, coupling=1e-3, atom_freq=atom_freq)
        # the lowest mode index whose |delta_k| is within 1e-12 of the smallest
        detuning = np.abs(atom_freq + 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        expected = 1 + min(k for k in range(n) if detuning[k] <= detuning.min() + 1e-12)
        assert WeakCouplingPropagator(params).resonant_mode == expected, n


def test_mode_propagators_are_built_from_the_model_alone():
    assert list(inspect.signature(make_propagator).parameters) == ["method", "params"]
    for cls in (AnalyticPropagator, WeakCouplingPropagator, StrongCouplingPropagator):
        assert list(inspect.signature(cls).parameters) == ["params"]
    assert "__init__" not in vars(WeakCouplingPropagator)
    assert "__init__" not in vars(StrongCouplingPropagator)


def test_weak_propagator_dresses_the_resonant_mode():
    # omega_a = 1 J is resonant with mode 28 of N = 41, not the band center
    params = ModelParams(41, coupling=1e-3, atom_freq=1.0)
    weak = make_propagator("weak", params)
    assert weak.resonant_mode == 28 and weak.validity < 0.01
    exact = make_propagator("analytic", params)
    times = np.linspace(0.0, 4.0 * np.pi / params.coupling, 257)
    for x0 in (20, 21):
        state0 = initial_atomic_excitation(params, x0)
        pi_weak = np.sum(np.abs(weak.evolve(state0, times)[:, 41:]) ** 2, axis=1)
        pi_exact = np.sum(np.abs(exact.evolve(state0, times)[:, 41:]) ** 2, axis=1)
        assert np.abs(pi_weak - pi_exact).max() <= 1e-4


@pytest.mark.parametrize("method", ["analytic", "dense", "weak", "strong"])
def test_evolve_scalar_and_array_times(method):
    params = ModelParams(9, coupling=0.6, atom_freq=0.2)
    prop = make_propagator(method, params)
    state0 = initial_atomic_excitation(params, 4)
    times = np.array([0.0, 0.7, 3.1, 12.5, 40.0])
    states = prop.evolve(state0, times)
    assert states.shape == (len(times), 18)
    for t, row in zip(times, states):
        single = prop.evolve(state0, float(t))
        assert single.shape == (18,)
        assert np.abs(row - single).max() <= 1e-13
    assert np.abs(states[0] - state0).max() <= 1e-12


@pytest.mark.parametrize("method", ["analytic", "dense", "weak", "strong"])
@pytest.mark.parametrize("n", [9, 16])
def test_evolve_atoms_only_is_the_atomic_half(method, n):
    # an odd N catches a scalar-t (gemv) product over a subset of the output rows
    params = ModelParams(n, coupling=0.6, atom_freq=0.2)
    prop = make_propagator(method, params)
    rng = np.random.default_rng(n)
    state0 = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    state0 /= np.linalg.norm(state0)
    for t in (3.1, np.linspace(0.0, 40.0, 37)):
        full = prop.evolve(state0, t)
        atoms = prop.evolve(state0, t, atoms_only=True)
        assert atoms.shape == full[..., n:].shape
        assert np.array_equal(atoms, full[..., n:])


@pytest.mark.parametrize("size", [1.3e154, 1e160, 1e300, np.inf])
def test_jacobi_refuses_a_matrix_whose_norm_overflows(size):
    # an overflowing norm made the convergence test pass before any rotation
    h = build_hamiltonian(ModelParams(5, coupling=1.0))
    h[h != 0] *= size
    with pytest.raises(ValueError, match="norm"):
        jacobi_eigh(h)
    with pytest.raises(ValueError, match="norm"):
        DenseOraclePropagator(h)


@pytest.mark.parametrize("size", [1e-200, 1.5e-162, 5e-324])
def test_jacobi_refuses_a_nonzero_matrix_whose_norm_underflows(size):
    # an underflowing norm sent a nonzero matrix down the zero-matrix path: identity vectors
    h = build_hamiltonian(ModelParams(5, coupling=1.0))
    h[h != 0] *= size
    with pytest.raises(ValueError, match="underflows"):
        jacobi_eigh(h)
    with pytest.raises(ValueError, match="underflows"):
        DenseOraclePropagator(h)
    # entries of about 2.4e-150, just above 1 / MAX_ENERGY, still solve exactly
    h = build_hamiltonian(ModelParams(5, coupling=1.0))
    assert np.array_equal(jacobi_eigh(h * 2.0**-498)[0], jacobi_eigh(h)[0] * 2.0**-498)


def test_jacobi_still_solves_entries_just_below_the_overflow():
    h = build_hamiltonian(ModelParams(5, coupling=1.0))
    w, v = jacobi_eigh(h * 2.0**500)
    assert np.array_equal(w, jacobi_eigh(h)[0] * 2.0**500)
