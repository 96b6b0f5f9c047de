import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from effective_reference import (
    build_polariton_hamiltonian,
    strong_coupling_amplitudes,
    weak_coupling_amplitudes,
)
from jchsim import dynamics
from jchsim.dynamics import (
    METHODS,
    AnalyticPropagator,
    DenseOraclePropagator,
    StrongCouplingPropagator,
    TimeGrid,
    WeakCouplingPropagator,
    evolve_series,
    make_propagator,
    resonant_mode,
    strong_table,
    validity,
    weak_table,
)
from jchsim.entanglement import pair_concurrence
from jchsim.experiments import FIG3_COUPLING, fig2_spec, fig4_grid
from jchsim.linalg import _rayleigh_refine, evolution_phases, jacobi_eigh
from jchsim.model import (MAX_ENERGY_TIME, ModelParams, build_hamiltonian, initial_atomic_excitation,
                          max_energy)
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


@pytest.mark.parametrize("n_samples", [2.5, 3.0, np.float64(3.0)],
                         ids=["half", "float", "numpy-float"])
def test_time_grid_rejects_a_sample_count_that_is_not_an_integer(n_samples):
    with pytest.raises(ValueError, match="n_samples must be an integer, got"):
        TimeGrid(0.0, 1.0, n_samples)
    assert TimeGrid(0.0, 1.0, np.int64(3)).times.tolist() == [0.0, 0.5, 1.0]


def test_analytic_identity_at_t0():
    params = ModelParams(7, coupling=0.3)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 3)
    assert np.abs(prop.evolve(state0, 0.0) - state0).max() <= 1e-14


def test_analytic_matches_dense():
    params = ModelParams(5, coupling=0.7)
    analytic = AnalyticPropagator(params)
    dense = DenseOraclePropagator(params)
    state0 = initial_atomic_excitation(params, 2)
    t = 3.1
    assert np.abs(analytic.evolve(state0, t) - dense.evolve(state0, t)).max() <= 1e-10


def test_dense_identity_at_t0():
    params = ModelParams(4, coupling=1.2, atom_freq=0.5)
    dense = DenseOraclePropagator(params)
    state0 = initial_atomic_excitation(params, 1)
    assert np.abs(dense.evolve(state0, 0.0) - state0).max() <= 1e-12


def test_two_site_photon_hopping():
    # decoupled two-site photon: full transfer at t = pi/2 over hopping 1
    params = ModelParams(2, hopping=1.0, coupling=0.0)
    dense = DenseOraclePropagator(params)
    state0 = np.zeros(4, dtype=complex)
    state0[0] = 1.0
    state = dense.evolve(state0, np.pi / 2)
    assert abs(abs(state[1]) - 1.0) <= 1e-12


def test_unitarity():
    rng = np.random.default_rng(0)
    params = ModelParams(9, coupling=2.5, atom_freq=0.4)
    props = [AnalyticPropagator(params), DenseOraclePropagator(params)]
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
    d = evolve_series(state0, grid, DenseOraclePropagator(params))
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
    assert resonant_mode(weak.modes) == 21 and validity("weak", params) < 0.02
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
    assert validity("strong", params) < 0.01
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
    w, u = jacobi_eigh(h)
    state0 = np.zeros(16, dtype=complex)
    state0[3] = 1.0  # one |+_x> polariton
    for t in (0.5, 4.0, 12.0):
        state = u @ (evolution_phases(w, t) * (u.T @ state0))
        assert np.abs(state[8:]).max() <= 1e-12


def test_make_propagator_dispatch():
    params = ModelParams(9, coupling=0.5)
    assert METHODS == {"analytic": AnalyticPropagator, "dense": DenseOraclePropagator,
                       "weak": WeakCouplingPropagator, "strong": StrongCouplingPropagator}
    for name, cls in METHODS.items():
        assert isinstance(cls, type) and list(inspect.signature(cls).parameters) == ["params"]
        prop = make_propagator(name, params)
        assert type(prop) is cls and prop.params is params
    assert resonant_mode(make_propagator("weak", params).modes) == 5
    with pytest.raises(ValueError):
        make_propagator("magic", params)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e10])
@pytest.mark.parametrize("atom_freq", [0.0, 1.0, -0.37, 1.9])
def test_weak_propagator_picks_the_mode_closest_to_resonance(atom_freq, scale):
    # every energy in units of J = scale: the pick cannot depend on the unit
    for n in range(2, 201):
        params = ModelParams(n, hopping=scale, coupling=1e-3 * scale, atom_freq=atom_freq * scale)
        # the lowest mode index whose |delta_k| is within 1e-12 J of the smallest
        detuning = np.abs(atom_freq + 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        expected = 1 + min(k for k in range(n) if detuning[k] <= detuning.min() + 1e-12)
        assert resonant_mode(WeakCouplingPropagator(params).modes) == expected, n
    unit = ModelParams(41, coupling=1e-3, atom_freq=atom_freq)
    scaled = ModelParams(41, hopping=scale, coupling=1e-3 * scale, atom_freq=atom_freq * scale)
    assert validity("weak", scaled) == pytest.approx(validity("weak", unit), rel=1e-9)


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
    assert resonant_mode(weak.modes) == 28 and validity("weak", params) < 0.01
    exact = make_propagator("analytic", params)
    times = np.linspace(0.0, 4.0 * np.pi / params.coupling, 257)
    for x0 in (20, 21):
        state0 = initial_atomic_excitation(params, x0)
        pi_weak = np.sum(np.abs(weak.evolve(state0, times)[:, 41:]) ** 2, axis=1)
        pi_exact = np.sum(np.abs(exact.evolve(state0, times)[:, 41:]) ** 2, axis=1)
        assert np.abs(pi_weak - pi_exact).max() <= 1e-4


def _table_bytes(modes):
    return {f.name: np.asarray(getattr(modes, f.name)).tobytes()
            for f in dataclasses.fields(modes) if f.name != "params"}


@pytest.mark.parametrize("params", [
    ModelParams(41, coupling=1e-3),
    ModelParams(41, coupling=1e-3, atom_freq=1.0),
    ModelParams(47, coupling=1.5, atom_freq=0.3),
    ModelParams(21, coupling=1e3, cavity_freq=-0.2),
    ModelParams(8, coupling=0.0, atom_freq=0.4),
])
def test_effective_tables_are_the_propagators_modes(params):
    for table, cls in ((weak_table, WeakCouplingPropagator),
                       (strong_table, StrongCouplingPropagator)):
        modes = dynamics.mode_table(params)
        before = _table_bytes(modes)
        result = table(modes)
        assert _table_bytes(modes) == before
        assert _table_bytes(result) == _table_bytes(cls(params).modes)
        assert result.params is params


def test_validity_keeps_the_floats_of_the_per_class_metrics():
    # the values the weak and strong propagators' own validity properties returned
    assert validity("weak", ModelParams(41, coupling=1e-3)).hex() == "0x1.b67c12f5cb5abp-8"
    assert (validity("weak", ModelParams(41, coupling=1e-3, atom_freq=1.0)).hex()
            == "0x1.02bfbcb351c0ep-7")
    assert validity("strong", ModelParams(21, coupling=1e3)).hex() == "0x1.0624dd2f1a9fcp-8"


def test_validity_edges_and_exact_methods():
    params = ModelParams(9, coupling=0.0, atom_freq=0.3)
    assert validity("strong", params) == np.inf
    for method in ("analytic", "dense"):
        assert validity(method, ModelParams(9, coupling=0.5)) == 0.0
        assert type(validity(method, params)) is float
    with pytest.raises(ValueError) as factory:
        make_propagator("magic", params)
    with pytest.raises(ValueError) as metric:
        validity("magic", params)
    assert str(metric.value) == str(factory.value)


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
    # every propagator forms the atomic half by one product that skips the photon
    # half, so this holds by construction; an odd N still runs a scalar t through
    # the 1-row (gemv) kernels, which round a subset of the output rows differently
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


@pytest.mark.parametrize("rows", [2, 3, 250])
@pytest.mark.parametrize("n", [3, 9, 21, 47, 96])
def test_dense_atoms_of_a_time_chunk_are_the_atomic_columns_of_the_full_product(n, rows):
    # the CLI evolves chunks of two or more rows, where the dense oracle's product with
    # the atomic block u[N:] has the bits of the last N columns of the whole 2N-column
    # back transform (a 1-row product need not), so its output bytes are those of a
    # back transform that forms the photon half too
    params = ModelParams(n, coupling=0.6, atom_freq=0.2)
    prop = make_propagator("dense", params)
    state0 = initial_atomic_excitation(params, (n + 1) // 2)
    times = np.linspace(0.0, 30.0, rows)
    e, u = prop.eigenvalues, prop.eigenvectors
    full = (evolution_phases(e, times) * (u.T @ state0)) @ u.T
    assert np.array_equal(prop.evolve(state0, times, atoms_only=True), full[:, n:])


def _jacobi_refusal(h) -> str:
    """The message jacobi_eigh(h) raises, with no warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing norm must not warn before the refusal
        with pytest.raises(ValueError) as refusal:
            jacobi_eigh(h)
    return str(refusal.value)


@pytest.mark.parametrize("size", [1.3e154, 1e160, 1e300, np.inf])
def test_jacobi_refuses_a_matrix_whose_norm_overflows(size):
    # an overflowing norm made the convergence test pass before any rotation
    h = build_hamiltonian(ModelParams(5, coupling=1.0))
    h[h != 0] *= size
    assert "norm" in _jacobi_refusal(h)


@pytest.mark.parametrize("size", [1e-200, 1.5e-162, 5e-324])
def test_jacobi_refuses_a_nonzero_matrix_whose_norm_underflows(size):
    # an underflowing norm would pass the convergence test before any rotation: identity vectors
    h = build_hamiltonian(ModelParams(5, coupling=1.0))
    h[h != 0] *= size
    assert "underflows" in _jacobi_refusal(h)
    # entries of about 2.4e-150, just above 1 / MAX_ENERGY, still solve exactly
    h = build_hamiltonian(ModelParams(5, coupling=1.0))
    assert np.array_equal(jacobi_eigh(h * 2.0**-498)[0], jacobi_eigh(h)[0] * 2.0**-498)


def test_jacobi_refuses_an_empty_matrix_before_any_reduction():
    # a 0 x 0 matrix once died inside numpy: "zero-size array to reduction operation maximum"
    assert _jacobi_refusal(np.zeros((0, 0))) == "expected a nonempty matrix, got shape (0, 0)"


def test_jacobi_still_solves_entries_just_below_the_overflow():
    h = build_hamiltonian(ModelParams(5, coupling=1.0))
    w, v = jacobi_eigh(h * 2.0**500)
    assert np.array_equal(w, jacobi_eigh(h)[0] * 2.0**500)


@pytest.mark.parametrize("n, omega_c", [
    *(pytest.param(n, -0.2, id=str(n)) for n in (2, 3, 8, 9, 16, 17)),
    # at n = 3 the mirror-odd sector is the 1 x 1 matrix [[-0.0]]
    *(pytest.param(n, -0.0, id=f"{n}-omega_c-0") for n in (2, 3)),
])
def test_dense_sectors_match_one_full_solve(n, omega_c):
    # the two mirror sectors and the pair rotations against one Jacobi solve of the whole H
    params = ModelParams(n, coupling=1.3, cavity_freq=omega_c, atom_freq=0.37)
    h = build_hamiltonian(params)
    dense = DenseOraclePropagator(params)
    w, u = dense.eigenvalues, dense.eigenvectors
    assert np.all(np.diff(w) >= 0)
    assert np.abs(w - jacobi_eigh(h)[0]).max() <= 1e-12 * np.linalg.norm(h)
    assert np.abs(u.T @ u - np.eye(2 * n)).max() <= 1e-13
    assert np.abs(h @ u - u * w).max() <= 1e-12 * np.linalg.norm(h)


@pytest.mark.parametrize("n, model", [
    (96, dict(coupling=1.0)), (47, dict(coupling=1.5)), (12, dict(coupling=1.3e8)),
    (41, dict(coupling=1e-3)), (16, dict(coupling=1.0)), (3, dict(coupling=1.0, cavity_freq=-0.0)),
    (9, dict(coupling=1.3, atom_freq=0.37, cavity_freq=-0.2)), (2, dict(coupling=0.0)),
], ids=str)
def test_dense_oracle_rotations_match_the_seated_pair_solve(n, model):
    # the earlier oracle solved the N blocks [[lam_k, g], [g, w_a]] as one 2N matrix that
    # seated mode k at index k and its atom at 2N-1-k, so that round 0 turned them all, and
    # mapped the vectors back by v @ y[k] and v @ y[~k]; one rotation per block gives the
    # same bits, up to the order of columns with exactly equal eigenvalues (n = 2, g = 0)
    params = ModelParams(n, **model)
    h = build_hamiltonian(params)
    lam, v = dynamics._chain_eigh(h[:n, :n])
    k = np.arange(n)
    pairs = np.zeros_like(h)
    pairs[k, k], pairs[~k, ~k], pairs[k, ~k], pairs[~k, k] = lam, h[n, n], h[n, 0], h[n, 0]
    w, y = jacobi_eigh(pairs)
    seated = np.concatenate([v @ y[k], v @ y[~k]])
    u = DenseOraclePropagator(params).eigenvectors
    ties = np.split(np.arange(2 * n), np.flatnonzero(np.diff(w)) + 1)
    assert (len(ties) < 2 * n) == (model["coupling"] == 0.0)
    for tie in ties:
        assert sorted(u[:, tie].T.tolist()) == sorted(seated[:, tie].T.tolist())


@pytest.mark.parametrize("params, x0, grid", [
    (fig2_spec().params, fig2_spec().x0, fig2_spec().grid.times),
    (ModelParams(101, coupling=FIG3_COUPLING), 51, np.pi / FIG3_COUPLING * np.array([2e3, 5e3, 1e4])),
    *((ModelParams(201, coupling=g), 101, fig4_grid(g)) for g in (1.07, 10.0, 97.3)),
    # the sweep workload's N = 1001 at its middle coupling
    (ModelParams(1001, coupling=1.0), 501, np.linspace(0.0, 50.0, 2000)),
], ids=["fig2", "fig3", "fig4-1.07", "fig4-10", "fig4-97.3", "sweep"])
def test_dense_matches_analytic_on_each_workload_model(params, x0, grid):
    # five times of each grid, its first and last among them
    times = grid[np.linspace(0, len(grid) - 1, 5).astype(int)]
    state0 = initial_atomic_excitation(params, x0)
    dense = make_propagator("dense", params)
    u = dense.eigenvectors
    assert np.abs(u.T @ u - np.eye(params.dim)).max() <= 1e-13
    atoms = dense.evolve(state0, times, atoms_only=True)
    exact = AnalyticPropagator(params).evolve(state0, times, atoms_only=True)
    assert np.abs(atoms - exact).max() <= 1e-10


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("shape", [(7,), (9,), (1, 8)], ids=str)
def test_evolve_refuses_a_state_of_the_wrong_shape(method, shape):
    # every method refuses it with one message, before any product
    prop = make_propagator(method, ModelParams(4, coupling=0.5))
    for atoms_only in (False, True):
        with pytest.raises(ValueError, match="^expected a length-8 amplitude vector$"):
            prop.evolve(np.ones(shape), 1.0, atoms_only)


@pytest.mark.parametrize("params", [
    pytest.param(ModelParams(9, coupling=1.3, atom_freq=0.37), id="pairs"),
])
def test_dense_eigenvalues_are_long_double_rayleigh_quotients(params):
    h = build_hamiltonian(params)
    dense = DenseOraclePropagator(params)
    assert dense.eigenvalues.dtype == np.longdouble
    assert np.array_equal(dense.eigenvalues, _rayleigh_refine(h, dense.eigenvectors))
    assert np.all(np.diff(dense.eigenvalues) >= 0)


@pytest.mark.parametrize("g", [0.0, 5e-324, 1e-310, 1e-200])
def test_dense_oracle_turns_vanishing_couplings_without_warnings(g):
    # (w_a - lam_k) / (2 g) overflows below about 1e-308 J; the rotation is then the identity
    params = ModelParams(9, coupling=g)
    h = build_hamiltonian(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dense = DenseOraclePropagator(params)
    u, w = dense.eigenvectors, dense.eigenvalues.astype(float)
    assert np.abs(u.T @ u - np.eye(18)).max() <= 1e-15
    assert np.abs(h @ u - u * w).max() <= 1e-14


def _atoms_at_50_digits(mpmath, params, x0, t):
    """The N atomic amplitudes at t of |e_x0> under the double matrix H, from a 50-digit
    eigendecomposition, each rounded to complex double."""
    n, h = params.n_cavities, build_hamiltonian(params)
    with mpmath.workdps(50):
        energies, vectors = mpmath.eigsy(mpmath.matrix(h.tolist()))
        weights = [mpmath.expj(-e * mpmath.mpf(t)) * vectors[n + x0 - 1, m]
                   for m, e in enumerate(energies)]
        return np.array([complex(mpmath.fdot([vectors[k, m] for m in range(2 * n)], weights))
                         for k in range(n, 2 * n)])


def _pi_a(prop, params, x0, t):
    atoms = prop.evolve(initial_atomic_excitation(params, x0), t, atoms_only=True)
    return np.sum(np.abs(atoms) ** 2)


def test_analytic_matches_a_50_digit_solve_where_g_dwarfs_j():
    # max|E| * t = 9.9e5, inside MAX_ENERGY_TIME.  Each +-g cluster holds eigenvalues split on
    # the scale of J; a Jacobi solve of H whole fixed their vectors only to about eps * g / J
    # (dense 1.24e-10 off here), so the dense oracle solves the photon chain apart from g
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(7, hopping=1.0, coupling=79287485263.0544)
    t = 1.0914626702688699e-05
    exact = np.sum(np.abs(_atoms_at_50_digits(mpmath, params, 4, t)) ** 2)
    assert exact == pytest.approx(0.51868844425408877, abs=1e-16)
    assert abs(_pi_a(AnalyticPropagator(params), params, 4, t) - exact) <= 1e-13
    assert abs(_pi_a(make_propagator("dense", params), params, 4, t) - exact) <= 1e-13


def test_dense_and_analytic_agree_with_a_50_digit_solve_at_the_worst_scanned_point():
    # the largest dense-analytic gap of a scan over n = 4..96 and g/J = 1e-2..1e12: 8.4e-9
    # when the dense oracle solved H whole, at max|E| * t = 9.9e5
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(12, coupling=131138314.66727269)
    t = 0.007549280981788503
    exact = np.sum(np.abs(_atoms_at_50_digits(mpmath, params, 6, t)) ** 2)
    analytic = _pi_a(AnalyticPropagator(params), params, 6, t)
    dense = _pi_a(make_propagator("dense", params), params, 6, t)
    assert abs(dense - analytic) <= 1e-10
    assert abs(analytic - exact) <= 1e-10
    assert abs(dense - exact) <= 1e-12  # 2.6e-12 with eigenvalues rounded to double


def test_both_methods_stay_within_1e_10_of_a_50_digit_solve_at_the_time_bound():
    # the thinnest margin of a scan over n = 4..96 and g/J = 1e-2..1e12 under
    # MAX_ENERGY_TIME: max|E| * t = 9.9e5, where the analytic eigenvalues' rounding to
    # double puts it 3.6e-11 off; dense, whose eigenvalues stay in long double, 3.8e-14
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(4, hopping=1.0, coupling=570791.0)
    t = 9.9e5 / max_energy(params)
    assert t == 1.7344291187873713
    exact = np.sum(np.abs(_atoms_at_50_digits(mpmath, params, 2, t)) ** 2)
    analytic = _pi_a(AnalyticPropagator(params), params, 2, t)
    dense = _pi_a(make_propagator("dense", params), params, 2, t)
    assert abs(dense - analytic) < 1e-10
    assert abs(analytic - exact) < 1e-10
    assert abs(dense - exact) <= 1e-12


def test_analytic_stays_within_1e_10_of_dense_at_the_worst_point_of_the_bound_scan():
    # the largest gap of a scan over t in [1e5, 1e6] / max|E|, n = 4, 7, 12, 24 and
    # g/J = 10^0..10^8: 9.2e-11 at max|E| * t = 1.0e6, all of it analytic's (a 50-digit
    # solve puts dense 2.6e-14 off)
    params = ModelParams(7, coupling=8618720.531229887)
    t = 0.11597305312531668
    assert max_energy(params) * t <= MAX_ENERGY_TIME
    analytic = _pi_a(AnalyticPropagator(params), params, 4, t)
    dense = _pi_a(make_propagator("dense", params), params, 4, t)
    assert abs(analytic - dense) < 1e-10


def test_dense_stays_within_1e_12_of_a_50_digit_solve_detuned_at_the_time_bound():
    # dense 2.9e-12 off here while its eigenvalues were rounded to double
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(12, coupling=1.7, cavity_freq=-0.2, atom_freq=0.3)
    t = 9.9e5 / max_energy(params)
    exact = np.sum(np.abs(_atoms_at_50_digits(mpmath, params, 5, t)) ** 2)
    assert abs(_pi_a(AnalyticPropagator(params), params, 5, t) - exact) < 1e-10
    assert abs(_pi_a(make_propagator("dense", params), params, 5, t) - exact) <= 1e-12


def test_dense_decides_c_2_3_where_analytic_strays_inside_the_time_bound():
    # a detuned n = 3 chain at max|E| * t = 9.4e5, inside MAX_ENERGY_TIME, where the two exact
    # methods' C_2_3 differ by more than 1e-10: analytic is 1.14e-10 off a 50-digit solve
    # (its eigenvalues rounded to double), dense 3.0e-14, so the gap is analytic's
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(3, coupling=2406446.6493437905, cavity_freq=2.7820912213109334,
                         atom_freq=1.8812031391982682)
    t = 0.39176063335315314
    assert max_energy(params) * t <= MAX_ENERGY_TIME
    exact = np.abs(_atoms_at_50_digits(mpmath, params, 3, t))
    dense = np.abs(make_propagator("dense", params).evolve(
        initial_atomic_excitation(params, 3), t, atoms_only=True))
    assert abs(pair_concurrence(dense[1], dense[2]) - pair_concurrence(exact[1], exact[2])) <= 1e-12


def test_dense_decides_c_3_4_where_analytic_strays_on_a_resonant_chain():
    # a resonant n = 4 chain at max|E| * t = 8.6e5, inside MAX_ENERGY_TIME: analytic's C_3_4 is
    # 1.41e-10 and its pi_a 1.17e-11 off a 50-digit solve (its eigenvalues rounded to double);
    # dense is 2.8e-14 and 4.3e-15 off
    mpmath = pytest.importorskip("mpmath")
    params = ModelParams(4, coupling=72008699.37825075)
    t = 0.012009514144193711
    assert max_energy(params) * t <= MAX_ENERGY_TIME
    exact = np.abs(_atoms_at_50_digits(mpmath, params, 3, t))
    dense = make_propagator("dense", params)
    atoms = np.abs(dense.evolve(initial_atomic_excitation(params, 3), t, atoms_only=True))
    assert abs(pair_concurrence(atoms[2], atoms[3]) - pair_concurrence(exact[2], exact[3])) <= 1e-12
    assert abs(_pi_a(dense, params, 3, t) - np.sum(exact ** 2)) <= 1e-12
