"""Physics properties of the exact propagators over drawn chains, states and times.

Both exact methods are unitary, compose in time (U(s) U(t) = U(s + t)) and commute
with the chain's mirror x -> N+1-x; they agree with each other on detuned chains
up to ``MAX_ENERGY_TIME``; and the pairwise map of evolved states is the Wootters
concurrence of each reduced pair.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from jchsim.dynamics import make_propagator
from jchsim.entanglement import concurrence_wootters_oracle, max_concurrence_map, reduce_to_pair
from jchsim.model import MAX_ENERGY_TIME, ModelParams, initial_atomic_excitation, max_energy

EXACT = ("analytic", "dense")

_SETTINGS = settings(max_examples=25, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _models(draw, most_sites=10, largest_g=1e2):
    """A uniform chain, detuned: the atomic frequency differs from the cavity's."""
    w_c = draw(st.floats(-1.0, 1.0))
    w_a = draw(st.floats(-3.0, 3.0).filter(lambda w: w != w_c))
    return ModelParams(draw(st.integers(2, most_sites)),
                       coupling=10.0 ** draw(st.floats(-2.0, np.log10(largest_g))),
                       cavity_freq=w_c, atom_freq=w_a)


def _states(rng, dim, count):
    """``count`` random unit vectors of the full 2N sector, one per row."""
    psi = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


_TIMES = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4).map(np.array)


def _mirror(states):
    """x -> N+1-x on the photon and the atomic halves of each state."""
    n = states.shape[-1] // 2
    return np.concatenate([states[..., n - 1::-1], states[..., :n - 1:-1]], axis=-1)


@pytest.mark.parametrize("method", EXACT)
@seed(20201019)
@_SETTINGS
@given(_models(), st.integers(0, 2**32 - 1), _TIMES)
def test_exact_propagators_are_unitary(method, params, draw_seed, times):
    phi, psi = _states(np.random.default_rng(draw_seed), params.dim, 2)
    prop = make_propagator(method, params)
    u_phi, u_psi = prop.evolve(phi, times), prop.evolve(psi, times)
    assert np.abs(np.linalg.norm(u_psi, axis=1) - 1.0).max() <= 1e-12
    assert np.abs(np.sum(u_phi.conj() * u_psi, axis=1) - np.vdot(phi, psi)).max() <= 1e-12


@pytest.mark.parametrize("method", EXACT)
@seed(20201019)
@_SETTINGS
@given(_models(), st.integers(0, 2**32 - 1), st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_evolving_by_s_after_t_is_evolving_by_s_plus_t(method, params, draw_seed, s, t):
    psi = _states(np.random.default_rng(draw_seed), params.dim, 1)[0]
    prop = make_propagator(method, params)
    assert np.abs(prop.evolve(prop.evolve(psi, t), s) - prop.evolve(psi, s + t)).max() <= 1e-11


@pytest.mark.parametrize("method", EXACT)
@seed(20201019)
@_SETTINGS
@given(_models(), st.data(), _TIMES)
def test_a_release_at_the_mirror_site_evolves_into_the_mirror_state(method, params, data, times):
    n = params.n_cavities
    x0 = data.draw(st.integers(1, n))
    prop = make_propagator(method, params)
    here = prop.evolve(initial_atomic_excitation(params, x0), times)
    there = prop.evolve(initial_atomic_excitation(params, n + 1 - x0), times)
    assert np.abs(_mirror(here) - there).max() <= 1e-12


@seed(20201019)
@_SETTINGS
@given(_models(most_sites=12, largest_g=1e6), st.data(),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(np.array))
def test_dense_and_analytic_agree_to_1e_10_under_the_time_bound(params, data, fractions):
    # pi_a, as a release's atomic probability is what the time bound is set by
    x0 = data.draw(st.integers(1, params.n_cavities))
    times = fractions * (MAX_ENERGY_TIME / max_energy(params))
    state0 = initial_atomic_excitation(params, x0)
    pi_a = [np.sum(np.abs(make_propagator(method, params).evolve(state0, times, atoms_only=True))
                   ** 2, axis=1) for method in EXACT]
    assert np.abs(pi_a[0] - pi_a[1]).max() <= 1e-10


@seed(20201019)
@_SETTINGS
@given(_models(most_sites=7), st.integers(0, 2**32 - 1), _TIMES)
def test_the_running_max_map_is_the_wootters_concurrence_of_each_pair(params, draw_seed, times):
    psi = _states(np.random.default_rng(draw_seed), params.dim, 1)[0]
    states = make_propagator("analytic", params).evolve(psi, times)
    best = max_concurrence_map(states[:, params.n_cavities:])
    n = params.n_cavities
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            oracle = max(concurrence_wootters_oracle(reduce_to_pair(state, i, j))
                         for state in states)
            assert best[i - 1, j - 1] == best[j - 1, i - 1]
            assert abs(best[i - 1, j - 1] - oracle) <= 1e-10
