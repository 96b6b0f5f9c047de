import numpy as np
import pytest

from jchsim.dynamics import AnalyticPropagator
from jchsim.entanglement import (
    atomic_amplitudes,
    binary_entropy,
    concurrence_map,
    concurrence_wootters_oracle,
    pair_concurrence,
    reduce_to_pair,
    running_max_map,
)
from jchsim.model import ModelParams, initial_atomic_excitation


def random_state(rng, n):
    state = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    return state / np.linalg.norm(state)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.25) - (2.0 - 0.75 * np.log2(3.0))) <= 1e-14


def test_binary_entropy_array_matches_scalar_formula():
    p = np.concatenate([[0.0, 1e-16, 1e-15, 0.5, 1.0 - 1e-15, 1.0],
                        np.random.default_rng(3).uniform(0.0, 1.0, 1000)])
    expected = [0.0 if q <= 1e-15 or q >= 1.0 - 1e-15
                else -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q) for q in p]
    h = binary_entropy(p)
    assert h.shape == p.shape
    assert np.array_equal(h, expected)
    assert isinstance(binary_entropy(0.3), float)


def test_entropy_of_initial_excitation():
    params = ModelParams(9, coupling=0.3)
    pi_a = np.sum(np.abs(atomic_amplitudes(initial_atomic_excitation(params, 4))) ** 2)
    assert pi_a == 1.0
    assert 1.0 - pi_a == 0.0
    assert binary_entropy(pi_a) == 0.0


def test_entropy_half_split():
    state = np.zeros(8, dtype=complex)
    state[0] = state[4] = 1.0 / np.sqrt(2.0)
    pi_a = np.sum(np.abs(atomic_amplitudes(state)) ** 2)
    assert abs(pi_a - 0.5) <= 1e-15
    assert abs(binary_entropy(pi_a) - 1.0) <= 1e-12


def test_entropy_invariances():
    rng = np.random.default_rng(2)
    state = random_state(rng, 12)

    def entropy(s):
        return binary_entropy(np.sum(np.abs(atomic_amplitudes(s)) ** 2))

    base = entropy(state)
    # global phase
    assert entropy(np.exp(1.3j) * state) == pytest.approx(base, abs=1e-14)
    # permutation of atomic amplitudes
    for _ in range(5):
        shuffled = state.copy()
        shuffled[12:] = rng.permutation(shuffled[12:])
        assert entropy(shuffled) == pytest.approx(base, abs=1e-14)


def test_reduce_to_pair_basic():
    params = ModelParams(5, coupling=0.1)
    rho = reduce_to_pair(initial_atomic_excitation(params, 2), 2, 4)
    assert np.abs(rho - np.diag([0.0, 1.0, 0.0, 0.0])).max() == 0.0


def test_reduce_to_pair_bell_like():
    state = np.zeros(6, dtype=complex)
    state[3] = state[4] = 1.0 / np.sqrt(2.0)
    rho = reduce_to_pair(state, 1, 2)
    assert np.abs(rho[1:3, 1:3] - 0.5).max() <= 1e-15
    assert abs(np.trace(rho) - 1.0) <= 1e-15
    assert rho[3, 3] == 0.0


def test_reduce_to_pair_validation():
    params = ModelParams(4, coupling=0.1)
    state = initial_atomic_excitation(params, 1)
    with pytest.raises(ValueError):
        reduce_to_pair(state, 2, 2)
    with pytest.raises(ValueError):
        reduce_to_pair(state, 0, 3)


@pytest.mark.parametrize("i, j", [(2.0, 3), (2, np.float64(3.0)), (1.5, 3)],
                         ids=["float", "numpy-float", "half"])
def test_reduce_to_pair_rejects_sites_that_are_not_integers(i, j):
    state = initial_atomic_excitation(ModelParams(4, coupling=0.1), 2)
    with pytest.raises(ValueError, match="site must be an integer, got"):
        reduce_to_pair(state, i, j)
    assert reduce_to_pair(state, np.int64(2), np.int32(3))[1, 1] == 1.0


def test_reduced_matrices_along_trajectory():
    params = ModelParams(10, coupling=0.9, atom_freq=0.2)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 5)
    rng = np.random.default_rng(4)
    for t in rng.uniform(0.0, 30.0, size=100):
        state = prop.evolve(state0, t)
        i, j = rng.choice(np.arange(1, 11), size=2, replace=False)
        rho = reduce_to_pair(state, int(i), int(j))
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_closed_form_examples():
    state = np.zeros(6, dtype=complex)
    state[3] = state[4] = 1.0 / np.sqrt(2.0)
    assert abs(concurrence_map(state)[0, 1] - 1.0) <= 1e-15
    assert concurrence_map(state)[0, 2] == 0.0


def test_weak_regime_peak_concurrences():
    from jchsim.spectral import mode_table
    from effective_reference import weak_coupling_amplitudes

    params = ModelParams(41, coupling=1e-3)
    modes = mode_table(params)
    ca = weak_coupling_amplitudes(21, np.pi / params.coupling, modes, 21)
    state = np.concatenate([np.zeros(41, dtype=complex), ca])
    assert abs(concurrence_map(state)[20, 32] - 76.0 / 441.0) <= 1e-10
    assert abs(concurrence_map(state)[30, 32] - 8.0 / 441.0) <= 1e-10


def test_wootters_trivial_cases():
    assert concurrence_wootters_oracle(np.diag([1.0, 0.0, 0.0, 0.0])) == 0.0
    bell = np.zeros((4, 4), dtype=complex)
    bell[1:3, 1:3] = 0.5
    assert abs(concurrence_wootters_oracle(bell) - 1.0) <= 1e-12


def test_wootters_validation():
    with pytest.raises(ValueError):
        concurrence_wootters_oracle(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        concurrence_wootters_oracle(np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        concurrence_wootters_oracle(np.eye(3))


def test_wootters_matches_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        state = random_state(rng, n)
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        i, j = int(i), int(j)
        closed = concurrence_map(state)[i - 1, j - 1]
        oracle = concurrence_wootters_oracle(reduce_to_pair(state, i, j))
        assert abs(closed - oracle) <= 1e-10


def test_wootters_x_states():
    # Yu & Eberly: C = 2 max(0, |r14| - sqrt(r22 r33), |r23| - sqrt(r11 r44))
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = rng.uniform(0.0, 1.0, 4)
        d /= d.sum()
        r14 = rng.uniform() * np.sqrt(d[0] * d[3]) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        r23 = rng.uniform() * np.sqrt(d[1] * d[2]) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        rho = np.diag(d).astype(complex)
        rho[0, 3], rho[3, 0] = r14, np.conj(r14)
        rho[1, 2], rho[2, 1] = r23, np.conj(r23)
        expected = 2.0 * max(0.0, abs(r14) - np.sqrt(d[1] * d[2]),
                             abs(r23) - np.sqrt(d[0] * d[3]))
        assert abs(concurrence_wootters_oracle(rho) - expected) <= 1e-12


def test_wootters_werner_states():
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1.0 / np.sqrt(2.0)
    proj = np.outer(bell, bell.conj())
    for f in np.linspace(0.0, 1.0, 41):
        rho = f * proj + (1.0 - f) / 3.0 * (np.eye(4) - proj)
        assert abs(concurrence_wootters_oracle(rho) - max(0.0, 2.0 * f - 1.0)) <= 1e-12


def test_wootters_pure_product_state_is_exactly_zero():
    psi = np.kron([0.6, 0.8j], [0.28, 0.96 * np.exp(0.3j)])
    assert concurrence_wootters_oracle(np.outer(psi, psi.conj())) == 0.0


def test_wootters_accepts_nearly_hermitian_input():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1:3, 1:3] = 0.5
    rho[1, 2] += 5e-9j
    assert abs(concurrence_wootters_oracle(rho) - 1.0) <= 1e-8


def test_concurrence_bounded_by_atomic_probability():
    rng = np.random.default_rng(9)
    for _ in range(50):
        state = random_state(rng, 8)
        pi_a = np.sum(np.abs(atomic_amplitudes(state)) ** 2)
        cmap = concurrence_map(state)
        assert cmap.max() <= pi_a + 1e-12


def test_concurrence_map_structure():
    params = ModelParams(6, coupling=0.4)
    assert np.abs(concurrence_map(initial_atomic_excitation(params, 3))).max() == pytest.approx(0.0)
    rng = np.random.default_rng(1)
    state = random_state(rng, 6)
    cmap = concurrence_map(state)
    assert np.array_equal(cmap, cmap.T)
    assert np.abs(np.diag(cmap)).max() == 0.0
    ca = atomic_amplitudes(state)
    assert cmap[1, 4] == pytest.approx(pair_concurrence(abs(ca[1]), abs(ca[4])), abs=1e-15)


def test_running_max_map():
    rng = np.random.default_rng(6)
    states = [random_state(rng, 5) for _ in range(4)]
    single = running_max_map(states[:1])
    assert np.array_equal(single, concurrence_map(states[0]))
    shorter = running_max_map(states[:2])
    longer = running_max_map(states)
    assert np.all(longer >= shorter)
    with pytest.raises(ValueError):
        running_max_map([])


def test_strong_regime_entropy_peak_times():
    # entropy maxima sit at odd multiples of pi/(4g)
    params = ModelParams(41, coupling=1e3)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 21)
    g = params.coupling
    times = np.linspace(0.0, 2 * np.pi / g, 513)
    states = prop.evolve(state0, times)
    pi_a = np.sum(np.abs(states[:, 41:]) ** 2, axis=1)
    entropy = np.array([binary_entropy(p) for p in pi_a])
    peaks = [
        idx
        for idx in range(1, len(times) - 1)
        if entropy[idx] > entropy[idx - 1] and entropy[idx] > entropy[idx + 1]
        and entropy[idx] > 0.9
    ]
    step = times[1] - times[0]
    for idx in peaks:
        m = round(times[idx] * 4 * g / np.pi)
        assert m % 2 == 1
        assert abs(times[idx] - m * np.pi / (4 * g)) <= 2 * step
