"""The pairwise running-maximum map against the row loop it replaced.

``map_reference`` holds the earlier reduction verbatim: one N x N product and
maximum per time row.  ``max_concurrence_map`` now reduces each pair of sites
once over all rows and mirrors the upper triangle; C_ij = (2|c_i|)|c_j| and
C_ji have the same bits because doubling is exact, so the two must agree bit
for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import map_reference as ref
from jchsim.dynamics import make_propagator
from jchsim.entanglement import max_concurrence_map
from jchsim.experiments import fig4_grid, time_chunks
from jchsim.model import ModelParams, initial_atomic_excitation

# parts of an amplitude: ties, zeros of both signs, subnormals and the edges of [-1, 1]
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0]),
    st.floats(-1.0, 1.0, allow_subnormal=True),
)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(_bits(a), _bits(b))


@st.composite
def _amplitudes(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(2, 9)))
    re = draw(arrays(float, shape, elements=_PARTS))
    im = draw(st.one_of(st.just(np.zeros(shape)), arrays(float, shape, elements=_PARTS)))
    return re + 1j * im


@seed(20201014)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_amplitudes())
@example(np.zeros((1, 2), dtype=complex))
@example(np.full((3, 4), 5e-324 + 0j))
@example(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], dtype=complex))
def test_map_equals_the_row_loop_bit_for_bit(ca):
    best = max_concurrence_map(ca)
    _assert_same_bits(best, ref.max_concurrence_map(ca))
    _assert_same_bits(best, best.T)
    _assert_same_bits(np.diag(best), np.zeros(len(best)))


@pytest.mark.parametrize("g", [1.07, 97.3])
def test_fig4_chunks_equal_the_row_loop(g):
    params = ModelParams(n_cavities=201, hopping=1.0, coupling=g)
    times = fig4_grid(g)
    prop = make_propagator("analytic", params)
    state0 = initial_atomic_excitation(params, 101)
    for rows in time_chunks(len(times)):
        ca = prop.evolve(state0, times[rows], atoms_only=True)
        _assert_same_bits(max_concurrence_map(ca), ref.max_concurrence_map(ca))
