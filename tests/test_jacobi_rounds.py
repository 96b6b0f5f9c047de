"""The partner-permutation Jacobi rounds against the gather-based solver they replaced.

``jacobi_reference`` holds the earlier solver verbatim.  Each round now turns
the whole matrix in place, x <- c x + s x[partner], with cos 1 and sin 0 for
skipped pairs and the index that sits out, and must return the same bits.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import jacobi_reference as ref
import jchsim
from jchsim import dynamics, entanglement
from jchsim.dynamics import DenseOraclePropagator
from jchsim.entanglement import concurrence_wootters_oracle, reduce_to_pair
from jchsim.linalg import jacobi_eigh
from jchsim.model import ModelParams, build_hamiltonian


def assert_same_bits(a):
    w, v = jacobi_eigh(a)
    w_ref, v_ref = ref.jacobi_eigh(a)
    assert np.array_equal(w, w_ref) and w.tobytes() == w_ref.tobytes()
    assert np.array_equal(v, v_ref) and v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("n", [5, 8, 17, 32])
@pytest.mark.parametrize("g, omega_a", [(0.0, 0.0), (1.0, 0.3), (97.3, 0.0)],
                         ids=["g0", "detuned", "g97.3"])
def test_jch_hamiltonians_bit_identical(n, g, omega_a):
    assert_same_bits(build_hamiltonian(ModelParams(n, coupling=g, atom_freq=omega_a)))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 31])
def test_random_symmetric_bit_identical(n):
    x = np.random.default_rng(100 + n).standard_normal((n, n))
    assert_same_bits(x + x.T)


def test_layout_sensitive_case_bit_identical():
    # this matrix's refined eigenvalues move in the last place when
    # _rayleigh_refine is handed the eigenvectors as a transposed view
    # rather than as a C-ordered array
    x = np.random.default_rng(5).standard_normal((64, 64))
    assert_same_bits(x + x.T)


def test_wootters_real_forms_bit_identical(monkeypatch):
    seen = []

    def record(a):
        seen.append(np.array(a, dtype=float))
        return jacobi_eigh(a)

    monkeypatch.setattr(entanglement, "jacobi_eigh", record)
    rng = np.random.default_rng(11)
    for n in (2, 5, 12):
        state = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        state /= np.linalg.norm(state)
        concurrence_wootters_oracle(reduce_to_pair(state, 1, n))
    for p in (0.2, 0.9):
        werner = (1 - p) / 4 * np.eye(4, dtype=complex)
        werner[1:3, 1:3] += p * np.array([[0.5, -0.5], [-0.5, 0.5]])
        concurrence_wootters_oracle(werner)
    assert len(seen) == 10 and all(m.shape == (8, 8) for m in seen)
    for m in seen:
        assert_same_bits(m)


def test_partly_skipped_rounds_bit_identical():
    # two uncoupled blocks: a round rotates the pairs inside a block and skips
    # the pairs across, so some rounds keep only part of their pairs
    rng = np.random.default_rng(5)
    a = np.zeros((9, 9))
    for block in (slice(0, 4), slice(4, 9)):
        x = rng.standard_normal((9, 9))[block, block]
        a[block, block] = x + x.T
    partial = [0 < np.count_nonzero(a[p, q]) < len(p) for p, q in ref._round_robin(9)]
    assert any(partial)
    assert_same_bits(a)


def assert_same_bits_without_warnings(a):
    # a divide or invalid-value warning would mean a skipped pair reached theta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_bits(a)


@pytest.mark.parametrize("a", [
    *(pytest.param([[x]], id=f"1x1-{x:g}") for x in (-3.5, 0.0, 1e-160, 1e150)),
    *(pytest.param(np.zeros((n, n)), id=f"zeros-{n}") for n in range(1, 6)),
])
def test_one_by_one_and_zero_matrices_bit_identical(a):
    # the convergence test passes before the first round, and _rayleigh_refine returns the
    # diagonal: +0.0 for a zero matrix, which holds no nonzeros to sum.  1e-160 is near the
    # smallest 1 x 1 entry whose norm does not underflow (1e-300 is refused, as at every size)
    assert_same_bits_without_warnings(np.array(a, dtype=float))


def test_oracle_size_chain_bit_identical():
    # the whole 2N = 192 Hamiltonian at N = 96, which the dense oracle splits into smaller
    # solves (tested below); its first sweep skips the pairs with a_pq == 0
    h = build_hamiltonian(ModelParams(96, coupling=1.0))
    assert any(0 < np.count_nonzero(h[p, q]) < len(p) for p, q in ref._round_robin(192))
    assert_same_bits_without_warnings(h)


@pytest.mark.parametrize("n, g", [(96, 1.0), (47, 1.5), (12, 1.3e8)])
def test_dense_oracle_solves_bit_identical(monkeypatch, n, g):
    # the matrices the dense oracle solves: the photon chain's two mirror sectors; every
    # mode with its atom takes one rotation and no solve
    seen = []

    def record(a):
        seen.append(np.array(a, dtype=float))
        return jacobi_eigh(a)

    monkeypatch.setattr(dynamics, "jacobi_eigh", record)
    DenseOraclePropagator(ModelParams(n, coupling=g))
    assert [len(m) for m in seen] == [(n + 1) // 2, n // 2]
    for m in seen:
        assert_same_bits_without_warnings(m)


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
    w, y = ref.jacobi_eigh(pairs)
    seated = np.concatenate([v @ y[k], v @ y[~k]])
    u = DenseOraclePropagator(params).eigenvectors
    ties = np.split(np.arange(2 * n), np.flatnonzero(np.diff(w)) + 1)
    assert (len(ties) < 2 * n) == (model["coupling"] == 0.0)
    for tie in ties:
        assert sorted(u[:, tie].T.tolist()) == sorted(seated[:, tie].T.tolist())


def test_odd_size_with_an_index_sitting_out_bit_identical():
    x = np.random.default_rng(101).standard_normal((101, 101))
    assert_same_bits_without_warnings(x + x.T)


def test_real_form_with_negative_zeros_bit_identical():
    # a real density matrix's real form [[Re, -Im], [Im, Re]] holds -0.0 in its -Im block
    x = np.random.default_rng(8).standard_normal((4, 4))
    rho = (x @ x.T).astype(complex)
    rho /= np.trace(rho)
    form = np.block([[rho.real, -rho.imag], [rho.imag, rho.real]])
    assert np.any((form == 0.0) & np.signbit(form))
    assert_same_bits_without_warnings(form)


_FAULTS = """
import resource
from jchsim.linalg import jacobi_eigh
from jchsim.model import ModelParams, build_hamiltonian
h = build_hamiltonian(ModelParams(96, coupling=1.0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
jacobi_eigh(h)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_fresh_process_solve_faults_few_pages():
    # per-round temporaries of the 192 x 192 solve would be mapped and faulted
    # in afresh on every round of a new process (about 790k minor faults)
    pytest.importorskip("resource")
    src = str(Path(jchsim.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    faults = int(done.stdout)
    print(f"minor faults in a fresh-process 2N = 192 solve: {faults}")
    assert faults < 50_000
