"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Each criterion also carries a runtime
budget that is asserted.
"""

import time

import numpy as np

from effective_reference import build_polariton_hamiltonian, strong_coupling_amplitudes
from jchsim.dynamics import AnalyticPropagator, DenseOraclePropagator
from jchsim.entanglement import binary_entropy, concurrence_map
from jchsim.experiments import run_fig2, run_fig4
from jchsim.linalg import jacobi_eigh
from jchsim.model import ModelParams, build_hamiltonian, initial_atomic_excitation
from jchsim.spectral import mode_table
from wootters_reference import concurrence_wootters_oracle, reduce_to_pair


def report(tag, name, ok, detail):
    print(f"\n[criterion {tag}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def random_state(rng, dim):
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return state / np.linalg.norm(state)


def test_criterion_1_propagator_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 33))
        g = float(10.0 ** rng.uniform(-3, 3))
        omega_a = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.0, 100.0))
        params = ModelParams(n, coupling=g, atom_freq=omega_a)
        state0 = random_state(rng, 2 * n)
        a = AnalyticPropagator(params).evolve(state0, t)
        d = DenseOraclePropagator(params).evolve(state0, t)
        worst = max(worst, float(np.abs(a - d).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    assert report("1", "analytic vs dense-oracle propagators, 200 random cases", ok,
                  f"max elementwise diff {worst:.3e} <= 1e-10, {elapsed:.1f}s < 30s")


def test_criterion_2_spectrum_vs_jacobi():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 16, 41, 64):
        for g, omega_a in ((1.0, 0.0), (1e3, 0.0), (0.5, 0.3)):
            params = ModelParams(n, coupling=g, atom_freq=omega_a)
            mt = mode_table(params)
            analytic = np.sort(mt.eps.ravel())
            w, _ = jacobi_eigh(build_hamiltonian(params))
            worst = max(worst, float(np.abs(analytic - w).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report("2", "closed-form spectrum vs Jacobi eigenvalues, N in {3,16,41,64}", ok,
                  f"max |diff| {worst:.3e} <= 1e-10, {elapsed:.1f}s < 10s")


def test_criterion_3_weak_coupling_series():
    start = time.perf_counter()
    series = run_fig2()
    g = 1e-3
    times = series.times
    step = times[1] - times[0]

    def windowed_peak(values, center, half_width):
        sel = np.abs(times - center) < half_width
        idx = np.flatnonzero(sel)
        return times[idx[np.argmax(values[idx])]]

    # entropy humps sit at odd multiples of pi/(2g); their spacing is the period
    peak_times = [windowed_peak(series.entropy, (2 * m - 1) * np.pi / (2 * g),
                                0.25 * np.pi / g) for m in range(1, 5)]
    period_err = np.abs(np.diff(peak_times) - np.pi / g).max()

    max_s = series.entropy.max()
    max_c0, max_c1 = series.concurrence[:, 0].max(), series.concurrence[:, 1].max()
    c_peaks = [windowed_peak(series.concurrence[:, 0], m * np.pi / g, 0.5 * np.pi / g)
               for m in (1, 3)]
    c_peak_err = max(abs(c_peaks[0] - np.pi / g), abs(c_peaks[1] - 3 * np.pi / g))

    elapsed = time.perf_counter() - start
    ok = (
        period_err <= 2 * step
        and abs(max_s - 0.2762) <= 1e-3
        and abs(max_c0 - 0.1723) <= 5e-3
        and abs(max_c1 - 0.0181) <= 2e-3
        and c_peak_err <= 2 * step
        and elapsed < 60.0
    )
    assert report(
        "3", "weak-coupling entropy/concurrence series (N=41, g=1e-3 J)", ok,
        f"period err {period_err:.3g} <= {2 * step:.3g}, max S {max_s:.4f} = 0.2762+-1e-3, "
        f"max C_21_33 {max_c0:.4f} = 0.1723+-5e-3, max C_31_33 {max_c1:.4f} = 0.0181+-2e-3, "
        f"C peaks at pi/g & 3pi/g within {c_peak_err:.3g}, {elapsed:.1f}s < 60s",
    )


def test_criterion_4_weak_return_envelope():
    start = time.perf_counter()
    g = 1e-3
    params = ModelParams(41, coupling=g)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 21)
    times = np.linspace(0.0, 2 * np.pi / g, 2048)
    states = prop.evolve(state0, times)
    pi_a = np.sum(np.abs(states[:, 41:]) ** 2, axis=1)
    dev = np.abs(pi_a - (1.0 - np.sin(g * times) ** 2 / 21.0)).max()
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-3 and elapsed < 60.0
    assert report("4", "exact Pi_a vs 1 - (1/21) sin^2(gt) over two periods", ok,
                  f"max deviation {dev:.3e} <= 1e-3, {elapsed:.1f}s < 60s")


def _fig3_states():
    g = 1e3
    params = ModelParams(101, coupling=g)
    prop = AnalyticPropagator(params)
    state0 = initial_atomic_excitation(params, 51)
    times = [2000 * np.pi / g, 5000 * np.pi / g, 10000 * np.pi / g]
    return g, params, times, [prop.evolve(state0, t) for t in times]


def test_criterion_5a_atomic_return():
    start = time.perf_counter()
    g, params, times, states = _fig3_states()
    n, x0, hop, t = params.n_cavities, 51, params.hopping, times[0]
    pi_a = float(np.sum(np.abs(states[0][n:]) ** 2))
    # Only decoupled polaritons (every mode at Rabi frequency g) return exactly
    # to 1 at gt = 2000 pi.  Mode k really oscillates at sqrt(g^2 + delta_k^2/4),
    # delta_k = 2J cos k, so it misses the return by a phase delta_k^2 t / (8g):
    # 1 - Pi_a = (J^2 t / 8g)^2 sum_k w_k (delta_k/J)^4 to leading order, with
    # sine-mode weights w_k = 2/(N+1) sin^2(k x0) of the initial site.
    k = np.pi * np.arange(1, n + 1) / (n + 1)
    weights = 2.0 / (n + 1) * np.sin(k * x0) ** 2
    detunings = 2.0 * hop * np.cos(k)
    correction = (hop**2 * t / (8.0 * g)) ** 2 * float(np.sum(weights * (detunings / hop) ** 4))
    expected = 1.0 - correction
    elapsed = time.perf_counter() - start
    ok = abs(pi_a - expected) <= 1e-6 and elapsed < 120.0
    assert report("5a", "strong coupling: Pi_a at t = 2000 pi/g", ok,
                  f"Pi_a = {pi_a:.9f}, expected 1 - (J^2 t/8g)^2 <(delta/J)^4> = {expected:.9f}, "
                  f"|diff| = {abs(pi_a - expected):.3e} <= 1e-6, {elapsed:.1f}s < 120s")


def test_criterion_5b_effective_amplitudes():
    start = time.perf_counter()
    g, params, times, states = _fig3_states()
    modes = mode_table(params)
    worst = 0.0
    for t, state in zip(times, states):
        ca_eff = strong_coupling_amplitudes(51, t, modes)
        worst = max(worst, float(np.abs(state[101:] - ca_eff).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-3 and elapsed < 120.0
    assert report("5b", "strong coupling: exact vs decoupled-polariton amplitudes", ok,
                  f"max elementwise diff {worst:.3e} <= 5e-3, {elapsed:.1f}s < 120s")


def test_criterion_5c_front_position():
    start = time.perf_counter()
    g, _, times, states = _fig3_states()
    dist = np.abs(np.arange(1, 102) - 51)
    fronts = []
    for t, state in zip(times, states):
        p = np.abs(state[101:]) ** 2
        # front: outermost site still carrying at least half the peak
        # probability of the outgoing pulse (sites away from the center)
        peak = p[dist >= 1].max()
        fronts.append((float(dist[p >= 0.5 * peak].max()), t))
    worst = max(abs(front / t - 1.0) for front, t in fronts)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.2 and elapsed < 120.0
    assert report("5c", "strong coupling: ballistic front within 20% of x0 +- tJ", ok,
                  f"max relative front offset {worst:.3f} <= 0.2, {elapsed:.1f}s < 120s")


def test_criterion_6_running_max_maps():
    start = time.perf_counter()
    maps = {g: run_fig4(g) for g in (0.1, 1.5, 10.0)}

    structure_ok = all(
        np.array_equal(m, m.T) and np.abs(np.diag(m)).max() == 0.0
        for m in maps.values()
    )

    # trapping: every row's maximum sits in the center column
    trap = maps[0.1]
    cols = np.delete(np.arange(201), 100)
    trapping_ok = bool(np.all(np.argmax(trap[:, cols], axis=0) == 100))

    ballistic = maps[10.0]
    i, j = np.indices(ballistic.shape)
    global_mean = ballistic.mean()
    near_ratio = ballistic[np.abs(i - j) == 1].mean() / global_mean
    anti_ratio = ballistic[(i + j == 200) & (i != j)].mean() / global_mean
    ridges_ok = near_ratio >= 3.0 and anti_ratio >= 3.0

    elapsed = time.perf_counter() - start
    ok = structure_ok and trapping_ok and ridges_ok and elapsed < 600.0
    assert report(
        "6", "running-max concurrence maps (N=201, g/J in {0.1, 1.5, 10})", ok,
        f"symmetry/zero-diagonal {structure_ok}, trapping row {trapping_ok}, "
        f"ridge/global mean ratios {near_ratio:.2f} & {anti_ratio:.2f} >= 3, "
        f"{elapsed:.1f}s < 600s",
    )


def test_criterion_7_concurrence_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        state = random_state(rng, 2 * n)
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        i, j = int(i), int(j)
        closed = concurrence_map(state)[i - 1, j - 1]
        oracle = concurrence_wootters_oracle(reduce_to_pair(state, i, j))
        worst = max(worst, abs(closed - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report("7", "concurrence map vs Wootters oracle, 1000 states", ok,
                  f"max |diff| {worst:.3e} <= 1e-10, {elapsed:.1f}s < 5s")


def test_criterion_8_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    params = ModelParams(17, coupling=0.9, atom_freq=0.25)
    h = build_hamiltonian(params)
    analytic = AnalyticPropagator(params)
    dense = DenseOraclePropagator(params)
    state0 = initial_atomic_excitation(params, 9)
    e0 = np.vdot(state0, h @ state0).real

    unitarity = energy = mirror = entropy_link = bound = 0.0
    for t in rng.uniform(0.0, 60.0, size=25):
        for state in (analytic.evolve(state0, t), dense.evolve(state0, t)):
            unitarity = max(unitarity, abs(np.linalg.norm(state) - 1.0))
        state = analytic.evolve(state0, t)
        energy = max(energy, abs(np.vdot(state, h @ state).real - e0) / max(abs(e0), 1.0))
        ca = np.abs(state[17:])
        mirror = max(mirror, float(np.abs(ca[8 - np.arange(1, 9)] - ca[8 + np.arange(1, 9)]).max()))
        pi_a = float(np.sum(ca**2))
        bound = max(bound, float(concurrence_map(state).max() - pi_a))

    series = run_fig2()
    entropy_link = float(
        np.abs(series.entropy - np.array([binary_entropy(p) for p in series.pi_a])).max()
    )

    w_site, _ = jacobi_eigh(h)
    w_pol, _ = jacobi_eigh(build_polariton_hamiltonian(params, drop_cross_terms=False))
    basis_change = float(np.abs(w_site - w_pol).max())

    elapsed = time.perf_counter() - start
    ok = (
        unitarity <= 1e-10
        and energy <= 1e-9
        and mirror <= 1e-10
        and entropy_link <= 1e-12
        and bound <= 1e-12
        and basis_change <= 1e-12
        and elapsed < 60.0
    )
    assert report(
        "8", "invariant suite", ok,
        f"unitarity {unitarity:.1e} <= 1e-10, energy {energy:.1e} <= 1e-9, "
        f"mirror {mirror:.1e} <= 1e-10, S=h(Pi_a) {entropy_link:.1e} <= 1e-12, "
        f"C<=Pi_a margin {bound:.1e} <= 1e-12, polariton-basis spectrum {basis_change:.1e} "
        f"<= 1e-12, {elapsed:.1f}s < 60s",
    )
