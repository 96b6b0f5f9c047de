import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from jchsim import dynamics, experiments
from jchsim.dynamics import AnalyticPropagator, TimeGrid, make_propagator
from jchsim.entanglement import binary_entropy, concurrence_map, running_max_map
from jchsim.experiments import (
    EnergyTimeError,
    ExperimentSpec,
    ObservableSeries,
    center_site,
    check_weak_preset,
    compute_series,
    fig2_spec,
    fig4_grid,
    run_fig3,
    run_fig4,
    run_sweep,
    time_chunks,
)
from jchsim.model import ModelParams, initial_atomic_excitation


def small_spec(name="case", g=0.5, method="analytic", pairs=((2, 5),)):
    return ExperimentSpec(
        name=name,
        params=ModelParams(9, coupling=g),
        x0=5,
        grid=TimeGrid(0.0, 20.0, 64),
        method=method,
        pairs=pairs,
    )


def test_center_site():
    assert center_site(41) == 21
    assert center_site(101) == 51
    assert center_site(201) == 101


def test_check_weak_preset():
    check_weak_preset(41)
    with pytest.raises(ValueError):
        check_weak_preset(40)
    with pytest.raises(ValueError):
        check_weak_preset(43)  # center mode 22 is even: frozen release


def test_spec_validates_x0():
    with pytest.raises(ValueError):
        ExperimentSpec(name="bad", params=ModelParams(5, coupling=0.1), x0=6,
                       grid=TimeGrid(0.0, 1.0, 2))


@pytest.mark.parametrize("pair", [(0, 5), (3, 3), (2, 10)])
def test_spec_validates_pairs(pair):
    with pytest.raises(ValueError, match="pair"):
        small_spec(pairs=(pair,))


@pytest.mark.parametrize("field, value", [
    ("x0", 5.0), ("x0", np.float64(5.0)), ("pairs", ((2.0, 5.0),)), ("pairs", ((2, 5.5),)),
], ids=["x0", "x0-numpy", "pair", "pair-half"])
def test_spec_sites_must_be_integers(field, value):
    # x0 = 5.0 once failed in compute_series, and pair sites 2.0, 5.0 reached a CSV header
    # as C_2.0_5.0
    fields = dict(params=ModelParams(9, coupling=0.5), x0=5, grid=TimeGrid(0.0, 20.0, 64))
    with pytest.raises(ValueError, match="must be an integer, got"):
        ExperimentSpec(**{**fields, field: value})
    spec = ExperimentSpec(**{**fields, "x0": np.int64(5)}, pairs=((np.int32(2), np.int64(5)),))
    assert compute_series(spec).pairs == [(2, 5)]


def test_series_entropy_is_binary_entropy_of_pi_a():
    series = compute_series(small_spec())
    expected = np.array([binary_entropy(p) for p in series.pi_a])
    assert np.abs(series.entropy - expected).max() <= 1e-12
    assert np.abs(series.pi_a + series.pi_f - 1.0).max() <= 1e-15


def test_series_deterministic():
    a = compute_series(small_spec())
    b = compute_series(small_spec())
    assert np.array_equal(a.entropy, b.entropy)
    assert np.array_equal(a.concurrence, b.concurrence)


def test_fig2_preset_shape():
    spec = fig2_spec()
    assert spec.params.n_cavities == 41
    assert spec.x0 == 21
    assert spec.params.coupling == 1e-3
    assert spec.grid.n_samples >= 2048
    assert spec.pairs == ((21, 33), (31, 33))
    assert abs(spec.grid.t_end - 4 * np.pi / 1e-3) <= 1e-9


def test_fig3_snapshots():
    snaps = run_fig3()
    assert len(snaps) == 3
    radii = []
    for snap in snaps:
        assert not snap.off_resonant
        values = snap.values
        assert np.array_equal(values, values.T)
        assert np.abs(np.diag(values)).max() == 0.0
        support = np.argwhere(values > 1e-4)
        radii.append(np.abs(support - 50).max())
    # outward-moving support at the three successive snapshots
    assert radii[0] < radii[1] < radii[2]


def test_fig3_off_resonant_flag():
    snaps = run_fig3([2000.5 * np.pi / 1e3])
    assert snaps[0].off_resonant


@pytest.mark.parametrize("workers", [1, 2])
def test_fig3_maps_match_the_scalar_full_state_path(monkeypatch, workers):
    # each snapshot is evolved as a one-row time array, which rounds as a scalar t does
    monkeypatch.setattr(experiments, "worker_count", lambda: workers)
    params = ModelParams(n_cavities=101, hopping=1.0, coupling=1e3)
    state0 = initial_atomic_excitation(params, 51)
    prop = AnalyticPropagator(params)
    times = [2000.0 * np.pi / 1e3, 5000.0 * np.pi / 1e3, 10000.0 * np.pi / 1e3]
    snaps = run_fig3() + run_fig3([2000.5 * np.pi / 1e3])
    assert [snap.off_resonant for snap in snaps] == [False, False, False, True]
    for snap, t in zip(snaps, times + [2000.5 * np.pi / 1e3]):
        assert snap.time == t
        with experiments.one_blas_thread():  # as the chunk pool runs
            reference = concurrence_map(prop.evolve(state0, t))
        assert np.array_equal(snap.values, reference)


def test_fig4_grid_snapped():
    g = 10.0
    times = fig4_grid(g)
    cycles = times * g / np.pi
    assert np.abs(cycles - np.round(cycles)).max() <= 1e-9
    assert times[0] == 0.0
    assert times[-1] <= 90.0 + np.pi / g


def test_fig4_map_structure():
    cmap = run_fig4(10.0)
    assert cmap.shape == (201, 201)
    assert np.array_equal(cmap, cmap.T)
    assert np.abs(np.diag(cmap)).max() == 0.0
    # mirror symmetry about the center site
    assert np.abs(cmap - cmap[::-1, ::-1]).max() <= 1e-10
    assert 0.0 <= cmap.min() and cmap.max() <= 1.0


def test_run_sweep_empty():
    assert run_sweep([]) == []


def test_run_sweep_duplicate_specs_identical():
    results = run_sweep([small_spec(), small_spec()])
    assert all(isinstance(r, ObservableSeries) for r in results)
    assert np.array_equal(results[0].entropy, results[1].entropy)
    assert np.array_equal(results[0].concurrence, results[1].concurrence)


def test_run_sweep_captures_failures():
    results = run_sweep([small_spec(), small_spec(method="magic")])
    assert isinstance(results[0], ObservableSeries)
    assert not isinstance(results[1], ObservableSeries)
    assert isinstance(results[1], ValueError)


def _mixed_specs():
    # three couplings and three methods; 300 samples is not a multiple of 256
    return [ExperimentSpec(name=f"g{g:g}", params=ModelParams(21, coupling=g, atom_freq=0.1),
                           x0=11, grid=TimeGrid(0.0, 30.0, 300), method=method,
                           pairs=((3, 17), (11, 12)))
            for g, method in [(0.01, "analytic"), (0.7, "dense"), (30.0, "strong"),
                              (0.7, "analytic")]]


def assert_same_series(a, b):
    for field in ("times", "entropy", "pi_a", "concurrence"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert a.pairs == b.pairs


def test_a_spec_runs_without_a_name():
    spec = ExperimentSpec(params=ModelParams(9, coupling=0.5), x0=5,
                          grid=TimeGrid(0.0, 20.0, 64), pairs=((2, 5),))
    assert spec.name == ""
    assert_same_series(compute_series(spec), compute_series(small_spec()))


def test_run_one_returns_the_series_or_the_exception_it_raised():
    assert_same_series(experiments.run_one(small_spec()), compute_series(small_spec()))
    error = experiments.run_one(small_spec(method="magic"))
    assert isinstance(error, ValueError)
    assert str(error) == "unknown propagation method 'magic'"


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_matches_each_spec_alone(monkeypatch, workers):
    specs = _mixed_specs()
    monkeypatch.setattr(experiments, "worker_count", lambda: 1)
    alone = [compute_series(spec) for spec in specs]
    monkeypatch.setattr(experiments, "worker_count", lambda: workers)
    for series, reference in zip(run_sweep(specs), alone):
        assert_same_series(series, reference)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_chunk_fails_only_its_coupling(monkeypatch, workers):
    specs = _mixed_specs()
    alone = [compute_series(spec) for spec in specs]
    evolve = dynamics.AnalyticPropagator.evolve

    def fail_late_at_g30(self, state, t, atoms_only=False):
        if self.params.coupling == 30.0 and t[0] > 15.0:  # the second of two chunks
            raise FloatingPointError("forced chunk failure")
        return evolve(self, state, t, atoms_only)

    monkeypatch.setattr(dynamics.AnalyticPropagator, "evolve", fail_late_at_g30)
    monkeypatch.setattr(experiments, "worker_count", lambda: workers)
    results = run_sweep(specs)
    assert isinstance(results[2], FloatingPointError)
    assert str(results[2]) == "forced chunk failure"
    for k in (0, 1, 3):
        assert_same_series(results[k], alone[k])
    with pytest.raises(FloatingPointError, match="forced chunk failure"):
        compute_series(specs[2])


def test_the_blas_pin_finds_the_thread_symbols_of_numpys_scipy_openblas():
    # a scipy-openblas wheel whose symbols the lookup misses would skip every thread test
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"numpy is built against {blas}, which the BLAS pin leaves as is")
    assert experiments._openblas_threads() is not None


def test_worker_count_falls_back_to_the_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, expected in [(os.cpu_count(), os.cpu_count() or 1), (None, 1)]:
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert experiments.worker_count() == expected


class _NoOpenBLAS:
    """A loaded extension that exports no scipy-openblas symbol."""


def test_another_blas_has_no_thread_count_and_is_left_as_is(monkeypatch):
    threads = experiments._openblas_threads()
    get, put = threads or (lambda: None, lambda count: None)
    old = get()
    monkeypatch.setattr(experiments.ctypes, "CDLL", lambda path: _NoOpenBLAS())
    experiments._openblas_threads.cache_clear()
    try:
        assert experiments._openblas_threads() is None
        put(2)  # numpy's own OpenBLAS, where there is one, stays at 2 where a pin would set 1
        with experiments.one_blas_thread():
            inside = get()
        assert inside == (2 if threads else None)
    finally:
        put(old)
        monkeypatch.undo()
        experiments._openblas_threads.cache_clear()


@pytest.mark.parametrize("workers", [1, 2])
def test_evolve_runs_runs_blas_on_one_thread_and_restores_it(monkeypatch, workers):
    threads = experiments._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    get, put = threads
    monkeypatch.setattr(experiments, "worker_count", lambda: workers)
    make, built = experiments.make_propagator, []
    monkeypatch.setattr(experiments, "make_propagator",
                        lambda *args: built.append(get()) or make(*args))
    params = ModelParams(9, coupling=0.5)
    old = get()
    put(2)
    try:
        runs = [(method, params, 5, np.linspace(0.0, 20.0, 600), lambda amps: get(),
                 time_chunks(600)) for method in ("analytic", "dense")]
        assert experiments.evolve_runs(runs) == [[1, 1, 1], [1, 1, 1]]
        assert built == [1, 1]
        assert get() == 2
    finally:
        put(old)


class _Stop(BaseException):
    """Leaves evolve_runs, as a KeyboardInterrupt in the waiting caller would."""


@pytest.mark.parametrize("interrupt", [False, True])
def test_evolve_runs_restores_blas_threads_after_a_failed_chunk(monkeypatch, interrupt):
    threads = experiments._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    get, put = threads
    map_chunks = experiments.map_chunks

    def interrupted(fn, chunks):
        results = map_chunks(fn, chunks)
        if interrupt:
            raise _Stop
        return results

    def fail_second(amps):
        if len(amps) == 3:  # the second of the chunks below
            raise ValueError("chunk failed")
        return get()

    monkeypatch.setattr(experiments, "map_chunks", interrupted)
    run = ("analytic", ModelParams(9, coupling=0.5), 5, np.linspace(0.0, 20.0, 5),
           fail_second, [slice(0, 2), slice(2, 5)])
    old = get()
    put(2)
    try:
        if interrupt:
            with pytest.raises(_Stop):
                experiments.evolve_runs([run])
        else:
            (result,) = experiments.evolve_runs([run])
            assert isinstance(result, ValueError) and str(result) == "chunk failed"
        assert get() == 2
    finally:
        put(old)


def test_sweep_entropy_trend_across_coupling():
    # max_t S grows from the weak-coupling plateau toward ~1 and saturates
    g_values = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0]
    specs = [
        ExperimentSpec(
            name=f"g{g:g}",
            params=ModelParams(41, coupling=g),
            x0=21,
            grid=TimeGrid(0.0, 4 * np.pi / g, 512),
        )
        for g in g_values
    ]
    max_s = [series.entropy.max() for series in run_sweep(specs)]
    weak_plateau = binary_entropy(1.0 / 21.0)
    assert abs(max_s[0] - weak_plateau) <= 1e-2
    assert max_s[-1] >= 0.999
    assert max_s[-2] >= 0.999
    assert max(max_s[3:]) <= 1.0 + 1e-12


def test_time_chunks_cover_the_grid_with_no_short_chunk():
    for n_rows in range(1, 1100):
        chunks = time_chunks(n_rows)
        assert chunks[0].start == 0 and chunks[-1].stop == n_rows
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        sizes = [c.stop - c.start for c in chunks]
        assert len(chunks) == math.ceil(n_rows / experiments.CHUNK_ROWS)
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= experiments.CHUNK_ROWS
        assert min(sizes) >= 2 or n_rows == 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_chunks_keeps_order_and_uses_the_pool(monkeypatch, workers):
    monkeypatch.setattr(experiments, "worker_count", lambda: workers)
    chunks = time_chunks(6 * experiments.CHUNK_ROWS)  # 6 chunks: each thread holds one a round
    barrier = threading.Barrier(workers, timeout=10)

    def meet(rows):  # passes only once ``workers`` threads each hold a chunk
        barrier.wait()
        return rows, threading.get_ident()

    results = experiments.map_chunks(meet, chunks)
    assert [rows for rows, _ in results] == chunks
    idents = {ident for _, ident in results}
    # the caller only waits, so no chunk's temporaries come from the main thread's heap
    assert len(idents) == workers and threading.get_ident() not in idents


@pytest.mark.parametrize("workers", [1, 3])
def test_map_chunks_returns_a_worker_exception(monkeypatch, workers):
    monkeypatch.setattr(experiments, "worker_count", lambda: workers)

    chunks = time_chunks(3000)

    def fail_one(rows):
        if rows == chunks[5]:
            raise ValueError("chunk 5 failed")
        return rows

    results = experiments.map_chunks(fail_one, chunks)
    assert isinstance(results[5], ValueError) and str(results[5]) == "chunk 5 failed"
    assert results[:5] + results[6:] == chunks[:5] + chunks[6:]


def _stop(code):
    raise _Stop(code)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("halt", [sys.exit, _stop], ids=["sys.exit", "custom"])
def test_map_chunks_raises_a_worker_base_exception_once_all_threads_join(monkeypatch, workers,
                                                                         halt):
    # such a chunk left its slot None, and the map returned as if nothing happened
    monkeypatch.setattr(experiments, "worker_count", lambda: workers)
    chunks = time_chunks(3000)
    done, threads = [], threading.enumerate()

    def halt_at_five(rows):
        if rows == chunks[5]:
            halt(1)
        if rows == chunks[2]:
            raise ValueError("an Exception stays its slot's value")
        done.append(rows)
        return rows

    with pytest.raises((SystemExit, _Stop)) as info:
        experiments.map_chunks(halt_at_five, chunks)
    assert type(info.value) is (SystemExit if halt is sys.exit else _Stop)
    assert info.value.args == (1,)
    assert threading.enumerate() == threads
    # the thread that caught it claims no more chunks; the other threads run to the end
    expected = chunks[:2] + chunks[3:5] + (chunks[6:] if workers > 1 else [])
    assert sorted(done, key=lambda rows: rows.start) == expected


@pytest.mark.parametrize("g_over_j", [1e-3, 0.5, 1.07, 10.0, 97.3, 1e3, 1e150])
def test_fig4_grid_equals_unique_of_the_snapped_grid(g_over_j):
    period = math.pi / g_over_j
    snapped = np.round(np.arange(0.0, 90.0 + 1e-12, 0.05) / period) * period
    grid, unique = fig4_grid(g_over_j), np.unique(snapped)
    assert grid.dtype == unique.dtype and grid.tobytes() == unique.tobytes()


@pytest.mark.parametrize("g_over_j", [0.0, -1.0, 1e-308, 5e-324, math.inf, math.nan])
def test_fig4_grid_refuses_a_coupling_it_cannot_snap_to(g_over_j):
    # 0 divided by zero; 1e-308, 5e-324 and inf warned and gave NaN grids, NaN a NaN grid
    # in silence, and -1 a grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pi/g"):
            fig4_grid(g_over_j)


def test_run_fig4_refuses_such_a_coupling_and_snaps_a_tiny_finite_one(monkeypatch):
    monkeypatch.setattr(experiments, "make_propagator", _no_setup)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g_over_j in (0.0, 1e-308):
            with pytest.raises(ValueError, match="pi/g"):
                run_fig4(g_over_j)
        # pi / 2e-308 is finite, so every time snaps to 0
        assert fig4_grid(2e-308).tolist() == [0.0]


def _no_setup(method, params):
    raise LookupError("set-up reached")


def test_library_calls_beyond_the_bound_raise(monkeypatch):
    monkeypatch.setattr(experiments, "make_propagator", _no_setup)
    spec = small_spec(g=1.0)  # max|E| * t = 3 * 20
    over = ExperimentSpec(name="over", params=ModelParams(9, coupling=1e5), x0=5,
                          grid=TimeGrid(0.0, 20.0, 64))
    with pytest.raises(EnergyTimeError) as info:
        compute_series(over)
    assert info.value.args == (100002.0, 20.0)
    assert str(info.value) == ("max|E| * t must be at most 1e+06, got 100002 * 20: "
                               "the phases E t lose accuracy beyond it")
    # a sweep raises for all its couplings, before any of them is set up
    with pytest.raises(EnergyTimeError):
        run_sweep([spec, over])
    assert isinstance(run_sweep([spec])[0], LookupError)
    with pytest.raises(EnergyTimeError):
        run_fig4(1e5)


@pytest.mark.parametrize("order", [1, -1])
def test_nan_times_fail_the_bound_before_any_setup(monkeypatch, order):
    # nan > 1e6 is False: a test written that way would pass NaN times; a NaN product
    # fails the bound wherever its run stands, behind a finite one too
    monkeypatch.setattr(experiments, "make_propagator", _no_setup)
    params = ModelParams(9, coupling=1.0)
    runs = [("analytic", params, 5, times, len, [slice(None)])
            for times in (np.linspace(0.0, 20.0, 4), np.array([0.0, np.nan]))]
    with pytest.raises(EnergyTimeError) as info:
        experiments.evolve_runs(runs[::order])
    assert np.isnan(info.value.args[1])


def test_the_first_run_over_the_bound_is_refused(monkeypatch):
    monkeypatch.setattr(experiments, "make_propagator", _no_setup)
    runs = [("analytic", ModelParams(9, coupling=g), 5, np.linspace(0.0, 20.0, 4), len,
             [slice(None)]) for g in (1.0, 1e5, 1e7)]
    with pytest.raises(EnergyTimeError) as info:
        experiments.evolve_runs(runs)
    assert info.value.args == (100002.0, 20.0)


@pytest.mark.parametrize("g_over_j, refused", [(11109.0, False), (11110.0, True)])
def test_fig4_bound_boundary(monkeypatch, g_over_j, refused):
    monkeypatch.setattr(experiments, "make_propagator", _no_setup)
    with pytest.raises(EnergyTimeError if refused else LookupError):
        run_fig4(g_over_j)


def test_fig4_bound_is_measured_at_the_last_time_of_its_grid(monkeypatch):
    # at g/J = 1.07 the snapped grid ends at 91.018, past tJ = 90
    last = fig4_grid(1.07)[-1]
    assert 91.01 < last < 91.02
    monkeypatch.setattr(experiments, "make_propagator", _no_setup)
    monkeypatch.setattr(experiments, "MAX_ENERGY_TIME", (2.0 + 1.07) * 91.0)  # max|E| = 2J + g
    with pytest.raises(EnergyTimeError) as info:
        run_fig4(1.07)
    assert info.value.args == (2.0 + 1.07, last)


def _unchunked_series(spec):
    """One evolve over the whole grid, reduced as the series was before chunking."""
    prop = make_propagator(spec.method, spec.params)
    states = prop.evolve(initial_atomic_excitation(spec.params, spec.x0), spec.grid.times)
    mags = np.abs(states[:, spec.params.n_cavities:])
    pi_a = np.sum(mags**2, axis=1)
    conc = np.empty((len(pi_a), len(spec.pairs)))
    for col, (i, j) in enumerate(spec.pairs):
        conc[:, col] = 2.0 * mags[:, i - 1] * mags[:, j - 1]
    return pi_a, binary_entropy(pi_a), conc


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method", ["analytic", "dense"])
@pytest.mark.parametrize("samples", [2, 7, 8, 9, 255, 256, 257, 263, 264, 2000])
def test_series_matches_unchunked_reference(monkeypatch, workers, method, samples):
    monkeypatch.setattr(experiments, "worker_count", lambda: workers)
    spec = ExperimentSpec(name="chunks", params=ModelParams(21, coupling=0.7, atom_freq=0.1),
                          x0=11, grid=TimeGrid(0.0, 30.0, samples), method=method,
                          pairs=((3, 17), (11, 12), (20, 2)))
    series = compute_series(spec)
    pi_a, entropy, conc = _unchunked_series(spec)
    assert np.array_equal(series.pi_a, pi_a)
    assert np.array_equal(series.entropy, entropy)
    assert np.array_equal(series.concurrence, conc)
    assert np.array_equal(series.times, spec.grid.times)


@pytest.mark.parametrize("workers", [1, 2])
def test_fig4_matches_running_max_of_full_evolve(monkeypatch, workers):
    monkeypatch.setattr(experiments, "worker_count", lambda: workers)
    params = ModelParams(n_cavities=201, hopping=1.0, coupling=10.0)
    with experiments.one_blas_thread():  # as the chunk pool runs
        states = make_propagator("analytic", params).evolve(
            initial_atomic_excitation(params, 101), fig4_grid(10.0))
    assert len(states) > experiments.CHUNK_ROWS
    assert np.array_equal(run_fig4(10.0), running_max_map(states))


def test_series_rows_survive_more_workers_than_cores(monkeypatch):
    # chunks write disjoint rows of shared arrays: a lost or misplaced row shows here
    spec = ExperimentSpec(name="stress", params=ModelParams(15, coupling=0.4), x0=8,
                          grid=TimeGrid(0.0, 40.0, 4001), pairs=((2, 9), (8, 14)))
    monkeypatch.setattr(experiments, "worker_count", lambda: 1)
    serial = compute_series(spec)
    monkeypatch.setattr(experiments, "worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = compute_series(spec)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(pooled.pi_a, serial.pi_a)
    assert np.array_equal(pooled.entropy, serial.entropy)
    assert np.array_equal(pooled.concurrence, serial.concurrence)


def test_series_memory_stays_chunk_sized(monkeypatch):
    # the full (T, 2N) state array alone would be 64 MB here
    monkeypatch.setattr(experiments, "worker_count", lambda: 2)
    spec = ExperimentSpec(name="big", params=ModelParams(1001, coupling=1.0), x0=501,
                          grid=TimeGrid(0.0, 50.0, 2000), pairs=((474, 518), (528, 484)))
    tracemalloc.start()
    try:
        compute_series(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
