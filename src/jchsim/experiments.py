"""Preset pipelines for the three reference experiments and a sweep engine.

The presets pin an odd array size with the initial excitation at the center
site x0 = (N+1)/2, so the band-center mode is resonant with the atoms; for
weak-coupling runs (N+1)/2 must itself be odd, otherwise the center mode has
no weight at x0 and nothing propagates.
"""

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import entanglement

# evolve_series and mode_table stay importable here: the benchmark tracer looks them up
from .dynamics import TimeGrid, evolve_series, make_propagator  # noqa: F401
from .model import ModelParams, initial_atomic_excitation
from .spectral import mode_table  # noqa: F401

# the most time rows in one chunk of the chunk pipeline
CHUNK_ROWS = 256
FIG3_COUPLING = 1e3


@dataclass(frozen=True)
class ExperimentSpec:
    """One self-contained run: parameters, initial site, grid and outputs."""

    name: str
    params: ModelParams
    x0: int
    grid: TimeGrid
    method: str = "analytic"
    pairs: tuple = ()

    def __post_init__(self):
        n = self.params.n_cavities
        if not 1 <= self.x0 <= n:
            raise ValueError(f"x0 {self.x0} out of range [1, {n}]")
        for i, j in self.pairs:
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"pair ({i}, {j}) is not two distinct sites in [1, {n}]")


@dataclass
class ObservableSeries:
    """Time series of entropy, atomic probability and selected concurrences."""

    times: np.ndarray
    entropy: np.ndarray
    pi_a: np.ndarray
    pairs: list
    concurrence: np.ndarray  # shape (n_times, n_pairs)

    @property
    def pi_f(self) -> np.ndarray:
        return 1.0 - self.pi_a


@dataclass
class SnapshotMap:
    """Concurrence map at one instant, with an off-resonance warning flag."""

    time: float
    values: np.ndarray
    off_resonant: bool = False


def center_site(n: int) -> int:
    return (n + 1) // 2


def check_weak_preset(n: int):
    """Reject weak-coupling center-release configurations that cannot propagate."""
    if n % 2 == 0:
        raise ValueError("weak-coupling presets need an odd array size")
    if center_site(n) % 2 == 0:
        raise ValueError(
            f"center mode index {center_site(n)} is even: it has no weight at the "
            "center site and a weak-coupling release from there stays frozen"
        )


def time_chunks(n_rows: int) -> list[slice]:
    """Consecutive slices over range(n_rows): ceil(n_rows / ``CHUNK_ROWS``) of them, in order.

    Their sizes differ by at most one row, so the workers finish together; a chunk
    is one row long only when n_rows is 1.
    """
    count = -(-n_rows // CHUNK_ROWS)
    stops = [n_rows * (k + 1) // count for k in range(count)]
    return [slice(a, b) for a, b in zip([0] + stops, stops)]


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None for another BLAS."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    # dlsym on the extension also searches the libraries it was linked against
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    try:
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its thread count.

    A threaded BLAS splits large products and dot products among its threads, which
    changes how they round; on one thread the bytes do not depend on the CPUs, and
    the pool's workers do not contend with BLAS threads.  Another BLAS is left as is.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def map_chunks(fn, chunks) -> list:
    """[fn(rows) for rows in chunks], on up to ``worker_count()`` threads, BLAS on one thread.

    numpy releases the GIL inside BLAS and its ufunc loops, so the chunks
    overlap.  Each call must touch only its own rows; the results come back
    in chunk order, so nothing depends on the number of workers, and the first
    failed chunk's exception is raised.  One chunk or one CPU runs in the caller.
    """
    workers = min(worker_count(), len(chunks))
    with one_blas_thread():
        if workers <= 1:
            return [fn(rows) for rows in chunks]
        results, errors, claims = [None] * len(chunks), {}, iter(range(len(chunks)))

        def work():  # the workers claim chunk indices from one shared iterator
            for k in claims:
                try:
                    results[k] = fn(chunks[k])
                except BaseException as exc:  # raised in the caller
                    errors[k] = exc
                    return

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _evolver(method, params, x0, times):
    """rows -> atomic amplitudes of |e_x0> at times[rows], shape (rows, N), from one propagator."""
    prop = make_propagator(method, params)
    state0 = initial_atomic_excitation(params, x0)
    return lambda rows: prop.evolve(state0, times[rows], atoms_only=True)


def evolve_chunks(method, params, x0, times, fn, chunks=None) -> list:
    """[fn(atomic amplitudes of |e_x0> at times[rows], shape (rows, N)) for rows in chunks].

    One propagator serves every chunk; ``chunks`` defaults to ``time_chunks(len(times))``.
    """
    evolve = _evolver(method, params, x0, times)
    return map_chunks(lambda rows: fn(evolve(rows)),
                      time_chunks(len(times)) if chunks is None else chunks)


def _series_reducer(spec: ExperimentSpec):
    """rows -> (pi_a, concurrences) of the spec at times[rows]; builds its propagator."""
    evolve = _evolver(spec.method, spec.params, spec.x0, spec.grid.times)
    sites = np.array(spec.pairs, dtype=int).reshape(-1, 2) - 1

    def reduce(rows):
        mags = np.abs(evolve(rows))
        conc = entanglement.pair_concurrence(mags[:, sites[:, 0]], mags[:, sites[:, 1]])
        return np.sum(mags**2, axis=1), conc

    return reduce


def _attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def run_sweep(specs) -> list[ObservableSeries | Exception]:
    """Each spec's observable series, or the first exception it raised.

    Every spec's propagator is built first; then the time chunks of all specs
    run in one ``map_chunks`` call, so no worker waits on another spec's set-up
    or on the tail of its chunks.  A spec that fails at set-up or in any of its
    chunks yields its exception while the others finish.
    """
    specs = list(specs)
    with one_blas_thread():  # the dense set-up takes norms, which BLAS may thread
        reducers = [_attempt(_series_reducer, spec) for spec in specs]
    jobs = [(k, rows) for k, (spec, reduce) in enumerate(zip(specs, reducers))
            if not isinstance(reduce, Exception) for rows in time_chunks(spec.grid.n_samples)]
    parts = [[] for _ in specs]
    done = map_chunks(lambda job: _attempt(reducers[job[0]], job[1]), jobs)
    for (k, _), part in zip(jobs, done):
        parts[k].append(part)
    results = []
    for spec, reduce, chunks in zip(specs, reducers, parts):
        failed = [part for part in [reduce, *chunks] if isinstance(part, Exception)]
        if failed:
            results.append(failed[0])
            continue
        pi_a, conc = (np.concatenate(column) for column in zip(*chunks))
        results.append(ObservableSeries(
            times=spec.grid.times, entropy=entanglement.binary_entropy(pi_a), pi_a=pi_a,
            pairs=list(spec.pairs), concurrence=conc,
        ))
    return results


def compute_series(spec: ExperimentSpec) -> ObservableSeries:
    """Evolve the spec's initial state and record its observables: run_sweep of one spec."""
    (result,) = run_sweep([spec])
    if isinstance(result, Exception):
        raise result
    return result


def fig2_spec() -> ExperimentSpec:
    """Weak-coupling entropy/concurrence series: N=41, x0=21, g=1e-3 J."""
    check_weak_preset(41)
    g = 1e-3
    return ExperimentSpec(
        name="fig2",
        params=ModelParams(n_cavities=41, hopping=1.0, coupling=g),
        x0=21,
        grid=TimeGrid(0.0, 4.0 * math.pi / g, 2048),
        method="analytic",
        pairs=((21, 33), (31, 33)),
    )


def run_fig2() -> ObservableSeries:
    return compute_series(fig2_spec())


def run_fig3(snapshot_times=None) -> list[SnapshotMap]:
    """Strong-coupling concurrence snapshots: N=101, x0=51, g=1e3 J.

    Snapshot times should be multiples of pi/g so the full atomic probability
    is back; anything else is flagged (not rejected) since the map contrast is
    simply reduced.
    """
    g = FIG3_COUPLING
    params = ModelParams(n_cavities=101, hopping=1.0, coupling=g)
    if snapshot_times is None:
        snapshot_times = [2000.0 * math.pi / g, 5000.0 * math.pi / g, 10000.0 * math.pi / g]
    off_resonant = []
    for t in snapshot_times:
        cycles = t * g / math.pi
        if not math.isfinite(cycles):
            raise ValueError(f"snapshot time {t:g}/J is too large: t*g overflows")
        off_resonant.append(abs(cycles - round(cycles)) * math.pi / g > 1e-9)
    # one row per snapshot: a 1-row product takes gemv, as a scalar time does
    times = np.array(snapshot_times, dtype=float)
    maps = evolve_chunks("analytic", params, 51, times, entanglement.max_concurrence_map,
                         [slice(k, k + 1) for k in range(len(times))])
    return [SnapshotMap(time=t, values=values, off_resonant=flag)
            for t, values, flag in zip(snapshot_times, maps, off_resonant)]


def fig4_grid(g_over_j: float) -> np.ndarray:
    """Sample times for the running-max map: tJ in [0, 90], step 0.05.

    Each sample is snapped to the nearest multiple of pi/g, where the fast
    cos^2(gt) envelope peaks; an unsnapped grid would alias the envelope and
    systematically under-record the concurrence maxima.
    """
    times = np.arange(0.0, 90.0 + 1e-12, 0.05)
    period = math.pi / g_over_j
    # the snapped grid never decreases, so dropping repeats is np.unique (no numpy.ma)
    snapped = np.round(times / period) * period
    return snapped[np.concatenate(([True], snapped[1:] != snapped[:-1]))]


def run_fig4(g_over_j: float) -> np.ndarray:
    """Running-maximum concurrence map: N=201, x0=101, tJ in [0, 90]."""
    params = ModelParams(n_cavities=201, hopping=1.0, coupling=g_over_j)
    maps = evolve_chunks("analytic", params, 101, fig4_grid(g_over_j),
                         entanglement.max_concurrence_map)
    # the maximum is exact, so merging the chunks' maps gives the bytes of one pass
    return np.maximum.reduce(maps)


# nothing in the package calls run_one: it stays only because the benchmark tracer
# (bench/spans.py) resolves it by name, and ROADMAP item 1's stage clock deletes it
def run_one(spec: ExperimentSpec) -> ObservableSeries | Exception:
    """compute_series(spec), or the exception it raised."""
    return _attempt(compute_series, spec)
