"""Preset pipelines for the three reference experiments, all evolved by ``evolve_runs``.

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
from .model import MAX_ENERGY_TIME, ModelParams, initial_atomic_excitation, max_energy
from .spectral import mode_table  # noqa: F401

# the most time rows in one chunk of evolve_runs
CHUNK_ROWS = 256
FIG3_COUPLING = 1e3


@dataclass(frozen=True)
class ExperimentSpec:
    """One self-contained run: parameters, initial site, grid and outputs."""

    params: ModelParams
    x0: int
    grid: TimeGrid
    method: str = "analytic"
    pairs: tuple = ()
    name: str = ""  # nothing in the package reads it; the benchmark's tests pass it

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
    from numpy._core import _multiarray_umath
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
    get, put = _openblas_threads() or (lambda: None, lambda count: None)
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def map_chunks(fn, chunks) -> list:
    """[fn(rows) for rows in chunks], each slot the result or the Exception fn raised.

    Any other BaseException (a ``sys.exit`` in fn, say) stops the thread that caught it
    and is raised here once every thread has joined: the first such one in chunk order.

    ``min(worker_count(), len(chunks))`` threads claim chunk indices from one shared
    iterator while the caller waits, on one CPU too: glibc serves a main thread's large
    temporaries from a heap that hands its top pages back at each free, and a sweep at
    N = 1001 faulted 5-13 times as often there.  numpy releases the GIL inside BLAS and
    its ufunc loops, so the chunks overlap.  Each call must touch only its own rows; the
    slots come back in chunk order, so nothing depends on the number of workers.
    """
    results, claims = [None] * len(chunks), iter(range(len(chunks)))

    def work():
        for k in claims:
            try:
                results[k] = fn(chunks[k])
            except Exception as exc:  # signals raise in the main thread alone
                results[k] = exc
            except BaseException as exc:
                results[k] = exc
                return

    threads = [threading.Thread(target=work) for _ in range(min(worker_count(), len(chunks)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException) and not isinstance(result, Exception):
            raise result
    return results


class EnergyTimeError(ValueError):
    """(max|E|, t) of a run beyond ``MAX_ENERGY_TIME``, where the phases E t lose accuracy."""

    def describe(self, name="t") -> str:  # the message, calling the latest time ``name``
        return ("max|E| * {} must be at most {:g}, got {:g} * {:g}: the phases E t lose "
                "accuracy beyond it").format(name, MAX_ENERGY_TIME, *self.args)

    __str__ = describe


def _attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def evolve_runs(runs) -> list[list | Exception]:
    """Each run's [reduce(amplitudes at times[rows]) for rows in chunks], or its first exception.

    ``runs`` lists (method, params, x0, times, reduce, chunks) tuples; ``reduce`` gets the atomic
    amplitudes of |e_x0>, shape (rows, N).  Before any set-up, EnergyTimeError is raised
    unless every max|E| * max(times) is at most ``MAX_ENERGY_TIME``.  All propagators are
    built first, then all chunks go to one ``map_chunks`` call; a failed run stops no other.
    Set-up and chunks run with BLAS on one thread, restored when the call returns or raises.
    """
    bounds = [(max_energy(run[1]), float(np.max(run[3], initial=0.0))) for run in runs]
    # the largest max|E| * max(times), a NaN one taken first, as it fails the test too
    energy, time = max(bounds, default=(0.0, 0.0),
                       key=lambda bound: (np.isnan(bound[0] * bound[1]), bound[0] * bound[1]))
    if not energy * time <= MAX_ENERGY_TIME:
        raise EnergyTimeError(energy, time)

    def build(method, params, x0, times, reduce, _):
        prop, state0 = make_propagator(method, params), initial_atomic_excitation(params, x0)
        return lambda rows: reduce(prop.evolve(state0, times[rows], atoms_only=True))

    with one_blas_thread():  # the dense set-up's norms and every chunk's products
        steps = [_attempt(build, *run) for run in runs]
        jobs = [(step, rows) for step, run in zip(steps, runs)
                if not isinstance(step, Exception) for rows in run[5]]
        done = iter(map_chunks(lambda job: job[0](job[1]), jobs))  # run by run, in chunk order
    parts = [[step] if isinstance(step, Exception) else [next(done) for _ in run[5]]
             for step, run in zip(steps, runs)]
    return [next((p for p in got if isinstance(p, Exception)), got) for got in parts]


def _only(results):
    """The result of a one-run list, raised if it is an exception."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def _observables(sites, amplitudes):
    """(pi_a, concurrences of the site pairs ``sites``) of atomic amplitudes, one time per row."""
    mags = np.abs(amplitudes)
    conc = entanglement.pair_concurrence(mags[:, sites[:, 0]], mags[:, sites[:, 1]])
    return np.sum(mags**2, axis=1), conc


def _series(spec, pi_a, conc) -> ObservableSeries:
    return ObservableSeries(times=spec.grid.times, entropy=entanglement.binary_entropy(pi_a),
                            pi_a=pi_a, pairs=list(spec.pairs), concurrence=conc)


def run_sweep(specs) -> list[ObservableSeries | Exception]:
    """Each spec's observable series, or its first exception: one ``evolve_runs`` call."""
    specs = list(specs)
    runs = [(spec.method, spec.params, spec.x0, spec.grid.times,
             functools.partial(_observables, np.array(spec.pairs, dtype=int).reshape(-1, 2) - 1),
             time_chunks(spec.grid.n_samples)) for spec in specs]
    return [parts if isinstance(parts, Exception) else
            _series(spec, *(np.concatenate(column) for column in zip(*parts)))
            for spec, parts in zip(specs, evolve_runs(runs))]


def compute_series(spec: ExperimentSpec) -> ObservableSeries:
    """Evolve the spec's initial state and record its observables: run_sweep of one spec."""
    return _only(run_sweep([spec]))


def fig2_spec() -> ExperimentSpec:
    """Weak-coupling entropy/concurrence series: N=41, x0=21, g=1e-3 J."""
    check_weak_preset(41)
    g = 1e-3
    return ExperimentSpec(
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
    maps = _only(evolve_runs([("analytic", params, 51, times, entanglement.max_concurrence_map,
                               [slice(k, k + 1) for k in range(len(times))])]))
    return [SnapshotMap(time=t, values=values, off_resonant=flag)
            for t, values, flag in zip(snapshot_times, maps, off_resonant)]


def fig4_grid(g_over_j: float) -> np.ndarray:
    """Sample times for the running-max map: tJ in [0, 90], step 0.05.

    Each sample is snapped to the nearest multiple of pi/g, where the fast
    cos^2(gt) envelope peaks; an unsnapped grid would alias the envelope and
    systematically under-record the concurrence maxima.  Raises ValueError
    unless g is finite and > 0 with pi/g finite.
    """
    if not (0 < g_over_j < math.inf and math.pi / float(g_over_j) < math.inf):
        raise ValueError(f"fig4 needs a finite g > 0 with pi/g finite, got {g_over_j}")
    times = np.arange(0.0, 90.0 + 1e-12, 0.05)
    period = math.pi / g_over_j
    # the snapped grid never decreases, so dropping repeats is np.unique (no numpy.ma)
    snapped = np.round(times / period) * period
    return snapped[np.concatenate(([True], snapped[1:] != snapped[:-1]))]


def run_fig4(g_over_j: float) -> np.ndarray:
    """Running-maximum concurrence map: N=201, x0=101, tJ in [0, 90].

    The max|E| * t bound applies at the last time of ``fig4_grid``, which may lie a
    little past 90.
    """
    params = ModelParams(n_cavities=201, hopping=1.0, coupling=g_over_j)
    times = fig4_grid(g_over_j)
    maps = _only(evolve_runs([("analytic", params, 101, times, entanglement.max_concurrence_map,
                               time_chunks(len(times)))]))
    # the maximum is exact, so merging the chunks' maps gives the bytes of one pass
    return np.maximum.reduce(maps)


# nothing in the package calls run_one: it stays only because the benchmark tracer
# (bench/spans.py) resolves it by name, and ROADMAP item 1's stage clock deletes it
def run_one(spec: ExperimentSpec) -> ObservableSeries | Exception:
    """compute_series(spec), or the exception it raised."""
    return _attempt(compute_series, spec)
