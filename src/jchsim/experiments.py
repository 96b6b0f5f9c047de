"""Preset pipelines for the three reference experiments and a sweep engine.

The presets pin an odd array size with the initial excitation at the center
site x0 = (N+1)/2, so the band-center mode is resonant with the atoms; for
weak-coupling runs (N+1)/2 must itself be odd, otherwise the center mode has
no weight at x0 and nothing propagates.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import entanglement
from .dynamics import TimeGrid, evolve_series, make_propagator
from .model import ModelParams, initial_atomic_excitation
from .spectral import mode_table


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


def compute_series(spec: ExperimentSpec) -> ObservableSeries:
    """Evolve the spec's initial state and record the requested observables."""
    params = spec.params
    modes = mode_table(params)
    prop = make_propagator(spec.method, params, modes)
    state0 = initial_atomic_excitation(params, spec.x0)
    states = evolve_series(state0, spec.grid, prop)
    ca = entanglement.atomic_amplitudes(states)
    pi_a = np.sum(np.abs(ca) ** 2, axis=1)
    entropy = entanglement.binary_entropy(pi_a)
    mags = np.abs(ca)
    conc = np.empty((len(pi_a), len(spec.pairs)))
    for col, (i, j) in enumerate(spec.pairs):
        conc[:, col] = 2.0 * mags[:, i - 1] * mags[:, j - 1]
    return ObservableSeries(
        times=spec.grid.times, entropy=entropy, pi_a=pi_a,
        pairs=list(spec.pairs), concurrence=conc,
    )


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
    g = 1e3
    params = ModelParams(n_cavities=101, hopping=1.0, coupling=g)
    x0 = 51
    if snapshot_times is None:
        snapshot_times = [2000.0 * math.pi / g, 5000.0 * math.pi / g, 10000.0 * math.pi / g]
    prop = make_propagator("analytic", params)
    state0 = initial_atomic_excitation(params, x0)
    out = []
    for t in snapshot_times:
        cycles = t * g / math.pi
        off_resonant = abs(cycles - round(cycles)) * math.pi / g > 1e-9
        state = prop.evolve(state0, t)
        out.append(SnapshotMap(time=t, values=entanglement.concurrence_map(state),
                               off_resonant=off_resonant))
    return out


def fig4_grid(g_over_j: float) -> np.ndarray:
    """Sample times for the running-max map: tJ in [0, 90], step 0.05.

    Each sample is snapped to the nearest multiple of pi/g, where the fast
    cos^2(gt) envelope peaks; an unsnapped grid would alias the envelope and
    systematically under-record the concurrence maxima.
    """
    times = np.arange(0.0, 90.0 + 1e-12, 0.05)
    period = math.pi / g_over_j
    return np.unique(np.round(times / period) * period)


def run_fig4(g_over_j: float) -> np.ndarray:
    """Running-maximum concurrence map: N=201, x0=101, tJ in [0, 90]."""
    params = ModelParams(n_cavities=201, hopping=1.0, coupling=g_over_j)
    x0 = 101
    prop = make_propagator("analytic", params)
    state0 = initial_atomic_excitation(params, x0)
    times = fig4_grid(g_over_j)
    states = prop.evolve(state0, times)
    return entanglement.running_max_map(states)


@dataclass
class SweepOutcome:
    """Result (or captured failure) of one spec in a batch run."""

    spec: ExperimentSpec
    series: ObservableSeries | None = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_one(spec: ExperimentSpec) -> SweepOutcome:
    return SweepOutcome(spec=spec, series=compute_series(spec))


def run_sweep(specs) -> list[SweepOutcome]:
    """Run every spec independently; failures are captured, not raised."""
    outcomes = []
    for spec in specs:
        try:
            outcomes.append(run_one(spec))
        except Exception as exc:  # aggregate per-spec failures
            outcomes.append(SweepOutcome(spec=spec, error=exc))
    return outcomes
