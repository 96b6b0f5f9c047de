"""Single-excitation dynamics and entanglement in 1D coupled-cavity arrays."""

from .dynamics import (
    AnalyticPropagator,
    DenseOraclePropagator,
    StrongCouplingPropagator,
    TimeGrid,
    WeakCouplingPropagator,
    evolve_series,
    make_propagator,
    validity,
)
from .entanglement import (
    concurrence_map,
    concurrence_wootters_oracle,
    reduce_to_pair,
    running_max_map,
)
from .experiments import ExperimentSpec, run_fig2, run_fig3, run_fig4, run_sweep
from .model import ModelParams, build_hamiltonian, initial_atomic_excitation
from .spectral import ModeTable, mode_table

__all__ = [
    "AnalyticPropagator",
    "DenseOraclePropagator",
    "ExperimentSpec",
    "ModeTable",
    "ModelParams",
    "StrongCouplingPropagator",
    "TimeGrid",
    "WeakCouplingPropagator",
    "build_hamiltonian",
    "concurrence_map",
    "concurrence_wootters_oracle",
    "evolve_series",
    "initial_atomic_excitation",
    "make_propagator",
    "mode_table",
    "reduce_to_pair",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_sweep",
    "running_max_map",
    "validity",
]

__version__ = "0.1.0"
