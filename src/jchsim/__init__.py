"""Single-excitation dynamics and entanglement in 1D coupled-cavity arrays."""

from .dynamics import (
    AnalyticPropagator,
    DenseOraclePropagator,
    StrongCouplingPropagator,
    TimeGrid,
    WeakCouplingPropagator,
    build_polariton_hamiltonian,
    evolve_series,
    make_propagator,
    strong_coupling_amplitudes,
    weak_coupling_amplitudes,
)
from .entanglement import (
    concurrence_map,
    concurrence_wootters_oracle,
    reduce_to_pair,
    running_max_map,
)
from .experiments import ExperimentSpec, run_fig2, run_fig3, run_fig4, run_sweep
from .model import ModelParams, build_hamiltonian, initial_atomic_excitation
from .spectral import ModeTable, eigenstate_vector, mode_table

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
    "build_polariton_hamiltonian",
    "concurrence_map",
    "concurrence_wootters_oracle",
    "eigenstate_vector",
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
    "strong_coupling_amplitudes",
    "weak_coupling_amplitudes",
]

__version__ = "0.1.0"
