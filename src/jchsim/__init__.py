"""Single-excitation dynamics and entanglement in 1D coupled-cavity arrays."""

from .dynamics import (
    AnalyticPropagator,
    DenseOraclePropagator,
    StrongCouplingPropagator,
    TimeGrid,
    WeakCouplingPropagator,
    make_propagator,
    validity,
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
    "initial_atomic_excitation",
    "make_propagator",
    "mode_table",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_sweep",
    "validity",
]

__version__ = "0.1.0"
