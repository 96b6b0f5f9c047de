"""Layer spans for the traced benchmark run, and the per-layer metrics built from them.

Layers are the jchsim modules.  ``install`` wraps each public function that a
workload reaches, at the place where its caller's module looks it up, so the
program itself carries no tracing code.  A span records its name
("<layer>.<function>"), its parent, its start and end, and a few counters;
spans stay in memory until the command ends.
"""

import functools
import importlib
import os
import resource
import time

import numpy as np

# (module where the caller looks the function up, attribute, defining layer)
_FUNCTIONS = [
    ("jchsim.cli", "run_fig2", "experiments"),
    ("jchsim.cli", "run_fig3", "experiments"),
    ("jchsim.cli", "run_fig4", "experiments"),
    ("jchsim.cli", "run_sweep", "experiments"),
    ("jchsim.cli", "compute_series", "experiments"),
    ("jchsim.experiments", "compute_series", "experiments"),
    ("jchsim.experiments", "run_one", "experiments"),
    ("jchsim.experiments", "mode_table", "spectral"),
    ("jchsim.experiments", "evolve_series", "dynamics"),
    ("jchsim.dynamics", "mode_table", "spectral"),
    ("jchsim.dynamics", "evolution_phases", "linalg"),
    ("jchsim.dynamics", "jacobi_eigh", "linalg"),
    ("jchsim.entanglement", "atomic_amplitudes", "entanglement"),
    ("jchsim.entanglement", "binary_entropy", "entanglement"),
    ("jchsim.entanglement", "concurrence_map", "entanglement"),
    ("jchsim.entanglement", "running_max_map", "entanglement"),
    ("jchsim.io", "write_series_csv", "io"),
    ("jchsim.io", "write_map_csv", "io"),
    ("jchsim.svg", "render_heatmap_svg", "svg"),
    ("jchsim.svg", "render_lines_svg", "svg"),
]
_PROPAGATORS = ("AnalyticPropagator", "DenseOraclePropagator",
                "WeakCouplingPropagator", "StrongCouplingPropagator")
_EVOLVE = ("evolve", "evolve_batch")

# span name, or its layer, -> metric that receives the span's self time
SELF_TIME = {
    "cli": "cli.self_s",
    "experiments": "experiments.self_s",
    "spectral": "spectral.mode_table_s",
    "dynamics": "dynamics.transform_s",
    "linalg.evolution_phases": "linalg.evolution_phases_s",
    "linalg.jacobi_eigh": "linalg.jacobi_eigh_s",
    "entanglement": "entanglement.reduce_s",
    "io": "io.csv_s",
    "svg": "svg.render_s",
}
# span name -> metric counting its calls
CALLS = {
    "spectral.mode_table": "spectral.mode_table_calls",
    "linalg.evolution_phases": "linalg.evolution_phases_calls",
    "linalg.jacobi_eigh": "linalg.jacobi_eigh_calls",
    "entanglement.binary_entropy": "entanglement.binary_entropy_calls",
    "entanglement.concurrence_map": "entanglement.concurrence_map_calls",
}
# span layer -> (counter recorded on its spans, metric receiving their sum)
SUMS = {
    "linalg": {"phase_evals": "linalg.phase_evals", "minflt": "linalg.jacobi_eigh_minflt"},
    "io": {"bytes": "io.csv_bytes"},
    "svg": {"bytes": "svg.bytes"},
}
METRICS = sorted({*SELF_TIME.values(), *CALLS.values(),
                  *(m for sums in SUMS.values() for m in sums.values()),
                  "dynamics.evolve_calls", "dynamics.states", "dynamics.state_bytes_max"})
_BYTES = {"io.csv_bytes", "svg.bytes", "dynamics.state_bytes_max"}


def unit(metric):
    return "s" if metric.endswith("_s") else "B" if metric in _BYTES else "count"


class Tracer:
    """In-memory span recorder; spans are [name, parent index, start, end, counters]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, probe=None, faults=False):
        """``fn`` recording a span per call; ``probe(args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            if faults:
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            counters = probe(args, result) if probe else {}
            if faults:
                counters["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
            span[4] = counters or None
            return result

        return traced


def _states(args, result):
    result = np.asarray(result)
    return {"states": result.shape[0] if result.ndim == 2 else 1, "bytes": result.nbytes}


def _phase_evals(args, result):
    return {"phase_evals": int(np.size(args[1]) * np.size(args[0]))}


def _file_bytes(position):
    return lambda args, result: {"bytes": os.path.getsize(args[position])}


_PROBES = {
    "evolution_phases": _phase_evals,
    "evolve_series": _states,
    "write_series_csv": _file_bytes(1),
    "write_map_csv": _file_bytes(1),
    "render_heatmap_svg": _file_bytes(1),
    "render_lines_svg": _file_bytes(2),
}


def install(tracer):
    """Wrap every traced jchsim function; returns the wrapped ``cli_main``."""
    for module_name, attr, layer in _FUNCTIONS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        setattr(module, attr, tracer.wrap(f"{layer}.{attr}", fn, _PROBES.get(attr),
                                          faults=attr == "jacobi_eigh"))
    dynamics = importlib.import_module("jchsim.dynamics")
    for cls_name in _PROPAGATORS:
        cls = getattr(dynamics, cls_name)
        for method in _EVOLVE:
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(f"dynamics.{cls_name}.{method}",
                                                 vars(cls)[method], _states))
    return tracer.wrap("cli.cli_main", importlib.import_module("jchsim.cli").cli_main)


def _self_metric(name):
    layer, function = name.split(".")[:2]
    return SELF_TIME.get(f"{layer}.{function}") or SELF_TIME[layer]


def layer_metrics(spans):
    """Per-layer metrics of one command's spans (see README for their meaning)."""
    out = dict.fromkeys(METRICS, 0)
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, parent, start, end, counters) in enumerate(spans):
        out[_self_metric(name)] += (end - start) - child_time[index]
        if name in CALLS:
            out[CALLS[name]] += 1
        layer = name.split(".")[0]
        for key, metric in SUMS.get(layer, {}).items():
            out[metric] += (counters or {}).get(key, 0)
        if layer == "dynamics":
            out["dynamics.state_bytes_max"] = max(out["dynamics.state_bytes_max"],
                                                  counters["bytes"])
            outer = parent < 0 or not spans[parent][0].endswith(_EVOLVE)
            if name.endswith(_EVOLVE) and outer:
                out["dynamics.evolve_calls"] += 1
                out["dynamics.states"] += counters["states"]
    return out
