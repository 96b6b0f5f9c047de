"""The benchmark tracer (bench/spans.py) finds every name it wraps.

``spans.install`` looks each traced function and propagator class up by name,
so a rename or a deletion in the package breaks every ``--trace 1`` run.
The tracer is loaded from its file and only read here; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    missing = [f"{module}.{attr}" for module, attr, _ in spans._FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    dynamics = importlib.import_module("jchsim.dynamics")
    missing += [f"jchsim.dynamics.{name}" for name in spans._PROPAGATORS
                if not isinstance(getattr(dynamics, name, None), type)]
    assert spans._FUNCTIONS and spans._PROPAGATORS
    assert missing == []
