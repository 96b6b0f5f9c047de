"""Self-test of the benchmark: its checks pass on jchsim's output and catch wrong output.

Runs with the repository's tests (``PYTHONPATH=src python -m pytest``) and
takes well under a second.
"""

import numpy as np
import pytest

import checks
import spans
from jchsim import experiments, io
from jchsim.dynamics import StrongCouplingPropagator, TimeGrid
from jchsim.model import ModelParams

N, G, X0 = 16, 0.7, 8
PAIRS = ((2, 5), (9, 12))
TIMES = np.linspace(0.0, 20.0, 201)
ROWS = checks.sample_rows(np.random.default_rng(0), len(TIMES), 12)


def _perturb(path, row, col, delta=1e-6):
    """Copy of a CSV with one cell moved by ``delta`` (``row`` counts data rows)."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = format(float(cells[col]) + delta, ".17g")
    lines[row + 1] = ",".join(cells)
    bad = path.with_name("perturbed_" + path.name)
    bad.write_text("\n".join(lines) + "\n")
    return bad


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    spec = experiments.ExperimentSpec(name="selftest", params=ModelParams(N, 1.0, G), x0=X0,
                                      grid=TimeGrid(0.0, 20.0, len(TIMES)), pairs=PAIRS)
    path = tmp_path_factory.mktemp("series") / "evolve_series.csv"
    io.write_series_csv(experiments.compute_series(spec), path)
    return path


@pytest.fixture(scope="module")
def fig3_ref():
    return checks.Reference(checks.FIG3["n"], checks.FIG3["g"], checks.FIG3["x0"])


def test_series_check_passes_on_jchsim_output(series_csv):
    checks.check_series_csv(series_csv, checks.Reference(N, G, X0), TIMES, PAIRS, ROWS)


@pytest.mark.parametrize("col", [1, 2, 3, 4], ids=["entropy", "pi_a", "C_2_5", "C_9_12"])
def test_series_check_catches_one_cell_off_by_1e6(series_csv, col):
    bad = _perturb(series_csv, int(ROWS[3]), col)
    with pytest.raises(checks.CheckFailed):
        checks.check_series_csv(bad, checks.Reference(N, G, X0), TIMES, PAIRS, ROWS)


def test_map_check_catches_one_cell_off_by_1e6(tmp_path, fig3_ref):
    t = checks.fig3_times()[0]
    (snap, *_) = experiments.run_fig3([t])
    path = tmp_path / "map.csv"
    io.write_map_csv(snap.values, path)
    rows = np.array([3, 50, 77])
    expected = checks.concurrence_rows(np.abs(fig3_ref.atomic([t])[0]), rows)
    checks.check_map_csv(path, rows, expected)
    with pytest.raises(checks.CheckFailed, match="symmetry"):
        checks.check_map_csv(_perturb(path, 10, 20), rows, expected)


def test_fig3_from_strong_coupling_model_fails(tmp_path, fig3_ref, monkeypatch):
    monkeypatch.setattr(experiments, "make_propagator",
                        lambda method, params, *args, **kwargs: StrongCouplingPropagator(params))
    rows = np.array([40, 50, 60])
    for k, snap in enumerate(experiments.run_fig3()):
        path = tmp_path / f"map{k}.csv"
        io.write_map_csv(snap.values, path)
        expected = checks.concurrence_rows(np.abs(fig3_ref.atomic([snap.time])[0]), rows)
        with pytest.raises(checks.CheckFailed, match="rows vs eigh"):
            checks.check_map_csv(path, rows, expected)


def test_layer_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()
    write = tracer.wrap("io.write_map_csv", lambda: sum(range(20000)))
    phases = tracer.wrap("linalg.evolution_phases", lambda e, t: np.exp(1j * np.outer(t, e)),
                         probe=lambda args, result: {"phase_evals": result.size})
    root = tracer.wrap("cli.cli_main", lambda: [write(), phases(np.ones(4), np.ones(3)), write()])
    root()
    metrics = spans.layer_metrics(tracer.spans)
    _, _, start, end, _ = tracer.spans[0]
    layers = sum(metrics[m] for m in set(spans.SELF_TIME.values()))
    assert layers == pytest.approx(end - start, rel=1e-9)
    assert metrics["linalg.evolution_phases_calls"] == 1
    assert metrics["linalg.phase_evals"] == 12
    assert metrics["io.csv_s"] > 0.0
