import numpy as np
import pytest

from jchsim.dynamics import TimeGrid
from jchsim.entanglement import binary_entropy
from jchsim.experiments import (
    ExperimentSpec,
    center_site,
    check_weak_preset,
    compute_series,
    fig2_spec,
    fig4_grid,
    run_fig3,
    run_fig4,
    run_sweep,
)
from jchsim.model import ModelParams


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
    outcomes = run_sweep([small_spec(), small_spec()])
    assert all(o.ok for o in outcomes)
    assert np.array_equal(outcomes[0].series.entropy, outcomes[1].series.entropy)
    assert np.array_equal(outcomes[0].series.concurrence, outcomes[1].series.concurrence)


def test_run_sweep_captures_failures():
    outcomes = run_sweep([small_spec(), small_spec(method="magic")])
    assert outcomes[0].ok
    assert not outcomes[1].ok
    assert isinstance(outcomes[1].error, ValueError)


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
    outcomes = run_sweep(specs)
    max_s = [o.series.entropy.max() for o in outcomes]
    weak_plateau = binary_entropy(1.0 / 21.0)
    assert abs(max_s[0] - weak_plateau) <= 1e-2
    assert max_s[-1] >= 0.999
    assert max_s[-2] >= 0.999
    assert max(max_s[3:]) <= 1.0 + 1e-12
