import numpy as np
import pytest

from jchsim import io
from jchsim.dynamics import TimeGrid
from jchsim.experiments import ExperimentSpec, compute_series
from jchsim.io import ConfigError, parse_config, parse_pairs
from jchsim.model import ModelParams
from jchsim.spectral import mode_table


def test_parse_config_fig2_compatible():
    cfg = parse_config("n = 41\ng = 0.001\nx0 = 21")
    assert cfg.n == 41
    assert cfg.g == 0.001
    assert cfg.x0 == 21
    assert cfg.omega_c == 0.0 and cfg.omega_a == 0.0
    assert cfg.method == "analytic"
    params = cfg.model_params()
    assert params.n_cavities == 41 and params.coupling == 0.001


def test_parse_config_missing_n():
    with pytest.raises(ConfigError, match="missing required key 'n'"):
        parse_config("").model_params()


def test_parse_config_flags_win_and_are_cited():
    cfg = parse_config("n = 5\nsamples = 1\n", [("--samples", "samples", "21")])
    assert cfg.samples == 21
    with pytest.raises(ConfigError, match="--t-max: need t_max"):
        parse_config("n = 5\n", [("--t-max", "t_max", "-3")])
    with pytest.raises(ConfigError, match="--samples: bad value"):
        parse_config("n = 5\n", [("--samples", "samples", "abc")])


def test_parse_config_bad_number():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("n = two")


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("n = 5\nbogus = 1")


def test_parse_config_constraint_with_line_number():
    with pytest.raises(ConfigError, match="line 1.*n must be >= 2"):
        parse_config("n = 1")
    with pytest.raises(ConfigError, match="line 2.*x0"):
        parse_config("n = 5\nx0 = 9")


def test_parse_config_comments_and_lists():
    cfg = parse_config(
        "# run setup\nn = 11  # sites\ng_list = 0.1, 1, 10\npairs = 2:5,3:7\n"
        "snapshot_times = 1.5, 3\nmethod = dense\n"
    )
    assert cfg.g_list == [0.1, 1.0, 10.0]
    assert cfg.pairs == [(2, 5), (3, 7)]
    assert cfg.snapshot_times == [1.5, 3.0]
    assert cfg.method == "dense"


def test_parse_config_bad_method():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("n = 5\nmethod = exactish")


def test_parse_pairs():
    assert parse_pairs("1:2") == [(1, 2)]
    assert parse_pairs("21:33,31:33") == [(21, 33), (31, 33)]
    with pytest.raises(ValueError):
        parse_pairs("12")


def test_fmt_round_trip():
    for x in (0.1, 1.0 / 3.0, np.pi, 1e-300, 12345.678901234567):
        assert float(io.fmt(x)) == x


def test_series_csv_round_trip(tmp_path):
    spec = ExperimentSpec(
        name="t", params=ModelParams(9, coupling=0.7), x0=5,
        grid=TimeGrid(0.0, 12.0, 33), pairs=((2, 5), (4, 8)),
    )
    series = compute_series(spec)
    path = tmp_path / "series.csv"
    io.write_series_csv(series, path)
    headers, data = io.read_series_csv(path)
    assert headers == ["t_J", "entropy", "pi_a", "C_2_5", "C_4_8"]
    assert np.array_equal(data[:, 0], series.times)
    assert np.array_equal(data[:, 1], series.entropy)
    assert np.array_equal(data[:, 2], series.pi_a)
    assert np.array_equal(data[:, 3:], series.concurrence)


def test_series_csv_rejects_empty(tmp_path):
    spec = ExperimentSpec(
        name="t", params=ModelParams(4, coupling=0.1), x0=2,
        grid=TimeGrid(0.0, 1.0, 2),
    )
    series = compute_series(spec)
    series.times = np.array([])
    with pytest.raises(ValueError):
        io.write_series_csv(series, tmp_path / "empty.csv")


def test_map_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.0, 0.3, size=(7, 7))
    values = (values + values.T) / 2
    path = tmp_path / "map.csv"
    io.write_map_csv(values, path)
    back = io.read_map_csv(path)
    assert np.array_equal(back, values)
    header = path.read_text().splitlines()[0]
    assert header == "site," + ",".join(str(j) for j in range(1, 8))


def test_modes_csv(tmp_path):
    path = tmp_path / "modes.csv"
    io.write_modes_csv(mode_table(ModelParams(5, coupling=0.3, atom_freq=0.1)), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,k,omega_k,delta_k,rabi_k,eps_plus,eps_minus"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == np.pi / 6
