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
    with pytest.raises(ConfigError, match="line 1: unknown key 't_start'"):
        parse_config("t_start = 0")


def test_value_sources_are_not_a_config_key():
    with pytest.raises(ConfigError, match="line 1: unknown key '_sources'"):
        parse_config("_sources = {}")


@pytest.mark.parametrize("j", ["9.99e-151", "1e-200", "5e-324", "0", "-1"])
def test_hopping_below_the_inverse_energy_bound_is_cited(j):
    assert parse_config("n = 5\nj = 1e-150\ng = 1e-150").j == 1e-150
    with pytest.raises(ConfigError, match="line 2: j must be at least 1e-150"):
        parse_config(f"n = 5\nj = {j}")


@pytest.mark.parametrize("text, ok", [
    ("n = 11\ng = 1\nt_max = 333333", True),  # max|E| = 2J + g = 3
    ("n = 11\ng = 1\nt_max = 333334", False),
    ("n = 11\nomega_a = 1e4\nt_max = 100", True),  # |omega_a| + g
    ("n = 11\nomega_a = 1e4\nt_max = 101", False),
    ("n = 11\nomega_c = -1e4\nt_max = 99.98", True),  # |omega_c| + 2J
    ("n = 11\nomega_c = -1e4\nt_max = 100", False),
    ("n = 11\ng_list = 0.1, 1e5\nt_max = 9.99", True),  # 2J + the largest g_list entry
    ("n = 11\ng_list = 0.1, 1e5\nt_max = 10", False),
    ("g = 1e5\nt_max = 50", True),  # no n: a preset fixes its own times
], ids=["g", "g-over", "omega_a", "omega_a-over", "omega_c", "omega_c-over",
        "g_list", "g_list-over", "no-n"])
def test_energy_time_bound(text, ok):
    if ok:
        parse_config(text)
    else:
        with pytest.raises(ConfigError, match="line 3: max.E. . t_max must be at most 1e.06"):
            parse_config(text)


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
    headers, data = io.read_csv(path)
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
    back = io.read_csv(path)[1][:, 1:]
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


def test_write_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    io.write_csv(path, ["site", "x", "status"],
                 [np.arange(1, 6), [0.1, np.nan, np.inf, -np.inf, 201.0],
                  ["ok", "failed", "ok", "ok", "ok"]])
    assert path.read_text() == ("site,x,status\n"
                                "1,0.10000000000000001,ok\n"
                                "2,nan,failed\n"
                                "3,inf,ok\n"
                                "4,-inf,ok\n"
                                "5,201,ok\n")
    io.write_map_csv(np.array([[0.0, 0.1], [0.1, 0.0]]), path)
    assert path.read_text() == "site,1,2\n1,0,0.10000000000000001\n2,0.10000000000000001,0\n"


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1.0, 2.0]]),
    (["a", "b"], [[1.0, 2.0], [3.0]]),
    (["a"], [[]]),
    ([], []),
], ids=["header-mismatch", "ragged", "empty", "no-columns"])
def test_write_csv_rejects_before_opening(tmp_path, header, columns):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError):
        io.write_csv(path, header, columns)
    assert not path.exists()


@pytest.mark.parametrize("rows", [32, 34])
def test_series_csv_rejects_misaligned_concurrence(tmp_path, rows):
    spec = ExperimentSpec(
        name="t", params=ModelParams(9, coupling=0.7), x0=5,
        grid=TimeGrid(0.0, 12.0, 33), pairs=((2, 5), (4, 8)),
    )
    series = compute_series(spec)
    series.concurrence = np.zeros((rows, 2))
    path = tmp_path / "series.csv"
    with pytest.raises(ValueError):
        io.write_series_csv(series, path)
    assert not path.exists()


def test_map_csv_rejects_non_square(tmp_path):
    path = tmp_path / "map.csv"
    with pytest.raises(ValueError):
        io.write_map_csv(np.zeros((3, 5)), path)
    assert not path.exists()


def test_write_csv_template_matches_fmt(tmp_path):
    path = tmp_path / "table.csv"
    floats = [np.nan, np.inf, -np.inf, -0.0, 0.0, 201.0, -3.0, 1e-300, 5e-324, 0.1,
              1.0 / 3.0, 1e17, 2.0**53 + 2, -1.7976931348623157e308]
    ints = [2**53 + 1, 2**63 - 1, -(2**60) - 1, 0, 7, 1, 2, 3, 4, 5, 6, 8, 9, 10]
    bools = [True, False] * 7
    labels = [f"s{i}" for i in range(len(floats))]
    columns = [floats, np.array(ints, dtype=np.int64), np.array(bools), labels, np.array(floats)]
    io.write_csv(path, ["f", "i", "b", "s", "g"], columns)
    cells = [[io.fmt(x) for x in floats], [io.fmt(x) for x in ints],
             [io.fmt(x) for x in bools], labels, [io.fmt(x) for x in floats]]
    expected = "f,i,b,s,g\n" + "".join(",".join(row) + "\n" for row in zip(*cells))
    assert path.read_text() == expected
    assert "-0," in expected and "9007199254740992," in expected and "1e-300," in expected


@pytest.mark.parametrize("values", [
    np.array([[0.0, 0.1, 0.1], [0.1, 0.0, 0.25], [0.1, 0.25, 0.0]]),
    np.array([[-0.0, 0.0, -0.0], [0.0, 5e-324, 1e308], [1e308, -0.0, 5e-324]]),
    np.array([[1.0 / 3.0, 0.2], [0.3, 1.0 / 3.0]]),
    np.random.default_rng(3).choice([0.0, -0.0, 0.1, 2.0 / 3.0, 5e-324, 1e308], (9, 9)),
], ids=["repeats", "signed-zeros-and-extremes", "non-symmetric", "random-repeats"])
def test_map_csv_matches_per_cell_fmt(tmp_path, values):
    path = tmp_path / "map.csv"
    io.write_map_csv(values, path)
    sites = range(1, len(values) + 1)
    expected = "site," + ",".join(map(str, sites)) + "\n" + "".join(
        f"{i}," + ",".join(io.fmt(x) for x in row) + "\n" for i, row in zip(sites, values))
    assert path.read_text() == expected


def test_map_csv_keeps_the_sign_of_zero(tmp_path):
    path = tmp_path / "map.csv"
    io.write_map_csv(np.array([[-0.0, 0.0], [0.0, -0.0]]), path)
    assert path.read_text() == "site,1,2\n1,-0,0\n2,0,-0\n"
