import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svg_reference
from jchsim import experiments, io
from jchsim.cli import cli_main
from jchsim.dynamics import TimeGrid
from jchsim.experiments import ExperimentSpec
from jchsim.model import ModelParams


def test_no_subcommand_is_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert cli_main(["fig2", "--frobnicate"]) == 1


def test_missing_n_is_config_error(tmp_path, capsys):
    assert cli_main(["modes", "--out", str(tmp_path)]) == 2
    assert "missing required key 'n'" in capsys.readouterr().err


def test_bad_config_line_number(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = two\n")
    assert cli_main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_bad_pairs_flag_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 9\ng = 0.5\n")
    code = cli_main(["evolve", "--config", str(cfg), "--out", str(tmp_path),
                     "--pairs", "nonsense"])
    assert code == 2


@pytest.mark.parametrize("line", ["g = nan", "t_max = inf"])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 11\n{line}\n")
    out = tmp_path / "r"
    assert cli_main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not (out / "evolve_series.csv").exists()


@pytest.mark.parametrize("flags", [
    ["evolve", "--pairs", "0:5"],
    ["evolve", "--pairs", "4:4"],
    ["evolve", "--pairs", "3:40"],
    ["evolve", "--t-max", "nan"],
    ["evolve", "--t-max", "inf"],
    ["evolve", "--samples", "1"],
    ["evolve", "--t-max", "-3"],
    # max|E| * t_max = 2.5e300: these exited 0 with analytic and dense disagreeing
    ["evolve", "--t-max", "1e300"],
    ["evolve", "--t-max", "1e300", "--method", "dense"],
    ["sweep", "--samples", "1"],
    ["fig4", "--g-over-j", "10", "--scale-max", "nan"],
], ids=" ".join)
def test_bad_flag_override_is_config_error(tmp_path, capsys, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 11\ng = 0.5\ng_list = 0.1\n")
    out = tmp_path / "r"
    assert cli_main([flags[0], "--config", str(cfg), "--out", str(out), *flags[1:]]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "out"
    blocker.write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\n")
    assert cli_main(["modes", "--config", str(cfg), "--out", str(blocker)]) == 3


def test_modes_artifact(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 7\ng = 0.4\n")
    assert cli_main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = (tmp_path / "modes.csv").read_text().splitlines()
    assert lines[0] == "m,k,omega_k,delta_k,rabi_k,eps_plus,eps_minus"
    assert len(lines) == 8


def test_evolve_artifacts_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 9\ng = 0.5\nt_max = 10\nsamples = 16\npairs = 2:5\n")
    out = tmp_path / "r"
    assert cli_main(["evolve", "--config", str(cfg), "--out", str(out),
                     "--samples", "21", "--method", "dense"]) == 0
    headers, data = io.read_csv(out / "evolve_series.csv")
    assert headers == ["t_J", "entropy", "pi_a", "C_2_5"]
    assert data.shape == (21, 4)
    assert (out / "evolve_plot.svg").exists()


def test_evolve_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 9\ng = 0.5\nt_max = 10\nsamples = 16\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli_main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out_a / "evolve_series.csv").read_bytes() == (out_b / "evolve_series.csv").read_bytes()
    assert (out_a / "evolve_plot.svg").read_bytes() == (out_b / "evolve_plot.svg").read_bytes()


def test_fig2_artifacts(tmp_path):
    assert cli_main(["fig2", "--out", str(tmp_path)]) == 0
    headers, data = io.read_csv(tmp_path / "fig2_series.csv")
    assert headers == ["t_J", "entropy", "pi_a", "C_21_33", "C_31_33"]
    assert data.shape[0] >= 2048
    assert (tmp_path / "fig2_plot.svg").exists()


def test_fig3_artifacts(tmp_path):
    t = 2000 * np.pi / 1e3
    assert cli_main(["fig3", "--out", str(tmp_path),
                     "--snapshot-times", f"{t:.17g}"]) == 0
    csvs = sorted(tmp_path.glob("fig3_t*_map.csv"))
    svgs = sorted(tmp_path.glob("fig3_t*_map.svg"))
    assert len(csvs) == 1 and len(svgs) == 1
    values = io.read_csv(csvs[0])[1][:, 1:]
    assert values.shape == (101, 101)
    assert np.array_equal(values, values.T)


def _assert_svg_matches_etree_reference(stem, title, tmp_path, scale_max=0.25):
    """The CLI's heatmap SVG equals the ElementTree reference's rendering of
    the map CSV written beside it (17 digits round-trip the values exactly)."""
    values = io.read_csv(f"{stem}.csv")[1][:, 1:]
    rewritten = tmp_path / "rewritten.csv"
    io.write_map_csv(values, rewritten)
    assert rewritten.read_bytes() == Path(f"{stem}.csv").read_bytes()
    reference = tmp_path / "reference.svg"
    svg_reference.render_heatmap_svg(values, reference, scale_max=scale_max, title=title)
    assert reference.read_bytes() == Path(f"{stem}.svg").read_bytes()


def test_fig3_default_maps_match_etree_reference(tmp_path):
    out = tmp_path / "out"
    assert cli_main(["fig3", "--out", str(out)]) == 0
    stems = sorted(path.parent / path.stem for path in out.glob("fig3_t*_map.csv"))
    assert len(stems) == 3
    for stem in stems:
        time = stem.name[len("fig3_t"):-len("_map")]
        _assert_svg_matches_etree_reference(stem, f"C_ij at tJ = {time}", tmp_path)


def test_fig4_artifacts(tmp_path):
    out = tmp_path / "out"
    assert cli_main(["fig4", "--g-over-j", "10", "--out", str(out)]) == 0
    values = io.read_csv(out / "fig4_g10_maxmap.csv")[1][:, 1:]
    assert values.shape == (201, 201)
    assert (out / "fig4_g10_maxmap.svg").exists()
    _assert_svg_matches_etree_reference(out / "fig4_g10_maxmap",
                                        "max C_ij, g = 10 J, tJ in [0, 90]", tmp_path)


def test_sweep_artifacts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 9\ng_list = 0.1, 1\nt_max = 10\nsamples = 16\n")
    out = tmp_path / "s"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == "g_over_j,max_entropy,max_pi_f,status"
    assert len(lines) == 3
    assert all(line.endswith(",ok") for line in lines[1:])
    assert (out / "sweep_g0.1_series.csv").exists()
    assert (out / "sweep_g1_series.csv").exists()


def test_sweep_requires_g_list(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 9\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def _tree(root):
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*"))}


_BASE = "n = 9\ng = 0.5\nt_max = 10\nsamples = 16\n"
_T3 = f"{2 * np.pi:.17g}"


@pytest.mark.parametrize("command, line, flags", [
    (["evolve"], "method = dense", ["--method", "dense"]),
    (["evolve"], "samples = 21", ["--samples", "21"]),
    (["evolve"], "t_max = 7.5", ["--t-max", "7.5"]),
    (["evolve"], "pairs = 2:5,3:7", ["--pairs", "2:5,3:7"]),
    (["fig3"], f"snapshot_times = {_T3}", ["--snapshot-times", _T3]),
    (["fig4", "--g-over-j", "10"], "scale_max = 0.4", ["--scale-max", "0.4"]),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_key_in_file_or_flag_gives_identical_artifacts(tmp_path, command, line, flags):
    in_file, by_flag = tmp_path / "file.cfg", tmp_path / "flag.cfg"
    in_file.write_text(_BASE + line + "\n")
    by_flag.write_text(_BASE)
    assert cli_main([*command, "--config", str(in_file), "--out", str(tmp_path / "a")]) == 0
    assert cli_main([*command, "--config", str(by_flag), "--out", str(tmp_path / "b"),
                     *flags]) == 0
    written = _tree(tmp_path / "a")
    assert written and written == _tree(tmp_path / "b")


def test_flag_wins_over_invalid_file_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 9\ng = 0.5\nt_max = 10\nsamples = 1\n")
    out = tmp_path / "r"
    assert cli_main(["evolve", "--config", str(cfg), "--out", str(out),
                     "--samples", "21"]) == 0
    _, data = io.read_csv(out / "evolve_series.csv")
    assert data.shape[0] == 21


@pytest.mark.parametrize("key, flag, raw", [("samples", "--samples", "abc"),
                                            ("method", "--method", "magic")])
@pytest.mark.parametrize("given", ["file", "flag"])
def test_bad_value_is_config_error_from_file_or_flag(tmp_path, capsys, key, flag, raw, given):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_BASE + (f"{key} = {raw}\n" if given == "file" else ""))
    out = tmp_path / "r"
    extra = [flag, raw] if given == "flag" else []
    assert cli_main(["evolve", "--config", str(cfg), "--out", str(out), *extra]) == 2
    assert ("line 5" if given == "file" else flag) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["fig2"], ["fig3"], ["fig4", "--g-over-j", "10"]],
                         ids=" ".join)
def test_presets_accept_config_without_n(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scale_max = 0.25\n")
    assert cli_main([*command, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0


def test_fig4_draws_config_scale_max(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scale_max = 0.5\n")
    out = tmp_path / "out"
    assert cli_main(["fig4", "--config", str(cfg), "--g-over-j", "10", "--out", str(out)]) == 0
    _assert_svg_matches_etree_reference(out / "fig4_g10_maxmap",
                                        "max C_ij, g = 10 J, tJ in [0, 90]", tmp_path,
                                        scale_max=0.5)


def test_modes_without_n_writes_nothing(tmp_path, capsys):
    out = tmp_path / "r"
    assert cli_main(["modes", "--out", str(out)]) == 2
    assert "missing required key 'n'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("g", ["0", "-1", "nan", "1e308"])
def test_fig4_rejects_non_positive_coupling(tmp_path, capsys, g):
    out = tmp_path / "r"
    assert cli_main(["fig4", "--g-over-j", g, "--out", str(out)]) == 2
    assert "config error: --g-over-j" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["fig3", "--snapshot-times", "314159.27"], "--snapshot-times"),
    (["fig3", "--snapshot-times", "6.283185307179586,998.1"], "--snapshot-times"),
    (["fig4", "--g-over-j", "1e5"], "--g-over-j"),
    (["fig4", "--g-over-j", "11110"], "--g-over-j"),
], ids=" ".join)
def test_preset_energy_times_beyond_the_bound_are_config_errors(tmp_path, capsys, argv, flag):
    # (2J + g) * t: 1002 * 998.1 and 11112 * 90 just exceed 1e6; 1002 * 998 and 11111 * 90 do not
    out = tmp_path / "r"
    assert cli_main([*argv, "--out", str(out)]) == 2
    assert f"config error: {flag}: max|E| * t must be at most 1e+06" in capsys.readouterr().err
    assert not out.exists()


def test_fig3_bound_set_in_the_config_cites_its_line(tmp_path, capsys):
    cfg = tmp_path / "f3.cfg"
    cfg.write_text("snapshot_times = 314159.27\n")
    out = tmp_path / "r"
    assert cli_main(["fig3", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: line 1: max|E| * t must be at most 1e+06" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("g_list", ["0.1, -1", "0.001, 0.0010000001"])
def test_sweep_rejects_bad_g_list(tmp_path, capsys, g_list):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 9\ng_list = {g_list}\nt_max = 10\nsamples = 16\n")
    out = tmp_path / "s"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("times", ["-3", "6.2831853,6.28318531"])
@pytest.mark.parametrize("given", ["file", "flag"])
def test_fig3_rejects_bad_snapshot_times(tmp_path, capsys, times, given):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"snapshot_times = {times}\n" if given == "file" else "")
    out = tmp_path / "r"
    extra = ["--snapshot-times", times] if given == "flag" else []
    assert cli_main(["fig3", "--config", str(cfg), "--out", str(out), *extra]) == 2
    where = "line 1" if given == "file" else "--snapshot-times"
    assert f"config error: {where}: snapshot_times entries must" in capsys.readouterr().err
    assert not out.exists()


def test_presets_ignore_pairs_and_x0_without_n(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pairs = 2:5\nx0 = 3\n")
    assert cli_main(["fig2", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["fig2", "--out", str(tmp_path / "b")]) == 0
    written = _tree(tmp_path / "a")
    assert written and written == _tree(tmp_path / "b")


def test_pairs_are_checked_once_n_is_set(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 9\ng = 0.5\npairs = 2:10\n")
    out = tmp_path / "r"
    assert cli_main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 3: invalid pair 2:10 for n = 9" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_failed_row(tmp_path, capsys, monkeypatch):
    compute, build = experiments.compute_series, experiments.make_propagator

    def fail_at_g1(method, params):
        if params.coupling == 1.0:
            raise FloatingPointError("forced failure")
        return build(method, params)

    monkeypatch.setattr(experiments, "make_propagator", fail_at_g1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 9\ng_list = 0.1, 1\nt_max = 10\nsamples = 16\npairs = 2:5\n")
    out = tmp_path / "s"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "error: spec g=1 failed: forced failure" in captured.err
    assert captured.out == (f"wrote {out / 'sweep_g0.1_series.csv'}\n"
                            f"wrote {out / 'sweep_summary.csv'}\n")
    ok = compute(ExperimentSpec(name="g0.1", params=ModelParams(9, coupling=0.1), x0=5,
                                grid=TimeGrid(0.0, 10.0, 16), pairs=((2, 5),)))
    assert (out / "sweep_summary.csv").read_bytes() == (
        "g_over_j,max_entropy,max_pi_f,status\n"
        f"0.10000000000000001,{ok.entropy.max():.17g},{ok.pi_f.max():.17g},ok\n"
        "1,nan,nan,failed\n").encode()
    assert (out / "sweep_g0.1_series.csv").exists()
    assert not (out / "sweep_g1_series.csv").exists()


@pytest.mark.parametrize("command, line, flags", [
    ("evolve", "g = 1e308", []),
    ("evolve", "g = 8e307", []),
    ("evolve", "g = 1e160", ["--method", "dense"]),
    ("evolve", "omega_a = -1e200", []),
    ("modes", "j = 1e151", []),
    ("sweep", "g_list = 1, 1e308", []),
], ids=["g1e308", "g8e307", "dense-g1e160", "omega_a", "j", "g_list"])
def test_energy_beyond_the_bound_is_config_error(tmp_path, capsys, command, line, flags):
    # each of these once exited 0 with NaN or zero output, or failed after writing
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 11\n{line}\nsamples = 16\nt_max = 10\n")
    out = tmp_path / "r"
    assert cli_main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
    key = line.split()[0]
    assert f"config error: line 2: {key} must be at most 1e+150 in magnitude" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_hopping_below_the_energy_bound_is_config_error(tmp_path, capsys):
    # the dense oracle's matrix norm underflowed at j = 1e-200: it returned pi_a = 1 at every t
    cfg = tmp_path / "run.cfg"
    series = {}
    for method in ("analytic", "dense"):
        cfg.write_text("n = 6\nj = 1e-200\ng = 1e-200\nt_max = 1e205\nsamples = 5\npairs = 2:5\n")
        out = tmp_path / method
        assert cli_main(["evolve", "--config", str(cfg), "--method", method,
                         "--out", str(out)]) == 2
        assert "config error: line 2: j must be at least 1e-150, got 1e-200" in (
            capsys.readouterr().err)
        assert not out.exists()
        # the smallest hopping still runs, and the two methods agree
        cfg.write_text("n = 6\nj = 1e-150\ng = 1e-150\nt_max = 1e155\nsamples = 5\npairs = 2:5\n")
        assert cli_main(["evolve", "--config", str(cfg), "--method", method,
                         "--out", str(out)]) == 0
        series[method] = io.read_csv(out / "evolve_series.csv")[1]
    assert np.array_equal(series["analytic"][:, 0], series["dense"][:, 0])
    assert np.abs(series["analytic"] - series["dense"])[:, 1:].max() <= 1e-10
    assert series["dense"][1:, 2].min() < 0.9  # the excitation leaves the atom


def test_fig3_snapshot_time_that_overflows_writes_nothing(tmp_path, capsys):
    out = tmp_path / "r"
    assert cli_main(["fig3", "--snapshot-times", "6.283185307179586,1e306",
                     "--out", str(out)]) == 3
    assert "error: snapshot time 1e+306/J is too large" in capsys.readouterr().err
    assert not out.exists()


_IMPORTS = """
import sys
from jchsim.cli import cli_main
out, cfg = sys.argv[1], sys.argv[2]
for argv in (["fig4", "--g-over-j", "10"], ["evolve", "--config", cfg, "--method", "analytic"],
             ["evolve", "--config", cfg, "--method", "dense"]):
    assert cli_main([*argv, "--out", out]) == 0, argv
print(" ".join(m for m in ("concurrent.futures", "numpy.ma") if m in sys.modules))
"""


def test_commands_import_neither_futures_nor_numpy_ma(tmp_path):
    # importing concurrent.futures (with logging) costs a pooled command 7-9 ms, and
    # numpy.ma, which np.unique imports, costs fig4 15-18 ms; 600 samples make 2 chunks
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 12\ng = 1\nsamples = 600\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _IMPORTS, str(tmp_path / "out"), str(cfg)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    assert done.stdout.splitlines()[-1] == ""
