import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import svg_reference
from csv_reader import read_csv
from jchsim import dynamics, experiments, io
from jchsim.cli import cli_main, main
from jchsim.dynamics import TimeGrid
from jchsim.experiments import ExperimentSpec
from jchsim.model import ModelParams


def test_no_subcommand_is_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [([], 1), (["fig4", "--g-over", "-1e-5", "--out", "r"], 2)],
                         ids=["jchsim", "fig4 --g-over -1e-5"])
def test_main_exits_with_the_code_of_cli_main(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["jchsim", *argv])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == code
    assert [*tmp_path.iterdir()] == []


def test_unknown_flag_is_usage_error(capsys):
    assert cli_main(["fig2", "--frobnicate"]) == 1


def test_missing_n_is_config_error(tmp_path, capsys):
    assert cli_main(["modes", "--out", str(tmp_path)]) == 2
    assert "missing required key 'n'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "fig2"])
def test_explicit_n_zero_is_cited_like_any_bad_size(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 0\n")
    out = tmp_path / "r"
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: line 1: n must be >= 2, got 0\n"
    assert not out.exists()


def test_an_allocation_failure_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(method, params):  # sine_modes(10**6) asks numpy for 7.28 TiB
        raise MemoryError(f"no room for the basis of n = {params.n_cavities}")

    monkeypatch.setattr(experiments, "make_propagator", out_of_memory)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 1000000\ng = 0.5\n")
    out = tmp_path / "r"
    assert cli_main(["evolve", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "error: no room for the basis of n = 1000000\n")
    assert not out.exists()


@pytest.mark.parametrize("content, reason", [
    (None, "[Errno 2] No such file or directory: '{cfg}'"),
    (b"n = 5\n\xff\n", "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"),
], ids=["missing", "not-utf-8"])
def test_an_unreadable_config_is_a_runtime_error(tmp_path, capsys, content, reason):
    # an OSError, or a UnicodeDecodeError, which is a ValueError: neither is a config error
    cfg, out = tmp_path / "run.cfg", tmp_path / "r"
    if content is not None:
        cfg.write_bytes(content)
    assert cli_main(["modes", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"error: {reason.format(cfg=cfg)}\n")
    assert not out.exists()


def test_bad_config_line_number(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = two\n")
    assert cli_main(["modes", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["g 0.5", "= 0.5"])
def test_config_line_without_a_key_and_equals_sign_is_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 9\n{line}  # comment\n")
    out = tmp_path / "r"
    assert cli_main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: line 2: expected 'key = value', got '{line}  # comment'" in err
    assert not out.exists()


@pytest.mark.parametrize("line, flags, source", [
    ("t_max = 0", [], "line 2"),
    ("t_max = 10", ["--t-max", "0"], "--t-max"),
])
def test_evolve_with_zero_t_max_is_config_error(tmp_path, capsys, line, flags, source):
    # the plot needs a time axis; a sweep, which draws none, accepts t_max = 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 9\n{line}\n")
    out = tmp_path / "r"
    assert cli_main(["evolve", "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert (f"config error: {source}: evolve needs t_max > 0 for its plot"
            in capsys.readouterr().err)
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["fig4", "--g-over-j", "-1e-5"],
    ["evolve", "--t-max", "-1e-3"],
    ["fig4", "--g-over-j", "10", "--scale-max", "-1e-3"],
], ids=" ".join)
def test_negative_value_in_exponent_form_is_config_error(tmp_path, capsys, argv):
    # argparse took -1e-5 for an option and exited 1 with "expected one argument"
    flag = argv[-2]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 11\ng = 0.5\n")
    out = tmp_path / "r"
    assert cli_main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_a_flag_without_its_value_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["fig4", "--g-over-j"], ["fig4", "--g-over-j", "--out", "r"]):
        assert cli_main(argv) == 1
        assert "expected one argument" in capsys.readouterr().err
    assert [*tmp_path.iterdir()] == []


_FLOAT_VALUES = [  # argv, the flag its error cites
    (["fig4", "--g-over", "-1e-5"], "--g-over-j"),
    (["fig4", "--g-over-j", "10", "--scale", "-1e-3"], "--scale-max"),
    (["evolve", "--t-m", "-1e-3"], "--t-max"),
    (["evolve", "--t-max", "-inf"], "--t-max"),
    (["evolve", "--t-max", "-Infinity"], "--t-max"),
    (["evolve", "--t-max", "-nan"], "--t-max"),
]


@pytest.mark.parametrize("argv, flag", _FLOAT_VALUES,
                         ids=[" ".join(argv) for argv, _ in _FLOAT_VALUES])
def test_every_float_spelling_is_a_value_of_a_full_or_abbreviated_flag(tmp_path, capsys,
                                                                        argv, flag):
    # the abbreviated flags exited 1 with "expected one argument" for a negative value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 11\ng = 0.5\n")
    out = tmp_path / "r"
    assert cli_main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_other_text_starting_with_a_dash_needs_flag_equals_value(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 7\n")
    assert cli_main(["modes", "--config", str(cfg), "--out", "-dir"]) == 1
    assert "expected one argument" in capsys.readouterr().err
    assert [*tmp_path.iterdir()] == [cfg]
    assert cli_main(["modes", "--config", str(cfg), "--out=-dir"]) == 0
    assert (tmp_path / "-dir" / "modes.csv").exists()


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
    headers, data = read_csv(out / "evolve_series.csv")
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
    headers, data = read_csv(tmp_path / "fig2_series.csv")
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
    values = read_csv(csvs[0])[1][:, 1:]
    assert values.shape == (101, 101)
    assert np.array_equal(values, values.T)


def _assert_svg_matches_etree_reference(stem, title, tmp_path, scale_max=0.25):
    """The CLI's heatmap SVG equals the ElementTree reference's rendering of
    the map CSV written beside it (17 digits round-trip the values exactly)."""
    values = read_csv(f"{stem}.csv")[1][:, 1:]
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
    values = read_csv(out / "fig4_g10_maxmap.csv")[1][:, 1:]
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
    _, data = read_csv(out / "evolve_series.csv")
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


@pytest.mark.parametrize("g", ["1e-308", "5e-324"])
def test_fig4_refuses_a_coupling_whose_period_overflows(tmp_path, capsys, g):
    # pi/g is inf, so every snapped time would be NaN: refused before any file
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["fig4", "--g-over-j", g, "--out", str(out)]) == 2
    assert "config error: --g-over-j: pi/g overflows to inf" in capsys.readouterr().err
    assert not out.exists()


def test_fig4_runs_at_a_tiny_coupling_with_a_finite_period(tmp_path):
    # pi/g = 1.57e308 is finite: every time snaps to 0
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["fig4", "--g-over-j", "2e-308", "--out", str(out)]) == 0
    values = read_csv(out / "fig4_g2e-308_maxmap.csv")[1]
    assert np.all(np.isfinite(values))
    assert (out / "fig4_g2e-308_maxmap.svg").exists()


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


def test_a_sweep_over_the_bound_cites_its_first_coupling_over_it(tmp_path, capsys):
    # max|E| = 2J + g: 100002 * 50 comes first and is over; 10000002 * 50 is further over
    cfg, out = tmp_path / "run.cfg", tmp_path / "s"
    cfg.write_text("n = 11\ng_list = 1e5, 1e7\nt_max = 50\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: line 3: max|E| * t_max must be at most 1e+06, got 100002 * 50: "
        "the phases E t lose accuracy beyond it\n")
    assert not out.exists()


def test_a_preset_over_the_bound_cites_no_config_line(tmp_path, capsys, monkeypatch):
    # fig2 reads no time key, so the t_max line it ignores is not cited
    monkeypatch.setattr(experiments, "MAX_ENERGY_TIME", 1.0)
    cfg, out = tmp_path / "run.cfg", tmp_path / "r"
    cfg.write_text("t_max = 5\n")
    assert cli_main(["fig2", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: max|E| * t must be at most 1, got 2.001 * 12566.4: "
        "the phases E t lose accuracy beyond it\n")
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
        series[method] = read_csv(out / "evolve_series.csv")[1]
    assert np.array_equal(series["analytic"][:, 0], series["dense"][:, 0])
    assert np.abs(series["analytic"] - series["dense"])[:, 1:].max() <= 1e-10
    assert series["dense"][1:, 2].min() < 0.9  # the excitation leaves the atom


def test_dense_and_analytic_series_agree_where_g_dwarfs_j(tmp_path):
    # max|E| * t_max = 9.1e5: a Jacobi solve of the whole H left the dense series 1.5e-8 off
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 12\ng = 1.3e8\nt_max = 7e-3\nsamples = 600\n")
    series = {}
    for method in ("analytic", "dense"):
        assert cli_main(["evolve", "--config", str(cfg), "--method", method,
                         "--out", str(tmp_path / method)]) == 0
        series[method] = read_csv(tmp_path / method / "evolve_series.csv")[1]
    assert np.array_equal(series["analytic"][:, 0], series["dense"][:, 0])
    assert np.abs(series["analytic"] - series["dense"])[:, 1:].max() <= 1e-10


@pytest.mark.parametrize("command, text, files", [
    ("modes", "n = 5\nj = 1e150\n", ["modes.csv"]),  # modes evolves nothing
    ("evolve", "n = 11\ng_list = 1e5\ng = 1\nt_max = 50\nsamples = 16\n",
     ["evolve_plot.svg", "evolve_series.csv"]),
    ("sweep", "n = 11\ng = 1e5\ng_list = 1\nt_max = 50\nsamples = 16\n",
     ["sweep_g1_series.csv", "sweep_summary.csv"]),
], ids=["modes", "evolve-g_list", "sweep-g"])
def test_keys_a_command_does_not_evolve_do_not_trip_the_bound(tmp_path, command, text, files):
    # max|E| * t counts only what a command evolves: not g_list for evolve, g for sweep or
    # the default t_max for modes
    cfg, out = tmp_path / "run.cfg", tmp_path / "r"
    cfg.write_text(text)
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == files
    for name in files:
        if name.endswith(".csv") and name != "sweep_summary.csv":  # the summary has a status
            assert np.isfinite(read_csv(out / name)[1]).all(), name


def test_fig3_beyond_the_bound_evolves_nothing(tmp_path, capsys, monkeypatch):
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolved past the bound")

    monkeypatch.setattr(experiments, "make_propagator", no_evolution)
    monkeypatch.setattr(dynamics.AnalyticPropagator, "evolve", no_evolution)
    out = tmp_path / "r"
    assert cli_main(["fig3", "--snapshot-times", "6.283185307179586,998.1",
                     "--out", str(out)]) == 2
    assert "config error: --snapshot-times: max|E| * t must be at most 1e+06, got 1002 * 998.1" in (
        capsys.readouterr().err)
    assert not out.exists()


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
    assert _fresh_python(_IMPORTS, str(tmp_path / "out"), str(cfg))[-1] == ""


def test_importing_the_cli_loads_no_futures_logging_or_numpy_ma():
    # the chunk pool is plain threads; any of the three would add to every command's setup_s
    code = ("import sys, jchsim.cli\nprint(' '.join(m for m in ('concurrent.futures', "
            "'logging', 'numpy.ma') if m in sys.modules))")
    assert _fresh_python(code) == [""]


def _fresh_python(code, *args):
    """The stdout lines of ``code`` run in a new interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout.splitlines()
