from pathlib import Path

import numpy as np
import pytest

import svg_reference
from jchsim import io
from jchsim.cli import cli_main


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
    headers, data = io.read_series_csv(out / "evolve_series.csv")
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
    headers, data = io.read_series_csv(tmp_path / "fig2_series.csv")
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
    values = io.read_map_csv(csvs[0])
    assert values.shape == (101, 101)
    assert np.array_equal(values, values.T)


def _assert_svg_matches_etree_reference(stem, title, tmp_path):
    """The CLI's heatmap SVG equals the ElementTree reference's rendering of
    the map CSV written beside it (17 digits round-trip the values exactly)."""
    values = io.read_map_csv(f"{stem}.csv")
    rewritten = tmp_path / "rewritten.csv"
    io.write_map_csv(values, rewritten)
    assert rewritten.read_bytes() == Path(f"{stem}.csv").read_bytes()
    reference = tmp_path / "reference.svg"
    svg_reference.render_heatmap_svg(values, reference, scale_max=0.25, title=title)
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
    values = io.read_map_csv(out / "fig4_g10_maxmap.csv")
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
