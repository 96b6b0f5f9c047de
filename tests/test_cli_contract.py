"""The CLI contract on generated configs of every subcommand.

Whatever the config holds, a command exits 0, 1 (usage error), 2 (config
error) or 3 (runtime error) and raises no warning; stdout names exactly the
files written, one 'wrote' line each; an error leaves no file behind, except
that a sweep some of whose couplings fail writes the others' series and a
summary with a `failed` row for each failure, and exits 3; and every number
written is finite, the failed rows' NaN aside.  An exact `evolve` that
succeeds succeeds with the other exact method too, at the same times and with
pi_a and every concurrence within 1e-10.  Energies and times are drawn at any
magnitude from 1e-300 up to the largest double, zero and negative included,
and the `evolve` search is steered toward successful runs at ever larger
energies, so the bounds of ``model``, ``io.validate`` and the presets are what
keeps NaN and inf out of the files.
"""

import contextlib
import io
import math
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, seed, settings, target
from hypothesis import strategies as st

from csv_reader import read_csv
from jchsim import experiments
from jchsim.cli import cli_main
from jchsim.dynamics import METHODS

_ENERGIES = ("j", "g", "omega_c", "omega_a")
_EXACT = ("analytic", "dense")

# any magnitude from 1e-300 to the largest double, its edges drawn often
_MAGNITUDES = st.one_of(
    st.sampled_from([1e-300, 1e-150, 1e150, 1e154, 1e300, 1e308, 1.7976931348623157e308]),
    st.builds(lambda exponent: 10.0**exponent, st.floats(-300.0, 308.25)),
)
_SIGNED = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda x: -x))
# any real: zero, moderate values and any magnitude, of either sign
_REALS = st.one_of(st.floats(-10.0, 10.0), _SIGNED)


def _mostly(draw, inside, anything):
    """A draw from ``inside``, mostly valid values, or one time in five from ``anything``."""
    return draw(draw(st.sampled_from([inside] * 4 + [anything])))


@st.composite
def _configs(draw):
    n = draw(st.integers(2, 24))
    keys = {
        "n": n,
        "j": _mostly(draw, st.one_of(st.just(1.0), _MAGNITUDES), _REALS),
        "g": _mostly(draw, st.one_of(st.just(0.0), _MAGNITUDES), _REALS),
        "omega_c": _mostly(draw, _SIGNED, _REALS),
        "omega_a": _mostly(draw, _SIGNED, _REALS),
    }
    # a rough spectral scale, so that t_max also lands on both sides of the max|E| * t bound
    scale = max(abs(keys["omega_c"]) + 2 * abs(keys["j"]), abs(keys["omega_a"])) + abs(keys["g"])
    near_bound = st.floats(-7.0, 0.1).map(lambda e: 10.0**e * 1e6 / (scale or 1.0))
    keys["t_max"] = _mostly(draw, near_bound, _REALS)
    keys["samples"] = draw(st.integers(2, 64))
    keys["method"] = draw(st.sampled_from(tuple(METHODS)))
    if draw(st.booleans()):
        keys["x0"] = _mostly(draw, st.integers(1, n), st.sampled_from([0, n + 1]))
    if draw(st.booleans()):
        i = draw(st.integers(1, n))
        j = _mostly(draw, st.integers(1, n - 1).map(lambda k: (i - 1 + k) % n + 1),
                    st.sampled_from([i, n + 1]))
        keys["pairs"] = f"{i}:{j}"
    return keys


def _run(argv, out):
    """cli_main(argv) with every warning an error: (exit code, the files written under out).

    Checks what holds for every command: the exit code is 0, 1, 2 or 3, stdout
    names exactly the files written, every CSV but the sweep summary holds
    finite numbers only, and every SVG coordinate and label is a finite number.
    """
    stdout = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
        warnings.simplefilter("error")
        code = cli_main(argv)
    assert code in (0, 1, 2, 3)
    written = sorted(path for path in out.rglob("*") if path.is_file()) if out.exists() else []
    lines = stdout.getvalue().splitlines()
    assert sorted(Path(line.removeprefix("wrote ")) for line in lines
                  if line.startswith("wrote ")) == written
    for path in written:
        if path.name == "sweep_summary.csv":  # its failed rows read nan; see the sweep test
            continue
        if path.suffix == ".csv":
            assert np.isfinite(read_csv(path)[1]).all(), path.name
        else:
            assert not re.search(r"nan|inf", path.read_text(), re.IGNORECASE), path.name
    return code, written


def _assert_the_other_exact_method_agrees(cfg, twin, out, method):
    """The other exact method on the same config: exit 0, the same times, pi_a and C to 1e-10.

    The entropy is left out of the bound: its slope is unbounded at pi_a -> 0 and 1.
    """
    other = _EXACT[1 - _EXACT.index(method)]
    assert cli_main(["evolve", "--config", str(cfg), "--out", str(twin), "--method", other]) == 0
    headers, first = read_csv(out / "evolve_series.csv")
    twin_headers, second = read_csv(twin / "evolve_series.csv")
    assert twin_headers == headers and headers[:2] == ["t_J", "entropy"]
    assert np.array_equal(second[:, 0], first[:, 0])
    assert np.isfinite(second).all()
    assert np.abs(second[:, 2:] - first[:, 2:]).max() <= 1e-10


@seed(20201018)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["evolve", "evolve", "modes"]), _configs())
@example("evolve", {"n": 7, "g": 1e-200, "t_max": 50, "samples": 9, "method": "dense"})
@example("evolve", {"n": 6, "j": 1e-150, "g": 1e-150, "t_max": 1e155, "samples": 5,
                    "method": "dense"})
@example("modes", {"n": 24, "j": 1e150, "g": 1e150, "omega_c": -1e150, "omega_a": 1e150,
                   "t_max": 0})
def test_exit_code_files_and_finite_output(tmp_path_factory, command, keys):
    root = tmp_path_factory.mktemp("contract")
    cfg, out = root / "run.cfg", root / "out"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    code, written = _run([command, "--config", str(cfg), "--out", str(out)], out)
    assert code in (0, 2, 3)
    if code != 0:
        assert written == []
        return
    assert written
    if command == "evolve" and keys["method"] in _EXACT:
        _assert_the_other_exact_method_agrees(cfg, root / "twin", out, keys["method"])
    # steer the search toward the largest energies that still run
    target(max(math.log10(abs(keys.get(key, 0.0)) or 1e-300) for key in _ENERGIES))


def _mostly_each(draw, inside, anything, least, most):
    """A list of ``least`` to ``most`` draws, each one from ``_mostly``."""
    return [_mostly(draw, inside, anything) for _ in range(draw(st.integers(least, most)))]


def _with_a_twin(draw, values):
    """``values`` one to a file name (``%g``), one time in four with an entry's twin appended.

    The twin is a copy at most 1e-9 off, so it names the same file, which ``io.validate``
    refuses.
    """
    values = [*{f"{x:g}": x for x in values}.values()]
    if draw(st.sampled_from([False, False, False, True])):
        twin = draw(st.sampled_from(values)) * draw(st.sampled_from([1.0, 1 + 1e-9, 1 - 1e-9]))
        values = [*values, twin]
    return values


def _listed(values) -> str:
    return ",".join(map(repr, values))


@st.composite
def _sweeps(draw):
    """A sweep config, at J = 1 and resonance, and the couplings made to fail.

    The size, samples, method, x0 and pairs are drawn as for `evolve`, t_max again
    on both sides of the bound of the largest coupling.
    """
    keys = {key: value for key, value in draw(_configs()).items()
            if key not in (*_ENERGIES, "t_max")}
    moderate = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)
    g_list = _with_a_twin(draw, _mostly_each(draw, moderate, _REALS, 1, 4))
    near_bound = st.floats(-7.0, 0.1).map(lambda e: 10.0**e * 1e6 / (2 + max(map(abs, g_list))))
    keys["g_list"], keys["t_max"] = _listed(g_list), _mostly(draw, near_bound, _REALS)
    fail = draw(st.sampled_from([set(), {g_list[0]}, set(g_list[1:])]))
    return keys, g_list, fail


def _assert_sweep_summary(out, written, g_list, code):
    """One summary row per coupling: ok with finite maxima and a series, or failed and none.

    Each coupling names a file of its own, whether it failed or not.
    """
    summary = out / "sweep_summary.csv"
    lines = summary.read_text().splitlines()
    assert lines[0] == "g_over_j,max_entropy,max_pi_f,status"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(row[0]) for row in rows] == g_list
    assert len({f"{g:g}" for g in g_list}) == len(g_list)
    series = []
    for g, entropy, pi_f, status in rows:
        if status == "ok":
            assert math.isfinite(float(entropy)) and math.isfinite(float(pi_f))
            series.append(out / f"sweep_g{float(g):g}_series.csv")
        else:
            assert (entropy, pi_f, status) == ("nan", "nan", "failed")
    assert written == sorted([summary, *series])
    assert code == (3 if len(series) < len(rows) else 0)


@seed(20201018)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sweeps())
def test_sweep_contract(tmp_path_factory, drawn):
    keys, g_list, fail = drawn
    root = tmp_path_factory.mktemp("sweep")
    cfg, out = root / "run.cfg", root / "out"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    build = experiments.make_propagator

    def failing(method, params):
        if params.coupling in fail:
            raise FloatingPointError("a coupling made to fail")
        return build(method, params)

    with mock.patch.object(experiments, "make_propagator", failing):
        code, written = _run(["sweep", "--config", str(cfg), "--out", str(out)], out)
    if written:  # an error exit writes no file, but a sweep's failed couplings
        _assert_sweep_summary(out, written, g_list, code)
    else:
        assert code != 0


@st.composite
def _snapshot_times(draw):
    """fig3's snapshot times, passed in the config or as --snapshot-times."""
    # multiples of pi/g (1e3) and any time up to about the bound's 998, off-resonant mostly
    inside = st.one_of(st.integers(0, 320_000).map(lambda k: k * math.pi / 1e3),
                       st.floats(0.0, 1000.0))
    # beyond ~1.8e305, t * g overflows, which exits 3 before the bound
    anything = st.one_of(st.sampled_from([1e306, 1.7e308]), _REALS)
    times = _with_a_twin(draw, _mostly_each(draw, inside, anything, 1, 3))
    return _listed(times), draw(st.booleans())


@seed(20201018)
@settings(max_examples=15, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_snapshot_times())
@example((repr(1e306), True))
def test_fig3_contract(tmp_path_factory, drawn):
    times, by_flag = drawn
    root = tmp_path_factory.mktemp("fig3")
    cfg, out = root / "run.cfg", root / "out"
    cfg.write_text("" if by_flag else f"snapshot_times = {times}\n")
    flags = [f"--snapshot-times={times}"] if by_flag else []
    code, written = _run(["fig3", "--config", str(cfg), "--out", str(out), *flags], out)
    assert code == 0 or written == []
    if code == 0:
        assert len(written) == 2 * len(times.split(","))


@st.composite
def _fig4_args(draw):
    """fig4's --g-over-j and scale_max, the latter in the config, as a flag or not at all."""
    # the snapped grid's bound falls between 11109 and 11110; pi/g overflows below ~1.7e-308
    g = _mostly(draw, st.one_of(st.sampled_from([11109.0, 11110.0, 2e-308, 1e-308]),
                                st.floats(-2.0, 4.1).map(lambda e: 10.0**e)),
                st.one_of(_REALS, st.sampled_from([math.inf, -math.inf, math.nan, 5e-324])))
    scale_max = draw(st.one_of(st.floats(0.01, 1.0), _REALS, st.sampled_from([math.inf, math.nan])))
    return g, scale_max, draw(st.sampled_from(["file", "flag", None]))


@seed(20201018)
@settings(max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fig4_args())
@example((1e-308, 0.25, None))  # pi/g overflows, where the grid would be NaN
def test_fig4_contract(tmp_path_factory, drawn):
    g, scale_max, given_as = drawn
    root = tmp_path_factory.mktemp("fig4")
    cfg, out = root / "run.cfg", root / "out"
    cfg.write_text(f"scale_max = {scale_max!r}\n" if given_as == "file" else "")
    flags = [f"--scale-max={scale_max!r}"] if given_as == "flag" else []
    code, written = _run(["fig4", f"--g-over-j={g!r}", "--config", str(cfg), "--out", str(out),
                          *flags], out)
    assert code == 0 or written == []
    if code == 0:
        assert [path.suffix for path in written] == [".csv", ".svg"]
