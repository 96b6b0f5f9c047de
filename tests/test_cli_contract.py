"""The CLI contract on generated `evolve` and `modes` configs.

Whatever the config holds, a command exits 0, 2 (config error) or 3
(runtime error); an error leaves no file behind, and a success writes only
finite numbers.  Energies and times are drawn at any magnitude from 1e-300
up to the largest double, zero and negative included, and the search is
steered toward successful runs at ever larger energies, so the bounds of
``model`` and ``io.validate`` are what keeps NaN and inf out of the files.
"""

import math
import re

import numpy as np
from hypothesis import HealthCheck, example, given, seed, settings, target
from hypothesis import strategies as st

from jchsim import io
from jchsim.cli import cli_main

_METHODS = ("analytic", "dense", "weak", "strong")
_ENERGIES = ("j", "g", "omega_c", "omega_a")

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
    keys["method"] = draw(st.sampled_from(_METHODS))
    if draw(st.booleans()):
        keys["x0"] = _mostly(draw, st.integers(1, n), st.sampled_from([0, n + 1]))
    if draw(st.booleans()):
        i = draw(st.integers(1, n))
        j = _mostly(draw, st.integers(1, n - 1).map(lambda k: (i - 1 + k) % n + 1),
                    st.sampled_from([i, n + 1]))
        keys["pairs"] = f"{i}:{j}"
    return keys


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
    code = cli_main([command, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2, 3)
    written = sorted(path for path in out.rglob("*") if path.is_file()) if out.exists() else []
    if code != 0:
        assert written == []
        return
    assert written
    for path in written:
        if path.suffix == ".csv":
            assert np.isfinite(io.read_csv(path)[1]).all(), path.name
        else:  # an SVG: every coordinate and label is a finite number
            assert not re.search(r"nan|inf", path.read_text(), re.IGNORECASE), path.name
    # steer the search toward the largest energies that still run
    target(max(math.log10(abs(keys.get(key, 0.0)) or 1e-300) for key in _ENERGIES))
