import xml.etree.ElementTree as ET

import numpy as np
import pytest

import svg_reference as ref
from jchsim.svg import _tick_positions, ramp_colors, render_heatmap_svg, render_lines_svg


def test_ramp_endpoints_and_clipping():
    assert ramp_colors(0.0, 0.25) == "#080828"
    assert ramp_colors(0.25, 0.25) == "#fffac8"
    assert ramp_colors(9.0, 0.25) == ramp_colors(0.25, 0.25)
    assert ramp_colors(-1.0, 0.25) == ramp_colors(0.0, 0.25)
    assert ramp_colors(0.125, 0.25) == "#c85014"


def test_heatmap_is_valid_xml(tmp_path):
    values = np.zeros((5, 5))
    path = tmp_path / "map.svg"
    render_heatmap_svg(values, path, title="zeros")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


def test_all_zero_map_uniform_darkest(tmp_path):
    path = tmp_path / "zeros.svg"
    render_heatmap_svg(np.zeros((4, 4)), path)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    darkest = ramp_colors(0.0, 0.25)
    # the 16 grid cells (fractional coordinates) are all darkest
    cells = [r for r in root.iter(f"{ns}rect")
             if r.get("width") == r.get("height") and "." in r.get("x")]
    assert len(cells) == 16
    assert all(r.get("fill") == darkest for r in cells)


def test_symmetric_map_renders_symmetric(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 0.25, size=(6, 6))
    values = (values + values.T) / 2
    path = tmp_path / "sym.svg"
    render_heatmap_svg(values, path)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    cells = [r for r in root.iter(f"{ns}rect")
             if r.get("width") == r.get("height") and "." in r.get("x")]
    assert len(cells) == 36
    xs = sorted({float(r.get("x")) for r in cells})
    ys = sorted({float(r.get("y")) for r in cells}, reverse=True)  # site 1 at bottom
    fill = {(ys.index(float(r.get("y"))), xs.index(float(r.get("x")))): r.get("fill")
            for r in cells}
    for i in range(6):
        for j in range(6):
            assert fill[(i, j)] == fill[(j, i)]


def test_heatmap_rejects_bad_scale(tmp_path):
    with pytest.raises(ValueError):
        render_heatmap_svg(np.zeros((3, 3)), tmp_path / "x.svg", scale_max=0.0)


def test_heatmap_deterministic(tmp_path):
    values = np.arange(9.0).reshape(3, 3) / 40.0
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_heatmap_svg(values, a)
    render_heatmap_svg(values, b)
    assert a.read_bytes() == b.read_bytes()


def test_lines_svg(tmp_path):
    times = np.linspace(0.0, 10.0, 50)
    path = tmp_path / "lines.svg"
    render_lines_svg(times, [("S", np.sin(times) ** 2), ("Pi_a", np.cos(times) ** 2)],
                     path, title="demo")
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = list(root.iter(f"{ns}polyline"))
    assert len(polylines) == 2
    labels = [t.text for t in root.iter(f"{ns}text")]
    assert "S" in labels and "Pi_a" in labels


def test_lines_svg_needs_two_samples(tmp_path):
    with pytest.raises(ValueError):
        render_lines_svg(np.array([1.0]), [("S", np.array([0.5]))], tmp_path / "x.svg")


def _assert_heatmap_bytes(tmp_path, values, **kwargs):
    new, old = tmp_path / "new.svg", tmp_path / "old.svg"
    render_heatmap_svg(values, new, **kwargs)
    ref.render_heatmap_svg(values, old, **kwargs)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("n", [1, 2, 7, 10, 11, 12, 101, 201])
def test_heatmap_bytes_match_etree_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    values = rng.uniform(-0.1, 0.4, size=(n, n))  # below 0 and above scale_max
    special = [np.inf, -np.inf, 0.125, 0.0, 0.25]  # 0.125 = 0.5 * scale_max
    values.flat[:len(special)] = special[:n * n]
    _assert_heatmap_bytes(tmp_path, values, title=f"N = {n}")


@pytest.mark.parametrize("n, ticks", [
    (10, list(range(1, 11))),
    (11, [1, 3, 5, 7, 9, 11]),
    (12, [1, 3, 5, 7, 9, 11, 12]),  # the step skips N, which is appended
    (201, [1, 41, 81, 121, 161, 201]),
])
def test_tick_labels_start_at_1_and_end_at_n(n, ticks):
    assert _tick_positions(n) == ticks


@pytest.mark.parametrize("scale_max, title", [
    (0.25, ""),
    (0.5, 'g/J = 10 <&> "quoted"'),
    (1.0 / 3.0, "π ≥ 0 & C_ij < 1"),
])
def test_heatmap_bytes_match_etree_reference_scale_and_title(tmp_path, scale_max, title):
    values = np.random.default_rng(7).uniform(-0.2, 1.2, size=(7, 7)) * scale_max
    _assert_heatmap_bytes(tmp_path, values, scale_max=scale_max, title=title)


def test_heatmap_bytes_match_etree_reference_at_the_smallest_scale(tmp_path):
    # value / scale_max overflows to +-inf, which clips to the end colours
    values = np.random.default_rng(7).uniform(-0.2, 1.2, size=(7, 7))
    _assert_heatmap_bytes(tmp_path, values, scale_max=5e-324)


def test_heatmap_bytes_match_etree_reference_on_channel_half_points(tmp_path):
    scale_max = 0.25
    m = np.arange(46 * 46)
    values = (m / 2048 * scale_max).reshape(46, 46)  # u = m / 2048, exactly
    u = np.minimum(m / 2048, 1.0)
    upper = u >= 0.5
    w = np.where(upper, (u - 0.5) * 2.0, u * 2.0)
    ramp = np.array(ref._RAMP, dtype=float)
    lo, hi = ramp[upper.astype(int)], ramp[upper.astype(int) + 1]
    channels = lo + (hi - lo) * w[:, None]
    assert np.count_nonzero(channels % 1.0 == 0.5) > 50  # the case is exercised
    _assert_heatmap_bytes(tmp_path, values, scale_max=scale_max)


@pytest.mark.parametrize("title", ["", "demo & <x>", "N=9, g=0.5J"])
def test_lines_bytes_match_etree_reference(tmp_path, title):
    times = np.linspace(0.0, 12.5, 301)
    labels = ["S", "Pi_a", "C_2_5", "", "a & b", "<c>", "C_9_12"]  # 7 wraps the colours
    curves = [(label, np.sin((k + 1) * times) * (0.5 + 0.1 * k) - 0.05 * k)
              for k, label in enumerate(labels)]
    new, old = tmp_path / "new.svg", tmp_path / "old.svg"
    render_lines_svg(times, curves, new, title=title)
    ref.render_lines_svg(times, curves, old, title=title)
    assert new.read_bytes() == old.read_bytes()


def test_array_ramp_equals_scalar_ramp():
    rng = np.random.default_rng(20241018)
    scale_max = 0.25
    values = rng.uniform(-0.5, 1.5, 100_000) * scale_max
    values[:4] = [np.inf, -np.inf, 0.0, 0.5 * scale_max]
    colours = ramp_colors(values, scale_max).tolist()
    assert colours == [ref.ramp_color(v, scale_max) for v in values.tolist()]
    every_50th = slice(None, None, 50)  # a scalar costs one numpy pass per call
    assert [ramp_colors(v, scale_max) for v in values[every_50th]] == colours[every_50th]


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4,), (0, 0)], ids=str)
def test_heatmap_rejects_non_square(tmp_path, shape):
    path = tmp_path / "x.svg"
    with pytest.raises(ValueError):
        render_heatmap_svg(np.zeros(shape), path)
    assert not path.exists()


def test_heatmap_rejects_nan(tmp_path):
    values = np.zeros((3, 3))
    values[1, 2] = np.nan
    path = tmp_path / "x.svg"
    with pytest.raises(ValueError):
        render_heatmap_svg(values, path)
    assert not path.exists()


@pytest.mark.parametrize("value, colour", [(np.inf, "#fffac8"), (-np.inf, "#080828")])
def test_heatmap_infinities_clip_to_end_colours(tmp_path, value, colour):
    path = tmp_path / "x.svg"
    render_heatmap_svg(np.array([[value]]), path)
    ns = "{http://www.w3.org/2000/svg}"
    cells = [r for r in ET.parse(path).getroot().iter(f"{ns}rect")
             if r.get("width") == r.get("height") and "." in r.get("x")]
    assert [r.get("fill") for r in cells] == [colour]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["times", "curve"])
def test_lines_svg_rejects_non_finite(tmp_path, bad, where):
    times = np.linspace(0.0, 1.0, 5)
    vals = np.linspace(0.0, 0.5, 5)
    if where == "times":
        times[2] = bad
    else:
        vals[2] = bad
    path = tmp_path / "x.svg"
    with pytest.raises(ValueError):
        render_lines_svg(times, [("S", np.ones(5)), ("Pi_a", vals)], path)
    assert not path.exists()


def test_lines_svg_rejects_equal_end_times(tmp_path):
    path = tmp_path / "x.svg"
    with pytest.raises(ValueError):
        render_lines_svg(np.array([2.0, 2.0]), [("S", np.array([0.1, 0.2]))], path)
    assert not path.exists()


@pytest.mark.parametrize("length", [3, 9])
def test_lines_svg_rejects_misaligned_curve(tmp_path, length):
    path = tmp_path / "x.svg"
    with pytest.raises(ValueError, match="'Pi_a'"):
        render_lines_svg(np.linspace(0.0, 1.0, 5),
                         [("S", np.ones(5)), ("Pi_a", np.linspace(0.0, 0.5, length))], path)
    assert not path.exists()
