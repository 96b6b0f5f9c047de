"""Test-only reference: the ElementTree SVG renderers that jchsim shipped
before its renderers built their markup as strings.

They are the oracle for byte-identical output. Apart from this docstring the
module is the shipped code, unchanged and independent of ``jchsim.svg``.
"""

import xml.etree.ElementTree as ET

import numpy as np

# dark-to-bright ramp: near-black, ember, pale yellow
_RAMP = [(8, 8, 40), (200, 80, 20), (255, 250, 200)]

_LINE_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def ramp_color(value: float, scale_max: float) -> str:
    """Linear dark-to-bright color over [0, scale_max]; higher values clip."""
    u = min(max(value / scale_max, 0.0), 1.0)
    if u < 0.5:
        lo, hi, w = _RAMP[0], _RAMP[1], u * 2.0
    else:
        lo, hi, w = _RAMP[1], _RAMP[2], (u - 0.5) * 2.0
    rgb = [round(a + (b - a) * w) for a, b in zip(lo, hi)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _tick_positions(n: int):
    """A handful of 1-based tick labels covering [1, n]."""
    if n <= 10:
        return list(range(1, n + 1))
    step = max(1, n // 5)
    ticks = list(range(1, n + 1, step))
    if ticks[-1] != n:
        ticks.append(n)
    return ticks


def render_heatmap_svg(values: np.ndarray, path, scale_max: float = 0.25, title: str = ""):
    """Render an N x N matrix as a cell grid with axes and a color bar.

    Site 1 sits at the lower-left corner; values at or above ``scale_max``
    clip to the brightest color.
    """
    if scale_max <= 0:
        raise ValueError("scale_max must be > 0")
    values = np.asarray(values)
    n = values.shape[0]
    plot = 560.0
    margin_l, margin_b, margin_t = 60.0, 50.0, 30.0
    bar_gap, bar_w = 30.0, 18.0
    width = margin_l + plot + bar_gap + bar_w + 60.0
    height = margin_t + plot + margin_b
    cell = plot / n

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(round(width)),
        height=str(round(height)),
        viewBox=f"0 0 {round(width)} {round(height)}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=str(round(width)),
                  height=str(round(height)), fill="white")
    if title:
        ET.SubElement(svg, "text", x=str(margin_l + plot / 2), y="20",
                      fill="black", **{"text-anchor": "middle", "font-size": "14"}).text = title

    for i in range(n):  # row i -> site i+1, drawn bottom-up
        y = margin_t + plot - (i + 1) * cell
        for j in range(n):
            ET.SubElement(
                svg, "rect",
                x=f"{margin_l + j * cell:.3f}", y=f"{y:.3f}",
                width=f"{cell:.3f}", height=f"{cell:.3f}",
                fill=ramp_color(float(values[i, j]), scale_max),
            )

    axis_style = {"font-size": "11", "fill": "black"}
    for site in _tick_positions(n):
        cx = margin_l + (site - 0.5) * cell
        cy = margin_t + plot - (site - 0.5) * cell
        ET.SubElement(svg, "text", x=f"{cx:.1f}", y=f"{margin_t + plot + 16:.1f}",
                      **{"text-anchor": "middle"}, **axis_style).text = str(site)
        ET.SubElement(svg, "text", x=f"{margin_l - 8:.1f}", y=f"{cy + 4:.1f}",
                      **{"text-anchor": "end"}, **axis_style).text = str(site)
    ET.SubElement(svg, "text", x=f"{margin_l + plot / 2:.1f}",
                  y=f"{margin_t + plot + 36:.1f}",
                  **{"text-anchor": "middle"}, **axis_style).text = "site j"
    ET.SubElement(svg, "text", x="16", y=f"{margin_t + plot / 2:.1f}",
                  transform=f"rotate(-90 16 {margin_t + plot / 2:.1f})",
                  **{"text-anchor": "middle"}, **axis_style).text = "site i"

    # color bar, bottom (0) to top (scale_max)
    bar_x = margin_l + plot + bar_gap
    steps = 64
    seg = plot / steps
    for s in range(steps):
        v = (s + 0.5) / steps * scale_max
        ET.SubElement(svg, "rect", x=f"{bar_x:.1f}",
                      y=f"{margin_t + plot - (s + 1) * seg:.3f}",
                      width=f"{bar_w:.1f}", height=f"{seg + 0.5:.3f}",
                      fill=ramp_color(v, scale_max))
    for frac in (0.0, 0.5, 1.0):
        ET.SubElement(svg, "text", x=f"{bar_x + bar_w + 6:.1f}",
                      y=f"{margin_t + plot - frac * plot + 4:.1f}",
                      **axis_style).text = f"{frac * scale_max:g}"

    ET.ElementTree(svg).write(path, encoding="unicode", xml_declaration=True)


def render_lines_svg(times, curves, path, title: str = ""):
    """Render labelled curves over a common time axis.

    ``curves`` is a sequence of (label, values) with values aligned to
    ``times``.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise ValueError("need at least two samples to plot")
    width, height = 720.0, 420.0
    margin_l, margin_r, margin_t, margin_b = 65.0, 20.0, 30.0, 50.0
    pw = width - margin_l - margin_r
    ph = height - margin_t - margin_b

    ymax = max(1e-30, max(float(np.max(vals)) for _, vals in curves))
    ymin = min(0.0, min(float(np.min(vals)) for _, vals in curves))
    t0, t1 = float(times[0]), float(times[-1])

    def sx(t):
        return margin_l + (t - t0) / (t1 - t0) * pw

    def sy(v):
        return margin_t + ph - (v - ymin) / (ymax - ymin) * ph

    svg = ET.Element(
        "svg", xmlns="http://www.w3.org/2000/svg",
        width=str(round(width)), height=str(round(height)),
        viewBox=f"0 0 {round(width)} {round(height)}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=str(round(width)),
                  height=str(round(height)), fill="white")
    if title:
        ET.SubElement(svg, "text", x=str(width / 2), y="20", fill="black",
                      **{"text-anchor": "middle", "font-size": "14"}).text = title
    ET.SubElement(svg, "rect", x=f"{margin_l}", y=f"{margin_t}", width=f"{pw}",
                  height=f"{ph}", fill="none", stroke="black")

    axis_style = {"font-size": "11", "fill": "black"}
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t0 + frac * (t1 - t0)
        v = ymin + frac * (ymax - ymin)
        ET.SubElement(svg, "text", x=f"{sx(t):.1f}", y=f"{margin_t + ph + 16:.1f}",
                      **{"text-anchor": "middle"}, **axis_style).text = f"{t:g}"
        ET.SubElement(svg, "text", x=f"{margin_l - 6:.1f}", y=f"{sy(v) + 4:.1f}",
                      **{"text-anchor": "end"}, **axis_style).text = f"{v:.3g}"
    ET.SubElement(svg, "text", x=f"{margin_l + pw / 2:.1f}", y=f"{height - 12:.1f}",
                  **{"text-anchor": "middle"}, **axis_style).text = "t J"

    for idx, (label, vals) in enumerate(curves):
        color = _LINE_COLORS[idx % len(_LINE_COLORS)]
        pts = " ".join(f"{sx(t):.2f},{sy(float(v)):.2f}" for t, v in zip(times, vals))
        ET.SubElement(svg, "polyline", points=pts, fill="none",
                      stroke=color, **{"stroke-width": "1.2"})
        lx = margin_l + pw - 150
        ly = margin_t + 16 + 16 * idx
        ET.SubElement(svg, "line", x1=f"{lx}", y1=f"{ly - 4}", x2=f"{lx + 24}",
                      y2=f"{ly - 4}", stroke=color, **{"stroke-width": "2"})
        ET.SubElement(svg, "text", x=f"{lx + 30}", y=f"{ly}", **axis_style).text = label

    ET.ElementTree(svg).write(path, encoding="unicode", xml_declaration=True)
