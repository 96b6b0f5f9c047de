"""Dependency-free SVG rendering: concurrence heatmaps and observable line plots.

SVG keeps the artifacts diffable and testable (valid XML, deterministic
output) without pulling in a plotting stack. Each renderer formats its whole
document as one string and writes it in one call; no XML library is involved.
The markup is fixed: element and attribute order, number formats, text
escaping (``&``, ``<``, ``>``) and the ``<?xml version='1.0'
encoding='utf-8'?>`` declaration. The same input therefore always gives the
same bytes, and those bytes must not change between releases.
"""

import numpy as np

# dark-to-bright ramp: near-black, ember, pale yellow
_RAMP = np.array([(8, 8, 40), (200, 80, 20), (255, 250, 200)])

_LINE_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_AXIS = 'font-size="11" fill="black"'


def ramp_colors(values, scale_max: float):
    """Array form of the dark-to-bright ramp over [0, scale_max].

    Returns the ``#rrggbb`` colour of every value (a str for a scalar, an
    object array otherwise). Values outside the range, ±inf included, clip
    to the end colours; NaN raises ``ValueError``.
    """
    u = np.asarray(values, dtype=float) / scale_max
    if np.isnan(u).any():
        raise ValueError("cannot colour a NaN value")
    u = np.clip(u, 0.0, 1.0)
    upper = (u >= 0.5).astype(int)
    w = np.where(upper, (u - 0.5) * 2.0, u * 2.0)[..., None]
    lo, hi = _RAMP[upper], _RAMP[upper + 1]
    rgb = np.round(lo + (hi - lo) * w).astype(int) @ [0x10000, 0x100, 1]
    codes, inverse = np.unique(rgb, return_inverse=True)  # each distinct colour is named once
    names = np.array([f"#{code:06x}" for code in codes.tolist()], dtype=object)
    return names[inverse]


def _escape(text: str) -> str:
    """Escape character data as XML text content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(attrs: str, content: str) -> str:
    """A text element; empty content gives a self-closed ``<text ... />``."""
    if not content:
        return f"<text {attrs} />"
    return f"<text {attrs}>{_escape(content)}</text>"


def _head(width: float, height: float, title: str, title_x: float) -> str:
    """Declaration, root element, white background and optional title."""
    w, h = round(width), round(height)
    head = ("<?xml version='1.0' encoding='utf-8'?>\n"
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">'
            f'<rect x="0" y="0" width="{w}" height="{h}" fill="white" />')
    if title:
        head += _text(f'x="{title_x}" y="20" fill="black" text-anchor="middle" '
                      'font-size="14"', title)
    return head


def _write(path, parts):
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write("".join(parts) + "</svg>")


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
    clip to the brightest color. A non-square or empty array, a NaN value or
    a ``scale_max`` that is not finite and positive raises ``ValueError``
    before the file is opened.
    """
    if not (np.isfinite(scale_max) and scale_max > 0):
        raise ValueError("scale_max must be finite and > 0")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] == 0:
        raise ValueError(f"heatmap needs a non-empty N x N array, got shape {values.shape}")
    n = values.shape[0]
    plot = 560.0
    margin_l, margin_b, margin_t = 60.0, 50.0, 30.0
    bar_gap, bar_w = 30.0, 18.0
    width = margin_l + plot + bar_gap + bar_w + 60.0
    height = margin_t + plot + margin_b
    cell = plot / n

    fills = ramp_colors(values, scale_max).tolist()
    steps = 64
    bar_fills = ramp_colors((np.arange(steps) + 0.5) / steps * scale_max, scale_max)

    parts = [_head(width, height, title, margin_l + plot / 2)]
    # row i -> site i+1, drawn bottom-up: the row's y joins the pieces into its template
    pieces = "".join(f'<rect x="{margin_l + j * cell:.3f}" y="\0" width="{cell:.3f}" '
                     f'height="{cell:.3f}" fill="%s" />' for j in range(n)).split("\0")
    for i, row_fills in enumerate(fills):
        parts.append(f"{margin_t + plot - (i + 1) * cell:.3f}".join(pieces) % tuple(row_fills))

    for site in _tick_positions(n):
        cx = margin_l + (site - 0.5) * cell
        cy = margin_t + plot - (site - 0.5) * cell
        parts.append(_text(f'x="{cx:.1f}" y="{margin_t + plot + 16:.1f}" '
                           f'text-anchor="middle" {_AXIS}', str(site)))
        parts.append(_text(f'x="{margin_l - 8:.1f}" y="{cy + 4:.1f}" '
                           f'text-anchor="end" {_AXIS}', str(site)))
    parts.append(_text(f'x="{margin_l + plot / 2:.1f}" y="{margin_t + plot + 36:.1f}" '
                       f'text-anchor="middle" {_AXIS}', "site j"))
    parts.append(_text(f'x="16" y="{margin_t + plot / 2:.1f}" '
                       f'transform="rotate(-90 16 {margin_t + plot / 2:.1f})" '
                       f'text-anchor="middle" {_AXIS}', "site i"))

    # color bar, bottom (0) to top (scale_max)
    bar_x = margin_l + plot + bar_gap
    seg = plot / steps
    for s in range(steps):
        parts.append(f'<rect x="{bar_x:.1f}" y="{margin_t + plot - (s + 1) * seg:.3f}" '
                     f'width="{bar_w:.1f}" height="{seg + 0.5:.3f}" fill="{bar_fills[s]}" />')
    for frac in (0.0, 0.5, 1.0):
        parts.append(_text(f'x="{bar_x + bar_w + 6:.1f}" '
                           f'y="{margin_t + plot - frac * plot + 4:.1f}" {_AXIS}',
                           f"{frac * scale_max:g}"))

    _write(path, parts)


def render_lines_svg(times, curves, path, title: str = ""):
    """Render labelled curves over a common time axis.

    ``curves`` is a sequence of (label, values) with values aligned to
    ``times``. Fewer than two samples, a curve with not one value per time,
    equal first and last times, or a non-finite time or value raises
    ``ValueError`` before the file is opened.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise ValueError("need at least two samples to plot")
    curves = [(label, np.asarray(vals, dtype=float)) for label, vals in curves]
    for label, vals in curves:
        if vals.shape != times.shape:
            raise ValueError(f"curve {label!r} has shape {vals.shape}, times {times.shape}")
    if not (np.isfinite(times).all() and all(np.isfinite(v).all() for _, v in curves)):
        raise ValueError("cannot plot non-finite times or values")
    width, height = 720.0, 420.0
    margin_l, margin_r, margin_t, margin_b = 65.0, 20.0, 30.0, 50.0
    pw = width - margin_l - margin_r
    ph = height - margin_t - margin_b

    ymax = max(1e-30, max(float(np.max(vals)) for _, vals in curves))
    ymin = min(0.0, min(float(np.min(vals)) for _, vals in curves))
    t0, t1 = float(times[0]), float(times[-1])
    if t0 == t1:
        raise ValueError("the first and last times must differ")

    def sx(t):
        return margin_l + (t - t0) / (t1 - t0) * pw

    def sy(v):
        return margin_t + ph - (v - ymin) / (ymax - ymin) * ph

    parts = [_head(width, height, title, width / 2),
             f'<rect x="{margin_l}" y="{margin_t}" width="{pw}" height="{ph}" '
             'fill="none" stroke="black" />']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t0 + frac * (t1 - t0)
        v = ymin + frac * (ymax - ymin)
        parts.append(_text(f'x="{sx(t):.1f}" y="{margin_t + ph + 16:.1f}" '
                           f'text-anchor="middle" {_AXIS}', f"{t:g}"))
        parts.append(_text(f'x="{margin_l - 6:.1f}" y="{sy(v) + 4:.1f}" '
                           f'text-anchor="end" {_AXIS}', f"{v:.3g}"))
    parts.append(_text(f'x="{margin_l + pw / 2:.1f}" y="{height - 12:.1f}" '
                       f'text-anchor="middle" {_AXIS}', "t J"))

    xs = [f"{x:.2f}," for x in sx(times).tolist()]
    for idx, (label, vals) in enumerate(curves):
        color = _LINE_COLORS[idx % len(_LINE_COLORS)]
        pts = " ".join([x + f"{y:.2f}" for x, y in zip(xs, sy(vals).tolist())])
        lx = margin_l + pw - 150
        ly = margin_t + 16 + 16 * idx
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.2" />')
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2" />')
        parts.append(_text(f'x="{lx + 30}" y="{ly}" {_AXIS}', label))

    _write(path, parts)
