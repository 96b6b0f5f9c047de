"""Output checks for the benchmark, computed apart from jchsim.

The reference builds the single-excitation Hamiltonian itself and evolves
|e_x0> through ``numpy.linalg.eigh``; nothing here imports jchsim.  Each check
raises CheckFailed with a message naming the artifact and the first mismatch.

Reference comparisons (pi_a, C_ij, map values) run on seeded samples of rows;
the structural properties (entropy = h(pi_a), C_ij <= pi_a, symmetric maps
with a zero diagonal, dense = analytic, mirror pairs, SVG cell counts) run on
every row.
"""

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

# against the eigh reference; the exact propagators agree with it to ~1e-11
TOL = 1e-9
# between the two exact propagators (ROADMAP: analytic and dense agree to 1e-10)
ORACLE_TOL = 1e-10
# properties that hold to rounding: entropy = h(pi_a), C <= pi_a, symmetry
EXACT_TOL = 1e-12

_SVG = "{http://www.w3.org/2000/svg}"


class CheckFailed(Exception):
    """An artifact differs from the reference or breaks a required property."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def require_close(actual, expected, tol, what):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    require(actual.shape == expected.shape,
            f"{what}: shape {actual.shape}, expected {expected.shape}")
    if actual.size:
        diff = np.abs(actual - expected)
        worst = np.unravel_index(np.argmax(diff), diff.shape)
        require(diff[worst] <= tol, f"{what}: off by {diff[worst]:.3e} at {worst} (tol {tol:g})")


def chain_hamiltonian(n, g, hopping=1.0):
    """2N x 2N Hamiltonian: photon chain (-J hopping), atoms at 0, g on-site coupling."""
    h = np.zeros((2 * n, 2 * n))
    x = np.arange(n - 1)
    h[x, x + 1] = h[x + 1, x] = -hopping
    sites = np.arange(n)
    h[sites, n + sites] = h[n + sites, sites] = g
    return h


class Reference:
    """Atomic amplitudes of |e_x0>(t) from numpy.linalg.eigh of the full H."""

    def __init__(self, n, g, x0):
        energies, vectors = np.linalg.eigh(chain_hamiltonian(n, g))
        self.energies = energies
        self.overlap = vectors[n + x0 - 1].copy()
        self.atom_rows = np.ascontiguousarray(vectors[n:].T)

    def atomic(self, times):
        """Atomic amplitudes c_{a,x}(t), shape (len(times), N)."""
        phases = np.exp(-1j * np.multiply.outer(np.asarray(times, dtype=float), self.energies))
        return (phases * self.overlap) @ self.atom_rows


def binary_entropy(p):
    """-p log2 p - (1-p) log2(1-p), zero at the ends."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    inner = (p > 0.0) & (p < 1.0)
    q = np.where(inner, p, 0.5)
    return np.where(inner, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)


def center_site(n):
    return (n + 1) // 2


def sample_rows(rng, count, size):
    """Sorted sample of ``size`` row indices in [0, count), first and last included."""
    inner = rng.choice(np.arange(1, count - 1), size=min(size, count - 2), replace=False)
    return np.unique(np.concatenate(([0, count - 1], inner)))


def read_csv(path):
    """Header list and float array of a CSV artifact."""
    path = Path(path)
    require(path.is_file(), f"{path.name}: missing")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 2, f"{path.name}: no data rows")
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    require(data.ndim == 2 and data.shape[1] == len(rows[0]), f"{path.name}: ragged rows")
    require(np.isfinite(data).all(), f"{path.name}: non-finite values")
    return rows[0], data


def check_series_csv(path, ref, times, pairs, rows):
    """Series CSV: header, time column, properties on every row, reference at ``rows``."""
    name = Path(path).name
    headers, data = read_csv(path)
    expected = ["t_J", "entropy", "pi_a"] + [f"C_{i}_{j}" for i, j in pairs]
    require(headers == expected, f"{name}: header {headers}, expected {expected}")
    require(len(data) == len(times), f"{name}: {len(data)} rows, expected {len(times)}")
    t, entropy, pi_a, conc = data[:, 0], data[:, 1], data[:, 2], data[:, 3:]
    require_close(t, times, EXACT_TOL * max(1.0, float(np.max(times))), f"{name} t_J")
    require(np.all((pi_a >= -EXACT_TOL) & (pi_a <= 1.0 + EXACT_TOL)), f"{name}: pi_a outside [0, 1]")
    require_close(entropy, binary_entropy(pi_a), EXACT_TOL, f"{name} entropy vs h(pi_a)")
    require(np.all(conc <= pi_a[:, None] + EXACT_TOL), f"{name}: some C_ij exceeds pi_a")
    mags = np.abs(ref.atomic(times[rows]))
    require_close(pi_a[rows], np.sum(mags**2, axis=1), TOL, f"{name} pi_a vs eigh")
    for col, (i, j) in enumerate(pairs):
        require_close(conc[rows, col], 2.0 * mags[:, i - 1] * mags[:, j - 1], TOL,
                      f"{name} C_{i}_{j} vs eigh")
    return data


def check_map_csv(path, rows, expected_rows):
    """N x N map CSV: labels, zero diagonal, symmetry, range, reference at ``rows``."""
    name = Path(path).name
    headers, data = read_csv(path)
    n = len(headers) - 1
    require(headers == ["site"] + [str(j) for j in range(1, n + 1)], f"{name}: bad header")
    require(data.shape == (n, n + 1), f"{name}: shape {data.shape}, expected {(n, n + 1)}")
    require(np.array_equal(data[:, 0], np.arange(1, n + 1)), f"{name}: bad site labels")
    values = data[:, 1:]
    require(np.all(np.diag(values) == 0.0), f"{name}: non-zero diagonal")
    require_close(values, values.T, 1e-15, f"{name} symmetry")
    require(np.all((values >= 0.0) & (values <= 1.0 + EXACT_TOL)), f"{name}: values outside [0, 1]")
    require_close(values[rows], expected_rows, TOL, f"{name} rows vs eigh")


def concurrence_rows(mags, rows):
    """Rows of the map 2|c_i||c_j| (zero diagonal) for one state's |c_a|."""
    out = 2.0 * np.outer(mags[rows], mags)
    out[np.arange(len(rows)), rows] = 0.0
    return out


def running_max_rows(mags, rows):
    """Rows of the elementwise maximum over time of 2|c_i(t)||c_j(t)|."""
    out = np.max(2.0 * mags[:, rows, None] * mags[:, None, :], axis=0)
    out[np.arange(len(rows)), rows] = 0.0
    return out


def _svg_root(path):
    path = Path(path)
    require(path.is_file(), f"{path.name}: missing")
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"{path.name}: does not parse: {exc}") from exc
    require(root.tag == _SVG + "svg", f"{path.name}: root element is {root.tag}")
    return root


def check_heatmap_svg(path, n):
    """Heatmap SVG parses and holds an N x N grid of square cell rects."""
    cells = [r for r in _svg_root(path).iter(_SVG + "rect") if r.get("width") == r.get("height")]
    name = Path(path).name
    require(len(cells) == n * n, f"{name}: {len(cells)} cell rects, expected {n * n}")
    require(len({r.get("x") for r in cells}) == n and len({r.get("y") for r in cells}) == n,
            f"{name}: cells do not form an {n} x {n} grid")


def check_lines_svg(path, n_curves, n_points):
    """Line-plot SVG parses and holds one polyline of every sample per curve."""
    lines = list(_svg_root(path).iter(_SVG + "polyline"))
    name = Path(path).name
    require(len(lines) == n_curves, f"{name}: {len(lines)} polylines, expected {n_curves}")
    for line in lines:
        require(len(line.get("points", "").split()) == n_points,
                f"{name}: a polyline does not have {n_points} points")


# --- presets, as the README documents them --------------------------------

FIG2 = {"n": 41, "g": 1e-3, "x0": 21, "samples": 2048, "pairs": ((21, 33), (31, 33))}
FIG3 = {"n": 101, "g": 1e3, "x0": 51, "cycles": (2000, 5000, 10000)}
FIG4 = {"n": 201, "x0": 101}


def fig2_times():
    return np.linspace(0.0, 4.0 * math.pi / FIG2["g"], FIG2["samples"])


def fig3_times():
    return [c * math.pi / FIG3["g"] for c in FIG3["cycles"]]


def fig4_times(g):
    """tJ in [0, 90] step 0.05, each snapped to the nearest multiple of pi/g."""
    period = math.pi / g
    return np.unique(np.round(np.arange(0.0, 90.0 + 1e-12, 0.05) / period) * period)


def check_fig2(out, ref, rows):
    times = fig2_times()
    check_series_csv(Path(out) / "fig2_series.csv", ref, times, FIG2["pairs"], rows)
    check_lines_svg(Path(out) / "fig2_plot.svg", 2 + len(FIG2["pairs"]), len(times))


def check_fig3(out, ref, rows):
    for t in fig3_times():
        stem = Path(out) / f"fig3_t{t:g}_map"
        mags = np.abs(ref.atomic([t])[0])
        check_map_csv(f"{stem}.csv", rows, concurrence_rows(mags, rows))
        check_heatmap_svg(f"{stem}.svg", FIG3["n"])


def check_fig4(out, ref, g, rows):
    stem = Path(out) / f"fig4_g{g:g}_maxmap"
    mags = np.abs(ref.atomic(fig4_times(g)))
    check_map_csv(f"{stem}.csv", rows, running_max_rows(mags, rows))
    check_heatmap_svg(f"{stem}.svg", FIG4["n"])


def check_sweep(out, refs, g_list, times, pairs, rows):
    """Per-coupling series, mirror-image pair columns, and the summary table."""
    out = Path(out)
    summary = []
    for g, ref in zip(g_list, refs):
        data = check_series_csv(out / f"sweep_g{g:g}_series.csv", ref, times, pairs, rows)
        # pairs[1] is the mirror image of pairs[0] about the centre site
        require_close(data[:, 3], data[:, 4], ORACLE_TOL, f"sweep g={g:g} mirror pairs")
        summary.append([g, data[:, 1].max(), (1.0 - data[:, 2]).max()])
    path = out / "sweep_summary.csv"
    require(path.is_file(), "sweep_summary.csv: missing")
    lines = path.read_text(encoding="utf-8").splitlines()
    require(lines[:1] == ["g_over_j,max_entropy,max_pi_f,status"], "sweep_summary.csv: bad header")
    cells = [line.split(",") for line in lines[1:]]
    require(len(cells) == len(g_list) and all(c[-1] == "ok" for c in cells),
            "sweep_summary.csv: expected one 'ok' row per coupling")
    require_close([[float(x) for x in c[:3]] for c in cells], summary, EXACT_TOL,
                  "sweep_summary.csv vs series maxima")


def check_evolve(out, ref, times, pairs, rows, dense_out=None):
    """An evolve run; with ``dense_out``, also agreement with the dense run on every cell."""
    data = check_series_csv(Path(out) / "evolve_series.csv", ref, times, pairs, rows)
    check_lines_svg(Path(out) / "evolve_plot.svg", 2 + len(pairs), len(times))
    if dense_out is not None:
        _, dense = read_csv(Path(dense_out) / "evolve_series.csv")
        require_close(data, dense, ORACLE_TOL, "evolve analytic vs dense")
