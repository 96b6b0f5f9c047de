"""The benchmark's workloads: CLI commands drawn from a seed, each with its output check.

The seed draws the couplings, the concurrence pairs and the rows checked.
Every draw stays inside a fixed band, so the regime mix and the amount of
work are the same for every seed.
"""

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SERIES_ROWS = 32  # series rows compared with the reference, besides the first and last
MAP_ROWS = 6  # map rows compared with the reference

SWEEP_N = 1001
SWEEP_SAMPLES = 2000
SWEEP_T_MAX = 50.0
SWEEP_DECADES = (-3.0, -1.5, 0.0, 1.5, 3.0)  # log10(g/J) of the five couplings

ORACLE_SIZES = (16, 32, 64, 96)
ORACLE_SAMPLES = 2001
ORACLE_T_MAX = 50.0


@dataclass
class Op:
    """One CLI command (run as ``jchsim ARGV``) and the check of what it wrote."""

    name: str
    argv: list
    out: Path
    check: Callable[[], None]


def _op(root, name, argv, check, **kwargs):
    out = Path(root) / name
    return Op(name, [*argv, "--out", str(out)], out,
              functools.partial(check, out, **kwargs))


def _coupling(rng, decade, half_width, digits):
    """g/J drawn log-uniformly within ``half_width`` decades of 10**decade."""
    return float(f"{10.0 ** (decade + rng.uniform(-half_width, half_width)):.{digits}g}")


def _write_config(path, **keys):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return str(path)


def _pairs_text(pairs):
    return ",".join(f"{i}:{j}" for i, j in pairs)


def figures(rng, root):
    """fig2, fig3, and fig4 at g/J near 1, 10 and 100."""
    series_rows = checks.sample_rows(rng, checks.FIG2["samples"], SERIES_ROWS)
    fig3_rows = np.sort(rng.choice(checks.FIG3["n"], MAP_ROWS, replace=False))
    fig2_ref = checks.Reference(checks.FIG2["n"], checks.FIG2["g"], checks.FIG2["x0"])
    fig3_ref = checks.Reference(checks.FIG3["n"], checks.FIG3["g"], checks.FIG3["x0"])
    ops = [
        _op(root, "fig2", ["fig2"], checks.check_fig2, ref=fig2_ref, rows=series_rows),
        _op(root, "fig3", ["fig3"], checks.check_fig3, ref=fig3_ref, rows=fig3_rows),
    ]
    for decade in (0, 1, 2):
        g = _coupling(rng, decade, 0.04, 4)
        rows = np.sort(rng.choice(checks.FIG4["n"], MAP_ROWS, replace=False))
        ref = checks.Reference(checks.FIG4["n"], g, checks.FIG4["x0"])
        ops.append(_op(root, f"fig4_g{g:g}", ["fig4", "--g-over-j", f"{g:g}"],
                       checks.check_fig4, ref=ref, g=g, rows=rows))
    return ops


def sweep(rng, root):
    """One sweep at N=1001 over five couplings from 1e-3 J to 1e3 J, two mirror-image pairs."""
    n, c = SWEEP_N, checks.center_site(SWEEP_N)
    g_list = [_coupling(rng, d, 0.1, 3) for d in SWEEP_DECADES]
    i = int(rng.integers(c - 40, c))
    j = int(rng.choice([s for s in range(c + 1, c + 41) if s != n + 1 - i]))
    pairs = ((i, j), (n + 1 - i, n + 1 - j))
    config = _write_config(Path(root) / "configs" / "sweep.cfg", n=n,
                           g_list=",".join(f"{g:g}" for g in g_list), samples=SWEEP_SAMPLES,
                           t_max=SWEEP_T_MAX, pairs=_pairs_text(pairs))
    refs = [checks.Reference(n, g, c) for g in g_list]
    rows = checks.sample_rows(rng, SWEEP_SAMPLES, SERIES_ROWS)
    times = np.linspace(0.0, SWEEP_T_MAX, SWEEP_SAMPLES)
    return [_op(root, "sweep", ["sweep", "--config", config], checks.check_sweep,
                refs=refs, g_list=g_list, times=times, pairs=pairs, rows=rows)]


def oracle(rng, root):
    """evolve --method dense, then analytic, on the same config at each oracle size."""
    ops = []
    times = np.linspace(0.0, ORACLE_T_MAX, ORACLE_SAMPLES)
    for n in ORACLE_SIZES:
        g = _coupling(rng, 0.0, 0.3, 4)
        sites = [rng.choice(n, 2, replace=False) + 1 for _ in range(2)]
        pairs = tuple((int(a), int(b)) for a, b in sites)
        config = _write_config(Path(root) / "configs" / f"n{n}.cfg", n=n, g=f"{g:g}",
                               samples=ORACLE_SAMPLES, t_max=ORACLE_T_MAX,
                               pairs=_pairs_text(pairs))
        ref = checks.Reference(n, g, checks.center_site(n))
        rows = checks.sample_rows(rng, ORACLE_SAMPLES, SERIES_ROWS)
        kwargs = {"ref": ref, "times": times, "pairs": pairs, "rows": rows}
        dense = _op(root, f"n{n}_dense", ["evolve", "--config", config, "--method", "dense"],
                    checks.check_evolve, **kwargs)
        analytic = _op(root, f"n{n}_analytic",
                       ["evolve", "--config", config, "--method", "analytic"],
                       checks.check_evolve, dense_out=dense.out, **kwargs)
        ops += [dense, analytic]
    return ops


WORKLOADS = {"figures": figures, "sweep": sweep, "oracle": oracle}


def build(name, seed, root):
    """The ops of workload ``name`` for ``seed``; configs are written under ``root``."""
    return WORKLOADS[name](np.random.default_rng(seed), root)
