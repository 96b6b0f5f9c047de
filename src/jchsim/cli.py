"""Command-line interface.

Subcommands: modes, evolve, fig2, fig3, fig4, sweep.  Parameters come from a
flat key=value config file (--config); command-line flags override config
values.  Artifacts (CSV, SVG) are written into --out with one summary line
printed per file.

Exit codes: 0 success, 1 usage error, 2 config error, 3 runtime/numerical
error.
"""

import argparse
import math
import sys
from pathlib import Path

from . import io as jio
from . import svg
from .dynamics import TimeGrid
from .experiments import (
    ExperimentSpec,
    center_site,
    compute_series,
    run_fig2,
    run_fig3,
    run_fig4,
    run_sweep,
)
from .io import ConfigError, RunConfig
from .linalg import ConvergenceError
from .spectral import mode_table


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="jchsim", description=__doc__.split("\n")[1])
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="key=value config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        return p

    add("modes", "dump the normal-mode/dressed-spectrum table as CSV")

    p = add("evolve", "evolve an initial atomic excitation and record observables")
    p.add_argument("--method", choices=("analytic", "dense", "weak", "strong"))
    p.add_argument("--samples", type=int)
    p.add_argument("--t-max", type=float, help="end of the time grid, units 1/J")
    p.add_argument("--pairs", type=str, help="concurrence channels, i:j[,i:j...]")

    add("fig2", "weak-coupling entropy and concurrence series (N=41 preset)")

    p = add("fig3", "strong-coupling concurrence snapshots (N=101 preset)")
    p.add_argument("--snapshot-times", type=str, help="comma-separated times, units 1/J")

    p = add("fig4", "running-max concurrence map (N=201 preset)")
    p.add_argument("--g-over-j", type=float, required=True)
    p.add_argument("--scale-max", type=float, default=0.25)

    p = add("sweep", "batch of observable series over the config's g_list")
    p.add_argument("--samples", type=int)
    p.add_argument("--t-max", type=float)
    p.add_argument("--pairs", type=str)
    return parser


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None) is not None:
        cfg = jio.parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        cfg = RunConfig()
    for key in ("method", "samples", "t_max", "scale_max"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    try:
        if getattr(args, "pairs", None) is not None:
            cfg.pairs = jio.parse_pairs(args.pairs)
        if getattr(args, "snapshot_times", None) is not None:
            cfg.snapshot_times = [float(x) for x in args.snapshot_times.split(",")]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out is not None:
        cfg.out = str(args.out)
    if cfg.n == 0 and args.command in ("modes", "evolve", "sweep"):
        raise ConfigError("missing required key 'n'")
    jio.validate(cfg, {})
    return cfg


def _outdir(cfg) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _wrote(path):
    print(f"wrote {path}")


def _series_artifacts(series, out, stem, title):
    csv_path = out / f"{stem}_series.csv"
    jio.write_series_csv(series, csv_path)
    _wrote(csv_path)
    curves = [("S", series.entropy), ("Pi_a", series.pi_a)]
    curves += [(f"C_{i}_{j}", series.concurrence[:, col])
               for col, (i, j) in enumerate(series.pairs)]
    svg_path = out / f"{stem}_plot.svg"
    svg.render_lines_svg(series.times, curves, svg_path, title=title)
    _wrote(svg_path)


def _spec(cfg, name, g) -> ExperimentSpec:
    """The evolve/sweep run of the config at coupling g."""
    return ExperimentSpec(
        name=name,
        params=RunConfig(**{**cfg.__dict__, "g": g}).model_params(),
        x0=cfg.x0 if cfg.x0 is not None else center_site(cfg.n),
        grid=TimeGrid(cfg.t_start, cfg.t_max, cfg.samples),
        method=cfg.method,
        pairs=tuple(cfg.pairs),
    )


def _cmd_modes(args):
    cfg = _load_config(args)
    out = _outdir(cfg)
    path = out / "modes.csv"
    jio.write_modes_csv(mode_table(cfg.model_params()), path)
    _wrote(path)
    return 0


def _cmd_evolve(args):
    cfg = _load_config(args)
    series = compute_series(_spec(cfg, "evolve", cfg.g))
    _series_artifacts(series, _outdir(cfg), "evolve",
                      f"N={cfg.n}, g={cfg.g:g}J, method={cfg.method}")
    return 0


def _cmd_fig2(args):
    cfg = _load_config(args)
    series = run_fig2()
    _series_artifacts(series, _outdir(cfg), "fig2", "N=41, g=1e-3 J, x0=21")
    return 0


def _cmd_fig3(args):
    cfg = _load_config(args)
    out = _outdir(cfg)
    snapshots = run_fig3(cfg.snapshot_times or None)
    for snap in snapshots:
        if snap.off_resonant:
            print(f"warning: t = {snap.time:g}/J is not a multiple of pi/g; "
                  "atomic probability < 1 reduces map contrast")
        stem = out / f"fig3_t{snap.time:g}_map"
        jio.write_map_csv(snap.values, f"{stem}.csv")
        _wrote(f"{stem}.csv")
        svg.render_heatmap_svg(snap.values, f"{stem}.svg", scale_max=cfg.scale_max,
                               title=f"C_ij at tJ = {snap.time:g}")
        _wrote(f"{stem}.svg")
    return 0


def _cmd_fig4(args):
    cfg = _load_config(args)
    out = _outdir(cfg)
    cmap = run_fig4(args.g_over_j)
    stem = out / f"fig4_g{args.g_over_j:g}_maxmap"
    jio.write_map_csv(cmap, f"{stem}.csv")
    _wrote(f"{stem}.csv")
    svg.render_heatmap_svg(cmap, f"{stem}.svg", scale_max=cfg.scale_max,
                           title=f"max C_ij, g = {args.g_over_j:g} J, tJ in [0, 90]")
    _wrote(f"{stem}.svg")
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args)
    if not cfg.g_list:
        raise ConfigError("sweep needs a non-empty 'g_list' in the config")
    out = _outdir(cfg)
    outcomes = run_sweep([_spec(cfg, f"g{g:g}", g) for g in cfg.g_list])
    summary_path = out / "sweep_summary.csv"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("g_over_j,max_entropy,max_pi_f,status\n")
        for g, outcome in zip(cfg.g_list, outcomes):
            if outcome.ok:
                series = outcome.series
                path = out / f"sweep_{outcome.spec.name}_series.csv"
                jio.write_series_csv(series, path)
                _wrote(path)
                fh.write(f"{jio.fmt(g)},{jio.fmt(series.entropy.max())},"
                         f"{jio.fmt(series.pi_f.max())},ok\n")
            else:
                print(f"error: spec g={g:g} failed: {outcome.error}", file=sys.stderr)
                fh.write(f"{jio.fmt(g)},nan,nan,failed\n")
    _wrote(summary_path)
    return 0 if all(o.ok for o in outcomes) else 3


_COMMANDS = {
    "modes": _cmd_modes,
    "evolve": _cmd_evolve,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "sweep": _cmd_sweep,
}


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
