"""Command-line interface.

Subcommands: modes, evolve, fig2, fig3, fig4, sweep.  Parameters come from a
flat key=value config file (--config); a flag is a config key given on the
command line, parsed by the same parser, and it wins over the file.
Artifacts (CSV, SVG) are written into --out with one summary line printed
per file.

Exit codes: 0 success, 1 usage error, 2 config error, 3 runtime/numerical
error.
"""

import argparse
import dataclasses
import math
import re
import sys
from pathlib import Path

from . import io as jio
from . import svg
from .dynamics import METHODS, TimeGrid
from .experiments import (
    EnergyTimeError,
    ExperimentSpec,
    center_site,
    compute_series,
    run_fig2,
    run_fig3,
    run_fig4,
    run_sweep,
)
from .io import ConfigError
from .spectral import mode_table


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # every float spelling is a value, -1e-5 and -inf included; subparsers inherit it
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


_HELP = {
    "out": "output directory",
    "method": "propagator: %s or %s" % (", ".join([*METHODS][:-1]), [*METHODS][-1]),
    "samples": "number of time samples",
    "t_max": "end of the time grid, units 1/J",
    "pairs": "concurrence channels, i:j[,i:j...]",
    "snapshot_times": "comma-separated times, units 1/J",
    "g": "atom-cavity coupling g, units J (> 0)",
    "scale_max": "concurrence at the top of the colour bar",
}


def _flag(key) -> str:
    return "--g-over-j" if key == "g" else "--" + key.replace("_", "-")


def build_parser() -> _Parser:
    parser = _Parser(prog="jchsim", description=__doc__.split("\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="key=value config file")
        for key in ("out", *keys):
            p.add_argument(_flag(key), dest=key, required=key == "g", help=_HELP[key])
    return parser


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


def _map_artifacts(values, stem, scale_max, title):
    jio.write_map_csv(values, f"{stem}.csv")
    _wrote(f"{stem}.csv")
    svg.render_heatmap_svg(values, f"{stem}.svg", scale_max=scale_max, title=title)
    _wrote(f"{stem}.svg")


def _spec(cfg, g) -> ExperimentSpec:
    """The evolve/sweep run of the config at coupling g."""
    return ExperimentSpec(
        params=dataclasses.replace(cfg.model_params(), coupling=g),
        x0=cfg.x0 if cfg.x0 is not None else center_site(cfg.n),
        grid=TimeGrid(0.0, cfg.t_max, cfg.samples),
        method=cfg.method,
        pairs=tuple(cfg.pairs),
    )


def _cmd_modes(cfg):
    modes = mode_table(cfg.model_params())
    path = _outdir(cfg) / "modes.csv"
    jio.write_modes_csv(modes, path)
    _wrote(path)
    return 0


def _cmd_evolve(cfg):
    if cfg.t_max == 0:  # the plot needs a time axis; a sweep draws none
        raise cfg.error("t_max", "evolve needs t_max > 0 for its plot")
    series = compute_series(_spec(cfg, cfg.g))
    _series_artifacts(series, _outdir(cfg), "evolve",
                      f"N={cfg.n}, g={cfg.g:g}J, method={cfg.method}")
    return 0


def _cmd_fig2(cfg):
    series = run_fig2()
    _series_artifacts(series, _outdir(cfg), "fig2", "N=41, g=1e-3 J, x0=21")
    return 0


def _cmd_fig3(cfg):
    snapshots = run_fig3(cfg.snapshot_times or None)  # a t * g overflow exits 3 before the bound
    out = _outdir(cfg)
    for snap in snapshots:
        if snap.off_resonant:
            print(f"warning: t = {snap.time:g}/J is not a multiple of pi/g; "
                  "atomic probability < 1 reduces map contrast")
        _map_artifacts(snap.values, out / f"fig3_t{snap.time:g}_map", cfg.scale_max,
                       f"C_ij at tJ = {snap.time:g}")
    return 0


def _cmd_fig4(cfg):
    if cfg.g <= 0:
        raise cfg.error("g", f"the coupling must be > 0, got {cfg.g:g}")
    if math.isinf(math.pi / cfg.g):  # the grid snaps to multiples of pi/g
        raise cfg.error("g", f"pi/g overflows to inf at g = {cfg.g:g}")
    _map_artifacts(run_fig4(cfg.g), _outdir(cfg) / f"fig4_g{cfg.g:g}_maxmap", cfg.scale_max,
                   f"max C_ij, g = {cfg.g:g} J, tJ in [0, 90]")
    return 0


def _cmd_sweep(cfg):
    if not cfg.g_list:
        raise cfg.error("g_list", "sweep needs a non-empty 'g_list' in the config")
    results = run_sweep([_spec(cfg, g) for g in cfg.g_list])
    out = _outdir(cfg)
    rows = []
    for g, result in zip(cfg.g_list, results):
        if isinstance(result, Exception):
            print(f"error: spec g={g:g} failed: {result}", file=sys.stderr)
            rows.append((g, float("nan"), float("nan"), "failed"))
        else:
            path = out / f"sweep_g{g:g}_series.csv"
            jio.write_series_csv(result, path)
            _wrote(path)
            rows.append((g, result.entropy.max(), result.pi_f.max(), "ok"))
    summary_path = out / "sweep_summary.csv"
    jio.write_csv(summary_path, ["g_over_j", "max_entropy", "max_pi_f", "status"],
                  list(zip(*rows)))
    _wrote(summary_path)
    return 3 if any(isinstance(result, Exception) for result in results) else 0


# subcommand -> (runner, help, config keys it accepts as flags besides --out, the key that sets
# the latest time, which a max|E| * t refusal cites: None where no config key sets it)
_COMMANDS = {
    "modes": (_cmd_modes, "dump the normal-mode/dressed-spectrum table as CSV", (), None),
    "evolve": (_cmd_evolve, "evolve an initial atomic excitation and record observables",
               ("method", "samples", "t_max", "pairs"), "t_max"),
    "fig2": (_cmd_fig2, "weak-coupling entropy and concurrence series (N=41 preset)", (), None),
    "fig3": (_cmd_fig3, "strong-coupling concurrence snapshots (N=101 preset)",
             ("snapshot_times",), "snapshot_times"),
    "fig4": (_cmd_fig4, "running-max concurrence map (N=201 preset)", ("g", "scale_max"), "g"),
    "sweep": (_cmd_sweep, "batch of observable series over the config's g_list",
              ("samples", "t_max", "pairs"), "t_max"),
}


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    run, _, keys, cited = _COMMANDS[args.command]
    flags = [(_flag(key), key, getattr(args, key)) for key in ("out", *keys)
             if getattr(args, key) is not None]
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
        cfg = jio.parse_config(text, flags)
        return run(cfg)
    except EnergyTimeError as exc:  # cite the key that set the latest time
        time_name = "t_max" if cited == "t_max" else "t"
        print(f"config error: {cfg.error(cited, exc.describe(time_name))}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
