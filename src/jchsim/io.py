"""Flat key=value config parsing and full-precision CSV serialization.

All physical quantities in files are in units of J (energies) and 1/J
(times); site labels are 1-based.  Floats are written with 17 significant
digits so re-reading a file reproduces the exact binary values.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import METHODS
from .model import MAX_ENERGY, ModelParams


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad value, broken constraint)."""


@dataclass
class RunConfig:
    """Validated run configuration with defaults applied."""

    n: int = 0
    j: float = 1.0
    g: float = 0.0
    omega_c: float = 0.0
    omega_a: float = 0.0
    x0: int | None = None
    method: str = "analytic"
    t_max: float = 50.0
    samples: int = 501
    pairs: list = field(default_factory=list)
    snapshot_times: list = field(default_factory=list)
    g_list: list = field(default_factory=list)
    scale_max: float = 0.25
    out: str = "."
    # the line or flag that set each key, for error messages; not itself a config key
    _sources: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def model_params(self) -> ModelParams:
        """The model of this config; n = 0 stands for an unset size."""
        if self.n == 0:
            raise ConfigError("missing required key 'n'")
        return ModelParams(
            n_cavities=self.n, hopping=self.j, coupling=self.g,
            cavity_freq=self.omega_c, atom_freq=self.omega_a,
        )


_FLOATS = ("j", "g", "omega_c", "omega_a", "t_max", "scale_max")
_FLOAT_LISTS = ("snapshot_times", "g_list")
_ENERGIES = ("j", "g", "omega_c", "omega_a", "g_list")


def parse_pairs(text: str) -> list:
    """Parse 'i:j[,i:j...]' into a list of site-index pairs."""
    pairs = []
    for chunk in text.split(","):
        left, sep, right = chunk.partition(":")
        if not sep:
            raise ValueError(f"pair {chunk!r} is not of the form i:j")
        pairs.append((int(left), int(right)))
    return pairs


def _parse_value(key, raw):
    if key in ("n", "x0", "samples"):
        return int(raw)
    if key in _FLOATS:
        return float(raw)
    if key == "method":
        if raw not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}")
        return raw
    if key == "pairs":
        return parse_pairs(raw)
    if key in _FLOAT_LISTS:
        return [float(x) for x in raw.split(",")]
    return raw  # out, a path


def parse_config(text: str, flags=()) -> RunConfig:
    """Parse flat `key = value` lines ('#' comments), then ``flags``, into a RunConfig.

    ``flags`` holds (source, key, raw) overrides, such as the command line's
    ("--t-max", "t_max", "10"); they go through the same value parser as the
    lines and win over them.  The merged result is checked once.  Unknown
    keys, unparsable values and constraint violations raise ConfigError
    naming the line or flag the value came from.
    """
    known = {f.name for f in fields(RunConfig) if f.init}
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        entries.append((f"line {lineno}", key, raw))
    cfg = RunConfig()
    for source, key, raw in [*entries, *flags]:
        if key not in known:
            raise ConfigError(f"{source}: unknown key {key!r}")
        try:
            setattr(cfg, key, _parse_value(key, raw))
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from exc
        cfg._sources[key] = source
    validate(cfg)
    return cfg


def validate(cfg: RunConfig):
    """Raise ConfigError at the first bad value, citing the line or flag that set it.

    n = 0 stands for an unset size: the presets fix their own sizes, so x0 and pairs
    are checked only once n is set.  max|E| * t is checked where a run evolves.
    """
    def fail(key, message):
        where = f"{cfg._sources[key]}: " if key in cfg._sources else ""
        raise ConfigError(where + message)

    for key in _FLOATS + _FLOAT_LISTS:
        if not np.all(np.isfinite(getattr(cfg, key))):
            fail(key, f"{key} must be finite, got {getattr(cfg, key)}")
    for key in _ENERGIES:
        if not np.all(np.abs(getattr(cfg, key)) <= MAX_ENERGY):
            fail(key, f"{key} must be at most {MAX_ENERGY:g} in magnitude, got {getattr(cfg, key)}")
    if cfg.n != 0 and cfg.n < 2:
        fail("n", f"n must be >= 2, got {cfg.n}")
    if not cfg.j >= 1 / MAX_ENERGY:  # the energy unit: the norm of H must not underflow
        fail("j", f"j must be at least {1 / MAX_ENERGY:g}, got {cfg.j}")
    if cfg.g < 0:
        fail("g", f"g must be >= 0, got {cfg.g}")
    if cfg.n != 0 and cfg.x0 is not None and not 1 <= cfg.x0 <= cfg.n:
        fail("x0", f"x0 must be in [1, {cfg.n}], got {cfg.x0}")
    if cfg.samples < 2:
        fail("samples", f"samples must be >= 2, got {cfg.samples}")
    if cfg.t_max < 0:
        fail("t_max", f"need t_max >= 0, got {cfg.t_max}")
    if cfg.scale_max <= 0:
        fail("scale_max", f"scale_max must be > 0, got {cfg.scale_max}")
    for i, j in cfg.pairs:
        if cfg.n != 0 and (i == j or not (1 <= i <= cfg.n and 1 <= j <= cfg.n)):
            fail("pairs", f"invalid pair {i}:{j} for n = {cfg.n}")
    # each entry names a file: sweep_g{g:g}_series.csv, fig3_t{t:g}_map.csv
    for key, prefix in (("g_list", "g"), ("snapshot_times", "t")):
        names = set()
        for x in getattr(cfg, key):
            if x < 0:
                fail(key, f"{key} entries must be >= 0, got {x}")
            if f"{x:g}" in names:
                fail(key, f"{key} entries must differ in their file name, "
                          f"{x!r} gives {prefix}{x:g}")
            names.add(f"{x:g}")


def write_csv(path, header, columns):
    """Write equal-length ``columns`` under ``header`` as one CSV file.

    Numbers are rendered with 17 significant digits (a lossless round trip)
    through one ``%.17g`` template per row, so an integer-valued float such as
    a site label prints as an integer and NaN as ``nan``; a column of strings
    is written as given.  Raises ValueError before the file is opened when the
    header does not name every column, the columns differ in length or they
    are empty.
    """
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header fields for {len(columns)} columns")
    lengths = {len(column) for column in columns}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError(f"columns must be equal in length and non-empty, got {sorted(lengths)}")
    values = [np.asarray(column).tolist() for column in columns]
    template = ",".join("%s" if isinstance(v[0], str) else "%.17g" for v in values)
    rows = [",".join(header), *(template % row for row in zip(*values))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def write_series_csv(series, path):
    """Observable series as CSV: t_J, entropy, pi_a, then one column per pair."""
    write_csv(path, ["t_J", "entropy", "pi_a"] + [f"C_{i}_{j}" for i, j in series.pairs],
              [series.times, series.entropy, series.pi_a, *np.transpose(series.concurrence)])


def write_map_csv(values, path):
    """N x N concurrence map as CSV: the 1-based site, then one column per site."""
    # each distinct bit pattern (-0.0 and 0.0 differ) is formatted once, with write_csv's %.17g
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)
    sites = np.arange(1, len(values) + 1)
    write_csv(path, ["site", *map(str, sites)], [sites, *text[inverse].T])


def write_modes_csv(modes, path):
    """Mode table as CSV: m, k, omega_k, delta_k, rabi_k, eps_plus, eps_minus."""
    write_csv(path, ["m", "k", "omega_k", "delta_k", "rabi_k", "eps_plus", "eps_minus"],
              [np.arange(1, len(modes.momenta) + 1), modes.momenta, modes.frequencies,
               modes.detunings, modes.rabi, *modes.eps])
