"""Flat key=value config parsing and full-precision CSV serialization.

All physical quantities in files are in units of J (energies) and 1/J
(times); site labels are 1-based.  Floats are written with 17 significant
digits so re-reading a file reproduces the exact binary values.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .model import ModelParams


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
    t_start: float = 0.0
    t_max: float = 50.0
    samples: int = 501
    pairs: list = field(default_factory=list)
    snapshot_times: list = field(default_factory=list)
    g_list: list = field(default_factory=list)
    scale_max: float = 0.25
    out: str = "."

    def model_params(self) -> ModelParams:
        return ModelParams(
            n_cavities=self.n, hopping=self.j, coupling=self.g,
            cavity_freq=self.omega_c, atom_freq=self.omega_a,
        )


_METHODS = ("analytic", "dense", "weak", "strong")
_FLOATS = ("j", "g", "omega_c", "omega_a", "t_start", "t_max", "scale_max")
_FLOAT_LISTS = ("snapshot_times", "g_list")


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
        if raw not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        return raw
    if key == "pairs":
        return parse_pairs(raw)
    if key in _FLOAT_LISTS:
        return [float(x) for x in raw.split(",")]
    if key == "out":
        return raw
    raise KeyError(key)


def parse_config(text: str) -> RunConfig:
    """Parse flat `key = value` lines ('#' comments) into a RunConfig.

    Unknown keys, unparsable values and constraint violations raise
    ConfigError carrying the offending line number.
    """
    known = {f.name for f in fields(RunConfig)}
    cfg = RunConfig()
    lines_by_key = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _parse_value(key, raw))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        lines_by_key[key] = lineno
    if cfg.n == 0:
        raise ConfigError("missing required key 'n'")
    validate(cfg, lines_by_key)
    return cfg


def validate(cfg: RunConfig, lines_by_key):
    """Raise ConfigError at the first bad value, citing its line from ``lines_by_key``.

    n = 0 stands for an unset size: the presets fix their own.
    """
    def fail(key, message):
        where = f"line {lines_by_key[key]}: " if key in lines_by_key else ""
        raise ConfigError(where + message)

    for key in _FLOATS + _FLOAT_LISTS:
        if not np.all(np.isfinite(getattr(cfg, key))):
            fail(key, f"{key} must be finite, got {getattr(cfg, key)}")
    if cfg.n != 0 and cfg.n < 2:
        fail("n", f"n must be >= 2, got {cfg.n}")
    if cfg.j <= 0:
        fail("j", f"j must be > 0, got {cfg.j}")
    if cfg.g < 0:
        fail("g", f"g must be >= 0, got {cfg.g}")
    if cfg.x0 is not None and not 1 <= cfg.x0 <= cfg.n:
        fail("x0", f"x0 must be in [1, {cfg.n}], got {cfg.x0}")
    if cfg.samples < 2:
        fail("samples", f"samples must be >= 2, got {cfg.samples}")
    if cfg.t_max < cfg.t_start or cfg.t_start < 0:
        fail("t_max", "need t_max >= t_start >= 0")
    if cfg.scale_max <= 0:
        fail("scale_max", f"scale_max must be > 0, got {cfg.scale_max}")
    for i, j in cfg.pairs:
        if i == j or not (1 <= i <= cfg.n and 1 <= j <= cfg.n):
            fail("pairs", f"invalid pair {i}:{j} for n = {cfg.n}")


def fmt(x) -> str:
    """Render a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def write_series_csv(series, path):
    """Observable series as CSV: t_J, entropy, pi_a, then one column per pair."""
    if len(series.times) == 0:
        raise ValueError("refusing to write an empty series")
    headers = ["t_J", "entropy", "pi_a"] + [f"C_{i}_{j}" for i, j in series.pairs]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(headers) + "\n")
        for row in range(len(series.times)):
            cells = [fmt(series.times[row]), fmt(series.entropy[row]), fmt(series.pi_a[row])]
            cells += [fmt(series.concurrence[row, col]) for col in range(len(series.pairs))]
            fh.write(",".join(cells) + "\n")


def read_series_csv(path):
    """Inverse of write_series_csv: returns (headers, data array)."""
    with open(path, encoding="utf-8") as fh:
        headers = fh.readline().strip().split(",")
        data = np.array([[float(c) for c in line.strip().split(",")] for line in fh])
    return headers, data


def write_map_csv(values, path):
    """N x N concurrence map as CSV with 1-based site labels."""
    n = values.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("site," + ",".join(str(j) for j in range(1, n + 1)) + "\n")
        for i in range(n):
            fh.write(str(i + 1) + "," + ",".join(fmt(v) for v in values[i]) + "\n")


def read_map_csv(path):
    """Inverse of write_map_csv: returns the N x N array."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = [[float(c) for c in line.strip().split(",")[1:]] for line in fh]
    return np.array(rows)


def write_modes_csv(modes, path):
    """Mode table as CSV: m, k, omega_k, delta_k, rabi_k, eps_plus, eps_minus."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m,k,omega_k,delta_k,rabi_k,eps_plus,eps_minus\n")
        for idx in range(len(modes.momenta)):
            fh.write(
                ",".join(
                    [str(idx + 1)]
                    + [
                        fmt(col[idx])
                        for col in (
                            modes.momenta,
                            modes.frequencies,
                            modes.detunings,
                            modes.rabi,
                            modes.eps_plus,
                            modes.eps_minus,
                        )
                    ]
                )
                + "\n"
            )
