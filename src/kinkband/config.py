"""Flat key=value simulation configuration with study defaults.

The format is plain text, one ``section.key = value`` per line, ``#``
comments, unknown keys rejected.  Every key has a default, so an empty file
yields the reference compression setup: a 42 x 75 mm specimen compressed at
0.18 mm/s for 100 s in 76 steps with the constitutive constants C = 600,
D = 200, aniso = 100, beta = 0.02, sigma = 0.001 (MPa), eps_grad = 500 (N)
and dissipation smoothing delta = 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class ConfigError(ValueError):
    """Invalid configuration text or value; message names the offending key."""


def _positive(v):
    return v > 0


def _nonnegative(v):
    return v >= 0


def _at_least_one(v):
    return v >= 1


@dataclass
class SimulationConfig:
    # geometry
    Lx: float = 42.0
    Ly: float = 75.0
    # mesh
    nx: int = 34
    ny: int = 61
    # material
    C: float = 600.0
    D: float = 200.0
    aniso: float = 100.0
    beta: float = 0.02
    eps_grad: float = 500.0
    sigma: float = 0.001
    p: float = 2.2
    r: float = 2.0
    delta: float = 1e-5
    det_penalty: float = 1e6
    det_floor: float = 1e-8
    # slip system
    s1: float = 0.0
    s2: float = 1.0
    m1: float = 1.0
    m2: float = 0.0
    # load program
    speed: float = 0.18
    T: float = 100.0
    K: int = 76
    # optimizer
    tol_step: float = 1e-10
    tol_fun: float = 1e-4
    max_iters: int = 5000
    # output
    directory: str = "out"
    snapshot_stride: int = 1
    formats: str = "csv,vtk"


# key -> (attribute, type, constraint, description of the constraint)
_KEYS = {
    "geometry.Lx": ("Lx", float, _positive, "must be positive"),
    "geometry.Ly": ("Ly", float, _positive, "must be positive"),
    "mesh.nx": ("nx", int, _at_least_one, "must be at least 1"),
    "mesh.ny": ("ny", int, _at_least_one, "must be at least 1"),
    "material.C": ("C", float, _positive, "must be positive"),
    "material.D": ("D", float, _positive, "must be positive"),
    "material.aniso": ("aniso", float, _positive, "must be positive"),
    "material.beta": ("beta", float, _nonnegative, "must be nonnegative"),
    "material.eps_grad": ("eps_grad", float, _positive, "must be positive"),
    "material.sigma": ("sigma", float, _positive, "must be positive"),
    "material.p": ("p", float, lambda v: v > 2, "must exceed 2"),
    "material.r": ("r", float, lambda v: v >= 1, "must be at least 1"),
    "material.delta": ("delta", float, _positive, "must be positive"),
    "material.det_penalty": ("det_penalty", float, _positive, "must be positive"),
    "material.det_floor": ("det_floor", float, _positive, "must be positive"),
    "slip.s1": ("s1", float, None, ""),
    "slip.s2": ("s2", float, None, ""),
    "slip.m1": ("m1", float, None, ""),
    "slip.m2": ("m2", float, None, ""),
    "load.speed": ("speed", float, _nonnegative, "must be nonnegative"),
    "load.T": ("T", float, _positive, "must be positive"),
    "load.K": ("K", int, _at_least_one, "must be at least 1"),
    "optimizer.tol_step": ("tol_step", float, _positive, "must be positive"),
    "optimizer.tol_fun": ("tol_fun", float, _positive, "must be positive"),
    "optimizer.max_iters": ("max_iters", int, _at_least_one, "must be at least 1"),
    "output.directory": ("directory", str, None, ""),
    "output.snapshot_stride": ("snapshot_stride", int, _at_least_one,
                               "must be at least 1"),
    "output.formats": ("formats", str,
                       lambda v: v != "" and set(v.split(",")) <= {"csv", "vtk"},
                       "must be a comma list drawn from csv,vtk"),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _, _, _) in _KEYS.items()}


def _convert(key, kind, raw, line_no):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"line {line_no}: cannot parse value {raw!r} for key {key} "
            f"(expected {kind.__name__})") from None


def validate_config(config: SimulationConfig) -> SimulationConfig:
    """Check all per-key and cross-key invariants, naming the bad key."""
    for key, (attr, _, check, msg) in _KEYS.items():
        if check is not None and not check(getattr(config, attr)):
            raise ConfigError(f"{key} {msg}, got {getattr(config, attr)}")
    # slip vectors: unit and orthogonal
    s_norm = (config.s1 ** 2 + config.s2 ** 2) ** 0.5
    m_norm = (config.m1 ** 2 + config.m2 ** 2) ** 0.5
    if abs(s_norm - 1.0) > 1e-9:
        raise ConfigError(f"slip.s1/slip.s2 must form a unit vector, |s| = {s_norm}")
    if abs(m_norm - 1.0) > 1e-9:
        raise ConfigError(f"slip.m1/slip.m2 must form a unit vector, |m| = {m_norm}")
    dot = config.s1 * config.m1 + config.s2 * config.m2
    if abs(dot) > 1e-9:
        raise ConfigError(f"slip vectors must be orthogonal, s.m = {dot}")
    if not config.speed * config.T < config.Ly:
        raise ConfigError(
            "load.speed * load.T must stay below geometry.Ly "
            f"(platen through floor): {config.speed} * {config.T} >= {config.Ly}")
    return config


def parse_config(text_or_path) -> SimulationConfig:
    """Parse a config from a path or literal text; defaults fill omissions."""
    import os

    if isinstance(text_or_path, (str, os.PathLike)) and os.path.exists(text_or_path):
        with open(text_or_path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = str(text_or_path)

    config = SimulationConfig()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        attr, kind, _, _ = _KEYS[key]
        setattr(config, attr, _convert(key, kind, value, line_no))
    return validate_config(config)


def serialize_config(config: SimulationConfig) -> str:
    """Canonical text for a config; parse(serialize(c)) == c."""
    lines = []
    for f in fields(config):
        key = _ATTR_TO_KEY[f.name]
        value = getattr(config, f.name)
        if isinstance(value, float):
            text = format(value, ".17g")
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
