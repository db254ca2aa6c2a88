"""Flat key=value simulation configuration with study defaults.

The format is plain text, one ``section.key = value`` per line, ``#``
comments, unknown keys rejected.  Every key has a default, so an empty file
yields the reference compression setup: a 42 x 75 mm specimen compressed at
0.18 mm/s for 100 s in 76 steps.  The ``material.*`` keys are the fields
of ``MaterialParams``, which declares their defaults and checks its own
values.  The solver's tolerances and the output directory are not keys:
the optimizer runs at its defaults and ``run`` takes ``--out``.
``parse_config`` takes the text; the CLI reads the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .energy import MaterialParams
from .evolution import GRADIENT_CHECK_STEP
from .kinematics import SlipSystem


# The geometry the solver's fixed lengths suit [mm].  The start-up check's
# probe bumps of up to 0.025 mm fold a specimen of 0.2 mm sides (the check
# then reads 1.0); its central-difference step, GRADIENT_CHECK_STEP = 1e-6
# mm, has a rounding error that grows with the side: the worst error over
# twelve meshes is 8e-5 at 200 mm, 2.3e-3 (a failed check) at 1,000 mm.  A
# spacing of 1e3 steps keeps the step a small move of a node.  The window
# also keeps the optimizer's absolute stopping tests (``optimizer``) sound.
SIDE_RANGE = (1.0, 200.0)
MIN_SPACING = 1e3 * GRADIENT_CHECK_STEP


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
    material: MaterialParams = field(default_factory=MaterialParams)
    # slip system: the glide direction; the normal is derived from it
    s1: float = 0.0
    s2: float = 1.0
    # load program
    speed: float = 0.18
    T: float = 100.0
    K: int = 76
    # output
    snapshot_stride: int = 1
    formats: str = "csv,vtk"


# key -> (attribute, constraint, description of the constraint) of the
# fields but ``material``, a MaterialParams, which sets the ``material.*``
# keys and validates itself; the glide direction (s1, s2) is checked as a
# whole by SlipSystem
_KEYS = {
    "geometry.Lx": ("Lx", _positive, "must be positive"),
    "geometry.Ly": ("Ly", _positive, "must be positive"),
    "mesh.nx": ("nx", _at_least_one, "must be at least 1"),
    "mesh.ny": ("ny", _at_least_one, "must be at least 1"),
    "slip.s1": ("s1", None, ""),
    "slip.s2": ("s2", None, ""),
    "load.speed": ("speed", _nonnegative, "must be nonnegative"),
    "load.T": ("T", _positive, "must be positive"),
    "load.K": ("K", _at_least_one, "must be at least 1"),
    "output.snapshot_stride": ("snapshot_stride", _at_least_one,
                               "must be at least 1"),
    "output.formats": ("formats",
                       lambda v: v != "" and set(v.split(",")) <= {"csv", "vtk"},
                       "must be a comma list drawn from csv,vtk"),
}


def _key_table():
    """key -> (section or None, attribute, type) for every key, in field
    order; a value parses as the type of its field's default."""
    attr_to_key = {attr: key for key, (attr, _, _) in _KEYS.items()}
    table = {}
    for f in fields(SimulationConfig):
        if f.name == "material":
            for g in fields(MaterialParams):
                table[f"material.{g.name}"] = ("material", g.name,
                                               type(g.default))
        else:
            table[attr_to_key[f.name]] = (None, f.name, type(f.default))
    return table


_TABLE = _key_table()


def _owner(config, section):
    return config if section is None else getattr(config, section)


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
    for key, (section, attr, kind) in _TABLE.items():
        value = getattr(_owner(config, section), attr)
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    for key, (attr, check, msg) in _KEYS.items():
        if check is not None and not check(getattr(config, attr)):
            raise ConfigError(f"{key} {msg}, got {getattr(config, attr)}")
    try:
        config.material.validate()
    except ValueError as exc:           # the message starts with the field
        raise ConfigError(f"material.{exc}") from None
    try:
        SlipSystem(s=(config.s1, config.s2))
    except ValueError as exc:
        raise ConfigError(f"slip: {exc}") from None
    if not config.speed * config.T < config.Ly:
        raise ConfigError(
            "load.speed * load.T must stay below geometry.Ly "
            f"(platen through floor): {config.speed} * {config.T} >= {config.Ly}")
    spacing = min(config.Lx / config.nx, config.Ly / config.ny)
    if not (SIDE_RANGE[0] <= min(config.Lx, config.Ly)
            and max(config.Lx, config.Ly) <= SIDE_RANGE[1]
            and spacing >= MIN_SPACING):
        raise ConfigError(
            f"geometry.Lx and geometry.Ly must lie in [{SIDE_RANGE[0]:g}, "
            f"{SIDE_RANGE[1]:g}] mm and geometry.Lx / mesh.nx and geometry.Ly / "
            f"mesh.ny be at least {MIN_SPACING:g} mm, the scale the start-up "
            f"gradient check works on: got sides {config.Lx:g} and "
            f"{config.Ly:g} mm, spacing {spacing:g} mm")
    return config


def parse_config(text: str) -> SimulationConfig:
    """Parse config text; defaults fill omissions."""
    config = SimulationConfig()
    seen = {}                           # key -> the line that set it
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _TABLE:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: key {key!r} is already set "
                              f"on line {seen[key]}")
        seen[key] = line_no
        section, attr, kind = _TABLE[key]
        setattr(_owner(config, section), attr, _convert(key, kind, value, line_no))
    return validate_config(config)


def serialize_config(config: SimulationConfig) -> str:
    """Canonical text for a config; parse(serialize(c)) == c."""
    lines = []
    for key, (section, attr, _) in _TABLE.items():
        value = getattr(_owner(config, section), attr)
        if isinstance(value, float):
            text = format(value, ".17g")
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
