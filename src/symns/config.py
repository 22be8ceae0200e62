"""Run configuration: a line-oriented TOML subset and its validation.

Accepted syntax: ``[section]`` headers, ``key = value`` lines (dotted keys
work outside sections too), ``#`` comments, bare strings and strings in
double or single quotes (no escapes), integers, floats (``inf`` allowed
for dt_max).  The keys of a section are
the init fields of its dataclass: ``[grid]`` is ``grid.Grid``, ``[model]``
is ``constitutive.GasModel`` and ``[controls]`` is ``stepper.StepControls``,
which validate themselves when built, so a parsed config holds its one
grid.  Unknown and duplicate keys are errors carrying the line number;
validation failures carry the section or key path.  Validation includes
the one model condition that depends on the grid, 2*mu + (m+1)*lam > 0.
A validated config then builds its t = 0 State (``SimConfig.initial``)
once, so every ``ConfigError`` a config can cause is raised by
:func:`parse_config` or :func:`override_config`, and a parsed config runs.
Configs and their sections are frozen and that State's fields are
read-only, so it cannot go stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .constitutive import GasModel, check_admissible
from .diagnostics import _check_alpha
from .errors import ConfigError
from .grid import Grid, _integer
from .initdata import (load_initial_csv, preset, radial_residual, regularize,
                       solve_initial_velocity, validate_initial, PRESET_PARAMS)
from .state import FIELDS, State
from .stepper import StepControls

__all__ = [
    "SimConfig", "InitConfig", "OutputConfig",
    "parse_config", "parse_config_file", "build_grid",
    "build_model", "build_initial", "override_config",
]


@dataclass(frozen=True)
class InitConfig:
    preset: str = ""   # unset: equilibrium, unless file is set
    file: str = ""
    eps: float = 0.0
    # preset parameters (initdata.PRESET_PARAMS); None keeps the default
    rho_bar: float | None = None
    theta_bar: float | None = None
    rho_max: float | None = None
    center: float | None = None
    halfwidth: float | None = None
    floor_frac: float | None = None
    swirl: float | None = None
    amplitude: float | None = None

    @property
    def preset_name(self) -> str:
        return self.preset or "equilibrium"


@dataclass(frozen=True)
class OutputConfig:
    out_dir: str = "out"
    snapshot_every: int = 0   # every k steps; 0 keeps initial/final only
    diag_alpha: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "snapshot_every",
                           _integer("snapshot_every", self.snapshot_every))


@dataclass(frozen=True)
class SimConfig:
    """A validated run config.  It is immutable and its t = 0 State's
    fields are read-only, so that State cannot go stale: derive a changed
    config with :func:`override_config` or ``dataclasses.replace``.  Every
    constructed config, derived or not, validates itself and builds its
    own State once, on its own grid."""

    grid: Grid = field(default_factory=Grid)
    model: GasModel = field(default_factory=GasModel)
    init: InitConfig = field(default_factory=InitConfig)
    controls: StepControls = field(default_factory=StepControls)
    output: OutputConfig = field(default_factory=OutputConfig)
    # the t = 0 State, built from the sections once they are validated
    initial: State = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate(self)
        object.__setattr__(self, "initial", _initial_state(self))


_SECTIONS = {"grid": Grid, "model": GasModel, "init": InitConfig,
             "controls": StepControls, "output": OutputConfig}

# "section.key" -> type of the init field's default (int, float or str); a
# None default stands for an unset float
_KEY_TYPES = {f"{sec}.{f.name}":
              float if f.default is None else type(f.default)
              for sec, cls in _SECTIONS.items() for f in fields(cls) if f.init}
# the preset parameters: the InitConfig fields whose None default is "unset"
_PRESET_FIELDS = tuple(f.name for f in fields(InitConfig) if f.default is None)


def _parse_value(raw: str, key: str):
    """The value of ``key`` in raw; every error message names the key."""
    raw = raw.strip()
    if raw[:1] in ('"', "'"):   # basic or literal string, no escapes
        end = raw.find(raw[0], 1)
        if end < 0:
            raise ConfigError(f"unterminated string for {key}")
        tail = raw[end + 1:].strip()
        if tail and not tail.startswith("#"):
            raise ConfigError(f"trailing junk after the string for {key}")
        raw = raw[1:end]
    else:
        raw = raw.split("#", 1)[0].strip()
    if not raw:
        raise ConfigError(f"missing value for {key!r}")
    if _KEY_TYPES[key] is str:
        return raw
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {raw!r}") from None
    if _KEY_TYPES[key] is int:
        if not float(val).is_integer():
            raise ConfigError(f"{key} expects an integer, got {raw!r}")
        return int(val)
    return val


def parse_config(text: str) -> SimConfig:
    """Parse and validate run-configuration text; see the module docstring."""
    values = {sec: {} for sec in _SECTIONS}
    seen = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header")
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section "
                                  f"[{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        full = key if "." in key else (f"{section}.{key}" if section else key)
        if full not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {full!r}")
        if full in seen:
            raise ConfigError(f"line {lineno}: duplicate key {full!r} "
                              f"(first set on line {seen[full]})")
        seen[full] = lineno
        sec_name, name = full.split(".")
        try:
            values[sec_name][name] = _parse_value(raw, full)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return _build(values)


def parse_config_file(path) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _build(values: dict) -> SimConfig:
    """The validated config whose sections are built from the field values
    in values[section]; omitted fields take their defaults.  Grid, GasModel
    and StepControls check themselves as they are constructed."""
    sections = {}
    for sec, cls in _SECTIONS.items():
        try:
            sections[sec] = cls(**values[sec])
        except ValueError as exc:
            raise ConfigError(f"{sec}: {exc}") from exc
    return SimConfig(**sections)


def _validate(cfg: SimConfig):
    ic = cfg.init
    if not ic.eps >= 0.0:
        raise ConfigError("init.eps must be >= 0")
    if ic.file and ic.preset:
        raise ConfigError("init.preset has no effect: init.file is set")
    if not ic.file and ic.preset_name not in PRESET_PARAMS:
        raise ConfigError(f"init.preset: unknown preset {ic.preset!r}; "
                          f"choose from {tuple(PRESET_PARAMS)}")
    taken = () if ic.file else PRESET_PARAMS[ic.preset_name]
    for key, val in _preset_params(ic).items():
        if key not in taken:
            raise ConfigError(f"init.{key} has no effect: " + (
                "init.file is set" if ic.file else
                f"preset {ic.preset_name!r} takes {', '.join(taken)}"))
        if not math.isfinite(val):
            raise ConfigError(f"init.{key} must be a finite number, got {val}")
    try:
        _check_alpha(cfg.model, cfg.output.diag_alpha)
    except ValueError as exc:
        raise ConfigError(f"output.diag_alpha: {exc}") from exc
    report = check_admissible(cfg.model, cfg.grid.m)
    if not report.ok:
        raise ConfigError("inadmissible model/grid combination:\n"
                          + str(report))


def build_grid(cfg: SimConfig) -> Grid:
    """The config's ``[grid]`` section, already a validated Grid."""
    return cfg.grid


def build_model(cfg: SimConfig) -> GasModel:
    """The config's ``[model]`` section, already a validated GasModel."""
    return cfg.model


def _preset_params(ic: InitConfig) -> dict:
    """The preset parameters that ic sets."""
    return {key: getattr(ic, key) for key in _PRESET_FIELDS
            if getattr(ic, key) is not None}


def build_initial(cfg: SimConfig, g, model: GasModel) -> State:
    """The config's t = 0 State, built when the config was; g and model are
    its grid and model."""
    return cfg.initial


def _initial_state(cfg: SimConfig) -> State:
    """The initial State from the config: preset or CSV file, then the
    optional epsilon-regularization with its re-solved radial velocity.
    It reads the [grid], [model] and [init] sections only; its fields are
    read-only, so that runs and their snapshots can share them."""
    ic, g, model = cfg.init, cfg.grid, cfg.model
    try:
        if ic.file:
            s = load_initial_csv(ic.file, g)
        else:
            s = preset(ic.preset_name, g, **_preset_params(ic))
        if ic.eps > 0.0:
            g1 = np.nan_to_num(radial_residual(s, model), nan=0.0)
            s = regularize(s, ic.eps)
            s = replace(s, u=solve_initial_velocity(model, s.rho, s.theta,
                                                    g1, g))
            # the re-solve can overflow on finite data
            validate_initial(s)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"init: {exc}") from exc
    for name in FIELDS:
        getattr(s, name).flags.writeable = False
    return s


def override_config(cfg: SimConfig, key: str, raw_value: str) -> SimConfig:
    """A new config with one dotted key overridden (sweep support); cfg
    itself is left unchanged."""
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    values = {sec: {} for sec in _SECTIONS}
    for full in _KEY_TYPES:
        sec, name = full.split(".")
        values[sec][name] = getattr(getattr(cfg, sec), name)
    sec_name, name = key.split(".")
    values[sec_name][name] = _parse_value(raw_value, key)
    return _build(values)
