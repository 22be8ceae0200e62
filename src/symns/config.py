"""Run configuration: a line-oriented TOML subset and its validation.

Accepted syntax: ``[section]`` headers, ``key = value`` lines (dotted keys
work outside sections too), ``#`` comments, quoted or bare strings,
integers, floats (``inf`` allowed for dt_max).  Unknown and duplicate keys
are errors carrying the line number; validation failures carry the key
path.  Model admissibility is not part of parsing: ``run`` and
``symns verify`` check it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .constitutive import GasModel
from .diagnostics import _check_alpha
from .errors import ConfigError
from .grid import make_grid
from .initdata import (compatibility_residuals, load_initial_csv, preset,
                       regularize, solve_initial_velocity, validate_initial,
                       PRESETS)
from .stepper import StepControls

__all__ = [
    "SimConfig", "GridConfig", "ModelConfig", "InitConfig", "OutputConfig",
    "parse_config", "parse_config_file", "build_grid",
    "build_model", "build_initial", "override_config",
]


@dataclass
class GridConfig:
    a: float = 1.0
    b: float = 2.0
    n: int = 128
    m: int = 2


@dataclass
class ModelConfig:
    family: str = "ideal"   # ideal|linear -> linear Q; power -> power Q
    mu: float = 1.0
    lam: float = 0.0
    r: float = 0.0
    q: float = 2.0
    kappa0: float = 1.0
    A: float = 0.0          # > 0 switches on the barotropic cold pressure
    gamma: float = 2.0


@dataclass
class InitConfig:
    preset: str = "equilibrium"
    file: str = ""
    eps: float = 0.0
    rho_bar: float = 1.0
    theta_bar: float = 1.0
    rho_max: float = 1.0
    center: float | None = None   # None -> preset default
    halfwidth: float | None = None
    floor_frac: float = 0.05
    swirl: float = 0.1
    amplitude: float = 0.05


@dataclass
class OutputConfig:
    out_dir: str = "out"
    snapshot_every: int = 0   # every k steps; 0 keeps initial/final only
    diag_alpha: float = 0.5


@dataclass
class SimConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    init: InitConfig = field(default_factory=InitConfig)
    controls: StepControls = field(default_factory=StepControls)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {"grid": GridConfig, "model": ModelConfig, "init": InitConfig,
             "controls": StepControls, "output": OutputConfig}

# "section.key" -> type of the field's default (int, float or str); a None
# default stands for an unset float
_KEY_TYPES = {f"{sec}.{f.name}":
              float if f.default is None else type(f.default)
              for sec, cls in _SECTIONS.items() for f in fields(cls)}


def _parse_value(raw: str, key: str, lineno: int):
    raw = raw.strip()
    if raw.startswith('"'):
        end = raw.find('"', 1)
        if end < 0:
            raise ConfigError(f"line {lineno}: unterminated string")
        tail = raw[end + 1:].strip()
        if tail and not tail.startswith("#"):
            raise ConfigError(f"line {lineno}: trailing junk after string")
        raw = raw[1:end]
    else:
        raw = raw.split("#", 1)[0].strip()
    if not raw:
        raise ConfigError(f"line {lineno}: missing value for {key!r}")
    if _KEY_TYPES[key] is str:
        return raw
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects a number, "
                          f"got {raw!r}") from None
    if _KEY_TYPES[key] is int:
        if not float(val).is_integer():
            raise ConfigError(f"line {lineno}: {key} expects an integer, "
                              f"got {raw!r}")
        return int(val)
    return val


def parse_config(text: str) -> SimConfig:
    """Parse and validate run-configuration text; see the module docstring."""
    cfg = SimConfig()
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
        setattr(getattr(cfg, sec_name), name, _parse_value(raw, full, lineno))
    _validate(cfg)
    return cfg


def parse_config_file(path) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _validate(cfg: SimConfig):
    try:
        build_grid(cfg)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    try:
        model = build_model(cfg)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    try:
        cfg.controls.validate()
    except ValueError as exc:
        raise ConfigError(f"controls: {exc}") from exc
    if not cfg.init.eps >= 0.0:
        raise ConfigError("init.eps must be >= 0")
    for key in sorted(set().union(*_PRESET_KEYS.values())):
        val = getattr(cfg.init, key)
        if val is not None and not math.isfinite(val):
            raise ConfigError(f"init.{key} must be a finite number, got {val}")
    if not cfg.init.file and cfg.init.preset not in PRESETS:
        raise ConfigError(f"init.preset: unknown preset {cfg.init.preset!r}; "
                          f"choose from {PRESETS}")
    try:
        _check_alpha(model, cfg.output.diag_alpha)
    except ValueError as exc:
        raise ConfigError(f"output.diag_alpha: {exc}") from exc
    if cfg.output.snapshot_every < 0:
        raise ConfigError("output snapshot cadence must be >= 0")


def build_grid(cfg: SimConfig):
    return make_grid(cfg.grid.a, cfg.grid.b, cfg.grid.n, cfg.grid.m)


def build_model(cfg: SimConfig) -> GasModel:
    mc = cfg.model
    if mc.family in ("ideal", "linear"):
        if mc.r != 0.0:
            raise ValueError("model.r must be 0 for the linear/ideal family")
        q_family, r = "linear", 0.0
    elif mc.family == "power":
        q_family, r = "power", mc.r
    else:
        raise ValueError(f"unknown model.family {mc.family!r}")
    return GasModel(mu=mc.mu, lam=mc.lam, kappa0=mc.kappa0, q=mc.q,
                    q_family=q_family, r=r, A=mc.A, gamma=mc.gamma)


_PRESET_KEYS = {
    "equilibrium": ("rho_bar", "theta_bar"),
    "vacuum_bump": ("rho_max", "center", "halfwidth", "theta_bar",
                    "floor_frac"),
    "swirl_cylinder": ("rho_bar", "theta_bar", "swirl"),
    "manufactured": ("rho_bar", "theta_bar", "amplitude"),
}


def build_initial(cfg: SimConfig, g, model: GasModel):
    """The initial State from the config: preset or CSV file, then the
    optional epsilon-regularization with its re-solved radial velocity."""
    ic = cfg.init
    try:
        if ic.file:
            s = load_initial_csv(ic.file, g)
        else:
            params = {key: getattr(ic, key) for key in _PRESET_KEYS[ic.preset]
                      if getattr(ic, key) is not None}
            s = preset(ic.preset, g, **params)
        if ic.eps > 0.0:
            res = compatibility_residuals(s, model,
                                          rho_vac_tol=cfg.controls.rho_vac_tol)
            g1 = np.nan_to_num(res.g1, nan=0.0)
            s = regularize(s, ic.eps)
            s = replace(s, u=solve_initial_velocity(model, s.rho, s.theta,
                                                    g1, g))
            # the re-solve can overflow on finite data
            validate_initial(s)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"init: {exc}") from exc
    return s


def override_config(cfg: SimConfig, key: str, raw_value: str) -> SimConfig:
    """Deep-copied config with one dotted key overridden (sweep support)."""
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    out = copy.deepcopy(cfg)
    sec_name, name = key.split(".")
    setattr(getattr(out, sec_name), name, _parse_value(raw_value, key, 0))
    _validate(out)
    return out
