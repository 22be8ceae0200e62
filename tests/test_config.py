import dataclasses
import glob
import math
import os

import numpy as np
import pytest

import symns.cli
import symns.config
from symns.config import (_KEY_TYPES, InitConfig, OutputConfig,
                          build_initial, build_grid, build_model,
                          override_config, parse_config, parse_config_file)
from symns.constitutive import GasModel, check_admissible, ideal_gas
from symns.errors import ConfigError
from symns.grid import Grid, make_grid
from symns.initdata import PRESET_PARAMS, preset
from symns.stepper import StepControls, run


def test_minimal_config_defaults():
    cfg = parse_config("")
    assert cfg.controls.cfl == 0.4
    assert cfg.init.eps == 0.0
    assert cfg.grid.m == 2
    assert cfg.model.q == 2.0 and cfg.model.r == 0.0
    assert cfg.model.mu == 1.0 and cfg.model.lam == 0.0
    assert check_admissible(build_model(cfg), cfg.grid.m).ok


def test_sections_and_dotted_keys_equivalent():
    c1 = parse_config("[grid]\na = 1.5\nn = 64\n")
    c2 = parse_config("grid.a = 1.5\ngrid.n = 64\n")
    assert c1.grid.a == c2.grid.a == 1.5
    assert c1.grid.n == c2.grid.n == 64


def test_duplicate_key_names_line():
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("[grid]\na = 1.5\na = 1.6\n")


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[grid]\nwidth = 1.5\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[mesh]\n")


def test_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_comments_and_inline_comments():
    cfg = parse_config("# full line\n[grid]\nn = 64  # inline\n")
    assert cfg.grid.n == 64


def test_string_values_quoted_and_bare():
    c1 = parse_config('[init]\npreset = "vacuum_bump"\n')
    c2 = parse_config("[init]\npreset = vacuum_bump\n")
    assert c1.init.preset == c2.init.preset == "vacuum_bump"


def test_q_equal_r_is_config_error():
    with pytest.raises(ConfigError, match="q > r"):
        parse_config("[model]\nfamily = power\nq = 1.0\nr = 1.0\n")


def test_type_enforcement():
    with pytest.raises(ConfigError, match="integer"):
        parse_config("[grid]\nn = 64.5\n")
    with pytest.raises(ConfigError, match="number"):
        parse_config("[grid]\na = wide\n")


def test_inf_dt_max():
    cfg = parse_config("[controls]\ndt_max = inf\n")
    assert math.isinf(cfg.controls.dt_max)


def test_grid_validation_uses_key_path():
    with pytest.raises(ConfigError, match="grid"):
        parse_config("[grid]\na = 0.0\n")


def test_diag_alpha_range_checked():
    with pytest.raises(ConfigError, match="diag_alpha"):
        parse_config("[output]\ndiag_alpha = 1.0\n")
    with pytest.raises(ConfigError, match="diag_alpha"):
        parse_config("[model]\nq = 0.4\n[output]\ndiag_alpha = 0.5\n")


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        parse_config("[init]\npreset = tophat\n")


@pytest.mark.parametrize("key", ["picard_max", "max_steps"])
def test_controls_counts_must_be_positive(key):
    with pytest.raises(ConfigError, match=f"controls: {key}"):
        parse_config(f"[controls]\n{key} = 0\n")


def test_negative_t_end_rejected():
    with pytest.raises(ConfigError, match="controls: t_end"):
        parse_config("[controls]\nt_end = -1.0\n")


def test_negative_cold_pressure_rejected():
    with pytest.raises(ConfigError, match="model: cold-pressure"):
        parse_config("[model]\nA = -0.5\n")


@pytest.mark.parametrize("text, match", [
    ("[grid]\na = nan\n", "grid: inner radius"),
    ("[grid]\nb = nan\n", "grid: need b > a"),
    ("[model]\nmu = nan\n", "model: shear viscosity"),
    ("[model]\nkappa0 = nan\n", "model: kappa0"),
    ("[model]\nq = nan\n", "model: conductivity growth"),
    ("[model]\nr = nan\n", "model: r must be 0"),
    ("[model]\nfamily = power\nr = nan\n", "model: r must be >= 0"),
    ("[model]\nA = nan\n", "model: cold-pressure"),
    ("[model]\nA = 1.0\ngamma = nan\n", "model: barotropic family"),
    ("[model]\nlam = nan\n", "model: lam must be finite"),
    ("[model]\ngamma = nan\n", "model: gamma must be finite"),
    ("[controls]\ncfl = nan\n", "controls: need 0 < cfl"),
    ("[controls]\npicard_tol = nan\n", "controls: picard_tol"),
    ("[controls]\nrho_vac_tol = nan\n", "controls: rho_vac_tol"),
    ("[controls]\ndt_min = nan\n", "controls: dt_min"),
    ("[controls]\ndt_max = nan\n", "controls: dt_max"),
    ("[controls]\nt_end = nan\n", "controls: t_end"),
    ("[init]\neps = nan\n", "init.eps"),
    ("[output]\ndiag_alpha = nan\n", "output.diag_alpha"),
] + [(f"[init]\npreset = {preset}\n{key} = nan\n", f"init.{key}")
     for preset, keys in PRESET_PARAMS.items() for key in keys]
  + [(f"[init]\npreset = {preset}\n{key} = inf\n", f"init.{key}")
     for preset, keys in PRESET_PARAMS.items() for key in keys])
def test_nan_values_rejected(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_infinite_model_parameter_exits_3_before_running(tmp_path,
                                                        monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("run started")

    monkeypatch.setattr(symns.cli, "run", no_run)
    path = tmp_path / "run.toml"
    path.write_text(f"[grid]\nn = 16\n[model]\nmu = inf\n"
                    f"[output]\nout_dir = \"{tmp_path / 'out'}\"\n")
    assert symns.cli.cli(["run", str(path)]) == 3
    assert "config error: model: mu must be finite" in capsys.readouterr().err


def test_infinite_outer_radius_rejected():
    with pytest.raises(ConfigError, match="grid: outer radius must be finite"):
        parse_config("[grid]\nb = inf\nn = 16\n")


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_omitted_preset_keys_keep_preset_defaults(name):
    cfg = parse_config(f"[grid]\nn = 16\nm = 1\n[init]\npreset = {name}\n")
    g = build_grid(cfg)
    d = build_initial(cfg, g, build_model(cfg))
    ref = preset(name, g)
    for f in ("rho", "u", "v", "w", "theta"):
        assert np.array_equal(getattr(d, f), getattr(ref, f))


PARAMS = sorted({key for keys in PRESET_PARAMS.values() for key in keys})


def test_every_preset_parameter_is_an_unset_float_key():
    defaults = {f.name: f.default for f in dataclasses.fields(InitConfig)}
    for key in PARAMS:
        assert defaults[key] is None
        assert _KEY_TYPES[f"init.{key}"] is float


@pytest.mark.parametrize("name,key", [(name, key) for name in PRESET_PARAMS
                                      for key in PARAMS
                                      if key not in PRESET_PARAMS[name]])
def test_preset_key_the_preset_does_not_take_rejected(name, key):
    with pytest.raises(ConfigError, match=f"init.{key} has no effect: "
                                          f"preset '{name}' takes "):
        parse_config(f"[init]\npreset = {name}\n{key} = 0.5\n")


@pytest.mark.parametrize("key", ["preset"] + PARAMS)
def test_preset_key_next_to_file_rejected(key):
    with pytest.raises(ConfigError, match=f"init.{key} has no effect: "
                                          "init.file is set"):
        parse_config(f'[init]\nfile = "x.csv"\n{key} = 2\n')


def test_method_names_are_not_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[controls]\nvalidate = 1\n")


def test_removed_keys_are_unknown():
    with pytest.raises(ConfigError, match="unknown key 'output.snapshot_dt'"):
        parse_config("[output]\nsnapshot_dt = 0.1\n")


def test_build_model_families():
    cfg = parse_config("[model]\nfamily = power\nr = 1.0\nq = 2.0\nA = 0.5\n")
    m = build_model(cfg)
    assert m.family == "power" and m.pc_family == "barotropic"
    cfg = parse_config("[model]\nfamily = linear\n")
    assert build_model(cfg).family == "linear"


IDEAL_FIELDS = {"family": "ideal", "mu": 1.0, "lam": 0.0, "r": 0.0, "q": 2.0,
                "kappa0": 1.0, "A": 0.0, "gamma": 2.0}

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                        "configs", "*.toml")))


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_configs_build_the_default_ideal_gas(path):
    model = build_model(parse_config_file(path))
    assert dataclasses.asdict(model) == IDEAL_FIELDS
    assert model == ideal_gas() == GasModel()


def test_model_section_is_gas_model():
    # the model block of the benchmark's workloads
    cfg = parse_config('[model]\nfamily = "ideal"\nmu = 1.0\nlam = 0.0\n'
                       'q = 2.0\n')
    assert dataclasses.asdict(build_model(cfg)) == IDEAL_FIELDS
    assert {k for k in _KEY_TYPES if k.startswith("model.")} == {
        f"model.{name}" for name in IDEAL_FIELDS}
    assert len(_KEY_TYPES) == 34
    every = {"family": "power", "mu": 0.5, "lam": 0.25, "r": 1.5, "q": 3.0,
             "kappa0": 2.0, "A": 0.75, "gamma": 1.4}
    text = "[model]\n" + "".join(f"{k} = {v}\n" for k, v in every.items())
    assert dataclasses.asdict(build_model(parse_config(text))) == every


def test_override_config_model_key():
    cfg = parse_config("[grid]\nn = 16\n")
    cfg2 = override_config(cfg, "model.q", "3.0")
    assert cfg2.model.q == 3.0 and cfg.model.q == 2.0
    assert cfg2.grid == cfg.grid and cfg2.output is not cfg.output
    with pytest.raises(ConfigError, match="model: conductivity growth"):
        override_config(cfg, "model.q", "0.0")
    with pytest.raises(ConfigError, match="model: unknown family 'gas'"):
        override_config(cfg, "model.family", "gas")
    assert cfg.model == GasModel()


def test_build_initial_with_eps_resolves_velocity():
    cfg = parse_config("""
[grid]
n = 64
[init]
preset = "vacuum_bump"
eps = 1e-4
""")
    g = build_grid(cfg)
    model = build_model(cfg)
    d = build_initial(cfg, g, model)
    assert d.rho.min() == pytest.approx(1e-4)
    assert d.u.any()  # re-solved, nonzero against the pressure gradient
    assert not d.v.any() and not d.w.any()  # reused unchanged


@pytest.mark.parametrize("column, value", [
    ("theta", np.inf), ("rho", np.inf), ("rho", np.nan), ("w", -np.inf),
])
def test_non_finite_restart_field_rejected(column, value, tmp_path):
    path = tmp_path / "restart.csv"
    g = Grid(n=16)   # the grid of the configs below
    table = {"x": g.centers, "rho": np.ones(16), "u": np.zeros(16),
             "v": np.zeros(16), "w": np.zeros(16), "theta": np.ones(16)}
    table[column][5] = value
    np.savetxt(path, np.column_stack(list(table.values())), fmt="%.17g",
               delimiter=",", header=",".join(table), comments="")
    with pytest.raises(ConfigError,
                       match=f"init: initial field {column} has non-finite"):
        parse_config(f'[grid]\nn = 16\n[init]\nfile = "{path}"\n')


@pytest.mark.parametrize("column", ["v", "w"])
def test_spherical_restart_with_swirl_or_axial_rejected(column, tmp_path):
    # m = 2 is spherical: the velocity is radial, so v and w must be zero
    path = tmp_path / "restart.csv"
    g = Grid(n=16)   # the grid of the configs below
    table = {"x": g.centers, "rho": np.ones(16), "u": np.zeros(16),
             "v": np.zeros(16), "w": np.zeros(16), "theta": np.ones(16)}
    table[column][5] = 0.1
    np.savetxt(path, np.column_stack(list(table.values())), fmt="%.17g",
               delimiter=",", header=",".join(table), comments="")
    with pytest.raises(ConfigError, match=f"init: initial field {column} "
                                          "must be zero when m = 2 != 1"):
        parse_config(f'[grid]\nn = 16\nm = 2\n[init]\nfile = "{path}"\n')


def test_keys_are_the_init_fields_of_the_section_classes():
    sections = {"grid": Grid, "model": GasModel, "init": InitConfig,
                "controls": StepControls, "output": OutputConfig}
    assert set(_KEY_TYPES) == {
        f"{sec}.{f.name}" for sec, cls in sections.items()
        for f in dataclasses.fields(cls) if f.init}
    assert len(_KEY_TYPES) == 34
    for name in ("dx", "centers", "faces", "weights", "_cache"):
        assert f"grid.{name}" not in _KEY_TYPES


def test_grid_section_is_the_grid():
    cfg = parse_config("[grid]\na = 0.5\nb = 3\nn = 16\nm = 1\n")
    assert build_grid(cfg) is cfg.grid
    assert cfg.grid == make_grid(0.5, 3.0, 16, 1)
    assert np.array_equal(cfg.grid.weights, make_grid(0.5, 3.0, 16, 1).weights)
    assert parse_config("").grid == Grid()


def test_a_parsed_config_builds_one_grid(tmp_path, monkeypatch):
    built = []
    post_init = Grid.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Grid, "__post_init__", counting)
    path = tmp_path / "run.toml"
    path.write_text("[grid]\nn = 16\n[init]\npreset = vacuum_bump\n"
                    "eps = 1e-3\n[controls]\nt_end = 1e-3\n")
    cfg = parse_config_file(path)
    assert len(built) == 1 and built[0] is cfg.grid
    assert build_grid(cfg) is cfg.grid
    assert run(cfg).reason == "completed"
    assert len(built) == 1
    assert symns.cli.cli(["verify", str(path)]) == 0
    assert len(built) == 2   # the one grid of the config verify parses


def test_a_parsed_config_builds_one_initial_state(tmp_path, monkeypatch):
    built = []
    initial_state = symns.config._initial_state

    def counting(cfg):
        built.append(cfg)
        return initial_state(cfg)

    monkeypatch.setattr(symns.config, "_initial_state", counting)
    path = tmp_path / "run.toml"
    path.write_text("[grid]\nn = 16\n[init]\npreset = vacuum_bump\n"
                    "eps = 1e-3\n[controls]\nt_end = 1e-3\n")
    cfg = parse_config_file(path)
    assert len(built) == 1 and built[0] is cfg
    assert build_initial(cfg, cfg.grid, cfg.model) is cfg.initial
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.init.eps = 0.0
    s0 = cfg.initial.copy()
    assert run(cfg).reason == "completed"
    assert len(built) == 1
    for name in ("rho", "u", "v", "w", "theta"):   # run leaves it unchanged
        assert np.array_equal(getattr(cfg.initial, name), getattr(s0, name))
    assert symns.cli.cli(["verify", str(path)]) == 0
    assert len(built) == 2   # the initial state of the config verify parses
    assert symns.cli.convergence_study(cfg, 2).ns == [16, 32]
    assert len(built) == 4   # one per level


def test_override_config():
    cfg = parse_config("[grid]\nn = 64\n")
    cfg2 = override_config(cfg, "grid.n", "128")
    assert cfg2.grid.n == 128 and cfg.grid.n == 64
    with pytest.raises(ConfigError):
        override_config(cfg, "grid.zzz", "1")
    with pytest.raises(ConfigError):
        override_config(cfg, "grid.a", "0.0")
