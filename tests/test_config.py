import math

import numpy as np
import pytest

from symns.config import (_PRESET_KEYS, build_initial, build_grid,
                          build_model, override_config, parse_config)
from symns.constitutive import check_admissible
from symns.errors import ConfigError
from symns.initdata import preset


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
    ("[model]\nr = nan\n", "model: model.r"),
    ("[model]\nfamily = power\nr = nan\n", "model: r must be >= 0"),
    ("[model]\nA = nan\n", "model: cold-pressure"),
    ("[model]\nA = 1.0\ngamma = nan\n", "model: barotropic family"),
    ("[controls]\ncfl = nan\n", "controls: need 0 < cfl"),
    ("[controls]\npicard_tol = nan\n", "controls: picard_tol"),
    ("[controls]\nrho_vac_tol = nan\n", "controls: rho_vac_tol"),
    ("[controls]\ndt_min = nan\n", "controls: dt_min"),
    ("[controls]\ndt_max = nan\n", "controls: dt_max"),
    ("[controls]\nt_end = nan\n", "controls: t_end"),
    ("[init]\neps = nan\n", "init.eps"),
    ("[output]\ndiag_alpha = nan\n", "output.diag_alpha"),
] + [(f"[init]\npreset = {preset}\n{key} = nan\n", f"init.{key}")
     for preset, keys in _PRESET_KEYS.items() for key in keys]
  + [(f"[init]\npreset = {preset}\n{key} = inf\n", f"init.{key}")
     for preset, keys in _PRESET_KEYS.items() for key in keys])
def test_nan_values_rejected(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_infinite_outer_radius_rejected():
    with pytest.raises(ConfigError, match="grid: outer radius must be finite"):
        parse_config("[grid]\nb = inf\nn = 16\n")


@pytest.mark.parametrize("name", sorted(_PRESET_KEYS))
def test_omitted_preset_keys_keep_preset_defaults(name):
    cfg = parse_config(f"[grid]\nn = 16\nm = 1\n[init]\npreset = {name}\n")
    g = build_grid(cfg)
    d = build_initial(cfg, g, build_model(cfg))
    ref = preset(name, g)
    for f in ("rho", "u", "v", "w", "theta"):
        assert np.array_equal(getattr(d, f), getattr(ref, f))


def test_method_names_are_not_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[controls]\nvalidate = 1\n")


def test_removed_keys_are_unknown():
    with pytest.raises(ConfigError, match="unknown key 'output.snapshot_dt'"):
        parse_config("[output]\nsnapshot_dt = 0.1\n")


def test_build_model_families():
    cfg = parse_config("[model]\nfamily = power\nr = 1.0\nq = 2.0\nA = 0.5\n")
    m = build_model(cfg)
    assert m.q_family == "power" and m.pc_family == "barotropic"
    cfg = parse_config("[model]\nfamily = linear\n")
    assert build_model(cfg).q_family == "linear"


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
    cfg = parse_config(f'[grid]\nn = 16\n[init]\nfile = "{path}"\n')
    g = build_grid(cfg)
    table = {"x": g.centers, "rho": np.ones(16), "u": np.zeros(16),
             "v": np.zeros(16), "w": np.zeros(16), "theta": np.ones(16)}
    table[column][5] = value
    np.savetxt(path, np.column_stack(list(table.values())), fmt="%.17g",
               delimiter=",", header=",".join(table), comments="")
    with pytest.raises(ConfigError,
                       match=f"init: initial field {column} has non-finite"):
        build_initial(cfg, g, build_model(cfg))


def test_override_config():
    cfg = parse_config("[grid]\nn = 64\n")
    cfg2 = override_config(cfg, "grid.n", "128")
    assert cfg2.grid.n == 128 and cfg.grid.n == 64
    with pytest.raises(ConfigError):
        override_config(cfg, "grid.zzz", "1")
    with pytest.raises(ConfigError):
        override_config(cfg, "grid.a", "0.0")
