import os

import numpy as np
import pytest

import symns.cli
import symns.initdata
from symns.cli import cli, convergence_study
from symns.config import parse_config
from symns.errors import ConfigError
from symns.stepper import run

EQ_CONFIG = """
[grid]
n = 32

[init]
preset = "equilibrium"

[controls]
t_end = 0.0

[output]
out_dir = "{out}"
"""


def _write(tmp_path, text, name="run.toml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_zero_time_writes_one_snapshot(tmp_path):
    out = tmp_path / "out"
    cfgp = _write(tmp_path, EQ_CONFIG.format(out=out))
    assert cli(["run", cfgp]) == 0
    snaps = sorted(p for p in os.listdir(out) if p.startswith("snapshot"))
    assert snaps == ["snapshot_0000000.csv"]
    assert (out / "diagnostics.csv").exists()


def test_run_bad_config_exits_3(tmp_path):
    cfgp = _write(tmp_path, "[grid]\na = 0.0\n")
    assert cli(["run", cfgp]) == 3
    assert cli(["run", str(tmp_path / "missing.toml")]) == 3


def test_run_inadmissible_exits_3_without_force(tmp_path):
    text = ("[model]\nlam = -0.7\n[controls]\nt_end = 0.001\n"
            f"[output]\nout_dir = \"{tmp_path / 'o'}\"\n[grid]\nn = 32\n")
    cfgp = _write(tmp_path, text)
    assert cli(["run", cfgp]) == 3


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("SYMNS_OUT_DIR", str(override))
    cfgp = _write(tmp_path, EQ_CONFIG.format(out=tmp_path / "ignored"))
    assert cli(["run", cfgp]) == 0
    assert override.exists()
    assert not (tmp_path / "ignored").exists()


def test_snapshot_roundtrip_bit_exact(tmp_path):
    out1 = tmp_path / "first"
    text = f"""
[grid]
n = 48
[init]
preset = "vacuum_bump"
[controls]
t_end = 0.01
[output]
out_dir = "{out1}"
"""
    assert cli(["run", _write(tmp_path, text)]) == 0
    snaps = sorted(p for p in os.listdir(out1) if p.startswith("snapshot"))
    final = str(out1 / snaps[-1])

    out2 = tmp_path / "second"
    text2 = f"""
[grid]
n = 48
[init]
file = "{final}"
[controls]
t_end = 0.0
[output]
out_dir = "{out2}"
"""
    assert cli(["run", _write(tmp_path, text2, "reload.toml")]) == 0
    a = (out1 / snaps[-1]).read_text()
    b = (out2 / "snapshot_0000000.csv").read_text()
    assert a == b


def test_verify_equilibrium_reports_zero_residuals(tmp_path, capsys):
    cfgp = _write(tmp_path, EQ_CONFIG.format(out=tmp_path / "o"))
    assert cli(["verify", cfgp]) == 0
    out = capsys.readouterr().out
    assert "g1 = 0" in out and "g4 = 0" in out
    assert "vacuum cells: none" in out


def test_verify_vacuum_preset_reports_vacuum_cells(tmp_path, capsys):
    text = ("[grid]\nn = 48\n[init]\npreset = \"vacuum_bump\"\n"
            f"[output]\nout_dir = \"{tmp_path / 'o'}\"\n")
    assert cli(["verify", _write(tmp_path, text)]) == 0
    assert "vacuum cells:" in capsys.readouterr().out


def test_verify_inadmissible_exits_3(tmp_path, capsys):
    text = "[model]\nlam = -0.7\n[grid]\nn = 32\n"
    assert cli(["verify", _write(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: inadmissible model/grid")
    assert "FAIL" in err


# finite data whose eps re-solve overflows to a non-finite radial velocity
OVERFLOW_CONFIG = """
[grid]
n = 32
[init]
preset = "vacuum_bump"
rho_max = 1e10
theta_bar = 1e300
eps = 1e-3
"""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_overflowing_resolve_is_config_error(tmp_path, capsys):
    assert cli(["verify", _write(tmp_path, OVERFLOW_CONFIG)]) == 3
    err = capsys.readouterr().err
    assert "config error: init: initial field u has non-finite" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_overflowing_resolve_is_config_error():
    with pytest.raises(ConfigError, match="init: initial field u"):
        run(parse_config(OVERFLOW_CONFIG))


def test_sweep_runs_and_summarizes(tmp_path, capsys):
    out = tmp_path / "sw"
    text = f"""
[grid]
n = 32
[init]
preset = "manufactured"
[controls]
t_end = 0.002
[output]
out_dir = "{out}"
"""
    cfgp = _write(tmp_path, text)
    assert cli(["sweep", cfgp, "--vary", "model.q=2.0,3.0"]) == 0
    printed = capsys.readouterr().out
    assert "completed" in printed
    assert (out / "sweep_summary.csv").exists()
    assert (out / "model_q_2.0").exists() and (out / "model_q_3.0").exists()
    lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per value


def test_sweep_runs_values_in_vary_order_past_a_failed_run(tmp_path,
                                                         capsys):
    # the first value stops at its step cap, which it reports on stderr;
    # the second still runs
    out = tmp_path / "o"
    text = ("[grid]\nn = 16\n[init]\npreset = \"manufactured\"\n"
            "[controls]\nt_end = 0.002\ndt_max = 1e-4\n"
            f"[output]\nout_dir = \"{out}\"\n")
    cfgp = _write(tmp_path, text)
    assert cli(["sweep", cfgp, "--vary", "controls.max_steps=5,100000"]) == 2
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert [ln.split(",")[1:4] for ln in lines[1:]] == [
        ["5", "solver_failure", "5"], ["100000", "completed", "20"]]
    assert capsys.readouterr().err == "terminated: 5: exceeded max_steps = 5\n"


@pytest.mark.parametrize("command", [["run"],
                                     ["sweep", "--vary", "model.q=2.0,3.0"]])
def test_unwritable_out_dir_exits_3_before_running(tmp_path, monkeypatch,
                                                   capsys, command):
    def no_run(*args, **kwargs):
        raise AssertionError("run started")

    monkeypatch.setattr(symns.cli, "run", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfgp = _write(tmp_path, EQ_CONFIG.format(out=blocker / "out"))
    assert cli([command[0], cfgp] + command[1:]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


BUMP_EPS_CONFIG = """
[grid]
n = 32
[init]
preset = "vacuum_bump"
eps = 0.001
[controls]
t_end = 0.001
[output]
out_dir = "{out}"
"""


def _break_initial_velocity_solve(monkeypatch):
    """Make the initial-velocity solve fail its residual check."""
    monkeypatch.setattr(symns.initdata, "solve_tridiagonal",
                        lambda a, b, c, d, context: np.ones(len(b)))


def test_run_initial_velocity_failure_exits_2(tmp_path, monkeypatch, capsys):
    _break_initial_velocity_solve(monkeypatch)
    cfgp = _write(tmp_path, BUMP_EPS_CONFIG.format(out=tmp_path / "o"))
    assert cli(["run", cfgp]) == 2
    assert "solver failure: initial velocity solve residual" in \
        capsys.readouterr().err


def test_sweep_solver_failure_exits_2_before_running(tmp_path, monkeypatch,
                                                     capsys):
    # the failing value's initial state is built, and fails, before any run
    _break_initial_velocity_solve(monkeypatch)
    out = tmp_path / "sw"
    text = BUMP_EPS_CONFIG.format(out=out).replace("eps = 0.001", "eps = 0.0")
    cfgp = _write(tmp_path, text)
    assert cli(["sweep", cfgp, "--vary", "init.eps=0.0,0.001"]) == 2
    assert "solver failure: initial velocity solve residual" in \
        capsys.readouterr().err
    assert os.listdir(out) == []


def test_sweep_repeated_value_exits_3_without_running(tmp_path, monkeypatch,
                                                      capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("run started")

    monkeypatch.setattr(symns.cli, "run", no_run)
    out = tmp_path / "o"
    cfgp = _write(tmp_path, EQ_CONFIG.format(out=out))
    assert cli(["sweep", cfgp, "--vary", "model.q=2.0,3.0,2.0"]) == 3
    assert "config error: --vary repeats 2.0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_of_out_dir_exits_3_without_running(tmp_path, monkeypatch,
                                                  capsys):
    # the run never reads out_dir, so each value would run the same config
    def no_build(*args, **kwargs):
        raise AssertionError("config built")

    monkeypatch.setattr(symns.cli, "parse_config_file", no_build)
    monkeypatch.setattr(symns.cli, "override_config", no_build)
    monkeypatch.setattr(symns.cli, "run", no_build)
    out = tmp_path / "o"
    cfgp = _write(tmp_path, EQ_CONFIG.format(out=out))
    assert cli(["sweep", cfgp, "--vary", "output.out_dir=a,b"]) == 3
    assert "config error: --vary output.out_dir" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.rglob("output_out_dir_*"))


def test_sweep_of_untaken_preset_key_exits_3_without_running(tmp_path,
                                                           capsys):
    out = tmp_path / "o"
    cfgp = _write(tmp_path, EQ_CONFIG.format(out=out))
    assert cli(["sweep", cfgp, "--vary", "init.swirl=0.1,0.2"]) == 3
    assert "config error: init.swirl has no effect" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_sweep_rejects_bad_vary(tmp_path):
    cfgp = _write(tmp_path, EQ_CONFIG.format(out=tmp_path / "o"))
    assert cli(["sweep", cfgp, "--vary", "nonsense"]) == 3
    assert cli(["sweep", cfgp, "--vary", "grid.zzz=1,2"]) == 3


def test_sweep_names_the_key_of_a_bad_vary_value(tmp_path, capsys):
    # a --vary value has no line of its own, so its message names the key
    cfgp = _write(tmp_path, EQ_CONFIG.format(out=tmp_path / "o"))
    assert cli(["sweep", cfgp, "--vary", "model.q=abc,2"]) == 3
    assert capsys.readouterr().err == (
        "config error: model.q expects a number, got 'abc'\n")
    assert cli(["sweep", cfgp, "--vary", "init.preset='swirl"]) == 3
    assert capsys.readouterr().err == (
        "config error: unterminated string for init.preset\n")


def test_convergence_command(tmp_path, capsys):
    text = f"""
[grid]
n = 16
[init]
preset = "manufactured"
amplitude = 0.005
[controls]
t_end = 0.01
[output]
out_dir = "{tmp_path / 'o'}"
"""
    cfgp = _write(tmp_path, text)
    assert cli(["convergence", cfgp, "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "fitted spatial orders" in out


def test_convergence_study_orders():
    cfg = parse_config("""
[grid]
n = 32
[init]
preset = "manufactured"
amplitude = 0.005
[controls]
t_end = 0.02
""")
    res = convergence_study(cfg, 3)
    assert res.reasons == ["completed"] * 3
    assert res.orders[0]["combined"] >= 1.7


def test_exit_code_mapping_total():
    from symns.cli import _REASON_EXIT
    assert set(_REASON_EXIT) == {"completed", "dt_underflow",
                                 "solver_failure", "nan_detected"}


@pytest.mark.parametrize("argv", [
    ["sweep", "c.toml", "--vary", "model.q=2.0,3.0", "--workers", "1"], []],
    ids=["removed-option", "no-subcommand"])
def test_usage_error_exits_3(argv, capsys):
    # argparse's own exit status 2 would read as a solver failure
    assert cli(argv) == 3
    assert "error: " in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli(["-h"]) == 0
    assert "runs over one varied key, in sequence" in capsys.readouterr().out


def test_run_missing_init_file_exits_3(tmp_path):
    text = (f"[init]\nfile = \"{tmp_path / 'nope.csv'}\"\n"
            f"[output]\nout_dir = \"{tmp_path / 'o'}\"\n[grid]\nn = 32\n")
    assert cli(["run", _write(tmp_path, text)]) == 3


def test_run_wrong_grid_init_file_exits_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,rho,u,v,w,theta\n" + "1.0,1,0,0,0,1\n" * 8)
    text = (f"[init]\nfile = \"{bad}\"\n"
            f"[output]\nout_dir = \"{tmp_path / 'o'}\"\n[grid]\nn = 32\n")
    assert cli(["run", _write(tmp_path, text)]) == 3


def test_run_overflowing_total_mass_exits_3(tmp_path, capsys):
    # finite rho whose weighted sum passes the float range
    rows = np.column_stack([1.0 + (np.arange(16) + 0.5) / 16,
                            np.full(16, 1e308), np.zeros((16, 3)),
                            np.ones(16)])
    path = tmp_path / "big.csv"
    np.savetxt(path, rows, fmt="%.17g", delimiter=",",
               header="x,rho,u,v,w,theta", comments="")
    text = (f"[init]\nfile = \"{path}\"\n"
            f"[output]\nout_dir = \"{tmp_path / 'o'}\"\n[grid]\nn = 16\n")
    assert cli(["run", _write(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert ("config error: init: initial total mass must be positive and "
            "finite, got inf") in err
    assert "Traceback" not in err
