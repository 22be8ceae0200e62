import math

import numpy as np
import pytest

from symns.constitutive import (GasModel, check_admissible, conductivity,
                                heat_capacity, internal_energy, pressure,
                                sound_speed)


def test_pressure_ideal():
    assert pressure(GasModel(), 2.0, 3.0) == 6.0


def test_pressure_vacuum_is_zero():
    m = GasModel(family="power", mu=1, lam=0, r=1, q=2, A=1, gamma=2)
    for theta in (0.0, 1.0, 17.3):
        assert pressure(m, 0.0, theta) == 0.0


def test_pressure_power_barotropic():
    m = GasModel(family="power", mu=1, lam=0, r=1, q=2, A=1, gamma=2)
    # rho*(theta + theta^2/2) + rho^2 at rho = theta = 1
    assert pressure(m, 1.0, 1.0) == pytest.approx(2.5, rel=1e-15)
    # A > 0 alone selects the barotropic cold pressure
    m = GasModel(mu=1.0, lam=0.0, kappa0=1.0, q=2.0, A=2.0)
    assert m.pc_family == "barotropic"
    assert pressure(m, 1.0, 1.0) == 3.0


def test_pressure_rejects_negative_inputs():
    with pytest.raises(ValueError):
        pressure(GasModel(), -1.0, 1.0)
    with pytest.raises(ValueError):
        pressure(GasModel(), 1.0, -1.0)


def test_internal_energy_examples():
    assert internal_energy(GasModel(), 1.0, 5.0) == 5.0
    m = GasModel(family="power", mu=1, lam=0, r=0.5, q=1, A=1, gamma=2)
    assert internal_energy(m, 3.0, 0.0) == pytest.approx(3.0)  # e_c only
    assert internal_energy(m, 0.0, 2.0) == pytest.approx(
        2.0 + 2.0 ** 1.5 / 1.5)  # Q only at vacuum


def test_conductivity_examples():
    assert conductivity(GasModel(kappa0=1, q=2), 2.0) == 5.0
    assert conductivity(GasModel(kappa0=3.5, q=2), 0.0) == 3.5
    assert conductivity(GasModel(kappa0=2, q=0.5), 4.0) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        conductivity(GasModel(), -0.1)


def test_heat_capacity_examples():
    assert heat_capacity(GasModel(), 123.0) == 1.0
    m = GasModel(family="power", mu=1, lam=0, r=2, q=3)
    assert heat_capacity(m, 3.0) == 10.0
    m = GasModel(family="power", mu=1, lam=0, r=0, q=1)
    assert heat_capacity(m, 7.0) == 2.0


def test_model_validation():
    with pytest.raises(ValueError):
        GasModel(mu=0.0, lam=0.0, kappa0=1.0, q=2.0)
    with pytest.raises(ValueError):
        GasModel(mu=1.0, lam=0.0, kappa0=1.0, q=1.0, family="power", r=1.0)
    with pytest.raises(ValueError, match="cold-pressure"):
        GasModel(mu=1.0, lam=0.0, kappa0=1.0, q=2.0, A=-0.5)
    with pytest.raises(ValueError, match="gamma"):
        GasModel(mu=1.0, lam=0.0, kappa0=1.0, q=2.0, A=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        GasModel(mu=1.0, lam=0.0, kappa0=-1.0, q=2.0)


@pytest.mark.parametrize("model", [
    GasModel(),
    GasModel(family="power", mu=1, lam=0, r=0.5, q=2),
    GasModel(family="power", mu=1, lam=0, r=1.0, q=2, A=0.7, gamma=1.4),
    GasModel(family="power", mu=1, lam=0, r=1.0, q=2, A=0.7, gamma=2.0),
    GasModel(mu=1.0, lam=0.0, kappa0=1.0, q=2.0, A=1.3, gamma=1.4),
], ids=["linear", "power", "barotropic-1.4", "power-barotropic-2.0",
        "linear-barotropic-1.4"])
def test_sound_speed_matches_pressure_difference(model):
    rho = np.array([1e-3, 0.2, 1.0, 3.7, 40.0])
    theta = np.array([0.0, 0.5, 1.0, 2.5, 10.0])
    h = 1e-6 * rho
    dp = (pressure(model, rho + h, theta)
          - pressure(model, rho - h, theta)) / (2.0 * h)
    cs = sound_speed(model, rho, theta)
    assert np.allclose(cs ** 2, dp, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("gamma", [1.4, 2.0])
def test_sound_speed_barotropic_vacuum(gamma):
    # P_c'(0) = 0 for gamma > 1: vacuum cells keep only sqrt(Q(theta))
    m = GasModel(family="power", mu=1, lam=0, r=1.0, q=2, A=0.7, gamma=gamma)
    rho = np.array([0.0, 0.0, 0.5, 2.0])
    theta = np.array([0.0, 2.0, 1.0, 3.0])
    cs = sound_speed(m, rho, theta)
    assert cs[0] == 0.0
    assert cs[1] == np.sqrt(2.0 + 2.0 ** 2 / 2.0)
    h = 1e-6 * rho[2:]
    dp = (pressure(m, rho[2:] + h, theta[2:])
          - pressure(m, rho[2:] - h, theta[2:])) / (2.0 * h)
    assert np.allclose(cs[2:] ** 2, dp, rtol=1e-6, atol=0.0)
    assert sound_speed(m, 0.0, 1.0) == pytest.approx(np.sqrt(1.5), rel=1e-15)


def _thermo_residual(model, rho, theta):
    """P - rho^2 de/drho - theta dP/dtheta, the partials by centered
    differences with relative step 1e-6.  Analytically it is
    rho*(Q(theta) - theta*Q'(theta)): zero for the ideal family and for any
    cold pressure, -rho*r*theta^(1+r)/(1+r) for the power family."""
    hr, ht = 1e-6 * rho, 1e-6 * theta
    de_drho = (internal_energy(model, rho + hr, theta)
               - internal_energy(model, rho - hr, theta)) / (2.0 * hr)
    dP_dtheta = (pressure(model, rho, theta + ht)
                 - pressure(model, rho, theta - ht)) / (2.0 * ht)
    return pressure(model, rho, theta) - rho * rho * de_drho - theta * dP_dtheta


def test_thermo_residual_ideal_gas():
    assert abs(_thermo_residual(GasModel(), 1.0, 1.0)) <= 1e-7


def test_thermo_residual_barotropic_cancellation():
    # rho^2 e_c' = P_c holds analytically, so only FD noise remains
    m = GasModel(mu=1.0, lam=0.0, kappa0=1.0, q=2.0, A=1.0, gamma=2.0)
    P = pressure(m, 2.0, 1.0)
    assert abs(_thermo_residual(m, 2.0, 1.0)) <= 1e-7 * (1.0 + abs(P))


def test_thermo_residual_power_family_is_nonzero():
    # documented behavior: the power family with r > 0 does not satisfy the
    # consistency identity; the residual is -rho*r*theta^(1+r)/(1+r)
    m = GasModel(family="power", mu=1, lam=0, r=1.0, q=3.0, A=1.0, gamma=2.0)
    analytic = -1.0 * 1.0 * 2.0 ** 2 / 2.0
    assert _thermo_residual(m, 1.0, 2.0) == pytest.approx(analytic, rel=1e-5)


def test_thermo_residual_ideal_gas_grid():
    m = GasModel()
    rho, theta = np.meshgrid(np.linspace(0.05, 10, 20),
                             np.linspace(0.05, 10, 20))
    P = pressure(m, rho, theta)
    assert np.all(np.abs(_thermo_residual(m, rho, theta))
                  <= 1e-7 * (1.0 + np.abs(P)))


def test_check_admissible_lame_combination():
    ok = check_admissible(GasModel(mu=1.0, lam=-0.6, kappa0=1, q=2), m=2)
    assert ok.ok  # 2 - 1.8 = 0.2 > 0
    bad = check_admissible(GasModel(mu=1.0, lam=-0.7, kappa0=1, q=2), m=2)
    assert not bad.ok
    assert any("2*mu" in name and not passed
               for name, passed, _ in bad.checks)


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("field", ["mu", "lam", "r", "q", "kappa0", "A",
                                   "gamma"])
def test_infinite_parameter_rejected_naming_field(field, value):
    # every range check of a power gas with cold pressure is active here
    base = dict(family="power", mu=1.0, lam=0.0, r=0.5, q=2.0, kappa0=1.0,
                A=0.5, gamma=2.0)
    with pytest.raises(ValueError, match=rf"\b{field}={value}\b"):
        GasModel(**{**base, field: value})


def test_q_equal_r_rejected_at_construction():
    with pytest.raises(ValueError, match="q > r"):
        GasModel(mu=1.0, lam=0.0, kappa0=1.0, q=1.0, family="power", r=1.0)


def test_check_admissible_ideal_passes():
    rep = check_admissible(GasModel(mu=1.0, lam=0.0, q=2.0), m=2)
    assert rep.ok
    assert "pass" in str(rep)


@pytest.mark.parametrize("model, constants", [
    # the sampled closed forms of the old check overflowed to NaN here
    (GasModel(family="power", mu=1, lam=0, r=0.5, q=2, A=0.5, gamma=200),
     "C1 = gamma - 1 = 199.0, C4 = C5 = 1.0"),
    (GasModel(family="power", mu=1, lam=0, r=200, q=300),
     "e_c = 0, C4 = C5 = 1.0"),
    (GasModel(), "e_c = 0, C4 = C5 = 0.5"),
])
def test_check_admissible_reports_exact_constants(model, constants):
    rep = check_admissible(model, m=2)
    assert rep.ok, str(rep)
    assert constants in str(rep)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_check_admissible_fails_exactly_on_lame_condition(m):
    # lam at, just above and just below -2*mu/(m+1)
    edge = -2.0 / (m + 1)
    for lam, ok in ((edge, False), (edge * 0.99, True), (edge * 1.01, False)):
        rep = check_admissible(GasModel(lam=lam), m)
        assert rep.ok is ok
        failed = [name for name, passed, _ in rep.checks if not passed]
        assert len(failed) == (0 if ok else 1)


def test_monotonicity_in_theta():
    thetas = np.linspace(0.0, 5.0, 30)
    for m in (GasModel(), GasModel(family="power", mu=1, lam=0, r=1.5, q=2,
                                   A=0.3, gamma=1.4)):
        p = pressure(m, 2.0, thetas)
        e = internal_energy(m, 2.0, thetas)
        assert np.all(np.diff(p) >= 0)
        assert np.all(np.diff(e) >= 0)


def test_vacuum_compatibility():
    for m in (GasModel(), GasModel(family="power", mu=1, lam=0, r=1, q=2,
                                   A=2, gamma=3)):
        assert pressure(m, 0.0, 4.0) == 0.0
        assert internal_energy(m, 0.0, 0.0) == 0.0


def test_conductivity_ratio_is_constant():
    m = GasModel(kappa0=2.5, q=1.5)
    thetas = np.linspace(0.0, 50.0, 40)
    ratio = conductivity(m, thetas) / (1.0 + thetas ** m.q)
    assert np.allclose(ratio, 2.5, rtol=1e-14)
