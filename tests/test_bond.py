import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from conftest import draw_params
from svsir import InvalidParameter, ModelParams, bond_price, ode_residual
from svsir.bond import DegenerateBeta, _log_f_and_g, coefficients, g_of_tau, log_f_of_tau

BASE = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)


def test_coefficients_frozen_value():
    # kappa+lam = 2, sigma = 0.3, beta = 1: d = -sqrt(4.18)
    co = coefficients(BASE)
    assert co.d == pytest.approx(-2.0445048300260873, rel=1e-14)
    assert co.b > 0 and co.c > 0


def test_coefficients_quadratic_identities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = draw_params(rng, beta=rng.uniform(0.25, 2.0))
        co = coefficients(p)
        alpha, s2, beta = p.alpha, p.sigma**2, p.beta
        assert s2 - 2 * alpha * co.c - 2 * beta * co.c**2 == pytest.approx(0.0, abs=1e-12 * s2)
        assert s2 + 2 * alpha * co.b - 2 * beta * co.b**2 == pytest.approx(0.0, abs=1e-11 * max(s2, co.b**2))
        assert co.b * co.c == pytest.approx(s2 / (2 * beta), rel=1e-12)
        assert co.b != -co.c


def test_degenerate_beta_rejected():
    with pytest.raises(DegenerateBeta):
        coefficients(ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0,
                                 rho_sv=-0.5, mu=0.03, beta=1e-15))


def test_g_limits():
    co = coefficients(BASE)
    assert g_of_tau(co, 0.0) == 0.0
    taus = np.linspace(1e-6, 30.0, 200)
    g = g_of_tau(co, taus)
    assert np.all(g < 0)
    assert g_of_tau(co, 500.0) == pytest.approx(-1.0 / co.b, rel=1e-12)


def test_f_limits_and_theta_zero():
    co = coefficients(BASE)
    assert np.exp(log_f_of_tau(BASE, co, 0.0)) == 1.0
    p0 = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    co0 = coefficients(p0)
    for tau in (0.3, 1.0, 7.0):
        assert np.exp(log_f_of_tau(p0, co0, tau)) == pytest.approx(math.exp(-0.03 * tau), rel=1e-14)


def _ode_fg(params, taus):
    """Independent oracle: integrate F' = (eta*G - mu)*F, G' = s2/2*G^2 - alpha*G - beta."""
    eta = params.kappa * params.theta

    def rhs(_t, y):
        f, g = y
        return [(eta * g - params.mu) * f,
                0.5 * params.sigma**2 * g * g - params.alpha * g - params.beta]

    sol = solve_ivp(rhs, [0.0, float(taus[-1])], [1.0, 0.0], t_eval=taus,
                    rtol=1e-12, atol=1e-14, method="RK45")
    return sol.y[0], sol.y[1]


def test_closed_form_matches_ode_oracle():
    rng = np.random.default_rng(17)
    taus = np.array([0.1, 0.5, 1.0, 2.5, 5.0])
    for _ in range(5):
        p = draw_params(rng, beta=rng.uniform(0.25, 2.0))
        co = coefficients(p)
        f_ode, g_ode = _ode_fg(p, taus)
        np.testing.assert_allclose(np.exp(log_f_of_tau(p, co, taus)), f_ode, rtol=1e-8)
        np.testing.assert_allclose(g_of_tau(co, taus), g_ode, rtol=1e-8, atol=1e-12)


def test_bond_price_maturity_and_limit():
    assert bond_price(BASE, 0.7, 0.0).price == 1.0
    # below BETA_SWITCH the bond is its first order in beta, ln B = -mu*tau - beta*Integral_0^tau E[v_t] dt; here
    # v = theta and kappa + lam = kappa, so E[v_t] = 0.04 throughout
    p = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.05, beta=1e-12)
    value = bond_price(p, 0.04, 1.0)
    assert value.price == pytest.approx(math.exp(-0.05 - 1e-12 * 0.04), abs=1e-15)
    assert value.g_factor == pytest.approx(-1e-12 * (1.0 - math.exp(-2.0)) / 2.0, rel=1e-14)
    # and at beta = 0 the constant-rate discount, with G = +0 (so that `svsir bond` prints 0, not -0)
    value = bond_price(ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.05, beta=0.0),
                       0.04, 1.0)
    assert value.price == math.exp(-0.05) and math.copysign(1.0, value.g_factor) == 1.0 and value.g_factor == 0.0


def test_constant_rate_bond_for_every_kappa_plus_lam():
    # at beta = 0 the bond is exp(-mu*tau) with G = +0, also where kappa + lam <= 0 and the first-order branch's
    # 1/(kappa + lam) has no value; with 0 < beta <= BETA_SWITCH that branch needs kappa + lam > 0, as the closed form
    for lam, tau in ((-2.0, 1.0), (-3.0, 1.0), (-3.0, 800.0)):
        p = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=lam, rho_sv=-0.5, mu=0.05, beta=0.0)
        value = bond_price(p, 0.04, tau)
        assert value.price == math.exp(-0.05 * tau) and math.copysign(1.0, value.g_factor) == 1.0
        assert value.g_factor == 0.0
        log_f, g = _log_f_and_g(p, np.array([0.0, tau]))
        np.testing.assert_array_equal(log_f, [-0.0, -0.05 * tau])
        np.testing.assert_array_equal(g, [0.0, 0.0])
        with pytest.raises(InvalidParameter, match="kappa\\+lam"):
            bond_price(replace(p, beta=1e-11), 0.04, tau)


def test_bond_price_consistent_with_factors():
    value = bond_price(BASE, 0.04, 1.0)
    assert value.price == pytest.approx(value.f_factor * math.exp(value.g_factor * 0.04), rel=1e-15)
    assert value.g_factor < 0


def test_beta_continuity_grid():
    # near-zero beta reproduces the constant-rate discount on the sampled grid
    p = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1e-8)
    for v in (0.0, 0.04, 0.2, 1.0):
        for tau in (0.1, 1.0, 5.0, 30.0):
            assert abs(bond_price(p, v, tau).price - math.exp(-0.03 * tau)) < 1e-6


def test_ode_residual_theta_zero_branch():
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    grid = np.arange(0.0, 1.0 + 1e-4, 1e-4)
    assert ode_residual(p, grid) < 1e-6


def test_ode_residual_generic():
    grid = np.arange(0.0, 5.0 + 1e-4, 1e-4)
    assert ode_residual(BASE, grid) < 1e-6


def test_ode_residual_grid_validation():
    with pytest.raises(InvalidParameter):
        ode_residual(BASE, [0.5, 1.0, 1.5])  # must start at 0
    with pytest.raises(InvalidParameter):
        ode_residual(BASE, [0.0, 1.0, 1.0])  # strictly increasing
    with pytest.raises(InvalidParameter):
        ode_residual(BASE, [0.0, 1.0])  # too short


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_ode_residual_rejects_non_finite_grid(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidParameter, match="^tau_grid: must be finite and >= 0"):
            ode_residual(BASE, [0.0, 0.5, bad])


bond_params = st.builds(
    ModelParams,
    kappa=st.floats(0.3, 5.0),
    theta=st.floats(0.0, 0.3),
    sigma=st.floats(0.05, 1.0),
    lam=st.floats(0.0, 1.0),
    rho_sv=st.just(0.0),
    mu=st.floats(0.0, 0.1),
    beta=st.floats(1e-6, 3.0),
)


@settings(max_examples=60, deadline=None)
@given(bond_params, st.floats(0.0, 1.0), st.floats(0.0, 30.0))
def test_bond_price_in_unit_interval(params, v, tau):
    price = bond_price(params, v, tau).price
    assert 0.0 < price <= 1.0


@settings(max_examples=40, deadline=None)
@given(bond_params, st.floats(0.0, 0.5), st.floats(0.05, 0.5), st.floats(0.01, 30.0))
def test_bond_price_non_increasing_in_v(params, v, dv, tau):
    assert bond_price(params, v + dv, tau).price <= bond_price(params, v, tau).price + 1e-15
