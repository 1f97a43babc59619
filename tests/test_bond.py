import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from conftest import PARAM_BOX, draw_params
from svsir import InvalidParameter, ModelParams, NumericalError, bond_price, ode_residual
from svsir.bond import _log_f_and_g, bond_values, g_of_tau
from svsir.heston_cf import affine_cd

BASE = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)


def test_coefficients_frozen_value():
    # kappa+lam = 2, sigma = 0.3, beta = 1: s = sqrt(4.18), and G -> -1/b = -2*beta/(kappa+lam + s)
    assert g_of_tau(BASE, 1e3) == pytest.approx(-2.0 / (2.0 + 2.0445048300260873), rel=1e-14)


def test_coefficients_quadratic_identities():
    # G's limit -1/b is the root of the stationary right-hand side sigma^2/2*G^2 - alpha*G - beta below 0, to
    # rounding relative to beta, for beta from 1e-14 to 2
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = draw_params(rng, beta=10.0 ** rng.uniform(-14.0, math.log10(2.0)))
        g_inf = g_of_tau(p, 1e4)
        assert g_inf < 0.0
        assert 0.5 * p.sigma**2 * g_inf**2 - p.alpha * g_inf - p.beta == pytest.approx(0.0, abs=1e-14 * p.beta)


def test_g_limits():
    assert g_of_tau(BASE, 0.0) == 0.0
    taus = np.linspace(1e-6, 30.0, 200)
    g = g_of_tau(BASE, taus)
    assert np.all(g < 0)
    s = math.sqrt(BASE.alpha**2 + 2.0 * BASE.beta * BASE.sigma**2)
    assert g_of_tau(BASE, 500.0) == pytest.approx(-2.0 * BASE.beta / (BASE.alpha + s), rel=1e-12)


def test_f_limits_and_theta_zero():
    assert math.exp(_log_f_and_g(BASE, 0.0)[0]) == 1.0
    p0 = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    for tau in (0.3, 1.0, 7.0):
        assert math.exp(_log_f_and_g(p0, tau)[0]) == pytest.approx(math.exp(-0.03 * tau), rel=1e-14)


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
        f_ode, g_ode = _ode_fg(p, taus)
        log_f, g = _log_f_and_g(p, taus)
        np.testing.assert_allclose(np.exp(log_f), f_ode, rtol=1e-8)
        np.testing.assert_allclose(g, g_ode, rtol=1e-8, atol=1e-12)


def test_bond_price_maturity_and_limit():
    assert bond_price(BASE, 0.7, 0.0).price == 1.0
    # at beta = 1e-12 the bond is its first order in beta, ln B = -mu*tau - beta*Integral_0^tau E[v_t] dt, to
    # O(beta^2); here v = theta and kappa + lam = kappa, so E[v_t] = 0.04 throughout
    p = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.05, beta=1e-12)
    value = bond_price(p, 0.04, 1.0)
    assert value.price == pytest.approx(math.exp(-0.05 - 1e-12 * 0.04), abs=1e-15)
    assert value.g_factor == pytest.approx(-1e-12 * (1.0 - math.exp(-2.0)) / 2.0, rel=1e-14)
    # and at beta = 0 the constant-rate discount, with G = +0 (so that `svsir bond` prints 0, not -0)
    value = bond_price(ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.05, beta=0.0),
                       0.04, 1.0)
    assert value.price == math.exp(-0.05) and math.copysign(1.0, value.g_factor) == 1.0 and value.g_factor == 0.0
    # a sigma whose square is subnormal breaks the closed form (ln F is NaN at tau = 0, +inf after): it raises
    # naming sigma and the maturity, with no numpy warning, and is never returned as a price
    for tau in (0.0, 0.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=f"tau={tau}: .* at sigma=1e-160"):
                bond_price(replace(p, sigma=1e-160, beta=1.0), 0.04, tau)


def test_constant_rate_bond_for_every_kappa_plus_lam():
    # at beta = 0 the bond is exp(-mu*tau) with G = +0, also where kappa + lam <= 0 and the closed form's
    # 1/b = 2*beta/(kappa+lam + s) is 0/0; with beta > 0 the closed form needs kappa + lam > 0
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


@settings(max_examples=200, deadline=None)
@given(values=st.fixed_dictionaries({name: st.floats(lo, hi) for name, (lo, hi) in PARAM_BOX.items()}),
       beta=st.one_of(st.just(0.0), st.floats(-14.0, math.log10(2.0)).map(lambda e: 10.0**e)),
       tau=st.floats(0.0, 100.0), v=st.floats(0.0, 0.5))
def test_bond_is_the_affine_cf_at_zero_and_first_order_in_small_beta(values, beta, tau, v):
    # Psi(0) = E[exp(-Int r)] is the bond, so exp(Re A + Re D*v) from the affine CF at u = 0 is a second formula
    # for it, to 1e-11 (relative) over the box
    values["lam"] = max(values["lam"], 0.3 - values["kappa"])
    params = ModelParams(beta=beta, **values)
    bond = bond_values(params, v, tau)[0]
    a_val, d_val = affine_cd(params, tau, 0.0)
    cf = math.exp(float(a_val.real) + float(d_val.real) * v)
    assert abs(bond.price - cf) <= 1e-11 * cf
    if beta <= 1e-8:
        # the first order in beta, ln B = -mu*tau - beta*Integral_0^tau E[v_t] dt with the risk-neutral E[v_t]; with
        # G = -beta*g1 + beta^2*g2 + O(beta^3), g2' = sigma^2/2*g1^2 - alpha*g2 and g1 <= 1/alpha bound g2 by
        # sigma^2/(2*alpha^3), and ln F - ln F_1 by kappa*theta*tau times that
        alpha, eta, sigma2 = params.alpha, params.kappa * params.theta, params.sigma**2
        decay = -math.expm1(-alpha * tau)
        first_order = -params.mu * tau - beta * (v * decay + eta / alpha * (alpha * tau - decay)) / alpha
        second_order = beta**2 * sigma2 / (2.0 * alpha**3) * (eta * tau + v)
        rounding = 8.0 * np.finfo(float).eps * (1.0 + abs(first_order))
        assert abs(math.log(bond.price) - first_order) <= 2.0 * second_order + rounding
