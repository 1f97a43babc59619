import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import draw_params
from svsir import InvalidParameter, ModelParams
from svsir.heston_cf import affine_cd, cd_arrays, characteristic_fn, explosion_time

BASE = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)


def textbook_cd(params, r0, tau, phi, j):
    """The non-rearranged form with g = (bb+d)/(bb-d) and exp(+d*tau).

    Branch-discontinuous at long maturities, but exact for short tau; serves
    as an independent algebraic oracle for the stable rearrangement.
    """
    # the constant-rate coefficient table, written out here
    bj = params.kappa + params.lam - (params.rho_sv * params.sigma if j == 1 else 0.0)
    zj = 0.5 if j == 1 else -0.5
    s2 = params.sigma**2
    a = params.kappa * params.theta
    bb = bj - params.rho_sv * params.sigma * phi * 1j
    d = cmath.sqrt(bb * bb - s2 * (2 * zj * phi * 1j - phi * phi))
    g = (bb + d) / (bb - d)
    e = cmath.exp(d * tau)
    c = r0 * phi * 1j * tau + a / s2 * ((bb + d) * tau - 2 * cmath.log((1 - g * e) / (1 - g)))
    dd = (bb + d) / s2 * (1 - e) / (1 - g * e)
    return c, dd


def test_zero_tau_is_exactly_zero():
    c_val, d_val = cd_arrays(BASE, 0.03, 0.0, 3.7, 1)
    assert c_val == 0.0 and d_val == 0.0


def test_zero_phi_limit_branch():
    for j in (1, 2):
        c_val, d_val = cd_arrays(BASE, 0.03, 2.0, 0.0, j)
        assert c_val == 0.0 and d_val == 0.0
    assert characteristic_fn(BASE, 0.03, 4.6, 0.04, 2.0, 0.0, 2) == 1.0


def test_matches_textbook_form_at_short_maturities():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = draw_params(rng, beta=0.0)
        tau = rng.uniform(0.05, 1.0)
        phi = rng.uniform(0.05, 50.0)
        j = int(rng.integers(1, 3))
        c_val, d_val = cd_arrays(p, p.mu, tau, phi, j)
        c_ref, d_ref = textbook_cd(p, p.mu, tau, phi, j)
        assert complex(c_val) == pytest.approx(c_ref, rel=1e-10, abs=1e-12)
        assert complex(d_val) == pytest.approx(d_ref, rel=1e-10, abs=1e-12)


def test_modulus_bounded_by_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = draw_params(rng, beta=0.0)
        phis = np.linspace(0.05, 150.0, 80)
        for j in (1, 2):
            f = characteristic_fn(p, p.mu, 4.6, 0.09, 1.3, phis, j)
            assert np.all(np.abs(f) <= 1.0 + 1e-12)


def test_pure_phase_when_variance_degenerate():
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
    f = characteristic_fn(p, p.mu, 4.6, 0.0, 1.0, np.array([0.5, 3.0, 40.0]), 2)
    np.testing.assert_allclose(np.abs(f), 1.0, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    phi=st.floats(0.01, 120.0),
    tau=st.floats(0.0, 10.0),
    j=st.sampled_from([1, 2]),
)
def test_hermitian_symmetry(phi, tau, j):
    f_pos = characteristic_fn(BASE, BASE.mu, 4.2, 0.05, tau, phi, j)
    f_neg = characteristic_fn(BASE, BASE.mu, 4.2, 0.05, tau, -phi, j)
    assert f_neg == pytest.approx(f_pos.conjugate(), rel=1e-10, abs=1e-12)


def test_tau_continuity_no_branch_jumps():
    # successive C differences stay small on a fine tau grid out to tau = 30
    taus = np.arange(0.0, 30.0 + 1e-3, 1e-3)
    for phi in (1.0, 10.0, 100.0):
        for j in (1, 2):
            c, _ = cd_arrays(BASE, BASE.mu, taus, phi, j)
            jumps = np.abs(np.diff(c))
            assert jumps.max() < 0.1


def test_textbook_form_does_jump_at_long_maturity():
    # sanity check that the continuity problem is real: the raw textbook
    # evaluation crosses a branch cut somewhere on a long-maturity grid
    taus = np.arange(0.05, 30.0, 1e-2)
    c_ref = np.array([textbook_cd(BASE, BASE.mu, t, 10.0, 1)[0] for t in taus])
    c_stable, _ = cd_arrays(BASE, BASE.mu, taus, 10.0, 1)
    assert np.abs(np.diff(c_ref.imag)).max() > 1.0  # it jumps
    assert np.abs(np.diff(c_stable.imag)).max() < 0.1  # ours does not
    # and where the textbook form is continuous (early tau), they agree
    early = taus < 0.5
    np.testing.assert_allclose(c_ref[early], c_stable[early], rtol=1e-9, atol=1e-11)


def test_discount_term_is_the_only_difference_from_ode_route():
    # the ODE route carries no rate term in C; adding r0*phi*i*tau must
    # reproduce the closed form including its discount
    from svsir import ToleranceSpec
    from svsir.riccati import integrate_cd

    tau, phi, j, r0 = 1.0, 1.0, 2, 0.03
    sol = integrate_cd(BASE, tau, phi, j, ToleranceSpec(rel=1e-12, abs=1e-14))
    c_val, d_val = cd_arrays(BASE, r0, tau, phi, j)
    assert abs(c_val - (sol.c_val + r0 * phi * 1j * tau)) < 1e-8
    assert abs(d_val - sol.d_val) < 1e-8


def test_invalid_measure_index():
    with pytest.raises(Exception):
        cd_arrays(BASE, 0.03, 1.0, 1.0, 3)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0, [0.5, math.nan], [1.0, -0.1]],
                         ids=["nan", "inf", "negative", "array-nan", "array-negative"])
def test_cd_arrays_rejects_bad_maturities(tau):
    with pytest.raises(InvalidParameter, match="^tau: must be finite and >= 0"):
        cd_arrays(BASE, 0.03, tau, 1.0, 1)


def test_d_keeps_its_relative_accuracy_as_tau_goes_to_zero():
    # D = c*tau - b*c*tau^2/2 + (b^2*c/6 + sigma^2*c^2/6)*tau^3 + O(tau^4) on both pricing contours; forming
    # 1 - exp(-d*tau) by subtraction lost eps/|d*tau| of D's relative accuracy
    for u in (10.0, 1e4 - 1j, 1e8, 1e8 - 1j):
        b = BASE.alpha - 1j * u * BASE.rho_sv * BASE.sigma
        c = -0.5 * (u * u + 1j * u) + BASE.beta * (1j * u - 1.0)
        for tau in (1e-18, 1e-14, 1e-10):
            if abs(cmath.sqrt(b * b - 2.0 * BASE.sigma**2 * c)) * tau > 1e-4:
                continue
            series = c * tau - b * c * tau**2 / 2.0 + (b * b * c + BASE.sigma**2 * c * c) * tau**3 / 6.0
            _, d_val = affine_cd(BASE, tau, u)
            assert abs(d_val / series - 1.0) <= 1e-13, (u, tau, d_val, series)


def test_explosion_time_is_where_the_real_riccati_equation_blows_up():
    # on u = -i*p, D' = sigma^2/2*D^2 - b*D + c is real; RK45 stops at D = 1e7, ~2/(sigma^2*1e7) before T*(p);
    # inside the strip affine_cd gives that D, real
    from scipy.integrate import solve_ivp

    def blow_up(t, d):
        return d[0] - 1e7

    blow_up.terminal = True
    rng = np.random.default_rng(41)
    for i in range(10):
        params = draw_params(rng, beta=0.0 if i % 2 == 0 else rng.uniform(0.25, 2.0))
        for p in (-8.0, -1.5, -0.3, 0.4, 1.0, 1.7, 3.0, 12.0):
            b = params.alpha - p * params.rho_sv * params.sigma
            c = 0.5 * p * (p - 1.0) + params.beta * (p - 1.0)
            expected = float(explosion_time(params, p))
            end = min(1.5 * expected, 200.0)
            sol = solve_ivp(lambda t, d: [0.5 * params.sigma**2 * d[0] ** 2 - b * d[0] + c], (0.0, end), [0.0],
                            events=blow_up, rtol=1e-10, atol=1e-12, dense_output=True)
            if math.isinf(expected):
                assert sol.t_events[0].size == 0, (params, p)
                continue
            assert sol.t_events[0][0] == pytest.approx(expected, rel=1e-4), (params, p)
            _, d_val = affine_cd(params, 0.5 * expected, -1j * p)
            assert d_val.real == pytest.approx(sol.sol(0.5 * expected)[0], rel=1e-7, abs=1e-9), (params, p)
            assert abs(d_val.imag) <= 1e-12 * abs(d_val.real) + 1e-15, (params, p)
