import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import draw_params
from svsir import (
    InvalidParameter,
    MarketState,
    McConfig,
    ModelParams,
    OptionSpec,
    SubdivisionExhausted,
    TailNotDecaying,
    bond_price,
    price_grid,
    price_heston,
    price_sir,
    put_from_parity,
    simulate_price,
)
from svsir.heston_cf import affine_cd
from svsir.inversion import W_POINT_MASS, QuadratureSpec, gil_pelaez
from svsir.model import OptionKind
from svsir.pricer import MODEL_HESTON, MODEL_SIR, _expected_variance, _provider, _strip

HESTON = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
SIR = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
STATE = MarketState(spot=100.0, variance=0.04, tau=1.0)


def one_maturity(params, state):
    """The characteristic function, strip, x and w of one maturity, as price_grid hands them to gil_pelaez."""
    log_bond = math.log(bond_price(params, state.variance, state.tau).price)
    taus = np.array([state.tau])
    return (_provider(params, state.variance, taus, np.array([log_bond])), _strip(params, taus),
            math.log(state.spot) - log_bond, _expected_variance(params, state.variance, taus))


def test_provider_gathers_each_nodes_maturity():
    # f_1 = Psi(phi - i)/S and f_2 = Psi(phi)/B times exp(-i*phi*ln(S/B)), at nodes of mixed maturities, on the
    # real axis and, for the moments, on the imaginary one
    taus, v = np.array([0.5, 2.0]), 0.04
    log_bonds = np.array([math.log(bond_price(SIR, v, tau).price) for tau in taus])
    m, phi = np.array([1, 0, 1, 0, 1]), np.array([3.0, 15.0, 40.0, -3.5j, 0.7j])
    f = _provider(SIR, v, taus, log_bonds)(m, phi)
    a_val, d_val = affine_cd(SIR, taus[m], np.stack([phi - 1j, phi]))
    expected = np.exp(a_val + d_val * v + 1j * phi * log_bonds[m] - np.outer([0.0, 1.0], log_bonds[m]))
    np.testing.assert_allclose(f, expected, rtol=1e-14, atol=0.0)
    # a moment is real
    assert np.all(np.abs(f[:, 3:].imag) <= 1e-14 * np.abs(f[:, 3:].real))


def test_zero_variance_call_is_discounted_forward():
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
    state = MarketState(spot=100.0, variance=0.0, tau=1.0)
    for strike in (80.0, 101.0, 103.2, 150.0):
        res = price_heston(p, state, OptionSpec(strike=strike))
        expected = max(0.0, 100.0 - strike * math.exp(-0.03))
        assert res.price == pytest.approx(expected, abs=1e-6)


def test_vanishing_strike_gives_spot():
    res = price_heston(HESTON, STATE, OptionSpec(strike=1e-12 * 100.0))
    assert res.price == pytest.approx(100.0, abs=1e-6)
    # so does a bond that underflows to 0 (from tau ~ 1.07e4 here), whose log stays finite
    res = price_sir(SIR, MarketState(spot=100.0, variance=0.04, tau=3e4), OptionSpec(strike=100.0))
    assert res.price == 100.0 and res.bond.price == 0.0


def test_heston_call_vs_mc():
    opt = OptionSpec(strike=100.0)
    res = price_heston(HESTON, STATE, opt)
    est = simulate_price(HESTON, STATE, opt, McConfig(n_paths=50_000, seed=9))
    assert abs(res.price - est.mean) <= 3.0 * est.std_error


def test_heston_requires_beta_zero():
    with pytest.raises(InvalidParameter, match="beta"):
        price_heston(SIR, STATE, OptionSpec(strike=100.0))


def test_sir_delegates_at_beta_zero():
    res = price_sir(HESTON, STATE, OptionSpec(strike=100.0))
    assert res.model_tag == MODEL_HESTON
    ref = price_heston(HESTON, STATE, OptionSpec(strike=100.0))
    assert res.price == ref.price


def test_model_nesting_tiny_beta():
    nested = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1e-12)
    res_sir = price_sir(nested, STATE, OptionSpec(strike=100.0))
    res_heston = price_heston(HESTON, STATE, OptionSpec(strike=100.0))
    assert res_sir.model_tag == MODEL_SIR
    assert abs(res_sir.price - res_heston.price) < 1e-6


def test_sir_zero_variance_uses_bond_discount():
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    state = MarketState(spot=100.0, variance=0.0, tau=1.0)
    f_factor = bond_price(p, 0.0, 1.0).f_factor
    for strike in (90.0, 100.0, 110.0):
        res = price_sir(p, state, OptionSpec(strike=strike))
        assert res.price == pytest.approx(max(0.0, 100.0 - strike * f_factor), abs=1e-6)


def test_parity_identity_across_grid():
    for tau in (0.5, 1.0):
        state = MarketState(spot=100.0, variance=0.04, tau=tau)
        for strike in (80.0, 100.0, 120.0):
            call = price_sir(SIR, state, OptionSpec(strike=strike))
            put = price_sir(SIR, state, OptionSpec(strike=strike, kind=OptionKind.PUT))
            assert abs(call.price - put.price - (100.0 - strike * call.bond.price)) < 1e-6


def test_put_from_parity_symmetry_point():
    call = price_sir(SIR, STATE, OptionSpec(strike=100.0))
    atm_forward = 100.0 / call.bond.price
    call_af = price_sir(SIR, STATE, OptionSpec(strike=atm_forward))
    put_af = put_from_parity(call_af, STATE, OptionSpec(strike=atm_forward))
    assert put_af.price == pytest.approx(call_af.price, abs=1e-12)


def test_put_vanishes_with_strike():
    call = price_sir(SIR, STATE, OptionSpec(strike=1e-10 * 100.0))
    put = put_from_parity(call, STATE, OptionSpec(strike=1e-10 * 100.0))
    assert abs(put.price) < 1e-6


def test_put_non_negative_and_matches_mc():
    opt = OptionSpec(strike=110.0, kind=OptionKind.PUT)
    res = price_sir(SIR, STATE, opt)
    assert res.price > -1e-9
    est = simulate_price(SIR, STATE, opt, McConfig(n_paths=50_000, seed=33))
    assert abs(res.price - est.mean) <= 3.0 * est.std_error


def test_call_monotonicity_and_bounds():
    prices_k = []
    for strike in (60.0, 80.0, 100.0, 120.0, 140.0):
        res = price_sir(SIR, STATE, OptionSpec(strike=strike))
        bound_low = max(0.0, 100.0 - strike * res.bond.price)
        assert bound_low - 1e-6 <= res.price <= 100.0 + 1e-6
        prices_k.append(res.price)
    assert all(b <= a + 1e-8 for a, b in zip(prices_k, prices_k[1:]))

    prices_s = []
    for spot in (80.0, 100.0, 120.0):
        state = MarketState(spot=spot, variance=0.04, tau=1.0)
        prices_s.append(price_sir(SIR, state, OptionSpec(strike=100.0)).price)
    assert all(a <= b + 1e-8 for a, b in zip(prices_s, prices_s[1:]))


def test_atm_call_is_continuous_down_to_tau_zero():
    # the example model's ATM call: finite and increasing in tau, within abs_tol
    # of its tighter-tolerance price, and S*sqrt(w/(2*pi)) as tau -> 0
    taus = np.array([0.0, 1e-8, 1e-6, 1e-5, 2.4e-5, 3e-5, 1e-4])
    loose = price_grid(SIR, 100.0, 0.04, (100.0,), taus, QuadratureSpec(abs_tol=1e-9))
    tight = price_grid(SIR, 100.0, 0.04, (100.0,), taus, QuadratureSpec(abs_tol=1e-12))
    price, bonds = loose.price[:, 0], np.array([b.price for b in loose.bond])
    assert np.all(np.isfinite(price)) and np.all(np.diff(price) > 0), price
    assert np.all(np.abs(price - tight.price[:, 0]) <= (100.0 + 100.0 * bonds) * 1e-9)
    small = taus <= 1e-5
    limit = 100.0 * np.sqrt(_expected_variance(SIR, 0.04, taus[small]) / (2.0 * math.pi))
    np.testing.assert_allclose(price[small], limit, rtol=0.01)
    assert price[3] == pytest.approx(0.025266, abs=1e-6)
    assert price[4] == pytest.approx(0.039172, abs=1e-6)


def test_atm_call_prices_at_extreme_short_maturities():
    # at tau = 1e-18 the example model's ATM call is S*sqrt(w/(2*pi)) up to the rounding of S*R_1 - K*B*R_2 with
    # both R_j near 1/2; at tau = 1e-100 the grid prices, with K = 80 and 120 at their intrinsic values
    taus = np.array([1e-18, 1e-100])
    grid = price_grid(SIR, 100.0, 0.04, (80.0, 100.0, 120.0), taus)
    k, bonds = np.array([80.0, 100.0, 120.0]), np.array([b.price for b in grid.bond])
    limit = 100.0 * np.sqrt(_expected_variance(SIR, 0.04, taus) / (2.0 * math.pi))
    assert np.all(np.abs(grid.price[:, 1] - limit) <= 2.0 * (100.0 + 100.0 * bonds) * np.finfo(float).eps)
    intrinsic = np.maximum(100.0 - k * bonds[:, None], 0.0)
    assert np.all(np.abs(grid.price - intrinsic)[:, [0, 2]] <= (100.0 + k[[0, 2]] * bonds[:, None]) * 1e-9)


@pytest.mark.parametrize("tau", [1e-300, 2.225e-311, 1e-320])
def test_maturities_whose_top_rung_overflows_price_as_a_point_mass(tau):
    # at v = 0.5 the ladder's top rung phi = 2^16/sqrt(w) squares past the largest double; such a law is a point
    # mass to ~1e-149 in log-price, so every strike prices at its intrinsic value, with no overflow or
    # invalid-value warning, beside a maturity that inverts.  The mass sits at the forward x = -ln B ~ 0.53*tau > 0
    # (ln B = ln F + G*v, not the log of B, which rounds to 1), above K = S: R_j = 1, 1, 0
    strikes = np.array([80.0, 100.0, 120.0])
    assert _expected_variance(SIR, 0.5, np.array([tau]))[0] <= W_POINT_MASS
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grid = price_grid(SIR, 100.0, 0.5, strikes, (tau, 0.5))
    bond = grid.bond[0].price
    np.testing.assert_array_equal(grid.price[0], np.maximum(100.0 - strikes * bond, 0.0))
    np.testing.assert_array_equal(grid.r1[0], [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(grid.r2[0], [1.0, 1.0, 0.0])
    assert np.all(grid.err_estimate[0] == 0.0) and np.all(np.isfinite(grid.price[1]))


def _black_call(spot, strike, bond_price, w):
    """Black call on the forward spot/bond with total variance w > 0, discounted by the bond."""
    root_w = math.sqrt(w)
    d1 = (math.log(spot / (strike * bond_price)) + 0.5 * w) / root_w
    n1, n2 = (0.5 * math.erfc(-d / math.sqrt(2.0)) for d in (d1, d1 - root_w))
    return spot * n1 - strike * bond_price * n2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), beta=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       variance=st.floats(0.002, 0.5))
def test_spot_atm_call_is_continuous_down_to_tau_zero_over_box(seed, beta, variance):
    # finite, exactly intrinsic at tau = 0, non-decreasing in tau within the
    # quadrature target, and the Black call with the same w and bond as tau -> 0
    params = draw_params(np.random.default_rng(seed), beta=beta)
    spot = strike = 100.0
    taus = np.array([0.0, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3])
    quad = QuadratureSpec()
    grid = price_grid(params, spot, variance, (strike,), taus, quad)
    price, bonds = grid.price[:, 0], np.array([b.price for b in grid.bond])
    context = (params, variance, price)
    assert np.all(np.isfinite(price)), context
    assert price[0] == max(spot - strike * bonds[0], 0.0), context
    assert np.all(np.diff(price) >= -4.0 * (spot + strike * bonds[1:]) * quad.abs_tol), context
    w = _expected_variance(params, variance, taus)
    for m in np.flatnonzero((taus > 0.0) & (taus <= 1e-5)):
        assert price[m] == pytest.approx(_black_call(spot, strike, bonds[m], w[m]), rel=1e-3), (context, taus[m])


def test_maturity_zero_is_intrinsic():
    state = MarketState(spot=100.0, variance=0.04, tau=0.0)
    assert price_sir(SIR, state, OptionSpec(strike=80.0)).price == pytest.approx(20.0, abs=1e-12)
    assert price_sir(SIR, state, OptionSpec(strike=120.0)).price == pytest.approx(0.0, abs=1e-12)


def test_random_draws_nesting():
    rng = np.random.default_rng(14)
    for _ in range(3):
        p0 = draw_params(rng, beta=0.0)
        p_eps = ModelParams(**{**p0.__dict__, "beta": 1e-10})
        for strike in (90.0, 110.0):
            a = price_sir(p_eps, STATE, OptionSpec(strike=strike)).price
            b = price_heston(p0, STATE, OptionSpec(strike=strike)).price
            assert abs(a - b) < 1e-6


def test_result_fields_populated():
    res = price_sir(SIR, STATE, OptionSpec(strike=100.0))
    assert res.model_tag == MODEL_SIR
    assert 0.0 < res.bond.price < 1.0
    assert 0.0 <= res.r1 <= 1.0 and 0.0 <= res.r2 <= 1.0
    assert res.err_estimate >= 0.0


def test_price_grid_rows_match_one_strike_calls_over_box():
    # sharing panels across a strike row moves each r_j by less than abs_tol
    rng = np.random.default_rng(77)
    quad = QuadratureSpec()
    strikes = (40.0, 70.0, 100.0, 130.0, 250.0)
    for i in range(20):
        params = draw_params(rng, beta=0.0 if i < 10 else rng.uniform(0.25, 2.0))
        variance = rng.uniform(0.01, 0.16)
        for tau in (0.02, 0.5, 5.0):
            row = price_grid(params, 100.0, variance, strikes, (tau,), quad)
            for i, strike in enumerate(strikes):
                one = price_grid(params, 100.0, variance, (strike,), (tau,), quad)
                context = (params, variance, tau, strike)
                assert abs(row.r1[0, i] - one.r1[0, 0]) <= quad.abs_tol, context
                assert abs(row.r2[0, i] - one.r2[0, 0]) <= quad.abs_tol, context
                assert row.err_estimate[0, i] <= quad.abs_tol, context  # each row meets the target
                assert row.bond == one.bond


def test_price_grid_keeps_the_given_order():
    strikes, maturities = (120.0, 80.0, 100.0), (2.0, 0.5, 1.0)
    grid = price_grid(SIR, 100.0, 0.04, strikes, maturities)
    for field in (grid.price, grid.r1, grid.r2, grid.err_estimate):
        assert field.shape == (3, 3)
    for m, tau in enumerate(maturities):
        assert grid.bond[m] == bond_price(SIR, 0.04, tau)
        for i, strike in enumerate(strikes):
            ref = price_sir(SIR, MarketState(spot=100.0, variance=0.04, tau=tau), OptionSpec(strike=strike))
            assert grid.price[m, i] == pytest.approx(ref.price, abs=1e-6)


def test_empty_grid_gives_empty_arrays():
    assert price_grid(SIR, 100.0, 0.04, (90.0, 110.0), ()).price.shape == (0, 2)
    assert price_grid(SIR, 100.0, 0.04, (), (0.5, 1.0)).r1.shape == (2, 0)


def test_one_element_strike_array_matches_scalar_call():
    cf, strip, x, w = one_maturity(SIR, MarketState(spot=100.0, variance=0.04, tau=1.0))
    log_k = math.log(110.0)
    scalar = gil_pelaez(cf, strip, x, w, log_k)
    array = gil_pelaez(cf, strip, x, w, np.array([log_k]))
    assert isinstance(scalar.r1, np.float64) and np.shape(array.r1) == (1,)
    assert array.r1[0] == scalar.r1 and array.r2[0] == scalar.r2
    assert array.achieved_error_estimate[0] == scalar.achieved_error_estimate


def test_reversed_strike_row_reverses_results():
    # the panels do not depend on the order of the row, so each strike keeps its own numbers
    cf, strip, x, w = one_maturity(SIR, MarketState(spot=100.0, variance=0.04, tau=0.5))
    log_k = np.log([60.0, 95.0, 100.0, 160.0])
    ahead = gil_pelaez(cf, strip, x, w, log_k)
    back = gil_pelaez(cf, strip, x, w, log_k[::-1])
    for field in ("r1", "r2", "achieved_error_estimate"):
        np.testing.assert_array_equal(getattr(ahead, field), getattr(back, field)[::-1])
    assert len(set(ahead.achieved_error_estimate)) > 1


def test_surface_rows_match_one_maturity_calls_over_box():
    # each maturity keeps its own s_max, initial panels and splits inside the surface pass
    rng = np.random.default_rng(303)
    quad = QuadratureSpec()
    strikes, maturities = (40.0, 70.0, 100.0, 130.0, 250.0), (0.02, 0.5, 5.0, 1.0)
    for i in range(12):
        params = draw_params(rng, beta=0.0 if i < 6 else rng.uniform(0.25, 2.0))
        variance = rng.uniform(0.01, 0.16)
        grid = price_grid(params, 100.0, variance, strikes, maturities, quad)
        for m, tau in enumerate(maturities):
            one = price_grid(params, 100.0, variance, strikes, (tau,), quad)
            context = (params, variance, tau)
            assert np.abs(grid.r1[m] - one.r1[0]).max() <= 1e-13, context
            assert np.abs(grid.r2[m] - one.r2[0]).max() <= 1e-13, context
            assert np.abs(grid.err_estimate[m] - one.err_estimate[0]).max() <= 1e-13, context
            assert grid.bond[m] == one.bond[0]


def test_degenerate_maturity_keeps_its_indicator_inside_a_surface():
    strikes, maturities = (80.0, 100.0, 120.0), (0.5, 0.0, 1.0)
    grid = price_grid(SIR, 100.0, 0.04, strikes, maturities)
    np.testing.assert_array_equal(grid.r1[1], [1.0, 0.5, 0.0])
    np.testing.assert_array_equal(grid.r2[1], [1.0, 0.5, 0.0])
    np.testing.assert_array_equal(grid.err_estimate[1], 0.0)
    np.testing.assert_array_equal(grid.price[1], [20.0, 0.0, 0.0])
    for m in (0, 2):
        one = price_grid(SIR, 100.0, 0.04, strikes, (maturities[m],))
        assert np.abs(grid.r1[m] - one.r1[0]).max() <= 1e-13
        assert np.abs(grid.r2[m] - one.r2[0]).max() <= 1e-13


@pytest.mark.parametrize("error, params, variance, strikes, maturities, tau", [
    # tiny variance and theta = 0: f - f_BS fails to decay on the s ladder at tau = 1,
    # while tau = 0 (w = 0) is a point mass and prices without the ladder
    (TailNotDecaying, ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0),
     1e-12, (80.0, 100.0, 120.0), (0.0, 1.0), 1.0),
    # a corner of PARAM_BOX beyond its longest maturity: only at tau = 60 is the strip so narrow that the aliasing
    # bound needs more midpoint nodes than the cap
    (SubdivisionExhausted, ModelParams(kappa=0.5, theta=0.01, sigma=0.8, lam=-0.2, rho_sv=0.5, mu=0.03, beta=2.0),
     0.002, (80.0, 100.0, 120.0), (0.5, 60.0, 1.0), 60.0),
], ids=["tail", "budget"])
def test_one_failing_maturity_is_named_with_its_strikes(error, params, variance, strikes, maturities, tau):
    row = ",".join(f"{k:g}" for k in strikes)
    with pytest.raises(error, match=f"^at K={row}, tau={tau}: ") as info:
        price_grid(params, 100.0, variance, strikes, maturities)
    assert info.value.maturity == maturities.index(tau)
    for other in maturities:
        if other != tau:
            price_grid(params, 100.0, variance, strikes, (other,))  # prices on its own


def test_price_sir_is_the_one_point_grid_bit_for_bit():
    for params, tau, strike in ((SIR, 0.5, 90.0), (HESTON, 2.0, 130.0), (SIR, 0.0, 100.0)):
        res = price_sir(params, MarketState(spot=100.0, variance=0.04, tau=tau), OptionSpec(strike=strike))
        grid = price_grid(params, 100.0, 0.04, (strike,), (tau,))
        assert (res.price, res.r1, res.r2, res.err_estimate) == (
            grid.price[0, 0], grid.r1[0, 0], grid.r2[0, 0], grid.err_estimate[0, 0])
        assert res.bond == grid.bond[0] and res.model_tag == grid.model_tag
