import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr

from conftest import PARAM_BOX, conditional_log_return, draw_params, qe_segments
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
    price_sir,
)
from svsir.inversion import MAX_NODES, S_LADDER, QuadratureSpec, _find_s_max, _less_control, gil_pelaez
from svsir.pricer import _expected_variance, _provider, _strip

HESTON = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)


def heston_cf(params, v, tau):
    """One maturity's characteristic function of ln S_T - ln S, its strip, and the variance w of its control."""
    taus = np.array([tau])
    log_bond = math.log(bond_price(params, v, tau).price)
    forward = _provider(params, v, taus, np.array([log_bond]))  # of ln S_T - ln(S/B)

    def eval_fn(m, phi):
        return forward(m, phi) * np.exp(-1j * phi * log_bond)

    return eval_fn, _strip(params, taus), float(_expected_variance(params, v, taus)[0])


def every_order(m, p):
    """The strip of a law with every exponential moment finite, as a Gaussian's."""
    return np.ones(np.shape(p), dtype=bool)


def test_deep_in_the_money():
    log_k = math.log(100.0) - 20.0
    cf, strip, w = heston_cf(HESTON, 0.04, 1.0)
    pair = gil_pelaez(cf, strip, math.log(100.0), w, log_k)
    assert pair.r1 == pytest.approx(1.0, abs=1e-6)
    assert pair.r2 == pytest.approx(1.0, abs=1e-6)


def test_deep_out_of_the_money():
    log_k = math.log(100.0) + 20.0
    cf, strip, w = heston_cf(HESTON, 0.04, 1.0)
    pair = gil_pelaez(cf, strip, math.log(100.0), w, log_k)
    assert pair.r1 == pytest.approx(0.0, abs=1e-6)
    assert pair.r2 == pytest.approx(0.0, abs=1e-6)


def mc_exercise_prob(params, state, strike, cfg):
    """(mean over QE variance paths of each path's P(S_T > ``strike``), its standard error).

    Given its variance path, ln S_T is Gaussian, so each path's probability is
    N(d2).  Only at beta = 0 is this plain risk-neutral probability the
    inversion's R_2.
    """
    ((v, var_integral),) = qe_segments(params, state.variance, (state.tau,), cfg)
    mean, std = conditional_log_return(params, state.variance, state.tau, v, var_integral)
    prob = ndtr((mean + math.log(state.spot / strike)) / std)
    return prob.mean(), prob.std(ddof=1) / math.sqrt(prob.size)


def test_r2_matches_mc_exercise_probability():
    state = MarketState(spot=100.0, variance=0.04, tau=1.0)
    opt = OptionSpec(strike=105.0)
    cf, strip, w = heston_cf(HESTON, state.variance, state.tau)
    pair = gil_pelaez(cf, strip, math.log(state.spot), w, math.log(opt.strike))
    mean, std_error = mc_exercise_prob(HESTON, state, opt.strike, McConfig(n_paths=100_000, seed=21))
    assert abs(pair.r2 - mean) <= 3.0 * std_error


def test_monotone_in_log_strike():
    cf, strip, w = heston_cf(HESTON, 0.04, 1.0)
    strikes = [60.0, 80.0, 100.0, 120.0, 150.0]
    pairs = [gil_pelaez(cf, strip, math.log(100.0), w, math.log(k)) for k in strikes]
    for earlier, later in zip(pairs, pairs[1:]):
        assert later.r1 <= earlier.r1 + 1e-8
        assert later.r2 <= earlier.r2 + 1e-8


def test_translation_consistency():
    # shifting x and ln K together leaves R_j unchanged: the integrand sees
    # only the difference through the phase product
    shift = 0.37
    cf, strip, w = heston_cf(HESTON, 0.04, 1.0)
    p0 = gil_pelaez(cf, strip, math.log(100.0), w, math.log(90.0))
    p1 = gil_pelaez(cf, strip, math.log(100.0) + shift, w, math.log(90.0) + shift)
    tol = 10 * max(p0.achieved_error_estimate, p1.achieved_error_estimate) + 1e-12
    assert abs(p0.r1 - p1.r1) < tol
    assert abs(p0.r2 - p1.r2) < tol


def test_halving_tolerance_stays_within_error_estimate():
    cf, strip, w = heston_cf(HESTON, 0.04, 1.0)
    loose_spec = QuadratureSpec(abs_tol=1e-6)
    tight_spec = QuadratureSpec(abs_tol=5e-7)
    loose = gil_pelaez(cf, strip, math.log(100.0), w, math.log(110.0), loose_spec)
    tight = gil_pelaez(cf, strip, math.log(100.0), w, math.log(110.0), tight_spec)
    assert abs(loose.r1 - tight.r1) <= loose.achieved_error_estimate + 1e-12
    assert abs(loose.r2 - tight.r2) <= loose.achieved_error_estimate + 1e-12


def test_probabilities_within_tolerance_band():
    cf, strip, w = heston_cf(HESTON, 0.04, 1.0)
    spec = QuadratureSpec(abs_tol=1e-9)
    for strike in (50.0, 95.0, 100.0, 130.0):
        pair = gil_pelaez(cf, strip, math.log(100.0), w, math.log(strike), spec)
        eps = 10 * spec.abs_tol
        assert -eps <= pair.r1 <= 1.0 + eps
        assert -eps <= pair.r2 <= 1.0 + eps
        assert pair.achieved_error_estimate <= spec.abs_tol


def test_degenerate_bypass_uses_phase_center():
    # point-mass law: zero variance everywhere, so w = 0, and a non-zero
    # drift: the indicator is taken at the location passed, the forward x + mu
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
    x = math.log(100.0)
    cf, strip, w = heston_cf(p, 0.0, 1.0)
    assert w == 0.0
    # forward ln S_T = x + mu: strike between x and x+mu must exercise
    pair = gil_pelaez(cf, strip, x + p.mu, w, x + 0.5 * p.mu)
    assert pair.r1 == 1.0 and pair.r2 == 1.0
    pair = gil_pelaez(cf, strip, x + p.mu, w, x + 2.0 * p.mu)
    assert pair.r1 == 0.0 and pair.r2 == 0.0
    pair = gil_pelaez(cf, strip, x + p.mu, w, x + p.mu)  # exactly at the point mass
    assert pair.r1 == 0.5 and pair.r2 == 0.5


def test_tail_not_decaying_reported():
    # near-zero variance with theta = 0: |f - f_BS| / s stays far above the
    # threshold up to the top of the s ladder
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
    cf, strip, w = heston_cf(p, 1e-12, 1.0)
    with pytest.raises(TailNotDecaying):
        gil_pelaez(cf, strip, math.log(100.0), w, math.log(100.0))
    # at v = 1e-6 the tail decays on the ladder only at s = 4096, and there the
    # aliasing bound asks for ~2.8e6 midpoint nodes, more than the cap
    cf, strip, w = heston_cf(p, 1e-6, 1.0)
    with pytest.raises(SubdivisionExhausted):
        gil_pelaez(cf, strip, math.log(100.0), w, math.log(100.0))


def test_non_finite_ladder_is_reported():
    # a characteristic function that is not finite on a rung of the ladder is a numerical fault, not a decayed tail
    def cf(m, phi):
        f = np.stack([np.exp(1j * phi * sign * 0.02 - 0.02 * phi**2) for sign in (1.0, -1.0)])
        return np.where(np.abs(phi - S_LADDER[3] / 0.2) < 1e-9, np.nan, f)

    with pytest.raises(TailNotDecaying, match="not finite"):
        gil_pelaez(cf, every_order, 0.0, 0.04, 0.1)


# the corner of PARAM_BOX with the narrowest strip: moments of order above 1 + 5.5e-4/sqrt(w) explode before tau = 30,
# so the aliasing bound takes ~1e6 nodes at tau = 30 and more than the cap at tau = 60
NARROW = ModelParams(kappa=0.5, theta=0.01, sigma=0.8, lam=-0.2, rho_sv=0.5, mu=0.03, beta=2.0)


def test_subdivision_exhausted_reported():
    with pytest.raises(SubdivisionExhausted, match=f"> {MAX_NODES} midpoint nodes"):
        price_grid(NARROW, 100.0, 0.002, [80.0, 100.0, 120.0], [60.0])


@pytest.mark.parametrize("abs_tol", [1e-9, 1e-12])
def test_far_strikes_at_a_tiny_w_price_at_their_intrinsic_limits(abs_tol):
    # K = 10 and 1000 at tau = 1e-4 and v = 5e-4 lie ~1e4 sqrt(w) from the money: the calls are S - K*B and 0
    sir = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    grid = price_grid(sir, 100.0, 5e-4, [10.0, 1000.0], [1e-4], QuadratureSpec(abs_tol=abs_tol))
    k, bond = np.array([10.0, 1000.0]), grid.bond[0].price
    assert np.all(np.abs(grid.price[0] - np.maximum(100.0 - k * bond, 0.0)) <= (100.0 + k * bond) * abs_tol)
    assert np.all(grid.err_estimate <= abs_tol)


def test_quadrature_spec_validation():
    with pytest.raises(InvalidParameter):
        QuadratureSpec(abs_tol=1e-2)
    with pytest.raises(InvalidParameter):
        QuadratureSpec(abs_tol=1e-13)
    with pytest.raises(TypeError):
        QuadratureSpec(phi_max=1e4)  # no frequency budget: the s ladder has a fixed top
    with pytest.raises(TypeError):
        QuadratureSpec(max_subdivisions=2048)  # no panel budget: the node cap is a module constant


@pytest.mark.parametrize("abs_tol", [1e-9, 1e-12])
def test_gaussian_law_inverts_to_its_closed_form(abs_tol):
    # a Gaussian log price whose variance is 1.7x the control's w: R_j is N(d_j) at the true
    # variance, to abs_tol on every row, the far strike included
    w, true_w, x = 0.04, 0.068, math.log(100.0)
    log_strikes = np.log([5.0, 60.0, 90.0, 100.0, 110.0, 150.0, 400.0])

    def cf(m, phi):
        return np.stack([np.exp(1j * phi * sign * 0.5 * true_w - 0.5 * phi**2 * true_w) for sign in (1.0, -1.0)])

    spec = QuadratureSpec(abs_tol=abs_tol)
    pair = gil_pelaez(cf, every_order, x, w, log_strikes, spec)
    for r, sign in ((pair.r1, 1.0), (pair.r2, -1.0)):
        d = (x - log_strikes + sign * 0.5 * true_w) / math.sqrt(true_w)
        exact = np.array([0.5 * math.erfc(-z / math.sqrt(2.0)) for z in d])
        assert np.all(np.abs(r - exact) <= abs_tol), np.abs(r - exact)
    assert np.all(pair.achieved_error_estimate <= abs_tol)


# the example model's CI far-strike grid at abs_tol = 1e-12 as priced by one complex exponential per strike and node:
# rows tau = 1e-4, 0.5, columns K = 50, 80, 100, 120; at tau = 1e-4 only K = 100 is not far, and takes the sum
FAR_R1 = [[1.0, 1.0, 0.5121285947143878, 0.0],
          [0.9999988385105106, 0.9915547266284913, 0.6677245323716308, 0.017366480296872294]]
FAR_R2 = [[1.0, 1.0, 0.5120391082763838, 0.0],
          [0.9999974954933626, 0.9885805428687712, 0.6365417750585951, 0.014364030062237661]]


def test_far_strikes_price_as_with_one_exponential_per_node():
    sir = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    grid = price_grid(sir, 100.0, 5e-4, [50.0, 80.0, 100.0, 120.0], [1e-4, 0.5], QuadratureSpec(abs_tol=1e-12))
    assert np.abs(grid.r1 - FAR_R1).max() <= 1e-15
    assert np.abs(grid.r2 - FAR_R2).max() <= 1e-15


def _s_max_by_rung(cf, w, spec):
    """Reference: one single-node evaluation per rung and measure; the first rung from which every rung up the ladder
    is below the threshold."""
    threshold = spec.abs_tol / 10.0
    found = None
    for s in S_LADDER:
        phi = np.array([s / math.sqrt(w)])
        tail = np.abs(_less_control(cf(np.zeros(1, dtype=int), phi), phi, w, np.array([s]))).max()
        if not tail < threshold:
            found = None
        elif found is None:
            found = s, tail
    return found


def _ladder_difference(cf, w):
    """(f_j - f_BS_j)/s on the s ladder of one maturity: measures first, rungs last."""
    phi = S_LADDER / math.sqrt(w)
    return _less_control(cf(np.zeros(phi.size, dtype=int), phi), phi, w, S_LADDER)


def test_find_s_max_matches_per_rung_search():
    # the truncation is found on the s ladder: phi_max = s_max / sqrt(w)
    rng = np.random.default_rng(11)
    found = set()
    for i in range(8):
        params = draw_params(rng, beta=0.0 if i % 2 == 0 else rng.uniform(0.25, 2.0))
        for tau in (0.02, 1.0, 10.0):
            variance, taus = rng.uniform(0.01, 0.16), np.array([tau])
            log_bond = math.log(bond_price(params, variance, tau).price)
            cf = _provider(params, variance, taus, np.array([log_bond]))
            w = float(_expected_variance(params, variance, taus)[0])
            for spec in (QuadratureSpec(), QuadratureSpec(abs_tol=1e-12)):
                expected = _s_max_by_rung(cf, w, spec)
                if expected is None:
                    with pytest.raises(TailNotDecaying):
                        _find_s_max(_ladder_difference(cf, w), spec)
                    continue
                [(s_max, tail)] = _find_s_max(_ladder_difference(cf, w), spec)
                assert s_max == expected[0]
                assert tail == pytest.approx(expected[1], rel=1e-12)
                found.add(s_max)
    assert len(found) > 2  # the draws reach several rungs


def test_find_s_max_evaluates_whole_ladder_once_per_measure():
    inner, strip, w = heston_cf(HESTON, 0.04, 1.0)
    cf, calls = _recording(inner)
    gil_pelaez(cf, strip, math.log(100.0), w, math.log(100.0))
    # both measures in the first call, the moments on the imaginary axis after the ladder
    np.testing.assert_allclose(calls[0][:S_LADDER.size] * math.sqrt(w), S_LADDER, rtol=1e-15)
    assert _find_s_max(_ladder_difference(inner, w), QuadratureSpec())[0][0] in S_LADDER


def test_find_s_max_needs_both_measures_on_one_rung():
    # f_1 - f_BS_1 vanishes only on even rungs, f_2 - f_BS_2 only on odd ones
    odd = np.arange(S_LADDER.size) % 2 == 1
    diff = np.stack([np.where(odd == (j == 2), 0.0, 1.0) for j in (1, 2)]).astype(complex)
    assert np.all(np.abs(diff).min(axis=0) == 0.0)
    with pytest.raises(TailNotDecaying, match="s ladder"):
        _find_s_max(diff, QuadratureSpec())


def test_probabilities_stable_under_tighter_tolerance_over_box():
    # r_j at abs_tol = 1e-9 lie within abs_tol of r_j at 1e-12 across PARAM_BOX
    rng = np.random.default_rng(2024)
    loose, tight = QuadratureSpec(abs_tol=1e-9), QuadratureSpec(abs_tol=1e-12)
    for i in range(20):
        params = draw_params(rng, beta=0.0 if i < 10 else rng.uniform(0.25, 2.0))
        variance = rng.uniform(0.01, 0.16)
        for tau in (0.02, 0.5, 5.0):
            state = MarketState(spot=100.0, variance=variance, tau=tau)
            for strike in (70.0, 100.0, 130.0):
                opt = OptionSpec(strike=strike)
                a = price_sir(params, state, opt, loose)
                b = price_sir(params, state, opt, tight)
                context = (params, variance, tau, strike)
                assert abs(a.r1 - b.r1) <= loose.abs_tol, context
                assert abs(a.r2 - b.r2) <= loose.abs_tol, context


def test_short_maturities_stable_under_tighter_tolerance():
    # r_j at abs_tol = 1e-9 lie within 1e-9 of r_j at 1e-12 down to tau = 1e-4
    rng = np.random.default_rng(2)
    strikes, maturities = (60.0, 80.0, 100.0, 120.0, 160.0), (1e-4, 1e-3, 0.02)
    for i in range(20):
        params = draw_params(rng, beta=0.0 if i < 10 else rng.uniform(0.25, 2.0))
        variance = rng.uniform(0.002, 0.16)
        loose = price_grid(params, 100.0, variance, strikes, maturities, QuadratureSpec(abs_tol=1e-9))
        tight = price_grid(params, 100.0, variance, strikes, maturities, QuadratureSpec(abs_tol=1e-12))
        context = (params, variance)
        assert np.abs(loose.r1 - tight.r1).max() <= 1e-9, context
        assert np.abs(loose.r2 - tight.r2).max() <= 1e-9, context


@st.composite
def box_params(draw):
    """A parameter set from PARAM_BOX, kappa + lam >= 0.3 as in draw_params, with beta 0 or in (0, 2)."""
    values = {name: draw(st.floats(lo, hi)) for name, (lo, hi) in PARAM_BOX.items()}
    values["lam"] = max(values["lam"], 0.3 - values["kappa"])
    beta = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True)))
    return ModelParams(beta=beta, **values)


@settings(max_examples=30, deadline=None)
@given(params=box_params(), variance=st.floats(0.002, 0.5), tau=st.floats(1e-4, 30.0),
       strikes=st.lists(st.floats(40.0, 200.0), min_size=1, max_size=7))
# one draw of a box sweep that ran out of Gauss-Kronrod panels at abs_tol = 1e-12
@example(params=ModelParams(kappa=3.12626975077825, theta=0.1067990010412892, sigma=0.22921908889594328,
                            lam=-0.12525765878820014, rho_sv=-0.7999629250681491, mu=0.04829092134091322, beta=0.0),
         variance=0.004397640392812707, tau=1e-4, strikes=list(np.linspace(40.0, 200.0, 7)))
# the box's narrowest strip, which needs ~1e6 nodes
@example(params=NARROW, variance=0.002, tau=30.0, strikes=[80.0, 100.0, 120.0])
def test_box_prices_at_both_tolerances_and_agrees_within_the_looser(params, variance, tau, strikes):
    # neither TailNotDecaying nor SubdivisionExhausted inside the box, and r_j at abs_tol = 1e-9 within 1e-9 of
    # r_j at 1e-12, and within the sum of the two error estimates
    loose = price_grid(params, 100.0, variance, strikes, (tau,), QuadratureSpec(abs_tol=1e-9))
    tight = price_grid(params, 100.0, variance, strikes, (tau,), QuadratureSpec(abs_tol=1e-12))
    assert np.abs(loose.r1 - tight.r1).max() <= 1e-9
    assert np.abs(loose.r2 - tight.r2).max() <= 1e-9
    bound = loose.err_estimate + tight.err_estimate
    assert np.all(np.abs(loose.r1 - tight.r1) <= bound), (np.abs(loose.r1 - tight.r1), bound)
    assert np.all(np.abs(loose.r2 - tight.r2) <= bound), (np.abs(loose.r2 - tight.r2), bound)


def _spaced(strikes, gap=5.0):
    """The sorted strikes, each kept only if it lies at least ``gap`` above the last one kept."""
    kept = []
    for strike in sorted(strikes):
        if not kept or strike >= kept[-1] + gap:
            kept.append(strike)
    return kept


@settings(max_examples=30, deadline=None)
@given(params=box_params(), variance=st.floats(0.002, 0.5),
       strikes=st.lists(st.floats(40.0, 200.0), min_size=3, max_size=8).map(_spaced).filter(lambda ks: len(ks) >= 3),
       maturities=st.lists(st.floats(1e-3, 30.0), min_size=2, max_size=3, unique=True).map(sorted))
def test_box_calls_fall_and_are_convex_in_strike_and_rise_with_maturity(params, variance, strikes, maturities):
    # no-arbitrage shape of the call surface, each to a slack of 4*(S + K*B)*abs_tol: non-increasing and convex
    # in K, and non-decreasing in tau since the short rate mu + beta*v is never negative
    spec = QuadratureSpec()
    grid = price_grid(params, 100.0, variance, strikes, maturities, spec)
    k, bond = np.array(strikes), np.array([b.price for b in grid.bond])
    slack = 4.0 * (100.0 + k * bond[:, None]) * spec.abs_tol
    assert np.all(np.diff(grid.price, axis=1) <= slack[:, 1:]), grid.price
    left, right = (k[1:-1] - k[:-2]) / (k[2:] - k[:-2]), (k[2:] - k[1:-1]) / (k[2:] - k[:-2])
    chord = right * grid.price[:, :-2] + left * grid.price[:, 2:]
    assert np.all(grid.price[:, 1:-1] <= chord + slack[:, 1:-1]), grid.price
    assert np.all(np.diff(grid.price, axis=0) >= -slack.max(axis=0)), grid.price


def _recording(inner):
    calls = []

    def eval_fn(m, phi):
        calls.append(phi.copy())
        return inner(m, phi)

    return eval_fn, calls


def test_ladder_is_one_call():
    inner, strip, w = heston_cf(HESTON, 0.04, 1.0)
    cf, calls = _recording(inner)
    gil_pelaez(cf, strip, math.log(100.0), w, np.log([80.0, 100.0, 120.0]))
    np.testing.assert_allclose(calls[0][:S_LADDER.size] * math.sqrt(w), S_LADDER, rtol=1e-15)
    assert np.all(calls[0][S_LADDER.size:].real == 0.0)
    assert not any(np.array_equal(phi, calls[0]) for phi in calls[1:])
    assert all(phi.size > 1 for phi in calls)  # no single-frequency call


def test_degenerate_point_makes_no_cf_call():
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
    inner, strip, w = heston_cf(p, 0.0, 1.0)
    cf, calls = _recording(inner)
    pair = gil_pelaez(cf, strip, math.log(100.0) + p.mu, w, np.log([90.0, 110.0]))
    assert calls == []
    np.testing.assert_array_equal(pair.r2, [1.0, 0.0])
