import math

import numpy as np
import pytest

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
    price_sir,
)
from svsir.heston_cf import characteristic_fn
from svsir.inversion import (PHI_LADDER_START, PHI_MIN, CfProvider, QuadratureSpec, _adaptive_integral,
                             _find_phi_max, _ladder, cf_nodes, gil_pelaez)
from svsir.mc import _terminal
from svsir.pricer import _provider

HESTON = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)


def heston_provider(params, x, v, tau):
    """A one-maturity provider."""
    def eval_fn(j, nodes):
        return characteristic_fn(params, params.mu, x, v, tau, nodes["phi"], j)

    proxy = tau * v + 0.5 * params.kappa * params.theta * tau**2
    return CfProvider(eval=eval_fn, decay_proxy=proxy)


def test_deep_in_the_money():
    log_k = math.log(100.0) - 20.0
    pair = gil_pelaez(heston_provider(HESTON, math.log(100.0), 0.04, 1.0), math.log(100.0), log_k)
    assert pair.r1 == pytest.approx(1.0, abs=1e-6)
    assert pair.r2 == pytest.approx(1.0, abs=1e-6)


def test_deep_out_of_the_money():
    log_k = math.log(100.0) + 20.0
    pair = gil_pelaez(heston_provider(HESTON, math.log(100.0), 0.04, 1.0), math.log(100.0), log_k)
    assert pair.r1 == pytest.approx(0.0, abs=1e-6)
    assert pair.r2 == pytest.approx(0.0, abs=1e-6)


def mc_exercise_prob(params, state, strike, cfg):
    """(fraction of paths finishing above ``strike``, its binomial standard error).

    Only at beta = 0 is this plain risk-neutral fraction the inversion's R_2.
    """
    ln_s, _, _ = _terminal(params, state.variance, math.log(state.spot), state.tau, cfg, with_stock=True)
    p_hat = np.count_nonzero(ln_s > math.log(strike)) / cfg.n_paths
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / cfg.n_paths)


def test_r2_matches_mc_exercise_probability():
    state = MarketState(spot=100.0, variance=0.04, tau=1.0)
    opt = OptionSpec(strike=105.0)
    pair = gil_pelaez(
        heston_provider(HESTON, math.log(state.spot), state.variance, state.tau),
        math.log(state.spot),
        math.log(opt.strike),
    )
    mean, std_error = mc_exercise_prob(HESTON, state, opt.strike, McConfig(n_paths=100_000, seed=21))
    assert abs(pair.r2 - mean) <= 3.0 * std_error


def test_monotone_in_log_strike():
    provider = heston_provider(HESTON, math.log(100.0), 0.04, 1.0)
    strikes = [60.0, 80.0, 100.0, 120.0, 150.0]
    pairs = [gil_pelaez(provider, math.log(100.0), math.log(k)) for k in strikes]
    for earlier, later in zip(pairs, pairs[1:]):
        assert later.r1 <= earlier.r1 + 1e-8
        assert later.r2 <= earlier.r2 + 1e-8


def test_translation_consistency():
    # shifting x and ln K together leaves R_j unchanged: the integrand sees
    # only the difference through the phase product
    shift = 0.37
    base = heston_provider(HESTON, math.log(100.0), 0.04, 1.0)
    shifted = heston_provider(HESTON, math.log(100.0) + shift, 0.04, 1.0)
    p0 = gil_pelaez(base, math.log(100.0), math.log(90.0))
    p1 = gil_pelaez(shifted, math.log(100.0) + shift, math.log(90.0) + shift)
    tol = 10 * max(p0.achieved_error_estimate, p1.achieved_error_estimate) + 1e-12
    assert abs(p0.r1 - p1.r1) < tol
    assert abs(p0.r2 - p1.r2) < tol


def test_halving_tolerance_stays_within_error_estimate():
    provider = heston_provider(HESTON, math.log(100.0), 0.04, 1.0)
    loose_spec = QuadratureSpec(abs_tol=1e-6)
    tight_spec = QuadratureSpec(abs_tol=5e-7)
    loose = gil_pelaez(provider, math.log(100.0), math.log(110.0), loose_spec)
    tight = gil_pelaez(provider, math.log(100.0), math.log(110.0), tight_spec)
    assert abs(loose.r1 - tight.r1) <= loose.achieved_error_estimate + 1e-12
    assert abs(loose.r2 - tight.r2) <= loose.achieved_error_estimate + 1e-12


def test_probabilities_within_tolerance_band():
    provider = heston_provider(HESTON, math.log(100.0), 0.04, 1.0)
    spec = QuadratureSpec(abs_tol=1e-9)
    for strike in (50.0, 95.0, 100.0, 130.0):
        pair = gil_pelaez(provider, math.log(100.0), math.log(strike), spec)
        eps = 10 * spec.abs_tol
        assert -eps <= pair.r1 <= 1.0 + eps
        assert -eps <= pair.r2 <= 1.0 + eps
        assert pair.achieved_error_estimate <= spec.abs_tol


def test_degenerate_bypass_uses_phase_center():
    # point-mass law: zero variance everywhere, but a non-zero drift means
    # the indicator must be taken at the drifted location, not at bare x
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
    x = math.log(100.0)
    provider = heston_provider(p, x, 0.0, 1.0)
    assert provider.decay_proxy == 0.0
    # forward ln S_T = x + mu: strike between x and x+mu must exercise
    pair = gil_pelaez(provider, x, x + 0.5 * p.mu)
    assert pair.r1 == 1.0 and pair.r2 == 1.0
    pair = gil_pelaez(provider, x, x + 2.0 * p.mu)
    assert pair.r1 == 0.0 and pair.r2 == 0.0
    pair = gil_pelaez(provider, x, x + p.mu)  # exactly at the point mass
    assert pair.r1 == 0.5 and pair.r2 == 0.5


def test_tail_not_decaying_reported():
    # near-zero variance but above the degenerate threshold: |f| stays ~1 far
    # past any reasonable truncation budget
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
    provider = heston_provider(p, math.log(100.0), 2e-6, 1.0)
    with pytest.raises(TailNotDecaying):
        gil_pelaez(provider, math.log(100.0), math.log(100.0))


def test_subdivision_exhausted_reported():
    provider = heston_provider(HESTON, math.log(100.0), 0.04, 1.0)
    spec = QuadratureSpec(abs_tol=1e-12, max_subdivisions=4)
    with pytest.raises(SubdivisionExhausted):
        gil_pelaez(provider, math.log(100.0), math.log(100.0) - 20.0, spec)


def test_quadrature_spec_validation():
    with pytest.raises(InvalidParameter):
        QuadratureSpec(abs_tol=1e-2)
    with pytest.raises(InvalidParameter):
        QuadratureSpec(abs_tol=1e-13)
    with pytest.raises(InvalidParameter):
        QuadratureSpec(phi_max=0.0)
    with pytest.raises(InvalidParameter):
        QuadratureSpec(phi_max=16.0)
    with pytest.raises(InvalidParameter):
        QuadratureSpec(max_subdivisions=2)


def test_gauss_kronrod_panel_exactness():
    # the 15-point rule integrates smooth functions to machine precision
    (value,), _ = _adaptive_integral(lambda m, t: np.cos(t), 0.0, math.pi / 2, 1e-12, 64, 4)
    assert value == pytest.approx(1.0, abs=1e-13)
    (value,), _ = _adaptive_integral(lambda m, t: t**7 - 3 * t**2 + 1.0, -1.0, 2.0, 1e-12, 64, 4)
    exact = (2.0**8 - 1.0) / 8 - (2.0**3 + 1.0) + 3.0
    assert value == pytest.approx(exact, rel=1e-13)


def test_adaptive_integral_meets_target_on_every_row():
    # the rows share panels; the fast-oscillating row drives refinement, and
    # each row must still meet the target on its own
    target = 1e-10
    values, errors = _adaptive_integral(
        lambda m, t: np.stack([np.cos(t), np.cos(40.0 * t)]), 0.0, math.pi / 2, target, 256, 1
    )
    exact = np.array([[1.0], [math.sin(20.0 * math.pi) / 40.0]])
    assert values.shape == errors.shape == (2, 1)
    assert np.all(np.abs(values - exact) <= target)
    assert np.all(errors <= target)


def _phi_max_by_rung(provider, spec):
    """Reference: one single-frequency evaluation per rung and measure."""
    threshold = spec.abs_tol / 10.0
    phi = PHI_LADDER_START
    while phi <= spec.phi_max:
        tail = max(abs(provider.eval(j, cf_nodes(0, [phi]))[0]) / phi for j in (1, 2))
        if tail < threshold:
            return phi, tail
        phi *= 2.0
    return None


def test_find_phi_max_matches_per_rung_search():
    rng = np.random.default_rng(11)
    found = set()
    for i in range(8):
        params = draw_params(rng, beta=0.0 if i % 2 == 0 else rng.uniform(0.25, 2.0))
        for tau in (0.02, 1.0, 10.0):
            state = MarketState(spot=100.0, variance=rng.uniform(0.01, 0.16), tau=tau)
            log_bond = math.log(bond_price(params, state.variance, tau).price)
            provider = _provider(params, state.spot, state.variance, np.array([tau]), np.array([log_bond]))
            for spec in (QuadratureSpec(), QuadratureSpec(abs_tol=1e-12, phi_max=200.0)):
                expected = _phi_max_by_rung(provider, spec)
                f_ladder = np.stack([provider.eval(j, cf_nodes(0, _ladder(spec))) for j in (1, 2)])
                if expected is None:
                    with pytest.raises(TailNotDecaying):
                        _find_phi_max(f_ladder, spec)
                    continue
                phi_max, tail = _find_phi_max(f_ladder, spec)
                assert phi_max == expected[0]
                assert tail == pytest.approx(expected[1], rel=1e-12)
                found.add(phi_max)
    assert len(found) > 2  # the draws reach several rungs


def test_find_phi_max_evaluates_whole_ladder_once_per_measure():
    provider, calls = _recording(heston_provider(HESTON, math.log(100.0), 0.04, 1.0))
    spec = QuadratureSpec(phi_max=1e4)
    gil_pelaez(provider, math.log(100.0), math.log(100.0), spec)
    assert [j for j, _ in calls[:2]] == [1, 2]
    for _, phi in calls[:2]:
        np.testing.assert_array_equal(phi[1:], [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0])
    f_ladder = np.stack([provider.eval(j, cf_nodes(0, _ladder(spec))) for j in (1, 2)])
    assert _find_phi_max(f_ladder, spec)[0] in _ladder(spec)


def test_find_phi_max_needs_both_measures_on_one_rung():
    ladder = PHI_LADDER_START * 2.0 ** np.arange(9)

    def eval_fn(j, phi):
        # f_1 decays only on even rungs, f_2 only on odd ones
        odd = np.log2(phi / PHI_LADDER_START) % 2 == 1
        return np.where(odd == (j == 2), 0.0, 1.0).astype(complex)

    f_ladder = np.stack([eval_fn(j, ladder) for j in (1, 2)])
    assert np.all(np.abs(f_ladder).min(axis=0) == 0.0)
    with pytest.raises(TailNotDecaying, match="phi budget"):
        _find_phi_max(f_ladder, QuadratureSpec())


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


def _recording(inner):
    calls = []

    def eval_fn(j, nodes):
        calls.append((j, nodes["phi"].copy()))
        return inner.eval(j, nodes)

    return CfProvider(eval=eval_fn, decay_proxy=inner.decay_proxy), calls


def test_phi_min_rides_in_the_ladder_call():
    provider, calls = _recording(heston_provider(HESTON, math.log(100.0), 0.04, 1.0))
    gil_pelaez(provider, math.log(100.0), np.log([80.0, 100.0, 120.0]), QuadratureSpec(phi_max=1e4))
    assert [j for j, _ in calls[:2]] == [1, 2]
    for _, phi in calls[:2]:
        assert phi[0] == PHI_MIN and phi[1] == PHI_LADDER_START
    assert all(phi.size > 1 for _, phi in calls)  # no single-frequency call


def test_degenerate_point_makes_one_call_per_measure():
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
    provider, calls = _recording(heston_provider(p, math.log(100.0), 0.0, 1.0))
    pair = gil_pelaez(provider, math.log(100.0), np.log([90.0, 110.0]))
    assert [j for j, _ in calls] == [1, 2]
    np.testing.assert_array_equal(pair.r2, [1.0, 0.0])
