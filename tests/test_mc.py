import dataclasses
import math
import sys
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtri

import svsir.mc
from svsir import (
    InvalidParameter,
    MarketState,
    McConfig,
    McEstimate,
    ModelParams,
    OptionSpec,
    bond_price,
    price_grid,
    price_heston,
    simulate_bond,
    simulate_grid,
    simulate_price,
)
from svsir.mc import BLOCK_PATHS, PSI_C, PSI_FLOOR, _blocks, _combine, _estimate, _moments, _Stream
from svsir.model import OptionKind

HESTON = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
SIR = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.1, rho_sv=-0.5, mu=0.03, beta=1.0)
STATE = MarketState(spot=100.0, variance=0.04, tau=1.0)
# violates Feller (2*kappa*theta = 0.04 < sigma^2 = 0.64), so v often nears 0
# and QE takes its exponential branch
FELLER_CORNER = ModelParams(kappa=2.0, theta=0.01, sigma=0.8, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
# the model and grid of configs/example.cfg
EXAMPLE = dataclasses.replace(HESTON, beta=1.0)
EXAMPLE_STRIKES, EXAMPLE_MATURITIES = (80.0, 100.0, 120.0), (0.5, 1.0)


def test_config_invariants():
    with pytest.raises(InvalidParameter, match="n_paths"):
        McConfig(n_paths=999)
    with pytest.raises(InvalidParameter, match="n_steps_per_year"):
        McConfig(n_paths=1000, n_steps_per_year=10)


def test_config_rejects_negative_seed():
    with pytest.raises(InvalidParameter, match="seed"):
        McConfig(n_paths=1000, seed=-1)


def test_zero_noise_paths_are_deterministic():
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    state = MarketState(spot=100.0, variance=0.0, tau=1.0)
    est = simulate_price(p, state, OptionSpec(strike=95.0), McConfig(n_paths=2000, seed=1))
    assert est.std_error == 0.0
    # exact up to the float accumulation of ~250 drift increments
    assert est.mean == pytest.approx(max(0.0, 100.0 - 95.0 * math.exp(-0.03)), abs=1e-10)


def test_bond_deterministic_cases():
    p0 = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.04, beta=0.0)
    est = simulate_bond(p0, 0.09, 2.0, McConfig(n_paths=2000, seed=2))
    assert est.std_error == 0.0
    assert est.mean == pytest.approx(math.exp(-0.08), abs=1e-12)

    pz = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.04, beta=2.0)
    est = simulate_bond(pz, 0.0, 1.5, McConfig(n_paths=2000, seed=3))
    assert est.std_error == 0.0
    assert est.mean == pytest.approx(math.exp(-0.06), abs=1e-12)


@pytest.mark.parametrize("v0, tau", [(-0.01, 1.0), (math.nan, 1.0), (0.04, -1.0), (0.04, math.nan)])
def test_bond_rejects_out_of_range_inputs(v0, tau):
    with pytest.raises(InvalidParameter, match="variance" if v0 != 0.04 else "tau"):
        simulate_bond(SIR, v0, tau, McConfig(n_paths=1000))


def test_bond_vs_closed_form():
    est = simulate_bond(SIR, 0.04, 1.0, McConfig(n_paths=100_000, seed=4))
    closed = bond_price(SIR, 0.04, 1.0).price
    assert abs(closed - est.mean) <= 3.0 * est.std_error


def test_variance_mean_matches_square_root_process():
    from svsir.mc import _terminal

    cfg = McConfig(n_paths=100_000, seed=5)
    _, v_t, _ = _terminal(SIR, 0.04, 0.0, 1.0, cfg, with_stock=False)
    alpha = SIR.alpha
    theta_rn = SIR.kappa * SIR.theta / alpha
    expected = theta_rn + (0.04 - theta_rn) * math.exp(-alpha)
    se = v_t.std(ddof=1) / math.sqrt(v_t.size)
    assert abs(v_t.mean() - expected) <= 3.0 * se


def test_price_vs_semianalytic_heston():
    opt = OptionSpec(strike=105.0)
    res = price_heston(HESTON, STATE, opt)
    est = simulate_price(HESTON, STATE, opt, McConfig(n_paths=50_000, seed=6))
    assert abs(res.price - est.mean) <= 3.0 * est.std_error


def test_put_payoff_path():
    opt = OptionSpec(strike=100.0, kind=OptionKind.PUT)
    est = simulate_price(HESTON, STATE, opt, McConfig(n_paths=20_000, seed=7))
    assert est.mean > 0
    res = price_heston(HESTON, STATE, opt)
    assert abs(res.price - est.mean) <= 3.5 * est.std_error


def test_determinism_same_seed():
    cfg = McConfig(n_paths=5_000, seed=42)
    a = simulate_price(SIR, STATE, OptionSpec(strike=100.0), cfg)
    b = simulate_price(SIR, STATE, OptionSpec(strike=100.0), cfg)
    assert a == b  # bit-identical
    c = simulate_price(SIR, STATE, OptionSpec(strike=100.0), McConfig(n_paths=5_000, seed=43))
    assert c.mean != a.mean


def test_standard_error_definition():
    est = simulate_price(HESTON, STATE, OptionSpec(strike=100.0), McConfig(n_paths=4_000, seed=8))
    assert est.n_paths == 4_000
    assert est.std_error > 0


def test_convergence_scaling():
    se_small = simulate_price(HESTON, STATE, OptionSpec(strike=100.0),
                              McConfig(n_paths=4_000, seed=10)).std_error
    se_large = simulate_price(HESTON, STATE, OptionSpec(strike=100.0),
                              McConfig(n_paths=16_000, seed=11)).std_error
    assert se_large == pytest.approx(0.5 * se_small, rel=0.2)


def test_discretization_bias_under_control():
    # the two runs are independent draws, so the difference carries both
    # noise streams; the bias must hide inside that combined resolution
    opt = OptionSpec(strike=100.0)
    coarse = simulate_price(SIR, STATE, opt, McConfig(n_paths=50_000, n_steps_per_year=50, seed=12))
    fine = simulate_price(SIR, STATE, opt, McConfig(n_paths=50_000, n_steps_per_year=100, seed=12))
    assert abs(fine.mean - coarse.mean) < 2.0 * math.hypot(coarse.std_error, fine.std_error)


def test_tau_zero_short_circuit():
    state = MarketState(spot=100.0, variance=0.04, tau=0.0)
    est = simulate_price(SIR, state, OptionSpec(strike=90.0), McConfig(n_paths=2000, seed=16))
    assert est.mean == 10.0 and est.std_error == 0.0


def test_grid_matches_per_point_simulation(monkeypatch):
    # lattice maturities: each checkpoint sees the same steps and uniforms as a
    # one-maturity run at the same seed, so the estimates are bit-identical,
    # in one block or in five
    cfg = McConfig(n_paths=5_000, seed=17)
    strikes, maturities = (80.0, 100.0, 120.0), (0.5, 1.0)
    for block_paths in (BLOCK_PATHS, 1_200):
        monkeypatch.setattr(svsir.mc, "BLOCK_PATHS", block_paths)
        grid = simulate_grid(SIR, 100.0, 0.04, strikes, maturities, cfg)
        points = [est for tau in maturities
                  for est in simulate_grid(SIR, 100.0, 0.04, strikes, (tau,), cfg)]
        assert grid == points


def test_grid_zero_noise_checkpoints(monkeypatch):
    # every path is the same, so the standard error is 0 in one block or across four
    p = ModelParams(kappa=2.0, theta=0.0, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    strikes, maturities = (95.0, 100.0, 105.0), (0.02, 0.08, 0.3)
    expected = [max(100.0 - strike * math.exp(-0.03 * tau), 0.0)
                for tau in maturities for strike in strikes]
    for block_paths in (BLOCK_PATHS, 600):
        monkeypatch.setattr(svsir.mc, "BLOCK_PATHS", block_paths)
        grid = simulate_grid(p, 100.0, 0.0, strikes, maturities, McConfig(n_paths=2000, seed=1))
        for est, value in zip(grid, expected, strict=True):
            assert est.std_error == 0.0
            assert est.mean == pytest.approx(value, abs=1e-10)


def test_grid_tau_zero_and_repeated_maturity():
    strikes = (90.0, 100.0, 110.0)
    cfg = McConfig(n_paths=2000, seed=18)
    grid = simulate_grid(SIR, 100.0, 0.04, strikes, (0.5, 0.0, 0.5), cfg)
    at_half, at_zero, again = grid[:3], grid[3:6], grid[6:]
    assert [(e.mean, e.std_error) for e in at_zero] == [(10.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
    assert at_half == again
    # zero-length segments take no steps, so they draw no uniforms either
    assert at_half == simulate_grid(SIR, 100.0, 0.04, strikes, (0.5,), cfg)


def _plain_euler(params, v0, ln_spot, tau, cfg):
    """Reference: the Euler step as plain expressions, one fresh array per operation."""
    n = cfg.n_paths
    n_steps = max(1, math.ceil(tau * cfg.n_steps_per_year))
    dt = tau / n_steps
    sqrt_dt = math.sqrt(dt)
    rho = params.rho_sv
    rho_perp = math.sqrt(max(0.0, 1.0 - rho * rho))
    rng = np.random.Generator(np.random.Philox(cfg.seed))

    def normals():
        return ndtri(np.maximum(rng.random(n), 2.0**-53))

    v, ln_s, rate_integral = np.full(n, v0), np.full(n, ln_spot), np.zeros(n)
    for _ in range(n_steps):
        v_pos = np.maximum(v, 0.0)
        r_now = params.mu + params.beta * v_pos
        vol = np.sqrt(v_pos)
        z2 = normals()
        z1 = rho * z2 + rho_perp * normals()
        ln_s = ln_s + ((r_now - 0.5 * v_pos) * dt + vol * sqrt_dt * z1)
        v = v + (params.kappa * params.theta - params.alpha * v_pos) * dt + params.sigma * vol * sqrt_dt * z2
        r_next = params.mu + params.beta * np.maximum(v, 0.0)
        rate_integral = rate_integral + 0.5 * (r_now + r_next) * dt
    return ln_s, v, rate_integral


@pytest.mark.parametrize("tau", [0.02, 0.3, 1.0])
def test_in_place_loop_matches_plain_expressions(tau):
    from svsir.mc import _terminal

    cfg = McConfig(n_paths=1000, seed=19)
    got = _terminal(SIR, 0.04, math.log(100.0), tau, cfg, with_stock=True)
    for a, b in zip(got, _plain_euler(SIR, 0.04, math.log(100.0), tau, cfg), strict=True):
        assert np.array_equal(a, b)


def _plain_qe(params, v0, maturities, cfg):
    """Reference: the QE step as plain expressions, one fresh array per operation.

    Returns ``(v, Integral v dt)`` at each maturity and the number of path-steps
    that took the exponential branch."""
    n = cfg.n_paths
    alpha, sigma2 = params.alpha, params.sigma * params.sigma
    theta_rn = params.kappa * params.theta / alpha
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    v, var_integral = np.full(n, v0), np.zeros(n)
    out, done, exp_steps = [], 0.0, 0
    for tau in maturities:
        n_steps = max(1, math.ceil((tau - done) * cfg.n_steps_per_year)) if tau > done else 0
        dt = (tau - done) / max(n_steps, 1)
        decay, one_minus = math.exp(-alpha * dt), -math.expm1(-alpha * dt)
        for _ in range(n_steps):
            u = rng.random(n)
            m = theta_rn * one_minus + decay * v
            s2 = (sigma2 * decay * one_minus / alpha * v
                  + theta_rn * sigma2 * one_minus * one_minus / (2.0 * alpha))
            psi = s2 / np.maximum(m * m, np.finfo(float).tiny)
            q = 2.0 / np.clip(psi, PSI_FLOOR, PSI_C)
            b2 = q - 1.0 + np.sqrt((q - 1.0) * q)
            v_quad = m / (b2 + 1.0) * (np.sqrt(b2) + ndtri(np.maximum(u, 2.0**-53)))**2
            not_p = 2.0 / (psi + 1.0)
            v_exp = np.where(1.0 - u < not_p, np.log(not_p / (1.0 - u)) * m / not_p, 0.0)
            exp_steps += int(np.count_nonzero(psi > PSI_C))
            v_next = np.where(psi > PSI_C, v_exp, v_quad)
            var_integral = var_integral + (v + v_next) * (0.5 * dt)
            v = v_next
        done = tau
        out.append((v, var_integral))
    return out, exp_steps


def _qe_segments(params, v0, maturities, cfg):
    """``(v, Integral v dt)`` after each of the sorted ``maturities``, running one QE
    segment per maturity on every path slice, as ``simulate_grid`` does; the
    scratch starts as NaN, so a segment that reads it before writing it shows."""
    from svsir.mc import _qe_paths, _run, _slice_count, _split, _steps

    n = cfg.n_paths
    arrays = (np.full(n, v0), np.zeros(n), *(np.full(n, np.nan) for _ in range(5)))
    v, var_integral = arrays[:2]
    out, done, first = [], 0.0, 0
    for tau in maturities:
        n_steps, dt = _steps(tau - done, cfg)
        _run([partial(_qe_paths, params, first, n_steps, dt, cfg, part, *(a[part] for a in arrays))
              for part in _split(n, _slice_count(n))])
        out.append((v.copy(), var_integral.copy()))
        done, first = tau, first + n_steps
    return out


@pytest.mark.parametrize("params", [SIR, FELLER_CORNER], ids=["sir", "feller_corner"])
def test_in_place_qe_loop_matches_plain_expressions(params):
    cfg = McConfig(n_paths=1000, seed=20)
    maturities = (0.02, 0.3, 0.3, 1.0)
    got = _qe_segments(params, 0.04, maturities, cfg)
    expected, exp_steps = _plain_qe(params, 0.04, maturities, cfg)
    if params is FELLER_CORNER:
        assert exp_steps > 0  # both branches are exercised
    for got_pair, expected_pair in zip(got, expected, strict=True):
        for a, b in zip(got_pair, expected_pair, strict=True):
            assert np.array_equal(a, b)


def test_grid_peak_memory_stays_within_ten_path_arrays(monkeypatch):
    # the grid holds eight block-length arrays (state and scratch) per slice,
    # so its memory does not grow with the paths: at 1,000,000 paths it stays
    # within ten arrays of 100,000 paths, where holding the whole path set
    # would take ~91.  Where the buffers are allocated (calling or worker
    # thread) is invisible here, as tracemalloc counts bytes and not glibc's
    # per-thread arenas: the benchmark's peak_rss_mb covers that
    import tracemalloc

    monkeypatch.setattr(svsir.mc, "_slice_count", lambda n_paths: 2)
    tracemalloc.start()
    try:
        simulate_grid(EXAMPLE, 100.0, 0.04, EXAMPLE_STRIKES, (0.02,), McConfig(n_paths=1_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 100_000 * np.dtype(float).itemsize


def test_grid_standard_errors_below_plain_simulation():
    # conditioning on the variance path takes the stock's own noise out of every point
    cfg = McConfig(n_paths=10_000, seed=31)
    grid = simulate_grid(EXAMPLE, 100.0, 0.04, EXAMPLE_STRIKES, EXAMPLE_MATURITIES, cfg)
    plain = [simulate_price(EXAMPLE, MarketState(spot=100.0, variance=0.04, tau=tau),
                            OptionSpec(strike=strike), cfg)
             for tau in EXAMPLE_MATURITIES for strike in EXAMPLE_STRIKES]
    for est, ref in zip(grid, plain, strict=True):
        assert 0.0 < est.std_error < ref.std_error


@pytest.mark.parametrize("params", [dataclasses.replace(SIR, rho_sv=-1.0), FELLER_CORNER],
                         ids=["rho_minus_one", "feller_corner"])
def test_grid_edge_rows_match_pricer(params):
    # at rho = -1 the conditional variance is 0 and every path prices at its
    # conditional intrinsic value
    grid = simulate_grid(params, 100.0, 0.04, EXAMPLE_STRIKES, EXAMPLE_MATURITIES,
                         McConfig(n_paths=20_000, seed=23))
    prices = price_grid(params, 100.0, 0.04, EXAMPLE_STRIKES, EXAMPLE_MATURITIES).price.ravel()
    for est, price in zip(grid, prices.tolist(), strict=True):
        assert math.isfinite(est.mean) and math.isfinite(est.std_error) and est.std_error > 0
        assert abs(price - est.mean) <= 3.0 * est.std_error, (price, est)


def _one_array_estimate(samples):
    """Reference: the estimator as it read before blocks, on one array shifted in place."""
    n = samples.size
    first = samples[0]
    samples -= first
    std = samples.std(ddof=1)
    if std < 2.0**-511:
        scale = float(np.abs(samples).max())
        if scale > 0.0:
            std = (samples / scale).std(ddof=1) * scale
    return McEstimate(mean=float(first + samples.mean()), std_error=float(std / math.sqrt(n)), n_paths=n)


@pytest.mark.parametrize("samples", [
    np.random.default_rng(3).normal(7.0, 2.0, 25_000),
    np.random.default_rng(4).lognormal(0.0, 3.0, 10_007),
    np.maximum(np.random.default_rng(5).normal(0.0, 1.0, 1_000), 0.0),
    1e-200 * np.array([1.0, 2.0, 3.0]),
    np.full(5, 1e-200),
    np.full(1_000, 26.5),
], ids=["normal", "lognormal", "call_like", "tiny", "tiny_constant", "constant"])
def test_estimate_of_one_array_is_bit_identical_to_the_one_array_formulas(samples):
    assert _estimate(samples.copy()) == _one_array_estimate(samples.copy())


def test_estimate_keeps_the_standard_error_of_tiny_samples():
    # squared deviations of ~1e-200 underflow to 0; the estimate must not
    samples = 1e-200 * np.array([1.0, 2.0, 3.0])
    est = _estimate(samples.copy())
    expected = 1e-200 * np.std([1.0, 2.0, 3.0], ddof=1) / math.sqrt(3)
    assert est.std_error == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert est.mean == pytest.approx(2e-200, rel=1e-15, abs=0.0)
    assert _estimate(np.full(5, 1e-200)).std_error == 0.0


def _in_blocks(samples, *sizes):
    """The estimate of ``samples`` combined from the blocks of the given sizes."""
    bounds = np.cumsum((0, *sizes))
    assert bounds[-1] == samples.size
    return _combine([_moments(samples[a:b].copy(), np.empty(b - a)) for a, b in zip(bounds[:-1], bounds[1:])])


@pytest.mark.parametrize("scale", [1.0, 1e-200])
def test_blocks_combine_to_the_moments_of_the_whole(scale):
    samples = scale * np.random.default_rng(6).normal(3.0, 0.5, 9_001)
    est = _in_blocks(samples, 3_000, 3_000, 2_999, 2)
    assert est.n_paths == samples.size
    expected = _one_array_estimate(samples.copy())
    assert est.mean == pytest.approx(expected.mean, rel=1e-14, abs=0.0)
    assert est.std_error == pytest.approx(expected.std_error, rel=1e-13, abs=0.0)


def test_blocks_keep_the_standard_error_of_tiny_and_constant_samples():
    tiny = 1e-200 * np.arange(1.0, 10.0)
    expected = 1e-200 * np.std(np.arange(1.0, 10.0), ddof=1) / 3.0
    assert _in_blocks(tiny, 3, 3, 3).std_error == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert _in_blocks(np.full(9, 1e-200), 3, 3, 3).std_error == 0.0
    assert _in_blocks(np.full(9, 26.5), 2, 4, 3) == McEstimate(mean=26.5, std_error=0.0, n_paths=9)
    # each block constant, but not all alike: the spread lies between the blocks alone
    steps = 1e-200 * np.repeat([1.0, 2.0, 4.0], 3)
    expected = 1e-200 * np.std([1.0, 2.0, 4.0] * 3, ddof=1) / 3.0
    assert _in_blocks(steps, 3, 3, 3).std_error == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n_paths", [1_000, 8_192 * 2, 30_000, 100_000, 100_003, 200_000, 1_000_000])
def test_blocks_cover_the_paths_in_near_equal_runs(n_paths):
    blocks = _blocks(n_paths)
    assert blocks[0].start == 0 and blocks[-1].stop == n_paths
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = {part.stop - part.start for part in blocks}
    assert max(sizes) <= BLOCK_PATHS and max(sizes) - min(sizes) <= 1
    expected = {1_000: 1, 8_192 * 2: 1, 30_000: 1, 100_000: 4, 100_003: 4, 200_000: 7, 1_000_000: 31}
    assert len(blocks) == expected[n_paths]


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("k", [*range(8), 50_000_003])
def test_stream_positioned_at_draw_k(seed, k):
    # the reference draws every uniform up to k, in chunks that keep memory small
    full = np.random.Generator(np.random.Philox(seed))
    for _ in range(k // 1_000_000):
        full.random(1_000_000)
    expected = full.random(k % 1_000_000 + 1100)[k % 1_000_000:]
    got = np.empty(11)
    stream = _Stream(seed, k)
    stream.uniforms(got)
    assert np.array_equal(got, expected[:11])
    # later seeks, within a Philox block of four and across blocks, land on the same draws
    at = k + 11
    for gap in (0, 1, 2, 5, 990):
        at += gap
        stream.seek(at)
        stream.uniforms(got)
        assert np.array_equal(got, expected[at - k:at - k + 11])
        at += 11


@pytest.fixture
def slice_counts(monkeypatch):
    """Run a callable at 1, 2 and 3 path slices; return its three results."""

    def run(fn):
        results = []
        for count in (1, 2, 3):
            monkeypatch.setattr(svsir.mc, "_slice_count", lambda n_paths, count=count: count)
            results.append(fn())
        return results

    return run


SLICED_MATURITIES = (0.0, 0.02, 0.3, 0.3, 1.0)


@pytest.mark.parametrize("params", [SIR, FELLER_CORNER], ids=["sir", "feller_corner"])
@pytest.mark.parametrize("n_paths", [1001, 5003])
def test_qe_is_bit_identical_at_any_slice_count(monkeypatch, slice_counts, params, n_paths):
    # SLICED_MATURITIES makes segments of 0, 5, 70, 0 and 175 steps
    cfg = McConfig(n_paths=n_paths, seed=24)
    one, *others = slice_counts(lambda: _qe_segments(params, 0.04, SLICED_MATURITIES, cfg))
    for other in others:
        for got, expected in zip(other, one, strict=True):
            assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
    # the grid in one block, and in four that 1, 2 or 3 slices share
    for block_paths in (BLOCK_PATHS, -(-n_paths // 4)):
        monkeypatch.setattr(svsir.mc, "BLOCK_PATHS", block_paths)
        one, *others = slice_counts(lambda: simulate_grid(params, 100.0, 0.04, EXAMPLE_STRIKES,
                                                          SLICED_MATURITIES, cfg))
        assert all(other == one for other in others)


def test_blocks_handed_out_under_thread_switching_give_the_one_slice_estimates(monkeypatch):
    # eight slices take sixteen blocks from one queue while the interpreter
    # switches threads every microsecond; a block left out, or moments kept in
    # the order the slices finished and not in block order, would change the estimates
    monkeypatch.setattr(svsir.mc, "BLOCK_PATHS", 250)
    cfg = McConfig(n_paths=4_000, seed=26)

    def grid():
        return simulate_grid(SIR, 100.0, 0.04, EXAMPLE_STRIKES, (0.02, 0.1), cfg)

    monkeypatch.setattr(svsir.mc, "_slice_count", lambda n_paths: 1)
    expected = grid()
    monkeypatch.setattr(svsir.mc, "_slice_count", lambda n_paths: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert grid() == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("params", [SIR, FELLER_CORNER], ids=["sir", "feller_corner"])
@pytest.mark.parametrize("n_paths", [1001, 5003])
@pytest.mark.parametrize("tau", [0.0, 0.02, 0.3])
def test_euler_is_bit_identical_at_any_slice_count(slice_counts, params, n_paths, tau):
    from svsir.mc import _terminal

    cfg = McConfig(n_paths=n_paths, seed=25)
    for with_stock in (True, False):
        one, *others = slice_counts(
            lambda: _terminal(params, 0.04, math.log(100.0), tau, cfg, with_stock))
        for other in others:
            for got, expected in zip(other, one, strict=True):
                assert np.array_equal(got, expected)
    state = MarketState(spot=100.0, variance=0.04, tau=tau)
    one, *others = slice_counts(lambda: (simulate_price(params, state, OptionSpec(strike=95.0), cfg),
                                         simulate_bond(params, 0.04, tau, cfg)))
    assert all(other == one for other in others)
