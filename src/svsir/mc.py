"""Monte Carlo oracle under the risk-neutral dynamics.

Simulates the joint system

    d ln S = (r - v+/2) dt + sqrt(v+) dz1,
    dv     = (kappa*theta - (kappa+lam)*v+) dt + sigma*sqrt(v+) dz2,
    r      = mu + beta*v+,        corr(dz1, dz2) = rho_sv,

with the full-truncation Euler scheme: v+ = max(v, 0) wherever the variance
enters a coefficient, while the carried state v itself is left uncapped.
The stochastic discount exp(-Integral r dt) is accumulated by the trapezoid
rule on the short-rate path.  The bond never needs its own driver: with
rho_bv = 1 it is a deterministic function of (tau, v) along each path.

One path set prices a whole grid: :func:`simulate_grid` runs the paths once
to the last maturity, stops at a checkpoint at each sorted maturity, and reads
the discounted payoff of every strike off the same paths there.  The segment
between two checkpoints takes ``max(1, ceil(length * n_steps_per_year))``
equal steps, so no step is longer than a one-maturity run's; a segment of
zero length (a repeated maturity) takes none.  A one-maturity run
(``simulate_price``, ``simulate_bond``) is the one-checkpoint case of the
same loop.  Estimates on one path set share their noise, so the errors of a
grid's points are correlated.

Determinism contract: a counter-based Philox stream keyed by the seed, with
normal variates by inverse CDF, so identical (seed, inputs) give bit-identical
estimates on a platform; summation is numpy's pairwise reduction.  For
maturities on the step lattice, such as 0.5 and 1 year at 250 steps a year,
each grid estimate equals the one-maturity estimate at the same seed bit for
bit.  The loop reuses preallocated buffers in place but keeps the operand
order of the plain expressions, so that reuse does not change a path.

scipy is imported only here, inside :func:`_normals`, for ``ndtri``: loading
``scipy.special`` costs about 0.3 s, and ``import svsir`` and the CLI's
``price``, ``sweep`` and ``bond`` never simulate a path, so they never pay it.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (InvalidParameter, MarketState, ModelParams, OptionKind, OptionSpec,
                    check_nonnegative, validate)


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps_per_year: int = 250
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 1000:
            raise InvalidParameter(f"n_paths: must be >= 1000, got {self.n_paths}")
        if self.n_steps_per_year < 50:
            raise InvalidParameter(
                f"n_steps_per_year: must be >= 50, got {self.n_steps_per_year}"
            )
        if self.seed < 0:
            raise InvalidParameter(f"seed: must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int


def _estimate(samples: np.ndarray) -> McEstimate:
    """Mean and standard error of ``samples``, which are shifted in place."""
    n = samples.size
    # shift by the first sample before the moments: identical to the plain
    # two-pass formulas, but degenerate (constant) samples come out with a
    # standard error of exactly zero
    first = samples[0]
    samples -= first
    return McEstimate(
        mean=float(first + samples.mean()),
        std_error=float(samples.std(ddof=1) / math.sqrt(n)),
        n_paths=n,
    )


def _normals(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with standard normals by inverse CDF."""
    from scipy.special import ndtri

    rng.random(out=out)
    # rng.random() can emit exactly 0.0; keep ndtri finite
    np.maximum(out, 2.0**-53, out=out)
    ndtri(out, out=out)


def _euler(params: ModelParams, v0: float, ln_spot: float, maturities: Sequence[float],
           cfg: McConfig, with_stock: bool) -> Iterator[tuple[np.ndarray, ...]]:
    """Full-truncation Euler on one Philox path set, stopping at each maturity.

    ``maturities`` must be sorted.  Yields ``(ln S, v, Integral r dt, scratch)``
    at each of them, where ``scratch`` holds three free buffers of the path
    count.  All of them are the loop's own buffers: read them before resuming.
    The segment since the previous checkpoint takes
    ``max(1, ceil(length * n_steps_per_year))`` equal steps, or none if its
    length is zero.
    """
    n = cfg.n_paths
    rho = params.rho_sv
    rho_perp = math.sqrt(max(0.0, 1.0 - rho * rho))
    drift_level = params.kappa * params.theta
    alpha = params.alpha

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    v = np.full(n, float(v0))
    ln_s = np.full(n, float(ln_spot))
    rate_integral = np.zeros(n)
    v_pos = np.maximum(v, 0.0)
    r_now = params.beta * v_pos + params.mu  # r at the start of each step
    vol, z1, z2, tmp = (np.empty(n) for _ in range(4))

    # each line keeps the operand order of the plain expressions
    #   ln_s += (r_now - 0.5*v_pos)*dt + vol*sqrt_dt*(rho*z2 + rho_perp*z1)
    #   v = v + (drift_level - alpha*v_pos)*dt + sigma*vol*sqrt_dt*z2
    #   rate_integral += 0.5*(r_now + r_next)*dt
    # so the paths do not depend on how the buffers are reused
    done = 0.0
    for tau in maturities:
        length = tau - done
        n_steps = max(1, math.ceil(length * cfg.n_steps_per_year)) if length > 0 else 0
        dt = length / max(n_steps, 1)
        sqrt_dt = math.sqrt(dt)
        for _ in range(n_steps):
            np.sqrt(v_pos, out=vol)
            _normals(rng, z2)
            if with_stock:
                _normals(rng, z1)
                z1 *= rho_perp
                np.multiply(z2, rho, out=tmp)
                z1 += tmp
                np.multiply(vol, sqrt_dt, out=tmp)
                z1 *= tmp
                np.multiply(v_pos, 0.5, out=tmp)
                np.subtract(r_now, tmp, out=tmp)
                tmp *= dt
                tmp += z1
                ln_s += tmp
            np.multiply(v_pos, alpha, out=tmp)
            np.subtract(drift_level, tmp, out=tmp)
            tmp *= dt
            v += tmp
            vol *= params.sigma
            vol *= sqrt_dt
            vol *= z2
            v += vol
            np.maximum(v, 0.0, out=v_pos)
            r_next = z1  # z1 is free again: it takes r at the end of the step
            np.multiply(v_pos, params.beta, out=r_next)
            r_next += params.mu
            np.add(r_now, r_next, out=tmp)
            tmp *= 0.5
            tmp *= dt
            rate_integral += tmp
            r_now, z1 = r_next, r_now
        done = tau
        yield ln_s, v, rate_integral, (vol, z2, tmp)


def _terminal(params: ModelParams, v0: float, ln_spot: float, tau: float, cfg: McConfig,
              with_stock: bool):
    """Terminal (ln S, v, Integral r dt) arrays after full-truncation Euler."""
    ((ln_s, v, rate_integral, _),) = _euler(params, v0, ln_spot, (tau,), cfg, with_stock)
    return ln_s, v, rate_integral


def simulate_grid(
    params: ModelParams,
    spot: float,
    v0: float,
    strikes: Sequence[float],
    maturities: Sequence[float],
    cfg: McConfig,
) -> list[McEstimate]:
    """Discounted call-payoff estimates over a (maturity x strike) grid.

    One path set runs to the last maturity; every strike is read off the
    same paths at each maturity's checkpoint.  Returns maturities outer,
    strikes inner, in the order given.  At ``tau = 0`` the estimate is the
    intrinsic value with standard error 0.
    """
    validate(params)
    for tau in maturities:
        MarketState(spot=spot, variance=v0, tau=tau)
    for strike in strikes:
        OptionSpec(strike=strike)
    order = sorted(range(len(maturities)), key=lambda m: maturities[m])
    checkpoints = _euler(
        params, v0, math.log(spot), [maturities[m] for m in order], cfg, with_stock=True
    )
    rows: list[list[McEstimate]] = [[] for _ in maturities]
    for m, (ln_s, _, rate_integral, (discount, s_t, payoff)) in zip(order, checkpoints):
        if maturities[m] == 0.0:
            rows[m] = [
                McEstimate(mean=max(spot - strike, 0.0), std_error=0.0, n_paths=cfg.n_paths)
                for strike in strikes
            ]
            continue
        np.negative(rate_integral, out=discount)
        np.exp(discount, out=discount)
        np.exp(ln_s, out=s_t)
        for strike in strikes:
            np.subtract(s_t, strike, out=payoff)
            np.maximum(payoff, 0.0, out=payoff)
            payoff *= discount
            rows[m].append(_estimate(payoff))
    return [est for row in rows for est in row]


def simulate_price(
    params: ModelParams, state: MarketState, opt: OptionSpec, cfg: McConfig
) -> McEstimate:
    """Discounted-payoff estimate of the European option price."""
    validate(params)
    if state.tau == 0.0:
        intrinsic = (
            max(state.spot - opt.strike, 0.0)
            if opt.kind is OptionKind.CALL
            else max(opt.strike - state.spot, 0.0)
        )
        return McEstimate(mean=intrinsic, std_error=0.0, n_paths=cfg.n_paths)
    ln_s, _, rate_integral = _terminal(
        params, state.variance, math.log(state.spot), state.tau, cfg, with_stock=True
    )
    s_t = np.exp(ln_s)
    if opt.kind is OptionKind.CALL:
        payoff = np.maximum(s_t - opt.strike, 0.0)
    else:
        payoff = np.maximum(opt.strike - s_t, 0.0)
    return _estimate(np.exp(-rate_integral) * payoff)


def simulate_bond(params: ModelParams, v0: float, tau: float, cfg: McConfig) -> McEstimate:
    """Estimate of E[exp(-Integral_0^tau (mu + beta*v_s) ds)]; the closed-form
    bond's Monte Carlo counterpart."""
    validate(params)
    check_nonnegative("variance", v0)
    check_nonnegative("tau", tau)
    _, _, rate_integral = _terminal(params, v0, 0.0, tau, cfg, with_stock=False)
    return _estimate(np.exp(-rate_integral))
