"""European option prices for the constant-rate and stochastic-rate models.

Every beta >= 0 prices through one decomposition

    call = S * R_1 - K * B * R_2,

with B the discount bond of :mod:`svsir.bond` and R_j the exercise
probabilities from :mod:`svsir.inversion`.  The probabilities invert the
closed-form characteristic functions f_1 = Psi(phi - i)/S and
f_2 = Psi(phi)/B of :mod:`svsir.heston_cf`, anchored at forward log-moneyness
x = ln(S / B(tau, v)), so that exp(x)*B = S and the discounting lives
entirely in the bond leg.  At beta = 0 the bond is exp(-mu*tau) and the
route reduces to the constant-rate model.  The bond and the characteristic
function share one parameter set: the lam entering the bond is the same
risk-premium constant entering b.  Neither B nor f_j depends on the strike,
so :func:`price_grid` makes one pass per maturity, inverting its whole strike
row at once; :func:`price_sir` is its one-point case.

Puts come from parity, put = call - S + K*B, which is exact by construction.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import bond, heston_cf
from .inversion import CfProvider, QuadratureSpec, gil_pelaez
from .model import InvalidParameter, MarketState, ModelParams, NumericalError, OptionKind, OptionSpec, validate

MODEL_HESTON = "heston"
MODEL_SIR = "sir_heston"


@dataclass(frozen=True)
class PriceResult:
    """Price plus the decomposition it was assembled from."""

    price: float
    r1: float
    r2: float
    bond: bond.BondValue
    model_tag: str
    err_estimate: float


def _provider(params: ModelParams, state: MarketState, log_bond: float) -> CfProvider:
    log_spot = math.log(state.spot)
    v = state.variance
    tau = state.tau

    def eval_fn(j: int, phi: np.ndarray) -> np.ndarray:
        # f_1 = Psi(phi - i)/S and f_2 = Psi(phi)/B, formed in log space
        phi = np.asarray(phi, dtype=float)
        a_val, d_val = heston_cf.affine_cd(params, tau, phi - 1j if j == 1 else phi)
        log_norm = 0.0 if j == 1 else log_bond
        return np.exp(a_val + d_val * v + 1j * phi * log_spot - log_norm)

    # leading-order accumulated variance; ~0 means a pure-phase CF
    return CfProvider(eval=eval_fn, decay_proxy=tau * v + 0.5 * params.kappa * params.theta * tau**2)


def price_heston(
    params: ModelParams,
    state: MarketState,
    opt: OptionSpec,
    quad: QuadratureSpec = QuadratureSpec(),
) -> PriceResult:
    """Semi-analytic price in the constant-rate model (requires beta = 0)."""
    if params.beta != 0.0:
        raise InvalidParameter(
            f"beta: price_heston requires beta = 0, got {params.beta}; use price_sir"
        )
    return price_sir(params, state, opt, quad)


def price_grid(
    params: ModelParams,
    spot: float,
    variance: float,
    strikes: Sequence[float],
    maturities: Sequence[float],
    quad: QuadratureSpec = QuadratureSpec(),
) -> list[PriceResult]:
    """Call prices over a (maturity x strike) grid, maturities outer, strikes inner, in the order given.

    One bond and one inversion per maturity; the same variance v drives both.
    A numerical failure is re-raised naming the maturity and its strikes.
    """
    validate(params)
    for strike in strikes:
        OptionSpec(strike=strike)
    log_strikes = np.array([math.log(strike) for strike in strikes])
    tag = MODEL_SIR if params.beta != 0.0 else MODEL_HESTON
    results = []
    for tau in maturities:
        state = MarketState(spot=spot, variance=variance, tau=tau)
        bond_value = bond.bond_price(params, variance, tau)
        try:
            pair = gil_pelaez(_provider(params, state, math.log(bond_value.price)),
                              math.log(spot / bond_value.price), log_strikes, quad)
        except NumericalError as exc:
            raise type(exc)(f"at K={','.join(f'{k:.12g}' for k in strikes)}, tau={tau}: {exc}") from exc
        for strike, r1, r2, err in zip(strikes, pair.r1, pair.r2, pair.achieved_error_estimate):
            call = spot * r1 - strike * bond_value.price * r2
            results.append(PriceResult(price=float(call), r1=float(r1), r2=float(r2), bond=bond_value,
                                       model_tag=tag, err_estimate=float(err)))
    return results


def price_sir(
    params: ModelParams,
    state: MarketState,
    opt: OptionSpec,
    quad: QuadratureSpec = QuadratureSpec(),
) -> PriceResult:
    """Semi-analytic price for every beta >= 0: the one-point :func:`price_grid`, puts by parity."""
    result = price_grid(params, state.spot, state.variance, [opt.strike], [state.tau], quad)[0]
    if opt.kind is OptionKind.PUT:
        result = put_from_parity(result, state, opt)
    return result


def put_from_parity(call: PriceResult, state: MarketState, opt: OptionSpec) -> PriceResult:
    """put = call - S + K*B, exact for European payoffs without dividends."""
    put_price = call.price - state.spot + opt.strike * call.bond.price
    return replace(call, price=put_price)
