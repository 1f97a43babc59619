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
risk-premium constant entering b.

Puts come from parity, put = call - S + K*B, which is exact by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bond, heston_cf
from .inversion import CfProvider, QuadratureSpec, gil_pelaez
from .model import InvalidParameter, MarketState, ModelParams, OptionKind, OptionSpec, validate

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


def _decay_proxy(params: ModelParams, state: MarketState) -> float:
    # leading-order accumulated variance; ~0 means a pure-phase CF
    return state.tau * state.variance + 0.5 * params.kappa * params.theta * state.tau**2


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

    return CfProvider(eval=eval_fn, decay_proxy=_decay_proxy(params, state))


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


def price_sir(
    params: ModelParams,
    state: MarketState,
    opt: OptionSpec,
    quad: QuadratureSpec = QuadratureSpec(),
) -> PriceResult:
    """Semi-analytic price for every beta >= 0.

    The same current variance v drives both the bond leg and the
    characteristic function; beta = 0 is tagged as the constant-rate model.
    """
    validate(params)
    bond_value = bond.bond_price(params, state.variance, state.tau)
    provider = _provider(params, state, math.log(bond_value.price))
    x = math.log(state.spot / bond_value.price)
    pair = gil_pelaez(provider, x, math.log(opt.strike), quad)
    call = state.spot * pair.r1 - opt.strike * bond_value.price * pair.r2
    result = PriceResult(
        price=call,
        r1=pair.r1,
        r2=pair.r2,
        bond=bond_value,
        model_tag=MODEL_SIR if params.beta != 0.0 else MODEL_HESTON,
        err_estimate=pair.achieved_error_estimate,
    )
    if opt.kind is OptionKind.PUT:
        result = put_from_parity(result, state, opt)
    return result


def put_from_parity(call: PriceResult, state: MarketState, opt: OptionSpec) -> PriceResult:
    """put = call - S + K*B, exact for European payoffs without dividends."""
    put_price = call.price - state.spot + opt.strike * call.bond.price
    return replace(call, price=put_price)
