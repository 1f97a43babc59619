"""European option prices for the constant-rate and stochastic-rate models.

Every beta >= 0 prices through one decomposition

    call = S * R_1 - K * B * R_2,

with B the discount bond of :mod:`svsir.bond` and R_j the exercise
probabilities from :mod:`svsir.inversion`.  The probabilities invert the
closed-form characteristic functions f_1 = Psi(phi - i)/S and
f_2 = Psi(phi)/B of :mod:`svsir.heston_cf` against a Black-Scholes control
with the risk-neutral expected integrated variance w of each maturity, at
the log forward ln(S / B(tau, v)), so that the discounting lives entirely in
the bond leg.  Log prices are measured from ln S: the forward sits at
x = -ln B and a strike at ln(K/S), so that the forward log-moneyness
ln(S/K) - ln B carries the rounding of one log of K/S, not that of ln S and
ln K (each ~4.6 at S = 100), which the control's density at a small w
magnifies.  ln B is ln F + G*v from the bond's factors, finite where B
underflows to 0; the call there is S.  At beta = 0 the bond is
exp(-mu*tau) and the route reduces to the constant-rate model.  The bond and
the characteristic function share one parameter set: the lam entering the
bond is the same risk-premium constant entering b.  Neither B nor f_j
depends on the strike, so :func:`price_grid` prices a whole maturity x
strike grid with every maturity's bond from one array call and one inversion
for the surface, which evaluates f_1 and f_2 at (maturity, frequency) node
pairs; it returns maturity x strike arrays.
:func:`price_sir` is its one-point case.

Puts come from parity, put = call - S + K*B, which is exact by construction.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

# gil_pelaez is looked up on its module, so that a patch of svsir.inversion.gil_pelaez sees every call
from . import bond, heston_cf, inversion
from .inversion import InversionError, QuadratureSpec
from .model import InvalidParameter, MarketState, ModelParams, OptionKind, OptionSpec, check_nonnegative, validate

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


@dataclass(frozen=True)
class PriceGrid:
    """Call prices over a maturity x strike grid plus the decomposition they were assembled from.

    ``price``, ``r1``, ``r2`` and ``err_estimate`` are (maturity, strike)
    arrays in the order the grid was given; ``bond`` holds one bond per maturity.
    """

    price: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    bond: tuple[bond.BondValue, ...]
    model_tag: str
    err_estimate: np.ndarray


def _provider(params: ModelParams, variance: float, taus: np.ndarray, log_bonds: np.ndarray):
    """f_1 and f_2 of ln S_T - ln S times exp(-i*phi*x), x = -ln B, at (maturity, frequency) nodes of ``taus`` (log
    bond prices ``log_bonds``).

    The spot drops out: S^{i*phi} * exp(-i*phi*(ln S - ln B)) = B^{i*phi}.
    """
    table = np.array([taus, log_bonds])

    def eval_fn(m: np.ndarray, phi: np.ndarray) -> np.ndarray:
        # f_1 = Psi(phi - i)/S and f_2 = Psi(phi)/B, formed in log space, both contours in one call, with each
        # node's maturity constants gathered in one take
        tau, log_bond = table.take(m, axis=1)
        a_val, d_val = heston_cf.affine_cd(params, tau, np.array([phi - 1j, phi]))
        log_f = a_val + d_val * variance + 1j * phi * log_bond
        log_f[1] -= log_bond
        return np.exp(log_f)

    return eval_fn


def _strip(params: ModelParams, taus: np.ndarray):
    """Whether phi = -i*p lies in the strip of f_1 and f_2 at maturity index m: moments of orders 1 + p and p finite."""
    def in_strip(m: np.ndarray, p: np.ndarray) -> np.ndarray:
        # the orders with finite moments form an interval holding [0, 1]: 1 + p binds above, p below
        return heston_cf.explosion_time(params, p + (p > 0.0)) > taus[m]

    return in_strip


def _expected_variance(params: ModelParams, variance: float, taus: np.ndarray) -> np.ndarray:
    """Risk-neutral Integral_0^tau E[v_t] dt = tb*tau + (v - tb)*(1 - exp(-alpha*tau))/alpha, tb = kappa*theta/alpha."""
    # as two terms that are >= 0 in floating point too
    alpha, decay = params.alpha, -np.expm1(-params.alpha * taus)
    return (variance * decay + params.kappa * params.theta / alpha * (alpha * taus - decay)) / alpha


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
) -> PriceGrid:
    """Call prices over a (maturity x strike) grid, maturities down the rows, strikes across, in the order given.

    Every maturity's bond from one array call and one inversion for the whole
    surface; the same variance v drives both.  A numerical failure is re-raised naming the
    failing maturity and its strikes.
    """
    validate(params)
    for strike in strikes:
        OptionSpec(strike=strike)
    MarketState(spot=spot, variance=variance, tau=0.0)  # range-checks spot and v
    check_nonnegative("tau", maturities)
    taus = np.array(maturities, dtype=float)
    # ln B from the bond's factors, finite where B itself underflows to 0
    log_f, g = bond._log_f_and_g(params, taus)
    bonds, log_bonds = bond._assemble(log_f, g, variance), log_f + g * variance
    log_strikes = np.array([math.log(strike / spot) for strike in strikes])
    w = _expected_variance(params, variance, taus)
    x = -log_bonds  # the log forward, measured from ln S as the strikes are
    try:
        pair = inversion.gil_pelaez(_provider(params, variance, taus, log_bonds), _strip(params, taus), x, w,
                                    log_strikes, quad)
    except InversionError as exc:
        raise type(exc)(f"at K={','.join(f'{k:.12g}' for k in strikes)}, tau={maturities[exc.maturity]}: {exc}",
                        exc.maturity) from exc
    bond_prices = np.array([b.price for b in bonds])
    price = spot * pair.r1 - np.array(strikes, dtype=float) * bond_prices[:, None] * pair.r2
    return PriceGrid(price=price, r1=pair.r1, r2=pair.r2, bond=bonds,
                     model_tag=MODEL_SIR if params.beta != 0.0 else MODEL_HESTON,
                     err_estimate=pair.achieved_error_estimate)


def price_sir(
    params: ModelParams,
    state: MarketState,
    opt: OptionSpec,
    quad: QuadratureSpec = QuadratureSpec(),
) -> PriceResult:
    """Semi-analytic price for every beta >= 0: the one-point :func:`price_grid`, puts by parity."""
    grid = price_grid(params, state.spot, state.variance, [opt.strike], [state.tau], quad)
    result = PriceResult(price=float(grid.price[0, 0]), r1=float(grid.r1[0, 0]), r2=float(grid.r2[0, 0]),
                         bond=grid.bond[0], model_tag=grid.model_tag, err_estimate=float(grid.err_estimate[0, 0]))
    if opt.kind is OptionKind.PUT:
        result = put_from_parity(result, state, opt)
    return result


def put_from_parity(call: PriceResult, state: MarketState, opt: OptionSpec) -> PriceResult:
    """put = call - S + K*B, exact for European payoffs without dividends."""
    put_price = call.price - state.spot + opt.strike * call.bond.price
    return replace(call, price=put_price)
