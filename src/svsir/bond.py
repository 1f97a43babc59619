"""Closed-form riskless discount bond under the affine short rate r = mu + beta*v.

The bond is exponential-affine in variance,

    B(tau, v) = F(tau) * exp(G(tau) * v),

with

    G(tau) = (exp(d*tau) - 1) / (b + c*exp(d*tau)),
    F(tau) = exp(-(mu + eta/b)*tau
                 + (eta*(b+c)/(b*c*d)) * [ln(b + c*exp(d*tau)) - ln(b + c)]),

where eta = kappa*theta, alpha = kappa + lam and

    d = -sqrt(alpha^2 + 2*beta*sigma^2),
    b = (alpha - d) / (2*beta),
    c = (-alpha - d) / (2*beta).

(F, G) is the unique solution of the affine ODE system

    G' = sigma^2/2 * G^2 - alpha*G - beta,   G(0) = 0,
    F' = (eta*G - mu) * F,                   F(0) = 1,

which :func:`ode_residual` re-checks numerically at runtime.  As
beta -> 0+ the bond converges to the constant-rate discount exp(-mu*tau);
below ``BETA_SWITCH`` b and c, which both scale like 1/beta, would lose all
precision, so the code switches to the bond's first order in beta there,
which is exact at beta = 0 and continuous with the closed form across the
switch.  That branch lives in one place, the private ``_log_f_and_g``,
which :func:`bond_price`, :func:`ode_residual` and the pricer read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InvalidParameter, ModelParams, check_nonnegative, check_nonnegative_array

# Below this, b and c (~ alpha/beta) are dominated by cancellation; the
# bond's first order in beta is exact to O(beta^2) there.
BETA_SWITCH = 1e-10


class DegenerateBeta(InvalidParameter):
    """beta is at or below BETA_SWITCH: use the first-order branch."""


@dataclass(frozen=True)
class BondCoefficients:
    """Constants (b, c, d) of the affine bond; b > 0, c > 0, d < 0."""

    b: float
    c: float
    d: float


@dataclass(frozen=True)
class BondValue:
    """Bond price together with its affine factors: price = f_factor*exp(g_factor*v)."""

    price: float
    f_factor: float
    g_factor: float


def coefficients(params: ModelParams) -> BondCoefficients:
    """Solve the quadratic system for (b, c, d).

    Requires ``beta > BETA_SWITCH`` and ``kappa + lam > 0``; raises
    :class:`DegenerateBeta` otherwise (callers must then use the
    first-order branch of ``_log_f_and_g``).  The returned constants satisfy

        sigma^2 - 2*alpha*c - 2*beta*c^2 = 0,
        sigma^2 + 2*alpha*b - 2*beta*b^2 = 0,
        b*c = sigma^2 / (2*beta).
    """
    if params.beta <= BETA_SWITCH:
        raise DegenerateBeta(
            f"beta: {params.beta} <= {BETA_SWITCH}; use the bond's first order in beta"
        )
    if params.alpha <= 0:
        raise InvalidParameter(f"kappa+lam: must be > 0, got {params.alpha}")
    alpha = params.alpha
    d = -math.sqrt(alpha * alpha + 2.0 * params.beta * params.sigma**2)
    b = (alpha - d) / (2.0 * params.beta)
    c = (-alpha - d) / (2.0 * params.beta)
    return BondCoefficients(b=b, c=c, d=d)


def g_of_tau(coeffs: BondCoefficients, tau):
    """Variance loading G(tau) = expm1(d*tau) / (b + c*exp(d*tau)).

    G(0) = 0, G < 0 for tau > 0 and G -> -1/b as tau -> infinity.
    Accepts scalar or array tau.
    """
    tau = np.asarray(tau, dtype=float)
    e = np.exp(coeffs.d * tau)
    out = np.expm1(coeffs.d * tau) / (coeffs.b + coeffs.c * e) + 0.0  # +0.0 kills -0.0 at tau=0
    return float(out) if out.ndim == 0 else out


def log_f_of_tau(params: ModelParams, coeffs: BondCoefficients, tau):
    """ln F(tau), kept in log space for stability.

    The bracketed log difference is computed as
    ``log1p((c/b)*exp(d*tau)) - log1p(c/b)`` so the large b, c that appear for
    small beta never meet in a catastrophic subtraction.  Accepts scalar or
    array tau.
    """
    tau = np.asarray(tau, dtype=float)
    b, c, d = coeffs.b, coeffs.c, coeffs.d
    eta = params.kappa * params.theta
    ratio = c / b
    log_term = np.log1p(ratio * np.exp(d * tau)) - math.log1p(ratio)
    out = -(params.mu + eta / b) * tau + eta * (1.0 / b + 1.0 / c) / d * log_term
    return float(out) if out.ndim == 0 else out


def _log_f_and_g(params: ModelParams, tau):
    """(ln F(tau), G(tau)) for scalar or array tau.

    For ``beta <= BETA_SWITCH`` this is the bond to first order in beta,
    ln B = -mu*tau - beta*Integral_0^tau E[v_t] dt with the risk-neutral
    E[v_t]: ln F = -mu*tau - beta*kappa*theta/alpha*(tau - (1 - exp(-alpha*tau))/alpha)
    and G = -beta*(1 - exp(-alpha*tau))/alpha.  The terms it drops are
    O(beta^2), so the bond is continuous across the switch.  At beta = 0 it
    is exp(-mu*tau) exactly, with G = +0, for every kappa + lam; for
    0 < beta <= BETA_SWITCH it requires kappa + lam > 0, as the closed form
    does.
    """
    if params.beta <= BETA_SWITCH:
        tau = np.asarray(tau, dtype=float)
        if params.beta == 0.0:  # the constant-rate discount, for every kappa + lam
            log_f, g = -params.mu * tau, np.zeros_like(tau)
        elif params.alpha <= 0:
            raise InvalidParameter(f"kappa+lam: must be > 0, got {params.alpha}")
        else:
            alpha, decay = params.alpha, -np.expm1(-params.alpha * tau)
            log_f = -params.mu * tau - params.beta * params.kappa * params.theta / alpha * (tau - decay / alpha)
            g = -params.beta * decay / alpha + 0.0  # +0.0: G = 0, not -0, at tau = 0
        return (float(log_f), float(g)) if tau.ndim == 0 else (log_f, g)
    co = coefficients(params)
    return log_f_of_tau(params, co, tau), g_of_tau(co, tau)


def bond_values(params: ModelParams, v: float, tau) -> tuple[BondValue, ...]:
    """The bonds B(tau, v) = F(tau)*exp(G(tau)*v) at a scalar or 1-D array tau, one per entry, from one call of
    ``_log_f_and_g``; each is assembled on floats.  Arguments are not range-checked (see :func:`bond_price`)."""
    log_f, g = (np.atleast_1d(values).tolist() for values in _log_f_and_g(params, tau))
    return tuple(BondValue(price=math.exp(lf + gv * v), f_factor=math.exp(lf), g_factor=gv)
                 for lf, gv in zip(log_f, g))


def bond_price(params: ModelParams, v: float, tau: float) -> BondValue:
    """Discount bond B(tau, v) = F(tau)*exp(G(tau)*v).

    For ``beta <= BETA_SWITCH`` it is the first order in beta (see
    ``_log_f_and_g``), exp(-mu*tau) exactly at beta = 0 (G = 0).
    """
    check_nonnegative("variance", v)
    check_nonnegative("tau", tau)
    return bond_values(params, v, tau)[0]


def ode_residual(params: ModelParams, tau_grid) -> float:
    """Self-check of the closed form against its defining ODE system.

    Evaluates, over the supplied grid, the maximum of

        | sigma^2/2 * G^2 - (kappa+lam)*G - beta - G' |   and
        | kappa*theta*G - mu - F'/F |

    with G' and F' from centered finite differences (second-order one-sided
    stencils at the endpoints).  The grid must be finite, strictly
    increasing and start at 0.  A healthy implementation returns a value at
    the truncation level of the difference scheme (~h^2).
    """
    grid = np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise InvalidParameter("tau_grid: need at least 3 points")
    check_nonnegative_array("tau_grid", grid)
    if grid[0] != 0.0:
        raise InvalidParameter(f"tau_grid: must start at 0, got {grid[0]}")
    if np.any(np.diff(grid) <= 0):
        raise InvalidParameter("tau_grid: must be strictly increasing")

    log_f, g = _log_f_and_g(params, grid)
    f = np.exp(log_f)
    g_prime = np.gradient(g, grid, edge_order=2)
    f_prime = np.gradient(f, grid, edge_order=2)
    alpha = params.alpha
    eta = params.kappa * params.theta
    res_g = np.abs(0.5 * params.sigma**2 * g * g - alpha * g - params.beta - g_prime)
    res_f = np.abs(eta * g - params.mu - f_prime / f)
    return float(max(res_g.max(), res_f.max()))
