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
below ``BETA_SWITCH`` the code switches to that branch exactly, since b and c
both scale like 1/beta and would lose all precision.  That branch lives in
one place, the private ``_log_f_and_g``, which :func:`bond_price` and
:func:`ode_residual` both read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InvalidParameter, ModelParams, check_nonnegative, check_nonnegative_array

# Below this, b and c (~ alpha/beta) are dominated by cancellation; the
# constant-rate limit is exact to far better than any tolerance used here.
BETA_SWITCH = 1e-10


class DegenerateBeta(InvalidParameter):
    """beta is at or below BETA_SWITCH: use the constant-rate branch."""


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
    constant-rate branch).  The returned constants satisfy

        sigma^2 - 2*alpha*c - 2*beta*c^2 = 0,
        sigma^2 + 2*alpha*b - 2*beta*b^2 = 0,
        b*c = sigma^2 / (2*beta).
    """
    if params.beta <= BETA_SWITCH:
        raise DegenerateBeta(
            f"beta: {params.beta} <= {BETA_SWITCH}; use the constant-rate bond exp(-mu*tau)"
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

    For ``beta <= BETA_SWITCH`` this is the constant-rate branch
    ln F = -mu*tau, G = 0 exactly.
    """
    if params.beta <= BETA_SWITCH:
        tau = np.asarray(tau, dtype=float)
        log_f = -params.mu * tau
        return (float(log_f), 0.0) if tau.ndim == 0 else (log_f, np.zeros_like(tau))
    co = coefficients(params)
    return log_f_of_tau(params, co, tau), g_of_tau(co, tau)


def bond_price(params: ModelParams, v: float, tau: float) -> BondValue:
    """Discount bond B(tau, v) = F(tau)*exp(G(tau)*v).

    For ``beta <= BETA_SWITCH`` the constant-rate branch returns
    exp(-mu*tau) exactly (F = exp(-mu*tau), G = 0).
    """
    check_nonnegative("variance", v)
    check_nonnegative("tau", tau)
    log_f, g = _log_f_and_g(params, tau)
    return BondValue(price=math.exp(log_f + g * v), f_factor=math.exp(log_f), g_factor=g)


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
