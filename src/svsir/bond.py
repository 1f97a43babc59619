"""Closed-form riskless discount bond under the affine short rate r = mu + beta*v.

The bond is exponential-affine in variance,

    B(tau, v) = F(tau) * exp(G(tau) * v),

where (F, G) is the unique solution of the affine ODE system

    G' = sigma^2/2 * G^2 - alpha*G - beta,   G(0) = 0,
    F' = (eta*G - mu) * F,                   F(0) = 1,

with eta = kappa*theta and alpha = kappa + lam, which :func:`ode_residual`
re-checks numerically at runtime.  The paper writes the solution in
d = -s, s = sqrt(alpha^2 + 2*beta*sigma^2), b = (alpha + s)/(2*beta) and
c = (s - alpha)/(2*beta).  b and c scale like 1/beta, so here it is written
in 1/b = 2*beta/(alpha + s), r = c/b = 2*beta*sigma^2/(alpha + s)^2 and
em1 = exp(-s*tau) - 1:

    G(tau)    = (1/b) * em1 / (1 + r*(1 + em1)),
    ln F(tau) = -(mu + eta/b)*tau - eta*(1/b + (alpha + s)/sigma^2)/s * ln(1 + r*em1/(1 + r)).

No 1/beta appears, so this one expression holds for every beta >= 0: at
beta = 0 it is the constant-rate discount exp(-mu*tau), with G = +0, exactly.
It lives in one place, the private ``_log_f_and_g``, which :func:`g_of_tau`,
:func:`bond_values`, :func:`bond_price`, :func:`ode_residual` and the pricer read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InvalidParameter, ModelParams, NumericalError, check_nonnegative


@dataclass(frozen=True)
class BondValue:
    """Bond price together with its affine factors: price = f_factor*exp(g_factor*v)."""

    price: float
    f_factor: float
    g_factor: float


def _log_f_and_g(params: ModelParams, tau):
    """(ln F(tau), G(tau)) for scalar or array tau, by the closed form of the module docstring.

    At beta = 0 it is exp(-mu*tau) exactly, with G = +0, for every
    kappa + lam; where beta > 0 it requires kappa + lam > 0, and a sigma^2
    so small that ln F would come out NaN or +inf raises :class:`NumericalError`
    naming sigma and the maturity.
    """
    tau = np.asarray(tau, dtype=float)
    mu, beta, alpha = params.mu, params.beta, params.alpha
    if beta == 0.0:  # the constant-rate discount, for every kappa + lam
        log_f, g = -mu * tau, np.zeros_like(tau)
    elif alpha <= 0:
        raise InvalidParameter(f"kappa+lam: must be > 0, got {alpha}")
    else:
        sigma2, eta = params.sigma**2, params.kappa * params.theta
        s = math.sqrt(alpha * alpha + 2.0 * beta * sigma2)
        inv_b = 2.0 * beta / (alpha + s)
        r = inv_b * sigma2 / (alpha + s)
        weight = eta * (inv_b + (alpha + s) / sigma2) / s
        # (alpha + s)/sigma2 overflowed: ln F would be NaN at tau = 0 and +inf after
        if tau.size and not weight < math.inf:
            raise NumericalError(f"bond: ln F is not finite at tau={tau.flat[0]}: (kappa+lam + s)/sigma^2 overflows "
                                 f"at sigma={params.sigma} (sigma^2 = {sigma2})")
        em1 = np.expm1(-s * tau)
        g = inv_b * em1 / (1.0 + r * (1.0 + em1)) + 0.0  # +0.0: G = 0, not -0, at tau = 0
        log_f = -(mu + eta * inv_b) * tau - weight * np.log1p(r * em1 / (1.0 + r))
    return (float(log_f), float(g)) if tau.ndim == 0 else (log_f, g)


def g_of_tau(params: ModelParams, tau):
    """Variance loading G(tau) of the bond, for scalar or array tau.

    G(0) = 0, G < 0 for tau > 0 and beta > 0, and G -> -1/b as tau -> infinity.
    """
    return _log_f_and_g(params, tau)[1]


def bond_values(params: ModelParams, v: float, tau) -> tuple[BondValue, ...]:
    """The bonds B(tau, v) = F(tau)*exp(G(tau)*v) at a scalar or 1-D array tau, one per entry, from one call of
    ``_log_f_and_g``.  Arguments are not range-checked (see :func:`bond_price`)."""
    return _assemble(*_log_f_and_g(params, tau), v)


def _assemble(log_f, g, v: float) -> tuple[BondValue, ...]:
    """The bonds with factors ``log_f`` = ln F and ``g`` = G (scalars or 1-D arrays) at variance v, on floats."""
    log_f, g = (np.atleast_1d(values).tolist() for values in (log_f, g))
    return tuple(BondValue(price=math.exp(lf + gv * v), f_factor=math.exp(lf), g_factor=gv)
                 for lf, gv in zip(log_f, g))


def bond_price(params: ModelParams, v: float, tau: float) -> BondValue:
    """Discount bond B(tau, v) = F(tau)*exp(G(tau)*v); exp(-mu*tau) exactly at beta = 0 (G = 0)."""
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
    check_nonnegative("tau_grid", grid)
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
