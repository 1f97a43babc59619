"""Numerical integration of the complex Riccati system for the stochastic-rate model.

This module is the numerical oracle for the closed-form characteristic
function of :mod:`svsir.heston_cf`, which is what prices use.  Under the
tau-forward measure the bond volatility sigma*G(tau) makes the
characteristic-function coefficients time dependent, so this system has no
closed form of its own (the closed form lives in the time-homogeneous
variables (ln S, v, Int r)).  In forward log-moneyness x = ln(S / B(t, T))
the coefficients of f_j = exp(C + D*v + i*phi*x) solve, in time to maturity
tau' from 0 to tau,

    dD/dtau' = -1/2*sx2(tau')*phi^2 + i*phi*sigma*(rho_sv - sigma*G(tau'))*D
               + 1/2*sigma^2*D^2 + zeta_j(tau')*i*phi - b_j(tau')*D,
    dC/dtau' = kappa*theta * D,      C(0) = D(0) = 0,

where

    sx2(tau')   = 1 - 2*rho_sv*sigma*G(tau') + sigma^2*G(tau')^2,
    zeta_j      = +sx2/2 (j=1),  -sx2/2 (j=2),
    b_1         = kappa + lam - rho_sv*sigma,
    b_2(tau')   = kappa + lam - sigma^2*G(tau').

G is the bond's variance loading.  The right-hand side is one function,
``_rhs``, which forms these coefficients inline from one G per evaluation,
read from :func:`svsir.bond.g_of_tau` (the price path's closed form) for
beta > 0, at the integration variable's own time to maturity (same clock as
the bond): that is what makes the assembled f_j satisfy the pricing PDE.
For every beta the assembled f_j must equal the closed forms Psi(phi - i)/S
(j = 1) and Psi(phi)/B (j = 2) of :mod:`svsir.heston_cf`; at beta = 0
(G identically 0) the system reduces exactly to the constant-rate
coefficient table and the integrated (C, D) must match that module's.

No discount term appears in C: discounting lives in the bond factor of the
price decomposition, absorbed by the x variable.

The integrator is scipy's ``solve_ivp(method="RK45")``, the Dormand-Prince
5(4) pair, batched over many phi values at once so a whole set of
frequencies shares one solve and one step-size controller.  Its local error
is the RMS norm over the batch's 2m components (C and D per frequency),
scaled by ``abs + rel*|y|``.  scipy is imported inside the solve, so
importing :mod:`svsir` loads numpy only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bond
from .model import InvalidParameter, ModelParams, NumericalError, check_measure, check_nonnegative


class StepSizeUnderflow(NumericalError):
    """The integrator cannot meet the tolerance (near-singular inputs)."""


@dataclass(frozen=True)
class ToleranceSpec:
    """Local error control for the adaptive integrator."""

    rel: float = 1e-8
    abs: float = 1e-10

    def __post_init__(self) -> None:
        if not 1e-12 <= self.rel <= 1e-4:
            raise InvalidParameter(f"rel: relative tolerance must lie in [1e-12, 1e-4], got {self.rel}")
        if not (math.isfinite(self.abs) and self.abs > 0):
            raise InvalidParameter(f"abs: absolute tolerance must be finite and > 0, got {self.abs}")


@dataclass(frozen=True)
class SolverStats:
    """Accepted steps and right-hand-side evaluations of one batched solve."""

    steps_taken: int
    rhs_evals: int


@dataclass(frozen=True)
class OdeSolution:
    """Terminal (C, D) for one (tau, phi, j), plus solver statistics."""

    c_val: complex
    d_val: complex
    stats: SolverStats


def _rhs(params: ModelParams, phis: np.ndarray, j: int):
    """d[C, D]/dtau' of measure ``j`` as a function of (tau', y), y = [C, D] with the m values of each end to end."""
    sigma, rho, alpha, a = params.sigma, params.rho_sv, params.alpha, params.kappa * params.theta
    phi2, iphi, m = phis * phis, 1j * phis, phis.size

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        g = bond.g_of_tau(params, t) if params.beta > 0.0 else 0.0  # one bond evaluation per stage
        sg = sigma * g
        sx2 = 1.0 - 2.0 * rho * sg + sg * sg  # strictly positive for |rho_sv| < 1
        zeta = 0.5 * sx2 if j == 1 else -0.5 * sx2
        b = alpha - rho * sigma if j == 1 else alpha - sigma * sigma * g
        d = y[m:]
        # sigma*(rho_sv - sigma*G) is the cross term rho_xv*sigma_x*sigma
        d_rate = (-0.5 * sx2 * phi2 + iphi * (sigma * (rho - sigma * g) * d + zeta)
                  + 0.5 * sigma**2 * d * d - b * d)
        return np.concatenate((a * d, d_rate))

    return rhs


def integrate_cd_batch(
    params: ModelParams,
    tau: float,
    phis,
    j: int,
    tol: ToleranceSpec = ToleranceSpec(),
    checkpoints=None,
):
    """Integrate (C, D) for an array of frequencies in one batched solve.

    Returns ``(c_vals, d_vals, stats)`` at tau, or, if ``checkpoints`` is
    given (finite, >= 0, increasing, ending at tau), lists of arrays at
    every checkpoint.  The frequencies share scipy's RK45 step controller,
    whose error norm is the RMS over all 2m components, so the
    worst-behaved phi governs the step size; keep batches of comparable
    magnitude for best speed.  There is no step budget: a solve the
    controller cannot finish raises :class:`StepSizeUnderflow`.
    """
    check_measure(j)
    check_nonnegative("tau", tau)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    cps = np.asarray([tau] if checkpoints is None else checkpoints, dtype=float)
    check_nonnegative("checkpoints", cps)
    if cps.size == 0 or abs(cps[-1] - tau) > 1e-15 * max(1.0, tau) or np.any(np.diff(cps) <= 0):
        raise InvalidParameter("checkpoints: must be increasing and end at tau")
    from scipy.integrate import solve_ivp

    # one solve_ivp call per checkpoint segment, so every value returned is
    # the end of a step, never a dense-output interpolant
    rhs = _rhs(params, phis, j)
    y = np.zeros(2 * phis.size, dtype=complex)
    t = 0.0
    steps = evals = 0
    outputs = []
    for target in cps:
        if target > t:
            sol = solve_ivp(rhs, (t, target), y, method="RK45", rtol=tol.rel, atol=tol.abs)
            if sol.status != 0:
                raise StepSizeUnderflow(
                    f"{sol.message} at tau'={sol.t[-1]:.6g} "
                    f"(phi up to {float(np.max(np.abs(phis))):.6g}, j={j})"
                )
            t, y = target, sol.y[:, -1]
            steps += sol.t.size - 1
            evals += sol.nfev
        outputs.append(y.reshape(2, -1))
    stats = SolverStats(steps, evals)
    if checkpoints is None:
        return outputs[0][0], outputs[0][1], stats
    return [o[0] for o in outputs], [o[1] for o in outputs], stats


def integrate_cd(
    params: ModelParams,
    tau: float,
    phi: float,
    j: int,
    tol: ToleranceSpec = ToleranceSpec(),
) -> OdeSolution:
    """Solve the Riccati system for a single real frequency.

    phi = 0 propagates the exact solution C = D = 0 (every forcing term
    carries a phi or D factor).  Raises :class:`StepSizeUnderflow` if the
    integrator cannot meet the tolerance; the failure is reported, never
    silently clamped.
    """
    c_vals, d_vals, stats = integrate_cd_batch(params, tau, [phi], j, tol)
    return OdeSolution(c_val=complex(c_vals[0]), d_val=complex(d_vals[0]), stats=stats)
