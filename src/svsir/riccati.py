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

The coefficients are evaluated at the integration variable's own time to
maturity (same clock as the bond), which is what makes the assembled f_j
satisfy the pricing PDE.  For every beta the assembled f_j must equal the
closed forms Psi(phi - i)/S (j = 1) and Psi(phi)/B (j = 2) of
:mod:`svsir.heston_cf`; at beta = 0 (G identically 0) the system reduces
exactly to the constant-rate coefficient table and the integrated (C, D)
must match that module's constant-rate (C, D).

No discount term appears in C: discounting lives in the bond factor of the
price decomposition, absorbed by the x variable.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step control,
batched over many phi values at once so a whole set of frequencies shares
one solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bond
from .model import InvalidParameter, ModelParams, NumericalError, check_measure, check_nonnegative


class StepSizeUnderflow(NumericalError):
    """The error controller cannot meet the tolerance (near-singular inputs)."""


@dataclass(frozen=True)
class ToleranceSpec:
    """Local error control for the adaptive integrator."""

    rel: float = 1e-8
    abs: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if not 1e-12 <= self.rel <= 1e-4:
            raise InvalidParameter(f"rel: relative tolerance must lie in [1e-12, 1e-4], got {self.rel}")
        if self.abs <= 0:
            raise InvalidParameter(f"abs: absolute tolerance must be > 0, got {self.abs}")
        if self.max_steps < 1:
            raise InvalidParameter(f"max_steps: must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class SolverStats:
    steps_taken: int
    steps_rejected: int
    max_local_error: float


@dataclass(frozen=True)
class OdeSolution:
    """Terminal (C, D) for one (tau, phi, j), plus solver statistics."""

    c_val: complex
    d_val: complex
    stats: SolverStats


@dataclass(frozen=True)
class SirCoefficients:
    """Time-dependent coefficient bundle of the Riccati system.

    Every time-dependent coefficient is a function of the variance loading
    G alone: :meth:`g` evaluates it once per time to maturity, and the
    coefficient rules take that value.  ``bond_coeffs is None`` marks the
    degenerate beta branch where G vanishes identically and every
    coefficient is the constant-rate one.
    """

    alpha: float
    sigma: float
    rho_sv: float
    a: float
    bond_coeffs: bond.BondCoefficients | None

    @classmethod
    def from_params(cls, params: ModelParams) -> "SirCoefficients":
        co = None
        if params.beta > bond.BETA_SWITCH:
            co = bond.coefficients(params)
        return cls(
            alpha=params.alpha,
            sigma=params.sigma,
            rho_sv=params.rho_sv,
            a=params.kappa * params.theta,
            bond_coeffs=co,
        )

    def g(self, tau: float) -> float:
        """Variance loading G(tau) of the bond."""
        if self.bond_coeffs is None:
            return 0.0
        return bond.g_of_tau(self.bond_coeffs, tau)

    def sigma_x_sq(self, g: float) -> float:
        """sx2 = 1 - 2*rho_sv*sigma*G + sigma^2*G^2; strictly positive for |rho_sv| < 1."""
        sg = self.sigma * g
        return 1.0 - 2.0 * self.rho_sv * sg + sg * sg

    def cross(self, g: float) -> float:
        """The product rho_xv*sigma_x*sigma = sigma*(rho_sv - sigma*G)."""
        return self.sigma * (self.rho_sv - self.sigma * g)

    def zeta(self, j: int, g: float) -> float:
        s = self.sigma_x_sq(g)
        return 0.5 * s if j == 1 else -0.5 * s

    def b_j(self, j: int, g: float) -> float:
        if j == 1:
            return self.alpha - self.rho_sv * self.sigma
        return self.alpha - self.sigma * self.sigma * g


# Dormand-Prince 5(4) tableau (FSAL: stage 7 of an accepted step is stage 1
# of the next).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_ERR = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


class _RiccatiRhs:
    """Right-hand side, batched over a fixed array of frequencies."""

    def __init__(self, coeffs: SirCoefficients, phis: np.ndarray, j: int):
        self.coeffs = coeffs
        self.j = j
        self.phi = phis
        self.phi2 = phis * phis
        self.iphi = 1j * phis

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        co = self.coeffs
        g = co.g(t)  # one bond evaluation per stage
        d = y[1]
        out = np.empty_like(y)
        out[0] = co.a * d
        out[1] = (
            -0.5 * co.sigma_x_sq(g) * self.phi2
            + self.iphi * (co.cross(g) * d + co.zeta(self.j, g))
            + 0.5 * co.sigma**2 * d * d
            - co.b_j(self.j, g) * d
        )
        return out


def _integrate(
    rhs: _RiccatiRhs,
    checkpoints: np.ndarray,
    tol: ToleranceSpec,
    fixed_step: float | None = None,
) -> tuple[list[np.ndarray], SolverStats]:
    """Advance y = [C, D] from 0 through each checkpoint; return y at each.

    Embedded 5(4) pair; the scaled max-norm local error of every accepted
    step is kept <= 1.  ``fixed_step`` disables adaptivity (used by the
    order-verification tests).
    """
    m = rhs.phi.size
    y = np.zeros((2, m), dtype=complex)
    t = 0.0
    t_end = float(checkpoints[-1])
    outputs: list[np.ndarray] = []

    if t_end == 0.0:
        return [y.copy() for _ in checkpoints], SolverStats(0, 0, 0.0)

    k = np.empty((7, 2, m), dtype=complex)
    k[0] = rhs(t, y)
    n_acc = 0
    n_rej = 0
    max_err = 0.0

    if fixed_step is not None:
        h_prop = float(fixed_step)
    else:
        # modest first step; the controller adapts within a few steps
        h_prop = min(0.1, t_end, 1.0 / (1.0 + float(np.max(np.abs(rhs.phi)))))
    h_floor = 1e-13 * max(1.0, t_end)

    ci = 0
    while ci < len(checkpoints) and float(checkpoints[ci]) == 0.0:
        outputs.append(y.copy())
        ci += 1

    while ci < len(checkpoints):
        target = float(checkpoints[ci])
        h = min(h_prop, target - t)
        capped = h < h_prop
        if n_acc + n_rej >= tol.max_steps:
            raise StepSizeUnderflow(
                f"step budget {tol.max_steps} exhausted at tau'={t:.6g} "
                f"(phi up to {float(np.max(np.abs(rhs.phi))):.6g}, j={rhs.j})"
            )

        for s in range(1, 7):
            acc = sum(a * k[q] for q, a in enumerate(_DP_A[s]) if a != 0.0)
            k[s] = rhs(t + _DP_C[s] * h, y + h * acc)
        y_new = y + h * sum(b * k[q] for q, b in enumerate(_DP_B5) if b != 0.0)
        err_vec = h * sum(e * k[q] for q, e in enumerate(_DP_ERR) if e != 0.0)

        scale = tol.abs + tol.rel * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.max(np.abs(err_vec) / scale))

        accepted = fixed_step is not None or err <= 1.0
        if accepted:
            t += h
            y = y_new
            k[0] = k[6]  # FSAL
            n_acc += 1
            max_err = max(max_err, err)
            if t >= target - 1e-15 * max(1.0, target):
                t = target
                outputs.append(y.copy())
                ci += 1
        else:
            n_rej += 1

        if fixed_step is None:
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            if not accepted or not capped:
                # a checkpoint-capped accepted step says nothing about the
                # natural step size; keep the previous proposal then
                h_prop = h * factor
            if h_prop < h_floor:
                raise StepSizeUnderflow(
                    f"step size underflow at tau'={t:.6g} "
                    f"(phi up to {float(np.max(np.abs(rhs.phi))):.6g}, j={rhs.j})"
                )

    return outputs, SolverStats(n_acc, n_rej, max_err)


def integrate_cd_batch(
    params: ModelParams,
    tau: float,
    phis,
    j: int,
    tol: ToleranceSpec = ToleranceSpec(),
    checkpoints=None,
    fixed_step: float | None = None,
):
    """Integrate (C, D) for an array of frequencies in one batched solve.

    Returns ``(c_vals, d_vals, stats)`` at tau, or, if ``checkpoints`` is
    given (increasing, ending at tau), lists of arrays at every checkpoint.
    Frequencies share the step controller, so the worst-behaved phi governs
    the step size; keep batches of comparable magnitude for best speed.
    """
    check_measure(j)
    check_nonnegative("tau", tau)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    coeffs = SirCoefficients.from_params(params)
    rhs = _RiccatiRhs(coeffs, phis, j)
    if checkpoints is None:
        cps = np.array([tau])
    else:
        cps = np.asarray(checkpoints, dtype=float)
        if cps.size == 0 or abs(cps[-1] - tau) > 1e-15 * max(1.0, tau) or np.any(np.diff(cps) <= 0):
            raise InvalidParameter("checkpoints: must be increasing and end at tau")
    outs, stats = _integrate(rhs, cps, tol, fixed_step=fixed_step)
    if checkpoints is None:
        return outs[0][0], outs[0][1], stats
    return [o[0] for o in outs], [o[1] for o in outs], stats


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
    controller cannot meet the tolerance; the failure is reported, never
    silently clamped.
    """
    c_vals, d_vals, stats = integrate_cd_batch(params, tau, [phi], j, tol)
    return OdeSolution(c_val=complex(c_vals[0]), d_val=complex(d_vals[0]), stats=stats)
