"""Closed-form characteristic functions for every beta.

With r = mu + beta*v the triple (ln S, v, Int r) is a time-homogeneous affine
process, so

    Psi(u) = E[exp(-Int_0^tau r dt) * S_T^{i*u}] = S^{i*u} * exp(A(tau, u) + D(tau, u)*v)

for complex u, where (A, D) solve Riccati equations with constant
coefficients,

    dD/dtau = sigma^2/2 * D^2 - b*D + c,   dA/dtau = mu*(i*u - 1) + kappa*theta*D,

    b = alpha - i*u*rho_sv*sigma,   c = -(u^2 + i*u)/2 + beta*(i*u - 1),

alpha = kappa + lam, A(0) = D(0) = 0.  Writing d = sqrt(b^2 - 2*sigma^2*c) and
h = (b - d)/(b + d),

    A = mu*(i*u - 1)*tau + kappa*theta/sigma^2 * [ (b - d)*tau
            - 2*ln( (1 - h*exp(-d*tau)) / (1 - h) ) ],
    D = (b - d)/sigma^2 * (1 - exp(-d*tau)) / (1 - h*exp(-d*tau)).

This is the "little trap" rearrangement (Albrecher et al. 2007): the principal
square root gives Re(d) >= 0, so exp(-d*tau) stays bounded and the complex
log stays continuous in tau for all maturities (no 2*pi*i jumps).  It is
algebraically identical to the textbook form written with g = 1/h and
exp(+d*tau); the tests verify both the identity and the continuity.

The exercise probabilities of the price decomposition invert

    f_1(phi) = Psi(phi - i) / S   (stock measure),
    f_2(phi) = Psi(phi) / B       (tau-forward measure, B the discount bond).

At beta = 0 these are the constant-rate characteristic functions
f_j = exp(C + D*v + i*phi*x) at log-spot x = ln S, with
C = r0*phi*i*tau + (A without its rate term) and the coefficient table

    zeta_1 = +1/2, zeta_2 = -1/2,
    b_1 = kappa + lam - rho_sv*sigma,  b_2 = kappa + lam.

:func:`affine_cd` gives (A, D) on any contour and is what prices use;
:func:`cd_arrays` gives (C, D) on the two pricing contours and
:func:`characteristic_fn` assembles f_j from them.
"""
from __future__ import annotations

import numpy as np

from .model import ModelParams, check_measure, check_nonnegative


def affine_cd(params: ModelParams, tau, u):
    """Vectorised (A, D) of Psi(u) over broadcastable ``tau`` and complex ``u``.

    Valid for every beta >= 0.  Evaluated as A = mu*(i*u - 1)*tau +
    kappa*theta/sigma^2 * [(b - d)*tau - 2*ln(1 + x)] and
    D = -c*em1 / (d*(1 + x)), with em1 = exp(-d*tau) - 1 and
    x = -(b - d)*em1/(2*d): the form above without h, each factor to full
    relative accuracy.  b + d = 0, which on the pricing contours u = phi and
    u = phi - i (real phi) needs phi = 0 and b_1 < 0, divides by zero in a
    branch that is then discarded; :func:`cd_arrays` special-cases that
    point.  ``tau`` is not range-checked here: this is the pricing hot path,
    and the pricer checks its maturities once per grid.
    """
    tau = np.asarray(tau, dtype=float)
    u = np.asarray(u, dtype=complex)
    sigma2 = params.sigma * params.sigma
    iu = 1j * u

    b = params.alpha - iu * params.rho_sv * params.sigma
    c = iu * (0.5 * iu + (params.beta - 0.5)) - params.beta
    two_sigma2_c = 2.0 * sigma2 * c
    d = np.sqrt(b * b - two_sigma2_c)
    # b - d without cancellation: (b - d)*(b + d) = 2*sigma^2*c, and the larger of b -+ d does not cancel (b - d is
    # the larger where Re(b*conj(d)) < 0); as u -> 0 on u = phi, b - d ~ c lies many digits below b
    b_minus_d = np.where(b.real * d.real + b.imag * d.imag < 0.0, b - d, two_sigma2_c / (b + d))
    # em1 = exp(-d*tau) - 1 to full relative accuracy: 1 - exp(-d*tau) by subtraction loses it as d*tau -> 0
    em1 = np.expm1(-d * tau)
    # (1 - h*e)/(1 - h) = 1 + x with e = 1 + em1, as h/(1 - h) = (b - d)/(2*d); its principal log from real parts
    # (numpy's complex log costs ~4x as much) and log1p, so that its rounding stays at eps*|x| where
    # 2*kappa*theta/sigma^2 multiplies it
    x = -0.5 * b_minus_d * em1 / d
    log_term = 0.5 * np.log1p(x.real * (2.0 + x.real) + x.imag * x.imag) + 1j * np.arctan2(x.imag, 1.0 + x.real)
    a_val = params.mu * (iu - 1.0) * tau + (params.kappa * params.theta / sigma2) * (b_minus_d * tau - 2.0 * log_term)
    # D = (b - d)/sigma^2 * (1 - e)/(1 - h*e), where (b - d)/(1 - h) = sigma^2*c/d
    d_val = -c * em1 / (d * (1.0 + x))
    return a_val, d_val


def explosion_time(params: ModelParams, p):
    """T*(p): the first tau at which the moment E[exp(-Int_0^tau r dt) * S_T^p] = Psi(-i*p) is infinite; inf if never.

    On u = -i*p the Riccati equation of D is real, D' = sigma^2/2*D^2 - b*D + c with b = alpha - p*rho_sv*sigma and
    c = (p^2 - p)/2 + beta*(p - 1), and D alone can blow up (Andersen & Piterbarg 2007).  It never does where c <= 0,
    or where b > 0 and the discriminant b^2 - 2*sigma^2*c >= 0 puts a root of the right-hand side above D = 0.
    Otherwise, with g = sqrt(|b^2 - 2*sigma^2*c|), T* = 2*atanh(g/-b)/g for a positive discriminant and
    2*atan2(g, -b)/g for a negative one.  Orders with finite moments form an interval holding [0, 1] that shrinks
    as tau grows, so phi = -i*p is inside the strip of f_1 = Psi(phi - i)/S and f_2 = Psi(phi)/B at tau while tau
    is below T*(1 + p) for p > 0 and T*(p) for p < 0.  Vectorised over real ``p``.
    """
    p = np.asarray(p, dtype=float)
    minus_b = params.rho_sv * params.sigma * p - params.alpha
    c = (p - 1.0) * (0.5 * p + params.beta)
    disc = minus_b * minus_b - 2.0 * params.sigma**2 * c
    g = np.sqrt(np.abs(disc))
    # arctanh only where the discriminant is positive, in place of arctan2
    angle = np.arctan2(g, minus_b, out=np.empty(p.shape))
    with np.errstate(divide="ignore", invalid="ignore"):  # divisions by 0 land in entries left out here or below
        np.arctanh(g / minus_b, out=angle, where=disc > 0.0)
        time = 2.0 * angle / g
    # never where c <= 0, nor where b > 0 and the discriminant is >= 0, where time is < 0 or +inf
    return np.where((c <= 0.0) | (time <= 0.0), np.inf, time)


def cd_arrays(params: ModelParams, r0: float, tau, phi, j: int):
    """Vectorised (C, D) over broadcastable ``tau`` and real ``phi``.

    (C, D) are (A, D) at u_1 = phi - i or u_2 = phi with the rate term
    mu*(i*u_j - 1)*tau of A swapped for r0*phi*i*tau; at beta = 0 they are
    the constant-rate coefficients with short rate r0.  phi = 0 is a
    removable singularity of h and is special-cased to the analytic limit
    C = D = 0.  Raises :class:`InvalidParameter` for a negative or non-finite tau.
    """
    check_measure(j)
    check_nonnegative("tau", tau)
    tau = np.asarray(tau, dtype=float)
    phi = np.asarray(phi, dtype=float)

    at_zero = phi == 0.0
    phi_safe = np.where(at_zero, 1.0, phi)
    a_val, d_val = affine_cd(params, tau, phi_safe - 1j if j == 1 else phi_safe)
    c_val = a_val + (r0 - params.mu) * phi_safe * 1j * tau
    if j == 2:
        c_val = c_val + params.mu * tau

    zero = np.zeros(np.broadcast(tau, phi).shape, dtype=complex)
    c_val = np.where(at_zero, zero, c_val)
    d_val = np.where(at_zero, zero, d_val)
    return c_val, d_val


def characteristic_fn(params: ModelParams, r0: float, x: float, v: float, tau: float, phi, j: int):
    """f_j = exp(C + D*v + i*phi*x); modulus <= 1 for real phi.

    ``phi`` may be a scalar or an array (vectorised evaluation for the
    quadrature layer).
    """
    check_nonnegative("variance", v)
    c_val, d_val = cd_arrays(params, r0, tau, phi, j)
    out = np.exp(c_val + d_val * v + 1j * np.asarray(phi, dtype=float) * x)
    return complex(out) if out.ndim == 0 else out
