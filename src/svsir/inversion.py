"""Fourier inversion of characteristic functions into exercise probabilities.

The pricer needs the pair

    R_j = 1/2 + (1/pi) * Integral_0^inf Re[ exp(-i*phi*ln K) * f_j(phi) / (i*phi) ] dphi,

where f_j is supplied by a provider (the closed-form affine characteristic
function of :mod:`svsir.heston_cf` for every beta).  The integrand has a
removable singularity at phi = 0 (the 1/(i*phi) pole is purely imaginary
there) and is integrated by adaptive Gauss-Kronrod 7(15) panels on
[PHI_MIN, phi_max]:

* the truncation frequency phi_max is found adaptively by doubling until the
  tail criterion |f_j(phi_max)| / phi_max < abs_tol/10 holds, up to the
  spec's budget (TailNotDecaying beyond it);
* the [0, PHI_MIN] sliver is added back as a one-term rectangle correction,
  evaluating the integrand at PHI_MIN;
* panels are refined in batches (every panel holding more than its share of
  the error budget splits), so vectorised providers see large frequency
  arrays per call.

When the accumulated variance over the option's life is negligible the
characteristic function never decays and R_j collapses to an indicator; that
degenerate branch short-circuits the quadrature and reads the distribution's
location off the phase of f_j at a tiny frequency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import InvalidParameter, NumericalError

PHI_MIN = 1e-6
# Accumulated-variance proxy below which the law of the log price is treated
# as a point mass and R_j returned as an indicator.
DEGENERATE_PROXY = 1e-6


class TailNotDecaying(NumericalError):
    """|f_j| did not fall below threshold within the phi budget."""


class SubdivisionExhausted(NumericalError):
    """The panel budget ran out before meeting the error target."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Error target and budgets for one inversion."""

    abs_tol: float = 1e-9
    phi_max: float = 1e4
    max_subdivisions: int = 2048

    def __post_init__(self) -> None:
        if not 1e-12 <= self.abs_tol <= 1e-3:
            raise InvalidParameter(f"abs_tol: must lie in [1e-12, 1e-3], got {self.abs_tol}")
        if self.phi_max <= 0:
            raise InvalidParameter(f"phi_max: must be > 0, got {self.phi_max}")
        if self.max_subdivisions < 4:
            raise InvalidParameter(f"max_subdivisions: must be >= 4, got {self.max_subdivisions}")


@dataclass(frozen=True)
class ProbabilityPair:
    """R_1 and R_2 with the worst achieved error estimate of the pair."""

    r1: float
    r2: float
    achieved_error_estimate: float


@dataclass(frozen=True)
class CfProvider:
    """Characteristic-function interface consumed by :func:`gil_pelaez`.

    ``eval(j, phi_array)`` returns f_j at real positive frequencies,
    including the exp(i*phi*x) factor.  ``decay_proxy`` is the accumulated
    variance scale of the underlying law (for the square-root variance models
    here, tau*v0 + kappa*theta*tau^2/2); a vanishing proxy flags a
    pure-phase characteristic function whose inversion is an indicator.
    """

    eval: Callable[[int, np.ndarray], np.ndarray]
    decay_proxy: float


# Gauss-Kronrod 7(15): Kronrod nodes/weights plus the embedded 7-point Gauss
# weights (zeros at the Kronrod-only nodes), on [-1, 1].
_XK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([0.0, 0.129484966168870, 0.0, 0.279705391489277,
                     0.0, 0.381830050505119, 0.0, 0.417959183673469])

_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(n_panels, 15) matrix of Kronrod nodes for panels [lo_i, hi_i]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _XK[None, :]


def _panel_estimates(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    half = 0.5 * (hi - lo)
    integral = half * (vals @ _WK)
    embedded = half * (vals @ _WG)
    return integral, np.abs(integral - embedded)


def _adaptive_integral(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    target: float,
    budget: int,
    n_init: int,
) -> tuple[float, float]:
    """Adaptive panel quadrature of g on [lo, hi] to absolute target."""
    edges = np.linspace(lo, hi, n_init + 1)
    a = edges[:-1].copy()
    b = edges[1:].copy()
    vals = g(_panel_nodes(a, b).ravel()).reshape(n_init, 15)
    integrals, errors = _panel_estimates(vals, a, b)
    a, b = list(a), list(b)
    integrals, errors = list(integrals), list(errors)

    while sum(errors) > target:
        n = len(a)
        if n >= budget:
            raise SubdivisionExhausted(
                f"error {sum(errors):.3e} > target {target:.3e} after {n} panels on [{lo:.3g}, {hi:.3g}]"
            )
        share = target / n
        candidates = sorted(
            (i for i in range(n) if errors[i] > share),
            key=lambda i: -errors[i],
        )
        candidates = candidates[: max(1, min(len(candidates), budget - n))]
        lo_new, hi_new = [], []
        for i in candidates:
            mid = 0.5 * (a[i] + b[i])
            lo_new += [a[i], mid]
            hi_new += [mid, b[i]]
        lo_new = np.array(lo_new)
        hi_new = np.array(hi_new)
        vals = g(_panel_nodes(lo_new, hi_new).ravel()).reshape(lo_new.size, 15)
        ints_new, errs_new = _panel_estimates(vals, lo_new, hi_new)
        for pos, i in enumerate(candidates):
            a[i], b[i] = lo_new[2 * pos], hi_new[2 * pos]
            integrals[i], errors[i] = ints_new[2 * pos], errs_new[2 * pos]
            a.append(lo_new[2 * pos + 1])
            b.append(hi_new[2 * pos + 1])
            integrals.append(ints_new[2 * pos + 1])
            errors.append(errs_new[2 * pos + 1])

    return float(sum(integrals)), float(sum(errors))


def _find_phi_max(provider: CfProvider, j: int, spec: QuadratureSpec) -> tuple[float, float]:
    """Smallest doubling frequency meeting |f_j(phi)|/phi < abs_tol/10."""
    threshold = spec.abs_tol / 10.0
    phi = 32.0
    while phi <= spec.phi_max:
        f_abs = float(np.abs(provider.eval(j, np.array([phi]))[0]))
        if f_abs / phi < threshold:
            return phi, f_abs / phi
        phi *= 2.0
    raise TailNotDecaying(
        f"|f_{j}|/phi stayed >= {threshold:.3e} up to the phi budget {spec.phi_max:.3g}; "
        "characteristic function decays too slowly (near-degenerate variance?)"
    )


def _single_probability(
    provider: CfProvider, j: int, x: float, log_strike: float, spec: QuadratureSpec
) -> tuple[float, float]:
    if provider.decay_proxy < DEGENERATE_PROXY:
        # point-mass law: the phase slope at a tiny frequency is its location
        eps = PHI_MIN
        center = float(np.log(provider.eval(j, np.array([eps]))[0]).imag) / eps
        if math.isclose(center, log_strike, rel_tol=0.0, abs_tol=1e-12):
            return 0.5, 0.0
        return (1.0 if center > log_strike else 0.0), 0.0

    def integrand(phi: np.ndarray) -> np.ndarray:
        f = provider.eval(j, phi)
        return (np.exp(-1j * phi * log_strike) * f / (1j * phi)).real

    phi_max, tail_est = _find_phi_max(provider, j, spec)
    oscillation = max(abs(x - log_strike), 1.0)
    n_init = int(np.clip(math.ceil((phi_max - PHI_MIN) * oscillation / (3.0 * math.pi)),
                         8, spec.max_subdivisions // 2))
    quad_target = 0.25 * spec.abs_tol * math.pi
    integral, quad_err = _adaptive_integral(
        integrand, PHI_MIN, phi_max, quad_target, spec.max_subdivisions, n_init
    )
    # rectangle correction for the [0, PHI_MIN] sliver (finite limit there)
    integral += PHI_MIN * float(integrand(np.array([PHI_MIN]))[0])
    prob = 0.5 + integral / math.pi
    return prob, (quad_err + tail_est) / math.pi


def gil_pelaez(
    cf_provider: CfProvider,
    x: float,
    log_strike: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ProbabilityPair:
    """Exercise probabilities R_1, R_2 from a characteristic-function provider.

    ``x`` is the log-moneyness variable the provider's phase is anchored at;
    it is used only to scale the initial panel count to the integrand's
    oscillation frequency.  Raises :class:`TailNotDecaying` or
    :class:`SubdivisionExhausted` on budget failures; both carry context.
    """
    r1, e1 = _single_probability(cf_provider, 1, x, log_strike, spec)
    r2, e2 = _single_probability(cf_provider, 2, x, log_strike, spec)
    return ProbabilityPair(r1=r1, r2=r2, achieved_error_estimate=max(e1, e2))
