"""Fourier inversion of characteristic functions into exercise probabilities.

The pricer needs the pair

    R_j = 1/2 + (1/pi) * Integral_0^inf Re[ exp(-i*phi*ln K) * f_j(phi) / (i*phi) ] dphi,

where f_j is supplied by a provider (the closed-form affine characteristic
function of :mod:`svsir.heston_cf` for every beta).  f_j does not depend on
the strike, so one adaptive pass inverts a whole strike row: the integrand
has one row per (measure j, strike).  Its singularity at phi = 0 is
removable (the 1/(i*phi) pole is purely imaginary there), and Gauss-Kronrod
7(15) panels integrate it on [PHI_MIN, phi_max]:

* f_j is evaluated once per measure on PHI_MIN and the doubling ladder
  PHI_LADDER_START, 2*PHI_LADDER_START, ... up to the spec's budget;
* one phi_max serves every row: the first rung where |f_j(phi)| / phi
  < abs_tol/10 holds for both j (TailNotDecaying if none does);
* the rows share one panel set; every panel whose worst row holds more than
  its share of the error budget splits, all new halves are evaluated in one
  call, and each row must meet the target on its own;
* the [0, PHI_MIN] sliver is added back as a one-term rectangle correction.

When the accumulated variance over the option's life is negligible, f_j
never decays and R_j collapses to an indicator; that degenerate branch skips
the quadrature and reads the law's location off the phase of f_j at PHI_MIN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import InvalidParameter, NumericalError

PHI_MIN = 1e-6
# First rung of the phi_max ladder, which doubles from here up to the budget.
PHI_LADDER_START = 32.0
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
        if not PHI_LADDER_START <= self.phi_max < math.inf:
            raise InvalidParameter(
                f"phi_max: must be finite and >= {PHI_LADDER_START:g} (the first truncation "
                f"frequency tried), got {self.phi_max}"
            )
        if self.max_subdivisions < 4:
            raise InvalidParameter(f"max_subdivisions: must be >= 4, got {self.max_subdivisions}")


@dataclass(frozen=True)
class ProbabilityPair:
    """R_1 and R_2 with the worst achieved error estimate of the pair, per strike."""

    r1: float | np.ndarray
    r2: float | np.ndarray
    achieved_error_estimate: float | np.ndarray


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


def _panel_estimates(g: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """Kronrod integral and |Kronrod - Gauss| of every row of g on panels [lo_i, hi_i].

    Both have g's row shape followed by one axis over the panels.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = g((mid[:, None] + half[:, None] * _XK[None, :]).ravel())
    vals = vals.reshape(vals.shape[:-1] + (lo.size, 15))
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
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive panel quadrature of every row of g on [lo, hi], each row to absolute target.

    ``g`` maps a 1-D frequency array to values whose last axis runs over those
    frequencies (a 1-D g is a single row).  The rows share one panel set:
    every panel whose worst row holds more than its share of the target
    splits, and all new halves are evaluated in one call of g.  Returns the
    per-row integrals and error estimates.
    """
    edges = np.linspace(lo, hi, n_init + 1)
    a, b = edges[:-1], edges[1:]
    integrals, errors = _panel_estimates(g, a, b)

    while np.any(errors.sum(axis=-1) > target):
        n = a.size
        if n >= budget:
            raise SubdivisionExhausted(
                f"error {errors.sum(axis=-1).max():.3e} > target {target:.3e} "
                f"after {n} panels on [{lo:.3g}, {hi:.3g}]"
            )
        worst = errors.reshape(-1, n).max(axis=0)
        split = np.flatnonzero(worst > target / n)
        # worst first, so that the panel budget drops the least needed splits
        split = split[np.argsort(-worst[split], kind="stable")][: budget - n]
        mid = 0.5 * (a[split] + b[split])
        lo_new = np.concatenate([a[split], mid])
        hi_new = np.concatenate([mid, b[split]])
        ints_new, errs_new = _panel_estimates(g, lo_new, hi_new)
        a = np.concatenate([np.delete(a, split), lo_new])
        b = np.concatenate([np.delete(b, split), hi_new])
        integrals = np.concatenate([np.delete(integrals, split, axis=-1), ints_new], axis=-1)
        errors = np.concatenate([np.delete(errors, split, axis=-1), errs_new], axis=-1)

    return integrals.sum(axis=-1), errors.sum(axis=-1)


def _ladder(spec: QuadratureSpec) -> np.ndarray:
    return PHI_LADDER_START * 2.0 ** np.arange(int(math.log2(spec.phi_max / PHI_LADDER_START)) + 1)


def _find_phi_max(f_ladder: np.ndarray, spec: QuadratureSpec) -> tuple[float, float]:
    """First ladder rung where |f_j(phi)|/phi < abs_tol/10 for both j, and the larger tail term there.

    ``f_ladder`` holds f_1 and f_2 on ``_ladder(spec)``, one row per measure.
    """
    threshold = spec.abs_tol / 10.0
    ladder = _ladder(spec)
    tails = np.abs(f_ladder).max(axis=0) / ladder
    passed = np.flatnonzero(tails < threshold)
    if passed.size == 0:
        raise TailNotDecaying(
            f"max_j |f_j|/phi stayed >= {threshold:.3e} up to the phi budget {spec.phi_max:.3g} "
            f"(smallest {tails.min():.3e}); characteristic function decays too slowly "
            "(near-degenerate variance?)"
        )
    return float(ladder[passed[0]]), float(tails[passed[0]])


def gil_pelaez(
    cf_provider: CfProvider,
    x: float,
    log_strike: float | np.ndarray,
    spec: QuadratureSpec = QuadratureSpec(),
) -> ProbabilityPair:
    """Exercise probabilities R_1, R_2 from a characteristic-function provider.

    ``log_strike`` is a float or a 1-D array inverted in one pass; r1, r2 and
    the error estimate come back in its shape.  ``x`` (the log-moneyness the
    provider's phase is anchored at) only scales the initial panel count.
    Raises :class:`TailNotDecaying` or :class:`SubdivisionExhausted`, with context.
    """
    shape = np.shape(log_strike)
    log_k = np.asarray(log_strike, dtype=float).reshape(-1, 1)
    phis = np.concatenate([[PHI_MIN], _ladder(spec)])
    f_table = np.stack([cf_provider.eval(j, phis) for j in (1, 2)])
    if cf_provider.decay_proxy < DEGENERATE_PROXY:
        # point-mass law: the phase slope at a tiny frequency is its location
        centers = np.log(f_table[:, :1]).imag / PHI_MIN
        r1, r2 = np.where(np.abs(centers - log_k.T) <= 1e-12, 0.5, centers > log_k.T).reshape((2,) + shape)
        return ProbabilityPair(r1=r1, r2=r2, achieved_error_estimate=np.zeros(shape)[()])

    def rows(phi: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
        """Integrand, shaped (measure, strike, phi); f_j is evaluated at phi unless given."""
        f = np.stack([cf_provider.eval(j, phi) for j in (1, 2)]) if f is None else f
        return (np.exp(-1j * phi * log_k) * f[:, None, :] / (1j * phi)).real

    phi_max, tail_est = _find_phi_max(f_table[:, 1:], spec)
    oscillation = np.abs(x - log_k).max(initial=1.0)
    n_init = int(np.clip(math.ceil((phi_max - PHI_MIN) * oscillation / (3.0 * math.pi)),
                         8, spec.max_subdivisions // 2))
    quad_target = 0.25 * spec.abs_tol * math.pi
    integral, quad_err = _adaptive_integral(rows, PHI_MIN, phi_max, quad_target, spec.max_subdivisions, n_init)
    # rectangle correction for the [0, PHI_MIN] sliver (finite limit there)
    integral += PHI_MIN * rows(phis[:1], f_table[:, :1])[..., 0]
    r1, r2 = (0.5 + integral / math.pi).reshape((2,) + shape)
    err = (quad_err.max(axis=0) + tail_est) / math.pi
    return ProbabilityPair(r1=r1, r2=r2, achieved_error_estimate=err.reshape(shape)[()])
