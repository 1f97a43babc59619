"""Domain types and parameter validation.

Model conventions used throughout the package:

* times are year fractions, rates are continuously compounded;
* ``v`` is instantaneous variance (1/year), so annualised vol is ``sqrt(v)``;
* the variance process is a square root diffusion
  ``dv = kappa*(theta - v)*dt + sigma*sqrt(v)*dW`` with volatility risk
  premium ``lam * v``, so the risk-neutral drift is
  ``kappa*theta - (kappa + lam)*v``;
* the short rate is affine in variance, ``r = mu + beta*v``; ``beta = 0``
  recovers the constant-rate Heston model.

``v = 0`` and ``tau = 0`` are legal inputs everywhere (degenerate but
well-defined limits).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class InvalidParameter(ValueError):
    """A model, market or option parameter violates its constraint."""


class NumericalError(RuntimeError):
    """Base class for reported numerical failures (never silent clamps)."""


@dataclass(frozen=True)
class ModelParams:
    """Constants of the stochastic-volatility / stochastic-rate model.

    Attributes
    ----------
    kappa : mean-reversion speed of variance (1/year), > 0
    theta : long-run variance (1/year), >= 0
    sigma : vol-of-vol (1/sqrt(year)), > 0, with sigma^2 neither 0 nor inf in floating point
    lam : volatility risk-premium coefficient; premium is ``lam*v``
    rho_sv : stock-variance correlation, in [-1, 1]
    mu : short-rate level constant (1/year)
    beta : rate-variance slope, >= 0; ``beta = 0`` is the constant-rate model
    """

    kappa: float
    theta: float
    sigma: float
    lam: float
    rho_sv: float
    mu: float
    beta: float

    @property
    def alpha(self) -> float:
        """Risk-neutral mean-reversion speed ``kappa + lam`` (must be > 0)."""
        return self.kappa + self.lam


def check_nonnegative(name: str, value) -> None:
    """Raise :class:`InvalidParameter` naming ``name`` unless ``value``, a scalar
    or every entry of an array, is finite and >= 0; it names the first entry that fails.

    The range rule of every variance and maturity input; NaN and inf fail it.
    """
    for entry in np.ravel(value).tolist():
        if not (math.isfinite(entry) and entry >= 0):
            raise InvalidParameter(f"{name}: must be finite and >= 0, got {entry}")


def check_measure(j: int) -> None:
    """Raise :class:`InvalidParameter` unless ``j`` is a measure index: 1 (stock) or 2 (forward)."""
    if j not in (1, 2):
        raise InvalidParameter(f"j: measure index must be 1 or 2, got {j}")


@dataclass(frozen=True)
class MarketState:
    """Current spot, instantaneous variance and time to maturity."""

    spot: float
    variance: float
    tau: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.spot) and self.spot > 0):
            raise InvalidParameter(f"spot: must be finite and > 0, got {self.spot}")
        check_nonnegative("variance", self.variance)
        check_nonnegative("tau", self.tau)


class OptionKind(Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class OptionSpec:
    """European option contract: strike and call/put flag."""

    strike: float
    kind: OptionKind = OptionKind.CALL

    def __post_init__(self) -> None:
        if not (math.isfinite(self.strike) and self.strike > 0):
            raise InvalidParameter(f"strike: must be finite and > 0, got {self.strike}")
        if not isinstance(self.kind, OptionKind):
            raise InvalidParameter(f"kind: must be OptionKind, got {self.kind!r}")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: Feller diagnostic plus soft warnings."""

    feller_satisfied: bool
    warnings: tuple[str, ...] = ()


def validate(params: ModelParams) -> ValidationReport:
    """Check every hard constraint of ``ModelParams``; report soft diagnostics.

    Raises :class:`InvalidParameter` (naming the offending field) on any hard
    violation.  The Feller condition ``2*kappa*theta >= sigma**2`` is a
    warning, not an error: the semi-analytic formulas stay valid when it
    fails, only Monte Carlo accuracy near v = 0 degrades.

    Deterministic and side-effect free; once a parameter set passes, every
    downstream operation accepts it without re-checking.
    """
    for name in ("kappa", "theta", "sigma", "lam", "rho_sv", "mu", "beta"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise InvalidParameter(f"{name}: must be finite, got {value}")
    if params.kappa <= 0:
        raise InvalidParameter(f"kappa: must be > 0, got {params.kappa}")
    if params.theta < 0:
        raise InvalidParameter(f"theta: must be >= 0, got {params.theta}")
    if params.sigma <= 0:
        raise InvalidParameter(f"sigma: must be > 0, got {params.sigma}")
    if not 0.0 < params.sigma * params.sigma < math.inf:
        raise InvalidParameter(f"sigma: sigma^2 must be a positive finite float, got {params.sigma}")
    if abs(params.rho_sv) > 1:
        raise InvalidParameter(f"rho_sv: must lie in [-1, 1], got {params.rho_sv}")
    if params.alpha <= 0:
        raise InvalidParameter(
            f"kappa+lam: risk-neutral mean reversion must be > 0, got {params.alpha}"
        )
    if params.beta < 0:
        raise InvalidParameter(f"beta: must be >= 0, got {params.beta}")

    feller = 2.0 * params.kappa * params.theta >= params.sigma**2
    warnings: tuple[str, ...] = ()
    if not feller:
        warnings = (
            f"Feller condition violated: 2*kappa*theta = "
            f"{2.0 * params.kappa * params.theta:.6g} < sigma^2 = {params.sigma**2:.6g}; "
            "variance paths can reach zero, Monte Carlo bias may grow",
        )
    return ValidationReport(feller_satisfied=feller, warnings=warnings)
