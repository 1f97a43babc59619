"""Option pricing under Heston stochastic volatility with an affine stochastic short rate.

Two nested models share one parameter set:

* ``beta = 0`` — the constant-rate stochastic-volatility model;
* ``beta > 0`` — the stochastic-rate extension, whose discount bond
  B(tau, v) = F(tau)*exp(G(tau)*v) is closed form.

Both price through one closed-form affine characteristic function
(:mod:`svsir.heston_cf`).  The time-dependent Riccati system of the
forward measure (:mod:`svsir.riccati`) is kept as a numerical oracle for it.

Every semi-analytic price is validated against a Monte Carlo oracle
(:mod:`svsir.mc`); the ``verify`` CLI subcommand runs that comparison.
"""

from .bond import (
    BETA_SWITCH,
    BondCoefficients,
    BondValue,
    DegenerateBeta,
    bond_dynamics_coefficients,
    bond_price,
    coefficients,
    f_of_tau,
    g_of_tau,
    ode_residual,
)
from .heston_cf import characteristic_fn
from .inversion import (
    CfProvider,
    InversionError,
    ProbabilityPair,
    QuadratureSpec,
    SubdivisionExhausted,
    TailNotDecaying,
    gil_pelaez,
)
from .mc import (
    McConfig,
    McEstimate,
    simulate_bond,
    simulate_exercise_prob,
    simulate_grid,
    simulate_price,
)
from .model import (
    InvalidParameter,
    MarketState,
    ModelParams,
    NumericalError,
    OptionKind,
    OptionSpec,
    ValidationReport,
    validate,
)
from .pricer import (
    MODEL_HESTON,
    MODEL_SIR,
    PriceGrid,
    PriceResult,
    price_grid,
    price_heston,
    price_sir,
    put_from_parity,
)
from .riccati import (
    OdeSolution,
    SirCoefficients,
    StepSizeUnderflow,
    ToleranceSpec,
    integrate_cd,
    integrate_cd_batch,
    sir_characteristic_fn,
)

__version__ = "0.1.0"

__all__ = [
    "BETA_SWITCH",
    "BondCoefficients",
    "BondValue",
    "CfProvider",
    "DegenerateBeta",
    "InvalidParameter",
    "InversionError",
    "MarketState",
    "McConfig",
    "McEstimate",
    "MODEL_HESTON",
    "MODEL_SIR",
    "ModelParams",
    "NumericalError",
    "OdeSolution",
    "OptionKind",
    "OptionSpec",
    "PriceGrid",
    "PriceResult",
    "ProbabilityPair",
    "QuadratureSpec",
    "SirCoefficients",
    "StepSizeUnderflow",
    "SubdivisionExhausted",
    "TailNotDecaying",
    "ToleranceSpec",
    "ValidationReport",
    "bond_dynamics_coefficients",
    "bond_price",
    "characteristic_fn",
    "coefficients",
    "f_of_tau",
    "g_of_tau",
    "gil_pelaez",
    "integrate_cd",
    "integrate_cd_batch",
    "ode_residual",
    "price_grid",
    "price_heston",
    "price_sir",
    "put_from_parity",
    "simulate_bond",
    "simulate_exercise_prob",
    "simulate_grid",
    "simulate_price",
    "sir_characteristic_fn",
    "validate",
]
