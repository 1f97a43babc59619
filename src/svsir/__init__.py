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

The package namespace exports what the acceptance gate and the README's
library quick start use, the results those names return and the exceptions
they raise.  Everything else, such as the bond constants, the characteristic
function, the inversion and its ``QuadratureSpec``, and ``validate``, is
imported from its own module.
"""

from .bond import (
    BondValue,
    bond_price,
    ode_residual,
)
from .inversion import (
    InversionError,
    SubdivisionExhausted,
    TailNotDecaying,
)
from .mc import (
    McConfig,
    McEstimate,
    simulate_bond,
    simulate_grid,
    simulate_price,
)
from .model import (
    InvalidParameter,
    MarketState,
    ModelParams,
    NumericalError,
    OptionSpec,
)
from .pricer import (
    PriceGrid,
    PriceResult,
    price_grid,
    price_heston,
    price_sir,
    put_from_parity,
)
from .riccati import (
    StepSizeUnderflow,
    ToleranceSpec,
    integrate_cd_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BondValue",
    "InvalidParameter",
    "InversionError",
    "MarketState",
    "McConfig",
    "McEstimate",
    "ModelParams",
    "NumericalError",
    "OptionSpec",
    "PriceGrid",
    "PriceResult",
    "StepSizeUnderflow",
    "SubdivisionExhausted",
    "TailNotDecaying",
    "ToleranceSpec",
    "bond_price",
    "integrate_cd_batch",
    "ode_residual",
    "price_grid",
    "price_heston",
    "price_sir",
    "put_from_parity",
    "simulate_bond",
    "simulate_grid",
    "simulate_price",
]
