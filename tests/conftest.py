import numpy as np

from svsir import ModelParams
from svsir.mc import _euler_paths, _on_blocks

# Parameter box for randomized checks: wide enough to stress the numerics,
# bounded away from degenerate corners (kappa+lam stays >= 0.3).
PARAM_BOX = {
    "kappa": (0.5, 4.0),
    "theta": (0.01, 0.16),
    "sigma": (0.1, 0.8),
    "lam": (-0.3, 1.0),
    "rho_sv": (-0.9, 0.5),
    "mu": (0.0, 0.08),
}


def draw_params(rng: np.random.Generator, beta) -> ModelParams:
    """One random parameter set from PARAM_BOX with the given beta."""
    kappa = rng.uniform(*PARAM_BOX["kappa"])
    lam = rng.uniform(*PARAM_BOX["lam"])
    if kappa + lam < 0.3:
        lam = 0.3 - kappa
    return ModelParams(
        kappa=kappa,
        theta=rng.uniform(*PARAM_BOX["theta"]),
        sigma=rng.uniform(*PARAM_BOX["sigma"]),
        lam=lam,
        rho_sv=rng.uniform(*PARAM_BOX["rho_sv"]),
        mu=rng.uniform(*PARAM_BOX["mu"]),
        beta=float(beta),
    )


def euler_state(params, v0, ln_spot, tau, cfg, with_stock):
    """(ln S, v, Integral r dt) of every path after full-truncation Euler to ``tau``.

    Each block of paths that the slices of ``svsir.mc._on_blocks`` take runs
    ``_euler_paths`` on its views of full-length arrays; the scratch starts as
    NaN, so a block that reads it before writing it shows."""
    n = cfg.n_paths
    arrays = (np.full(n, ln_spot), np.full(n, v0), np.zeros(n), *(np.full(n, np.nan) for _ in range(6)))

    def block(part):
        _euler_paths(params, tau, cfg, with_stock, part, *(a[part] for a in arrays))

    _on_blocks(block, n, 0)
    return arrays[:3]
