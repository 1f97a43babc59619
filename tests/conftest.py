import numpy as np

from svsir import ModelParams
from svsir.mc import _on_blocks, _qe_paths, _steps

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


def qe_segments(params, v0, maturities, cfg):
    """``(v, Integral v dt)`` of every path after each of the sorted ``maturities``.

    One QE segment per maturity runs ``_qe_paths`` on every block of paths
    that the slices of ``svsir.mc._on_blocks`` take, on its views of
    full-length arrays; the scratch starts as NaN, so a segment that reads it
    before writing it shows."""
    n = cfg.n_paths
    arrays = (np.full(n, v0), np.zeros(n), *(np.full(n, np.nan) for _ in range(5)))
    v, var_integral = arrays[:2]
    out, done, first = [], 0.0, 0
    for tau in maturities:
        n_steps, dt = _steps(tau - done, cfg)
        _on_blocks(lambda part: _qe_paths(params, first, n_steps, dt, cfg, part, *(a[part] for a in arrays)), n, 0)
        out.append((v.copy(), var_integral.copy()))
        done, first = tau, first + n_steps
    return out


def conditional_log_return(params, v0, tau, v, var_integral):
    """Mean and standard deviation of each path's ln(S_T/S), which is Gaussian
    given its variance path (``v`` at ``tau`` and ``var_integral``): mean
    I_r - I_v/2 + rho*W and variance (1 - rho^2)*I_v, with I_r = mu*tau + beta*I_v
    and W = Integral sqrt(v) dz2 read off the variance path."""
    rho = params.rho_sv
    w = (v - v0 - params.kappa * params.theta * tau + params.alpha * var_integral) / params.sigma
    mean = params.mu * tau + params.beta * var_integral - 0.5 * var_integral + rho * w
    return mean, np.sqrt((1.0 - rho * rho) * var_integral)
