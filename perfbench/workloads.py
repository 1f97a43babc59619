"""Seeded inputs for the three benchmark workloads.

Each workload becomes a list of :class:`Command`: the argv handed to
``svsir.cli.main`` plus what the output checker needs to know about it.  The
program only ever sees the config files written here; the seed only ever
reaches this module.  Inputs come from ``random.Random`` (stable across Python
versions), never from the numpy the program itself uses.

Why these workloads:

* ``sir_surface`` -- stochastic-rate prices (beta > 0).  The Riccati solver
  and the scalar bond loading it calls do >90% of the work, so the
  closed-form affine CF and any grid sharing show here.
* ``heston_calibration`` -- 48 constant-rate (beta = 0) draws, each one CLI
  command over a 9 x 8 grid.  The closed-form CF, the inversion and the CLI do
  the work; Riccati and Monte Carlo do none, so this is the no-change control
  for changes to those two, and the inversion runs here with a cheap CF where
  ``sir_surface`` runs it with an expensive one.
* ``mc_verify`` -- ``svsir verify`` on the example model: Monte Carlo does
  ~80% of the work, Riccati the rest, and its arrays set the peak RSS.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Copy of PARAM_BOX in tests/conftest.py: the benchmark must not import tests.
PARAM_BOX = {
    "kappa": (0.5, 4.0),
    "theta": (0.01, 0.16),
    "sigma": (0.1, 0.8),
    "lam": (-0.3, 1.0),
    "rho_sv": (-0.9, 0.5),
    "mu": (0.0, 0.08),
}
SIR_BETA = (0.25, 2.0)
VARIANCE = (0.01, 0.16)
ABS_TOL = 1e-9

# sir_surface: one draw per pass from each of three fixed cells of the box.
# The per-point cost of an unrestricted draw ranges over ~5x (mostly with
# sigma), and it is a step function of the inputs (phi_max doubles, panels
# split), so free draws or wide cells would let the seed set the throughput.  Each
# cell is centred at a box fraction of 0.25, 0.5 or 0.75 per axis (a Latin
# hypercube, so the three points cover the box on every axis) and a draw may
# move CELL_HALF_WIDTH of the box's width either way.
SIR_CELLS = (
    {"kappa": 0.25, "theta": 0.75, "sigma": 0.5, "lam": 0.25, "rho_sv": 0.75, "mu": 0.5, "beta": 0.25},
    {"kappa": 0.5, "theta": 0.25, "sigma": 0.75, "lam": 0.75, "rho_sv": 0.25, "mu": 0.75, "beta": 0.5},
    {"kappa": 0.75, "theta": 0.5, "sigma": 0.25, "lam": 0.5, "rho_sv": 0.5, "mu": 0.25, "beta": 0.75},
)
CELL_HALF_WIDTH = 0.002
SIR_STRIKES = (70.0, 85.0, 100.0, 115.0, 130.0)
SIR_MATURITIES = (0.25, 2.0)

HESTON_DRAWS = 48
HESTON_STRIKES = (70.0, 77.5, 85.0, 92.5, 100.0, 107.5, 115.0, 122.5, 130.0)
HESTON_MATURITIES = (0.02, 0.08, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)

# mc_verify: the model and 3 x 2 grid of configs/example.cfg, copied so that
# editing the example does not silently change the benchmark.
EXAMPLE_MODEL = {"kappa": 2.0, "theta": 0.04, "sigma": 0.3, "lam": 0.0, "rho_sv": -0.5, "mu": 0.03, "beta": 1.0}
EXAMPLE_STRIKES = (80.0, 100.0, 120.0)
EXAMPLE_MATURITIES = (0.5, 1.0)
MC_PATHS = 100_000
MC_STEPS_PER_YEAR = 250

WORKLOADS = ("sir_surface", "heston_calibration", "mc_verify")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the facts its output is checked against."""

    argv: tuple[str, ...]
    kind: str  # "price", "verify" or "bond"
    strikes: tuple[float, ...] = ()
    maturities: tuple[float, ...] = ()

    @property
    def points(self) -> int:
        """Option points the command is expected to write (bond rows are not points)."""
        return 0 if self.kind == "bond" else len(self.strikes) * len(self.maturities)


def _box(name: str, frac: float) -> float:
    lo, hi = (SIR_BETA if name == "beta" else PARAM_BOX[name])
    return lo + frac * (hi - lo)


def _fix_alpha(model: dict[str, float]) -> dict[str, float]:
    # same rule as the tests' draw_params: keep kappa + lam >= 0.3
    if model["kappa"] + model["lam"] < 0.3:
        model["lam"] = 0.3 - model["kappa"]
    return model


def _free_draw(rng: random.Random) -> dict[str, float]:
    model = {name: rng.uniform(*PARAM_BOX[name]) for name in PARAM_BOX}
    model["beta"] = 0.0
    return _fix_alpha(model)


def _cell_draw(rng: random.Random, cell: dict[str, float]) -> dict[str, float]:
    model = {
        name: _box(name, frac + rng.uniform(-CELL_HALF_WIDTH, CELL_HALF_WIDTH))
        for name, frac in cell.items()
    }
    return _fix_alpha(model)


def config_text(
    model: dict[str, float],
    spot: float,
    variance: float,
    strikes: tuple[float, ...],
    maturities: tuple[float, ...],
    mc_seed: int | None = None,
) -> str:
    """Config-file text in the CLI's sectioned ``key = value`` JSON format."""
    lines = ["[model]"]
    lines += [f"{key} = {json.dumps(model[key])}" for key in ("kappa", "theta", "sigma", "lam", "rho_sv", "mu", "beta")]
    lines += ["", "[market]", f"spot = {json.dumps(spot)}", f"variance = {json.dumps(variance)}"]
    lines += ["", "[grid]", f"strikes = {json.dumps(list(strikes))}", f"maturities = {json.dumps(list(maturities))}"]
    lines += ["", "[quadrature]", f"abs_tol = {json.dumps(ABS_TOL)}"]
    if mc_seed is not None:
        lines += ["", "[mc]", f"n_paths = {MC_PATHS}", f"n_steps_per_year = {MC_STEPS_PER_YEAR}", f"seed = {mc_seed}"]
    lines += ["", "[output]", 'format = "csv"', ""]
    return "\n".join(lines)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def generate(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's config files under ``workdir`` and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    commands: list[Command] = []

    if workload == "sir_surface":
        for i, cell in enumerate(SIR_CELLS):
            text = config_text(_cell_draw(rng, cell), 100.0, 0.04, SIR_STRIKES, SIR_MATURITIES)
            path = _write(workdir, f"sir_{i}.cfg", text)
            commands.append(Command(("price", "--config", path), "price", SIR_STRIKES, SIR_MATURITIES))

    elif workload == "heston_calibration":
        for i in range(HESTON_DRAWS):
            model = _free_draw(rng)
            variance = rng.uniform(*VARIANCE)
            text = config_text(model, 100.0, variance, HESTON_STRIKES, HESTON_MATURITIES)
            path = _write(workdir, f"heston_{i:02d}.cfg", text)
            commands.append(Command(("price", "--config", path), "price", HESTON_STRIKES, HESTON_MATURITIES))

    else:
        # the CLI seeds point i with mc_seed + i; keep it a valid non-negative seed
        mc_seed = seed % 2**32
        text = config_text(EXAMPLE_MODEL, 100.0, 0.04, EXAMPLE_STRIKES, EXAMPLE_MATURITIES, mc_seed=mc_seed)
        path = _write(workdir, "verify.cfg", text)
        commands.append(Command(("verify", "--config", path), "verify", EXAMPLE_STRIKES, EXAMPLE_MATURITIES))
        # the verify rows carry no bond column; the checker's lower bound
        # max(S - K*B, 0) takes B from the CLI's own bond table
        m = EXAMPLE_MODEL
        bond_argv = ["bond"]
        for flag, key in (("--kappa", "kappa"), ("--theta", "theta"), ("--sigma", "sigma"), ("--lam", "lam"),
                          ("--rho-sv", "rho_sv"), ("--mu", "mu"), ("--beta", "beta")):
            bond_argv += [flag, repr(m[key])]
        bond_argv += ["--variance", "0.04", "--tau-grid", ",".join(repr(t) for t in EXAMPLE_MATURITIES)]
        commands.append(Command(tuple(bond_argv), "bond", (), EXAMPLE_MATURITIES))

    return commands
