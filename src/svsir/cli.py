"""Command-line interface: pricing, bond curves, parameter sweeps, MC verification.

Subcommands
-----------
price   price a (strike x maturity) grid from a config file
bond    tabulate (tau, F, G, B) for inline model flags
verify  compare semi-analytic prices against Monte Carlo, z-score each point
sweep   re-price the grid while sweeping one model parameter over values

Config files are flat sectioned key = value text where every value parses as
JSON (numbers, strings in quotes, [lists]); see configs/example.cfg.  All
blocks are validated before any computation starts; nothing is printed until
a command has finished successfully, so a failing run leaves no partial
output.

Exit codes: 0 success; 2 invalid config or arguments; 3 numerical failure
(step-size underflow, non-decaying tail), with the failing point on stderr;
4 verification found |z| > 3.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

from . import bond as bond_mod
from .inversion import QuadratureSpec
from .mc import McConfig, simulate_price
from .model import (
    InvalidParameter,
    MarketState,
    ModelParams,
    NumericalError,
    OptionKind,
    OptionSpec,
    validate,
)
from .pricer import price_sir

PRICE_COLUMNS = ("model_tag", "S", "K", "tau", "v0", "price", "r1", "r2", "bond", "err_estimate")
VERIFY_COLUMNS = ("model_tag", "S", "K", "tau", "v0", "price", "mc_mean", "mc_se", "z")
BOND_COLUMNS = ("tau", "F", "G", "B")

_MODEL_KEYS = {
    "kappa": "kappa",
    "theta": "theta",
    "sigma": "sigma",
    "lambda": "lam",
    "lam": "lam",
    "rho_sv": "rho_sv",
    "mu": "mu",
    "beta": "beta",
}


class ConfigError(InvalidParameter):
    """Malformed or invalid configuration file."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, dict[str, object]]:
    """Parse sectioned ``key = value`` text with JSON-compatible values."""
    sections: dict[str, dict[str, object]] = {}
    current: dict[str, object] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        try:
            current[key.strip()] = json.loads(value.strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{origin}:{lineno}: value is not valid JSON: {value.strip()!r}") from exc
    return sections


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description built from a config file."""

    params: ModelParams
    spot: float
    variance: float
    strikes: tuple[float, ...]
    maturities: tuple[float, ...]
    quad: QuadratureSpec
    mc: McConfig | None
    out_format: str


def _require(section: dict[str, object], key: str, origin: str) -> object:
    if key not in section:
        raise ConfigError(f"{origin}: missing key {key!r}")
    return section[key]


def build_run_config(
    sections: dict[str, dict[str, object]],
    origin: str = "<config>",
    seed_override: int | None = None,
    tol_override: float | None = None,
    format_override: str | None = None,
) -> RunConfig:
    if "model" not in sections:
        raise ConfigError(f"{origin}: missing [model] section")
    model_raw = sections["model"]
    fields: dict[str, float] = {}
    for key, value in model_raw.items():
        if key not in _MODEL_KEYS:
            raise ConfigError(f"{origin}: unknown model key {key!r}")
        fields[_MODEL_KEYS[key]] = float(value)  # type: ignore[arg-type]
    missing = {"kappa", "theta", "sigma", "lam", "rho_sv", "mu", "beta"} - set(fields)
    if missing:
        raise ConfigError(f"{origin}: [model] missing {sorted(missing)}")
    params = ModelParams(**fields)
    validate(params)

    market = sections.get("market", {})
    spot = float(_require(market, "spot", origin + " [market]"))  # type: ignore[arg-type]
    variance = float(_require(market, "variance", origin + " [market]"))  # type: ignore[arg-type]

    grid = sections.get("grid", {})
    strikes = tuple(float(k) for k in _require(grid, "strikes", origin + " [grid]"))  # type: ignore[union-attr]
    maturities = tuple(float(t) for t in _require(grid, "maturities", origin + " [grid]"))  # type: ignore[union-attr]
    if not strikes or not maturities:
        raise ConfigError(f"{origin}: [grid] strikes and maturities must be non-empty")

    quad_raw = sections.get("quadrature", {})
    quad = QuadratureSpec(
        abs_tol=float(tol_override if tol_override is not None else quad_raw.get("abs_tol", 1e-9)),  # type: ignore[arg-type]
        phi_max=float(quad_raw.get("phi_max", 1e4)),  # type: ignore[arg-type]
        max_subdivisions=int(quad_raw.get("max_subdivisions", 2048)),  # type: ignore[arg-type]
    )

    mc_cfg: McConfig | None = None
    if "mc" in sections:
        mc_raw = sections["mc"]
        mc_cfg = McConfig(
            n_paths=int(_require(mc_raw, "n_paths", origin + " [mc]")),  # type: ignore[arg-type]
            n_steps_per_year=int(mc_raw.get("n_steps_per_year", 250)),  # type: ignore[arg-type]
            seed=int(seed_override if seed_override is not None else mc_raw.get("seed", 0)),  # type: ignore[arg-type]
        )

    out_format = str(format_override or sections.get("output", {}).get("format", "csv"))
    if out_format not in ("csv", "json"):
        raise ConfigError(f"{origin}: output format must be 'csv' or 'json', got {out_format!r}")

    # sanity-check the market/grid values eagerly so nothing runs on bad input
    MarketState(spot=spot, variance=variance, tau=maturities[0])
    for strike in strikes:
        OptionSpec(strike=strike)
    for tau in maturities:
        if not (math.isfinite(tau) and tau >= 0):
            raise ConfigError(f"{origin}: maturity must be >= 0, got {tau}")

    return RunConfig(
        params=params,
        spot=spot,
        variance=variance,
        strikes=tuple(sorted(strikes)),
        maturities=tuple(sorted(maturities)),
        quad=quad,
        mc=mc_cfg,
        out_format=out_format,
    )


def load_run_config(path: str, **overrides) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return build_run_config(parse_config_text(text, origin=path), origin=path, **overrides)


def _emit(rows: list[dict[str, object]], columns: tuple[str, ...], out_format: str) -> None:
    if out_format == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(_fmt(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
    else:
        for row in rows:
            record = {
                c: (float(_fmt(row[c])) if isinstance(row[c], float) else row[c]) for c in columns
            }
            print(json.dumps(record))


def _price_rows(run: RunConfig) -> list[dict[str, object]]:
    rows = []
    for tau in run.maturities:
        state = MarketState(spot=run.spot, variance=run.variance, tau=tau)
        for strike in run.strikes:
            opt = OptionSpec(strike=strike, kind=OptionKind.CALL)
            try:
                res = price_sir(run.params, state, opt, run.quad)
            except NumericalError as exc:
                raise NumericalError(f"at K={strike}, tau={tau}: {exc}") from exc
            rows.append(
                {
                    "model_tag": res.model_tag,
                    "S": run.spot,
                    "K": strike,
                    "tau": tau,
                    "v0": run.variance,
                    "price": res.price,
                    "r1": res.r1,
                    "r2": res.r2,
                    "bond": res.bond.price,
                    "err_estimate": res.err_estimate,
                }
            )
    return rows


def cmd_price(args: argparse.Namespace) -> int:
    run = load_run_config(args.config, tol_override=args.tol, format_override=args.output)
    rows = _price_rows(run)
    _emit(rows, PRICE_COLUMNS, run.out_format)
    return 0


def cmd_bond(args: argparse.Namespace) -> int:
    params = ModelParams(
        kappa=args.kappa,
        theta=args.theta,
        sigma=args.sigma,
        lam=args.lam,
        rho_sv=args.rho_sv,
        mu=args.mu,
        beta=args.beta,
    )
    validate(params)
    taus = [float(t) for t in args.tau_grid.split(",") if t.strip()]
    if not taus or any(t < 0 for t in taus):
        raise ConfigError(f"tau-grid: need non-negative maturities, got {args.tau_grid!r}")
    rows = []
    for tau in taus:
        value = bond_mod.bond_price(params, args.variance, tau)
        rows.append({"tau": tau, "F": value.f_factor, "G": value.g_factor, "B": value.price})
    _emit(rows, BOND_COLUMNS, args.output or "csv")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    run = load_run_config(
        args.config,
        seed_override=args.seed,
        tol_override=args.tol,
        format_override=args.output,
    )
    if run.mc is None:
        raise ConfigError(f"{args.config}: verify requires an [mc] section")
    rows = _price_rows(run)
    worst = 0.0
    # rows run maturities outer, strikes inner: point i draws MC seed + i
    for point, row in enumerate(rows):
        state = MarketState(spot=run.spot, variance=run.variance, tau=row["tau"])
        opt = OptionSpec(strike=row["K"], kind=OptionKind.CALL)
        cfg = dataclasses.replace(run.mc, seed=run.mc.seed + point)
        est = simulate_price(run.params, state, opt, cfg)
        diff = row["price"] - est.mean
        if est.std_error == 0.0:
            z = 0.0 if abs(diff) < 1e-9 else math.copysign(math.inf, diff)
        else:
            z = diff / est.std_error
        worst = max(worst, abs(z))
        row.update(mc_mean=est.mean, mc_se=est.std_error, z=z)
    _emit(rows, VERIFY_COLUMNS, run.out_format)
    return 0 if worst <= 3.0 else 4


def cmd_sweep(args: argparse.Namespace) -> int:
    run = load_run_config(args.config, tol_override=args.tol, format_override=args.output)
    if args.param not in _MODEL_KEYS:
        raise ConfigError(f"sweep param must be one of {sorted(set(_MODEL_KEYS))}, got {args.param!r}")
    field = _MODEL_KEYS[args.param]
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"sweep values: none parsed from {args.values!r}")
    rows = []
    for value in values:
        params = dataclasses.replace(run.params, **{field: value})
        validate(params)
        swept = dataclasses.replace(run, params=params)
        for row in _price_rows(swept):
            rows.append({"param": args.param, "value": value, **row})
    _emit(rows, ("param", "value") + PRICE_COLUMNS, run.out_format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svsir",
        description="European option pricing under stochastic volatility with an affine stochastic short rate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a sectioned key=value config file")
        p.add_argument("--output", choices=("csv", "json"), default=None, help="output format override")
        p.add_argument("--tol", type=float, default=None, help="quadrature abs_tol override")

    p_price = sub.add_parser("price", help="price the configured strike/maturity grid")
    add_common(p_price)
    p_price.set_defaults(func=cmd_price)

    p_bond = sub.add_parser("bond", help="tabulate the discount bond over a tau grid")
    p_bond.add_argument("--kappa", type=float, required=True)
    p_bond.add_argument("--theta", type=float, required=True)
    p_bond.add_argument("--sigma", type=float, required=True)
    p_bond.add_argument("--lam", type=float, default=0.0)
    p_bond.add_argument("--rho-sv", dest="rho_sv", type=float, default=0.0)
    p_bond.add_argument("--mu", type=float, required=True)
    p_bond.add_argument("--beta", type=float, required=True)
    p_bond.add_argument("--variance", type=float, required=True, help="current instantaneous variance v")
    p_bond.add_argument("--tau-grid", required=True, help="comma-separated maturities in years")
    p_bond.add_argument("--output", choices=("csv", "json"), default=None)
    p_bond.set_defaults(func=cmd_bond)

    p_verify = sub.add_parser("verify", help="z-score semi-analytic prices against Monte Carlo")
    add_common(p_verify)
    p_verify.add_argument("--seed", type=int, default=None, help="Monte Carlo seed override")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="re-price the grid while sweeping one model parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="model parameter name to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated parameter values")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InvalidParameter as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
