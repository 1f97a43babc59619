"""Command-line interface: pricing, bond curves, parameter sweeps, MC verification.

Subcommands
-----------
price   price a (strike x maturity) grid from a config file
bond    tabulate (tau, F, G, B) for inline model flags
verify  compare semi-analytic prices against one Monte Carlo path set, z-score each point
sweep   re-price the grid while sweeping one model parameter over values

Config files are flat sectioned key = value text where every value parses as
JSON (numbers, strings in quotes, [lists]); see configs/example.cfg.  The
``SCHEMA`` table names every section and key with its parser and default
(``None``: required); ``[model]``, ``[quadrature]`` and ``[mc]`` are read off
the fields of ``ModelParams``, ``QuadratureSpec`` and ``McConfig``.  Unknown sections or keys, duplicate keys (``lambda`` is
``lam``), bools or strings for numbers, non-integral integers and values out
of range exit 2, naming the file and the section.
``--tol``, ``--output`` and ``--seed`` overwrite ``[quadrature] abs_tol``,
``[output] format`` and ``[mc] seed`` before that one validation pass, which
runs before any computation.  stdout is written only once a command has
succeeded; model warnings (Feller) go to stderr as ``warning: ...``.

Exit codes: 0 success; 2 invalid config or arguments; 3 numerical failure
(non-decaying tail, midpoint node cap reached), naming the failing maturity and
the strikes of its row on stderr, or a bond factor that is NaN or infinite (a
sigma^2 so small that its reciprocal overflows), naming sigma and the maturity;
4 verification found |z| > 3.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable

from . import bond as bond_mod
from .inversion import QuadratureSpec
from .mc import McConfig, simulate_grid
from .model import (
    InvalidParameter,
    MarketState,
    ModelParams,
    NumericalError,
    OptionSpec,
    check_nonnegative,
    validate,
)
from .pricer import price_grid

PRICE_COLUMNS = ("model_tag", "S", "K", "tau", "v0", "price", "r1", "r2", "bond", "err_estimate")
VERIFY_COLUMNS = ("model_tag", "S", "K", "tau", "v0", "price", "mc_mean", "mc_se", "z")
BOND_COLUMNS = ("tau", "F", "G", "B")

MODEL_FIELDS = tuple(field.name for field in dataclasses.fields(ModelParams))
MODEL_ALIASES = {"lambda": "lam"}


class ConfigError(InvalidParameter):
    """Malformed or invalid configuration file."""


_JSON = json.JSONDecoder()


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _number(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    return float(value)


def _integer(value: Any) -> int:
    if not _number(value).is_integer():
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def _sorted_numbers(value: Any) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"expected a non-empty [list] of numbers, got {json.dumps(value)}")
    return tuple(sorted(_number(item) for item in value))


def _format(value: Any) -> str:
    if value not in ("csv", "json"):
        raise ValueError(f'expected "csv" or "json", got {json.dumps(value)}')
    return value


def _fields(cls: type) -> dict[str, tuple[Callable[[Any], Any], Any]]:
    """One key per field of dataclass ``cls``, parsed by its annotation, defaulting to its default."""
    parsers = {"float": _number, "int": _integer}  # postponed annotations: field.type is a string
    return {f.name: (parsers[f.type], None if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls)}


# section -> key -> (parser of the JSON value, default); default None = required
SCHEMA: dict[str, dict[str, tuple[Callable[[Any], Any], Any]]] = {
    "model": _fields(ModelParams),
    "market": {"spot": (_number, None), "variance": (_number, None)},
    "grid": {"strikes": (_sorted_numbers, None), "maturities": (_sorted_numbers, None)},
    "quadrature": _fields(QuadratureSpec),
    "mc": _fields(McConfig),
    "output": {"format": (_format, "csv")},
}


def _checked(parse: Callable[[Any], Any], value: Any, where: str) -> Any:
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, dict[str, Any]]:
    """Parse sectioned ``key = value`` text with JSON-compatible values."""
    sections: dict[str, dict[str, Any]] = {}
    current: dict[str, Any] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            current = sections.setdefault(name, {})
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside of any [section]")
        key, value = key.strip(), value.strip()
        if key in current:
            raise ConfigError(f"{origin}:{lineno}: [{name}] key {key!r} given twice")
        # json.loads without its whitespace scans: the value is stripped, so it is JSON only if it parses to its end
        try:
            current[key], end = _JSON.raw_decode(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{origin}:{lineno}: value is not valid JSON: {value!r}") from exc
        if end != len(value):
            raise ConfigError(f"{origin}:{lineno}: value is not valid JSON: {value!r}")
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


def _section(sections: dict[str, dict[str, Any]], name: str, origin: str) -> dict[str, Any]:
    """Every key of ``SCHEMA[name]``, parsed from ``sections[name]`` or defaulted."""
    spec = SCHEMA[name]
    raw, given = sections.get(name, {}), {}
    for key, value in raw.items():
        field = MODEL_ALIASES.get(key, key)
        if field not in spec:
            raise ConfigError(f"{origin} [{name}]: unknown key {key!r}")
        if field in given:
            names = [k for k in raw if MODEL_ALIASES.get(k, k) == field]
            raise ConfigError(f"{origin} [{name}]: key {field!r} given twice, as {' and '.join(names)}")
        try:
            given[field] = spec[field][0](value)
        except ValueError as exc:
            raise ConfigError(f"{origin} [{name}] {key}: {exc}") from exc
    missing = [key for key, (_, default) in spec.items() if default is None and key not in given]
    if missing:
        raise ConfigError(f"{origin} [{name}]: missing keys {missing}")
    return {key: given.get(key, default) for key, (_, default) in spec.items()}


def _ranged(where: str, build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, with a range error re-raised naming ``where``."""
    try:
        return build(*args, **kwargs)
    except InvalidParameter as exc:
        raise ConfigError(f"{where} {exc}") from exc


def build_run_config(sections: dict[str, dict[str, Any]], origin: str = "<config>") -> RunConfig:
    for name in sections:
        if name not in SCHEMA:
            raise ConfigError(f"{origin}: unknown section [{name}]")
    params = ModelParams(**_section(sections, "model", origin))
    _ranged(f"{origin} [model]", validate, params)
    market = _section(sections, "market", origin)
    grid = _section(sections, "grid", origin)
    quad = _ranged(f"{origin} [quadrature]", QuadratureSpec, **_section(sections, "quadrature", origin))
    mc_cfg = None
    if "mc" in sections:
        mc_cfg = _ranged(f"{origin} [mc]", McConfig, **_section(sections, "mc", origin))
    out_format = _section(sections, "output", origin)["format"]

    # range-check the market and grid eagerly so nothing runs on bad input
    _ranged(f"{origin} [market]", MarketState, **market, tau=0.0)
    _ranged(f"{origin} [grid] maturities:", check_nonnegative, "tau", grid["maturities"])
    _ranged(f"{origin} [grid] strikes:", lambda: [OptionSpec(strike=strike) for strike in grid["strikes"]])
    return RunConfig(params=params, **market, **grid, quad=quad, mc=mc_cfg, out_format=out_format)


def load_run_config(path: str, overrides: dict[tuple[str, str], Any] | None = None) -> RunConfig:
    """Read, override (``(section, key) -> value``, ``None`` skipped) and validate a config."""
    try:
        with open(path, "rb") as fh:  # read as bytes: splitlines() ends lines as text mode's newline handling would
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    sections = parse_config_text(data.decode("utf-8"), origin=path)
    for (name, key), value in (overrides or {}).items():
        if value is not None:
            sections.setdefault(name, {})[key] = value
    return build_run_config(sections, origin=path)


def _load(args: argparse.Namespace) -> RunConfig:
    overrides = {("quadrature", "abs_tol"): args.tol, ("output", "format"): args.output}
    return load_run_config(args.config, {**overrides, ("mc", "seed"): getattr(args, "seed", None)})


def _comma_numbers(text: str, flag: str) -> list[float]:
    values = [_checked(float, entry, flag) for entry in text.split(",") if entry.strip()]
    if not values:
        raise ConfigError(f"{flag}: no numbers in {text!r}")
    return values


def _warn(*params: ModelParams) -> None:
    """Validate each parameter set; write each distinct model warning once to stderr."""
    for message in dict.fromkeys(w for p in params for w in validate(p).warnings):
        print(f"warning: {message}", file=sys.stderr)


def _json_value(value: object) -> object:
    """A float at 12 significant digits; JSON has no inf or nan, so those become null."""
    if not isinstance(value, float):
        return value
    return float(_fmt(value)) if math.isfinite(value) else None


def _emit(table: dict[str, list[Any]], out_format: str) -> None:
    """Write a table given as columns of equal length, headed by its keys, one row per line."""
    rows = zip(*table.values())
    if out_format == "csv":
        print(",".join(table))
        if any(table.values()):
            # one format per table, as _fmt and str would give: each column holds one type
            line = ",".join("%.12g" if isinstance(values[0], float) else "%s" for values in table.values())
            print("\n".join(line % row for row in rows))
    else:
        for row in rows:
            print(json.dumps({c: _json_value(value) for c, value in zip(table, row)}, allow_nan=False))


def _price_table(run: RunConfig) -> dict[str, list[Any]]:
    """The ``PRICE_COLUMNS`` of the grid's rows, maturities outer, straight from the ``PriceGrid`` arrays."""
    grid = price_grid(run.params, run.spot, run.variance, run.strikes, run.maturities, run.quad)
    count, per_tau = grid.price.size, len(run.strikes)
    return dict(zip(PRICE_COLUMNS, (
        [grid.model_tag] * count, [run.spot] * count, list(run.strikes) * len(run.maturities),
        [tau for tau in run.maturities for _ in range(per_tau)], [run.variance] * count,
        grid.price.ravel().tolist(), grid.r1.ravel().tolist(), grid.r2.ravel().tolist(),
        [bond.price for bond in grid.bond for _ in range(per_tau)], grid.err_estimate.ravel().tolist())))


def cmd_price(args: argparse.Namespace) -> int:
    run = _load(args)
    _warn(run.params)
    _emit(_price_table(run), run.out_format)
    return 0


def cmd_bond(args: argparse.Namespace) -> int:
    params = ModelParams(**{name: getattr(args, name) for name in MODEL_FIELDS})
    validate(params)
    taus = _comma_numbers(args.tau_grid, "--tau-grid")
    _ranged("--variance:", check_nonnegative, "variance", args.variance)
    _ranged("--tau-grid:", check_nonnegative, "tau", taus)
    values = bond_mod.bond_values(params, args.variance, taus)
    _emit(dict(zip(BOND_COLUMNS, (taus, [value.f_factor for value in values], [value.g_factor for value in values],
                                  [value.price for value in values]))), args.output or "csv")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    run = _load(args)
    if run.mc is None:
        raise ConfigError(f"{args.config}: verify requires an [mc] section")
    _warn(run.params)
    table = _price_table(run)
    # one path set for the whole grid, in _price_table's order: maturities outer
    estimates = simulate_grid(run.params, run.spot, run.variance, run.strikes, run.maturities, run.mc)
    scores = []
    for price, spot, strike, bond, est in zip(table["price"], table["S"], table["K"], table["bond"], estimates):
        diff = price - est.mean
        # the price is only asked to be right to abs_tol in probability, that is
        # to (S + K*bond)*abs_tol in price: a gap inside that is no discrepancy
        if abs(diff) <= (spot + strike * bond) * run.quad.abs_tol:
            scores.append(0.0)
        elif est.std_error == 0.0:
            scores.append(math.copysign(math.inf, diff))
        else:
            scores.append(diff / est.std_error)
    table.update(mc_mean=[est.mean for est in estimates], mc_se=[est.std_error for est in estimates], z=scores)
    _emit({c: table[c] for c in VERIFY_COLUMNS}, run.out_format)
    # a NaN score (a NaN estimate) is no pass
    return 0 if all(abs(z) <= 3.0 for z in scores) else 4


def cmd_sweep(args: argparse.Namespace) -> int:
    run = _load(args)
    field = MODEL_ALIASES.get(args.param, args.param)
    if field not in MODEL_FIELDS:
        names = sorted(MODEL_FIELDS + tuple(MODEL_ALIASES))
        raise ConfigError(f"sweep param must be one of {names}, got {args.param!r}")
    values = _comma_numbers(args.values, "--values")
    swept = [dataclasses.replace(run.params, **{field: value}) for value in values]
    _warn(*swept)
    parts = [_price_table(dataclasses.replace(run, params=params)) for params in swept]
    _emit({"param": [args.param for part in parts for _ in part["price"]],
           "value": [value for value, part in zip(values, parts) for _ in part["price"]],
           **{c: [cell for part in parts for cell in part[c]] for c in PRICE_COLUMNS}}, run.out_format)
    return 0


# built once per process: parse_args leaves the parser as it found it
@functools.cache
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
    for name in MODEL_FIELDS:  # --lam and --rho-sv default to 0
        default = 0.0 if name in ("lam", "rho_sv") else None
        p_bond.add_argument(f"--{name.replace('_', '-')}", type=float, default=default, required=default is None)
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
