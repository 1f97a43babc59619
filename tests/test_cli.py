import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from svsir import (MarketState, McConfig, McEstimate, ModelParams, OptionSpec, bond_price, price_grid, price_heston,
                   price_sir)
from svsir.cli import build_parser, load_run_config, main, parse_config_text
from svsir.inversion import QuadratureSpec

BASE_CONFIG = """
[model]
kappa = 2.0
theta = 0.04
sigma = 0.3
lambda = 0.0
rho_sv = -0.5
mu = 0.03
beta = {beta}

[market]
spot = 100.0
variance = {variance}

[grid]
strikes = {strikes}
maturities = {maturities}

[mc]
n_paths = {n_paths}
n_steps_per_year = {steps}
seed = {seed}

[output]
format = "{fmt}"
"""


def write_config(tmp_path, **kw):
    defaults = dict(beta=0.0, variance=0.04, strikes=[100.0], maturities=[1.0],
                    n_paths=2000, steps=50, seed=7, fmt="csv")
    defaults.update(kw)
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG.format(**{k: json.dumps(v) if isinstance(v, list) else v
                                          for k, v in defaults.items()}))
    return str(path)


EXAMPLE_CFG = str(Path(__file__).parents[1] / "configs" / "example.cfg")
# the README's bond example
BOND_ARGV = ["bond", "--kappa", "2", "--theta", "0.04", "--sigma", "0.3", "--mu", "0.03",
             "--beta", "1", "--variance", "0.04", "--tau-grid", "0,0.5,1,5"]


def run_python(args):
    """A fresh interpreter that imports this checkout's ``svsir``: (exit code, stdout, stderr)."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_config_text_errors():
    with pytest.raises(Exception, match="JSON"):
        parse_config_text("[model]\nkappa = not_json\n")
    with pytest.raises(Exception, match="section"):
        parse_config_text("kappa = 1.0\n")
    with pytest.raises(Exception, match="key = value"):
        parse_config_text("[model]\nbroken line\n")
    with pytest.raises(Exception, match="empty section name"):
        parse_config_text("[ ]\nkappa = 1.0\n")
    # a JSON value followed by more text is not a JSON value
    with pytest.raises(Exception, match="value is not valid JSON: '2.0 2'"):
        parse_config_text("[model]\nkappa = 2.0 2\n")


def test_price_single_strike_matches_library(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["price", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "model_tag,S,K,tau,v0,price,r1,r2,bond,err_estimate"
    assert len(out) == 2
    fields = out[1].split(",")
    assert fields[0] == "heston"
    p = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=0.0)
    ref = price_heston(p, MarketState(spot=100.0, variance=0.04, tau=1.0), OptionSpec(strike=100.0))
    assert float(fields[5]) == pytest.approx(ref.price, rel=1e-10)


def test_price_grid_ordering(tmp_path, capsys):
    cfg = write_config(tmp_path, strikes=[120.0, 80.0, 100.0], maturities=[1.0, 0.5])
    assert main(["price", "--config", cfg]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 6
    assert [(float(r[3]), float(r[2])) for r in rows] == [
        (0.5, 80.0), (0.5, 100.0), (0.5, 120.0), (1.0, 80.0), (1.0, 100.0), (1.0, 120.0)
    ]


def test_malformed_config_exits_2_without_output(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG.format(beta=0.0, variance=0.04, strikes=[100.0],
                                       maturities=[1.0], n_paths=2000, steps=50,
                                       seed=7, fmt="csv").replace("sigma = 0.3", "sigma = -0.3"))
    assert main(["price", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma" in captured.err
    # a sigma whose square underflows to 0 or overflows
    cfg = write_config(tmp_path)
    bond = ["bond", "--kappa", "2", "--theta", "0.04", "--sigma", "1e160", "--mu", "0.03", "--beta", "1",
            "--variance", "0.04", "--tau-grid", "0,0.5"]
    for argv in (bond, ["sweep", "--config", cfg, "--param", "sigma", "--values", "1e155"],
                 ["sweep", "--config", cfg, "--param", "sigma", "--values", "1e-200"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "sigma^2" in captured.err, captured.err


def test_missing_config_file_exits_2(capsys):
    assert main(["price", "--config", "/nonexistent/nowhere.cfg"]) == 2
    assert capsys.readouterr().out == ""


def test_numerical_failure_exits_3_with_context(tmp_path, capsys):
    # near-zero variance above the degenerate threshold with theta = 0: the tail decays on the s ladder only at
    # s = 4096, where the aliasing bound needs more midpoint nodes than the cap
    cfg = write_config(tmp_path, variance=1e-6)
    path = tmp_path / "run.cfg"
    text = path.read_text().replace("theta = 0.04", "theta = 0.0")
    path.write_text(text)
    assert main(["price", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # no partial output
    assert "K=100" in captured.err and "tau=1" in captured.err
    # a sigma whose square is subnormal gives a NaN ln F at tau = 0 and +inf at tau > 0, with the numpy
    # warning kept out of the way even where RuntimeWarnings are errors
    bond = ["bond", "--kappa", "2", "--theta", "0.04", "--sigma", "1e-160", "--mu", "0.03", "--beta", "1",
            "--variance", "0.04"]
    for taus, tau in (("0,0.5,1", "tau=0.0"), ("0.5,1", "tau=0.5")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(bond + ["--tau-grid", taus]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and tau in captured.err and "at sigma=1e-160" in captured.err, captured.err


def test_numerical_failure_names_the_strike_row(tmp_path, capsys):
    cfg = write_config(tmp_path, variance=1e-6, strikes=[80.0, 100.0, 120.0])
    Path(cfg).write_text(Path(cfg).read_text().replace("theta = 0.04", "theta = 0.0"))
    assert main(["price", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "at K=80,100,120, tau=1.0: " in captured.err, captured.err


def test_price_makes_one_surface_inversion_within_the_node_cap(tmp_path, capsys, monkeypatch):
    import svsir.bond
    import svsir.inversion
    from svsir.inversion import NODES_PER_CALL, S_LADDER

    inversions, bonds, calls = [], [], []
    inner_inversion, inner_bonds = svsir.inversion.gil_pelaez, svsir.bond._log_f_and_g

    def gil_pelaez(cf, *args, **kwargs):
        def eval_fn(m, phi):
            calls.append((m.copy(), phi.copy()))
            return cf(m, phi)

        inversions.append(args)
        return inner_inversion(eval_fn, *args, **kwargs)

    def log_f_and_g(*args):
        bonds.append(args)
        return inner_bonds(*args)

    monkeypatch.setattr(svsir.inversion, "gil_pelaez", gil_pelaez)
    monkeypatch.setattr(svsir.bond, "_log_f_and_g", log_f_and_g)
    maturities = [0.25 * k for k in range(1, 25)]
    cfg = write_config(tmp_path, beta=1.0, strikes=[80.0, 100.0, 120.0], maturities=maturities)
    assert main(["price", "--config", cfg, "--tol", "1e-12"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * len(maturities)
    # one inversion, and every maturity's bond in one call
    assert len(inversions) == 1 and len(bonds) == 1 and bonds[0][1].tolist() == maturities
    # one first call for both measures, holding the whole s ladder of every maturity and then each maturity's
    # moments on the imaginary axis
    w, ladder = inversions[0][2], len(maturities) * S_LADDER.size
    np.testing.assert_array_equal(calls[0][0][:ladder], np.repeat(range(len(maturities)), S_LADDER.size))
    np.testing.assert_array_equal(calls[0][1][:ladder], (S_LADDER / np.sqrt(w)[:, None]).ravel())
    assert np.all(calls[0][1][ladder:].real == 0.0) and calls[0][1].size > ladder
    # the midpoint nodes of these maturities outgrow one call, and are split at the cap
    assert max(phi.size for _, phi in calls[1:]) == NODES_PER_CALL


def test_json_output_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, fmt="json")
    assert main(["price", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 1
    assert records[0]["model_tag"] == "heston"
    assert records[0]["K"] == 100.0


def test_bond_command_rows(capsys):
    args = ["bond", "--kappa", "2", "--theta", "0.04", "--sigma", "0.3", "--mu", "0.03",
            "--beta", "1.0", "--variance", "0.04", "--tau-grid", "0,0.5,1"]
    assert main(args) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
    assert rows[0] == ["tau", "F", "G", "B"]
    assert float(rows[1][3]) == 1.0  # B(0, v) = 1
    p = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    ref = bond_price(p, 0.04, 1.0)
    assert float(rows[3][3]) == pytest.approx(ref.price, rel=1e-10)


def test_bond_command_constant_rate(capsys):
    args = ["bond", "--kappa", "2", "--theta", "0.04", "--sigma", "0.3", "--mu", "0.05",
            "--beta", "0.0", "--variance", "0.04", "--tau-grid", "0.5,1,2"]
    assert main(args) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    for row in rows:
        assert float(row[3]) == pytest.approx(math.exp(-0.05 * float(row[0])), rel=1e-12)


def test_verify_zero_vol_gives_zero_z(tmp_path, capsys):
    cfg = write_config(tmp_path, variance=0.0)
    path = tmp_path / "run.cfg"
    path.write_text(path.read_text().replace("theta = 0.04", "theta = 0.0"))
    assert main(["verify", "--config", str(path)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert all(float(r[-1]) == 0.0 for r in rows)


def test_verify_passes_on_honest_config(tmp_path, capsys):
    cfg = write_config(tmp_path, n_paths=20_000, steps=100, beta=0.5)
    assert main(["verify", "--config", cfg]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert all(abs(float(r[-1])) <= 3.0 for r in rows)


def test_verify_exit_4_on_discrepancy(tmp_path, capsys, monkeypatch):
    # force a biased oracle to exercise the failure path
    import svsir.cli as cli_mod

    def biased(params, spot, v0, strikes, maturities, cfg):
        return [McEstimate(mean=0.0, std_error=1e-6, n_paths=cfg.n_paths)
                for _ in maturities for _ in strikes]

    monkeypatch.setattr(cli_mod, "simulate_grid", biased)
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 4
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 2  # rows still emitted for inspection


def test_verify_exit_4_on_a_nan_score(capsys, monkeypatch):
    # a NaN estimate in the second row gives a NaN z; max(map(abs, scores)) would skip it, as it does not come first
    import svsir.cli as cli_mod

    def nan_in_row_2(params, spot, v0, strikes, maturities, cfg):
        prices = price_grid(params, spot, v0, strikes, maturities).price.ravel().tolist()
        return [McEstimate(mean=math.nan if i == 1 else price, std_error=math.nan if i == 1 else 1.0,
                           n_paths=cfg.n_paths) for i, price in enumerate(prices)]

    monkeypatch.setattr(cli_mod, "simulate_grid", nan_in_row_2)
    assert main(["verify", "--config", EXAMPLE_CFG, "--seed", "7"]) == 4
    rows = capsys.readouterr().out.splitlines()
    assert rows[2].endswith(",nan,nan,nan") and all(row.endswith(",0") for row in rows[1:2] + rows[3:])


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_verify_json_is_strict_when_mc_se_is_zero(tmp_path, capsys, monkeypatch):
    # an oracle with mc_se = 0 and a biased mean gives an infinite z, which
    # JSON has no number for
    import svsir.cli as cli_mod

    def biased(params, spot, v0, strikes, maturities, cfg):
        return [McEstimate(mean=0.0 if strike > 100.0 else 50.0, std_error=0.0, n_paths=cfg.n_paths)
                for _ in maturities for strike in strikes]

    monkeypatch.setattr(cli_mod, "simulate_grid", biased)
    cfg = write_config(tmp_path, strikes=[100.0, 300.0, 1000.0], fmt="json")
    assert main(["verify", "--config", cfg]) == 4
    records = [json.loads(line, parse_constant=_reject_constant)
               for line in capsys.readouterr().out.splitlines()]
    assert [r["K"] for r in records] == [100.0, 300.0, 1000.0]
    assert records[0]["mc_se"] == 0.0 and records[0]["z"] is None
    # deep out of the money, the price is 0 within abs_tol, and so is the biased mean
    for record in records[1:]:
        assert record["mc_se"] == 0.0 and record["z"] == 0.0


def test_verify_z_is_zero_within_the_requested_tolerance(tmp_path, capsys):
    # the K = 300 and 1000 rows price within --tol of 0, and the oracle's
    # deep out-of-the-money estimates are tiny with a tinier standard error:
    # a gap inside (S + K*bond)*abs_tol is not a discrepancy
    cfg = write_config(tmp_path, beta=1.0, strikes=[100.0, 300.0, 1000.0], maturities=[0.1],
                       n_paths=1000, seed=1, fmt="json")
    assert main(["verify", "--config", cfg, "--tol", "1e-6"]) == 0
    records = [json.loads(line, parse_constant=_reject_constant)
               for line in capsys.readouterr().out.splitlines()]
    assert [r["K"] for r in records] == [100.0, 300.0, 1000.0]
    assert abs(records[0]["z"]) <= 3.0
    assert [r["z"] for r in records[1:]] == [0.0, 0.0]


def test_verify_seed_override_changes_mc(tmp_path, capsys):
    cfg = write_config(tmp_path, n_paths=2000)
    main(["verify", "--config", cfg, "--seed", "1"])
    first = capsys.readouterr().out
    main(["verify", "--config", cfg, "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_verify_rejects_negative_seed(tmp_path, capsys):
    assert main(["verify", "--config", write_config(tmp_path), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed" in captured.err


def test_seed_flag_only_on_verify(tmp_path, capsys):
    # price and sweep never simulate, so they take no Monte Carlo seed
    cfg = write_config(tmp_path)
    for argv in (["price", "--config", cfg, "--seed", "1"],
                 ["sweep", "--config", cfg, "--param", "beta", "--values", "0", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, value", [("--variance", "nan"), ("--tau-grid", "1,nan")])
def test_bond_rejects_non_finite_inputs(capsys, flag, value):
    args = {"--variance": "0.04", "--tau-grid": "0,1", flag: value}
    argv = ["bond", "--kappa", "2", "--theta", "0.04", "--sigma", "0.3", "--mu", "0.03",
            "--beta", "1.0"] + [item for pair in args.items() for item in pair]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


def test_sweep_over_beta(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--param", "beta", "--values", "0,0.5,1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("param,value,model_tag")
    rows = [line.split(",") for line in out[1:]]
    assert len(rows) == 3
    assert [r[1] for r in rows] == ["0", "0.5", "1"]
    assert rows[0][2] == "heston" and rows[2][2] == "sir_heston"
    p = ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5, mu=0.03, beta=1.0)
    ref = price_sir(p, MarketState(spot=100.0, variance=0.04, tau=1.0), OptionSpec(strike=100.0))
    assert float(rows[2][7]) == pytest.approx(ref.price, rel=1e-9)


def _dict_path_stdout(argv):
    """Reference stdout of price, verify and sweep: one dict per row, each row formatted on its own."""
    from svsir.cli import PRICE_COLUMNS, VERIFY_COLUMNS, _json_value
    from svsir.mc import simulate_grid
    from svsir.pricer import price_grid

    args = build_parser().parse_args(argv)
    run = load_run_config(args.config, {("quadrature", "abs_tol"): args.tol, ("output", "format"): args.output,
                                        ("mc", "seed"): getattr(args, "seed", None)})
    swept = [(None, run.params)]
    if args.command == "sweep":
        swept = [(float(v), run.params.__class__(**{**run.params.__dict__, args.param: float(v)}))
                 for v in args.values.split(",")]
    rows = []
    for value, params in swept:
        grid = price_grid(params, run.spot, run.variance, run.strikes, run.maturities, run.quad)
        for m, tau in enumerate(run.maturities):
            for k, strike in enumerate(run.strikes):
                row = {"model_tag": grid.model_tag, "S": run.spot, "K": strike, "tau": tau, "v0": run.variance,
                       "price": float(grid.price[m, k]), "r1": float(grid.r1[m, k]), "r2": float(grid.r2[m, k]),
                       "bond": grid.bond[m].price, "err_estimate": float(grid.err_estimate[m, k])}
                rows.append(row if value is None else {"param": args.param, "value": value, **row})
    columns = ("param", "value") + PRICE_COLUMNS if args.command == "sweep" else PRICE_COLUMNS
    if args.command == "verify":
        columns = VERIFY_COLUMNS
        estimates = simulate_grid(run.params, run.spot, run.variance, run.strikes, run.maturities, run.mc)
        for row, est in zip(rows, estimates):
            diff = row["price"] - est.mean
            z = 0.0 if abs(diff) <= (row["S"] + row["K"] * row["bond"]) * run.quad.abs_tol else diff / est.std_error
            row.update(mc_mean=est.mean, mc_se=est.std_error, z=z)
    if run.out_format == "json":
        return "".join(json.dumps({c: _json_value(row[c]) for c in columns}) + "\n" for row in rows)
    cells = [",".join(f"{row[c]:.12g}" if isinstance(row[c], float) else str(row[c]) for c in columns) for row in rows]
    return "\n".join([",".join(columns)] + cells) + "\n"


@pytest.mark.parametrize("argv", [
    ["price", "--config", EXAMPLE_CFG],
    ["price", "--config", EXAMPLE_CFG, "--output", "json", "--tol", "1e-12"],
    ["sweep", "--config", EXAMPLE_CFG, "--param", "beta", "--values", "0,0.5,1,2"],
    ["sweep", "--config", EXAMPLE_CFG, "--param", "beta", "--values", "0,2", "--output", "json"],
    ["verify", "--config", "{small}"],
    ["verify", "--config", "{small}", "--output", "json"],
], ids=["price-csv", "price-json", "sweep-csv", "sweep-json", "verify-csv", "verify-json"])
def test_rows_formatted_from_the_grid_arrays_match_the_dict_path(tmp_path, capsys, argv):
    # the CLI writes its rows column-wise from the PriceGrid arrays; stdout is byte for byte what per-row dicts give
    small = write_config(tmp_path, beta=1.0, strikes=[80.0, 100.0, 120.0], maturities=[0.5, 1.0], n_paths=2000)
    argv = [arg.format(small=small) for arg in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out == _dict_path_stdout(argv)


def test_sweep_rejects_unknown_param(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--param", "gamma", "--values", "1,2"]) == 2


@pytest.mark.parametrize("edit, names", [
    (lambda t: t + '[quadratur]\nabs_tol = 1e-3\n', ["[quadratur]"]),
    (lambda t: t + '[ode]\nrel_tol = 1e-8\n', ["[ode]"]),
    (lambda t: t + '[quadrature]\nabstol = 1e-12\n', ["[quadrature]", "abstol"]),
    (lambda t: t.replace("kappa = 2.0", 'kappa = "two"'), ["[model]", "kappa"]),
    (lambda t: t.replace("kappa = 2.0", "kappa = true"), ["[model]", "kappa"]),
    (lambda t: t.replace("strikes = [100.0]", "strikes = 100.0"), ["[grid]", "strikes"]),
    (lambda t: t.replace("seed = 7", "seed = 7.9"), ["[mc]", "seed"]),
    (lambda t: t.replace("lambda = 0.0", "lambda = 0.0\nlam = 0.0"), ["[model]", "lam"]),
    (lambda t: t.replace("mu = 0.03", "mu = 0.03\nmu = 0.04"), ["[model]", "mu"]),
    (lambda t: t + '[quadrature]\nmax_subdivisions = 2048\n', ["run.cfg [quadrature]", "max_subdivisions"]),
    (lambda t: t + '[quadrature]\nphi_max = 10000.0\n', ["run.cfg [quadrature]", "phi_max"]),
    (lambda t: t.replace('format = "csv"', 'format = "xml"'), ["run.cfg [output] format", '"xml"']),
    (lambda t: t.replace("spot = 100.0\n", ""), ["run.cfg [market]", "missing keys ['spot']"]),
], ids=["misspelt-section", "old-ode-section", "misspelt-key", "string-number", "bool-number",
        "scalar-list", "non-integral-int", "lam-and-lambda", "repeated-key", "removed-max-subdivisions",
        "removed-phi-max", "unknown-format", "missing-key"])
def test_schema_rejects_malformed_config(tmp_path, capsys, edit, names):
    path = tmp_path / "run.cfg"
    path.write_text(edit(Path(write_config(tmp_path)).read_text()))
    assert main(["price", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(name in captured.err for name in names), captured.err


def test_comma_list_flags_exit_2(tmp_path, capsys):
    sweep = ["sweep", "--config", write_config(tmp_path), "--param", "beta", "--values", "0,abc"]
    empty_sweep = sweep[:-1] + [" , "]  # no numbers at all
    bond = ["bond", "--kappa", "2", "--theta", "0.04", "--sigma", "0.3", "--mu", "0.03",
            "--beta", "1.0", "--variance", "0.04", "--tau-grid", "0,x"]
    for argv, flag in ((sweep, "--values"), (empty_sweep, "--values: no numbers"), (bond, "--tau-grid")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err


def test_verify_without_mc_section_exits_2(tmp_path, capsys):
    path = Path(write_config(tmp_path))
    text = path.read_text()
    path.write_text(text[:text.index("[mc]")] + text[text.index("[output]"):])  # the [mc] section cut out
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "verify requires an [mc] section" in captured.err


def test_example_config_loads_under_schema():
    run = load_run_config(str(Path(__file__).parents[1] / "configs" / "example.cfg"))
    assert run.params == ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5,
                                     mu=0.03, beta=1.0)
    assert (run.spot, run.variance) == (100.0, 0.04)
    assert (run.strikes, run.maturities) == ((80.0, 100.0, 120.0), (0.5, 1.0))
    assert run.quad == QuadratureSpec()
    assert run.mc == McConfig(n_paths=200_000, n_steps_per_year=250, seed=7)
    assert run.out_format == "csv"


def test_config_defaults_are_the_dataclass_defaults(tmp_path):
    cfg = tmp_path / "defaults.cfg"
    text = BASE_CONFIG.format(beta=0.0, variance=0.04, strikes=[100.0], maturities=[1.0],
                              n_paths=2000, steps=50, seed=7, fmt="csv")
    # drop every [mc] key but n_paths; the config has no [quadrature] section
    cfg.write_text("\n".join(line for line in text.splitlines()
                             if not line.startswith(("n_steps_per_year", "seed"))))
    run = load_run_config(str(cfg))
    assert run.quad == QuadratureSpec()
    assert run.mc == McConfig(n_paths=2000)


def test_tol_and_output_flags_override_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    # 1e-2 is outside QuadratureSpec's range, so the override reached it
    assert main(["price", "--config", cfg, "--tol", "1e-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "abs_tol" in captured.err
    assert main(["price", "--config", cfg, "--output", "json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [r["K"] for r in records] == [100.0]


def test_range_errors_name_file_and_section(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["price", "--config", cfg, "--tol", "1e-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{cfg} [quadrature] abs_tol" in captured.err, captured.err
    assert main(["price", "--config", write_config(tmp_path, maturities=[-1.0, 1.0])]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{cfg} [grid]" in captured.err, captured.err


def test_feller_warning_goes_to_stderr_once(tmp_path, capsys):
    cfg = write_config(tmp_path)
    feller = tmp_path / "feller.cfg"
    feller.write_text(Path(cfg).read_text().replace("kappa = 2.0", "kappa = 1").replace("sigma = 0.3", "sigma = 0.5"))
    plain = tmp_path / "plain.cfg"
    plain.write_text(feller.read_text().replace("theta = 0.04", "theta = 0.2"))
    for argv, rows in ((["price"], 1), (["verify"], 1), (["sweep", "--param", "beta", "--values", "0,0.5"], 2)):
        assert main([argv[0], "--config", str(plain)] + argv[1:]) == 0
        assert capsys.readouterr().err == ""
        assert main([argv[0], "--config", str(feller)] + argv[1:]) == 0
        captured = capsys.readouterr()
        # one distinct warning, printed once, and none of it on stdout
        assert captured.err.count("warning: ") == captured.err.count("Feller") == 1, captured.err
        assert "warning" not in captured.out and len(captured.out.splitlines()) == 1 + rows


def test_price_path_never_imports_scipy():
    # scipy.special only makes Monte Carlo normals, and the thread pool only
    # runs Monte Carlo path slices; a fresh process that prices, sweeps and
    # tabulates bonds must load neither
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import svsir, svsir.cli
        cfg = {EXAMPLE_CFG!r}
        for argv in (["price", "--config", cfg],
                     ["sweep", "--config", cfg, "--param", "beta", "--values", "0,0.5"],
                     {BOND_ARGV!r}):
            with contextlib.redirect_stdout(io.StringIO()):
                assert svsir.cli.main(argv) == 0, argv
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
        assert "concurrent.futures" not in sys.modules
        params = svsir.ModelParams(kappa=2.0, theta=0.04, sigma=0.3, lam=0.0, rho_sv=-0.5,
                                   mu=0.03, beta=1.0)
        svsir.simulate_bond(params, 0.04, 1.0, svsir.McConfig(n_paths=1000))
        assert "scipy.special" in sys.modules
    """)
    code, out, err = run_python(["-c", script])
    assert code == 0, err


def test_cached_parser_leaks_no_state_between_commands(capsys):
    assert build_parser() is build_parser()
    sequence = [
        ["price", "--config", EXAMPLE_CFG],
        ["price"],  # no --config: argparse rejects it
        BOND_ARGV,
        ["price", "--config", EXAMPLE_CFG, "--output", "json"],
        ["sweep", "--config", EXAMPLE_CFG, "--param", "beta", "--values", "0,0.5"],
    ]
    codes = []
    for argv in sequence:
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        captured = capsys.readouterr()
        # each command prints what it prints in a process of its own
        assert (codes[-1], captured.out, captured.err) == run_python(["-m", "svsir.cli", *argv]), argv
    assert codes == [0, 2, 0, 0, 0]
