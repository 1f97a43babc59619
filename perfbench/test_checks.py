"""Self-test of the benchmark's output checks, tracer and speed probe.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import math
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

import checks
import run
import speed
import tracer as tracing
from workloads import Command

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

STRIKES = (80.0, 100.0, 120.0)
MATURITIES = (0.5, 1.0)
TOL = 1e-9


def _ncdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def price_table(corrupt=None) -> str:
    """Black-Scholes rows (r = 3%, vol = 20%) in the CLI's price format."""
    lines = [",".join(checks.PRICE_COLUMNS)]
    for tau in MATURITIES:
        bond = math.exp(-0.03 * tau)
        for k in STRIKES:
            d1 = (math.log(100.0 / (k * bond)) + 0.02 * tau) / (0.2 * math.sqrt(tau))
            r1, r2 = _ncdf(d1), _ncdf(d1 - 0.2 * math.sqrt(tau))
            row = {"model_tag": "heston", "S": 100.0, "K": k, "tau": tau, "v0": 0.04,
                   "price": 100.0 * r1 - k * bond * r2, "r1": r1, "r2": r2, "bond": bond, "err_estimate": 1e-11}
            if corrupt and corrupt[0] == (k, tau):
                row.update(corrupt[1])
            lines.append(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row.values()))
    return "\n".join(lines) + "\n"


def failures(stdout: str, exit_code: int = 0):
    return checks.failed_points("price", exit_code, stdout, STRIKES, MATURITIES, TOL)


def test_clean_table_passes():
    assert failures(price_table()) == {}


@pytest.mark.parametrize("change", [
    {"price": 101.0},            # above S
    {"price": 0.0},              # below S - K*B for an in-the-money call
    {"r1": 1.5},
    {"err_estimate": 1e-6},      # above abs_tol
    {"price": float("nan")},
])
def test_corrupted_row_fails_only_that_point(change):
    assert set(failures(price_table(((80.0, 1.0), change)))) == {(80.0, 1.0)}


def test_shape_in_strike():
    rises = failures(price_table(((120.0, 0.5), {"price": 30.0})))
    assert (120.0, 0.5) in rises
    bulge = failures(price_table(((100.0, 1.0), {"price": 14.0})))  # chord at 100 is ~13
    assert set(bulge) == {(100.0, 1.0)}


def test_failed_exit_fails_every_point():
    assert len(failures(price_table(), exit_code=3)) == len(STRIKES) * len(MATURITIES)
    assert len(failures("")) == len(STRIKES) * len(MATURITIES)


def test_missing_row_fails():
    table = "\n".join(line for line in price_table().splitlines() if ",120,1," not in line)
    assert set(failures(table)) == {(120.0, 1.0)}


def test_verify_z_limit():
    lines = [",".join(checks.VERIFY_COLUMNS)]
    for tau in MATURITIES:
        for k in STRIKES:
            z = 3.5 if (k, tau) == (100.0, 0.5) else 0.5
            price = max(100.0 - k * math.exp(-0.03 * tau), 0.0) + 5.0
            lines.append(f"sir_heston,100,{k:g},{tau:g},0.04,{price:.12g},{price:.12g},0.01,{z}")
    bonds = {tau: math.exp(-0.03 * tau) for tau in MATURITIES}
    bad = checks.failed_points("verify", 0, "\n".join(lines), STRIKES, MATURITIES, TOL, bonds)
    assert set(bad) == {(100.0, 0.5)}


def test_score_pass_counts_mismatch_and_failed_exit():
    cmds = [Command(("price", "--config", f"c{i}.cfg"), "price", STRIKES, MATURITIES) for i in range(3)]
    first = [(0, price_table(), "")] * 3
    later = [(0, price_table(), ""),
             (0, price_table(((80.0, 0.5), {"v0": 0.05})), ""),  # valid, but not byte-identical
             (3, "", "numerical failure: at K=80, tau=0.5")]
    written, failed, reasons = run.score_pass(cmds, later, first)
    assert written == 2 * len(STRIKES) * len(MATURITIES)
    assert failed == 2 * len(STRIKES) * len(MATURITIES)
    assert any("differs from the first pass" in r for r in reasons)
    assert any("exit 3" in r for r in reasons)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.start_pass(0)
    t.spans = [("cli.main", 0.0, 10.0, -1, 0), ("pricer.price_sir", 1.0, 9.0, 0, 0),
               ("riccati.integrate_cd_batch", 2.0, 5.0, 1, 0), ("riccati.integrate_cd_batch", 5.0, 8.0, 1, 0)]
    summary = t.summary()[0]
    assert summary["self_s"]["cli"] == pytest.approx(2.0)
    assert summary["self_s"]["pricer"] == pytest.approx(2.0)
    assert summary["self_s"]["riccati"] == pytest.approx(6.0)
    assert summary["spans"]["riccati.integrate_cd_batch"] == (2, pytest.approx(6.0))


def test_absent_target_is_reported_and_run_goes_on(monkeypatch):
    import svsir.bond

    original_price = svsir.bond.bond_price
    monkeypatch.delattr(svsir.bond, "g_of_tau")
    t = tracing.Tracer()
    t.start_pass(0)
    restore = tracing.install(t)
    try:
        assert svsir.bond.bond_price is not original_price
    finally:
        restore()
    assert t.absent == ["svsir.bond.g_of_tau"]
    assert svsir.bond.bond_price is original_price


def test_nominal_time_removes_probing_and_scales_by_speed():
    sampler = speed.Sampler()
    sampler.inside = [2 * speed.NOMINAL_S] * 3  # host at half speed while working
    sampler.outside = [2 * speed.NOMINAL_S]
    wall = 1.0 + sum(sampler.inside)
    assert sampler.nominal(wall) == pytest.approx(0.5)


def test_sampling_probes_inside_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.sampling() as sampler:
        end = perf_counter() + 3 * speed.PERIOD_S
        while perf_counter() < end:
            pass
    assert len(sampler.inside) >= 1 and len(sampler.outside) == 2 * speed.BRACKET
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
