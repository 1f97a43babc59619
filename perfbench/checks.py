"""Output checks: which option points a CLI command got right.

A point fails when its command exits non-zero, when its row is missing, or
when its row breaks a no-arbitrage or accuracy condition:

* every field is finite;
* ``price`` rows: ``r1, r2`` in [0, 1] and ``err_estimate <= abs_tol``;
* ``max(S - K*bond, 0) <= price <= S``;
* within each maturity the price is non-increasing and convex in K;
* ``verify`` rows: ``|z| <= 3`` (the CLI also exits 4 then).

Inequalities allow the error the user asked for: each probability may be off
by ``abs_tol``, so the price may be off by ``(S + K*bond) * abs_tol``, plus
the rounding of the 12 printed significant digits.  The row's own
``err_estimate`` is not used as the slack: at tau = 0.02 it understates the
error of deep in- and out-of-the-money probabilities (r1 = -1e-10 next to a
smaller estimate), though the error stays inside ``abs_tol``.
"""
from __future__ import annotations

import math

PRICE_COLUMNS = ("model_tag", "S", "K", "tau", "v0", "price", "r1", "r2", "bond", "err_estimate")
VERIFY_COLUMNS = ("model_tag", "S", "K", "tau", "v0", "price", "mc_mean", "mc_se", "z")
BOND_COLUMNS = ("tau", "F", "G", "B")
HEADERS = {"price": PRICE_COLUMNS, "verify": VERIFY_COLUMNS, "bond": BOND_COLUMNS}
Z_LIMIT = 3.0
PRINT_REL = 1e-11  # rounding of a value printed with 12 significant digits


def parse_rows(kind: str, stdout: str) -> list[dict[str, float]] | None:
    """Rows of a CSV table as floats (``model_tag`` kept as text); None if malformed."""
    lines = stdout.splitlines()
    columns = HEADERS[kind]
    if not lines or tuple(lines[0].split(",")) != columns:
        return None
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(columns):
            return None
        row: dict[str, float] = {}
        for name, text in zip(columns, fields):
            if name == "model_tag":
                row[name] = text  # type: ignore[assignment]
                continue
            try:
                row[name] = float(text)
            except ValueError:
                return None
        rows.append(row)
    return rows


def bond_table(stdout: str) -> dict[float, float]:
    """Maturity -> bond price from ``svsir bond`` output (empty if malformed)."""
    rows = parse_rows("bond", stdout) or []
    return {row["tau"]: row["B"] for row in rows if math.isfinite(row["B"])}


def _price_slack(row: dict[str, float], bond: float, abs_tol: float) -> float:
    return (row["S"] + row["K"] * bond) * abs_tol + PRINT_REL * row["S"]


def failed_points(
    kind: str,
    exit_code: int,
    stdout: str,
    strikes: tuple[float, ...],
    maturities: tuple[float, ...],
    abs_tol: float,
    bonds: dict[float, float] | None = None,
) -> dict[tuple[float, float], str]:
    """Failed points of an option-pricing command, (K, tau) -> first reason.

    ``bonds`` maps maturity to bond price for ``verify`` rows, which carry no
    bond column.  Returns an empty dict when every expected point is correct.
    """
    expected = sorted((k, t) for k in strikes for t in maturities)
    rows = parse_rows(kind, stdout)
    if exit_code != 0 or rows is None:
        reason = f"exit {exit_code}" if exit_code != 0 else "malformed output"
        return {key: reason for key in expected}
    seen = {(row["K"], row["tau"]): row for row in rows}
    if len(seen) != len(rows) or not set(seen) <= set(expected):
        return {key: "duplicate or unexpected rows" for key in expected}

    failed: dict[tuple[float, float], str] = {key: "missing row" for key in expected if key not in seen}
    slack: dict[tuple[float, float], float] = {}
    for key, row in sorted(seen.items()):
        if not all(math.isfinite(v) for name, v in row.items() if name != "model_tag"):
            failed[key] = "non-finite value"
            continue
        if kind == "price":
            bond = row["bond"]
            if not 0.0 <= row["err_estimate"] <= abs_tol:
                failed[key] = f"err_estimate {row['err_estimate']:g} outside [0, {abs_tol:g}]"
                continue
            if not all(-abs_tol <= row[r] <= 1.0 + abs_tol for r in ("r1", "r2")):
                failed[key] = f"r1={row['r1']:.12g} r2={row['r2']:.12g} outside [0, 1]"
                continue
        else:
            if key[1] not in (bonds or {}):
                failed[key] = "no bond price for this maturity"
                continue
            bond = bonds[key[1]]  # type: ignore[index]
            if not abs(row["z"]) <= Z_LIMIT:
                failed[key] = f"|z| = {abs(row['z']):.3g} > {Z_LIMIT:g}"
                continue
        tol = _price_slack(row, bond, abs_tol)
        lower = max(row["S"] - row["K"] * bond, 0.0)
        if not lower - tol <= row["price"] <= row["S"] + tol:
            failed[key] = f"price {row['price']:.12g} outside [{lower:.12g}, {row['S']:g}]"
            continue
        slack[key] = tol

    # shape in K, over the rows that passed the checks above
    for tau in maturities:
        ks = sorted(k for k, t in slack if t == tau)
        p = [seen[(k, tau)]["price"] for k in ks]
        s = [slack[(k, tau)] for k in ks]
        for i in range(1, len(ks)):
            if p[i] > p[i - 1] + s[i] + s[i - 1]:
                failed.setdefault((ks[i], tau), "price rises with K")
        for i in range(1, len(ks) - 1):
            w = (ks[i + 1] - ks[i]) / (ks[i + 1] - ks[i - 1])
            chord = w * p[i - 1] + (1.0 - w) * p[i + 1]
            if p[i] > chord + s[i - 1] + s[i] + s[i + 1]:
                failed.setdefault((ks[i], tau), "price not convex in K")
    return failed
