#!/usr/bin/env python3
"""Tabulate the affine discount bond against the constant-rate benchmark.

    python scripts/bond_curve.py --beta 1.0 --variance 0.04 > curve.csv

The columns are those of ``svsir bond`` (tau, F, G, B) plus the constant-rate
bond exp(-mu*tau) and the yield spread between the two.  They stay in this
script rather than in ``svsir bond`` because the benchmark's output checker
(perfbench/checks.py) accepts only the exact header ``tau,F,G,B`` from that
command, so two extra columns there would fail every point it checks.
"""
import argparse
import math
import sys

import numpy as np

from svsir import ModelParams, bond_price


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", type=float, default=2.0)
    ap.add_argument("--theta", type=float, default=0.04)
    ap.add_argument("--sigma", type=float, default=0.3)
    ap.add_argument("--lam", type=float, default=0.0)
    ap.add_argument("--mu", type=float, default=0.03)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--variance", type=float, default=0.04)
    ap.add_argument("--tau-max", type=float, default=30.0)
    ap.add_argument("--points", type=int, default=61)
    args = ap.parse_args()

    params = ModelParams(kappa=args.kappa, theta=args.theta, sigma=args.sigma,
                         lam=args.lam, rho_sv=0.0, mu=args.mu, beta=args.beta)
    print("tau,F,G,B,constant_rate_bond,yield_spread")
    for tau in np.linspace(0.0, args.tau_max, args.points):
        value = bond_price(params, args.variance, float(tau))
        flat = math.exp(-args.mu * tau)
        spread = 0.0 if tau == 0 else -math.log(value.price / flat) / tau
        print(f"{tau:.12g},{value.f_factor:.12g},{value.g_factor:.12g},"
              f"{value.price:.12g},{flat:.12g},{spread:.12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
