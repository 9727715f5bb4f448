"""Averaged sum bounds on the unit square, against the exact spectrum.

The Neumann eigenvalues of the unit square are pi^2 (m^2 + n^2), so every
bound here is checked against closed-form truth.  The slack column shows
the semiclassical approach: the ratio of the computed sum to its bound
climbs toward 1 as k grows.

Run:  python3 demos/square_sums.py
"""

import math

import numpy as np

from spectral_bounds import (Box, ProblemSpec, QuadratureGrid, bound_context,
                             heat_lower_bound, kroger_avg_bound,
                             rectangle_neumann_exact, riesz_lower_bound)


def main():
    prob = ProblemSpec(Box((1.0, 1.0)))
    ctx = bound_context(prob, QuadratureGrid(prob.domain, 64))
    spec = rectangle_neumann_exact(1.0, 1.0, count=120)

    print("Averaged bound on eigenvalue sums, unit square")
    print(f"{'k':>4} {'sum mu_j':>12} {'bound 2 pi k^2':>15} {'slack':>8}")
    for k in (1, 2, 5, 10, 20, 50, 100):
        rep = kroger_avg_bound(ctx, k, spec)
        slack = "-" if rep.slack_ratio is None else f"{rep.slack_ratio:.3f}"
        print(f"{k:>4} {rep.computed_value:>12.2f} {rep.bound_value:>15.2f}"
              f" {slack:>8}")

    print("\nRiesz-mean lower bound z^2/(8 pi) at sample levels")
    for z in (50.0, 200.0, 800.0):
        rep = riesz_lower_bound(ctx, z, spec)
        status = "ok" if rep.holds else "VIOLATED"
        print(f"  z={z:<6g} computed={rep.computed_value:>10.2f} "
              f"bound={rep.bound_value:>10.2f}  {status}")

    print("\nHeat-trace lower bound 1/(4 pi t)")
    for t in (0.05, 0.2, 1.0):
        rep = heat_lower_bound(ctx, t, spec)
        status = "ok" if rep.holds else "VIOLATED"
        print(f"  t={t:<5g} trace={rep.computed_value:>9.4f} "
              f"floor={rep.bound_value:>9.4f}  {status}")

    k = np.array([5, 10, 20, 50])
    slack = [kroger_avg_bound(ctx, int(v), spec).slack_ratio for v in k]
    drift = np.polyfit(np.log(k), np.log1p(-np.array(slack)), 1)[0]
    print(f"\n1 - slack decays like k^{drift:.2f}: the bound is "
          "asymptotically sharp in the Weyl regime")


if __name__ == "__main__":
    main()
