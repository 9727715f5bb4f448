"""Torus comparisons and the hexagonal heat-trace floor.

Part one embeds the half square [0, 1/2] x [0, 1] in the unit torus and
compares Neumann Riesz means and partial sums against the torus spectrum
scaled by the volume fraction: both are reads of one reference minorant.  Part two evaluates the lattice-free heat
floor: among all unit-covolume flat tori, the hexagonal one minimizes the
heat trace, so sqrt(3)/2 * Theta_hex is a universal lower bound.

Run:  python3 demos/torus_heat.py
"""

import math

import numpy as np

from spectral_bounds import (Lattice2, ProblemSpec, QuadratureGrid,
                             ReferenceMinorant, TorusFundamental, assemble,
                             bound_context, heat_torus_bound, hex_heat_floor,
                             lattice_heat_trace, rectangle_neumann_exact,
                             riesz_report, solve_lowest, sum_report,
                             torus_spectrum)

CUTOFF = 4.0 * math.pi ** 2 * 30.0


def main():
    unit = TorusFundamental((1.0, 0.0), (0.0, 1.0))
    mu = rectangle_neumann_exact(0.5, 1.0, cutoff=CUTOFF)
    half = ReferenceMinorant(torus_spectrum(unit, CUTOFF), 0.5)

    print("Half square inside the unit torus (volume fraction 1/2)")
    print(f"{'k':>4} {'Neumann sum':>12} {'torus-side bound':>17}")
    for p in (1, 5, 10, 20, 30):
        rep = sum_report("homog-sum", half, p, mu)
        print(f"{p:>4} {rep.computed_value:>12.2f} {rep.bound_value:>17.2f}"
              f"  {'ok' if rep.holds else 'VIOLATED'}")
    worst = min(
        riesz_report("homog-riesz", half, float(z), mu).slack_ratio or 1.0
        for z in np.linspace(20.0, CUTOFF, 30))
    print(f"Riesz comparison over 30 levels: tightest slack {worst:.3f}")

    print("\nHeat trace at t = 0.5 across unit-covolume lattices:")
    floor = hex_heat_floor(0.5, 1.0)
    beta = math.sqrt(2.0 / math.sqrt(3.0))
    lattices = [
        ("square", Lattice2((1.0, 0.0), (0.0, 1.0))),
        ("hexagonal", Lattice2((beta, 0.0),
                               (beta / 2.0, beta * math.sqrt(3.0) / 2.0))),
        ("sheared", Lattice2((1.25, 0.0), (0.4, 0.8))),
    ]
    for name, lat in lattices:
        trace = lattice_heat_trace(lat, 0.5)
        print(f"  {name:<10} trace={trace:.12f}  excess over floor "
              f"{trace - floor:+.3e}")
    print(f"  floor (sqrt(3)/2 Theta_hex) = {floor:.12f}; the hexagonal "
          "lattice attains it")

    print("\nPeriodic problem with varying coefficients on the unit torus")
    prob = ProblemSpec(unit, w="1 + cos(2*pi*x)/4", V="sin(2*pi*x)")
    grid = QuadratureGrid(unit, 64)
    spec = solve_lowest(assemble(prob, grid), 45)
    ctx = bound_context(prob, grid)
    for t in (0.1, 0.3, 1.0):
        rep = heat_torus_bound(ctx, t, spec)
        print(f"  t={t:<4g} trace={rep.computed_value:.6f} "
              f"floor={rep.bound_value:.6f}  "
              f"{'ok' if rep.holds else 'VIOLATED'}")


if __name__ == "__main__":
    main()
