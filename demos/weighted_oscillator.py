"""Phase-space sum bound for the isotropic oscillator.

V = x^2 + y^2 on a box large enough that the Neumann walls do not matter
for the lowest modes.  The classical phase-space volumes have closed
forms here (Phi_1(L) = L^2/8, E_w(L) = L^3/12, Lambda(k) = sqrt(8k)),
so the script prints the volumes computed from the sorted quadrature
nodes against them, then compares the full bound with the
finite-difference eigenvalue sums.

Run:  python3 demos/weighted_oscillator.py
"""

import math

from spectral_bounds import (Box, ProblemSpec, QuadratureGrid, SolverOptions,
                             assemble, lambda_of_k, phase_space_sum_bound,
                             phase_space_tables, solve_lowest)


def main():
    prob = ProblemSpec(Box((16.0, 16.0), origin=(-8.0, -8.0)),
                       V="x^2 + y^2")
    grid = QuadratureGrid(prob.domain, 1024)
    psd = phase_space_tables(prob, grid)

    print("Phase-space volumes vs closed forms (1024^2 quadrature)")
    print(f"{'L':>6} {'Phi_1':>10} {'L^2/8':>10} {'E_w':>12} {'L^3/12':>12}")
    for lam in (4.0, 12.0, 30.0, 60.0):
        print(f"{lam:>6g} {psd.phi1_at(lam):>10.4f} {lam ** 2 / 8:>10.4f}"
              f" {psd.ew_at(lam):>12.3f} {lam ** 3 / 12:>12.3f}")

    lam10 = lambda_of_k(psd, 10)
    print(f"\nLambda(10) = {lam10:.8f}   (exact sqrt(80) = "
          f"{math.sqrt(80):.8f})")
    print(f"Lipschitz constant on the sublevel set: {psd.lip_at(lam10):.4f}"
          f"   (exact 2 sqrt(Lambda) = {2 * math.sqrt(lam10):.4f})")

    fd = solve_lowest(assemble(prob, QuadratureGrid(prob.domain, 128)),
                      SolverOptions(k=12))
    print("\nLowest levels (finite differences vs 2(n+m+1)):",
          ", ".join(f"{v:.3f}" for v in fd.values[:6]))

    print(f"\n{'k':>4} {'sum mu_j':>10} {'bound':>10} {'status':>9}")
    for k in (2, 5, 10):
        rep = phase_space_sum_bound(k, psd, fd)
        status = "ok" if rep.holds else "VIOLATED"
        print(f"{k:>4} {rep.computed_value:>10.2f} {rep.bound_value:>10.2f}"
              f" {status:>9}")
    print("\nThe gap is the price of the Lipschitz correction term; for a"
          "\nflat potential the same bound lands exactly on the averaged"
          "\n(Weyl-sharp) value, which `demos/square_sums.py` shows.")


if __name__ == "__main__":
    main()
