import math

import numpy as np
import pytest
import scipy.linalg

from spectral_bounds import (Box, Disk, MaskedBox, ProblemSpec,
                             QuadratureGrid, SolverConvergenceError,
                             TorusFundamental, assemble, bound_context,
                             convergence_study, parse_field,
                             rectangle_neumann_exact, solve_lowest,
                             solve_lowest_detailed)

PI2 = math.pi ** 2


def neumann_dispersion(n, h, k):
    """Exact eigenvalues of the cell-centered 1-D Neumann stencil:
    (4/h^2) sin^2(pi m / (2 n)), m = 0..n-1; tensorized sums in 2-D."""
    per_axis = [4.0 / h ** 2 * math.sin(math.pi * m / (2 * n)) ** 2
                for m in range(n)]
    vals = sorted(a + b for a in per_axis for b in per_axis)
    return vals[:k]


def periodic_dispersion(n, h, k):
    per_axis = [4.0 / h ** 2 * math.sin(math.pi * m / n) ** 2
                for m in range(n)]
    vals = sorted(a + b for a in per_axis for b in per_axis)
    return vals[:k]


class TestPlainLaplacian:
    def test_unit_square_matches_discrete_dispersion(self):
        # the assembled stencil must reproduce the closed-form discrete
        # spectrum exactly, not just the continuum limit
        n = 24
        prob = ProblemSpec(Box((1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (n, n))
        res = solve_lowest_detailed(assemble(prob, grid), 10)
        ref = neumann_dispersion(n, 1.0 / n, 10)
        assert res.spectrum.values == pytest.approx(ref, rel=1e-10, abs=1e-9)

    def test_unit_square_continuum(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (100, 100))
        res = solve_lowest_detailed(assemble(prob, grid), 6)
        exact = [0.0, PI2, PI2, 2 * PI2, 4 * PI2, 4 * PI2]
        for got, ref in zip(res.spectrum.values, exact):
            assert got == pytest.approx(ref, rel=0.01, abs=1e-8)
        assert res.residuals.max() < 1e-8

    def test_rectangle(self):
        prob = ProblemSpec(Box((1.0, 2.0)))
        grid = QuadratureGrid(prob.domain, (60, 120))
        got = solve_lowest(assemble(prob, grid), 6)
        ref = rectangle_neumann_exact(1.0, 2.0, count=6)
        assert got.values == pytest.approx(ref.values, rel=3e-3, abs=1e-8)

    def test_one_dimensional(self):
        prob = ProblemSpec(Box((1.0,)))
        grid = QuadratureGrid(prob.domain, (128,))
        got = solve_lowest(assemble(prob, grid), 4)
        for m, v in enumerate(got.values):
            assert v == pytest.approx(PI2 * m * m, rel=2e-3, abs=1e-9)

    def test_three_dimensional(self):
        prob = ProblemSpec(Box((1.0, 1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (14, 14, 14))
        got = solve_lowest(assemble(prob, grid), 5)
        ref = [0.0, PI2, PI2, PI2, 2 * PI2]
        assert got.values == pytest.approx(ref, rel=0.02, abs=1e-8)

    def test_zero_mode_snapped(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (30, 30))
        got = solve_lowest(assemble(prob, grid), 3)
        assert got.values[0] == 0.0


class TestPeriodic:
    def test_torus_matches_discrete_dispersion(self):
        n = 20
        prob = ProblemSpec(TorusFundamental((1.0, 0.0), (0.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (n, n))
        res = solve_lowest_detailed(assemble(prob, grid), 9)
        ref = periodic_dispersion(n, 1.0 / n, 9)
        assert res.spectrum.values == pytest.approx(ref, rel=1e-10, abs=1e-9)

    def test_rectangular_torus_sides(self):
        prob = ProblemSpec(TorusFundamental((2.0, 0.0), (0.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (64, 32))
        got = solve_lowest(assemble(prob, grid), 4)
        # lowest nonzero: (2 pi / 2)^2 = pi^2, doubled
        assert got.values[0] == 0.0
        assert got.values[1] == pytest.approx(PI2, rel=5e-3)
        assert got.values[2] == pytest.approx(PI2, rel=5e-3)

    def test_skew_torus_not_supported(self):
        skew = TorusFundamental((1.0, 0.0), (0.5, math.sqrt(3) / 2))
        prob = ProblemSpec(skew)
        grid = QuadratureGrid(skew, (16, 16))
        with pytest.raises(NotImplementedError):
            assemble(prob, grid)

    def test_periodic_weighted_seam_continuity(self):
        # a periodic weight (smooth across the seam) keeps second order
        prob = ProblemSpec(TorusFundamental((1.0, 0.0), (0.0, 1.0)),
                           w="2 + cos(2*pi*x)")
        vals = []
        for n in (24, 48, 96):
            grid = QuadratureGrid(prob.domain, (n, n))
            vals.append(solve_lowest(assemble(prob, grid), 2).values[1])
        e1, e2 = abs(vals[0] - vals[2]), abs(vals[1] - vals[2])
        assert e2 < e1 / 3.0


class TestMaskedDomains:
    def test_disk_neumann_value(self):
        import scipy.special
        mu1 = scipy.special.jnp_zeros(1, 1)[0] ** 2
        prob = ProblemSpec(Disk(1.0))
        grid = QuadratureGrid(prob.domain, (160, 160))
        got = solve_lowest(assemble(prob, grid), 3)
        # staircase boundary costs O(h); allow 2 percent
        assert got.values[1] == pytest.approx(mu1, rel=0.02)
        assert got.values[2] == pytest.approx(mu1, rel=0.02)

    def test_masked_box_equals_disk(self):
        level = parse_field("x^2 + y^2 - 1", 2)
        mprob = ProblemSpec(MaskedBox(Box((2.0, 2.0), (-1.0, -1.0)), level))
        dprob = ProblemSpec(Disk(1.0))
        mg = QuadratureGrid(mprob.domain, (48, 48))
        dg = QuadratureGrid(dprob.domain, (48, 48))
        mv = solve_lowest(assemble(mprob, mg), 5).values
        dv = solve_lowest(assemble(dprob, dg), 5).values
        assert mv == pytest.approx(dv, rel=1e-12, abs=1e-12)

    def test_field_only_evaluated_inside(self):
        # 1/x is singular on the x=0 line, outside the shifted disk
        prob = ProblemSpec(Disk(0.4, (1.0, 0.0)), V="1/x")
        grid = QuadratureGrid(prob.domain, (40, 40))
        res = solve_lowest_detailed(assemble(prob, grid), 2)
        assert res.residuals.max() < 1e-8


class TestWeighted:
    def galerkin_cosine(self, w_expr, modes=10, quad=240):
        """Independent Rayleigh-Ritz oracle on [-1,1]^2 in a cosine basis
        for the pure weight problem -div(w grad u) = mu u."""
        xs = (np.arange(quad) + 0.5) * (2.0 / quad) - 1.0
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        wf = parse_field(w_expr, 2)
        W = np.broadcast_to(np.asarray(wf.evaluate((X, Y)), dtype=float),
                            X.shape)
        dv = (2.0 / quad) ** 2

        basis, gradx, grady = [], [], []
        for m in range(modes):
            for n in range(modes):
                am, an = m * math.pi / 2, n * math.pi / 2
                cm, cn = np.cos(am * (X + 1)), np.cos(an * (Y + 1))
                sm, sn = np.sin(am * (X + 1)), np.sin(an * (Y + 1))
                basis.append(cm * cn)
                gradx.append(-am * sm * cn)
                grady.append(-an * cm * sn)
        nb = len(basis)
        A = np.empty((nb, nb))
        M = np.empty((nb, nb))
        for i in range(nb):
            for j in range(i, nb):
                A[i, j] = A[j, i] = float(
                    (W * (gradx[i] * gradx[j] + grady[i] * grady[j])).sum()) * dv
                M[i, j] = M[j, i] = float((basis[i] * basis[j]).sum()) * dv
        return np.sort(scipy.linalg.eigh(A, M, eigvals_only=True))

    def test_weight_against_cosine_galerkin(self):
        ref = self.galerkin_cosine("1 + x/2")
        prob = ProblemSpec(Box((2.0, 2.0), (-1.0, -1.0)), w="1 + x/2")
        grid = QuadratureGrid(prob.domain, (140, 140))
        got = solve_lowest(assemble(prob, grid), 6)
        assert got.values == pytest.approx(ref[:6], rel=2e-3, abs=1e-7)

    def test_potential_shifts_constant_mode(self):
        # constant V adds V exactly (the constant vector stays an eigenvector)
        base = ProblemSpec(Box((1.0, 1.0)))
        lifted = ProblemSpec(Box((1.0, 1.0)), V="3/2")
        g = QuadratureGrid(base.domain, (40, 40))
        v0 = solve_lowest(assemble(base, g), 4).values
        v1 = solve_lowest(assemble(lifted, g), 4).values
        assert v1 == pytest.approx(v0 + 1.5, rel=1e-11, abs=1e-10)

    def test_density_gauge_equivalence_of_constant_rho(self):
        # constant rho rescales form and mass identically: spectrum unchanged
        base = ProblemSpec(Box((1.0, 1.0)))
        gauged = ProblemSpec(Box((1.0, 1.0)), rho="1/4")
        g = QuadratureGrid(base.domain, (40, 40))
        v0 = solve_lowest(assemble(base, g), 5).values
        v1 = solve_lowest(assemble(gauged, g), 5).values
        assert v1 == pytest.approx(v0, rel=1e-11, abs=1e-10)

    def test_nonpositive_weight_rejected(self):
        # caught where a grid is known: by assembly and by the bound context
        prob = ProblemSpec(Box((2.0, 2.0), (-1.0, -1.0)), w="x")
        grid = QuadratureGrid(prob.domain, 16)
        with pytest.raises(ValueError, match="positive"):
            assemble(prob, grid)
        with pytest.raises(ValueError, match="positive"):
            bound_context(prob, grid)


AGREEMENT_CASES = {
    "potential": (ProblemSpec(Box((1.0, 1.0)), V="x*y"), (40, 40)),
    # floor below zero, so the shift is floor - 1
    "negative-potential": (ProblemSpec(Box((1.0, 1.0)), V="-5 + 3*x",
                                       w="1 + x*y"), (40, 40)),
    "disk-rho": (ProblemSpec(Disk(1.0), rho="0.3*x"), (40, 40)),
    # degenerate pairs and a zero mode
    "rect-torus": (ProblemSpec(TorusFundamental((2.0, 0.0), (0.0, 1.0))),
                   (32, 16)),
    "box-3d": (ProblemSpec(Box((1.0, 1.0, 2.0)), w="1 + 0.5*x",
                           rho="0.2*z"), (10, 10, 20)),
}


class TestSolverOptions:
    @pytest.mark.parametrize("case", list(AGREEMENT_CASES))
    def test_dense_and_iterative_agree(self, case):
        prob, shape = AGREEMENT_CASES[case]
        form = assemble(prob, QuadratureGrid(prob.domain, shape))
        dense = solve_lowest_detailed(form, 6, method="dense")
        default = solve_lowest_detailed(form, 6)
        # constant fields on a full rectangular torus: a Kronecker sum
        assert default.method == ("separable" if case == "rect-torus"
                                  else "iterative")
        assert default.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-10, abs=1e-12)
        assert default.residuals.max() <= 1e-8  # the default tolerance

    def test_dense_refused_over_cap(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (90, 90))
        form = assemble(prob, grid)
        with pytest.raises(ValueError, match="dense"):
            solve_lowest(form, 4, method="dense")

    def test_default_is_iterative_except_whole_spectrum(self):
        # a varying weight keeps the form off the separable path
        prob = ProblemSpec(Box((1.0, 1.0)), w="1 + x*y")
        form = assemble(prob, QuadratureGrid(prob.domain, (20, 20)))
        res = solve_lowest_detailed(form, 4)
        assert res.method == "iterative"
        dense = solve_lowest_detailed(form, 4, method="dense")
        assert res.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-10, abs=1e-9)
        # ARPACK cannot return all k == dof pairs, so dense takes them;
        # together they sum to the trace of M^(-1) K
        form = assemble(prob, QuadratureGrid(prob.domain, (8, 8)))
        res = solve_lowest_detailed(form, 64)
        assert res.method == "dense"
        trace = float((form.stiffness.diagonal() / form.mass_diag).sum())
        assert res.spectrum.values.sum() == pytest.approx(trace, rel=1e-10)

    def test_residual_tolerance_enforced(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (30, 30))
        form = assemble(prob, grid)
        with pytest.raises(SolverConvergenceError):
            solve_lowest(form, 3, tolerance=1e-30)

    def test_option_validation(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        form = assemble(prob, QuadratureGrid(prob.domain, (8, 8)))
        with pytest.raises(ValueError):
            solve_lowest(form, 0)
        with pytest.raises(ValueError):
            solve_lowest(form, 2, method="magic")
        with pytest.raises(ValueError):
            solve_lowest(form, 2, tolerance=-1.0)

    def test_k_capped_by_dof(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (8, 8))
        with pytest.raises(ValueError):
            solve_lowest(assemble(prob, grid), 100)


SEPARABLE_CASES = {
    "unequal-sides": (ProblemSpec(Box((1.0, 1.7))), (20, 28), 12),
    # 1 + 3 + 3 + 1 + 3: ends on a whole triple cluster
    "cube-triples": (ProblemSpec(Box((1.0, 1.0, 1.0))), (9, 9, 9), 11),
    "torus-odd-even": (ProblemSpec(TorusFundamental((1.3, 0.0),
                                                    (0.0, 0.8))),
                       (9, 12), 14),
    "constant-fields": (ProblemSpec(Box((1.0, 1.2), (-0.5, 0.3)), w="2.5",
                                    rho="0.3", V="-4"), (16, 18), 10),
    "masked-whole-box": (ProblemSpec(MaskedBox(
        Box((1.0, 1.0)), parse_field("x - 2", 2))), (16, 16), 8),
    "whole-spectrum": (ProblemSpec(Box((1.0, 1.5))), (8, 9), 72),
}


class TestSeparable:
    @pytest.mark.parametrize("case", list(SEPARABLE_CASES))
    def test_matches_iterative_and_dense(self, case):
        prob, shape, k = SEPARABLE_CASES[case]
        form = assemble(prob, QuadratureGrid(prob.domain, shape))
        assert form.separable is not None
        res = solve_lowest_detailed(form, k)
        assert res.method == "separable"
        assert res.residuals.max() <= 1e-8  # the default tolerance
        others = ("dense",) if k == form.dof_count else ("dense", "iterative")
        for method in others:
            other = solve_lowest_detailed(form, k, method=method)
            assert other.residuals.max() <= 1e-8
            assert res.spectrum.values == pytest.approx(
                other.spectrum.values, rel=1e-10, abs=1e-12), method
        # the vectors are M-orthonormal, like those of the other paths
        gram = res.vectors.T @ (form.mass_diag[:, None] * res.vectors)
        assert gram == pytest.approx(np.eye(k), abs=1e-12)

    def test_torus_odd_even_matches_dispersion(self):
        prob, shape, k = SEPARABLE_CASES["torus-odd-even"]
        res = solve_lowest_detailed(
            assemble(prob, QuadratureGrid(prob.domain, shape)), k)
        axes = [[4.0 * n * n / side ** 2 * math.sin(math.pi * m / n) ** 2
                 for m in range(n)] for n, side in zip(shape, (1.3, 0.8))]
        ref = sorted(a + b for a in axes[0] for b in axes[1])[:k]
        assert res.spectrum.values == pytest.approx(ref, rel=1e-12,
                                                    abs=1e-12)

    @pytest.mark.parametrize("prob,shape", [
        (ProblemSpec(Disk(1.0)), (24, 24)),
        # constant at the nodes (cos(pi (i + 1/2)) = 0), 1 or 3 at faces
        (ProblemSpec(Box((1.0, 1.0)), w="2 + cos(8*pi*x)"), (8, 8)),
        (ProblemSpec(Box((1.0, 1.0)), rho="0.1*y"), (12, 12)),
        (ProblemSpec(Box((1.0, 1.0)), V="x"), (12, 12)),
    ], ids=["disk", "faces-only-weight", "rho", "potential"])
    def test_not_taken_for_varying_forms(self, prob, shape):
        form = assemble(prob, QuadratureGrid(prob.domain, shape))
        assert form.separable is None
        assert solve_lowest_detailed(form, 4).method == "iterative"

    def test_wrong_closed_form_fails_the_residual_gate(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        form = assemble(prob, QuadratureGrid(prob.domain, (12, 12)))
        scales, shift = form.separable
        form.separable = ((scales[0] * (1 + 1e-6), scales[1]), shift)
        with pytest.raises(SolverConvergenceError):
            solve_lowest(form, 4)

    def test_whole_spectrum_over_dense_cap_refused(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        form = assemble(prob, QuadratureGrid(prob.domain, (81, 81)))
        with pytest.raises(ValueError, match="dense-sized"):
            solve_lowest(form, 81 * 81)


class TestConvergence:
    def test_orders_near_two_with_oracle(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grids = [QuadratureGrid(prob.domain, n) for n in (25, 50, 100)]
        oracle = rectangle_neumann_exact(1.0, 1.0, count=4).values
        study = convergence_study(prob, grids, k=4, oracle=oracle)
        finite = study.orders[-1][1:]
        assert np.all(finite > 1.75) and np.all(finite < 2.25)

    def test_richardson_reference_without_oracle(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grids = [QuadratureGrid(prob.domain, n) for n in (20, 40, 80)]
        study = convergence_study(prob, grids, k=3)
        exact = rectangle_neumann_exact(1.0, 1.0, count=3).values
        # extrapolated reference should land much closer than the finest grid
        assert study.reference[1] == pytest.approx(exact[1], rel=2e-5)

    def test_requires_doubling(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grids = [QuadratureGrid(prob.domain, n) for n in (20, 30)]
        with pytest.raises(ValueError):
            convergence_study(prob, grids, k=2)
