import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_bounds import (Box, Disk, MaskedBox, ProblemSpec,
                             QuadratureGrid, SolverConvergenceError,
                             TorusFundamental, assemble, bound_context,
                             kroger_avg_bound, parse_field,
                             rectangle_neumann_exact, solve_lowest,
                             solve_lowest_detailed)
from spectral_bounds import fdsolver
from spectral_bounds.fdsolver import _DENSE_DEFAULT_DOF

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

    @pytest.mark.parametrize("domain,n,method", [
        (Box((1.0, 1.0)), 30, "separable"),
        (Disk(1.0), 24, "mirrored")], ids=["box", "disk"])
    def test_zero_mode_snapped(self, domain, n, method):
        # the nodal potential is exactly 0 on the full box and on the
        # disk's masked grid, so the constant's value is snapped to 0
        form = assemble(ProblemSpec(domain), QuadratureGrid(domain, n))
        assert form.zero_potential
        res = solve_lowest_detailed(form, 3)
        assert res.method == method
        assert res.spectrum.values[0] == 0.0


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
        iterative = solve_lowest_detailed(form, 6, method="iterative")
        default = solve_lowest_detailed(form, 6)
        # constant fields on a full rectangular torus: a Kronecker sum;
        # the 3-D box repeats along y and factors along z, so it peels both
        assert default.method == {"rect-torus": "separable",
                                  "box-3d": "peeled"}.get(case, "iterative")
        # a pinned method solves the whole form, peelable or not
        assert (dense.method, iterative.method) == ("dense", "iterative")
        for res in (default, iterative):
            assert res.spectrum.values == pytest.approx(
                dense.spectrum.values, rel=1e-10, abs=1e-12)
            assert res.residuals.max() <= 1e-8  # the default tolerance

    def test_dense_refused_over_cap(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (90, 90))
        form = assemble(prob, grid)
        with pytest.raises(ValueError, match="dense"):
            solve_lowest(form, 4, method="dense")

    def test_default_is_dense_to_crossover_then_iterative(self):
        # a varying weight keeps the form off the separable path, and
        # x*y^2 is no mirror image of itself across any axis or the
        # diagonal: dense eigh up to the crossover, shift-invert above it
        prob = ProblemSpec(Box((1.0, 1.0)), w="1 + x*y^2")
        side = math.isqrt(_DENSE_DEFAULT_DOF)
        for n, method, other in ((20, "dense", "iterative"),
                                 (side, "dense", "iterative"),
                                 (side + 1, "iterative", "dense")):
            form = assemble(prob, QuadratureGrid(prob.domain, (n, n)))
            res = solve_lowest_detailed(form, 4)
            assert res.method == method, n
            check = solve_lowest_detailed(form, 4, method=other)
            assert res.spectrum.values == pytest.approx(
                check.spectrum.values, rel=1e-10, abs=1e-9)
        # ARPACK cannot return all k == dof pairs, so dense takes them;
        # together they sum to the trace of M^(-1) K
        form = assemble(prob, QuadratureGrid(prob.domain, (8, 8)))
        res = solve_lowest_detailed(form, 64)
        assert res.method == "dense"
        trace = float((form.diagonal / form.mass_diag[form.mask]).sum())
        assert res.spectrum.values.sum() == pytest.approx(trace, rel=1e-10)

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_mass_scaled_overflow_refused(self, method):
        # K and M are finite (M is subnormal), M^(-1/2) K M^(-1/2) is not
        prob = ProblemSpec(Disk(1e-160))
        form = assemble(prob, QuadratureGrid(prob.domain, 8))
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="operator overflows"):
            solve_lowest(form, 2, method=method)

    def test_residual_tolerance_enforced(self, monkeypatch):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (30, 30))
        form = assemble(prob, grid)
        monkeypatch.setattr(fdsolver, "_RESIDUAL_TOL", 1e-30)
        with pytest.raises(SolverConvergenceError,
                           match="exceeds tolerance 1.000e-30"):
            solve_lowest(form, 3)

    def test_option_validation(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        form = assemble(prob, QuadratureGrid(prob.domain, (8, 8)))
        with pytest.raises(ValueError):
            solve_lowest(form, 0)
        with pytest.raises(ValueError):
            solve_lowest(form, 2, method="magic")

    def test_k_capped_by_dof(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        grid = QuadratureGrid(prob.domain, (8, 8))
        with pytest.raises(ValueError):
            solve_lowest(assemble(prob, grid), 100)


L_SHAPE = MaskedBox(Box((1.0, 1.0)),
                    parse_field("min(x - 0.5, y - 0.5)", 2))

# forms whose k columns span several gate blocks: full-grid (one column per
# block), masked, periodic and peeled, dense eigh's C-ordered vectors,
# where 129 columns of 64 would leave a last block of one, and the bench's
# 24^3 cube, blocks of 3 and 4 columns shifted along three strides
GATE_CASES = {
    "box-256": (ProblemSpec(Box((0.97, 1.03))), (256, 256), 16),
    "cube-24": (ProblemSpec(Box((1.0, 1.0, 1.0)), w="1.03"), (24, 24, 24),
                11),
    "l-shape-160": (ProblemSpec(L_SHAPE, w="1 + 0.5*y"), (160, 160), 16),
    "torus-200": (ProblemSpec(TorusFundamental((1.0, 0.0), (0.0, 1.3)),
                              w="1 + 0.3*cos(2*pi*x)"), (200, 150), 12),
    "dense-32": (ProblemSpec(Box((1.0, 1.0)), w="1 + x*y"), (32, 32), 129),
}


def whole_block_residuals(form, vals, x):
    x = np.asfortranarray(x)
    kx = form.matvec(x)
    mx = form.mass_diag[form.mask][:, None] * x
    return np.linalg.norm(kx - vals[None, :] * mx, axis=0) / \
        np.linalg.norm(x, axis=0)


def patch_pairs(monkeypatch, change):
    """Pass _lowest_pairs' (values, vectors) through change before the
    residual gate reads them; for forms that do not peel, which would
    call it again per block."""
    original = fdsolver._lowest_pairs

    def patched(form, k, method=None):
        vals, x, method = original(form, k, method)
        return (*change(vals.copy(), x.copy(order="K")), method)

    monkeypatch.setattr(fdsolver, "_lowest_pairs", patched)


class TestResidualGate:
    @pytest.mark.parametrize("case", list(GATE_CASES))
    def test_blocked_gate_has_the_whole_block_bits(self, case):
        prob, shape, k = GATE_CASES[case]
        form = assemble(prob, QuadratureGrid(prob.domain, shape))
        assert form.dof_count * k > 2 * fdsolver._GATE_BLOCK
        vals, x, _ = fdsolver._lowest_pairs(form, k)
        blocked = fdsolver._residuals(form, vals, x)
        assert blocked.tobytes() == \
            whole_block_residuals(form, vals, x).tobytes()
        assert blocked.max() <= 1e-8

    def test_bad_pairs_in_the_last_block_fail(self, monkeypatch):
        # 7500 dof: blocks of at most 8 of the 20 columns, the last two
        # in the last block; a value off by 1 misses by about M = 1e-4
        prob = ProblemSpec(L_SHAPE, w="1 + 0.5*y")
        form = assemble(prob, QuadratureGrid(prob.domain, (100, 100)))

        def off_by_one(vals, x):
            vals[-2:] += 1.0
            return vals, x

        patch_pairs(monkeypatch, off_by_one)
        with pytest.raises(SolverConvergenceError,
                           match=r"\(2 of 20 pairs\)"):
            solve_lowest_detailed(form, 20)

    def test_nan_residual_fails(self, monkeypatch):
        # a NaN compares false with the tolerance, so it must count as bad
        prob = ProblemSpec(Box((1.0, 1.0)), w="1 + x*y")
        form = assemble(prob, QuadratureGrid(prob.domain, (20, 20)))

        def nan_entry(vals, x):
            x[0, -1] = math.nan
            return vals, x

        patch_pairs(monkeypatch, nan_entry)
        with pytest.raises(SolverConvergenceError,
                           match=r"\(1 of 4 pairs\)"):
            solve_lowest_detailed(form, 4)

    @pytest.mark.parametrize("case", ["l-shape-160", "dense-32"])
    def test_layout_keeps_the_bits(self, case):
        # numpy sums a norm pairwise only over contiguous entries; the
        # gate takes every block as contiguous rows, one per column, so
        # the layout cannot move max_residual
        prob, shape, k = GATE_CASES[case]
        form = assemble(prob, QuadratureGrid(prob.domain, shape))
        vals, x, _ = fdsolver._lowest_pairs(form, k)
        c, f = np.ascontiguousarray(x), np.asfortranarray(x)
        assert fdsolver._residuals(form, vals, c).tobytes() == \
            fdsolver._residuals(form, vals, f).tobytes()

    def test_gate_working_set_stays_below_the_vectors(self):
        # the whole-block gate held about four copies of the vectors on
        # top of them (a peak of 5x); the blocked one held a few blocks
        # (1.27x), and now reuses three block-sized buffers (1.19x)
        prob = ProblemSpec(Box((1.0, 1.0)))
        form = assemble(prob, QuadratureGrid(prob.domain, (256, 256)))
        tracemalloc.start()
        try:
            res = solve_lowest_detailed(form, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.method == "separable"
        assert peak <= 1.2 * res.vectors.nbytes

    def test_shift_invert_holds_no_scaled_copies(self):
        # the scaled CSC matrix, its shifted copy, the cached stiffness
        # and the LU all stayed alive through the eigensolve (6.5x the
        # vectors); now only the shifted matrix is built, and it and the
        # LU are dropped as soon as they are done with
        import scipy.sparse.linalg  # noqa: F401 (its import is not traced)

        prob = ProblemSpec(Box((1.0, 1.0)), w="1 + x*y")
        form = assemble(prob, QuadratureGrid(prob.domain, (160, 160)))
        tracemalloc.start()
        try:
            res = solve_lowest_detailed(form, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.method == "iterative"
        assert peak <= 6.0 * res.vectors.nbytes


# one of each grid shape the stencil handles: one, two and three axes,
# curved and re-entrant masks, and a seam per axis
STENCIL_DOMAINS = {
    "box-1d": (Box((1.3,)), (12,)),
    "box": (Box((1.0, 1.3)), (12, 9)),
    "disk": (Disk(1.0, (0.1, -0.2)), (14, 14)),
    "l-shape": (L_SHAPE, (12, 12)),
    "rect-torus": (TorusFundamental((2.0, 0.0), (0.0, 1.0)), (12, 8)),
    "box-3d": (Box((1.0, 1.0, 2.0)), (8, 8, 10)),
}


def fields_on(domain, **fields):
    """The fields as written, with y read as x on a 1-D domain."""
    if domain.nu == 1:
        fields = {k: v.replace("y", "x") for k, v in fields.items()}
    return ProblemSpec(domain, **fields)


def grid_leading_matvec(form, x):
    """K x with the columns as the last axis of the grid arrays."""
    mask = form.mask
    column = (Ellipsis,) + (None,) * (x.ndim - 1)
    u = np.zeros(mask.shape + x.shape[1:])
    u[mask] = x
    off = np.zeros_like(u)
    for axis, _, lo, hi in fdsolver._face_parts(mask.ndim, form.periodic):
        c = form.faces[axis][lo][column]
        off[lo] += c * u[hi]
        off[hi] += c * u[lo]
    return form.diagonal[column] * x - off[mask]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(STENCIL_DOMAINS)),
       *[st.integers(-40, 40).map(lambda i: i / 100) for _ in range(3)])
def test_stencil_matches_csr(name, a, b, c):
    domain, shape = STENCIL_DOMAINS[name]
    prob = fields_on(domain, w=f"1 + {a}*x*y", rho=f"{b}*x + {c}*y",
                     V=f"{c}*x^2 - {b}")
    form = assemble(prob, QuadratureGrid(domain, shape))
    x = np.random.default_rng(0).standard_normal((form.dof_count, 3))
    ref = form.stiffness @ x
    scale = np.abs(ref).max()
    assert np.abs(form.matvec(x) - ref).max() <= 1e-13 * scale
    assert np.abs(form.matvec(x[:, 1]) - ref[:, 1]).max() <= 1e-13 * scale
    # each entry sums its terms in the order of the grid-leading stencil,
    # so residuals (and reports' max_residual) keep their bits
    for v in (x, x[:, 1], np.asfortranarray(x), x[:, :2]):
        assert np.array_equal(form.matvec(v), grid_leading_matvec(form, v))


class _Factored(Exception):
    """Stops a solve once the matrix handed to SuperLU is captured."""


# a weight of 1e-320 underflows every face coefficient of the small disk
# to 0, entries the scaled product drops
SHIFTED_CASES = {name: (domain, shape, "1 + 0.3*x*y")
                 for name, (domain, shape) in STENCIL_DOMAINS.items()}
SHIFTED_CASES["underflowing-faces"] = (Disk(0.01), (40, 40), "1e-320*(1 + x)")


@pytest.mark.parametrize("name", sorted(SHIFTED_CASES))
def test_shift_invert_factors_the_scaled_product(monkeypatch, name):
    # A - sigma I is built from the faces, not from the stiffness matrix;
    # it must equal the product diags(d) @ K @ diags(d) - sigma I bit for
    # bit, pattern included, or shift-invert spectra move
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    domain, shape, w = SHIFTED_CASES[name]
    prob = fields_on(domain, w=w, rho="0.2*x - 0.1*y", V="x^2 - 1")
    form = assemble(prob, QuadratureGrid(domain, shape))
    seen = []

    def capture(a, **options):
        seen.append(a)
        raise _Factored

    monkeypatch.setattr(spla, "splu", capture)
    with pytest.raises(_Factored):
        solve_lowest_detailed(form, 4, method="iterative")
    d = sp.diags(1.0 / np.sqrt(form.mass_diag[form.mask]))
    sigma = min(0.0, form.potential_floor) - 1.0
    ref = (d @ form.stiffness @ d).tocsc() - \
        sigma * sp.identity(form.dof_count, format="csc")
    got = seen[0]
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("name", sorted(SHIFTED_CASES))
def test_dense_eigh_takes_the_symmetrized_scaled_product(monkeypatch, name):
    # dense eigh reads 0.5 (A + A^T) with A = diags(d) K diags(d), bit for
    # bit, the -0 entries of underflowed faces included
    domain, shape, w = SHIFTED_CASES[name]
    prob = fields_on(domain, w=w, rho="0.2*x - 0.1*y", V="x^2 - 1")
    form = assemble(prob, QuadratureGrid(domain, shape))
    seen = []

    def capture(a):
        seen.append(a.copy())
        raise _Factored

    monkeypatch.setattr(np.linalg, "eigh", capture)
    with pytest.raises(_Factored):
        solve_lowest_detailed(form, 4, method="dense")
    # K scattered from its COO entries: toarray() would sum each entry
    # into +0 and lose the sign of a -0
    k = form.stiffness.tocoo()
    a = np.zeros(k.shape)
    a[k.row, k.col] = k.data
    d = 1.0 / np.sqrt(form.mass_diag[form.mask])
    a = a * d[:, None] * d[None, :]
    assert seen[0].tobytes() == (0.5 * (a + a.T)).tobytes()


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
        assert form.factors == dict.fromkeys(range(len(shape)))
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
        mass = form.mass_diag[form.mask][:, None]
        gram = res.vectors.T @ (mass * res.vectors)
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

    def test_closed_form_merge_keeps_rest_pair_first(self):
        # the bundled torus-theta form: k = 40 cuts a degenerate cluster,
        # so which vectors are kept, and in which column, is the merge's
        # tie order: a stable sort of the rest values (x) the mode values,
        # rest pair first.  A sweep of shifted copies of the rest, mode
        # after mode, breaks ties the other way
        n, k = 48, 40
        prob = ProblemSpec(TorusFundamental((1.0, 0.0), (0.0, 1.0)))
        form = assemble(prob, QuadratureGrid(prob.domain, n))
        res = solve_lowest_detailed(form, k)
        assert res.method == "separable"
        levels, modes = fdsolver._axis_pairs(n, True, k)
        levels = levels * (form.faces[0].flat[0] / form.mass_diag.flat[0])
        sums = np.add.outer(levels, levels).ravel()
        order = np.argsort(sums, kind="stable")[:k]
        rest, mode = np.divmod(order, k)
        last = sums[order[-1]]
        assert (sums[order] == last).sum() < (sums == last).sum()
        expected = np.stack([np.outer(modes[:, i], modes[:, j]).ravel()
                             for i, j in zip(rest, mode)], axis=1) * n
        assert res.vectors == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("prob,shape,repeats,factors", [
        (ProblemSpec(Disk(1.0)), (24, 24), (), ()),
        # constant at the nodes (cos(pi (i + 1/2)) = 0), 1 or 3 at faces:
        # x factors with g = 1 and b alternating 1, 3
        (ProblemSpec(Box((1.0, 1.0)), w="2 + cos(8*pi*x)"), (8, 8), (1,),
         (0,)),
        # e^(-2 rho) factors along y
        (ProblemSpec(Box((1.0, 1.0)), rho="0.1*y"), (12, 12), (0,), (1,)),
        (ProblemSpec(Box((1.0, 1.0)), V="x"), (12, 12), (1,), ()),
        # a weight that varies along z by 1e-9 keeps the mass from
        # factoring with the faces, far beyond rounding
        (ProblemSpec(Box((1.0, 1.0, 1.0)), rho="0.2*z", w="1 + 1e-9*z"),
         (8, 8, 8), (0, 1), ()),
    ], ids=["disk", "faces-only-weight", "rho", "potential", "tiny-weight"])
    def test_not_taken_for_varying_forms(self, prob, shape, repeats,
                                         factors):
        form = assemble(prob, QuadratureGrid(prob.domain, shape))
        # a field varying along an axis keeps that axis unless the form
        # factors along it; the others repeat, and all of them peel
        assert [a for a, f in form.factors.items() if f is None] == \
            list(repeats)
        assert [a for a, f in form.factors.items() if f is not None] == \
            list(factors)
        res = solve_lowest_detailed(form, 4)
        # below the dense crossover, so an unpeeled form is dense, or
        # mirrored where it is its own mirror image, as the centred disk
        assert res.method == ("peeled" if repeats else "mirrored")
        dense = solve_lowest_detailed(form, 4, method="dense")
        assert res.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-10, abs=1e-12)

    def test_wrong_closed_form_fails_the_residual_gate(self):
        # w varies along x by 1e-6: a claim that x is constant too makes
        # the closed form read the first x-face for all, off by 1e-6
        prob = ProblemSpec(Box((1.0, 1.0)), w="1 + 1e-6*x")
        form = assemble(prob, QuadratureGrid(prob.domain, (12, 12)))
        assert form.factors == {1: None}
        form.factors = {0: None, 1: None}
        with pytest.raises(SolverConvergenceError):
            solve_lowest(form, 4)

    def test_whole_spectrum_over_dense_cap_refused(self):
        prob = ProblemSpec(Box((1.0, 1.0)))
        form = assemble(prob, QuadratureGrid(prob.domain, (81, 81)))
        with pytest.raises(ValueError, match="dense-sized"):
            solve_lowest(form, 81 * 81)


# (domain, shape, fields from coefficients a, b, c (none of them 0), the
# axes that peel): w(x) and rho(z) in 3-D, which repeats along y and
# factors along z; V(x) in 2-D; w(x) on a torus, whose periodic modes come
# in cos/sin twins; w(x) in 3-D, which peels two axes; a thin box along
# the peeled axis, where each of many blocks adds only its lowest pair.
# Forms that factor along axes they do not repeat along: a Gaussian rho
# in 2-D and 3-D; a weight seen only by the faces along y (1 or 3 there,
# 2 at the nodes) with rho(x); rho(x) periodic on a torus, whose seam
# face factors too; a mask that repeats along the factored y
PEEL_CASES = {
    "box-3d": (Box((1.0, 1.0, 2.0)), (8, 8, 10),
               lambda a, b, c: {"w": f"1 + {a}*x", "rho": f"{b}*z"},
               (1, 2)),
    "box-2d-potential": (Box((1.0, 1.3)), (12, 10),
                         lambda a, b, c: {"V": f"{c}*x^2 + {b}"}, (1,)),
    "rect-torus": (TorusFundamental((2.0, 0.0), (0.0, 1.0)), (12, 10),
                   lambda a, b, c: {"w": f"1 + {a}*cos(pi*x)",
                                    "rho": f"{b}*x"}, (1,)),
    "two-axes": (Box((1.0, 1.2, 0.8)), (8, 9, 8),
                 lambda a, b, c: {"w": f"1 + {a}*x", "V": f"{c}*x"},
                 (1, 2)),
    "thin-box": (Box((0.2, 3.0)), (8, 24),
                 lambda a, b, c: {"w": f"1 + {a}*x", "rho": f"{b}*x"},
                 (1,)),
    "gauss-2d": (Box((2.0, 2.0), (-1.0, -1.0)), (12, 10),
                 lambda a, b, c: {"rho": f"(x^2 + y^2)/2 + {b}*x"},
                 (0, 1)),
    "gauss-3d": (Box((2.0,) * 3, (-1.0,) * 3), (8, 9, 8),
                 lambda a, b, c: {"rho": f"(x^2 + y^2 + z^2)/2 + {b}*z"},
                 (0, 1, 2)),
    "faces-only-weight": (Box((1.0, 1.0)), (10, 8),
                          lambda a, b, c: {"w": "2 + cos(8*pi*y)",
                                           "rho": f"{b}*x"}, (0, 1)),
    "torus-seam": (TorusFundamental((2.0, 0.0), (0.0, 1.0)), (12, 10),
                   lambda a, b, c: {"rho": f"{b}*cos(pi*x)",
                                    "w": f"1 + {a}*y"}, (0,)),
    "masked": (MaskedBox(Box((1.0, 1.0)), parse_field("x - 0.7", 2)),
               (12, 10),
               lambda a, b, c: {"w": f"1 + {a}*x", "rho": f"{b}*y"}, (1,)),
}
_NONZERO = st.integers(-40, 40).filter(bool).map(lambda i: i / 100)


class TestPeeled:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(PEEL_CASES)), _NONZERO, _NONZERO,
           _NONZERO, st.sampled_from((1, 6, 20, "dof")))
    def test_matches_dense(self, name, a, b, c, k):
        domain, shape, fields, axes = PEEL_CASES[name]
        form = assemble(ProblemSpec(domain, **fields(a, b, c)),
                        QuadratureGrid(domain, shape))
        assert tuple(form.factors) == axes
        k = form.dof_count if k == "dof" else k
        res = solve_lowest_detailed(form, k)
        assert res.method == "peeled"
        dense = solve_lowest_detailed(form, k, method="dense")
        scale = np.abs(dense.spectrum.values).max()
        assert res.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-10, abs=1e-10 * scale)
        mass = form.mass_diag[form.mask][:, None]
        gram = res.vectors.T @ (mass * res.vectors)
        assert gram == pytest.approx(np.eye(k), abs=1e-10)
        assert res.residuals.max() <= 1e-8  # the default tolerance
        # (dof, k) in Fortran order on a full grid, whose gate blocks are
        # then views of the vectors, and in C order on a masked one
        full = form.dof_count == form.mask.size
        assert res.vectors.flags["F_CONTIGUOUS" if full else "C_CONTIGUOUS"]

    def test_blocks_past_the_weyl_bound_are_not_solved(self, monkeypatch):
        # 8x8x16 repeating along y and factoring along z: the y-mode of
        # level l lifts every value of its block by at least
        # l min(c/m) = 64 l, which for the third mode (l = 0.59) clears the
        # 10th value, so two (x, z) blocks are solved and the sweep stops.
        # Each peels z, whose 16-node stencil the y peel solved once for
        # both: x-lines of 8 dof in ascending z-mode, of which the bound
        # stops the sweeps after 5 and 4 of 16
        prob = ProblemSpec(Box((1.0, 1.0, 2.0)), w="1 + 0.5*x",
                           rho="0.2*z")
        form = assemble(prob, QuadratureGrid(prob.domain, (8, 8, 16)))
        solved = []
        original = fdsolver._mass_scaled_pairs

        def counted(block, k, method):
            solved.append(block.dof_count)
            return original(block, k, method)

        monkeypatch.setattr(fdsolver, "_mass_scaled_pairs", counted)
        res = solve_lowest_detailed(form, 10)
        assert solved == [16] + [8] * 5 + [8] * 4
        dense = solve_lowest_detailed(form, 10, method="dense")
        assert res.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-10)

    def test_wrong_factor_fails_the_residual_gate(self):
        # w varies along y by 1e-6 relative, so the faces across y do not
        # follow the mass: a claim that y factors with the mass ratio g
        # and the face ratio b makes every block read slice 0's faces
        prob = ProblemSpec(Box((1.0, 1.0)), rho="0.2*y", w="1 + 1e-6*y")
        form = assemble(prob, QuadratureGrid(prob.domain, (12, 12)))
        assert form.factors == {0: None}
        mass = form.mass_diag[0]
        faces = form.faces[1][0]
        form.factors = {1: (mass / mass[0], faces / faces[0])}
        with pytest.raises(SolverConvergenceError):
            solve_lowest(form, 4)

    def test_a_one_node_slice_keeps_its_level(self):
        # a block of a constant form carries its mode's level on the
        # diagonal; peeled down to one node, that node's value is its own
        # potential over its mass, not the form's nodal V*w
        prob = ProblemSpec(Box((1.0, 1.3)), w="2.5", V="-4")
        form = assemble(prob, QuadratureGrid(prob.domain, (10, 12)))
        block = form.block(1, 7.0)
        assert block.factors == {0: None}
        res = solve_lowest_detailed(block, 4)
        dense = solve_lowest_detailed(block, 4, method="dense")
        assert res.method == "separable"
        assert res.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-12)

    def test_fd3_aniso_blocks_stay_small(self, monkeypatch):
        # the bench's 16x16x32 box repeats along y and factors along z:
        # no dense eigh sees more than the 32 nodes of the z stencil
        prob = ProblemSpec(Box((1.0, 1.0, 2.0)), w="1 + 0.5*x",
                           rho="0.2*z")
        form = assemble(prob, QuadratureGrid(prob.domain, (16, 16, 32)))
        sizes = []
        original = np.linalg.eigh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        res = solve_lowest_detailed(form, 10)
        assert res.method == "peeled"
        assert sizes and max(sizes) <= 32
        monkeypatch.undo()
        whole = solve_lowest_detailed(form, 10, method="iterative")
        assert res.spectrum.values == pytest.approx(
            whole.spectrum.values, rel=1e-10, abs=1e-12)

    def test_fd3_aniso_solves_the_z_stencil_once(self, monkeypatch):
        # every (x, z) block of the y peel peels z with the same stencil
        prob = ProblemSpec(Box((1.0, 1.0, 2.0)), w="1 + 0.5*x",
                           rho="0.2*z")
        form = assemble(prob, QuadratureGrid(prob.domain, (16, 16, 32)))
        solved = []
        original = fdsolver._mass_scaled_pairs

        def counted(block, k, method):
            solved.append(block.mask.shape)
            return original(block, k, method)

        monkeypatch.setattr(fdsolver, "_mass_scaled_pairs", counted)
        assert solve_lowest_detailed(form, 10).method == "peeled"
        assert solved.count((32,)) == 1
        assert len(solved) > 2

    def test_wide_gaussian_factors(self):
        # rho = |x|^2/2 on [-2, 2]^3: read at one node, the slice ratios
        # carried the rounding of four exp(-2 rho) entries, 17 eps from
        # the factored faces; the median over each slice keeps them within
        # 16 eps, so the box peels along every axis
        prob = ProblemSpec(Box((4.0,) * 3, (-2.0,) * 3),
                           rho="(x^2 + y^2 + z^2)/2")
        form = assemble(prob, QuadratureGrid(prob.domain, 24))
        assert tuple(form.factors) == (0, 1, 2)
        res = solve_lowest_detailed(form, 10)
        assert res.method == "peeled"
        whole = solve_lowest_detailed(form, 10, method="iterative")
        assert res.spectrum.values == pytest.approx(
            whole.spectrum.values, rel=1e-10, abs=1e-10)

    def test_blocks_above_the_crossover_use_shift_invert(self):
        # 1-D blocks of 1100 dof: each is a shift-invert solve
        prob = ProblemSpec(Box((1.0, 0.1)), w="1 + 0.5*x")
        form = assemble(prob, QuadratureGrid(prob.domain, (1100, 8)))
        res = solve_lowest_detailed(form, 8)
        assert res.method == "peeled"
        whole = solve_lowest_detailed(form, 8, method="iterative")
        assert res.spectrum.values == pytest.approx(
            whole.spectrum.values, rel=1e-10, abs=1e-12)


# forms that are their own mirror image along some axis or across a
# diagonal, each with its split sizes (the dof of every form that
# `_mirror_halves` splits): a disk off the origin, with a potential
# symmetric about its centre; a 3-D ball, which splits into 8 blocks,
# each too small to split across a diagonal; the oscillator centred in
# its box, whose nodal V*w differs from its mirror by 24 eps at the
# centre nodes, and whose even-even and odd-odd quarters split across
# the diagonal (the even-odd quarter is the odd-even one's image, not its
# own); a form that mirrors along x only.  Forms that mirror only across
# the diagonal: a weight x*y on the unit square; the centred disk at odd
# n; a 3-D box whose x and y sides are equal
MIRROR_CASES = {
    "offset-disk": (ProblemSpec(Disk(1.0, (0.3, -0.2)),
                                V="(x - 0.3)^2 + 2*(y + 0.2)^2"),
                    24, [448, 224, 224]),
    "ball": (ProblemSpec(MaskedBox(Box((2.0,) * 3, (-1.0,) * 3),
                                   parse_field("x^2 + y^2 + z^2 - 1", 3)),
                         w="1 + x^2*y^2"), 12,
             [912, 456, 228, 228, 456, 228, 228]),
    "oscillator": (ProblemSpec(Box((4.0, 4.0), (-2.0, -2.0)),
                               V="x^2 + y^2"), 24,
                   [576, 288, 144, 288, 144]),
    "x-only": (ProblemSpec(Box((1.0, 1.0)), V="x*(1 - x)*(1 + y)"), 20,
               [400]),
    "square-weight": (ProblemSpec(Box((1.0, 1.0)), w="1 + 0.5*x*y"), 24,
                      [576]),
    "odd-disk": (ProblemSpec(Disk(1.0)), 25, [489]),
    "box-3d-xy": (ProblemSpec(Box((1.0, 1.0, 2.0)), V="x*y*z"), (10, 10, 8),
                  [800]),
}


def recorded_splits(monkeypatch):
    """The dof of every form the solve splits, in call order."""
    split = []
    original = fdsolver._mirror_halves

    def counted(form, axis):
        split.append(form.dof_count)
        return original(form, axis)

    monkeypatch.setattr(fdsolver, "_mirror_halves", counted)
    return split


class TestMirrored:
    @pytest.mark.parametrize("case", sorted(MIRROR_CASES))
    def test_matches_dense(self, monkeypatch, case):
        prob, n, sizes = MIRROR_CASES[case]
        form = assemble(prob, QuadratureGrid(prob.domain, n))
        # the halves hold the form's layout: grid arrays, 0 outside their
        # masks.  The odd one carries its cut faces on the potential
        even, odd = fdsolver._mirror_halves(form, fdsolver._mirror_axis(form))
        assert even.zero_potential == form.zero_potential
        assert not odd.zero_potential
        for block in (even, odd):
            assert block.dof_count == block.mask.sum()
            for x in (block.potential, block.mass_diag) + block.faces:
                assert x.shape == block.mask.shape
                assert not x[~block.mask].any()
        split = recorded_splits(monkeypatch)
        res = solve_lowest_detailed(form, 12)
        assert res.method == "mirrored"
        assert split == sizes
        dense = solve_lowest_detailed(form, 12, method="dense")
        assert res.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-10, abs=1e-10)
        assert res.residuals.max() <= 1e-8
        mass = form.mass_diag[form.mask][:, None]
        gram = res.vectors.T @ (mass * res.vectors)
        assert gram == pytest.approx(np.eye(12), abs=1e-10)
        full = form.dof_count == form.mask.size
        assert res.vectors.flags["F_CONTIGUOUS" if full else "C_CONTIGUOUS"]
        # every pair is asked for, as dense blocks
        k = form.dof_count
        whole = solve_lowest_detailed(form, k)
        assert whole.method == "mirrored"
        assert whole.spectrum.values == pytest.approx(
            solve_lowest(form, k, method="dense").values, rel=1e-10,
            abs=1e-10)

    def test_disk_blocks_stay_small(self, monkeypatch):
        # cb-disk-32's centred disk of 812 dof splits along both axes, and
        # its even-even and odd-odd quarters across the diagonal: no dense
        # eigh sees more than a quarter of it
        prob = ProblemSpec(Disk(1.0))
        form = assemble(prob, QuadratureGrid(prob.domain, 32))
        assert form.dof_count == 812
        sizes = []
        original = np.linalg.eigh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        res = solve_lowest_detailed(form, 12)
        assert res.method == "mirrored"
        assert sizes == [107, 96, 203, 203, 107, 96]
        monkeypatch.undo()
        whole = solve_lowest_detailed(form, 12, method="dense")
        assert res.spectrum.values == pytest.approx(
            whole.spectrum.values, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("fields", [
        {}, {"rho": "0.2*z", "V": "x^2 + y^2"}], ids=["constant", "rho-V"])
    def test_peeled_blocks_mirror(self, monkeypatch, fields):
        # a cylinder peels z into one block, its 208-dof disk (the faces
        # along z over the mass are one number), and that block splits
        # once.  A w that varies along z would not factor along it: it
        # scales the faces across z but not the mass
        domain = MaskedBox(Box((2.0, 2.0, 1.0), (-1.0, -1.0, 0.0)),
                           parse_field("x^2 + y^2 - 1", 3))
        prob = ProblemSpec(domain, **fields)
        form = assemble(prob, QuadratureGrid(domain, (16, 16, 8)))
        assert form.dof_count == 1664
        split = recorded_splits(monkeypatch)
        res = solve_lowest_detailed(form, 12)
        assert res.method == "peeled"
        assert split == [208]
        dense = solve_lowest_detailed(form, 12, method="dense")
        assert res.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-10, abs=1e-10)
        mass = form.mass_diag[form.mask][:, None]
        gram = res.vectors.T @ (mass * res.vectors)
        assert gram == pytest.approx(np.eye(12), abs=1e-10)

    def test_odd_block_without_the_middle_face_fails_the_gate(
            self, monkeypatch):
        # an odd vector's difference across the middle face is twice its
        # value there: an odd block without that term is the even block
        # again, whose pairs are no eigenpairs of the whole form
        original = fdsolver._mirror_halves

        def dropped(form, axis):
            even, odd = original(form, axis)
            # the halves share one mask, so even's potential is odd's
            # without the middle layer's term
            return even, fdsolver.replace(odd, potential=even.potential)

        monkeypatch.setattr(fdsolver, "_mirror_halves", dropped)
        prob = ProblemSpec(Disk(1.0))
        form = assemble(prob, QuadratureGrid(prob.domain, 24))
        with pytest.raises(SolverConvergenceError):
            solve_lowest(form, 6)

    def test_odd_block_without_the_diagonal_faces_fails_the_gate(
            self, monkeypatch):
        # an odd vector is 0 on the diagonal, so a face to it puts its
        # coefficient on the potential: an odd block without that term
        # has no eigenpairs of the whole form
        original = fdsolver._mirror_halves

        def dropped(form, refl):
            even, odd = original(form, refl)
            return even, fdsolver.replace(
                odd, potential=even.potential * odd.mask)

        monkeypatch.setattr(fdsolver, "_mirror_halves", dropped)
        prob = ProblemSpec(Box((1.0, 1.0)), w="1 + 0.5*x*y")
        form = assemble(prob, QuadratureGrid(prob.domain, 24))
        assert fdsolver._mirror_axis(form) == (0, 1)
        with pytest.raises(SolverConvergenceError):
            solve_lowest(form, 6)

    @pytest.mark.parametrize("prob,n,method,split", [
        # w varies along x by 1e-9 relative: the disk mirrors along y only
        (ProblemSpec(Disk(1.0), w="1 + 1e-9*x"), 24, None, [448]),
        # at odd n the disk mirrors only across the diagonal
        (ProblemSpec(Disk(1.0)), 25, None, [489]),
        # x*y on the square mirrors across the diagonal, up to 1e-9
        (ProblemSpec(Box((1.0, 1.0)), w="1 + x*y + 1e-9*x"), 24, None, []),
        (ProblemSpec(Box((1.0, 1.0)), w="1 + x*y"), 24, "dense", []),
        (ProblemSpec(Disk(1.0)), 24, "dense", []),
        (ProblemSpec(Disk(1.0)), 24, "iterative", []),
        # w varies along both axes, so nothing peels; periodic axes never
        # split, neither along an axis nor across the diagonal
        (ProblemSpec(TorusFundamental((1.0, 0.0), (0.0, 1.0)),
                     w="1 + 0.3*cos(2*pi*x)*cos(2*pi*y)"), 16, None, []),
    ], ids=["tiny-weight", "odd-n", "diagonal-1e-9", "diagonal-pinned",
            "pinned-dense", "pinned-iterative", "torus"])
    def test_not_split(self, monkeypatch, prob, n, method, split):
        form = assemble(prob, QuadratureGrid(prob.domain, n))
        assert not form.factors
        recorded = recorded_splits(monkeypatch)
        res = solve_lowest_detailed(form, 6, method=method)
        assert recorded == split
        assert res.method == (method or ("mirrored" if split else "dense"))

    def test_tiny_halves_are_not_split(self, monkeypatch):
        # the x line of w = 2 + cos(8 pi x) on 8 nodes (faces 1, 3, 1, ...)
        # mirrors, and so does its even half.  Below _MIRROR_MIN_DOF it is
        # solved whole; without that floor, halving stops at halves of 2
        # nodes, which keep a face along the axis
        prob = ProblemSpec(Box((1.0, 1.0)), w="2 + cos(8*pi*x)")
        line = assemble(prob, QuadratureGrid(prob.domain, (8, 8))).block(
            1, 0.0)
        assert solve_lowest_detailed(line, 4).method == "dense"
        monkeypatch.setattr(fdsolver, "_MIRROR_MIN_DOF", 1)
        split = recorded_splits(monkeypatch)
        res = solve_lowest_detailed(line, 8)
        assert res.method == "mirrored"
        assert split == [8, 4]
        dense = solve_lowest_detailed(line, 8, method="dense")
        assert res.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-10, abs=1e-12)

    def test_hemisphere(self, monkeypatch):
        # the unit disk is the stereographic chart of a hemisphere of the
        # unit sphere: the metric 4/(1 + r^2)^2 |dx|^2 is w = e^(2 rho)
        # with rho = log((1 + r^2)/2).  Its Neumann values are l(l+1),
        # from the harmonics even across the equator (l + m even)
        prob = ProblemSpec(Disk(1.0), w="((1 + x^2 + y^2)/2)^2",
                           rho="log((1 + x^2 + y^2)/2)")
        grid = QuadratureGrid(prob.domain, 32)
        form = assemble(prob, grid)
        split = recorded_splits(monkeypatch)
        res = solve_lowest_detailed(form, 12)
        assert res.method == "mirrored"
        assert split == [812, 406, 203, 406, 203]
        exact = [l * (l + 1) for l in range(5) for _ in range(l + 1)][:12]
        assert res.spectrum.values == pytest.approx(exact, rel=0.05,
                                                    abs=1e-8)
        dense = solve_lowest_detailed(form, 12, method="dense")
        assert res.spectrum.values == pytest.approx(
            dense.spectrum.values, rel=1e-10, abs=1e-10)
        ctx = bound_context(prob, grid, solved=True)
        for k in range(1, 13):
            assert kroger_avg_bound(ctx, k, res.spectrum).holds, k


class TestConvergence:
    def test_orders_near_two_with_oracle(self):
        # the stencil is O(h^2): halving h divides each error by about 4
        prob = ProblemSpec(Box((1.0, 1.0)))
        exact = rectangle_neumann_exact(1.0, 1.0, count=4).values
        errors = [np.abs(solve_lowest(assemble(
            prob, QuadratureGrid(prob.domain, n)), 4).values - exact)[1:]
            for n in (50, 100)]
        orders = np.log2(errors[0] / errors[1])
        assert np.all(orders > 1.75) and np.all(orders < 2.25)


def corner_cut(box, counts):
    """The box with the node at its first corner outside: the sum of the
    node indices (i + 1/2) is at least nu/2 + 1 at every other node."""
    index = " + ".join(f"(x{a + 1} - ({o!r}))/{s / n!r}" for a, (o, s, n)
                       in enumerate(zip(box.origin, box.sides, counts)))
    return MaskedBox(box, parse_field(f"{box.nu / 2 + 0.5!r} - ({index})",
                                      box.nu))


def present_faces(mask, axis):
    """Where a face along `axis` joins two inside nodes of a box."""
    ends = np.moveaxis(mask, axis, 0)
    present = np.zeros_like(ends)
    present[:-1] = ends[:-1] & ends[1:]
    return np.moveaxis(present, 0, axis)


# box, nodes per axis, fields
SAMPLED_CASES = {
    # w of x alone and a constant nonzero rho
    "2-d": (Box((1.0, 1.5)), (12, 10),
            {"w": "1 + 0.5*x", "rho": "0.3", "V": "2*y"}),
    "3-d": (Box((1.0, 1.0, 2.0), (-0.5, 0.0, 0.25)), (8, 9, 10),
            {"w": "1 + 0.2*x*y", "rho": "0.2*z", "V": "sin(3*x) + z"}),
    "3-d-constant-rho": (Box((1.0, 1.0, 1.0)), (8, 8, 8),
                         {"w": "2 + exp(z)", "rho": "-0.4", "V": "3"}),
}


class TestSampledAssembly:
    @pytest.mark.parametrize("case", sorted(SAMPLED_CASES))
    def test_a_full_box_agrees_with_its_corner_cut_bit_for_bit(self, case):
        # the full box samples its fields on the open grid in the shape
        # they vary in; the cut box at its inside nodes and faces, gathered.
        # Every node and face of both has the same bits
        box, counts, fields = SAMPLED_CASES[case]
        full = assemble(ProblemSpec(box, **fields),
                        QuadratureGrid(box, counts))
        grid = QuadratureGrid(corner_cut(box, counts), counts)
        assert not grid.mask.flat[0] and grid.mask.sum() == grid.mask.size - 1
        cut = assemble(ProblemSpec(grid.domain, **fields), grid)
        for name in ("potential", "mass_diag"):
            on_full, on_cut = getattr(full, name), getattr(cut, name)
            assert on_full.shape == on_cut.shape == grid.shape
            assert on_full[grid.mask].tobytes() == \
                on_cut[grid.mask].tobytes(), name
            assert not on_cut[~grid.mask].any(), name
        for axis, (c_full, c_cut) in enumerate(zip(full.faces, cut.faces)):
            present = present_faces(grid.mask, axis)
            assert c_full[present].tobytes() == c_cut[present].tobytes()
            assert not c_cut[~present].any()
            assert (c_full[present] > 0).all()

    @pytest.mark.parametrize("fields", [
        {"w": "1 + x", "rho": "0.1*y"},
        {"w": "1 + x"}], ids=["w-and-rho", "w-alone"])
    def test_a_torus_reads_its_seam_at_the_left_edge(self, fields):
        # w = 1 + x jumps across the seam of x, from 2.14 at the last node
        # to 1 at the edge x = 0 where the seam is read.  The nodes and
        # faces have the bits of the fields evaluated at their gathered
        # points, faces at their midpoints and the seams at the left edge
        prob = ProblemSpec(TorusFundamental((1.2, 0.0), (0.0, 0.9)), **fields)
        grid = QuadratureGrid(prob.domain, (10, 12))
        form = assemble(prob, grid)
        nodes = [np.broadcast_to(c, grid.shape).ravel() for c in grid.coords()]
        mass = np.exp(-2.0 * prob.rho.evaluate(nodes)) * grid.cell_volume
        assert form.mass_diag.tobytes() == \
            np.broadcast_to(mass, grid.mask.size).tobytes()
        for axis, h in enumerate(grid.spacing):
            points = [np.broadcast_to(c, grid.shape).copy()
                      for c in grid.coords()]
            points[axis] += 0.5 * h
            np.moveaxis(points[axis], axis, 0)[-1] = 0.0
            points = [p.ravel() for p in points]
            want = np.broadcast_to(
                prob.w.evaluate(points) *
                np.exp(-2.0 * prob.rho.evaluate(points)) *
                grid.cell_volume / h / h, grid.mask.size)
            assert form.faces[axis].ravel().tobytes() == want.tobytes()
        # y repeats only when nothing varies along it
        assert (form.factors.get(1, 0) is None) == ("rho" not in fields)

    def test_the_shape_shortcut_gives_the_compared_factors_on_every_bench_form(
            self, tmp_path, monkeypatch):
        # an axis along which no sample varies is recorded as repeating
        # without comparing slices; on every fd form of the bench, the
        # comparison finds the same factors, in the same order
        import importlib.util
        import pathlib

        from spectral_bounds.scenario import load_scenario
        root = pathlib.Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", root / "benchmarks" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        shortcut = 0
        for name in workloads.WORKLOADS:
            for case in workloads.build(name, 1, root, tmp_path / name):
                s = load_scenario(case.path)
                if case.expect_status is not None or s.source != "fd":
                    continue
                form = assemble(s.problem,
                                QuadratureGrid(s.problem.domain, s.grid_n))
                want = fdsolver._factors(form)
                assert list(form.factors) == list(want), case.label
                for axis, factor in want.items():
                    got = form.factors[axis]
                    assert (got is None) == (factor is None), case.label
                    if factor is not None:
                        assert all(a.tobytes() == b.tobytes()
                                   for a, b in zip(got, factor)), case.label
                shortcut += sum(f is None for f in want.values())
        assert shortcut > 0

    def test_a_zero_minimum_keeps_the_sign_the_nodes_in_c_order_give_it(self):
        # (x - x) sin(294 x) is +0 or -0 from node to node, and the sign of
        # a zero minimum depends on the order the values are read in: on
        # this grid the column of x values and the whole grid read in C
        # order give different signs.  The floor and the refusal take the
        # sign of the nodes in C order
        box, field = Box((1.0, 1.0)), "(x - x)*sin(294*x)"
        grid = QuadratureGrid(box, (9, 12))
        column = grid.sample(parse_field(field, 2))
        least = np.broadcast_to(column, grid.shape).ravel().min()
        assert least == 0.0 and \
            np.signbit(least) != np.signbit(column.min())
        form = assemble(ProblemSpec(box, V=field), grid)
        assert np.signbit(form.potential_floor) == np.signbit(least)
        with pytest.raises(ValueError, match=f"sampled minimum {least}$"):
            assemble(ProblemSpec(box, w=field), grid)

    def test_a_128_cube_assembles_without_gathered_copies(self):
        # the form keeps the potential, the mass, three face arrays and
        # the diagonal, 6 grid-sized arrays.  Assembly samples w, rho and
        # V in the shape they vary in and gathers no coordinates, and the
        # factor check along x and z reads the potential and the mass where
        # the form holds them: it peaks at 12.0 grid-sized arrays.
        # Copying both onto the grid for that check peaked at 14.0, and
        # gathering the coordinates and the face points at 23.1
        prob = ProblemSpec(Box((1.0, 1.0, 1.0)), w="1 + 0.5*x", rho="0.2*z")
        grid = QuadratureGrid(prob.domain, 128)
        tracemalloc.start()
        try:
            form = assemble(prob, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 8 * grid.mask.size
        assert list(form.factors) == [1, 2] and form.factors[1] is None
