import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from spectral_bounds import (BoundContext, Box, Disk, ProblemSpec,
                             QuadratureGrid, Spectrum, WeylMinorant,
                             bound_context,
                             euclidean_H, general_sum_bound,
                             heat_lower_bound,
                             individual_bound_pos, individual_bound_sk,
                             kroger_avg_bound, rectangle_neumann_exact,
                             riesz_lower_bound, riesz_mean_1)

PI2 = math.pi ** 2


def numeric_conjugate(riesz, k, start):
    """sup_z (k z - R(z)) for a convex R that vanishes up to `start`.

    k z - R(z) is concave and rises up to `start`, so once it falls
    between start + d and start + 2d its maximum lies in
    [start, start + 2d]; bounded Brent finds it there.
    """
    def gain(z):
        return k * z - riesz(z)

    d = 1e-9 * max(1.0, abs(start))
    while gain(start + 2.0 * d) >= gain(start + d):
        d *= 2.0
    best = minimize_scalar(lambda z: -gain(z), bounds=(start, start + 2 * d),
                           method="bounded",
                           options={"xatol": 1e-12 * (abs(start) + d)})
    return gain(best.x)


def contexts():
    """A BoundContext from any positive |Omega|, w_mean and an H, with
    vweff_mean of either sign, in dimensions 1 to 4."""
    positive = st.floats(min_value=0.1, max_value=10.0)
    return st.tuples(st.integers(min_value=1, max_value=4), positive,
                     positive, st.floats(min_value=-5.0, max_value=5.0),
                     positive).map(lambda a: (
                         BoundContext(None, a[0], a[1], a[2], a[3]), a[4]))


@pytest.fixture(scope="module")
def square():
    prob = ProblemSpec(Box((1.0, 1.0)))
    grid = QuadratureGrid(prob.domain, (64, 64))
    spec = rectangle_neumann_exact(1.0, 1.0, count=60)
    return bound_context(prob, grid), spec


class TestBoundContext:
    def test_constants_on_square(self):
        prob = ProblemSpec(Box((2.0, 0.5)), w="3", V="0.25")
        ctx = bound_context(prob, QuadratureGrid(prob.domain, (16, 16)))
        assert (ctx.domain, ctx.nu) == (prob.domain, 2)
        assert ctx.volume == 1.0
        assert ctx.w_mean == pytest.approx(3.0, rel=1e-15)
        assert ctx.vw_mean == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("w", ["x - 0.5", "0*x"])
    def test_rejects_nonpositive_weight(self, w):
        prob = ProblemSpec(Box((1.0, 1.0)), w=w)
        with pytest.raises(ValueError, match="strictly positive"):
            bound_context(prob, QuadratureGrid(prob.domain, (16, 16)))

    def test_weight_checked_on_the_given_grid(self):
        # negative only on the first column of cells of a 64-grid: a
        # coarser screen would miss it, the run grid does not
        prob = ProblemSpec(Box((1.0, 1.0)), w="x - 0.01")
        with pytest.raises(ValueError, match="64x64"):
            bound_context(prob, QuadratureGrid(prob.domain, (64, 64)))
        ctx = bound_context(prob, QuadratureGrid(prob.domain, (32, 32)))
        assert ctx.w_mean == pytest.approx(0.49, rel=1e-12)

    def test_solved_measure_for_fd(self):
        # fd solves the staircase of inside cells: on the unit disk at
        # n=16 that is 3.45% more than pi; a box fills its grid and keeps
        # the exact measure
        disk = ProblemSpec(Disk(1.0))
        grid = QuadratureGrid(disk.domain, 16)
        assert grid.measure() == pytest.approx(1.0345 * math.pi, rel=1e-4)
        assert bound_context(disk, grid, solved=True).volume == \
            grid.measure()
        assert bound_context(disk, grid).volume == math.pi
        box = ProblemSpec(Box((2.0, 0.5)))
        assert bound_context(box, QuadratureGrid(box.domain, 16),
                             solved=True).volume == 1.0


class TestEuclideanH:
    def test_values(self):
        assert euclidean_H(2) == pytest.approx(4 * math.pi)
        assert euclidean_H(3) == pytest.approx(8 * math.pi ** 3 /
                                               (4 * math.pi / 3))


class TestSumBounds:
    def test_closed_form_on_square(self, square):
        # nu = 2, |Omega| = 1, w = 1, V = rho = 0:
        # sum_{j<k} mu_j <= k * (4 pi^2 * (2/4)) * (k / omega_2) = 2 pi k^2
        ctx, spec = square
        for k in (1, 5, 10, 20, 50):
            r = kroger_avg_bound(ctx, k, spec)
            assert r.bound_value == pytest.approx(2 * math.pi * k * k,
                                                  rel=1e-13)
            assert r.computed_value == pytest.approx(spec.partial_sum(k))
            assert r.holds

    def test_holds_every_k_to_fifty(self, square):
        ctx, spec = square
        for k in range(1, 51):
            assert kroger_avg_bound(ctx, k, spec).holds

    def test_slack_increases_toward_one(self, square):
        ctx, spec = square
        slacks = [kroger_avg_bound(ctx, k, spec).slack_ratio
                  for k in (5, 10, 20, 50)]
        assert all(s is not None and s <= 1.0 for s in slacks)
        assert all(a < b for a, b in zip(slacks, slacks[1:]))

    def test_general_sum_default_matches_kroger(self, square):
        ctx, spec = square
        for k in (3, 12):
            a = kroger_avg_bound(ctx, k, spec).bound_value
            b = general_sum_bound(ctx, k, spec).bound_value
            assert a == pytest.approx(b, rel=1e-14)

    def test_larger_H_weakens_bound(self, square):
        ctx, spec = square
        base = general_sum_bound(ctx, 8, spec)
        loose = general_sum_bound(ctx, 8, spec, H_omega=2 * euclidean_H(2))
        assert loose.bound_value > base.bound_value
        assert loose.holds

    def test_weighted_shift_appears(self):
        # constant V = 2, w = 1: bound shifts by exactly 2 per eigenvalue
        flat = ProblemSpec(Box((1.0, 1.0)))
        lifted = ProblemSpec(Box((1.0, 1.0)), V="2")
        g = QuadratureGrid(flat.domain, (32, 32))
        base_spec = rectangle_neumann_exact(1.0, 1.0, count=30)
        lifted_spec = Spectrum(base_spec.values + 2.0, base_spec.cutoff + 2.0)
        k = 7
        b0 = kroger_avg_bound(bound_context(flat, g), k, base_spec)
        b1 = kroger_avg_bound(bound_context(lifted, g), k, lifted_spec)
        assert b1.bound_value == pytest.approx(b0.bound_value + 2.0 * k,
                                               rel=1e-12)
        assert b1.holds


class TestRieszHeat:
    def test_riesz_lower_z_grid(self, square):
        ctx, spec = square
        for z in np.linspace(5.0, spec.cutoff, 20):
            r = riesz_lower_bound(ctx, float(z), spec)
            assert r.holds, z

    def test_riesz_closed_form(self, square):
        # lower bound (2 |Omega| / ((nu+2) H)) z^2 = z^2 / (8 pi) on the square
        ctx, spec = square
        z = 100.0
        r = riesz_lower_bound(ctx, z, spec)
        assert r.bound_value == pytest.approx(z * z / (8 * math.pi), rel=1e-13)
        assert r.computed_value == pytest.approx(riesz_mean_1(spec, z))

    def test_heat_lower(self, square):
        ctx, spec = square
        for t in (0.5, 1.0, 2.0):
            r = heat_lower_bound(ctx, t, spec)
            # closed form (pi/t) |Omega| / (omega_2 H) = 1 / (4 pi t)
            assert r.bound_value == pytest.approx(1.0 / (4 * math.pi * t),
                                                  rel=1e-13)
            assert r.holds

    def test_legendre_conjugate_reproduces_sum_bound(self, square):
        ctx, spec = square
        riesz = WeylMinorant(ctx).riesz
        for k in (1, 5, 10, 20, 50):
            dual = numeric_conjugate(riesz, float(k), ctx.vw_mean)
            direct = general_sum_bound(ctx, k, spec).bound_value
            assert dual == pytest.approx(direct, rel=1e-10)

    def test_legendre_conjugate_shift_term(self, square):
        # vweff_mean = B moves R right by B and adds B*k to its conjugate
        ctx, _ = square
        lifted = WeylMinorant(dataclasses.replace(ctx, vw_mean=7.0))
        for k in (1.0, 4.0, 12.5):
            assert lifted.sum(k) == pytest.approx(
                WeylMinorant(ctx).sum(k) + 7.0 * k, rel=1e-13)
            assert numeric_conjugate(lifted.riesz, k, 7.0) == pytest.approx(
                lifted.sum(k), rel=1e-10)

    def test_heat_checks_t_before_H(self, square):
        # the order a heat-lower entry with both faults has always reported
        ctx, spec = square
        with pytest.raises(ValueError, match="t must be positive"):
            heat_lower_bound(ctx, 0.0, spec, H_omega=-1.0)


@settings(max_examples=60, deadline=None)
@given(contexts(), st.floats(min_value=0.5, max_value=200.0))
def test_weyl_sum_is_the_legendre_conjugate_of_riesz(context, k):
    ctx, H = context
    minorant = WeylMinorant(ctx, H)
    assert minorant.sum(k) == pytest.approx(
        numeric_conjugate(minorant.riesz, k, ctx.vw_mean),
        rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(contexts(), st.floats(min_value=0.05, max_value=5.0))
def test_weyl_heat_is_the_laplace_transform_of_riesz(context, t):
    ctx, H = context
    minorant = WeylMinorant(ctx, H)
    # R vanishes below vweff_mean
    integral = quad(lambda z: math.exp(-t * z) * minorant.riesz(z),
                    ctx.vw_mean, math.inf, epsabs=0.0, epsrel=1e-12)[0]
    assert minorant.heat(t) * math.exp(-t * minorant.shift) == \
        pytest.approx(t * t * integral, rel=1e-8)


class TestIndividual:
    def test_sk_bound_on_square(self, square):
        ctx, spec = square
        for k in (5, 10, 20):
            r = individual_bound_sk(ctx, k, spec)
            assert r.holds
            s_k = float(r.notes[0].split("=")[1])
            assert 0.0 < s_k <= 1.0

    def test_sk_needs_k_plus_one(self, square):
        ctx, spec = square
        with pytest.raises(Exception):
            individual_bound_sk(ctx, len(spec), spec)

    def test_sk_rejects_impossible_spectrum(self, square):
        ctx, _ = square
        # partial sums far above the Weyl term make S_k > 1, which cannot
        # come from a genuine Neumann spectrum of this problem
        fake = Spectrum(np.array([1e6, 2e6, 3e6]), cutoff=3e6)
        with pytest.raises(ValueError, match="S_k"):
            individual_bound_sk(ctx, 2, fake)

    def test_pos_pair_on_square(self, square):
        ctx, spec = square
        for k in (5, 10, 20):
            ri, rm = individual_bound_pos(ctx, k, spec)
            assert ri.holds and rm.holds
            assert ri.kind != rm.kind

    def test_pos_requires_nonnegative_head(self, square):
        ctx, _ = square
        fake = Spectrum(np.array([-5.0, 1.0, 2.0]), cutoff=2.0)
        with pytest.raises(ValueError):
            individual_bound_pos(ctx, 2, fake)

    def test_pos_implicit_lhs_vanishes_at_zero_eigenvalue(self, square):
        # mu_k = 0 with positive shift: (1 - shift/mu)_+ reads as 0
        prob = ProblemSpec(Box((1.0, 1.0)), V="1")
        ctx = bound_context(prob, QuadratureGrid(prob.domain, (32, 32)))
        fake = Spectrum(np.array([0.0, 0.0, 0.0]), cutoff=0.0)
        ri, _ = individual_bound_pos(ctx, 2, fake)
        assert ri.computed_value == 0.0
        assert ri.holds


# the three coefficient variations of the acceptance battery, at reduced
# resolution for module-level speed; one shared iterative solve per case
WEIGHTED_CASES = [
    {"V": "x^2 + y^2"},
    {"w": "1 + x/2"},
    {"rho": "(x^2 + y^2)/4"},
]


@pytest.fixture(scope="module", params=WEIGHTED_CASES,
                ids=["potential", "weight", "drift"])
def weighted_case(request):
    from spectral_bounds import assemble, solve_lowest
    prob = ProblemSpec(Box((2.0, 2.0), (-1.0, -1.0)), **request.param)
    grid = QuadratureGrid(prob.domain, (72, 72))
    spec = solve_lowest(assemble(prob, grid), 12, method="iterative")
    return bound_context(prob, grid), spec


class TestWeightedVariants:
    def test_sum_bound_holds_against_fd(self, weighted_case):
        ctx, spec = weighted_case
        for k in (1, 5, 10):
            r = general_sum_bound(ctx, k, spec)
            assert r.holds, k

    def test_individual_bounds_hold_against_fd(self, weighted_case):
        ctx, spec = weighted_case
        for k in (4, 10):
            assert individual_bound_sk(ctx, k, spec).holds
            ri, rm = individual_bound_pos(ctx, k, spec)
            assert ri.holds and rm.holds
