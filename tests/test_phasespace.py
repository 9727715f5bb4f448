"""Tests for phase-space volumes and the semiclassical sum bound.

Closed-form oracles: a flat potential on the unit square gives
Phi_1(L) = L/(4 pi) and E_w(L) = L^2/(8 pi); the isotropic oscillator
V = x^2 + y^2 gives Phi_1(L) = L^2/8, E_w(L) = L^3/12 (kinetic and
potential energy L^3/24 each) and Lambda(k) = sqrt(8 k).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from spectral_bounds import phasespace
from spectral_bounds.bounds import bound_context, kroger_avg_bound
from spectral_bounds.domains import (Box, Disk, MaskedBox, QuadratureGrid,
                                     TorusFundamental)
from spectral_bounds.expressions import differentiate, parse_field
from spectral_bounds.fdsolver import assemble, solve_lowest
from spectral_bounds.phasespace import (_BLOCK, _CHUNK, PhaseSpaceData,
                                        _block_moments, _slab_sums,
                                        lambda_of_k, phase_space_sum_bound,
                                        phase_space_tables)
from spectral_bounds.problem import ProblemSpec
from spectral_bounds.special import unit_ball_volume
from spectral_bounds.spectra import Spectrum, SpectrumRangeError


def flat_tables(n=64, V="0"):
    prob = ProblemSpec(Box((1.0, 1.0)), V=V)
    grid = QuadratureGrid(prob.domain, n)
    return prob, phase_space_tables(prob, grid)


def oscillator_tables(n=512):
    prob = ProblemSpec(Box((16.0, 16.0), origin=(-8.0, -8.0)),
                       V="x1^2 + x2^2")
    grid = QuadratureGrid(prob.domain, n)
    return prob, phase_space_tables(prob, grid)


def test_flat_volumes_closed_form():
    _, psd = flat_tables()
    # midpoint quadrature of a constant integrand is exact
    for lam in (1.0, 10.0, 137.5):
        assert psd.phi1_at(lam) == pytest.approx(lam / (4 * math.pi),
                                                 rel=1e-13)
        assert psd.phiw_at(lam) == pytest.approx(lam / (4 * math.pi),
                                                 rel=1e-13)
        assert psd.ew_at(lam) == pytest.approx(lam ** 2 / (8 * math.pi),
                                               rel=1e-13)
    assert psd.lip_at(50.0) == 0.0


def test_flat_lambda_of_k():
    _, psd = flat_tables()
    for k in (1, 7, 20):
        assert lambda_of_k(psd, k) == pytest.approx(4 * math.pi * k,
                                                    rel=1e-12)


def test_oscillator_volumes_and_level():
    _, psd = oscillator_tables()
    # closed forms hold while the sublevel disk stays inside the box,
    # i.e. for lam <= 64
    for lam in (4.0, 30.0, 60.0):
        assert psd.phi1_at(lam) == pytest.approx(lam ** 2 / 8, rel=2e-4)
        assert psd.ew_at(lam) == pytest.approx(lam ** 3 / 12, rel=2e-4)
    lam10 = lambda_of_k(psd, 10)
    assert lam10 == pytest.approx(math.sqrt(80.0), rel=2e-4)


def test_oscillator_level_grid_convergence():
    errs = []
    for n in (128, 256, 512):
        _, psd = oscillator_tables(n=n)
        errs.append(abs(lambda_of_k(psd, 10) - math.sqrt(80.0)))
    assert errs[2] < errs[0]
    assert errs[2] < 2e-4 * math.sqrt(80.0)


def test_oscillator_lip_constant():
    prob, psd = oscillator_tables(n=512)
    grid = QuadratureGrid(prob.domain, 512)
    h = 16.0 / 512
    # |grad Vtilde| = 2 r, so the sublevel sup is 2 sqrt(lam)
    for lam in (4.0, 25.0):
        expected = 2.0 * math.sqrt(lam)
        assert abs(direct_sweep(prob, grid, lam)[3] - expected) < 4 * h
        assert abs(psd.lip_at(lam) - expected) < 4 * h
    assert psd.lip_at(-1.0) == 0.0


def test_volumes_never_decrease_with_the_level():
    _, psd = oscillator_tables(n=128)
    levels = np.linspace(-1.0, 150.0, 303)
    for at in (psd.phi1_at, psd.phiw_at):
        values = np.array([at(lam) for lam in levels])
        assert values[0] == 0.0
        assert np.all(np.diff(values) >= 0)


def test_lambda_of_k_needs_positive_k():
    _, psd = flat_tables(n=16)
    with pytest.raises(ValueError, match="positive"):
        lambda_of_k(psd, 0)


@pytest.mark.parametrize("case", ["tiny-k"])
def test_lambda_of_k_refuses_a_level_it_cannot_resolve(case):
    # a tiny k at the second node of an oscillator: Phi_1 climbs from 0 to
    # k within about 1e-15 of a floor of 0.0025, less than the ulps of the
    # level can resolve, so Phi_1 cannot land within 1e-6 of k
    prob = ProblemSpec(Box((2.0,) * 3, origin=(-1.0,) * 3),
                       V="x^2 + y^2 + 2*z^2")
    psd = phase_space_tables(prob, QuadratureGrid(prob.domain, 40))
    k = psd.phi1_at(float(psd.vt_nodes[1]))
    with pytest.raises(ValueError, match="cannot be resolved"):
        lambda_of_k(psd, k)


@pytest.mark.parametrize("k", [1e-3, 1, 2, 3])
def test_lambda_of_k_settles_a_level_far_below_one(k):
    # on an interval of length 1e9, Phi_1(L) = 1e9 sqrt(L)/pi reaches k at
    # L = (pi k/1e9)^2, about 1e-17: an absolute stop width of 1e-15 would
    # leave Phi_1 near 7 at k = 1
    prob = ProblemSpec(Box((1e9,)))
    psd = phase_space_tables(prob, QuadratureGrid(prob.domain, 16))
    lam = lambda_of_k(psd, k)
    assert lam == pytest.approx((math.pi * k / 1e9) ** 2, rel=1e-14)
    assert k <= psd.phi1_at(lam) <= k * (1 + 1e-14)


@pytest.mark.parametrize("side", [1e155, 1e160, 1e163, 1e200])
def test_lambda_of_k_stops_at_subnormal_levels(side):
    # Lambda(k) = (pi k/side)^2 falls near or into the subnormal range,
    # where 1e-15 |hi| is below an ulp of hi or underflows to 0: the
    # bracket must still stop, with a settled level or a ValueError
    prob = ProblemSpec(Box((side,)))
    psd = phase_space_tables(prob, QuadratureGrid(prob.domain, 16))
    phi1_at, sweeps = psd.phi1_at, []

    def counted(lam):
        sweeps.append(lam)
        if len(sweeps) > 200:
            raise AssertionError("lambda_of_k does not stop")
        return phi1_at(lam)

    psd.phi1_at = counted
    for k in (1, 2, 3):
        sweeps.clear()
        try:
            lam = lambda_of_k(psd, k)
        except ValueError as exc:
            assert "cannot be resolved" in str(exc)
            assert side > 1e155
        else:
            assert k <= phi1_at(lam) <= k * (1 + 1e-6)
            assert lam == pytest.approx((math.pi * k / side) ** 2, rel=1e-6)


@pytest.mark.parametrize("floor", [0.0, -1e4])
def test_lambda_of_k_far_above_the_spectrum(floor):
    # Phi_1(L) = (L - floor)/(4 pi) on the unit square: Lambda(900) lies
    # 11310 above the floor, 14 doublings of the first step for a floor
    # of 0 and a level past zero for a floor of -1e4
    _, psd = flat_tables(n=16, V=repr(floor))
    assert psd.vt_nodes[0] == floor
    assert psd.phi1_at(floor) == 0.0
    for k in (5, 900):
        assert lambda_of_k(psd, k) - floor == pytest.approx(
            4 * math.pi * k, rel=1e-12)


def bisected_level(psd, k):
    """Lambda(k) by plain bisection to the stop width of lambda_of_k, with
    the number of volume sweeps it took."""
    floor = float(psd.vt_nodes[0])
    gap, sweeps = max(1.0, abs(floor)), 1
    while psd.phi1_at(floor + gap) < k:
        gap, sweeps = 2.0 * gap, sweeps + 1
    lo, hi = floor, floor + gap
    while hi - lo > 1e-15 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        sweeps += 1
        if psd.phi1_at(mid) >= k:
            hi = mid
        else:
            lo = mid
    return hi, sweeps


ROOT_CASES = {
    "nu1": (ProblemSpec(Box((4.0,), origin=(-2.0,)), V="x^2"), 2000),
    "nu2-weighted": (ProblemSpec(Box((8.0, 8.0), origin=(-4.0, -4.0)),
                                 V="x^2 + y^2", w="1 + 0.1*x"), 128),
    "nu3": (ProblemSpec(Box((2.0, 2.0, 2.0), origin=(-1.0, -1.0, -1.0)),
                        V="x^2 + y^2 + 2*z^2", w="1 + 0.25*z"), 24),
    "nu4": (ProblemSpec(Box((4.0,) * 4, origin=(-2.0,) * 4),
                        V="x1^2 + x2^2 + x3^2 + x4^2"), 12),
    "negative-floor": (ProblemSpec(Box((2.0, 2.0), origin=(-1.0, -1.0)),
                                   V="x^2 + y^2 - 1e4"), 96),
    # every node right of x = 0.5 ties at Vtilde = 0.5
    "tied": (ProblemSpec(Box((2.0, 2.0)), V="min(x, 0.5)"), 64),
}


def count_calls(monkeypatch, name):
    """Record the arguments of every call to PhaseSpaceData.<name>."""
    calls = []
    real = getattr(PhaseSpaceData, name)
    monkeypatch.setattr(PhaseSpaceData, name, lambda self, *args:
                        calls.append(args) or real(self, *args))
    return calls


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_lambda_of_k_matches_bisection(case, monkeypatch):
    prob, n = ROOT_CASES[case]
    psd = phase_space_tables(prob, QuadratureGrid(prob.domain, n))
    vt = psd.vt_nodes
    # integer k, and k equal to Phi_1 at a node value (tied nodes, and
    # for nu = 1 a square-root kink right at the root)
    ks = [1, 2, 5, 37] + [psd.phi1_at(float(vt[m]))
                          for m in (vt.size // 7, vt.size // 2)]
    if case == "tied":
        ks.append(psd.phi1_at(0.5))
    calls = count_calls(monkeypatch, "phi1_at")
    for k in ks:
        want, bisect_sweeps = bisected_level(psd, k)
        calls.clear()
        got = lambda_of_k(psd, k)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (k, got, want)
        assert len(calls) <= bisect_sweeps, (k, len(calls), bisect_sweeps)
        assert psd.phi1_at(got) >= k


def test_lambda_of_k_sweeps_on_the_cube_oscillator(monkeypatch):
    # the 80^3 box of the phase-space benchmark: bisection to the same
    # stop width takes about 55 sweeps at k = 10
    prob = ProblemSpec(Box((6.0,) * 3, origin=(-3.0,) * 3),
                       V="x^2 + y^2 + z^2")
    psd = phase_space_tables(prob, QuadratureGrid(prob.domain, 80))
    calls = count_calls(monkeypatch, "_volume_sum")
    lam = lambda_of_k(psd, 10)
    assert len(calls) <= 30
    assert lam == pytest.approx(bisected_level(psd, 10)[0], rel=1e-14)


@pytest.mark.parametrize("k", [11, 10 ** 17, int(1e300)])
def test_k_beyond_the_spectrum_refused_before_any_sweep(k, monkeypatch):
    # at k = 1e300 the bracket for Lambda(k) would overflow
    _, psd = flat_tables(n=16)

    def sweep(*args, **kwargs):
        raise AssertionError("node sweep")

    monkeypatch.setattr(PhaseSpaceData, "_volume_sum", sweep)
    with pytest.raises(SpectrumRangeError, match="have 10"):
        phase_space_sum_bound(k, psd, Spectrum(np.zeros(10), cutoff=0.0))


def test_flat_bound_coincides_with_averaged_bound():
    # V = 0 on the unit square: the sum bound must land on the averaged
    # (Kroger) value 2 pi k^2 to near machine precision
    prob, psd = flat_tables()
    ctx = bound_context(prob, QuadratureGrid(prob.domain, 64))
    fake = Spectrum(np.zeros(60), cutoff=0.0)
    for k in (1, 5, 20, 50):
        rep = phase_space_sum_bound(k, psd, fake)
        averaged = kroger_avg_bound(ctx, k, fake)
        assert abs(rep.bound_value - averaged.bound_value) <= 1e-10
        assert abs(rep.bound_value - 2 * math.pi * k * k) <= 1e-10
        assert "flat effective potential" in rep.notes[-1]


def test_oscillator_bound_dominates_fd_sum():
    prob, psd = oscillator_tables(n=512)
    grid = QuadratureGrid(prob.domain, 128)
    result = solve_lowest(assemble(prob, grid), 10, method="iterative")
    spectrum = Spectrum(result.values, cutoff=float(result.values[-1]))
    rep = phase_space_sum_bound(10, psd, spectrum)
    # sum of the first ten oscillator levels is 60; the phase-space bound
    # carries a large Lipschitz correction and sits far above it
    assert spectrum.partial_sum(10) == pytest.approx(60.0, rel=2e-2)
    assert rep.holds
    assert rep.bound_value > 100.0
    assert any("Bessel order 0" in note for note in rep.notes)


@pytest.mark.parametrize("k", [1, 10, 100])
def test_oscillator_sum_bound_matches_its_closed_form(k):
    # V = x^2 + y^2, w = 1: Lambda(k) = sqrt(8 k), |grad V| = 2 |x| gives
    # L = 2 sqrt(Lambda) on {V <= Lambda}, the Bessel order nu/2 - 1 is 0,
    # and E_w and Phi_w at a level l read l^3/12 and l^2/8.  The disk of
    # radius sqrt(Lambda + s) stays inside the box up to k = 100
    prob = ProblemSpec(Box((12.0, 12.0), origin=(-6.0, -6.0)),
                       V="x1^2 + x2^2")
    psd = phase_space_tables(prob, QuadratureGrid(prob.domain, 256))
    rep = phase_space_sum_bound(k, psd, Spectrum(np.zeros(100), cutoff=0.0))
    lam = math.sqrt(8.0 * k)
    j = 2.404825557695773
    s = (2.0 * j * j * 2.0 * math.sqrt(lam)) ** (1.0 / 3.0)
    exact = lam ** 3 / 12.0 + 3.0 * s * (lam + s) ** 2 / 8.0
    # midpoint quadrature of the volumes: -1.8e-3 relative at k = 1,
    # -4.4e-4 at k = 10, -1.7e-5 at k = 100
    assert rep.bound_value == pytest.approx(exact, rel=3e-3)
    assert "Lipschitz constant grid-sampled (possible underestimate)" in \
        rep.notes
    assert f"Bessel order 0, first zero {j:.12g}" in rep.notes


def test_auto_extension_inside_bound():
    _, psd = flat_tables(n=32)
    fake = Spectrum(np.zeros(40), cutoff=0.0)
    rep = phase_space_sum_bound(30, psd, fake)
    assert rep.bound_value == pytest.approx(2 * math.pi * 900, rel=1e-10)


def direct_sweep(prob, grid, lam):
    """Phi_1, Phi_w, E_w and the sublevel Lipschitz constant at lam by one
    sweep over every inside node in grid order."""
    vt_expr = prob.effective_potential()
    vt = grid.inside_values(vt_expr)
    w = grid.inside_values(prob.w)
    grad_sq = np.zeros_like(vt)
    for axis in range(prob.nu):
        grad_sq += grid.inside_values(differentiate(vt_expr, axis)) ** 2
    nu = prob.nu
    scale = unit_ball_volume(nu) / (2 * math.pi) ** nu * grid.cell_volume
    gap = np.clip(lam - vt, 0.0, None)
    below = vt <= lam
    return (scale * np.sum(gap ** (nu / 2)),
            scale * np.sum(gap ** (nu / 2) * w),
            scale * np.sum((nu / (nu + 2) * gap ** (1 + nu / 2) +
                            vt * gap ** (nu / 2)) * w),
            float(np.sqrt(grad_sq[below].max())) if below.any() else 0.0)


SWEEP_CASES = {
    "weighted": (ProblemSpec(Box((2.0, 2.0), origin=(-1.0, -1.0)),
                             V="x^2 + y^2", w="1 + 0.5*x"), 96),
    "nu3": (ProblemSpec(Box((2.0, 2.0, 2.0), origin=(-1.0, -1.0, -1.0)),
                        V="x^2 + y^2 + 2*z^2", w="1 + 0.25*z"), 24),
    "disk": (ProblemSpec(Disk(1.0), V="x^2 + 2*y^2", rho="0.5*x"), 96),
    # a large offset cancels in lam^2 sum w - 2 lam sum w Vt + sum w Vt^2
    # unless the expansion is taken about the floor
    "offset": (ProblemSpec(Box((2.0, 2.0), origin=(-1.0, -1.0)),
                           V="1e4 + x^2 + y^2"), 96),
    # the potential energy changes sign across the sublevel set
    "negative": (ProblemSpec(Box((2.0, 2.0), origin=(-1.0, -1.0)),
                             V="x^2 + y^2 - 1", w="1 + 0.5*y"), 96),
    "negative-nu3": (ProblemSpec(Box((2.0, 2.0, 2.0),
                                     origin=(-1.0, -1.0, -1.0)),
                                 V="x^2 + y^2 + z^2 - 2"), 24),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sorted_kernel_matches_direct_sweep(case):
    prob, n = SWEEP_CASES[case]
    grid = QuadratureGrid(prob.domain, n)
    psd = phase_space_tables(prob, grid)
    vt = psd.vt_nodes
    assert vt.size > 2 * _BLOCK
    assert np.all(np.diff(vt) >= 0)
    # below the floor, on node values (ties, both sides of a block
    # boundary), between nodes, and above the top
    levels = [vt[0] - 1.0, vt[0], vt[1], vt[_BLOCK - 1], vt[_BLOCK],
              vt[2 * _BLOCK + 1], vt[vt.size // 2],
              0.5 * (vt[vt.size // 3] + vt[vt.size // 3 + 1]),
              vt[-1], vt[-1] + 1.0]
    buckets = psd.lip_index.buckets(vt)
    for lam in levels:
        lam = float(lam)
        phi1, phiw, ew, lip = direct_sweep(prob, grid, lam)
        for got, want in ((psd.phi1_at(lam), phi1), (psd.phiw_at(lam), phiw),
                          (psd.ew_at(lam), ew)):
            assert abs(got - want) <= 1e-12 * abs(want), (lam, got, want)
        top = bucket_top(vt, buckets, lam)
        assert lip <= psd.lip_at(lam) <= direct_sweep(prob, grid, top)[3]


class RunningMax:
    """The sublevel maxima of |grad Vtilde|^2 as a running maximum over the
    nodes in sorted order, read where the first count nodes end: the
    reference that brackets PhaseSpaceData.lip_index."""

    def __init__(self, grad_sq):
        self.running = np.maximum.accumulate(grad_sq)

    def max_at(self, vt, count):
        return float(self.running[count - 1])


def stable_order_tables(prob, grid):
    """The tables as a stable sort builds them: tied nodes in grid order,
    every weight evaluated at its node, the weighted moments summed from
    the gathered weights, and the Lipschitz constant read from the running
    maximum of |grad Vtilde|^2 over the sorted nodes."""
    vt_expr = prob.effective_potential()
    vt = grid.inside_values(vt_expr)
    grad_sq = np.zeros_like(vt)
    for axis in range(prob.nu):
        grad_sq += grid.inside_values(differentiate(vt_expr, axis)) ** 2
    order = np.argsort(vt, kind="stable")
    w = grid.inside_values(prob.w)[order]
    moments = None
    if prob.nu % 2 == 0:
        moments = _block_moments(vt[order], w, prob.nu // 2 + 1, False)
    return PhaseSpaceData(
        nu=prob.nu, vt_nodes=vt[order], w_nodes=w,
        cell_volume=grid.cell_volume, block_moments=moments,
        lip_index=RunningMax(grad_sq[order]))


def lip_levels(vt, stride=1):
    """A level of every kind lip_at can tell apart.  It reads a level only
    through the sorted nodes at or below it and where it falls among the
    node values, so these reach every float: each distinct node value (the
    end of a tie group), the float just below it and the midpoint of each
    gap between values (one bucket or two, so every bucket edge), NaN, the
    infinities, and levels below the floor and above the top.  A stride
    takes every stride-th value, for tables too large to read in full."""
    values = np.unique(vt)
    sample = values[::stride]
    inside = np.minimum(np.searchsorted(values, sample) + 1, values.size - 1)
    return np.concatenate([
        sample, np.nextafter(sample, -np.inf),
        0.5 * sample + 0.5 * values[inside],
        [np.nan, -np.inf, np.inf, values[0] - 1.0, values[-1] + 1.0]])


def bucket_top(vt, buckets, lam):
    """The top value of the bucket of the largest of the sorted nodes vt
    at or below lam, lam if there is none: lip_at(lam) may read the nodes
    of that bucket above lam, and no others."""
    count = int(np.searchsorted(vt, lam, side="right"))
    if not count:
        return lam
    return float(vt[np.searchsorted(buckets, buckets[count - 1],
                                    side="right") - 1])


def assert_lip_at_brackets(psd, ref, stride=1):
    """lip_at at every level of lip_levels is at least ref's running
    maximum at the level and at most ref's at the level's bucket_top.  A
    level at or above every node of its bucket reads ref exactly."""
    vt = psd.vt_nodes
    buckets = psd.lip_index.buckets(vt)
    for lam in lip_levels(vt, stride):
        lam = float(lam)
        top = bucket_top(vt, buckets, lam)
        low, got, high = ref.lip_at(lam), psd.lip_at(lam), ref.lip_at(top)
        assert low <= got <= high, (lam, low, got, high)


TIE_CASES = {
    # every node ties with its mirror images and with its coordinate
    # permutations, so a tie group holds up to 8 (2-D) or 48 (3-D) nodes
    "osc2-w1": (ProblemSpec(Box((8.0, 8.0), origin=(-4.0, -4.0)),
                            V="1.1*(x^2 + y^2)"), 96),
    "osc2-w2.5": (ProblemSpec(Box((8.0, 8.0), origin=(-4.0, -4.0)),
                              V="1.1*(x^2 + y^2)", w="2.5"), 96),
    "osc3-w1": (ProblemSpec(Box((6.0,) * 3, origin=(-3.0,) * 3),
                            V="1.1*(x^2 + y^2 + z^2)"), 24),
    "osc3-w2.5": (ProblemSpec(Box((6.0,) * 3, origin=(-3.0,) * 3),
                              V="1.1*(x^2 + y^2 + z^2)", w="2.5"), 24),
    # nodes swapped across the diagonal tie but differ in w, so the
    # order of a tie group sets the order of the weighted sums
    "osc2-varying-w": (ProblemSpec(Box((8.0, 8.0), origin=(-4.0, -4.0)),
                                   V="1.1*(x^2 + y^2)", w="1 + 0.05*x"),
                       96),
}


@pytest.mark.parametrize("case", sorted(TIE_CASES))
def test_tables_bit_identical_to_the_stable_order(case):
    prob, n = TIE_CASES[case]
    grid = QuadratureGrid(prob.domain, n)
    psd = phase_space_tables(prob, grid)
    ref = stable_order_tables(prob, grid)
    # the ties are real: an unstable sort reorders them
    raw = grid.inside_values(prob.effective_potential())
    assert not np.array_equal(np.argsort(raw),
                              np.argsort(raw, kind="stable"))
    vt = ref.vt_nodes
    assert psd.vt_nodes.tobytes() == vt.tobytes()
    assert np.array_equal(psd.w_nodes, ref.w_nodes)
    if prob.nu % 2 == 0:
        assert vt.size > 2 * _BLOCK
        assert psd.block_moments.tobytes() == ref.block_moments.tobytes()
    assert_lip_at_brackets(psd, ref)
    fake = Spectrum(np.zeros(60), cutoff=0.0)
    for k in (1, 2, 5, 17, 40):
        assert phase_space_sum_bound(k, psd, fake) == \
            phase_space_sum_bound(k, ref, fake)


LIP_CASES = {
    # all nodes distinct: nearly every bucket holds several levels
    "nu1-varying-w": (ProblemSpec(Box((4.0,), origin=(-2.0,)), V="x^4 - x",
                                  w="1 + 0.1*x"), 4096),
    "disk-w1": (ProblemSpec(Disk(1.0), V="x^2 + 2*y^2"), 96),
    # every squared partial is one constant, read at no grid index
    "disk-affine": (ProblemSpec(Disk(1.0), V="x + 0.37*y"), 96),
    "disk-varying-w": (ProblemSpec(Disk(1.0), rho="0.3*x*y",
                                   w="1 + 0.2*x"), 96),
    # levels 2 (x^2 + y^2) + 0.1 x that tie only in mirror pairs
    "shifted-oscillator": (ProblemSpec(Box((8.0, 8.0), origin=(-4.0, -4.0)),
                                       V="x^2 + y^2 + 0.1*x"), 96),
    "non-separable-2d": (ProblemSpec(Box((2.0, 2.0), origin=(-1.0, -1.0)),
                                     V="x*y + y^2"), 96),
    "non-separable-3d": (ProblemSpec(Box((1.0,) * 3), V="exp(x*y*z) + z^2",
                                     w="1 + 0.1*y"), 20),
    # every node in one bucket
    "flat": (ProblemSpec(Box((1.0, 1.0)), V="-3"), 64),
    # a range of 2e308 overflows max Vtilde - min Vtilde
    "huge-range": (ProblemSpec(Box((4e154,), origin=(-2e154,)),
                               V="5e153*x"), 512),
    # a range in the subnormals overflows the bucket scale, so every node
    # shares bucket 0
    "subnormal-range": (ProblemSpec(Box((2.0,), origin=(-1.0,)),
                                    V="1e-320*x^2"), 512),
}


@pytest.mark.parametrize("case", sorted(LIP_CASES))
def test_lip_at_matches_the_running_maximum_at_every_level(case):
    prob, n = LIP_CASES[case]
    grid = QuadratureGrid(prob.domain, n)
    psd = phase_space_tables(prob, grid)
    ref = stable_order_tables(prob, grid)
    assert psd.vt_nodes.tobytes() == ref.vt_nodes.tobytes()
    assert_lip_at_brackets(psd, ref)


@pytest.mark.parametrize("n", [128, 256])
def test_oscillator_levels_never_share_a_bucket(n):
    # a centred oscillator on an even grid with a spacing of 2^-m (the
    # benchmark's 1024^2 table too) ties mirror images exactly, and its
    # levels, fewer than a quarter as many as the nodes, are spaced
    # evenly: each lies alone in its bucket, so every level, a node value
    # or not, reads the sublevel maximum exactly
    prob = ProblemSpec(Box((8.0, 8.0), origin=(-4.0, -4.0)),
                       V="1.1*(x^2 + y^2)")
    grid = QuadratureGrid(prob.domain, n)
    psd = phase_space_tables(prob, grid)
    ref = stable_order_tables(prob, grid)
    for lam in lip_levels(psd.vt_nodes):
        assert psd.lip_at(float(lam)) == ref.lip_at(float(lam)), lam


def test_lip_at_evaluates_no_field_once_the_tables_are_built(monkeypatch):
    # levels 2 (x^2 + y^2) + 0.1 x fall inside buckets, and still no level
    # evaluates the fields again
    prob, n = LIP_CASES["shifted-oscillator"]
    psd = phase_space_tables(prob, QuadratureGrid(prob.domain, n))
    vt = psd.vt_nodes
    buckets = psd.lip_index.buckets(vt)
    assert np.any((buckets[1:] == buckets[:-1]) & (vt[1:] > vt[:-1]))

    def refuse(*args):
        raise AssertionError("fields evaluated again")

    monkeypatch.setattr(phasespace, "_slab_sums", refuse)
    for lam in lip_levels(vt):
        psd.lip_at(float(lam))


def kept_bytes(psd):
    """What the tables keep: vt, a w that is not one broadcast value, and
    the prefix maxima of the level index."""
    kept = psd.vt_nodes.nbytes + psd.lip_index.prefix.nbytes
    if psd.w_nodes.strides != (0,):
        kept += psd.w_nodes.nbytes
    return kept


@pytest.mark.parametrize("w", ["1", "1 + 0.1*sin(x)"])
def test_tables_peak_stays_near_what_they_keep(w):
    # Vtilde is sorted in its own buffer, |grad Vtilde|^2 is read a chunk
    # at a time into the level index, and a varying w is gathered into the
    # sort permutation's buffer: 1.16x (w = 1) and 1.09x (varying w) what
    # is kept, 3.0 and 5.1 MB.  The bound allows 3.1 and 5.5 MB; 1.15x of
    # a kept set that held a running maximum as large as vt allowed 4.8
    # and 7.2 MB
    prob = ProblemSpec(Box((16.0, 16.0), origin=(-8.0, -8.0)),
                       V="x1^2 + x2^2", w=w)
    grid = QuadratureGrid(prob.domain, 512)
    tracemalloc.start()
    try:
        psd = phase_space_tables(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.17 * kept_bytes(psd)
    assert_lip_at_brackets(psd, stable_order_tables(prob, grid), stride=8)


@pytest.mark.parametrize("fields", [
    {"rho": "0.3*x*y", "w": "1 + 0.2*x"},
    # Vtilde = x^2: a gradient that broadcasts along y
    {"V": "x^2", "w": "1 + 0.2*x"},
], ids=["rho-xy", "broadcast"])
def test_masked_tables_read_the_gradient_from_the_grid(fields):
    # the sort permutation becomes grid indices, and w is read at them in
    # the shape it evaluates to; each squared partial is evaluated at the
    # inside nodes of a slab.  Neither the gradient nor w is copied out
    # at the inside nodes or spread over the grid: the tables peak at
    # 1.40x what they keep (3.2 MB), the permutation and the 4-byte grid
    # index of the inside nodes beside vt and the level index.  The bound
    # allows 3.2 MB; 1.2x of a kept set that held a running maximum as
    # large as vt allowed 3.6 MB
    prob = ProblemSpec(Disk(1.0), **fields)
    grid = QuadratureGrid(prob.domain, 400)
    tracemalloc.start()
    try:
        psd = phase_space_tables(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.42 * kept_bytes(psd)
    ref = stable_order_tables(prob, grid)
    for name in ("vt_nodes", "w_nodes", "block_moments"):
        assert getattr(psd, name).tobytes() == \
            getattr(ref, name).tobytes(), name
    assert_lip_at_brackets(psd, ref, stride=4)


def test_gradient_overflowing_outside_the_disk_is_not_formed():
    # |grad V|^2 = 1.44e308 (x^2 + y^2) is finite on the unit disk and
    # overflows only at corner nodes of its bounding grid, which the
    # tables never read
    prob = ProblemSpec(Disk(1.0), V="0.6e154*x^2 + 0.6e154*y^2")
    grid = QuadratureGrid(prob.domain, 33)
    with np.errstate(over="raise", invalid="raise"):
        psd = phase_space_tables(prob, grid)
    vt_expr = prob.effective_potential()
    grad_sq = sum(grid.inside_values(differentiate(vt_expr, axis)) ** 2
                  for axis in range(2))
    assert psd.lip_at(np.inf) == np.sqrt(grad_sq.max())


L_SHAPE = MaskedBox(Box((1.0, 1.0)), parse_field("min(x - 0.5, y - 0.5)", 2))
# name -> (problem, n, grid-sized arrays the tables may hold beside Vtilde,
# and beside what they keep).  The fields are evaluated a slab at a time,
# so the first count covers the sort and the second a grid-sized w held
# while it is gathered
MATRIX_CASES = {
    # a w that varies evaluates to a grid-sized array in 1-D, beside the
    # stable sort's permutation and buffer
    "1-d": (ProblemSpec(Box((4.0,), origin=(-2.0,)), V="x^4 - x",
                        w="1 + 0.1*x"), 2 ** 18, (3, 0)),
    "flat": (ProblemSpec(Box((1.0, 1.0))), 512, (0, 0)),
    "one-axis": (ProblemSpec(Box((2.0, 2.0), origin=(-1.0, -1.0)), V="x^2",
                             w="1 + 0.2*y"), 512, (0, 0)),
    # w = 1 + 0.3xy spans the grid
    "l-shape": (ProblemSpec(L_SHAPE, V="x^2 + 3*y", w="1 + 0.3*x*y"), 600,
                (0, 1)),
    # the coordinates of a skew torus span a slab: two of them, a term
    # and the slab's sum are a little more than the chunks allowed below
    "skew-torus": (ProblemSpec(TorusFundamental((1.0, 0.0), (0.3, 1.1)),
                               V="sin(x) + y^2"), 512, (1, 0)),
    # two partials that do not span the grid, (1, n, n) and (n, 1, n),
    # come before the third, which spans it
    "fold-after-two": (ProblemSpec(Box((2.1, 1.9, 1.7),
                                       origin=(-1.3, -0.7, 0.2)),
                                   V="x*y + x*y*z^2", w="1 + 0.1*z"), 64,
                       (0, 0)),
    # the middle partial, x z, does not span the grid
    "span-small-span": (ProblemSpec(Box((2.1, 1.9, 1.7),
                                        origin=(-1.3, -0.7, 0.2)),
                                    V="exp(x*z) + x*y*z"), 40, (0, 0)),
    # every partial spans the grid
    "non-separable": (ProblemSpec(Box((1.0,) * 3), V="exp(x*y*z) + z^2"),
                      64, (0, 0)),
    # slabs of one row: the partial along x is read once on the whole
    # grid, and the one along y in every slab
    "one-row-slabs": (ProblemSpec(Box((1.0, 4.0)), V="x^2 + 3*y^2 + x*y"),
                      (6, 2 ** 14), (0, 0)),
}


@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_tables_match_the_reference_and_peak_at_what_they_keep(case):
    prob, n, (beside_vt, beside_kept) = MATRIX_CASES[case]
    grid = QuadratureGrid(prob.domain, n)
    tracemalloc.start()
    try:
        psd = phase_space_tables(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref = stable_order_tables(prob, grid)
    for name in ("vt_nodes", "w_nodes", "block_moments"):
        got, want = getattr(psd, name), getattr(ref, name)
        assert (got is None) == (want is None), name
        if got is not None:
            assert got.tobytes() == want.tobytes(), name
    assert_lip_at_brackets(psd, ref, stride=1 + psd.vt_nodes.size // 8192)
    # the gradient read at every inside node has the bits of the
    # whole-grid sum ((0 + t0) + t1) + t2, not only where it sets a
    # bucket's maximum, and comes paired with Vtilde at that node
    vt_expr = prob.effective_potential()

    def on_grid(expr):
        return np.broadcast_to(np.asarray(expr.evaluate(grid.coords()),
                                          dtype=float), grid.shape)

    partials = [differentiate(vt_expr, axis) for axis in range(prob.nu)]
    whole = np.broadcast_to(sum(on_grid(d) ** 2 for d in partials),
                            grid.shape)
    vt = np.empty(psd.vt_nodes.size)
    assert [n for n, _ in _slab_sums([vt_expr], grid, out=vt)] == \
        [n for n, _ in _slab_sums(partials, grid, square=True)]
    assert vt.tobytes() == (on_grid(vt_expr)[grid.mask] + 0.0).tobytes()
    # a slab's gradient is overwritten by the next one
    pairs = [(n, g.copy()) for n, g in _slab_sums(partials, grid,
                                                   square=True)]
    assert pairs[0][0].start == 0 and pairs[-1][0].stop == vt.size
    assert all(a.stop == b.start for (a, _), (b, _) in zip(pairs, pairs[1:]))
    assert np.concatenate([g for _, g in pairs]).tobytes() == \
        whole[grid.mask].tobytes()
    grid_bytes = 8 * grid.mask.size
    # a masked grid with a varying w turns the permutation into grid
    # indices through a 4-byte index of the inside nodes
    inside = 4 * psd.vt_nodes.size if psd.w_nodes.strides != (0,) and \
        not grid.mask.all() else 0
    # a chunk's pass holds a few chunk-sized temporaries
    chunks = 4 * _CHUNK * 8
    bound = max(psd.vt_nodes.nbytes + beside_vt * grid_bytes,
                kept_bytes(psd) + beside_kept * grid_bytes + inside) + chunks
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("domain", [L_SHAPE, Disk(1.0)],
                         ids=["l-shape", "disk"])
def test_masked_tables_with_one_weight_peak_near_what_they_keep(domain):
    # with one constant w the tables keep only vt and the level index and
    # need no permutation.  Vtilde is evaluated a slab at a time at the
    # inside nodes, into vt, and the tables peak in the level index's
    # pass: 1.20x (L-shape) and 1.19x (disk) what they keep, 3.2 and
    # 3.4 MB.  The bound allows 3.3 and 3.5 MB; 1.3x, while Vtilde was
    # evaluated on the whole grid, allowed 3.5 and 3.7 MB
    prob = ProblemSpec(domain, V="x^2 + y^2")
    grid = QuadratureGrid(prob.domain, 600)
    tracemalloc.start()
    try:
        psd = phase_space_tables(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psd.w_nodes.strides == (0,)
    assert peak <= 1.23 * kept_bytes(psd)
    ref = stable_order_tables(prob, grid)
    assert psd.vt_nodes.tobytes() == ref.vt_nodes.tobytes()
    assert psd.block_moments.tobytes() == ref.block_moments.tobytes()
    assert_lip_at_brackets(psd, ref, stride=8)


def test_non_separable_cube_tables_peak_near_what_they_keep():
    # every squared partial of exp(xyz) + z^2 spans the grid; evaluated a
    # slab at a time, they peak at 1.04x what the tables keep (9.2 MB).
    # The bound allows 9.4 MB; evaluated on the whole grid, they peaked
    # at 2.42x (21.4 MB)
    prob = ProblemSpec(Box((1.0,) * 3), V="exp(x*y*z) + z^2")
    grid = QuadratureGrid(prob.domain, 96)
    tracemalloc.start()
    try:
        psd = phase_space_tables(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.06 * kept_bytes(psd)
    ref = stable_order_tables(prob, grid)
    assert psd.vt_nodes.tobytes() == ref.vt_nodes.tobytes()
    assert_lip_at_brackets(psd, ref, stride=64)


def test_signed_zeros_keep_the_order_of_the_permutation():
    # -(x - 1/2)(y - 1/2) is -0 on half of the line x = 1/2 of an odd grid
    # and +0 on the other half; with w = 1 the sort is unstable, so the
    # tables hold every zero as +0, and no report can tell how an in-place
    # sort placed the tied zeros
    prob = ProblemSpec(Box((1.0, 1.0)), V="-(x - 0.5)*(y - 0.5)")
    grid = QuadratureGrid(prob.domain, 301)
    raw = grid.inside_values(prob.effective_potential())
    zeros = np.signbit(raw[raw == 0.0])
    assert zeros.any() and not zeros.all()
    psd = phase_space_tables(prob, grid)
    ref = stable_order_tables(prob, grid)
    vt = psd.vt_nodes
    assert not np.signbit(vt[vt == 0.0]).any()
    assert np.array_equal(vt, ref.vt_nodes)
    fake = Spectrum(np.zeros(60), cutoff=0.0)
    for k in (1, 5, 17, 40):
        got, want = (json.dumps(phase_space_sum_bound(k, t, fake)
                                .to_json_dict()) for t in (psd, ref))
        assert got == want, k
