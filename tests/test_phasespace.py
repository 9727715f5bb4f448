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

from spectral_bounds.bounds import bound_context, kroger_avg_bound
from spectral_bounds.domains import (Box, Disk, MaskedBox, QuadratureGrid,
                                     TorusFundamental)
from spectral_bounds.expressions import (differentiate, is_constant,
                                         parse_field)
from spectral_bounds.fdsolver import assemble, solve_lowest
from spectral_bounds.phasespace import (_BLOCK, _CHUNK, PhaseSpaceData,
                                        _block_moments, _gathered,
                                        _squared_partials, lambda_of_k,
                                        phase_space_sum_bound,
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


def test_bessel_order_override_weakens_bound():
    _, psd = oscillator_tables(n=128)
    fake = Spectrum(np.zeros(20), cutoff=0.0)
    base = phase_space_sum_bound(10, psd, fake)
    shifted = phase_space_sum_bound(10, psd, fake, bessel_order=1.0)
    assert shifted.bound_value > base.bound_value
    assert any("first zero 3.83" in note for note in shifted.notes)


def test_lip_override_paths():
    _, psd = oscillator_tables(n=128)
    fake = Spectrum(np.zeros(20), cutoff=0.0)
    manual = phase_space_sum_bound(10, psd, fake, lip_override=20.0)
    sampled = phase_space_sum_bound(10, psd, fake)
    assert any("user-supplied" in n for n in manual.notes)
    assert any("grid-sampled" in n for n in sampled.notes)
    assert manual.bound_value > sampled.bound_value
    # forcing L = 0 drops the correction term entirely
    flat = phase_space_sum_bound(10, psd, fake, lip_override=0.0)
    lam10 = lambda_of_k(psd, 10)
    assert flat.bound_value == pytest.approx(psd.ew_at(lam10), rel=1e-12)


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
    assert np.all(np.diff(psd.lip_nodes) >= 0)
    # below the floor, on node values (ties, both sides of a block
    # boundary), between nodes, and above the top
    levels = [vt[0] - 1.0, vt[0], vt[1], vt[_BLOCK - 1], vt[_BLOCK],
              vt[2 * _BLOCK + 1], vt[vt.size // 2],
              0.5 * (vt[vt.size // 3] + vt[vt.size // 3 + 1]),
              vt[-1], vt[-1] + 1.0]
    for lam in levels:
        lam = float(lam)
        phi1, phiw, ew, lip = direct_sweep(prob, grid, lam)
        for got, want in ((psd.phi1_at(lam), phi1), (psd.phiw_at(lam), phiw),
                          (psd.ew_at(lam), ew)):
            assert abs(got - want) <= 1e-12 * abs(want), (lam, got, want)
        assert psd.lip_at(lam) == lip


def stable_order_tables(prob, grid):
    """The tables as a stable sort builds them: tied nodes in grid order,
    every weight evaluated at its node, and the weighted moments summed
    from the gathered weights."""
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
        lip_nodes=np.sqrt(np.maximum.accumulate(grad_sq[order])),
        cell_volume=grid.cell_volume, block_moments=moments)


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
    for lam in np.unique(vt):
        assert psd.lip_at(float(lam)) == ref.lip_at(float(lam)), lam
    fake = Spectrum(np.zeros(60), cutoff=0.0)
    for k in (1, 2, 5, 17, 40):
        assert phase_space_sum_bound(k, psd, fake) == \
            phase_space_sum_bound(k, ref, fake)


@pytest.mark.parametrize("w", ["1", "1 + 0.1*sin(x)"])
def test_tables_peak_stays_near_what_they_keep(w):
    # Vtilde is sorted in its own buffer and w and |grad Vtilde|^2 are
    # gathered a chunk at a time, the gradient into the sort permutation's
    # buffer: 1.10x (w = 1) and 1.07x (varying w) what is kept, against
    # 1.53x and 1.36x with a sorted copy of vt and a whole-grid gradient
    prob = ProblemSpec(Box((16.0, 16.0), origin=(-8.0, -8.0)),
                       V="x1^2 + x2^2", w=w)
    grid = QuadratureGrid(prob.domain, 512)
    tracemalloc.start()
    try:
        psd = phase_space_tables(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = psd.vt_nodes.nbytes + psd.lip_nodes.nbytes
    if w != "1":
        kept += psd.w_nodes.nbytes
    assert peak <= 1.15 * kept


@pytest.mark.parametrize("fields", [
    {"rho": "0.3*x*y", "w": "1 + 0.2*x"},
    # Vtilde = x^2: a gradient that broadcasts along y
    {"V": "x^2", "w": "1 + 0.2*x"},
], ids=["rho-xy", "broadcast"])
def test_masked_tables_read_the_gradient_from_the_grid(fields):
    # the sort permutation becomes grid indices, and each squared partial
    # is read at them in the shape it evaluates to, so neither the
    # gradient nor w is copied out at the inside nodes or spread over the
    # grid: 1.13x what is kept on this disk (1.76x, then 1.47x and 1.38x
    # with whole-grid arrays)
    prob = ProblemSpec(Disk(1.0), **fields)
    grid = QuadratureGrid(prob.domain, 400)
    tracemalloc.start()
    try:
        psd = phase_space_tables(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = psd.vt_nodes.nbytes + psd.w_nodes.nbytes + psd.lip_nodes.nbytes
    assert peak <= 1.2 * kept
    ref = stable_order_tables(prob, grid)
    for name in ("vt_nodes", "w_nodes", "lip_nodes", "block_moments"):
        assert getattr(psd, name).tobytes() == \
            getattr(ref, name).tobytes(), name


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
# name -> (problem, n, grid-sized arrays the tables may hold beside what
# they keep)
MATRIX_CASES = {
    # every field that varies evaluates to a grid-sized array in 1-D:
    # the gradient and w are both read at the gather
    "1-d": (ProblemSpec(Box((4.0,), origin=(-2.0,)), V="x^4 - x",
                        w="1 + 0.1*x"), 2 ** 18, 2),
    "flat": (ProblemSpec(Box((1.0, 1.0))), 512, 0),
    "one-axis": (ProblemSpec(Box((2.0, 2.0), origin=(-1.0, -1.0)), V="x^2",
                             w="1 + 0.2*y"), 512, 0),
    # w = 1 + 0.3xy spans the grid
    "l-shape": (ProblemSpec(L_SHAPE, V="x^2 + 3*y", w="1 + 0.3*x*y"), 600,
                1),
    # the coordinates of a skew torus are whole-grid arrays, built anew
    # for each evaluation beside the folded gradient
    "skew-torus": (ProblemSpec(TorusFundamental((1.0, 0.0), (0.3, 1.1)),
                               V="sin(x) + y^2"), 512, 3),
    # two partials that do not span the grid, (1, n, n) and (n, 1, n),
    # are summed before the third, which spans it, takes them in place
    "fold-after-two": (ProblemSpec(Box((2.1, 1.9, 1.7),
                                       origin=(-1.3, -0.7, 0.2)),
                                   V="x*y + x*y*z^2", w="1 + 0.1*z"), 64,
                       1),
    # the middle partial, x z, does not span the grid: it is added to the
    # running sum between the other two
    "span-small-span": (ProblemSpec(Box((2.1, 1.9, 1.7),
                                        origin=(-1.3, -0.7, 0.2)),
                                    V="exp(x*z) + x*y*z"), 40, 1),
    # every partial spans the grid: they fold into one running sum,
    # evaluated before vt and the permutation exist
    "non-separable": (ProblemSpec(Box((1.0,) * 3), V="exp(x*y*z) + z^2"),
                      64, 1),
}


@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_tables_match_the_reference_and_peak_at_what_they_keep(case):
    prob, n, spanning = MATRIX_CASES[case]
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
    # with one constant w the sort is unstable, and lip_at reads the
    # running maximum only where a group of tied nodes ends
    vt = psd.vt_nodes
    read = np.arange(vt.size) if not is_constant(prob.w) else \
        np.append(np.flatnonzero(vt[1:] != vt[:-1]), vt.size - 1)
    assert psd.lip_nodes[read].tobytes() == ref.lip_nodes[read].tobytes()
    # the gradient read at every node has the bits of the whole-grid sum
    # ((0 + t0) + t1) + t2, not only where it sets the running maximum
    vt_expr = prob.effective_potential()
    whole = np.broadcast_to(sum(
        np.asarray(differentiate(vt_expr, axis).evaluate(grid.coords()),
                   dtype=float) ** 2 for axis in range(prob.nu)), grid.shape)
    gathered = _gathered(_squared_partials(vt_expr, grid),
                         np.arange(whole.size), grid.shape)
    assert np.broadcast_to(gathered, whole.size).tobytes() == \
        whole.tobytes()
    kept = psd.vt_nodes.nbytes + psd.lip_nodes.nbytes
    if psd.w_nodes.strides != (0,):
        kept += psd.w_nodes.nbytes
    # a chunk's gather holds a few chunk-sized temporaries
    chunks = 4 * _CHUNK * 8
    assert peak <= kept + spanning * 8 * grid.mask.size + chunks, \
        (peak, kept)


@pytest.mark.parametrize("domain", [L_SHAPE, Disk(1.0)],
                         ids=["l-shape", "disk"])
def test_masked_tables_with_one_weight_peak_near_what_they_keep(domain):
    # with one constant w the tables keep only vt and the Lipschitz
    # table, so the index that turns the permutation into grid indices
    # is much of the peak: in 4-byte slots the tables peak at 1.34x what
    # they keep on these grids, against 1.53x with np.flatnonzero's int64
    prob = ProblemSpec(domain, V="x^2 + y^2")
    grid = QuadratureGrid(prob.domain, 600)
    tracemalloc.start()
    try:
        psd = phase_space_tables(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psd.w_nodes.strides == (0,)
    assert peak <= 1.36 * (psd.vt_nodes.nbytes + psd.lip_nodes.nbytes)
    ref = stable_order_tables(prob, grid)
    vt = psd.vt_nodes
    assert vt.tobytes() == ref.vt_nodes.tobytes()
    assert psd.block_moments.tobytes() == ref.block_moments.tobytes()
    # the running maximum is read only where a group of tied nodes ends
    read = np.append(np.flatnonzero(vt[1:] != vt[:-1]), vt.size - 1)
    assert psd.lip_nodes[read].tobytes() == ref.lip_nodes[read].tobytes()


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
