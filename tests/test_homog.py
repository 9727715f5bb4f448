"""Tests for comparisons against homogeneous reference spectra.

The workhorse example is Omega = [0, 1/2] x [0, 1] inside the unit square
torus: the Neumann spectrum pi^2 (4 m^2 + n^2) interleaves the torus
levels 4 pi^2 (m^2 + n^2) and every comparison is checkable from the two
exact enumerations alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_bounds.bounds import (bound_context, heat_report, riesz_report,
                                    sum_report)
from spectral_bounds.domains import QuadratureGrid, TorusFundamental
from spectral_bounds.homog import ReferenceMinorant, heat_torus_bound
from spectral_bounds.problem import ProblemSpec
from spectral_bounds.special import Lattice2, hex_heat_floor
from spectral_bounds.spectra import (Spectrum, heat_trace,
                                     rectangle_neumann_exact,
                                     shifted_spectrum, torus_spectrum)

CUTOFF = 4.0 * math.pi ** 2 * 30.0

UNIT = Lattice2((1.0, 0.0), (0.0, 1.0))


@pytest.fixture(scope="module")
def half_pair():
    mu = rectangle_neumann_exact(0.5, 1.0, cutoff=CUTOFF)
    ref = torus_spectrum(UNIT, CUTOFF)
    return mu, ref


def test_half_torus_riesz_holds(half_pair):
    mu, ref = half_pair
    for z in np.linspace(1.0, CUTOFF, 40):
        rep = riesz_report("homog-riesz", ReferenceMinorant(ref, 0.5),
                           float(z), mu)
        assert rep.holds, z


def test_half_torus_sums_hold(half_pair):
    mu, ref = half_pair
    count = len(mu.values)
    minorant = ReferenceMinorant(ref, 0.5)
    for p in range(1, min(count, len(ref) // 2) + 1):
        rep = sum_report("homog-sum", minorant, p, mu)
        assert rep.holds, p
        assert rep.direction == "upper"


def test_half_torus_heat_holds(half_pair):
    mu, ref = half_pair
    for t in (0.05, 0.2, 1.0):
        rep = heat_report("homog-heat", ReferenceMinorant(ref, 0.5), t, mu)
        assert rep.holds, t


def test_whole_space_equalities():
    # Omega = M: every comparison collapses to equality
    mu = ref = torus_spectrum(UNIT, CUTOFF)
    whole = ReferenceMinorant(ref, 1.0)
    for z in (10.0, 100.0, 500.0):
        rep = riesz_report("homog-riesz", whole, z, mu)
        assert rep.computed_value == pytest.approx(rep.bound_value, abs=1e-10)
        assert rep.holds
    for p in (1, 5, 17):
        rep = sum_report("homog-sum", whole, p, mu)
        assert rep.computed_value == pytest.approx(rep.bound_value, abs=1e-10)
        assert rep.holds
    for t in (0.2, 0.7):
        rep = heat_report("homog-heat", whole, t, mu)
        assert rep.computed_value == pytest.approx(rep.bound_value,
                                                   rel=1e-13, abs=1e-13)
        assert rep.holds


def test_shifted_reference_still_dominated(half_pair):
    # affine shifts model constant coefficient changes on the torus side
    mu, ref = half_pair
    lifted = shifted_spectrum(ref, 1.0, 3.0)
    grown = shifted_spectrum(ref, 1.25, 0.0)
    base = ReferenceMinorant(ref, 0.5)
    for z in (50.0, 200.0):
        assert ReferenceMinorant(lifted, 0.5).riesz(z) <= base.riesz(z)
        assert ReferenceMinorant(grown, 0.5).riesz(z) <= base.riesz(z)


def test_vol_ratio_validation(half_pair):
    _, ref = half_pair
    for bad in (0.0, -0.3, 1.5):
        with pytest.raises(ValueError, match="ratio"):
            ReferenceMinorant(ref, bad)


def test_heat_compare_tail_raises_the_bar(half_pair):
    mu, ref = half_pair
    # the levels above a short reference enumeration would raise the
    # bound at small t; left out, they keep it below the full reference's
    short = torus_spectrum(UNIT, 4.0 * math.pi ** 2 * 2.0)
    t = 0.05
    plain = heat_report("homog-heat", ReferenceMinorant(short, 0.5), t, mu)
    full = heat_report("homog-heat", ReferenceMinorant(ref, 0.5), t, mu)
    assert full.bound_value > plain.bound_value * (1.0 + 1e-4)
    assert plain.holds and full.holds
    # the unit torus against itself cannot violate the comparison, also
    # with the reference cut at 8 pi^2: 1.6328 <= 1.6347
    same = heat_report("homog-heat", ReferenceMinorant(short, 1.0), t,
                       ref)
    assert same.bound_value == pytest.approx(1.6328, abs=1e-4)
    assert same.computed_value == pytest.approx(1.6347, abs=1e-4)
    assert same.holds
    with pytest.raises(ValueError, match="positive"):
        heat_report("homog-heat", ReferenceMinorant(ref, 0.5), 0.0, mu)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=-5.0, max_value=50.0),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=8),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.0, max_value=0.99))
def test_reference_sum_is_the_max_over_breakpoints(levels, vol_ratio,
                                                   fraction):
    # p z - R(z) is piecewise linear with slope p - vol_ratio N(z), so for
    # 0 <= p <= vol_ratio n its supremum sits at a reference eigenvalue
    levels = sorted(levels)
    top = levels[-1][0]
    values, mults = zip(*levels)
    minorant = ReferenceMinorant(Spectrum(np.repeat(values, mults), top),
                                 vol_ratio)
    p = fraction * vol_ratio * len(minorant.reference)
    best = max(p * z - minorant.riesz(z) for z, _ in levels)
    assert minorant.sum(p) == pytest.approx(
        best, abs=1e-9 * (1.0 + abs(top)) * len(minorant.reference))


def test_heat_torus_bound_formula_and_floor():
    domain = TorusFundamental((1.0, 0.0), (0.0, 1.0))
    ctx = bound_context(ProblemSpec(domain), QuadratureGrid(domain, 32))
    mu = torus_spectrum(UNIT, CUTOFF)
    for t in (0.2, 0.5, 1.0):
        rep = heat_torus_bound(ctx, t, mu)
        # constant unit fields: the bound is the bare hexagonal floor
        assert rep.bound_value == pytest.approx(hex_heat_floor(t, 1.0),
                                                rel=1e-13)
        assert rep.holds, t
    with pytest.raises(ValueError, match="positive"):
        heat_torus_bound(ctx, -1.0, mu)


def test_heat_torus_bound_hexagonal_equality():
    # the comparison lattice is the hexagonal one, so the hexagonal torus
    # with constant fields attains the floor up to truncation error
    beta = math.sqrt(2.0 / math.sqrt(3.0))
    e1 = (beta, 0.0)
    e2 = (beta / 2.0, beta * math.sqrt(3.0) / 2.0)
    domain = TorusFundamental(e1, e2)
    ctx = bound_context(ProblemSpec(domain), QuadratureGrid(domain, 32))
    mu = torus_spectrum(Lattice2(e1, e2), CUTOFF)
    t = 0.3
    rep = heat_torus_bound(ctx, t, mu)
    assert rep.holds
    assert rep.computed_value == pytest.approx(rep.bound_value, rel=1e-12)


def test_heat_torus_bound_rejects_box():
    from spectral_bounds.domains import Box
    prob = ProblemSpec(Box((1.0, 1.0)))
    ctx = bound_context(prob, QuadratureGrid(prob.domain, 16))
    mu = torus_spectrum(UNIT, CUTOFF)
    with pytest.raises(ValueError, match="torus"):
        heat_torus_bound(ctx, 0.5, mu)


def test_heat_torus_bound_with_potential_shift():
    domain = TorusFundamental((1.0, 0.0), (0.0, 1.0))
    ctx = bound_context(ProblemSpec(domain, V="2"),
                        QuadratureGrid(domain, 32))
    base = torus_spectrum(UNIT, CUTOFF)
    mu = shifted_spectrum(base, 1.0, 2.0)
    t = 0.5
    rep = heat_torus_bound(ctx, t, mu)
    assert rep.bound_value == pytest.approx(
        math.exp(-2.0 * t) * hex_heat_floor(t, 1.0), rel=1e-13)
    assert rep.holds
    # manual check of the computed side
    assert rep.computed_value == pytest.approx(
        heat_trace(mu, t), rel=0)
