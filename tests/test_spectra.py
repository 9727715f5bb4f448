import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import quad

from spectral_bounds import (Lattice2, Spectrum, SpectrumRangeError,
                             heat_trace, rectangle_neumann_exact,
                             riesz_mean_1, shifted_spectrum, sphere_spectrum,
                             torus_spectrum)

PI2 = math.pi ** 2


def legendre_over_breakpoints(s, p):
    """max of p z - R1(z) over z in {mu_j}: p z - R1(z) is piecewise
    linear with slope p - N(z), so for 0 <= p <= n the supremum over all
    z sits at an eigenvalue."""
    return max(p * float(z) - riesz_mean_1(s, float(z)) for z in s.values)


def laplace_by_quadrature(s, t, top):
    """t^2 times the integral of exp(-t z) R1(z) over 0 <= z <= top, by
    adaptive quadrature split at the eigenvalues, where R1 has kinks."""
    kinks = sorted({float(v) for v in s.values if 0.0 < v < top})
    nodes = [0.0] + kinks + [top]
    return t * t * sum(
        quad(lambda z: math.exp(-t * z) * riesz_mean_1(s, z), a, b,
             epsabs=0.0, epsrel=1e-13)[0]
        for a, b in zip(nodes[:-1], nodes[1:]) if b > a)


def brute_rectangle(lx, ly, count):
    vals = sorted(PI2 * (m * m / lx ** 2 + n * n / ly ** 2)
                  for m in range(count + 1) for n in range(count + 1))
    return vals[:count]


class TestRectangle:
    def test_unit_square_first_ten(self):
        s = rectangle_neumann_exact(1.0, 1.0, count=10)
        expected = PI2 * np.array([0, 1, 1, 2, 4, 4, 5, 5, 8, 9], dtype=float)
        assert s.values == pytest.approx(expected, rel=1e-14)
        assert s.source == "exact-rectangle"

    def test_golden_rectangle_brute_force(self):
        lx, ly = 1.0, (1 + math.sqrt(5)) / 2
        s = rectangle_neumann_exact(lx, ly, count=40)
        assert s.values == pytest.approx(brute_rectangle(lx, ly, 40), rel=1e-12)

    def test_cutoff_mode(self):
        s = rectangle_neumann_exact(1.0, 2.0, cutoff=10.0)
        brute = [v for v in brute_rectangle(1.0, 2.0, 200) if v <= 10.0]
        assert s.values == pytest.approx(brute, rel=1e-12)
        assert s.cutoff == 10.0

    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError):
            rectangle_neumann_exact(1.0, 1.0)
        with pytest.raises(ValueError):
            rectangle_neumann_exact(1.0, 1.0, count=5, cutoff=3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            rectangle_neumann_exact(-1.0, 1.0, count=5)


def brute_torus_levels(lat: Lattice2, cutoff: float, radius: int = 40):
    dual = lat.dual()
    vals = []
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            x = m * dual.e1[0] + n * dual.e2[0]
            y = m * dual.e1[1] + n * dual.e2[1]
            v = 4 * PI2 * (x * x + y * y)
            if v <= cutoff * (1 + 1e-12):
                vals.append(v)
    vals.sort()
    levels = []
    for v in vals:
        if levels and abs(v - levels[-1][0]) <= 1e-9 * (1 + abs(v)):
            levels[-1][1] += 1
        else:
            levels.append([v, 1])
    return [(v, m) for v, m in levels]


def repeated(values):
    """(value, number of copies) of each distinct value."""
    vals, counts = np.unique(values, return_counts=True)
    return list(zip(vals.tolist(), counts.tolist()))


class TestTorus:
    def test_unit_square_lattice_multiplicities(self):
        lat = Lattice2((1.0, 0.0), (0.0, 1.0))
        s = torus_spectrum(lat, 4 * PI2 * 4 + 1.0)
        got = [(v / (4 * PI2), m) for v, m in repeated(s.values)]
        # |m|^2 takes 0, 1, 2, 4 below 4.1 with 1, 4, 4, 4 lattice points
        assert [(round(v, 9), m) for v, m in got] == \
            [(0.0, 1), (1.0, 4), (2.0, 4), (4.0, 4)]

    def test_random_lattices_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            basis = rng.uniform(-1.6, 1.6, size=(2, 2))
            while abs(np.linalg.det(basis)) < 0.4:
                basis = rng.uniform(-1.6, 1.6, size=(2, 2))
            lat = Lattice2(tuple(basis[0]), tuple(basis[1]))
            cutoff = float(rng.uniform(100.0, 900.0))
            s = torus_spectrum(lat, cutoff)
            brute = brute_torus_levels(lat, cutoff)
            got = repeated(s.values)
            assert len(got) == len(brute)
            for (v1, m1), (v2, m2) in zip(got, brute):
                assert v1 == pytest.approx(v2, rel=1e-11)
                assert m1 == m2

    def test_hexagonal_levels_share_their_bits(self):
        # the six dual vectors of a shell differ in their last bits as
        # enumerated; the copies of a level are one float
        beta = math.sqrt(2.0 / math.sqrt(3.0))
        lat = Lattice2((beta, 0.0), (beta / 2.0, beta * math.sqrt(3.0) / 2.0))
        levels = repeated(torus_spectrum(lat, 4 * PI2 * 8.0).values)
        assert [m for _, m in levels] == [1, 6, 6, 6]
        assert [v / (4 * PI2) for v, _ in levels] == pytest.approx(
            [0.0, 2.0 / math.sqrt(3.0), 6.0 / math.sqrt(3.0),
             8.0 / math.sqrt(3.0)], rel=1e-12)

    def test_enumeration_box_is_capped(self):
        # about 1e150 dual points would loop for ever: refused up front
        lat = Lattice2((1e300, 0.0), (0.0, 1e-300))
        with pytest.raises(ValueError, match="dual points"):
            torus_spectrum(lat, 100.0)

    def test_window_values_stay_until_the_shift(self):
        # the level 4 pi^2 lies within the 1e-12 enumeration window above
        # a cutoff just below it: kept unshifted, dropped by the shift
        lat = Lattice2((1.0, 0.0), (0.0, 1.0))
        cutoff = 4 * PI2 * (1.0 - 1e-13)
        s = torus_spectrum(lat, cutoff)
        assert repeated(s.values) == [(0.0, 1), (4 * PI2, 4)]
        assert s.cutoff == cutoff
        assert shifted_spectrum(s, 1.0, 0.0).values.tolist() == [0.0]


class TestSphere:
    def test_s2_levels(self):
        s = sphere_spectrum(2, 5)
        for l, (v, m) in enumerate(repeated(s.values)):
            assert v == l * (l + 1)
            assert m == 2 * l + 1
        assert (s.cutoff, s.source) == (30.0, "exact-sphere")

    def test_s3_levels(self):
        s = sphere_spectrum(3, 4)
        for l, (v, m) in enumerate(repeated(s.values)):
            assert v == l * (l + 2)
            assert m == (l + 1) ** 2
        assert len(s) == 55

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            sphere_spectrum(1, 3)


class TestSpectrumType:
    def test_sorted_required(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 0.5]), cutoff=2.0)

    def test_cutoff_consistency(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 5.0]), cutoff=4.0)

    def test_partial_sum_range(self):
        s = Spectrum(np.array([0.0, 1.0, 3.0]), cutoff=3.0)
        assert s.partial_sum(2) == 1.0
        with pytest.raises(SpectrumRangeError):
            s.partial_sum(4)

    def test_heat_trace_is_the_truncated_sum(self):
        s = Spectrum(np.array([0.0, 1.0]), cutoff=2.0)
        assert heat_trace(s, 0.7) == pytest.approx(1 + math.exp(-0.7),
                                                   rel=1e-15)
        with pytest.raises(ValueError, match="positive"):
            heat_trace(s, 0.0)

    def test_shifted_spectrum(self):
        # the copies of a level move together
        sh = shifted_spectrum(sphere_spectrum(2, 1), 2.0, 0.5)
        assert sh.values.tolist() == [0.5, 4.5, 4.5, 4.5]
        assert (sh.cutoff, sh.source) == (4.5, "exact-sphere")

    def test_shifted_flat_spectrum(self):
        s = Spectrum(np.array([0.0, 2.0, 2.0]), cutoff=3.0, source="t")
        sh = shifted_spectrum(s, 2.0, 0.5)
        assert isinstance(sh, Spectrum)
        assert sh.values.tolist() == [0.5, 4.5, 4.5]
        assert (sh.cutoff, sh.source) == (6.5, "t")

    def test_shift_keeps_what_it_rounds_onto_the_cutoff(self):
        # the slack of Spectrum admits a value just above the cutoff; its
        # image is kept when it rounds onto the image cutoff, else dropped
        above = float(np.nextafter(1.0, 2.0))
        s = Spectrum(np.array([0.5, above]), cutoff=1.0)
        lifted = shifted_spectrum(s, 1.0, 4.0)
        assert lifted.values.tolist() == [4.5, 5.0]
        assert lifted.cutoff == 5.0
        assert shifted_spectrum(s, 1.0, 0.0).values.tolist() == [0.5]


class TestFunctionals:
    vals = np.array([0.0, 1.0, 1.0, 2.5, 4.0])

    def spectrum(self):
        return Spectrum(self.vals.copy(), cutoff=4.0, source="test")

    def test_partial_sum_interpolates(self):
        s = self.spectrum()
        assert s.partial_sum(3.0) == 2.0
        assert s.partial_sum(3.5) == pytest.approx(2.0 + 0.5 * 2.5)
        assert s.partial_sum(0.25) == 0.0
        assert s.partial_sum(4.5) == pytest.approx(4.5 + 0.5 * 4.0)
        assert s.partial_sum(5.0) == 8.5
        for bad in (5.5, -0.5):
            with pytest.raises(SpectrumRangeError):
                s.partial_sum(bad)

    def test_riesz_mean(self):
        s = self.spectrum()
        for z in (0.0, 0.7, 1.0, 3.3):
            assert riesz_mean_1(s, z) == pytest.approx(
                np.clip(z - self.vals, 0, None).sum())
        with pytest.raises(SpectrumRangeError):
            riesz_mean_1(s, 4.5)  # beyond the completeness cutoff

    def test_riesz_mean_at_a_negative_cutoff(self):
        # the tolerance on the cutoff is relative to |cutoff|: below -1 a
        # factor (1 + 1e-12) on the cutoff itself would refuse z = cutoff
        s = Spectrum(np.array([-3.0, -2.0]), cutoff=-2.0)
        assert riesz_mean_1(s, -2.0) == 1.0
        with pytest.raises(SpectrumRangeError):
            riesz_mean_1(s, -1.999)

    def test_legendre_recovers_partial_sums(self):
        s = self.spectrum()
        for p in np.linspace(0.2, 5.0, 25):
            assert legendre_over_breakpoints(s, float(p)) == pytest.approx(
                s.partial_sum(float(p)), abs=1e-12)

    def test_truncated_laplace_identity(self):
        s = self.spectrum()
        # N(z) at the cutoff counts every value: len(s)
        for t in (0.25, 0.5, 1.0, 2.0):
            lhs = laplace_by_quadrature(s, t, s.cutoff)
            rhs = sum(math.exp(-t * v) for v in self.vals) - \
                math.exp(-t * s.cutoff) * (t * riesz_mean_1(s, s.cutoff) +
                                           len(s))
            assert lhs == pytest.approx(rhs, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-5.0, max_value=50.0, allow_nan=False),
                min_size=1, max_size=12))
def test_legendre_duality_property(raw):
    vals = np.sort(np.array(raw, dtype=float))
    s = Spectrum(vals, cutoff=float(vals[-1]))
    for p in (0.5, 1.0, len(vals) / 2, float(len(vals))):
        assert legendre_over_breakpoints(s, p) == pytest.approx(
            s.partial_sum(p), abs=1e-9 * (1 + abs(vals).max()))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
                min_size=1, max_size=10),
       st.floats(min_value=0.1, max_value=3.0))
def test_laplace_identity_property(raw, t):
    vals = np.sort(np.array(raw, dtype=float))
    s = Spectrum(vals, cutoff=float(vals[-1]))
    z = s.cutoff   # N(z) = len(s)
    lhs = laplace_by_quadrature(s, t, z)
    rhs = float(np.exp(-t * vals).sum()) - math.exp(-t * z) * (
        t * riesz_mean_1(s, z) + len(s))
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))
