import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_bounds import (Lattice2, bessel_first_zero, bessel_j,
                             hex_heat_floor, hex_theta, lattice_heat_trace,
                             special, unit_ball_volume)

from heat_oracles import lattice_heat_trace_poisson


class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
        assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2)

    def test_gamma_form(self):
        for nu in range(1, 12):
            ref = math.pi ** (nu / 2) / math.gamma(nu / 2 + 1)
            assert unit_ball_volume(nu) == pytest.approx(ref, rel=1e-14)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestBessel:
    # scipy is the independent route for the hand-rolled series/Miller code
    def test_against_scipy_grid(self):
        for p in (0.0, 0.5, 1.0, 1.5, 2.0, 3.7, 7.0):
            for x in (0.05, 0.5, 1.0, 2.5, 5.0, 8.0, 15.0, 25.0):
                assert bessel_j(p, x) == pytest.approx(
                    scipy.special.jv(p, x), abs=5e-13), (p, x)

    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        for x in (0.3, 1.0, 4.0):
            ref = math.sqrt(2 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(ref, rel=1e-12)

    def test_first_zero_integer_orders(self):
        for p in (0, 1, 2, 3):
            ref = scipy.special.jn_zeros(p, 1)[0]
            assert bessel_first_zero(float(p)) == pytest.approx(ref, abs=1e-9)

    def test_first_zero_half_order(self):
        # J_{1/2} vanishes first at pi
        assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-9)

    def test_first_zero_is_a_zero(self):
        for p in (0.0, 0.25, 1.0, 2.5):
            z = bessel_first_zero(p)
            assert abs(bessel_j(p, z)) < 1e-9
            # no sign change before it
            xs = np.linspace(z / 50, z * 0.98, 60)
            assert all(bessel_j(p, float(x)) > 0 for x in xs)

    def test_first_zero_order_minus_half(self):
        # J_{-1/2}(x) = sqrt(2/(pi x)) cos x, the order of nu = 1
        assert bessel_first_zero(-0.5) == pytest.approx(math.pi / 2,
                                                        abs=1e-10)

    def test_rejects_out_of_range(self):
        for p in (-1.0, -0.25, 50.5):
            with pytest.raises(ValueError, match="order must"):
                bessel_first_zero(p)

    def test_first_zero_kept_per_order(self, monkeypatch):
        first = bessel_first_zero(1.75)

        def no_series(p, x):
            raise AssertionError("Bessel series evaluated again")

        monkeypatch.setattr(special, "bessel_j", no_series)
        assert bessel_first_zero(1.75) == first


def brute_gaussian_sum(lat: Lattice2, alpha: float, radius: int = 60) -> float:
    total = 0.0
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            vx = m * lat.e1[0] + n * lat.e2[0]
            vy = m * lat.e1[1] + n * lat.e2[1]
            total += math.exp(-alpha * (vx * vx + vy * vy))
    return total


class TestLattice:
    def test_dual_is_inverse_transpose(self):
        lat = Lattice2((2.0, 0.3), (-0.4, 1.1))
        dual = lat.dual()
        b = np.array([lat.e1, lat.e2])
        d = np.array([dual.e1, dual.e2])
        assert b @ d.T == pytest.approx(np.eye(2), abs=1e-14)
        assert dual.covolume() == pytest.approx(1.0 / lat.covolume())

    def test_min_singular_value(self):
        lat = Lattice2((3.0, 1.0), (0.5, 2.0))
        ref = np.linalg.svd(np.array([lat.e1, lat.e2]), compute_uv=False)[-1]
        assert lat.min_singular_value() == pytest.approx(ref, rel=1e-12)

    def test_gaussian_sum_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            basis = rng.uniform(-1.5, 1.5, size=(2, 2))
            if abs(np.linalg.det(basis)) < 0.4:
                continue
            lat = Lattice2(tuple(basis[0]), tuple(basis[1]))
            alpha = float(rng.uniform(0.3, 2.0))
            assert lat.gaussian_sum(alpha) == pytest.approx(
                brute_gaussian_sum(lat, alpha), rel=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Lattice2((1.0, 2.0), (2.0, 4.0))

    def test_gaussian_sum_alpha_validation(self):
        with pytest.raises(ValueError):
            Lattice2((1.0, 0.0), (0.0, 1.0)).gaussian_sum(0.0)


class TestHeatTraces:
    def test_poisson_identity_random_lattices(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            basis = rng.uniform(-2.0, 2.0, size=(2, 2))
            while abs(np.linalg.det(basis)) < 0.3:
                basis = rng.uniform(-2.0, 2.0, size=(2, 2))
            lat = Lattice2(tuple(basis[0]), tuple(basis[1]))
            t = float(rng.uniform(0.05, 2.0))
            a = lattice_heat_trace(lat, t)
            b = lattice_heat_trace_poisson(lat, t)
            assert a == pytest.approx(b, rel=1e-9)

    def test_square_torus_small_t_asymptotics(self):
        # trace ~ |Omega|/(4 pi t) as t -> 0
        lat = Lattice2((1.0, 0.0), (0.0, 1.0))
        t = 0.005
        assert lattice_heat_trace(lat, t) * 4 * math.pi * t == pytest.approx(
            1.0, abs=1e-9)

    def test_square_torus_large_t(self):
        lat = Lattice2((1.0, 0.0), (0.0, 1.0))
        assert lattice_heat_trace(lat, 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_hex_theta_limits(self):
        # large t: the prefactor 1/(4 pi t) times the covolume sum tends to
        # (number of lattice points per unit area) -> 2/sqrt(3)
        assert hex_theta(10.0) == pytest.approx(2 / math.sqrt(3), abs=1e-6)
        # small t: only the origin survives
        assert 4 * math.pi * 0.01 * hex_theta(0.01) == pytest.approx(1.0, abs=1e-9)

    def test_hex_floor_is_hexagonal_value(self):
        # equality case: the hexagonal lattice itself attains the floor
        c = 0.7
        scale = math.sqrt(2 * c / math.sqrt(3.0))
        hexlat = Lattice2((scale, 0.0), (scale / 2, scale * math.sqrt(3) / 2))
        assert hexlat.covolume() == pytest.approx(c, rel=1e-12)
        for t in (0.05, 0.2, 1.0):
            assert lattice_heat_trace(hexlat, t) == pytest.approx(
                hex_heat_floor(t, c), rel=1e-12)

    def test_hex_floor_minimizes_over_random_lattices(self):
        # sharp-constant direction: every same-covolume torus sits above
        rng = np.random.default_rng(23)
        for _ in range(25):
            basis = rng.uniform(-2.0, 2.0, size=(2, 2))
            while abs(np.linalg.det(basis)) < 0.2:
                basis = rng.uniform(-2.0, 2.0, size=(2, 2))
            lat = Lattice2(tuple(basis[0]), tuple(basis[1]))
            c = lat.covolume()
            for t in (0.1, 0.5, 2.0):
                assert lattice_heat_trace(lat, t) >= \
                    hex_heat_floor(t, c) * (1 - 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.02, max_value=5.0),
       st.floats(min_value=0.1, max_value=4.0))
def test_hex_floor_scaling_property(t, c):
    # floor(t, c) = floor(t/c, 1) by homothety of the comparison lattice
    assert hex_heat_floor(t, c) == pytest.approx(
        hex_heat_floor(t / c, 1.0), rel=1e-12)
