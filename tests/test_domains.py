import math

import numpy as np
import pytest

from spectral_bounds import (Box, Disk, Lattice2, MaskedBox, QuadratureGrid,
                             TorusFundamental, domain_volume,
                             mean_value, parse_field, torus_spectrum)

ONE_2D = parse_field("1", 2)


class TestDomainTypes:
    def test_box_defaults_and_validation(self):
        b = Box((1.0, 2.0))
        assert b.origin == (0.0, 0.0)
        assert b.exact_volume() == 2.0
        with pytest.raises(ValueError):
            Box((1.0, -1.0))
        with pytest.raises(ValueError):
            Box((1.0, 1.0), (0.0,))

    def test_disk(self):
        d = Disk(2.0, (1.0, -1.0))
        assert d.exact_volume() == pytest.approx(4 * math.pi)
        bb = d.bounding_box()
        assert bb.sides == (4.0, 4.0)
        assert bb.origin == (-1.0, -3.0)
        with pytest.raises(ValueError):
            Disk(0.0)

    def test_torus(self):
        t = TorusFundamental((2.0, 0.0), (0.0, 0.5))
        assert t.exact_volume() == 1.0
        assert t.is_rectangular()
        skew = TorusFundamental((1.0, 0.0), (0.5, math.sqrt(3) / 2))
        assert not skew.is_rectangular()
        assert skew.exact_volume() == pytest.approx(math.sqrt(3) / 2)
        with pytest.raises(ValueError):
            TorusFundamental((1.0, 0.0), (2.0, 0.0))

    def test_torus_is_its_lattice(self):
        skew = TorusFundamental((1.0, 0.0), (0.5, 0.8))
        assert isinstance(skew, Lattice2)
        assert np.array_equal(
            torus_spectrum(skew, 300.0).values,
            torus_spectrum(Lattice2(skew.e1, skew.e2), 300.0).values)
        # the lattice checks the basis, and keeps the dual's in range
        with pytest.raises(ValueError, match="singular"):
            Lattice2((1.0, 0.0), (0.0, 1e-301))
        with pytest.raises(ValueError, match="too large"):
            TorusFundamental((1e151, 0.0), (0.0, 1e151))

    def test_masked_box_volume_needs_grid(self):
        mb = MaskedBox(Box((2.0, 2.0), (-1.0, -1.0)),
                       parse_field("x^2 + y^2 - 1", 2))
        assert mb.exact_volume() is None
        grid = QuadratureGrid(mb, (40, 40))
        assert domain_volume(mb, grid) == grid.measure()


class TestQuadrature:
    def test_mean_of_one_is_exactly_one(self):
        domains = [
            Box((1.0, 3.0)),
            Disk(1.0),
            MaskedBox(Box((2.0, 2.0), (-1.0, -1.0)),
                      parse_field("x^2 + y^2 - 1", 2)),
            TorusFundamental((1.0, 0.0), (0.3, 1.2)),
        ]
        for d in domains:
            g = QuadratureGrid(d, 40)
            assert mean_value(ONE_2D, g) == 1.0

    def test_midpoint_exact_for_bilinear(self):
        # midpoint quadrature integrates polynomials of degree 1 per axis
        # exactly; on [0,1] x [0,2] the mean of x*y is (1/2)(2/2)... = 0.5
        g = QuadratureGrid(Box((1.0, 2.0)), (16, 8))
        assert mean_value(parse_field("x*y", 2), g) == pytest.approx(0.5, abs=1e-14)
        assert mean_value(parse_field("x*y", 2), g) * g.measure() == \
            pytest.approx(1.0, abs=1e-14)

    def test_disk_mean_r_squared(self):
        # (1/pi) int r^2 over the unit disk = 1/2
        g = QuadratureGrid(Disk(1.0), 400)
        assert mean_value(parse_field("x^2 + y^2", 2), g) == pytest.approx(0.5, abs=1e-4)

    def test_masked_box_matches_disk(self):
        level = parse_field("x^2 + y^2 - 1", 2)
        mb = MaskedBox(Box((2.0, 2.0), (-1.0, -1.0)), level)
        gm = QuadratureGrid(mb, 128)
        gd = QuadratureGrid(Disk(1.0), 128)
        assert gm.measure() == pytest.approx(gd.measure(), rel=1e-12)
        assert gm.mask.sum() == gd.mask.sum()

    def test_staircase_volume_converges(self):
        errs = [abs(QuadratureGrid(Disk(1.0), n).measure() - math.pi)
                for n in (64, 128, 256, 512)]
        assert errs[-1] < errs[0]
        assert errs[-1] < 2e-3

    def test_skew_torus_coords_and_volume(self):
        skew = TorusFundamental((1.0, 0.0), (0.5, math.sqrt(3) / 2))
        g = QuadratureGrid(skew, (32, 32))
        assert g.measure() == pytest.approx(skew.exact_volume(), rel=1e-12)
        x, y = g.coords()
        assert x.shape == (32, 32)
        # nodes stay inside the fundamental parallelogram
        assert y.min() >= 0.0 and y.max() <= math.sqrt(3) / 2

    def test_coordinate_ranges(self):
        g = QuadratureGrid(Box((1.0, 2.0), (5.0, -1.0)), (10, 20))
        assert g.axes[0][0] == pytest.approx(5.0 + 0.05)
        assert g.axes[0][-1] == pytest.approx(6.0 - 0.05)
        assert g.axes[1][0] == pytest.approx(-1.0 + 0.05)
        assert g.spacing == (0.1, 0.1)
        assert g.cell_volume == pytest.approx(0.01)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            QuadratureGrid(Box((1.0, 1.0)), (1, 8))

    def test_empty_mask_rejected(self):
        # predicate positive everywhere -> nothing inside
        mb = MaskedBox(Box((1.0, 1.0)), parse_field("1 + x^2", 2))
        with pytest.raises(ValueError):
            QuadratureGrid(mb, 16)

    def test_periodic_flag(self):
        assert QuadratureGrid(TorusFundamental((1.0, 0.0), (0.0, 1.0)), 8).periodic
        assert not QuadratureGrid(Box((1.0, 1.0)), 8).periodic

    def test_inside_values_shape(self):
        g = QuadratureGrid(Disk(1.0), 64)
        vals = g.inside_values(parse_field("x", 2))
        assert vals.shape == (int(g.mask.sum()),)

    @pytest.mark.parametrize("domain,n,source", [
        (Box((2.0, 1.0)), (8, 5), "x*y + 2"),
        (Box((2.0, 1.0)), (8, 5), "3"),
        (Box((1.0, 1.0, 2.0)), (4, 3, 5), "x + y^2*z"),
        (TorusFundamental((1.0, 0.0), (0.5, 1.0)), 6, "x - y")])
    def test_inside_values_of_a_full_mask_match_the_gather(self, domain, n,
                                                           source):
        # a full mask is read without the boolean gather: same values, in
        # the same order
        g = QuadratureGrid(domain, n)
        f = parse_field(source, domain.nu)
        assert g.mask.all()
        assert g.inside_values(f).tobytes() == \
            g.evaluate(f)[g.mask].tobytes()

    @pytest.mark.parametrize("n", [24, 101])
    def test_inside_values_of_a_mask_evaluate_inside_only(self, n):
        # not finite at the corners of the bounding grid, and equal on the
        # disk to a field that is finite everywhere
        g = QuadratureGrid(Disk(1.0), n)
        inside = g.inside_values(parse_field("sqrt(1 - x^2 - y^2)", 2))
        f = parse_field("sqrt(abs(1 - x^2 - y^2))", 2)
        assert inside.tobytes() == g.evaluate(f)[g.mask].tobytes()
