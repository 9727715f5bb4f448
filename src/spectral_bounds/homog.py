"""Comparisons between Neumann spectra and homogeneous reference spectra.

A domain Omega sitting inside a closed homogeneous space M (torus,
sphere) admits exact comparisons against the shifted reference
eigenvalues lambda~_j = lambda_j * w_mean + vweff_mean, one `Spectrum`
with each level repeated by its multiplicity (`spectra.shifted_spectrum`
of the torus or sphere enumeration).  They are the three reads of one
Riesz minorant, R(z) = vol_ratio * sum (z - lambda~_j)_+ with the volume
fraction as constant (`ReferenceMinorant`): Riesz means dominate R,
interpolated partial sums are dominated by its Legendre conjugate (the
reference sum at the index rescaled by the inverse fraction), and heat
traces dominate its Laplace transform, the reference trace with the
fraction in front; the reference levels above its cutoff are left out,
which only lowers the bound.  For Omega = M these collapse to termwise
bounds.
`bounds.sum_report`, `riesz_report` and `heat_report` turn a read into a
report.

The torus heat bound sharpens the comparison over all lattices of the
given covolume: by Poisson summation and the hexagonal minimality of
Gaussian lattice sums, the trace of any periodic problem dominates the
hexagonal floor sqrt(3)/2 * Theta(sqrt(3) w_mean t / (2 |Omega|)) times
the potential shift factor.  (The floor is attained by the hexagonal
torus, so the constant cannot be improved.)  It is a lattice floor, not a
Riesz minorant, and keeps its own evaluator.
"""

from __future__ import annotations

from math import exp

from .bounds import BoundContext
from .domains import TorusFundamental
from .report import BoundReport, make_report
from .special import hex_heat_floor
from .spectra import Spectrum, heat_trace, riesz_mean_1

__all__ = [
    "ReferenceMinorant",
    "heat_torus_bound",
]


class ReferenceMinorant:
    """R(z) = vol_ratio * sum (z - lambda~_j)_+ over a shifted reference
    spectrum, each level repeated by its multiplicity and known up to its
    cutoff."""

    shift = 0.0
    heat_note = ("computed side truncated at the spectrum cutoff; reference "
                 "side truncated at its own, which only lowers the bound")

    def __init__(self, reference: Spectrum, vol_ratio: float):
        if not 0 < vol_ratio <= 1 + 1e-12:
            raise ValueError(
                f"volume ratio must lie in (0, 1], got {vol_ratio}")
        self.reference = reference
        self.vol_ratio = vol_ratio

    def riesz(self, z: float) -> float:
        """R(z)."""
        return self.vol_ratio * riesz_mean_1(self.reference, z)

    def sum(self, p: float) -> float:
        """sup_z (p z - R(z)) = vol_ratio * S_ref(p / vol_ratio)."""
        return self.vol_ratio * self.reference.partial_sum(p / self.vol_ratio)

    def heat(self, t: float) -> float:
        """t^2 int exp(-t z) R(z) dz = vol_ratio * sum exp(-t lambda~_j)."""
        return self.vol_ratio * heat_trace(self.reference, t)


def heat_torus_bound(ctx: BoundContext, t: float,
                     spectrum: Spectrum) -> BoundReport:
    """Hexagonal heat-trace floor for periodic problems:

        sum exp(-mu_j t) >= sqrt(3)/2 * Theta(sqrt(3) w_mean t / (2 |Omega|))
                            * exp(-t vweff_mean),

    equality when the torus is hexagonal and the fields are constant.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if not isinstance(ctx.domain, TorusFundamental):
        raise ValueError("heat_torus_bound needs a torus domain")
    bound = exp(-t * ctx.vw_mean) * hex_heat_floor(ctx.w_mean * t, ctx.volume)
    computed = heat_trace(spectrum, t)
    return make_report("heat-torus", t, bound, computed, "lower",
                       notes=("hexagonal comparison lattice of equal "
                              "covolume (sharp constant)",
                              "computed side truncated at the spectrum "
                              "cutoff",))
