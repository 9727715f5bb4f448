"""Comparisons between Neumann spectra and homogeneous reference spectra.

A domain Omega sitting inside a closed homogeneous space M (torus, sphere)
admits exact comparisons against the shifted reference eigenvalues
lambda~_j = lambda_j * w_mean + vweff_mean: Riesz means dominate with the
volume fraction as constant, interpolated partial sums are dominated after
rescaling the index by the inverse fraction, and heat traces compare with
the fraction in front.  For Omega = M these collapse to termwise bounds.

The torus heat bound sharpens the comparison over all lattices of the
given covolume: by Poisson summation and the hexagonal minimality of
Gaussian lattice sums, the trace of any periodic problem dominates the
hexagonal floor sqrt(3)/2 * Theta(sqrt(3) w_mean t / (2 |Omega|)) times
the potential shift factor.  (The floor is attained by the hexagonal
torus, so the constant cannot be improved.)
"""

from __future__ import annotations

from math import exp
from typing import Optional

from .bounds import BoundContext
from .domains import TorusFundamental
from .report import BoundReport, make_report
from .special import hex_heat_floor
from .spectra import (HomogeneousSpectrum, Spectrum, TailModel, heat_trace,
                      interp_partial_sum, riesz_mean_1)

__all__ = [
    "homog_riesz_compare",
    "homog_sum_compare",
    "heat_homog_compare",
    "heat_torus_bound",
]


def _check_ratio(vol_ratio: float):
    if not 0 < vol_ratio <= 1 + 1e-12:
        raise ValueError(f"volume ratio must lie in (0, 1], got {vol_ratio}")


def homog_riesz_compare(mu: Spectrum, shifted: HomogeneousSpectrum,
                        vol_ratio: float, z: float) -> BoundReport:
    """sum (z - mu_j)_+ >= vol_ratio * sum (z - lambda~_j)_+."""
    _check_ratio(vol_ratio)
    computed = riesz_mean_1(mu, z)
    reference = shifted.flatten()
    bound = vol_ratio * riesz_mean_1(reference, z)
    return make_report("homog-riesz", z, bound, computed, "lower")


def homog_sum_compare(mu: Spectrum, shifted: HomogeneousSpectrum,
                      vol_ratio: float, p: float) -> BoundReport:
    """Interpolated partial sums: S_mu(p) <= vol_ratio * S_ref(p/vol_ratio)."""
    _check_ratio(vol_ratio)
    computed = interp_partial_sum(mu, p)
    reference = shifted.flatten()
    bound = vol_ratio * interp_partial_sum(reference, p / vol_ratio)
    return make_report("homog-sum", p, bound, computed, "upper")


def heat_homog_compare(mu: Spectrum, shifted: HomogeneousSpectrum,
                       vol_ratio: float, t: float,
                       reference_tail: Optional[TailModel] = None,
                       ) -> BoundReport:
    """Heat traces: sum exp(-mu_j t) >= vol_ratio * sum exp(-lambda~_j t).

    The left side is truncated (omitted tail positive, conservative); the
    right side adds the reference tail estimate when a model is supplied,
    making the comparison harder to satisfy, hence still conservative.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    _check_ratio(vol_ratio)
    computed = heat_trace(mu, t).truncated
    reference = shifted.flatten()
    rhs = heat_trace(reference, t, reference_tail)
    bound = vol_ratio * (rhs.truncated + rhs.tail)
    return make_report("homog-heat", t, bound, computed, "lower",
                       notes=("computed side truncated; reference side "
                              "includes its tail estimate",))


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
    computed = heat_trace(spectrum, t).truncated
    return make_report("heat-torus", t, bound, computed, "lower",
                       notes=("hexagonal comparison lattice of equal "
                              "covolume (sharp constant)",
                              "computed side truncated at the spectrum "
                              "cutoff",))
