"""Eigenvalue-sum, Riesz-mean, heat-trace and individual-eigenvalue bounds
for weighted Neumann problems on Euclidean domains.

Conventions used throughout (nu = dimension, |Omega| = domain volume,
omega_nu = unit-ball volume):

  * mean values are w_mean = mean of w and vweff_mean = mean of Vtilde * w
    with Vtilde = V + |grad rho|^2;
  * shifted eigenvalues are mu~_j = mu_j - vweff_mean;
  * the geometric constant H defaults to the Euclidean value
    (2 pi)^nu / omega_nu, for which the general sum bound reduces exactly
    to the classical averaged form.

The three domain constants |Omega|, w_mean and vweff_mean come from one
BoundContext, built once per grid by `bound_context`.

The averaged variational principle gives one Riesz-mean minorant
R(z) <= sum (z - mu_j)_+, here the power law of `WeylMinorant`.  The
sum, Riesz and heat bounds are its three reads: the sum bound is its
Legendre conjugate, sum_{j<k} mu_j <= sup_z (k z - R(z)); the Riesz
bound is R itself; the heat bound is its Laplace transform,
sum exp(-t mu_j) >= t^2 int exp(-t z) R(z) dz.  `sum_report`,
`riesz_report` and `heat_report` pair a read with the computed side of
any minorant, also the homogeneous reference of `homog.ReferenceMinorant`.
Every evaluator takes (ctx, parameter, spectrum[, H_omega]) and returns a
BoundReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .domains import Domain, QuadratureGrid, domain_volume
from .problem import ProblemSpec
from .report import BoundReport, make_report
from .special import unit_ball_volume
from .spectra import Spectrum, heat_trace, riesz_mean_1

__all__ = [
    "BoundContext",
    "bound_context",
    "euclidean_H",
    "WeylMinorant",
    "sum_report",
    "riesz_report",
    "heat_report",
    "kroger_avg_bound",
    "general_sum_bound",
    "riesz_lower_bound",
    "heat_lower_bound",
    "individual_bound_sk",
    "individual_bound_pos",
]


@dataclass(frozen=True)
class BoundContext:
    """The domain constants every bound is built from: |Omega|, w_mean and
    vweff_mean, computed once on the run grid."""

    domain: Domain
    nu: int
    volume: float
    w_mean: float
    vw_mean: float


def bound_context(problem: ProblemSpec, grid: QuadratureGrid,
                  solved: bool = False) -> BoundContext:
    """Check w > 0 at every inside node of `grid` and take the means there.

    With `solved` (the spectrum is solved on the grid's inside cells, as fd
    does), |Omega| is the measure of those cells wherever the mask does not
    fill the grid, say a disk's staircase; otherwise it is exact where a
    closed form exists."""
    w_min = float(grid.inside_values(problem.w).min())
    if w_min <= 0:
        raise ValueError(
            f"weight w must be strictly positive on the domain; minimum "
            f"{w_min:.3g} on the {'x'.join(map(str, grid.shape))} grid")
    volume = grid.measure() if solved and not grid.full else \
        domain_volume(problem.domain, grid)
    return BoundContext(problem.domain, problem.nu, volume,
                        problem.mean_w(grid), problem.mean_veff_w(grid))


def euclidean_H(nu: int) -> float:
    """Default geometric constant (2 pi)^nu / omega_nu."""
    return (2.0 * math.pi) ** nu / unit_ball_volume(nu)


def _H(ctx: BoundContext, H_omega: Optional[float]) -> float:
    """H_omega, which must be positive, or the Euclidean value for None."""
    if H_omega is None:
        return euclidean_H(ctx.nu)
    if H_omega <= 0:
        raise ValueError("H_omega must be positive")
    return H_omega


def kroger_avg_bound(ctx: BoundContext, k: int,
                     spectrum: Spectrum) -> BoundReport:
    """Averaged upper bound: sum of the first k eigenvalues against
    k * ((4 pi^2 nu/(nu+2)) (k/(|Omega| omega_nu))^(2/nu) w_mean
         + vweff_mean)."""
    nu = ctx.nu
    mean_rhs = (4.0 * math.pi ** 2 * nu / (nu + 2)) * \
        (k / (ctx.volume * unit_ball_volume(nu))) ** (2.0 / nu) * \
        ctx.w_mean + ctx.vw_mean
    return make_report("kroger-avg", k, k * mean_rhs, spectrum.partial_sum(k),
                       "upper")


class WeylMinorant:
    """The power-law Riesz minorant

        R(z) = (2|Omega|/((nu+2) H)) w_mean^(-nu/2) (z - vweff_mean)_+^(1+nu/2)

    with H = H_omega, or the Euclidean value for None.  Every read refuses
    a non-positive H_omega, after its own argument check.  Each read keeps
    its closed form term for term."""

    heat_note = ("computed side truncated at the spectrum cutoff; omitted "
                 "tail is positive")

    def __init__(self, ctx: BoundContext, H_omega: Optional[float] = None):
        self.ctx = ctx
        self.H_omega = H_omega

    @property
    def shift(self) -> float:
        """The heat read carries the factor exp(t vweff_mean)."""
        return self.ctx.vw_mean

    def riesz(self, z: float) -> float:
        """R(z)."""
        ctx, nu = self.ctx, self.ctx.nu
        H = _H(ctx, self.H_omega)
        excess = max(z - ctx.vw_mean, 0.0)
        return (2.0 * ctx.volume / ((nu + 2.0) * H)) * \
            ctx.w_mean ** (-nu / 2.0) * excess ** (1.0 + nu / 2.0)

    def sum(self, k: float) -> float:
        """sup_z (k z - R(z))
        = k ((nu/(nu+2)) (H k/|Omega|)^(2/nu) w_mean + vweff_mean)."""
        ctx, nu = self.ctx, self.ctx.nu
        H = _H(ctx, self.H_omega)
        return k * ((nu / (nu + 2.0)) * (H * k / ctx.volume) ** (2.0 / nu) *
                    ctx.w_mean + ctx.vw_mean)

    def heat(self, t: float) -> float:
        """exp(t vweff_mean) t^2 int exp(-t z) R(z) dz
        = (pi/t)^(nu/2) |Omega| / (omega_nu H) w_mean^(-nu/2)."""
        if t <= 0:
            raise ValueError("t must be positive")
        ctx, nu = self.ctx, self.ctx.nu
        H = _H(ctx, self.H_omega)
        return (math.pi / t) ** (nu / 2.0) * ctx.volume / \
            (unit_ball_volume(nu) * H) * ctx.w_mean ** (-nu / 2.0)


def sum_report(kind: str, minorant, k: float,
               spectrum: Spectrum) -> BoundReport:
    """Partial sum of the lowest k eigenvalues (linearly interpolated at a
    real k) against the minorant's Legendre conjugate."""
    return make_report(kind, k, minorant.sum(k), spectrum.partial_sum(k),
                       "upper")


def riesz_report(kind: str, minorant, z: float,
                 spectrum: Spectrum) -> BoundReport:
    """sum (z - mu_j)_+ against the minorant itself."""
    return make_report(kind, z, minorant.riesz(z), riesz_mean_1(spectrum, z),
                       "lower")


def heat_report(kind: str, minorant, t: float,
                spectrum: Spectrum) -> BoundReport:
    """exp(t shift) times the truncated heat trace against the minorant's
    Laplace transform.  The omitted tail is positive, so a passing report
    is conservative."""
    bound = minorant.heat(t)
    computed = math.exp(t * minorant.shift) * heat_trace(spectrum, t)
    return make_report(kind, t, bound, computed, "lower",
                       notes=(minorant.heat_note,))


def general_sum_bound(ctx: BoundContext, k: int, spectrum: Spectrum,
                      H_omega: Optional[float] = None) -> BoundReport:
    """(1/k) sum mu_j <= (nu/(nu+2)) (H k/|Omega|)^(2/nu) w_mean + vweff_mean."""
    return sum_report("general-sum", WeylMinorant(ctx, H_omega), k, spectrum)


def riesz_lower_bound(ctx: BoundContext, z: float, spectrum: Spectrum,
                      H_omega: Optional[float] = None) -> BoundReport:
    """sum (z - mu_j)_+ >= R(z) of the Weyl minorant."""
    return riesz_report("riesz-lower", WeylMinorant(ctx, H_omega), z, spectrum)


def heat_lower_bound(ctx: BoundContext, t: float, spectrum: Spectrum,
                     H_omega: Optional[float] = None) -> BoundReport:
    """sum exp(-t (mu_j - vweff_mean)) >= (pi/t)^(nu/2) |Omega|
    / (omega_nu H) * w_mean^(-nu/2)."""
    return heat_report("heat-lower", WeylMinorant(ctx, H_omega), t, spectrum)


def _individual_terms(ctx: BoundContext, k: int, spectrum: Spectrum,
                      H_omega: Optional[float]) -> Tuple[float, float, float]:
    """(H k/|Omega|)^(2/nu) w_mean, mu_0 + ... + mu_(k-1) and mu_k."""
    H = _H(ctx, H_omega)
    if len(spectrum) < k + 1:
        raise ValueError(f"need {k + 1} eigenvalues, have {len(spectrum)}")
    return ((H * k / ctx.volume) ** (2.0 / ctx.nu) * ctx.w_mean,
            spectrum.partial_sum(k), float(spectrum.values[k]))


def individual_bound_sk(ctx: BoundContext, k: int, spectrum: Spectrum,
                        H_omega: Optional[float] = None) -> BoundReport:
    """Individual shifted-eigenvalue bound:
    mu~_k <= (1 + 2 sqrt((1 - S_k)/(nu+2))) (H k/|Omega|)^(2/nu) w_mean,

    where S_k is the ratio of the computed mean of mu~_0..mu~_(k-1) to its
    sum-bound value; the sum bound guarantees S_k <= 1, so a larger value
    signals an inconsistent spectrum and raises.
    """
    nu = ctx.nu
    scale, head, mu_k = _individual_terms(ctx, k, spectrum, H_omega)
    shifted_mean = head / k - ctx.vw_mean
    s_k = shifted_mean / ((nu / (nu + 2.0)) * scale)
    if s_k > 1.0 + 1e-9:
        raise ValueError(
            f"S_k = {s_k} exceeds 1: spectrum inconsistent with the sum "
            "bound")
    s_k = min(s_k, 1.0)
    bound = (1.0 + 2.0 * math.sqrt((1.0 - s_k) / (nu + 2.0))) * scale
    computed = mu_k - ctx.vw_mean
    return make_report("individual-sk", k, bound, computed, "upper",
                       notes=(f"S_k = {s_k:.12g}",))


def individual_bound_pos(ctx: BoundContext, k: int, spectrum: Spectrum,
                         H_omega: Optional[float] = None,
                         ) -> Tuple[BoundReport, BoundReport]:
    """Unshifted individual bounds, valid when sum mu_0..mu_(k-1) >= 0:

      implicit form:  mu_k (1 - vweff_mean/mu_k)_+^(1+2/nu)
                        <= ((nu+2)/2)^(2/nu) (H k/|Omega|)^(2/nu) w_mean
      max form:       mu_k <= max(2 vweff_mean,
                                  2 (nu+2)^(2/nu) (H k/|Omega|)^(2/nu) w_mean)

    Returns the pair of reports (implicit, max).
    """
    nu = ctx.nu
    vw_mean = ctx.vw_mean
    scale, head, mu_k = _individual_terms(ctx, k, spectrum, H_omega)
    if head < -1e-9 * (1.0 + abs(head)):
        raise ValueError(
            f"sum of the first {k} eigenvalues is {head} < 0; the "
            "unshifted bounds do not apply")

    if mu_k > 0:
        implicit_lhs = mu_k * max(1.0 - vw_mean / mu_k, 0.0) ** (1.0 + 2.0 / nu)
    else:
        implicit_lhs = 0.0
    implicit_rhs = ((nu + 2.0) / 2.0) ** (2.0 / nu) * scale
    implicit = make_report("individual-pos-implicit", k, implicit_rhs,
                           implicit_lhs, "upper")

    max_rhs = max(2.0 * vw_mean, 2.0 * (nu + 2.0) ** (2.0 / nu) * scale)
    explicit = make_report("individual-pos-max", k, max_rhs, mu_k, "upper")
    return implicit, explicit

