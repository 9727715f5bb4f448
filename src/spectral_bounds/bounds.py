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
BoundContext, built once per grid by `bound_context`.  Every evaluator
takes (ctx, parameter, spectrum[, H_omega]) and returns a BoundReport:
upper bounds compare against computed partial sums, lower bounds against
Riesz means or truncated heat traces.
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
    "kroger_avg_bound",
    "general_sum_bound",
    "riesz_lower_bound",
    "heat_lower_bound",
    "individual_bound_sk",
    "individual_bound_pos",
    "legendre_conjugate_power",
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


def bound_context(problem: ProblemSpec, grid: QuadratureGrid) -> BoundContext:
    """Check w > 0 at every inside node of `grid` and take the means there."""
    w_min = float(grid.inside_values(problem.w).min())
    if w_min <= 0:
        raise ValueError(
            f"weight w must be strictly positive on the domain; minimum "
            f"{w_min:.3g} on the {'x'.join(map(str, grid.shape))} grid")
    return BoundContext(problem.domain, problem.nu,
                        domain_volume(problem.domain, grid),
                        problem.mean_w(grid), problem.mean_veff_w(grid))


def euclidean_H(nu: int) -> float:
    """Default geometric constant (2 pi)^nu / omega_nu."""
    return (2.0 * math.pi) ** nu / unit_ball_volume(nu)


def _H(ctx: BoundContext, H_omega: Optional[float]) -> float:
    return euclidean_H(ctx.nu) if H_omega is None else H_omega


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


def general_sum_bound(ctx: BoundContext, k: int, spectrum: Spectrum,
                      H_omega: Optional[float] = None) -> BoundReport:
    """Sum bound with explicit geometric constant H:
    (1/k) sum mu_j <= (nu/(nu+2)) (H k/|Omega|)^(2/nu) w_mean + vweff_mean."""
    nu = ctx.nu
    H = _H(ctx, H_omega)
    if H <= 0:
        raise ValueError("H_omega must be positive")
    mean_rhs = (nu / (nu + 2.0)) * (H * k / ctx.volume) ** (2.0 / nu) * \
        ctx.w_mean + ctx.vw_mean
    return make_report("general-sum", k, k * mean_rhs,
                       spectrum.partial_sum(k), "upper")


def riesz_lower_bound(ctx: BoundContext, z: float, spectrum: Spectrum,
                      H_omega: Optional[float] = None) -> BoundReport:
    """Riesz-mean lower bound:
    sum (z - mu_j)_+ >= (2|Omega|/((nu+2) H)) w_mean^(-nu/2)
                        (z - vweff_mean)_+^(1+nu/2)."""
    nu = ctx.nu
    H = _H(ctx, H_omega)
    excess = max(z - ctx.vw_mean, 0.0)
    bound = (2.0 * ctx.volume / ((nu + 2.0) * H)) * \
        ctx.w_mean ** (-nu / 2.0) * excess ** (1.0 + nu / 2.0)
    return make_report("riesz-lower", z, bound, riesz_mean_1(spectrum, z),
                       "lower")


def heat_lower_bound(ctx: BoundContext, t: float, spectrum: Spectrum,
                     H_omega: Optional[float] = None) -> BoundReport:
    """Heat-trace lower bound:
    sum exp(-t (mu_j - vweff_mean)) >= (pi/t)^(nu/2) |Omega|
    / (omega_nu H) * w_mean^(-nu/2).

    The computed side uses the truncated trace only; the omitted tail is
    positive, so a passing report is conservative.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    nu = ctx.nu
    H = _H(ctx, H_omega)
    bound = (math.pi / t) ** (nu / 2.0) * ctx.volume / \
        (unit_ball_volume(nu) * H) * ctx.w_mean ** (-nu / 2.0)
    truncated = heat_trace(spectrum, t).truncated
    computed = math.exp(t * ctx.vw_mean) * truncated
    return make_report("heat-lower", t, bound, computed, "lower",
                       notes=("computed side truncated at the spectrum "
                              "cutoff; omitted tail is positive",))


def individual_bound_sk(ctx: BoundContext, k: int, spectrum: Spectrum,
                        H_omega: Optional[float] = None) -> BoundReport:
    """Individual shifted-eigenvalue bound:
    mu~_k <= (1 + 2 sqrt((1 - S_k)/(nu+2))) (H k/|Omega|)^(2/nu) w_mean,

    where S_k is the ratio of the computed mean of mu~_0..mu~_(k-1) to its
    sum-bound value; the sum bound guarantees S_k <= 1, so a larger value
    signals an inconsistent spectrum and raises.
    """
    nu = ctx.nu
    H = _H(ctx, H_omega)
    if len(spectrum) < k + 1:
        raise ValueError(f"need {k + 1} eigenvalues, have {len(spectrum)}")
    scale = (H * k / ctx.volume) ** (2.0 / nu) * ctx.w_mean
    shifted_mean = spectrum.partial_sum(k) / k - ctx.vw_mean
    s_k = shifted_mean / ((nu / (nu + 2.0)) * scale)
    if s_k > 1.0 + 1e-9:
        raise ValueError(
            f"S_k = {s_k} exceeds 1: spectrum inconsistent with the sum "
            "bound")
    s_k = min(s_k, 1.0)
    bound = (1.0 + 2.0 * math.sqrt((1.0 - s_k) / (nu + 2.0))) * scale
    computed = float(spectrum.values[k]) - ctx.vw_mean
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
    H = _H(ctx, H_omega)
    vw_mean = ctx.vw_mean
    if len(spectrum) < k + 1:
        raise ValueError(f"need {k + 1} eigenvalues, have {len(spectrum)}")
    head = spectrum.partial_sum(k)
    if head < -1e-9 * (1.0 + abs(head)):
        raise ValueError(
            f"sum of the first {k} eigenvalues is {head} < 0; the "
            "unshifted bounds do not apply")
    mu_k = float(spectrum.values[k])
    scale = (H * k / ctx.volume) ** (2.0 / nu) * ctx.w_mean

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


def legendre_conjugate_power(A: float, B: float, nu: int, p: float) -> float:
    """Legendre transform of f(z) = A (z - B)_+^(1+nu/2):

    f^(p) = (2/A)^(2/nu) * nu/(nu+2)^(1+2/nu) * p^(1+2/nu) + B p.

    At integer p this turns the Riesz lower bound back into the sum upper
    bound with the same constants.
    """
    if A <= 0:
        raise ValueError("A must be positive")
    if p < 0:
        raise ValueError("p must be non-negative")
    return (2.0 / A) ** (2.0 / nu) * nu / \
        (nu + 2.0) ** (1.0 + 2.0 / nu) * p ** (1.0 + 2.0 / nu) + B * p
