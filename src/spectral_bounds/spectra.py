"""Spectra and spectral functionals.

A Spectrum is a sorted finite list of eigenvalues complete up to a stated
cutoff.  Exact spectra are provided for Neumann rectangles, flat tori
(through the dual lattice) and round spheres; discretized spectra come from
the finite-difference solver.  On top of these live the functionals used by
the bounds: interpolated partial sums, the first Riesz mean

    R1(z) = sum over j of (z - mu_j)_+,

its Legendre transform (which recovers partial sums), and truncated heat
traces with an optional Weyl-law tail estimate, reported separately so that
comparisons can stay one-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .special import Lattice2, unit_ball_volume

__all__ = [
    "Spectrum",
    "HomogeneousSpectrum",
    "SpectrumRangeError",
    "TailModel",
    "HeatTraceResult",
    "rectangle_neumann_exact",
    "torus_spectrum",
    "sphere_spectrum",
    "shifted_spectrum",
    "interp_partial_sum",
    "riesz_mean_1",
    "legendre_of_riesz",
    "truncated_laplace_transform",
    "heat_trace",
]

_GROUP_RTOL = 1e-9
_MAX_DUAL_POINTS = 10 ** 6   # torus enumeration box; ~1 s of Python loop


class SpectrumRangeError(ValueError):
    """Raised when a functional needs more of the spectrum than is known."""


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues, complete up to `cutoff`."""

    values: np.ndarray
    cutoff: float
    source: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("spectrum must be a non-empty 1-D array")
        if np.any(np.diff(vals) < 0):
            raise ValueError("spectrum values must be non-decreasing")
        if vals[-1] > self.cutoff + 1e-9 * (1.0 + abs(self.cutoff)):
            raise ValueError(
                f"largest value {vals[-1]} exceeds cutoff {self.cutoff}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)

    def partial_sum(self, k: int) -> float:
        if not 0 <= k <= len(self):
            raise SpectrumRangeError(
                f"partial sum of {k} terms needs {k} eigenvalues, "
                f"have {len(self)}")
        return float(self.values[:k].sum())

    def counting(self, z: float) -> int:
        """Number of eigenvalues <= z (z must not exceed the cutoff)."""
        return int(np.searchsorted(self.values, z, side="right"))

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "cutoff": self.cutoff,
            "values": [float(v) for v in self.values],
        }


@dataclass(frozen=True)
class HomogeneousSpectrum:
    """Distinct eigenvalues with multiplicities on a closed model space."""

    levels: Tuple[Tuple[float, int], ...]
    manifold_volume: float
    cutoff: float
    source: str = ""

    def flatten(self, cutoff: Optional[float] = None) -> Spectrum:
        limit = self.cutoff if cutoff is None else cutoff
        if limit > self.cutoff * (1 + 1e-12) and limit > self.cutoff + 1e-12:
            raise SpectrumRangeError(
                f"requested cutoff {limit} beyond enumerated {self.cutoff}")
        out: List[float] = []
        for value, mult in self.levels:
            if value <= limit:
                out.extend([value] * mult)
        return Spectrum(np.array(out), limit, self.source)

    def count(self) -> int:
        return sum(m for _, m in self.levels)


def _group_values(values: Sequence[float]) -> List[Tuple[float, int]]:
    levels: List[Tuple[float, int]] = []
    for v in sorted(values):
        if levels and abs(v - levels[-1][0]) <= _GROUP_RTOL * (1.0 + abs(v)):
            value, mult = levels[-1]
            levels[-1] = (value, mult + 1)
        else:
            levels.append((v, 1))
    return levels


def rectangle_neumann_exact(lx: float, ly: float,
                            count: Optional[int] = None,
                            cutoff: Optional[float] = None) -> Spectrum:
    """Neumann Laplacian spectrum of [0,lx] x [0,ly]:
    pi^2 (m^2/lx^2 + n^2/ly^2) over integer m, n >= 0."""
    if (count is None) == (cutoff is None):
        raise ValueError("specify exactly one of count, cutoff")
    if lx <= 0 or ly <= 0:
        raise ValueError("side lengths must be positive")

    def collect(limit: float) -> List[float]:
        vals = []
        m_max = int(math.floor(lx * math.sqrt(limit) / math.pi)) + 1
        for m in range(m_max + 1):
            base = (math.pi * m / lx) ** 2
            if base > limit:
                break
            n_max = int(math.floor(ly * math.sqrt(limit - base) / math.pi)) + 1
            for n in range(n_max + 1):
                v = base + (math.pi * n / ly) ** 2
                if v <= limit:
                    vals.append(v)
        return sorted(vals)

    if cutoff is not None:
        return Spectrum(np.array(collect(cutoff)), cutoff, "exact-rectangle")

    limit = math.pi ** 2 * (1.0 / lx ** 2 + 1.0 / ly ** 2)
    while True:
        vals = collect(limit)
        if len(vals) >= count:
            vals = vals[:count]
            return Spectrum(np.array(vals), vals[-1], "exact-rectangle")
        limit *= 2.0


def torus_spectrum(lattice: Lattice2, cutoff: float) -> HomogeneousSpectrum:
    """Laplacian spectrum of the torus R^2/lattice up to `cutoff`:
    4 pi^2 |xi|^2 over dual vectors xi, grouped with multiplicities."""
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    dual = lattice.dual()
    radius = math.sqrt(cutoff) / (2.0 * math.pi)
    # m = xi . e1, so |m| <= |xi| |e1|; same for n: a provably complete box
    m_max = int(math.floor(radius * math.hypot(*lattice.e1))) + 1
    n_max = int(math.floor(radius * math.hypot(*lattice.e2))) + 1
    points = (2.0 * m_max + 1.0) * (2.0 * n_max + 1.0)
    if points > _MAX_DUAL_POINTS:
        raise ValueError(
            f"torus enumeration needs {points:.3g} dual points, more than "
            f"{_MAX_DUAL_POINTS}; use a smaller cutoff or a less elongated "
            "lattice")
    values = []
    for m in range(-m_max, m_max + 1):
        for n in range(-n_max, n_max + 1):
            x = m * dual.e1[0] + n * dual.e2[0]
            y = m * dual.e1[1] + n * dual.e2[1]
            v = 4.0 * math.pi ** 2 * (x * x + y * y)
            if v <= cutoff * (1.0 + 1e-12):
                values.append(v)
    levels = tuple(_group_values(values))
    return HomogeneousSpectrum(levels, lattice.covolume(), cutoff, "exact-torus")


def sphere_spectrum(nu: int, l_max: int) -> HomogeneousSpectrum:
    """Laplacian spectrum of the round unit sphere S^nu through degree l_max:
    l(l+nu-1) with the dimension of spherical harmonics as multiplicity."""
    if nu < 2:
        raise ValueError("sphere dimension must be at least 2")
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    levels = []
    for l in range(l_max + 1):
        m = math.comb(l + nu, nu)
        if l + nu - 2 >= nu:
            m -= math.comb(l + nu - 2, nu)
        levels.append((float(l * (l + nu - 1)), m))
    volume = (nu + 1) * unit_ball_volume(nu + 1)
    return HomogeneousSpectrum(tuple(levels), volume,
                               float(l_max * (l_max + nu - 1)), "exact-sphere")


def shifted_spectrum(spec, w_mean: float, Vw_mean: float):
    """Affine image {Lambda * w_mean + Vw_mean} of a Spectrum or of a
    HomogeneousSpectrum (multiplicities kept), of the same type."""
    if w_mean <= 0:
        raise ValueError("w_mean must be positive")
    cutoff = w_mean * spec.cutoff + Vw_mean
    if isinstance(spec, Spectrum):
        return Spectrum(w_mean * spec.values + Vw_mean, cutoff, spec.source)
    levels = tuple((w_mean * v + Vw_mean, m) for v, m in spec.levels)
    return HomogeneousSpectrum(levels, spec.manifold_volume, cutoff,
                               spec.source)


def _values_of(s) -> np.ndarray:
    if isinstance(s, Spectrum):
        return s.values
    return np.asarray(s, dtype=float)


def interp_partial_sum(s, p: float) -> float:
    """Linearly interpolated partial sum: sum of the lowest floor(p)
    values plus the fractional part times the next one."""
    values = _values_of(s)
    n = values.size
    if p < 0 or p > n:
        raise SpectrumRangeError(
            f"partial sum order p={p} outside [0, {n}]")
    k = int(math.floor(p))
    frac = p - k
    total = float(values[:k].sum())
    if frac > 0.0:
        total += frac * float(values[k])
    return total


def riesz_mean_1(s, z: float) -> float:
    """First Riesz mean sum of (z - mu)_+ over the known eigenvalues.

    When s is a Spectrum, z must not exceed its cutoff; otherwise the
    truncated sum would silently undercount.
    """
    if isinstance(s, Spectrum) and z > s.cutoff * (1 + 1e-12) + 1e-12:
        raise SpectrumRangeError(
            f"Riesz mean at z={z} beyond spectrum cutoff {s.cutoff}")
    values = _values_of(s)
    return float(np.clip(z - values, 0.0, None).sum())


def legendre_of_riesz(s, p: float) -> float:
    """sup_z (p z - R1(z)), evaluated over the breakpoint grid z in {mu_j}.

    p z - R1(z) is piecewise linear in z with slope p - N(z), so for
    0 < p <= n the supremum sits at an eigenvalue; it equals the
    interpolated partial sum at order p.
    """
    values = _values_of(s)
    if p < 0 or p > values.size:
        raise SpectrumRangeError(
            f"Legendre order p={p} outside [0, {values.size}]")
    if p == 0:
        return 0.0
    best = -math.inf
    for z in np.unique(values):
        cand = p * z - float(np.clip(z - values, 0.0, None).sum())
        if cand > best:
            best = cand
    return best


def truncated_laplace_transform(s: Spectrum, t: float) -> float:
    """t^2 * integral of exp(-z t) R1(z) over 0 <= z <= cutoff, exactly.

    R1 is piecewise linear with slope N(z) between eigenvalues, so each
    segment integrates in closed form.  The result satisfies

        t^2 int = sum_{mu_j <= Z} exp(-mu_j t)
                  - exp(-Z t) (t R1(Z) + N(Z)),   Z = cutoff,

    which is the truncated Laplace identity linking the Riesz mean to the
    heat trace; the second term decays like exp(-Z t).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    z_end = s.cutoff
    breakpoints = [v for v in np.unique(s.values) if 0.0 < v < z_end]
    nodes = [0.0] + breakpoints + [z_end]
    total = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        r_a = riesz_mean_1(s, a)
        slope = s.counting(a)  # N(z) is constant on (a, b)
        ea, eb = math.exp(-a * t), math.exp(-b * t)
        total += (t * r_a + slope) * (ea - eb) - slope * t * (b - a) * eb
    return total


@dataclass(frozen=True)
class TailModel:
    """Weyl-law counting model N(z) = omega_nu volume / (2 pi)^nu *
    ((z - shift)/w_mean)_+^(nu/2) used to estimate truncated heat-trace
    tails."""

    volume: float
    nu: int
    w_mean: float = 1.0
    shift: float = 0.0

    def counting(self, z: float) -> float:
        base = max(z - self.shift, 0.0) / self.w_mean
        kappa = unit_ball_volume(self.nu) * self.volume / \
            (2.0 * math.pi) ** self.nu
        return kappa * base ** (self.nu / 2.0)

    def tail(self, t: float, cutoff: float) -> float:
        """integral over z > cutoff of exp(-z t) dN(z)."""
        if t <= 0:
            raise ValueError("t must be positive")
        kappa = unit_ball_volume(self.nu) * self.volume / \
            (2.0 * math.pi) ** self.nu
        a = self.nu / 2.0
        x = max(cutoff - self.shift, 0.0) * t
        return kappa * a * (t * self.w_mean) ** (-a) * \
            math.exp(-self.shift * t) * _upper_incomplete_gamma(a, x)


def _upper_incomplete_gamma(a: float, x: float) -> float:
    """Gamma(a, x) for a = nu/2 with nu a positive integer."""
    if x < 0:
        raise ValueError("x must be non-negative")
    twice = round(2 * a)
    if abs(2 * a - twice) > 1e-12 or twice < 1:
        raise ValueError("only integer and half-integer a are supported")
    if twice % 2 == 0:
        # integer a: Gamma(1, x) = e^-x, then recurrence upward
        value = math.exp(-x)
        base = 1.0
    else:
        value = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
        base = 0.5
    while base < a - 1e-12:
        value = base * value + x ** base * math.exp(-x)
        base += 1.0
    return value


@dataclass(frozen=True)
class HeatTraceResult:
    truncated: float
    tail: float

    @property
    def total(self) -> float:
        return self.truncated + self.tail


def heat_trace(spec: Spectrum, t: float,
               tail_model: Optional[TailModel] = None) -> HeatTraceResult:
    """Truncated heat trace sum of exp(-mu t) with an optional Weyl tail.

    The tail integrates the model counting function above the spectrum
    cutoff; it is reported separately and never silently added.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    truncated = float(np.exp(-t * spec.values).sum())
    tail = tail_model.tail(t, spec.cutoff) if tail_model is not None else 0.0
    return HeatTraceResult(truncated, tail)
