"""Spectra and spectral functionals.

A Spectrum is a sorted finite list of eigenvalues complete up to a stated
cutoff.  Exact spectra are provided for Neumann rectangles, flat tori
(through the dual lattice) and round spheres, each level repeated by its
multiplicity, and `shifted_spectrum` maps one to the constant-coefficient
operator; discretized spectra come from the finite-difference solver.  On
top of these live the functionals used by the bounds: partial sums
(linearly interpolated at a real order), the first Riesz mean

    R1(z) = sum over j of (z - mu_j)_+,

and heat traces truncated at the cutoff.  The partial sum at order p is
the Legendre conjugate sup_z (p z - R1(z)), and the heat trace is the
Laplace transform t^2 int exp(-t z) R1(z) dz; the minorants of `bounds`
and `homog` are read through these same two transforms.  No tail beyond
the cutoff is ever estimated: every bound side stays a proven one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .special import Lattice2

__all__ = [
    "Spectrum",
    "SpectrumRangeError",
    "rectangle_neumann_exact",
    "torus_spectrum",
    "sphere_spectrum",
    "shifted_spectrum",
    "riesz_mean_1",
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

    def partial_sum(self, p: float) -> float:
        """Sum of the lowest floor(p) values plus the fractional part of p
        times the next one; the plain partial sum at an integer p."""
        if not 0 <= p <= len(self):
            raise SpectrumRangeError(
                f"partial sum of {p} terms needs {p} eigenvalues, "
                f"have {len(self)}")
        k = int(p)
        total = float(self.values[:k].sum())
        if p > k:
            total += (p - k) * float(self.values[k])
        return total

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "cutoff": self.cutoff,
            "values": [float(v) for v in self.values],
        }


def _snapped(values: Sequence[float]) -> List[float]:
    """The values sorted, each one within _GROUP_RTOL of the first value
    of its level replaced by that first value, so the copies of one level
    agree bit for bit."""
    out: List[float] = []
    for v in sorted(values):
        if out and abs(v - out[-1]) <= _GROUP_RTOL * (1.0 + abs(v)):
            v = out[-1]
        out.append(v)
    return out


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


def torus_spectrum(lattice: Lattice2, cutoff: float) -> Spectrum:
    """Laplacian spectrum of the torus R^2/lattice up to `cutoff`:
    4 pi^2 |xi|^2 over dual vectors xi, each level repeated by its
    multiplicity.  The values enumerated within 1e-12 above the cutoff
    stay in; `shifted_spectrum` drops the ones its image pushes above."""
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
    return Spectrum(np.array(_snapped(values)), cutoff, "exact-torus")


def sphere_spectrum(nu: int, l_max: int) -> Spectrum:
    """Laplacian spectrum of the round unit sphere S^nu through degree l_max:
    l(l+nu-1), repeated by the dimension of the spherical harmonics."""
    if nu < 2:
        raise ValueError("sphere dimension must be at least 2")
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    levels = [float(l * (l + nu - 1)) for l in range(l_max + 1)]
    mults = [math.comb(l + nu, nu) - math.comb(l + nu - 2, nu)
             for l in range(l_max + 1)]
    return Spectrum(np.repeat(levels, mults), levels[-1], "exact-sphere")


def shifted_spectrum(spec: Spectrum, w_mean: float,
                     Vw_mean: float) -> Spectrum:
    """Affine image {Lambda * w_mean + Vw_mean} of spec, keeping the
    values at or below the image of its cutoff."""
    if w_mean <= 0:
        raise ValueError("w_mean must be positive")
    cutoff = w_mean * spec.cutoff + Vw_mean
    values = w_mean * spec.values + Vw_mean
    return Spectrum(values[values <= cutoff], cutoff, spec.source)


def riesz_mean_1(s: Spectrum, z: float) -> float:
    """First Riesz mean sum of (z - mu)_+ over the known eigenvalues.

    z must not exceed the cutoff of s; otherwise the truncated sum would
    silently undercount.
    """
    if z > s.cutoff + 1e-12 * (1.0 + abs(s.cutoff)):
        raise SpectrumRangeError(
            f"Riesz mean at z={z} beyond spectrum cutoff {s.cutoff}")
    return float(np.clip(z - s.values, 0.0, None).sum())


def heat_trace(spec: Spectrum, t: float) -> float:
    """Heat trace truncated at the cutoff: sum of exp(-mu t) over the known
    eigenvalues, a lower bound for the full trace."""
    if t <= 0:
        raise ValueError("t must be positive")
    return float(np.exp(-t * spec.values).sum())
