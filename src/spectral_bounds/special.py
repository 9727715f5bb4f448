"""Special functions and 2-D lattice sums.

Self-contained implementations (no special-function library at runtime):
Bessel J of real order via ascending series for small argument and Miller
backward recurrence above, its first positive zero by bracketed bisection,
unit-ball volumes, and heat-kernel style lattice sums, including the
hexagonal theta function

    Theta(t) = (1/(4 pi t)) * sum over (p, q) in Z^2 of
               exp(-(p^2 + q^2 + p q)/(4 t)).

Among lattices of fixed covolume the hexagonal one minimizes the Gaussian
lattice sum at every scale, which makes Theta the extremal comparison
profile for periodic heat traces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "unit_ball_volume",
    "bessel_j",
    "bessel_first_zero",
    "Lattice2",
    "hex_theta",
    "lattice_heat_trace",
    "hex_heat_floor",
]

_SERIES_CUTOFF = 12.0
_SHELL_TOL = 1e-15
_ZERO_TOL = 1e-10        # bisection tolerance of bessel_first_zero


def unit_ball_volume(nu: int) -> float:
    """Volume of the unit ball in R^nu."""
    if nu < 1:
        raise ValueError("dimension must be at least 1")
    return math.pi ** (nu / 2.0) / math.gamma(nu / 2.0 + 1.0)


def _bessel_series(p: float, x: float) -> float:
    # ascending series sum_m (-1)^m (x/2)^(2m+p) / (m! Gamma(m+p+1))
    half = x / 2.0
    if half == 0.0:
        return 1.0 if p == 0.0 else 0.0
    term = math.exp(p * math.log(half) - math.lgamma(p + 1.0))
    total = term
    q = half * half
    for m in range(1, 400):
        term *= -q / (m * (m + p))
        total += term
        if abs(term) <= 1e-18 * abs(total) + 1e-300:
            return total
    raise ArithmeticError(f"Bessel series failed to converge at x={x}")


def _bessel_miller(p: float, x: float) -> float:
    # backward recurrence J_{q-1} = (2q/x) J_q - J_{q+1}, normalized by
    # (x/2)^f = sum_k (f+2k) Gamma(f+k)/k! J_{f+2k}  (f = frac part of p),
    # or by J_0 + 2 sum J_{2k} = 1 when p is an integer.
    n_int = int(math.floor(p + 0.5)) if abs(p - round(p)) < 1e-12 else None
    frac = 0.0 if n_int is not None else p - math.floor(p)
    steps = int(max(x, p) * 1.12 + 52)
    # orders run over q = frac + j, j = steps .. 0
    jp = 0.0
    upper = 0.0
    current = 1e-30
    norm = 0.0
    target_j = n_int if n_int is not None else int(math.floor(p))
    for j in range(steps, -1, -1):
        q = frac + j
        prev = (2.0 * (q + 1.0) / x) * current - upper
        upper, current = current, prev
        # `current` now holds \hat J at order q
        if j == target_j:
            jp = current
        if j % 2 == 0:
            k = j // 2
            if n_int is not None:
                norm += current if k == 0 else 2.0 * current
            else:
                a = (frac + 2.0 * k) * math.exp(
                    math.lgamma(frac + k) - math.lgamma(k + 1.0))
                norm += a * current
        if abs(current) > 1e150:
            current /= 1e150
            upper /= 1e150
            norm /= 1e150
            jp /= 1e150
    if n_int is not None:
        return jp / norm
    scale = math.exp(frac * math.log(x / 2.0))
    return jp * scale / norm


def bessel_j(p: float, x: float) -> float:
    """Bessel function of the first kind of real order p >= 0 at x >= 0."""
    if p < 0 or x < 0:
        raise ValueError("bessel_j requires p >= 0 and x >= 0")
    if x <= _SERIES_CUTOFF:
        return _bessel_series(p, x)
    return _bessel_miller(p, x)


@functools.lru_cache(maxsize=64)
def bessel_first_zero(p: float) -> float:
    """First positive zero of J_p for p = -1/2 or 0 <= p <= 50.

    J_(-1/2)(x) = sqrt(2/(pi x)) cos x, the order nu/2 - 1 of nu = 1, first
    vanishes at pi/2.  Otherwise the zero lies in [max(p, 1),
    p + 3 p^(1/3) + 3]; the interval is scanned for the first sign change
    and the change is bisected to _ZERO_TOL.  Each call costs a few
    hundred Bessel series, so the zeros are kept per order.
    """
    if p == -0.5:
        return 0.5 * math.pi
    if not 0.0 <= p <= 50.0:
        raise ValueError("order must be -1/2 or lie in [0, 50]")
    lo = max(p, 1.0)
    hi = p + 3.0 * p ** (1.0 / 3.0) + 3.0
    samples = 256
    a, fa = lo, bessel_j(p, lo)
    for i in range(1, samples + 1):
        b = lo + (hi - lo) * i / samples
        fb = bessel_j(p, b)
        if fa == 0.0:
            return a
        if fa * fb < 0.0:
            break
        a, fa = b, fb
    else:
        raise ArithmeticError(f"no sign change of J_{p} in [{lo}, {hi}]")
    while b - a > _ZERO_TOL * 0.25:
        mid = 0.5 * (a + b)
        fm = bessel_j(p, mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


@dataclass(frozen=True)
class Lattice2:
    """Full-rank lattice in R^2 spanned by basis vectors e1, e2."""

    e1: Tuple[float, float]
    e2: Tuple[float, float]

    def __post_init__(self):
        # the dual's covolume is the inverse, so it is in range too
        covolume = abs(self.det())
        if not 1e-300 <= covolume <= 1e300:
            raise ValueError(f"lattice basis is singular or too large: "
                             f"covolume {covolume:.3g} is outside "
                             "[1e-300, 1e300]")

    def det(self) -> float:
        return self.e1[0] * self.e2[1] - self.e1[1] * self.e2[0]

    def covolume(self) -> float:
        return abs(self.det())

    def dual(self) -> "Lattice2":
        """Dual basis with e_i . e*_j = delta_ij."""
        d = self.det()
        f1 = (self.e2[1] / d, -self.e2[0] / d)
        f2 = (-self.e1[1] / d, self.e1[0] / d)
        return Lattice2(f1, f2)

    def min_singular_value(self) -> float:
        # smallest singular value of the basis matrix, a lower bound for
        # |m e1 + n e2| / |(m, n)|
        a, b = self.e1
        c, d = self.e2
        s = a * a + b * b + c * c + d * d
        det = self.det()
        disc = math.sqrt(max(s * s - 4.0 * det * det, 0.0))
        return math.sqrt(max((s - disc) / 2.0, 0.0))

    def gaussian_sum(self, alpha: float) -> float:
        """sum over lattice vectors v of exp(-alpha |v|^2), alpha > 0."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        sig = self.min_singular_value()
        total = 1.0  # the origin
        s = 1
        while True:
            shell = 0.0
            for m, n in _square_shell(s):
                vx = m * self.e1[0] + n * self.e2[0]
                vy = m * self.e1[1] + n * self.e2[1]
                shell += math.exp(-alpha * (vx * vx + vy * vy))
            total += shell
            # every vector on later shells is at least sig*(s+1) long
            bound = 8 * (s + 1) * math.exp(-alpha * (sig * (s + 1)) ** 2)
            if bound < _SHELL_TOL * total and shell < _SHELL_TOL * total:
                return total
            s += 1
            if s > 20000:
                raise ArithmeticError("lattice sum failed to converge")


def _square_shell(s: int):
    """Integer pairs with max(|m|, |n|) == s."""
    for m in range(-s, s + 1):
        yield m, s
        yield m, -s
    for n in range(-s + 1, s):
        yield s, n
        yield -s, n


def hex_theta(t: float) -> float:
    """The hexagonal theta profile Theta(t); tends to 2/sqrt(3) as t grows."""
    if t <= 0:
        raise ValueError("t must be positive")
    hex_lattice = Lattice2((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))
    return hex_lattice.gaussian_sum(1.0 / (4.0 * t)) / (4.0 * math.pi * t)


def lattice_heat_trace(lattice: Lattice2, t: float) -> float:
    """sum over dual vectors xi of exp(-4 pi^2 |xi|^2 t).

    This is the heat trace of the Laplacian on the torus R^2 / lattice.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    return lattice.dual().gaussian_sum(4.0 * math.pi ** 2 * t)


def hex_heat_floor(t: float, covolume: float) -> float:
    """Sharp lower bound for lattice_heat_trace over lattices of the given
    covolume; equality holds exactly for the hexagonal lattice.

    Rescaling the extremal (covolume sqrt(3)/2) hexagonal profile to the
    requested covolume gives (sqrt(3)/2) * Theta(sqrt(3) t / (2 covolume)).
    """
    if covolume <= 0:
        raise ValueError("covolume must be positive")
    root3 = math.sqrt(3.0)
    return (root3 / 2.0) * hex_theta(root3 * t / (2.0 * covolume))
