"""Euclidean domains and midpoint quadrature grids.

Supported domain shapes: axis-aligned boxes, disks, boxes masked by a
level-set predicate (inside where the predicate is negative), and
fundamental domains of 2-D lattices (for periodic problems).  Every domain
is sampled by a tensor midpoint grid; non-box shapes keep the nodes whose
cell centers lie inside, which staircases the boundary at O(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .expressions import ScalarFieldExpr
from .special import Lattice2

__all__ = [
    "Box",
    "Disk",
    "MaskedBox",
    "TorusFundamental",
    "Domain",
    "QuadratureGrid",
    "mean_value",
    "integral_value",
    "domain_volume",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box prod_i [origin_i, origin_i + sides_i]."""

    sides: Tuple[float, ...]
    origin: Tuple[float, ...] = None  # defaults to the zero corner

    def __post_init__(self):
        if self.origin is None:
            object.__setattr__(self, "origin", (0.0,) * len(self.sides))
        if len(self.origin) != len(self.sides):
            raise ValueError("origin and sides must have equal length")
        if any(s <= 0 for s in self.sides):
            raise ValueError("box sides must be positive")

    @property
    def nu(self) -> int:
        return len(self.sides)

    def exact_volume(self) -> Optional[float]:
        return float(np.prod(self.sides))

    def bounding_box(self) -> "Box":
        return self


@dataclass(frozen=True)
class Disk:
    """Planar disk of given radius."""

    radius: float
    center: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")

    @property
    def nu(self) -> int:
        return 2

    def exact_volume(self) -> Optional[float]:
        return float(np.pi * self.radius ** 2)

    def bounding_box(self) -> Box:
        r = self.radius
        return Box((2 * r, 2 * r), (self.center[0] - r, self.center[1] - r))


@dataclass(frozen=True)
class MaskedBox:
    """Box restricted to the region where `inside` evaluates negative."""

    box: Box
    inside: ScalarFieldExpr

    @property
    def nu(self) -> int:
        return self.box.nu

    def exact_volume(self) -> Optional[float]:
        return None  # only known through quadrature

    def bounding_box(self) -> Box:
        return self.box


class TorusFundamental(Lattice2):
    """Fundamental domain of the 2-D lattice spanned by basis rows e1, e2.

    Fields on this domain are understood as lattice-periodic; the solver
    identifies opposite edges.  Non-rectangular bases are supported for
    quadrature (nodes are midpoints in lattice coordinates), while the
    finite-difference path requires an axis-aligned rectangular basis.
    The domain is its lattice, so `torus_spectrum` takes it as it is.
    """

    @property
    def nu(self) -> int:
        return 2

    def exact_volume(self) -> Optional[float]:
        return self.covolume()

    def is_rectangular(self) -> bool:
        return self.e1[1] == 0.0 and self.e2[0] == 0.0 and \
            self.e1[0] > 0 and self.e2[1] > 0

    def bounding_box(self) -> Box:
        if not self.is_rectangular():
            raise ValueError("bounding box only defined for rectangular bases")
        return Box((self.e1[0], self.e2[1]))


Domain = Union[Box, Disk, MaskedBox, TorusFundamental]


class QuadratureGrid:
    """Tensor midpoint grid over a domain with an inside mask.

    Attributes
    ----------
    domain : Domain
    shape : tuple of int, nodes per axis
    axes : tuple of 1-D arrays with the midpoint coordinates per axis
        (lattice coordinates in [0,1) for a non-rectangular torus)
    spacing : tuple of float, grid step per axis
    mask : bool array of `shape`, True at nodes inside the domain
    cell_volume : float, volume assigned to one node
    periodic : bool, True when opposite faces are identified
    """

    def __init__(self, domain: Domain, n: Union[int, Sequence[int]]):
        nu = domain.nu
        if isinstance(n, int):
            counts = (n,) * nu
        else:
            counts = tuple(int(v) for v in n)
        if len(counts) != nu or any(c < 2 for c in counts):
            raise ValueError(f"need at least 2 nodes per axis, got {counts}")

        self.domain = domain
        self.shape = counts
        self.nu = nu
        self.periodic = isinstance(domain, TorusFundamental)

        if isinstance(domain, TorusFundamental) and not domain.is_rectangular():
            # midpoints in lattice coordinates; physical coords via the basis
            self.axes = tuple((np.arange(c) + 0.5) / c for c in counts)
            self.spacing = tuple(1.0 / c for c in counts)
            self.cell_volume = abs(domain.det()) / int(np.prod(counts))
            self._skew = True
        else:
            box = domain.bounding_box()
            self.axes = tuple(
                box.origin[i] + (np.arange(counts[i]) + 0.5) *
                (box.sides[i] / counts[i]) for i in range(nu))
            self.spacing = tuple(box.sides[i] / counts[i] for i in range(nu))
            self.cell_volume = float(np.prod(self.spacing))
            self._skew = False

        self.mask = self._build_mask()
        if not self.mask.any():
            raise ValueError("no grid node falls inside the domain")

    def coords(self) -> Tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays broadcasting to `shape`."""
        if self._skew:
            s, u = np.meshgrid(*self.axes, indexing="ij")
            d = self.domain
            x = s * d.e1[0] + u * d.e2[0]
            y = s * d.e1[1] + u * d.e2[1]
            return (x, y)
        grids = np.meshgrid(*self.axes, indexing="ij", sparse=True)
        return tuple(grids)

    def evaluate(self, f: ScalarFieldExpr) -> np.ndarray:
        """Field values at every node of the full tensor grid."""
        out = np.asarray(f.evaluate(self.coords()), dtype=float)
        return np.broadcast_to(out, self.shape)

    def _build_mask(self) -> np.ndarray:
        d = self.domain
        if isinstance(d, (Box, TorusFundamental)):
            return np.ones(self.shape, dtype=bool)
        if isinstance(d, Disk):
            x, y = self.coords()
            r2 = (np.asarray(x) - d.center[0]) ** 2 + \
                 (np.asarray(y) - d.center[1]) ** 2
            return np.broadcast_to(r2 <= d.radius ** 2, self.shape).copy()
        if isinstance(d, MaskedBox):
            values = self.evaluate(d.inside)
            return (values < 0.0).copy()
        raise TypeError(f"unsupported domain {type(d).__name__}")

    def measure(self) -> float:
        """Quadrature volume: cell volume times the number of inside nodes."""
        return float(self.mask.sum()) * self.cell_volume

    def inside_values(self, f: ScalarFieldExpr) -> np.ndarray:
        """Field values flattened over the inside nodes."""
        return self.evaluate(f)[self.mask]


def mean_value(f: ScalarFieldExpr, grid: QuadratureGrid) -> float:
    """Mean of f over the domain w.r.t. the midpoint quadrature.

    Normalized by the quadrature measure, so f = 1 gives exactly 1 on every
    domain variant.
    """
    vals = grid.inside_values(f)
    return float(vals.sum() / vals.size)


def integral_value(f: ScalarFieldExpr, grid: QuadratureGrid) -> float:
    """Quadrature integral of f over the domain."""
    return float(grid.inside_values(f).sum() * grid.cell_volume)


def domain_volume(domain: Domain, grid: Optional[QuadratureGrid] = None) -> float:
    """|Omega|: exact where a closed form exists, quadrature otherwise."""
    exact = domain.exact_volume()
    if exact is not None:
        return exact
    if grid is None:
        raise ValueError(
            f"{type(domain).__name__} volume requires a quadrature grid")
    return grid.measure()
