"""Finite-difference discretization of the weighted Neumann form.

The quadratic form

    Q(phi) = integral (|grad phi|^2 + V phi^2) w e^(-2 rho)
    m(phi) = integral phi^2 e^(-2 rho)

is discretized on the cell-centered midpoint grid with a flux stencil:
each interior face contributes (w e^(-2 rho))(face midpoint) * cellvol/h^2
times the squared difference across it, each node a potential and a mass
term.  Faces with an endpoint outside the mask are simply absent, which is
the natural (Neumann) boundary condition.  A periodic axis (a rectangular
torus fundamental domain) gets a seam face, whose fields are read at the
left edge.  This is not a Rayleigh-Ritz discretization, and min-max gives
no one-sided bound: the cell-centred stencil lowers Neumann values (on
the unit interval 4n^2 sin^2(pi m/2n) < (pi m)^2), so on a box fd values
lie below the exact ones.  A verdict from an fd spectrum carries that
discretization error.

The default solve (`_lowest_pairs`) peels an axis along which the form
factors (`_peel`: "peeled", or "separable" when every block is a closed
form).  Else, up to _DENSE_DEFAULT_DOF dof or for all pairs, it splits a
form that is its own mirror image into an even and an odd block
(`_mirror_halves`: "mirrored") or solves it by numpy's dense `eigh`
("dense"), and above that by sparse shift-invert ("iterative").  A pinned
method solves the whole form.  A split accepts an entry within
_FACTOR_RTOL of its factored or mirrored value, so every pair must pass
one residual gate, ||K x - mu M x|| / ||x|| <= 1e-8 (a NaN fails),
through the stencil of the assembled form.  The gate takes the pairs in
cache-sized blocks of contiguous rows, one per pair, and applies each
Neumann axis as one shift by its stride over the flat grid
(`DiscreteForm._apply_rows`), in three buffers reused block to block.

Assembly reads w, rho and V by `QuadratureGrid.sample` alone: on a full
box or torus in the shape they vary in, so no coordinate is gathered and
an axis along which no sample varies repeats with no slice compared; on
a masked grid at the inside nodes and faces only.  The form holds the
stencil itself, not a matrix: the nodal potential, the face coefficients
per axis and the nodal mass, each on the whole grid with 0 outside.
`DiscreteForm._scaled` is the one builder of matrix entries: dense
`eigh`, shift-invert's A - sigma I, with A = M^(-1/2) K M^(-1/2), and the
CSR `DiscreteForm.stiffness`.  scipy loads only on the shift-invert path
or on a read of `stiffness`: an exact-source, separable, dense, mirrored
or densely peeled run never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from typing import (TYPE_CHECKING, Dict, Iterator, Optional, Sequence,
                    Tuple)

import numpy as np

from .domains import QuadratureGrid, TorusFundamental
from .problem import ProblemSpec
from .spectra import Spectrum

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "DiscreteForm",
    "SolveResult",
    "SolverConvergenceError",
    "assemble",
    "solve_lowest",
    "solve_lowest_detailed",
]


_MAX_DENSE_DOF = 6400   # most dof of a dense or an all-pairs solve
# most dof the default solves by dense `eigh`.  With one BLAS thread, eigh
# took 0.26 s at 1024 dof and 0.47 s at 1296; importing scipy.sparse and
# scipy.sparse.linalg for shift-invert took 0.29 s, and the solve itself
# about 0.02 s more.
_DENSE_DEFAULT_DOF = 1024
# most entries (512 KiB of doubles) per column block of the residual gate
_GATE_BLOCK = 1 << 16
# largest residual the gate accepts
_RESIDUAL_TOL = 1e-8
# relative distance at which an entry still counts as factored.  Each
# entry rounds exp(-2 rho) of a summed exponent, so the distance grows
# with |rho|: a Gaussian rho = |x|^2/2 was within 4.7 eps on [-1,1]^2 at
# 160^2, 5.5 eps on [-1,1]^3 at 24^3 and 11 eps on [-2,2]^2, and 17 eps
# on [-2,2]^3, which is solved whole.  Forms that do not factor were O(1)
# away.  The residual gate certifies the pairs either way.
_FACTOR_RTOL = 16 * np.finfo(float).eps
# fewest dof of a half that a mirror-symmetric form is split into.  With
# one BLAS thread, dense eigh took 0.7 ms at 64 dof and the split 1.1 ms;
# at 144 dof the split won, 1.6 ms against 1.9
_MIRROR_MIN_DOF = 64

# the parts of an axis that face pairs join: interior faces (node i to
# i+1), then the seam (last node to first) of a periodic axis
_INTERIOR = (slice(None, -1), slice(1, None))
_SEAM = (slice(-1, None), slice(None, 1))


def _along(axis: int, nu: int, part) -> Tuple:
    """Index taking `part` (a slice or a node) along `axis` and all of
    every other axis."""
    return tuple(part if b == axis else slice(None) for b in range(nu))


def _face_parts(nu: int, periodic: bool
                ) -> Iterator[Tuple[int, bool, Tuple, Tuple]]:
    """(axis, seam, lower-end index, upper-end index) for each part of the
    faces: per axis the interior faces, then the seam when periodic."""
    for axis in range(nu):
        for seam in (False, True)[:1 + periodic]:
            lower, upper = _SEAM if seam else _INTERIOR
            yield (axis, seam, _along(axis, nu, lower),
                   _along(axis, nu, upper))


def _on_grid(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`values` of the inside nodes placed on the grid of `mask`, 0
    outside; axes of `values` after the first trail the grid's.  On a full
    mask that is `values` reshaped: a view where numpy can give one, so a
    constant broadcast to the grid stays one number."""
    shape = mask.shape + values.shape[1:]
    if len(values) == mask.size:
        return values.reshape(shape)
    grid = np.zeros(shape)
    grid[mask] = values
    return grid


def _within(x: np.ndarray, y: np.ndarray, tol) -> bool:
    """Whether x lies within tol of y everywhere (a NaN lies nowhere)."""
    return bool((np.abs(x - y) <= tol).all())


class SolverConvergenceError(RuntimeError):
    """Raised when an eigenpair misses the residual tolerance."""


@dataclass
class DiscreteForm:
    """The flux stencil of the generalized problem K x = mu M x.

    Every array has the grid's shape and is 0 outside the mask; on a full
    grid the potential and the mass can be read-only broadcast views.
    `faces[axis]` at node i along `axis` is the coefficient of the face to
    node i+1, or of the seam to node 0 when i is the last node of a
    periodic axis; it is 0 where that face is absent.  K x = diagonal x -
    sum over faces of c times the neighbour, where the diagonal is the
    nodal potential plus the node's faces."""

    potential: np.ndarray      # V w e^(-2 rho) cellvol per node
    faces: Tuple[np.ndarray, ...]
    mass_diag: np.ndarray      # e^(-2 rho) cellvol per node
    potential_floor: float     # min nodal V*w, a lower bound for the spectrum
    mask: np.ndarray           # the grid's inside nodes
    periodic: bool
    # the axes along which the form factors: None where it repeats
    # exactly, else (g, b), its mass ratio per slice and its face ratio
    # per face (0 at the absent last face of a Neumann axis), followed in
    # a peel's blocks by the 1-D stencil's pairs that `_peel` solved
    factors: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = \
        field(default_factory=dict)

    @cached_property
    def dof_count(self) -> int:
        return int(self.mask.sum())

    @cached_property
    def zero_potential(self) -> bool:
        """Whether the nodal potential vanishes, so K annihilates constants."""
        return not self.potential.any()

    @cached_property
    def diagonal(self) -> np.ndarray:
        """K's diagonal: the potential, then each face at its lower and at
        its upper end, part by part.  That is the order in which scipy sums
        the same entries given as a COO list, so `stiffness` equals that
        matrix bit for bit and shift-invert spectra do not move in the last
        digits."""
        d = self.potential.copy()
        for axis, _, lo, hi in _face_parts(self.mask.ndim, self.periodic):
            c = self.faces[axis][lo]
            d[lo] += c
            d[hi] += c
        return d[self.mask]

    @cached_property
    def _inside(self) -> np.ndarray:
        """The flat grid index of each inside node."""
        return np.flatnonzero(self.mask)

    @cached_property
    def _node(self) -> np.ndarray:
        """Per grid node its inside-node index, dof_count when outside."""
        node = np.full(self.mask.size, self.dof_count)
        node[self._inside] = np.arange(self.dof_count)
        return node

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """K x for x of shape (dof,) or (dof, m)."""
        u = np.ascontiguousarray(x.reshape(len(x), -1).T)
        work = np.empty((3, len(u), self.mask.size))
        return self._apply_rows(u, work).T.reshape(x.shape)

    def _apply_rows(self, u: np.ndarray, work: np.ndarray) -> np.ndarray:
        """K applied to each row of u, a C-contiguous (m, dof), made in
        `work`: three buffers of at least m rows of the grid's size, which
        a caller applying K block by block reuses.  The result is a view
        of work[0], and work[1:] are free.

        Each row is placed on the flat grid (0 outside the mask; on a full
        grid the row is the grid, in C order).  The neighbour terms along
        a Neumann axis are then one shift by the axis's stride over the
        flat grid, a product over contiguous memory however few the rows:
        the face coefficient is 0 at the axis's last node, so a shift
        across the end of a grid line adds exactly 0, and each entry sums
        the terms of the grid-shaped stencil in the same order, to the
        same bits but for the sign of a zero: the first axis writes its
        product rather than adding it to 0.  A periodic axis holds its
        seam coefficient at the last node, so a torus takes grid-shaped
        slices."""
        mask, m, dof = self.mask, len(u), self.dof_count
        grid, off, term = work[:, :m]
        if dof < mask.size:
            # gathering from u padded by a 0 is faster than a scatter
            padded = term[:, :dof + 1]
            padded[:, :-1] = u
            padded[:, -1] = 0.0
            np.take(padded, self._node, axis=1, out=grid, mode="clip")
        else:
            grid = u
        if self.periodic:
            off[...] = 0.0
            cells, sums = (a.reshape((m,) + mask.shape) for a in (grid, off))
            for axis, _, lo, hi in _face_parts(mask.ndim, True):
                c = self.faces[axis][lo]
                lo, hi = (Ellipsis,) + lo, (Ellipsis,) + hi
                sums[lo] += c * cells[hi]
                sums[hi] += c * cells[lo]
        else:
            stride = mask.size
            for axis, n in enumerate(mask.shape):
                stride //= n
                c = self.faces[axis].reshape(-1)[:-stride]
                t = term[:, :-stride]
                if axis:
                    np.multiply(grid[:, stride:], c, out=t)
                    off[:, :-stride] += t
                else:
                    # 0 + t would differ from t only in the sign of a zero
                    np.multiply(grid[:, stride:], c, out=off[:, :-stride])
                    off[:, -stride:] = 0.0
                np.multiply(grid[:, :-stride], c, out=t)
                off[:, stride:] += t
        # contiguous (m, dof) views, not strided rows of grid-sized ones
        kx, du = (w.reshape(-1)[:u.size].reshape(u.shape) for w in work[::2])
        if dof < mask.size:
            np.take(off, self._inside, axis=1, out=kx, mode="clip")
            off = kx
        np.multiply(u, self.diagonal, out=du)
        return np.subtract(du, off, out=kx)

    def _scaled(self, d: np.ndarray, shift: float) -> Tuple:
        """d K d - shift I for diagonal d as (entries, (rows, cols)): the
        diagonal, then each present face at (lower, upper) end and at
        (upper, lower), part by part, each entry rounded as diags(d) @ K @
        diags(d) rounds it, (d_i K_ij) d_j.  For d of ones and no shift it
        is K itself, bit for bit."""
        node = self._node.reshape(self.mask.shape)
        parts = []
        for axis, _, lo, hi in _face_parts(self.mask.ndim, self.periodic):
            both = self.mask[lo] & self.mask[hi]
            parts.append((node[lo][both], node[hi][both],
                          self.faces[axis][lo][both]))
        p, q, c = (np.concatenate(a) for a in zip(*parts))
        entries = np.concatenate((d * self.diagonal * d - shift,
                                  d[p] * -c * d[q], d[q] * -c * d[p]))
        if not np.isfinite(entries).all():
            # finite K and M can still overflow in M^(-1/2) K M^(-1/2)
            raise ValueError(
                f"mass-scaled operator overflows on grid {self.mask.shape}")
        node = np.arange(self.dof_count)
        return entries, (np.concatenate((node, p, q)),
                         np.concatenate((node, q, p)))

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """K as a CSR matrix, built by `_scaled` on first read.  The solver
        does not read it."""
        import scipy.sparse as sp
        n = self.dof_count
        return sp.coo_matrix(self._scaled(np.ones(n), 0.0),
                             shape=(n, n)).tocsr()

    def block(self, axis: int, level: float) -> DiscreteForm:
        """The form on slice 0 across a factored `axis` for the mode of
        its 1-D stencil with value `level`: the faces along `axis` become
        `level` times their coefficient on the diagonal.  The form factors
        along its other axes as it did, with the same g and b."""
        first = _along(axis, self.mask.ndim, 0)
        return replace(
            self,
            potential=self.potential[first] + level * self.faces[axis][first],
            faces=tuple(c[first] for b, c in enumerate(self.faces)
                        if b != axis),
            mass_diag=self.mass_diag[first],
            mask=np.asarray(self.mask[first]),
            factors={b - (b > axis): f for b, f in self.factors.items()
                     if b != axis})


@dataclass
class SolveResult:
    spectrum: Spectrum
    vectors: np.ndarray        # columns are eigenvectors of K x = mu M x
    residuals: np.ndarray      # ||K x - mu M x|| / ||x|| per pair
    method: str


def assemble(problem: ProblemSpec, grid: QuadratureGrid) -> DiscreteForm:
    """Build the stiffness stencil and the mass for a problem on a grid."""
    if isinstance(grid.domain, TorusFundamental) and \
            not grid.domain.is_rectangular():
        raise NotImplementedError(
            "periodic assembly needs a rectangular fundamental domain")
    if min(grid.shape) < 8:
        raise ValueError(
            f"grid too coarse for assembly: {grid.shape} (need >= 8 per axis)")

    nu, cellvol, mask = grid.nu, grid.cell_volume, grid.mask
    # the axes along which some sample varies: on a full grid a field that
    # keeps length 1 along an axis does not depend on it
    varies = set()

    def flat(x, shape):
        # the values at points of `shape` in C order, as a gather reads them
        return np.broadcast_to(x, shape).reshape(-1) if grid.full else x

    def sample(part, shape, *fields):
        """w and `fields` as the grid samples them at the nodes (part ()) or
        at a part (axis, seam) of the faces, which has `shape` on the grid;
        a w that is not positive is refused once all have evaluated."""
        values = [grid.sample(f, *part) for f in (problem.w,) + fields]
        if np.any(values[0] <= 0):
            # the order of the values sets the sign of a zero minimum
            low = values[0].min() or flat(values[0], shape).min()
            raise ValueError(f"weight must be positive; sampled minimum {low}")
        varies.update(a for v in values for a in range(v.ndim)
                      if v.shape[a] > 1)
        return values

    w_n, rho_n, v_n = sample((), grid.shape, problem.rho, problem.V)
    dens_n = np.exp(-2.0 * rho_n)
    mass = dens_n * cellvol

    faces = tuple(np.zeros(grid.shape) for _ in range(nu))
    for axis, seam, lo, hi in _face_parts(nu, grid.periodic):
        h = grid.spacing[axis]
        c = faces[axis][lo]     # a view: writes land in faces[axis]
        w_f, rho_f = sample((axis, seam), c.shape, problem.rho)
        c[... if grid.full else mask[lo] & mask[hi]] = \
            w_f * np.exp(-2.0 * rho_f) * cellvol / h / h

    vw = v_n * w_n
    form = DiscreteForm(
        potential=_on_grid(mask, flat(vw * dens_n * cellvol, grid.shape)),
        faces=faces,
        mass_diag=_on_grid(mask, flat(mass, grid.shape)),
        potential_floor=float(vw.min() or flat(vw, grid.shape).min()),
        mask=mask,
        periodic=grid.periodic,
    )
    if not (np.isfinite(form.diagonal).all() and
            all(np.isfinite(c).all() for c in faces) and
            np.isfinite(mass).all() and mass.min() > 0.0):
        raise ValueError(
            f"operator entries overflow or underflow on grid {grid.shape}")
    # along an axis no sample varies on, a full grid's entries all repeat
    form.factors = _factors(form, repeating=() if not grid.full else
                            set(range(nu)) - varies)
    return form


def _factors(form: DiscreteForm, repeating=()
             ) -> Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The axes along which the form factors, each with None when it
    repeats exactly, else (g, b): per slice a median over its inside
    nodes of the ratio to slice 0, which no one node's rounding sets.  An
    axis factors when the mask repeats along it, g and every present b
    are finite and positive, and every entry lies within _FACTOR_RTOL of
    its factored value.  Ratios that are all 1 must hold exactly, which
    is the repeat; the summed diagonal can differ along such an axis in
    the last bit, so it is not read.  The axes `repeating`, along which the
    caller knows the mask and every entry to repeat, are not compared."""
    mask = form.mask
    nu = mask.ndim
    if set(range(nu)) <= set(repeating):
        return dict.fromkeys(range(nu))
    factors = {}
    # a slice ratio can overflow where the mass does not: that axis
    # simply does not factor
    with np.errstate(all="ignore"):
        for axis in range(nu):
            if axis in repeating:
                factors[axis] = None
                continue
            first = _along(axis, nu, slice(0, 1))
            if not (mask == mask[first]).all():
                continue
            inside = np.moveaxis(mask, axis, 0)[0]
            middle = (int(inside.sum()) - 1) // 2
            shape = tuple(-1 if d == axis else 1 for d in range(nu))
            along = form.faces[axis]

            def median(x, stop=None):
                """The ratios, and the number of leading slices found
                equal to slice 0, which fits need not compare again."""
                x = x[_along(axis, nu, slice(stop))]
                if (x == x[first]).all():    # the median, with no sort
                    return np.ones(x.shape[axis]), x.shape[axis]
                r = np.moveaxis(x / x[first], axis, 0)[:, inside]
                return np.partition(r, middle, axis=1)[:, middle], 0

            # a Neumann axis has no face from its last slice
            present, faces_equal = median(
                along, None if form.periodic else -1)
            g, mass_equal = median(form.mass_diag)
            b = np.append(present, [0.0][form.periodic:])
            if not (np.isfinite(g).all() and g.min() > 0.0 and
                    np.isfinite(present).all() and present.min() > 0.0):
                continue
            repeats = bool((g == 1.0).all() and (present == 1.0).all())

            def fits(x, ratio, equal=0):
                # a slice equal to slice 0 has the ratio 1 there, so it
                # matches its factored value exactly and within tolerance
                factored = ratio[equal:].reshape(shape) * x[first]
                x = x[_along(axis, nu, slice(equal, None))]
                if repeats:
                    return bool((x == factored).all())
                return _within(x, factored, _FACTOR_RTOL * np.abs(x))

            # the potential and the faces tell most forms apart, so they
            # go first
            checks = [(form.potential, g, 0)] + \
                [(c, g, 0) for a, c in enumerate(form.faces) if a != axis] + \
                [(along, b, faces_equal), (form.mass_diag, g, mass_equal)]
            if all(fits(*check) for check in checks):
                factors[axis] = None if repeats else (g, b)
    return factors


def _snap_zeros(values: np.ndarray, zero_potential: bool) -> np.ndarray:
    if not zero_potential or values.size == 0:
        return values
    scale = 1e-8 * (1.0 + abs(float(values[-1])))
    snapped = values.copy()
    snapped[np.abs(snapped) < scale] = 0.0
    return np.sort(snapped)


def _axis_pairs(n: int, periodic: bool, count: int):
    """The count lowest pairs of the unit 1-D stencil on n nodes:
    ascending values and unit eigenvectors as columns."""
    m = np.arange(count)
    # periodic: the constant, then sin and cos of each frequency in turn
    wave = 2 * ((m + 1) // 2) if periodic else m
    angle = (math.pi / n) * (np.arange(n)[:, None] + 0.5) * wave
    vectors = np.where(periodic & (m % 2 == 1), np.sin(angle), np.cos(angle))
    values = 4.0 * np.sin(math.pi * wave / (2 * n)) ** 2
    return values, vectors / np.linalg.norm(vectors, axis=0)


def _axis_modes(form: DiscreteForm, axis: int, count: int):
    """The count lowest pairs (z_m, v) of the 1-D stencil along a factored
    `axis`, with v^T G v = 1: the unit stencil's closed form where the
    form repeats, else the stencil with faces b and mass g, by the
    default rule (which does not peel a 1-D form's factored axis)."""
    n = form.mask.shape[axis]
    factor = form.factors[axis]
    if factor is None:
        return _axis_pairs(n, form.periodic, count)
    g, b, *solved = factor
    if solved:    # by the peel whose blocks share these factors
        return solved[0][:count], solved[1][:, :count]
    stencil = DiscreteForm(
        potential=np.zeros(n), faces=(b,), mass_diag=g, potential_floor=0.0,
        mask=np.ones(n, dtype=bool), periodic=form.periodic)
    return _lowest_pairs(stencil, count)[:2]


def _peel_axis(form: DiscreteForm) -> Optional[int]:
    """The axis to peel: the last along which the form repeats (its modes
    are in closed form), else the last along which it factors while
    another axis remains (a 1-D form's own stencil is the problem itself);
    None when there is none."""
    repeats = [a for a, f in form.factors.items() if f is None]
    if repeats:
        return repeats[-1]
    if form.mask.ndim > 1 and form.factors:
        return max(form.factors)
    return None


def _peel(form: DiscreteForm, k: int, axis: int):
    """The peel along a factored `axis`: a block per mode of the 1-D
    stencil along it, the twin of an equal level being the block before
    again, or block 0 with shifts when C_a/M_rest is one number.  The
    blocks share block 0's factors, so the stencil of the axis they peel
    next is solved once, here.  A pair (u, m) lifts to u (x) v_m."""
    n = form.mask.shape[axis]
    rest = form.block(axis, 0.0)
    along = form.faces[axis][_along(axis, form.mask.ndim, 0)]
    ratio = along[rest.mask] / rest.mass_diag[rest.mask]
    if not np.isfinite(ratio).all():
        # finite K and M can still overflow in K/M, as on the other paths
        raise ValueError(
            f"mass-scaled operator overflows on grid {form.mask.shape}")
    levels, v = _axis_modes(form, axis, min(k, n))
    inner = _peel_axis(rest)
    if rest.factors.get(inner) is not None:
        rest.factors[inner] += _axis_modes(
            rest, inner, min(k, rest.mask.shape[inner]))
    shape = [-1] + [1] * form.mask.ndim
    shape[1 + axis] = n

    def lift(u, modes):
        # in C order, as the gather takes it, with no copy of the product
        return np.multiply(np.expand_dims(np.moveaxis(u, -1, 0), 1 + axis),
                           v[:, modes].T.reshape(shape), order="C")

    if ratio.min() == ratio.max():
        return [(None, lambda: rest, levels * ratio[0])], lift
    step = float(ratio.min())
    return [(None, lambda: rest, None)] + [
        ((level - low) * step, None if level == low else
         lambda level=level: replace(rest, potential=rest.potential +
                                     level * along), None)
        for low, level in zip(levels, levels[1:])], lift


def _reflect(x: np.ndarray, refl, lead: int = 0) -> np.ndarray:
    """The mirror image of x, whose grid axes follow its first `lead`,
    under `refl`: an axis (node i to n-1-i) or a pair of swapped axes."""
    if isinstance(refl, tuple):
        return np.swapaxes(x, lead + refl[0], lead + refl[1])
    return np.flip(x, lead + refl)


def _reflect_faces(faces: Sequence[np.ndarray], refl) -> Tuple:
    """The faces of the mirror image: face i along a flipped axis joins
    nodes i and i+1, so its image is face n-2-i; swapped axes trade."""
    swap = dict([refl, refl[::-1]]) if isinstance(refl, tuple) else {}
    return tuple(np.roll(_reflect(faces[swap.get(d, d)], refl),
                         -(d == refl), d) for d in range(len(faces)))


def _mirror_axis(form: DiscreteForm):
    """The first reflection under which the form is its own mirror
    image, or None: an axis of an even count of at least 4 nodes, so that
    each half keeps a face along it, else a pair of axes of equal counts.
    Its blocks hold at least _MIRROR_MIN_DOF dof each.  The mask must
    mirror exactly; the mass and the faces within _FACTOR_RTOL
    elementwise; the nodal V*w within _FACTOR_RTOL max|V*w|, which by
    Weyl moves no value by more than that."""
    mask, mass = form.mask, form.mass_diag
    if form.periodic or form.dof_count < 2 * _MIRROR_MIN_DOF:
        return None
    flips = [a for a, n in enumerate(mask.shape) if n % 2 == 0 and n >= 4]
    # the odd block of a pair of axes holds half the nodes off the diagonal
    swaps = [(a, b) for a, b in combinations(range(mask.ndim), 2)
             if mask.shape[a] == mask.shape[b] and form.dof_count -
             np.diagonal(mask, 0, a, b).sum() >= 2 * _MIRROR_MIN_DOF]
    # an overflowing V*w gives inf - inf = nan, which mirrors nowhere
    with np.errstate(all="ignore"):
        vw = np.where(mask, form.potential / mass, 0.0)
        spread = _FACTOR_RTOL * np.abs(vw).max()
        for refl in flips + swaps:
            if (mask == _reflect(mask, refl)).all() and \
                    _within(mass, _reflect(mass, refl), _FACTOR_RTOL * mass) \
                    and all(_within(c, image, _FACTOR_RTOL * np.abs(c))
                            for c, image in zip(form.faces, _reflect_faces(
                                form.faces, refl))) and \
                    _within(vw, _reflect(vw, refl), spread):
                return refl
    return None


def _mirror_halves(form: DiscreteForm, refl
                   ) -> Tuple[DiscreteForm, DiscreteForm]:
    """The even and odd blocks of a form that mirrors under `refl`.
    Along an axis: the half grid before the middle face, without it, and
    the same half with twice its coefficient on the middle layer's
    potential (an odd vector's difference across it is twice its value).
    Across axes (a, b): the nodes with i_a >= i_b, each coefficient off
    the diagonal and each face along a summed with its image's; and the
    nodes with i_a > i_b, with each face to the diagonal, where an odd
    vector is 0, on the potential."""
    mask = form.mask

    def restrict(keep, potential, faces):
        # without the faces that leave `keep` (a face from the last node
        # along an axis is absent, or the middle face, which is zeroed)
        return replace(form, potential=potential * keep, faces=tuple(
            c * (keep & np.roll(keep, -1, d)) for d, c in enumerate(faces)),
            mass_diag=mass * keep, mask=keep)

    if isinstance(refl, tuple):
        gap = np.subtract(*np.indices(mask.shape)[list(refl)])  # i_a - i_b

        def orbit(x, image):
            return np.where(gap == 0, x, x + image)

        potential, mass = (orbit(x, _reflect(x, refl))
                           for x in (form.potential, form.mass_diag))
        even = restrict(mask & (gap >= 0), potential, [
            c + image if d == refl[0] else orbit(c, image) for d, (c, image)
            in enumerate(zip(form.faces, _reflect_faces(form.faces, refl)))])
        for d, c in enumerate(even.faces):
            potential += c * (np.roll(gap, -1, d) == 0) + \
                np.roll(c * (gap == 0), 1, d)
        odd = restrict(mask & (gap > 0), potential, even.faces)
    else:
        half = _along(refl, mask.ndim, slice(None, mask.shape[refl] // 2))
        middle = _along(refl, mask.ndim, -1)
        potential, mass = form.potential[half].copy(), form.mass_diag[half]
        faces = [c[half] for c in form.faces]
        faces[refl] = faces[refl].copy()
        across = 2.0 * faces[refl][middle]
        faces[refl][middle] = 0.0
        even = restrict(mask[half], potential, faces)
        potential[middle] += across
        odd = restrict(mask[half], potential, faces)
    for block in (even, odd):
        block.factors = _factors(block)
    return even, odd


def _mirror(form: DiscreteForm, k: int, refl):
    """The mirror under `refl`: the even and the odd block, with no bound
    between them.  A pair (u, b) lifts to [u, +-flip(u)]/sqrt(2) along an
    axis, and to u, with +-u at its mirror image, across a pair of axes
    (+ for the even block), which keeps x^T M x = 1."""
    even, odd = _mirror_halves(form, refl)
    nu = form.mask.ndim

    def lift(u, blocks):
        lower = np.moveaxis(u, -1, 0)
        sign = np.where(blocks == 0, 1.0, -1.0).reshape((-1,) + (1,) * nu)
        if isinstance(refl, tuple):
            return np.where(even.mask, lower, sign * _reflect(lower, refl, 1))
        # in C order, as the gather takes it, with no copy of the whole
        lower = np.ascontiguousarray(lower / math.sqrt(2.0))
        return np.concatenate((lower, sign * np.flip(lower, 1 + refl)),
                              axis=1 + refl)

    return [(None, lambda: even, None), (None, lambda: odd, None)], lift


def _lowest_pairs(form: DiscreteForm, k: int, method: Optional[str] = None):
    """(values, x with x^T M x = 1, method) of the lowest k pairs, by the
    given method or, when None, by the default rule: peel a factored axis
    (`_peel_axis`, `_peel`); otherwise, while eigh costs less than loading
    scipy for shift-invert and for the whole spectrum, which ARPACK cannot
    return, mirror (`_mirror_axis`, `_mirror`) or solve dense.

    A split gives its blocks in merge order, each (Weyl step from the
    block before or None, block maker or None for the block before again,
    shifts or None), and a lift of tagged block vectors, held on the grid
    that the blocks share, to (pairs, *grid) arrays.  A block with shifts
    stands for its copies shifted by each, rest pair first, and a pair's
    tag is its block's index plus its shift's."""
    n = form.dof_count
    if form.mask.ndim == 0:
        # a slice of no axes is one node: its value is its potential (with
        # the levels its blocks added) over its mass.  Within the 2 eps by
        # which assembly rounds that quotient away from the nodal V*w of a
        # constant form, it is that number, so such forms keep their bits.
        value = float(form.potential / form.mass_diag)
        floor = form.potential_floor
        if abs(value - floor) <= 2 * np.finfo(float).eps * abs(floor):
            value = floor
        return np.full(1, value), \
            np.full((1, 1), 1.0 / math.sqrt(float(form.mass_diag))), \
            "separable"
    if method is None:
        axis = _peel_axis(form)
        if axis is not None:
            method = "peeled"
        elif n <= _DENSE_DEFAULT_DOF or k == n:
            axis = _mirror_axis(form)
            method = "dense" if axis is None else "mirrored"
        else:
            method = "iterative"
    if n > _MAX_DENSE_DOF and (method == "dense" or k == n):
        # all k == dof pairs take dof^2 doubles on every path
        raise ValueError(
            f"dense-sized solve ({method}, {k} pairs) refused at dof={n} > "
            f"{_MAX_DENSE_DOF}; use method='iterative' with k < dof")
    split = {"peeled": _peel, "mirrored": _mirror}.get(method)
    if split is None:
        return (*_mass_scaled_pairs(form, k, method), method)

    blocks, lift = split(form, k, axis)
    values, tags, leaves = np.empty(0), np.empty(0, dtype=np.int64), set()
    for index, (step, make, shifts) in enumerate(blocks):
        count = k
        if step is not None:
            # Weyl: this block's j-th value is at least the last one's plus
            # step, so only pairs below the k-th value so far can be kept
            kth = values[k - 1] if values.size == k else math.inf
            count = int(np.searchsorted(mu + step, kth))
            if count == 0:
                break
        if make is None:
            mu, block_u = mu[:count], block_u[..., :count]
        else:
            block = make()
            mu, block_u, leaf = _lowest_pairs(
                block, min(count, block.dof_count))
            block_u = _on_grid(block.mask, block_u)
            leaves.add(leaf)
        width = 1 if shifts is None else shifts.size
        sums = mu if shifts is None else np.add.outer(mu, shifts).ravel()
        order = np.arange(sums.size)
        merged = np.concatenate((values, sums))
        keep = np.argsort(merged, kind="stable")[:k]
        pick = np.concatenate((np.arange(values.size),
                               values.size + order // width))[keep]
        u = (np.concatenate((u, block_u), axis=-1) if values.size
             else block_u)[..., pick]
        tags = np.concatenate((tags, index + order % width))[keep]
        values = merged[keep]
    x = np.ascontiguousarray(lift(u, tags)).reshape(values.size, -1)
    if n < form.mask.size:
        x = x[:, form.mask.ravel()]
    return values, x.T, "separable" if leaves == {"separable"} else method


def _residuals(form: DiscreteForm, vals: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """||K x - mu M x|| / ||x|| per column, over blocks of whole columns
    of at most _GATE_BLOCK entries (one column if a column is longer), so
    that the temporaries stay in cache instead of costing several copies
    of x.  Each block is taken as contiguous rows, one per column of x (a
    view of the Fortran-ordered vectors that splits return), so that every
    pass runs in memory order and numpy sums each norm pairwise over its
    contiguous entries: a residual has the same bits whatever x's layout
    and the block widths."""
    k = vals.size
    blocks = -(-k // max(1, _GATE_BLOCK // form.dof_count))
    edges = [k * b // blocks for b in range(blocks + 1)]
    work = np.empty((3, -(-k // blocks), form.mask.size))
    out = np.empty(k)
    mass = form.mass_diag.reshape(-1)   # a view on a full grid
    if form.dof_count < mass.size:
        mass = mass[form._inside]
    for lo, hi in zip(edges, edges[1:]):
        rows = np.ascontiguousarray(x[:, lo:hi].T)
        r = form._apply_rows(rows, work)
        mx = work[1].reshape(-1)[:rows.size].reshape(rows.shape)
        np.multiply(rows, mass, out=mx)
        mx *= vals[lo:hi, None]
        r -= mx
        # numpy's norm, sqrt(sum(r * r)), with the squares in the buffers
        r *= r
        sq = np.multiply(rows, rows, out=mx)
        out[lo:hi] = np.sqrt(r.sum(axis=1)) / np.sqrt(sq.sum(axis=1))
    return out


def solve_lowest_detailed(form: DiscreteForm, k: int,
                          method: Optional[str] = None) -> SolveResult:
    """Lowest-k eigenpairs of K x = mu M x, from peeled or mirrored blocks
    where the form splits, else through M^(-1/2) K M^(-1/2).  Every
    pair's residual must be within _RESIDUAL_TOL."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if method not in (None, "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if k > form.dof_count:
        raise ValueError(f"requested {k} eigenpairs from {form.dof_count} dof")

    vals, x, method = _lowest_pairs(form, k, method)

    residuals = _residuals(form, vals, x)
    bad = ~(residuals <= _RESIDUAL_TOL)     # a NaN residual fails too
    if np.any(bad):
        worst = float(residuals.max())
        raise SolverConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds tolerance "
            f"{_RESIDUAL_TOL:.3e} ({int(bad.sum())} of {k} pairs)")

    vals = _snap_zeros(vals, form.zero_potential)
    spectrum = Spectrum(vals, float(vals[-1]), f"fd-{method}")
    return SolveResult(spectrum, x, residuals, method)


def _mass_scaled_pairs(form: DiscreteForm, k: int, method: str):
    """Lowest k pairs from A = M^(-1/2) K M^(-1/2), by dense `eigh` or by
    sparse shift-invert; returns the values and x = M^(-1/2) y."""
    n = form.dof_count
    d = 1.0 / np.sqrt(form.mass_diag[form.mask])
    if method == "dense":
        entries, index = form._scaled(d, 0.0)
        a = np.zeros((n, n))
        a[index] = entries
        del entries, index      # not held through eigh
        a = 0.5 * (a + a.T)
        eigvals, eigvecs = np.linalg.eigh(a)
        vals = eigvals[:k]
        y = eigvecs[:, :k]
    else:
        if k >= n:
            raise ValueError("iterative method needs k < dof_count")
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        sigma = min(0.0, form.potential_floor) - 1.0
        shifted = sp.coo_matrix(form._scaled(d, sigma), shape=(n, n)).tocsc()
        # an entry that rounds to 0 is left out, as the scaled product
        # leaves it out, so SuperLU orders the same pattern
        shifted.eliminate_zeros()
        # A = d G d + diag(V w) with G >= 0, so A - sigma I >= I: no pivoting
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        del shifted
        opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        # shift-invert mode applies only opinv, never A itself
        a = spla.LinearOperator((n, n), matvec=lambda x: d * form.matvec(
            d * x), dtype=float)
        v0 = np.full(n, 1.0 / math.sqrt(n))
        eigvals, eigvecs = spla.eigsh(a, k=k, sigma=sigma, which="LM",
                                      v0=v0, tol=0, OPinv=opinv)
        del lu, opinv
        order = np.argsort(eigvals)
        vals = eigvals[order]
        y = eigvecs[:, order]
    return vals, d[:, None] * y


def solve_lowest(form: DiscreteForm, k: int,
                 method: Optional[str] = None) -> Spectrum:
    return solve_lowest_detailed(form, k, method).spectrum
