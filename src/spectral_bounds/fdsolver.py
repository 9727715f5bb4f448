"""Finite-difference discretization of the weighted Neumann form.

The quadratic form

    Q(phi) = integral (|grad phi|^2 + V phi^2) w e^(-2 rho)
    m(phi) = integral phi^2 e^(-2 rho)

is discretized on the cell-centered midpoint grid with a flux stencil:
each interior face contributes (w e^(-2 rho))(face midpoint) * cellvol/h^2
times the squared difference across it, each node a potential and a mass
term.  Faces with an endpoint outside the mask are simply absent, which is
the natural (Neumann) boundary condition.  This is not a Rayleigh-Ritz
(Galerkin) discretization, and min-max gives no one-sided bound: the
cell-centred stencil lowers Neumann values (on the unit interval
4n^2 sin^2(pi m/2n) < (pi m)^2), so on a box fd values lie below the
exact ones, where Rayleigh-Ritz values would lie above.  A verdict from
an fd spectrum carries that discretization error.

Periodic problems (rectangular torus fundamental domains) get wrap-around
faces; the seam face is evaluated at the left edge, i.e. fields are read
modulo the period.

Eigenpairs come from one of three paths.  `assemble` finds the axes
along which the form factors: the mask repeats along axis a, and at
every slice t the nodal potential, the mass and the faces across a are
slice 0's times one number g_t, while the faces along a are slice 0's
times one number b_t per face (the seam included when periodic).  Then
K = K_rest (x) G + C_a (x) L_a and M = M_rest (x) G, with G = diag(g) and
L_a the 1-D stencil with faces b.  Each pair (z_m, v) of L_a v = z G v
leaves one block (K_rest + z_m C_a, M_rest) on slice 0 across a, and the
default ("peeled") solves blocks in ascending z_m, each by the same rule
(peeled again, dense or shift-invert), with tensor-product vectors.  An
axis along which the form repeats exactly (g = b = 1) takes the closed
form of the unit stencil (modes cos(pi m (i+1/2)/n) with values
4 sin^2(pi m/2n) when Neumann, a cos/sin pair with 4 sin^2(pi m/n) per
frequency when periodic) and is peeled first; any other factored axis
takes the lowest pairs of its own 1-D stencil by the dense/shift-invert
rule, so it is peeled only while another axis remains.  Block m's j-th
value is at least block m-1's plus (z_m - z_(m-1)) min(C_a/M_rest)
(Weyl), so a block is asked only for the pairs that bound lets below the
current k-th value, and the sweep stops at the first block asked for
none.  When C_a/M_rest is one number s, every block is block 0 shifted
by z_m s, and the lowest sums are merged in closed form; a form that
repeats along every axis is a Kronecker sum of 1-D stencils plus the
shift V*w and reports "separable".  Every other form defaults to
numpy's dense `eigh` ("dense") up to _DENSE_DEFAULT_DOF dof or when all
pairs are asked for, and to sparse shift-invert ("iterative") above; a
pinned method solves the whole form.  An entry within _FACTOR_RTOL of its
factored value is accepted, so every path's pairs must pass the same
residual gate, ||K x - mu M x|| / ||x|| <= tolerance (a NaN fails),
through the stencil matvec of the assembled form.  The gate runs over
blocks of whole columns of at most _GATE_BLOCK entries, so that its
temporaries stay in cache instead of costing several copies of the
vectors, and gives each column the bits of the whole-block formula.

The form holds the stencil itself (the nodal potential, one array of
face coefficients per axis on the full grid, the nodal mass), not a
matrix.  Shift-invert builds A - sigma I, with A = M^(-1/2) K M^(-1/2),
as one CSC matrix straight from the faces, with the bits of the scaled
product, and holds it only until SuperLU has factored it; ARPACK's
shift-invert mode applies only the LU, which is dropped before the
vectors are scaled.  The CSR `DiscreteForm.stiffness` comes from the
same builder on first read, and the solver does not read it.  scipy
loads only on the shift-invert path or on that read: an exact-source,
separable, dense or densely peeled run never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
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
    "ConvergenceStudy",
    "assemble",
    "solve_lowest",
    "solve_lowest_detailed",
    "convergence_study",
]


_MAX_DENSE_DOF = 6400   # most dof of a dense or an all-pairs solve
# most dof the default solves by dense `eigh`.  With one BLAS thread, eigh
# took 0.26 s at 1024 dof and 0.47 s at 1296; importing scipy.sparse and
# scipy.sparse.linalg for shift-invert took 0.29 s, and the solve itself
# about 0.02 s more.
_DENSE_DEFAULT_DOF = 1024
# most entries (512 KiB of doubles) per column block of the residual gate
_GATE_BLOCK = 1 << 16
# relative distance at which an entry still counts as factored.  Each
# entry rounds exp(-2 rho) of a summed exponent, so the distance grows
# with |rho|: a Gaussian rho = |x|^2/2 was within 4.7 eps on [-1,1]^2 at
# 160^2, 5.5 eps on [-1,1]^3 at 24^3 and 11 eps on [-2,2]^2, and 17 eps
# on [-2,2]^3, which is solved whole.  Forms that do not factor were O(1)
# away.  The residual gate certifies the pairs either way.
_FACTOR_RTOL = 16 * np.finfo(float).eps

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


class SolverConvergenceError(RuntimeError):
    """Raised when an eigenpair misses the residual tolerance."""


@dataclass
class DiscreteForm:
    """The flux stencil of the generalized problem K x = mu M x.

    `faces[axis]` has the grid's shape: its entry at node i along `axis`
    is the coefficient of the face to node i+1, or of the seam to node 0
    when i is the last node of a periodic axis; it is 0 where that face is
    absent.  K x = diagonal x - sum over faces of c times the neighbour,
    where the diagonal is the nodal potential plus the node's faces."""

    potential: np.ndarray      # V w e^(-2 rho) cellvol per inside node
    faces: Tuple[np.ndarray, ...]
    mass_diag: np.ndarray
    dof_count: int
    zero_potential: bool       # nodal V vanishes, so K annihilates constants
    potential_floor: float     # min nodal V*w, a lower bound for the spectrum
    mask: np.ndarray           # the grid's inside nodes
    periodic: bool
    # the axes along which the form factors: None where it repeats
    # exactly, else (g, b), its mass ratio per slice and its face ratio
    # per face (0 at the absent last face of a Neumann axis)
    factors: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = \
        field(default_factory=dict)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """K's diagonal: the potential, then each face at its lower and at
        its upper end, part by part.  That is the order in which scipy sums
        the same entries given as a COO list, so `stiffness` equals that
        matrix bit for bit and shift-invert spectra do not move in the last
        digits."""
        d = np.zeros(self.mask.shape)
        d[self.mask] = self.potential
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
        """K x for x of shape (dof,) or (dof, m): each column of x is
        placed on the grid (0 outside the mask; on a full grid the column
        is the grid, in C order), columns leading, so that each neighbour
        term is a slice product over whole grid rows, however few the
        columns."""
        mask = self.mask
        u = x.T
        lead = u.shape[:-1]
        full = self.dof_count == mask.size
        if not full:
            # gathering from x padded by a 0 is faster than a scatter
            u = np.take(np.concatenate((u, np.zeros(lead + (1,))), axis=-1),
                        self._node, axis=-1)
        u = u.reshape(lead + mask.shape)
        off = np.zeros_like(u)
        for axis, _, lo, hi in _face_parts(mask.ndim, self.periodic):
            c = self.faces[axis][lo]
            lo, hi = (Ellipsis,) + lo, (Ellipsis,) + hi
            off[lo] += c * u[hi]
            off[hi] += c * u[lo]
        off = off.reshape(lead + (-1,))
        if not full:
            off = np.take(off, self._inside, axis=-1)
        column = (Ellipsis,) + (None,) * (x.ndim - 1)
        return self.diagonal[column] * x - off.T

    def _pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p, q, c): the inside-node indices of each present face's ends
        and its coefficient, in assembly order."""
        mask = self.mask
        index = np.full(mask.shape, -1, dtype=np.int64)
        index[mask] = np.arange(self.dof_count)
        parts = []
        for axis, _, lo, hi in _face_parts(mask.ndim, self.periodic):
            both = mask[lo] & mask[hi]
            parts.append((index[lo][both], index[hi][both],
                          self.faces[axis][lo][both]))
        return tuple(np.concatenate(a) for a in zip(*parts))

    def dense(self) -> np.ndarray:
        """K as an n x n array."""
        n = self.dof_count
        p, q, c = self._pairs()
        k = np.zeros((n, n))
        k.flat[::n + 1] = self.diagonal
        k[p, q] = -c
        k[q, p] = -c
        return k

    def _sparse(self, d: np.ndarray, shift: float) -> sp.coo_matrix:
        """d K d - shift I as a COO list for diagonal d, with each entry
        rounded as diags(d) @ K @ diags(d) rounds it, (d_i K_ij) d_j; for d
        of ones and no shift it is K itself, bit for bit."""
        import scipy.sparse as sp
        n = self.dof_count
        p, q, c = self._pairs()
        node = np.arange(n)
        return sp.coo_matrix(
            (np.concatenate((d * self.diagonal * d - shift,
                             d[p] * -c * d[q], d[q] * -c * d[p])),
             (np.concatenate((node, p, q)), np.concatenate((node, q, p)))),
            shape=(n, n))

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """K as a CSR matrix, built from the same stencil on first read.
        The solver does not read it: shift-invert factors its own shifted
        matrix and applies K through `matvec`."""
        return self._sparse(np.ones(self.dof_count), 0.0).tocsr()

    def block(self, axis: int, level: float) -> DiscreteForm:
        """The form on slice 0 across a factored `axis` for the mode of
        its 1-D stencil with value `level`: the faces along `axis` become
        `level` times their coefficient on the diagonal.  The form factors
        along its other axes as it did, with the same g and b."""
        first = _along(axis, self.mask.ndim, 0)
        mask = np.asarray(self.mask[first])
        full = np.zeros(self.mask.shape)

        def on_slice(values):
            full[self.mask] = values
            return full[first][mask]

        return replace(
            self,
            potential=on_slice(self.potential) +
            level * self.faces[axis][first][mask],
            faces=tuple(c[first] for b, c in enumerate(self.faces)
                        if b != axis),
            mass_diag=on_slice(self.mass_diag),
            dof_count=int(mask.sum()),
            mask=mask,
            factors={b - (b > axis): f for b, f in self.factors.items()
                     if b != axis})


@dataclass
class SolveResult:
    spectrum: Spectrum
    vectors: np.ndarray        # columns are eigenvectors of K x = mu M x
    residuals: np.ndarray      # ||K x - mu M x|| / ||x|| per pair
    method: str


def _node_points(grid: QuadratureGrid):
    """Inside-node coordinates (per axis, flattened) and full coord arrays."""
    full = [np.broadcast_to(np.asarray(c, dtype=float), grid.shape)
            for c in grid.coords()]
    return tuple(c[grid.mask] for c in full), full


def assemble(problem: ProblemSpec, grid: QuadratureGrid) -> DiscreteForm:
    """Build the stiffness stencil and the mass for a problem on a grid."""
    if isinstance(grid.domain, TorusFundamental) and \
            not grid.domain.is_rectangular():
        raise NotImplementedError(
            "periodic assembly needs a rectangular fundamental domain")
    if min(grid.shape) < 8:
        raise ValueError(
            f"grid too coarse for assembly: {grid.shape} (need >= 8 per axis)")

    nu = grid.nu
    cellvol = grid.cell_volume
    mask = grid.mask
    n = int(mask.sum())

    node_pts, full_coords = _node_points(grid)
    w_n = np.broadcast_to(np.asarray(problem.w.evaluate(node_pts),
                                     dtype=float), (n,))
    rho_n = np.broadcast_to(np.asarray(problem.rho.evaluate(node_pts),
                                       dtype=float), (n,))
    v_n = np.broadcast_to(np.asarray(problem.V.evaluate(node_pts),
                                     dtype=float), (n,))
    if np.any(w_n <= 0):
        raise ValueError(
            f"weight must be positive; sampled minimum {w_n.min()}")

    dens_n = np.exp(-2.0 * rho_n)
    mass_diag = dens_n * cellvol

    box = grid.domain.bounding_box()
    faces = tuple(np.zeros(grid.shape) for _ in range(nu))
    for axis, seam, lo, hi in _face_parts(nu, grid.periodic):
        h = grid.spacing[axis]
        both = mask[lo] & mask[hi]
        count = (int(both.sum()),)
        if seam:
            # seam face sits on the identified edge: read fields there
            face_pts = tuple(
                np.full(count, box.origin[b]) if b == axis
                else full_coords[b][lo][both] for b in range(nu))
        else:
            face_pts = tuple(
                full_coords[b][lo][both] + (0.5 * h if b == axis else 0.0)
                for b in range(nu))
        w_f = np.broadcast_to(np.asarray(problem.w.evaluate(face_pts),
                                         dtype=float), count)
        rho_f = np.broadcast_to(np.asarray(problem.rho.evaluate(face_pts),
                                           dtype=float), count)
        if np.any(w_f <= 0):
            raise ValueError(
                f"weight must be positive; sampled minimum {w_f.min()}")
        c = faces[axis][lo]     # a view: writes land in faces[axis]
        c[both] = w_f * np.exp(-2.0 * rho_f) * cellvol / h / h

    vw = v_n * w_n
    form = DiscreteForm(
        potential=vw * dens_n * cellvol,
        faces=faces,
        mass_diag=mass_diag,
        dof_count=n,
        zero_potential=bool(np.max(np.abs(v_n)) == 0.0),
        potential_floor=float(vw.min()),
        mask=mask,
        periodic=grid.periodic,
    )
    if not (np.isfinite(form.diagonal).all() and
            all(np.isfinite(c).all() for c in faces) and
            np.isfinite(mass_diag).all() and mass_diag.min() > 0.0):
        raise ValueError(
            f"operator entries overflow or underflow on grid {grid.shape}")
    form.factors = _factors(form)
    return form


def _factors(form: DiscreteForm
             ) -> Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The axes along which the form factors, each with None when it
    repeats exactly, else (g, b).  g and b are read at the first inside
    node of slice 0; an axis factors when the mask repeats along it, g
    and every present b are finite and positive, and every entry lies
    within _FACTOR_RTOL of its factored value.  Ratios that are all 1
    must hold exactly, which is the repeat; the summed diagonal can
    differ along such an axis in the last bit, so it is not read."""
    mask = form.mask
    nu = mask.ndim
    potential, mass = np.zeros(mask.shape), np.zeros(mask.shape)
    potential[mask] = form.potential
    mass[mask] = form.mass_diag
    factors = {}
    # a slice ratio can overflow where the mass does not: that axis
    # simply does not factor
    with np.errstate(all="ignore"):
        for axis in range(nu):
            first = _along(axis, nu, slice(0, 1))
            if not (mask == mask[first]).all():
                continue
            node = np.unravel_index(np.argmax(mask[first]), mask[first].shape)
            line = tuple(slice(None) if d == axis else node[d]
                         for d in range(nu))
            shape = tuple(-1 if d == axis else 1 for d in range(nu))
            along = form.faces[axis]
            g, b = (x[line] / x[line][0] for x in (mass, along))
            present = b if form.periodic else b[:-1]
            if not (np.isfinite(g).all() and g.min() > 0.0 and
                    np.isfinite(present).all() and present.min() > 0.0):
                continue
            repeats = bool((g == 1.0).all() and (present == 1.0).all())

            def fits(x, ratio):
                factored = ratio.reshape(shape) * x[first]
                if repeats:
                    return bool((x == factored).all())
                return bool((np.abs(x - factored) <=
                             _FACTOR_RTOL * np.abs(x)).all())

            # the potential and the faces tell most forms apart, so they
            # go first
            checks = [(potential, g)] + \
                [(c, g) for a, c in enumerate(form.faces) if a != axis] + \
                [(along, b), (mass, g)]
            if all(fits(x, ratio) for x, ratio in checks):
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


def _tensor(form: DiscreteForm, axis: int, u: np.ndarray,
            v: np.ndarray) -> np.ndarray:
    """Columns u_i (x) v_i on the form's inside nodes, for u on the inside
    nodes of the slice across `axis` and v along `axis`.  Built one column
    after another, so that the (dof, k) result is in Fortran order, as
    shift-invert's vectors are: the residual norms reduce in that order."""
    mask = form.mask
    slice_mask = np.asarray(mask[_along(axis, mask.ndim, 0)])
    grid_u = np.zeros(u.shape[1:] + slice_mask.shape)
    grid_u[:, slice_mask] = u.T
    along = [-1] + [1] * mask.ndim
    along[1 + axis] = mask.shape[axis]
    x = (np.expand_dims(grid_u, 1 + axis) * v.T.reshape(along)).reshape(
        u.shape[1], -1)
    return (x if form.dof_count == mask.size else x[:, mask.ravel()]).T


def _axis_modes(form: DiscreteForm, axis: int, count: int):
    """The count lowest pairs (z_m, v) of the 1-D stencil along a factored
    `axis`, with v^T G v = 1: the unit stencil's closed form where the
    form repeats, else the stencil with faces b and mass g, by the
    default rule (which does not peel a 1-D form's factored axis)."""
    n = form.mask.shape[axis]
    factor = form.factors[axis]
    if factor is None:
        return _axis_pairs(n, form.periodic, count)
    g, b = factor
    stencil = DiscreteForm(
        potential=np.zeros(n), faces=(b,), mass_diag=g, dof_count=n,
        zero_potential=True, potential_floor=0.0,
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


def _peeled_pairs(form: DiscreteForm, k: int, axis: int):
    """Lowest k pairs of a form that factors along `axis`: the lowest by
    (value, block order) over the blocks of the 1-D stencil's modes along
    it, with vectors u (x) v scaled to x^T M x = 1."""
    n = form.mask.shape[axis]
    rest = form.block(axis, 0.0)
    ratio = form.faces[axis][_along(axis, form.mask.ndim, 0)][rest.mask] / \
        rest.mass_diag
    if not np.isfinite(ratio).all():
        # finite K and M can still overflow in K/M, as on the other paths
        raise ValueError(
            f"mass-scaled operator overflows on grid {form.mask.shape}")
    count = min(k, rest.dof_count)
    levels, v = _axis_modes(form, axis, min(k, n))
    if ratio.min() == ratio.max():
        # every block is block 0 shifted by its mode's value times ratio:
        # merge the k smallest sums
        levels = levels * ratio[0]
        mu, u, method = _lowest_pairs(rest, count)
        sums = np.add.outer(mu, levels).ravel()
        keep = np.argsort(sums, kind="stable")[:k]
        x = _tensor(form, axis, u[:, keep // levels.size],
                    v[:, keep % levels.size])
        return sums[keep], x, \
            "separable" if method == "separable" else "peeled"

    lift = float(ratio.min())
    values, u, modes = np.empty(0), np.empty((rest.dof_count, 0)), \
        np.empty(0, dtype=np.int64)
    for m, level in enumerate(levels):
        if m:
            # Weyl: block m's j-th value is at least block m-1's plus
            # (level step) * min(ratio); a twin (equal level) is the same
            # block, so it reuses that solve
            kth = values[k - 1] if values.size == k else math.inf
            count = int(np.searchsorted(
                mu + (level - levels[m - 1]) * lift, kth))
            if count == 0:
                break
        if m and level == levels[m - 1]:
            mu, block_u = mu[:count], block_u[:, :count]
        else:
            mu, block_u, _ = _lowest_pairs(
                form.block(axis, level) if m else rest, count)
        values = np.concatenate((values, mu))
        u = np.hstack((u, block_u))
        modes = np.concatenate((modes, np.full(count, m)))
        keep = np.argsort(values, kind="stable")[:k]
        values, u, modes = values[keep], u[:, keep], modes[keep]
    return values, _tensor(form, axis, u, v[:, modes]), "peeled"


def _lowest_pairs(form: DiscreteForm, k: int, method: Optional[str] = None):
    """(values, x with x^T M x = 1, method) of the lowest k pairs, by the
    given method or, when None, by the default rule: peel a factored axis
    (`_peel_axis`); otherwise dense while eigh costs less than loading
    scipy for shift-invert, and for the whole spectrum, which ARPACK
    cannot return."""
    n = form.dof_count
    if form.mask.ndim == 0:
        # a slice of no axes is one node: its value is its potential (with
        # the levels its blocks added) over its mass.  Within the 2 eps by
        # which assembly rounds that quotient away from the nodal V*w of a
        # constant form, it is that number, so such forms keep their bits.
        value = float(form.potential[0] / form.mass_diag[0])
        floor = form.potential_floor
        if abs(value - floor) <= 2 * np.finfo(float).eps * abs(floor):
            value = floor
        return np.full(1, value), \
            np.full((1, 1), 1.0 / math.sqrt(float(form.mass_diag[0]))), \
            "separable"
    axis = None
    if method is None:
        axis = _peel_axis(form)
        method = "peeled" if axis is not None else \
            "dense" if n <= _DENSE_DEFAULT_DOF or k == n else "iterative"
    if n > _MAX_DENSE_DOF and (method == "dense" or k == n):
        # all k == dof pairs take dof^2 doubles on every path
        raise ValueError(
            f"dense-sized solve ({method}, {k} pairs) refused at dof={n} > "
            f"{_MAX_DENSE_DOF}; use method='iterative' with k < dof")
    if method == "peeled":
        return _peeled_pairs(form, k, axis)
    return (*_mass_scaled_pairs(form, k, method), method)


def _residuals(form: DiscreteForm, vals: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """||K x - mu M x|| / ||x|| per column, over blocks of whole columns
    of at most _GATE_BLOCK entries (one column if a column is longer), so
    that the temporaries stay in cache instead of costing several copies
    of x.  Columns are independent and a block keeps x's layout, so each
    residual has the bits of the whole-block formula.  The widths differ
    by at most one: numpy sums a one-column block's norm pairwise but a
    wider C-ordered block's (dense eigh's vectors) row by row, and equal
    widths give one-column blocks only above 2^16/3 dof, where no solve
    is dense."""
    k = vals.size
    blocks = -(-k // max(1, _GATE_BLOCK // form.dof_count))
    edges = [k * b // blocks for b in range(blocks + 1)]
    out = np.empty(k)
    for lo, hi in zip(edges, edges[1:]):
        block = x[:, lo:hi]
        kx = form.matvec(block)
        mx = form.mass_diag[:, None] * block
        out[lo:hi] = np.linalg.norm(kx - vals[None, lo:hi] * mx, axis=0) / \
            np.linalg.norm(block, axis=0)
    return out


def solve_lowest_detailed(form: DiscreteForm, k: int,
                          method: Optional[str] = None,
                          tolerance: float = 1e-8) -> SolveResult:
    """Lowest-k eigenpairs of K x = mu M x: by peeling factored axes where
    the form has them, otherwise through M^(-1/2) K M^(-1/2).  Every
    pair's residual must be within `tolerance`."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    if method not in (None, "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if k > form.dof_count:
        raise ValueError(f"requested {k} eigenpairs from {form.dof_count} dof")

    vals, x, method = _lowest_pairs(form, k, method)

    residuals = _residuals(form, vals, x)
    bad = ~(residuals <= tolerance)     # a NaN residual fails too
    if np.any(bad):
        worst = float(residuals.max())
        raise SolverConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds tolerance "
            f"{tolerance:.3e} ({int(bad.sum())} of {k} pairs)")

    vals = _snap_zeros(vals, form.zero_potential)
    spectrum = Spectrum(vals, float(vals[-1]), f"fd-{method}")
    return SolveResult(spectrum, x, residuals, method)


def _mass_scaled_pairs(form: DiscreteForm, k: int, method: str):
    """Lowest k pairs from A = M^(-1/2) K M^(-1/2), by dense `eigh` or by
    sparse shift-invert; returns the values and x = M^(-1/2) y."""
    n = form.dof_count
    d = 1.0 / np.sqrt(form.mass_diag)
    if method == "dense":
        a = form.dense() * d[:, None] * d[None, :]
        if not np.isfinite(a).all():
            # finite K and M can still overflow in M^(-1/2) K M^(-1/2)
            raise ValueError(
                f"mass-scaled operator overflows on grid {form.mask.shape}")
        a = 0.5 * (a + a.T)
        eigvals, eigvecs = np.linalg.eigh(a)
        vals = eigvals[:k]
        y = eigvecs[:, :k]
    else:
        if k >= n:
            raise ValueError("iterative method needs k < dof_count")
        import scipy.sparse.linalg as spla
        sigma = min(0.0, form.potential_floor) - 1.0
        shifted = form._sparse(d, sigma).tocsc()
        if not np.isfinite(shifted.data).all():
            # finite K and M can still overflow in M^(-1/2) K M^(-1/2)
            raise ValueError(
                f"mass-scaled operator overflows on grid {form.mask.shape}")
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


def solve_lowest(form: DiscreteForm, k: int, method: Optional[str] = None,
                 tolerance: float = 1e-8) -> Spectrum:
    return solve_lowest_detailed(form, k, method, tolerance).spectrum


@dataclass
class ConvergenceStudy:
    shapes: Tuple[Tuple[int, ...], ...]
    values: np.ndarray       # len(grids) x k
    reference: np.ndarray    # k, oracle or Richardson extrapolation
    errors: np.ndarray       # len(grids) x k, absolute
    orders: np.ndarray       # (len(grids)-1) x k, log2(error ratios)

    def rows(self) -> List[dict]:
        out = []
        for i, shape in enumerate(self.shapes):
            out.append({
                "shape": shape,
                "values": self.values[i].tolist(),
                "errors": self.errors[i].tolist(),
                "orders": self.orders[i - 1].tolist() if i > 0 else None,
            })
        return out


def convergence_study(problem: ProblemSpec, grids: Sequence[QuadratureGrid],
                      k: int, oracle: Optional[Sequence[float]] = None
                      ) -> ConvergenceStudy:
    """Solve on successively refined grids and report observed orders.

    With no oracle, the reference comes from Richardson extrapolation of
    the finest grids (estimated rate from the last three when available).
    """
    if len(grids) < 2:
        raise ValueError("need at least two grids")
    for a, b in zip(grids[:-1], grids[1:]):
        if tuple(2 * s for s in a.shape) != tuple(b.shape):
            raise ValueError(
                f"grids must refine by 2x per axis: {a.shape} -> {b.shape}")

    values = np.empty((len(grids), k))
    for i, grid in enumerate(grids):
        values[i] = solve_lowest(assemble(problem, grid), k).values[:k]

    if oracle is not None:
        reference = np.asarray(list(oracle), dtype=float)[:k]
        if reference.size != k:
            raise ValueError("oracle must supply k values")
    elif len(grids) >= 3:
        v1, v2, v3 = values[-3], values[-2], values[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.log2(np.abs(v1 - v2) / np.abs(v2 - v3))
        rate = np.where(np.isfinite(rate), np.clip(rate, 0.5, 4.0), 2.0)
        reference = v3 + (v3 - v2) / (2.0 ** rate - 1.0)
    else:
        reference = values[-1] + (values[-1] - values[-2]) / 3.0

    errors = np.abs(values - reference[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log2(errors[:-1] / errors[1:])
    return ConvergenceStudy(tuple(g.shape for g in grids), values,
                            reference, errors, orders)
