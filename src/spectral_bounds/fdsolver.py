"""Finite-difference discretization of the weighted Neumann form.

The quadratic form

    Q(phi) = integral (|grad phi|^2 + V phi^2) w e^(-2 rho)
    m(phi) = integral phi^2 e^(-2 rho)

is discretized on the cell-centered midpoint grid with a flux stencil:
each interior face contributes (w e^(-2 rho))(face midpoint) * cellvol/h^2
times the squared difference across it, each node a potential and a mass
term.  Faces with an endpoint outside the mask are simply absent, which is
the natural (Neumann) boundary condition: the discrete form is exactly the
Rayleigh quotient restricted to piecewise-constant-gradient fields, so
min-max semantics carry over.

Periodic problems (rectangular torus fundamental domains) get wrap-around
faces; the seam face is evaluated at the left edge, i.e. fields are read
modulo the period.

Eigenpairs come from one of three paths.  When the mask is full and the
nodal mass, the nodal V*w and each axis's face coefficients are single
values, K x = mu M x is a Kronecker sum of 1-D cell-centred stencils plus
the shift V*w, and the default ("separable") takes the lowest pairs from
closed forms.  With s = face coefficient / nodal mass (w/h^2 for constant
fields), an axis of n nodes has the values 4 s sin^2(pi m/2n) with vectors
cos(pi m (i+1/2)/n) when Neumann, and 4 s sin^2(pi m/n) with a cos/sin
pair per frequency when periodic; the lowest sums of one value per axis
are merged, with tensor-product vectors.  Every other form defaults to
sparse shift-invert ("iterative"), or to dense `eigh` when all pairs are
asked for.  Every path's pairs must pass the same residual gate against
the assembled K.

scipy is imported inside `assemble` (after its input checks) and on the
iterative path of `solve_lowest_detailed`, not with this module: a run
whose spectrum is exact, or whose input is rejected before assembly,
never loads it, and the separable path never loads `scipy.sparse.linalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

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


class SolverConvergenceError(RuntimeError):
    """Raised when an eigenpair misses the residual tolerance."""


@dataclass
class DiscreteForm:
    """Stiffness/mass pair for the generalized problem K x = mu M x."""

    stiffness: sp.csr_matrix
    mass_diag: np.ndarray
    dof_count: int
    zero_potential: bool       # nodal V vanishes, so K annihilates constants
    potential_floor: float     # min nodal V*w, a lower bound for the spectrum
    grid: QuadratureGrid = field(repr=False, default=None)
    # (per-axis face coefficient over nodal mass, nodal V*w) when the form
    # is a Kronecker sum of 1-D stencils; None otherwise
    separable: Optional[Tuple[Tuple[float, ...], float]] = None


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
    """Build the stiffness and mass matrices for a problem on a grid."""
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
    index = -np.ones(grid.shape, dtype=np.int64)
    n = int(mask.sum())
    index[mask] = np.arange(n)

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

    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []

    # potential term on the diagonal
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(v_n * w_n * dens_n * cellvol)

    box = grid.domain.bounding_box()
    # least and greatest face coefficient per axis, seam included
    coefficients = [set() for _ in range(nu)]

    def add_faces(p_idx, q_idx, face_pts):
        w_f = np.broadcast_to(np.asarray(problem.w.evaluate(face_pts),
                                         dtype=float), p_idx.shape)
        rho_f = np.broadcast_to(np.asarray(problem.rho.evaluate(face_pts),
                                           dtype=float), p_idx.shape)
        if np.any(w_f <= 0):
            raise ValueError(
                f"weight must be positive; sampled minimum {w_f.min()}")
        c = w_f * np.exp(-2.0 * rho_f) * cellvol / h / h
        rows.extend((p_idx, q_idx, p_idx, q_idx))
        cols.extend((p_idx, q_idx, q_idx, p_idx))
        vals.extend((c, c, -c, -c))
        if c.size:
            coefficients[axis].update((float(c.min()), float(c.max())))

    for axis in range(nu):
        h = grid.spacing[axis]
        lower = tuple(slice(None, -1) if b == axis else slice(None)
                      for b in range(nu))
        upper = tuple(slice(1, None) if b == axis else slice(None)
                      for b in range(nu))
        both = mask[lower] & mask[upper]
        p_idx = index[lower][both]
        q_idx = index[upper][both]
        face_pts = tuple(
            full_coords[b][lower][both] + (0.5 * h if b == axis else 0.0)
            for b in range(nu))
        add_faces(p_idx, q_idx, face_pts)

        if grid.periodic:
            last = tuple(slice(-1, None) if b == axis else slice(None)
                         for b in range(nu))
            first = tuple(slice(None, 1) if b == axis else slice(None)
                          for b in range(nu))
            both = mask[last] & mask[first]
            p_idx = index[last][both]
            q_idx = index[first][both]
            # seam face sits on the identified edge: read fields there
            face_pts = tuple(
                np.full(p_idx.shape, box.origin[b]) if b == axis
                else full_coords[b][last][both] for b in range(nu))
            add_faces(p_idx, q_idx, face_pts)

    import scipy.sparse as sp
    stiffness = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()

    if not (np.isfinite(stiffness.data).all() and
            np.isfinite(mass_diag).all() and mass_diag.min() > 0.0):
        raise ValueError(
            f"operator entries overflow or underflow on grid {grid.shape}")

    vw = v_n * w_n
    separable = None
    if n == mask.size and mass_diag.min() == mass_diag.max() and \
            vw.min() == vw.max() and all(len(c) == 1 for c in coefficients):
        mass = float(mass_diag[0])
        separable = (tuple(c.pop() / mass for c in coefficients),
                     float(vw[0]))
    return DiscreteForm(
        stiffness=stiffness,
        mass_diag=mass_diag,
        dof_count=n,
        zero_potential=bool(np.max(np.abs(v_n)) == 0.0),
        potential_floor=float(vw.min()),
        grid=grid,
        separable=separable,
    )


def _snap_zeros(values: np.ndarray, zero_potential: bool) -> np.ndarray:
    if not zero_potential or values.size == 0:
        return values
    scale = 1e-8 * (1.0 + abs(float(values[-1])))
    snapped = values.copy()
    snapped[np.abs(snapped) < scale] = 0.0
    return np.sort(snapped)


def _axis_pairs(n: int, scale: float, periodic: bool, count: int):
    """The count lowest pairs of one axis's 1-D stencil: ascending values
    and unit eigenvectors as columns."""
    m = np.arange(count)
    # periodic: the constant, then sin and cos of each frequency in turn
    wave = 2 * ((m + 1) // 2) if periodic else m
    angle = (math.pi / n) * (np.arange(n)[:, None] + 0.5) * wave
    vectors = np.where(periodic & (m % 2 == 1), np.sin(angle), np.cos(angle))
    values = 4.0 * scale * np.sin(math.pi * wave / (2 * n)) ** 2
    return values, vectors / np.linalg.norm(vectors, axis=0)


def _separable_pairs(form: DiscreteForm, k: int):
    """Lowest k pairs of a Kronecker-sum form: the k smallest sums of one
    closed-form value per axis, with tensor-product vectors scaled to
    x^T M x = 1."""
    scales, shift = form.separable
    grid = form.grid
    if not np.isfinite(scales).all():
        # finite K and M can still overflow in K/M, as on the other paths
        raise ValueError(
            f"mass-scaled operator overflows on grid {grid.shape}")
    total = np.full(1, shift)
    picks = np.zeros((1, 0), dtype=np.int64)
    vectors = []
    for n, scale in zip(grid.shape, scales):
        # a pair among the k lowest uses one of the k lowest of every axis
        values, axis_vectors = _axis_pairs(n, scale, grid.periodic,
                                           min(k, n))
        sums = np.add.outer(total, values).ravel()
        keep = np.argsort(sums, kind="stable")[:k]
        total = sums[keep]
        picks = np.column_stack((picks[keep // values.size],
                                 keep % values.size))
        vectors.append(axis_vectors)
    x = np.full((1, k), 1.0 / math.sqrt(float(form.mass_diag[0])))
    for axis_vectors, pick in zip(vectors, picks.T):
        x = (x[:, None, :] * axis_vectors[:, pick][None, :, :]).reshape(-1, k)
    return total, x


def solve_lowest_detailed(form: DiscreteForm, k: int,
                          method: Optional[str] = None,
                          tolerance: float = 1e-8) -> SolveResult:
    """Lowest-k eigenpairs of K x = mu M x: closed forms for a separable
    form, otherwise through M^(-1/2) K M^(-1/2).  Every pair's residual
    must be within `tolerance`."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if method not in (None, "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    n = form.dof_count
    if k > n:
        raise ValueError(f"requested {k} eigenpairs from {n} dof")

    if method is None:
        # separable for a Kronecker-sum form, otherwise shift-invert;
        # ARPACK cannot return the whole spectrum; only dense can
        method = "separable" if form.separable is not None else \
            "dense" if k == n else "iterative"
    if n > _MAX_DENSE_DOF and (method == "dense" or k == n):
        # all k == dof pairs take dof^2 doubles on every path
        raise ValueError(
            f"dense-sized solve ({method}, {k} pairs) refused at dof={n} > "
            f"{_MAX_DENSE_DOF}; use method='iterative' with k < dof")

    if method == "separable":
        vals, x = _separable_pairs(form, k)
    else:
        vals, x = _mass_scaled_pairs(form, k, method)

    kx = form.stiffness @ x
    mx = form.mass_diag[:, None] * x
    residuals = np.linalg.norm(kx - vals[None, :] * mx, axis=0) / \
        np.linalg.norm(x, axis=0)
    bad = residuals > tolerance
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
        a = form.stiffness.toarray() * d[:, None] * d[None, :]
        a = 0.5 * (a + a.T)
        eigvals, eigvecs = np.linalg.eigh(a)
        vals = eigvals[:k]
        y = eigvecs[:, :k]
    else:
        if k >= n:
            raise ValueError("iterative method needs k < dof_count")
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        a = (sp.diags(d) @ form.stiffness @ sp.diags(d)).tocsc()
        if not np.isfinite(a.data).all():
            # finite K and M can still overflow in M^(-1/2) K M^(-1/2)
            raise ValueError(
                f"mass-scaled operator overflows on grid {form.grid.shape}")
        sigma = min(0.0, form.potential_floor) - 1.0
        # A = d G d + diag(V w) with G >= 0, so A - sigma I >= I: no pivoting
        lu = spla.splu(a - sigma * sp.identity(n, format="csc"),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        v0 = np.full(n, 1.0 / math.sqrt(n))
        eigvals, eigvecs = spla.eigsh(a, k=k, sigma=sigma, which="LM",
                                      v0=v0, tol=0, OPinv=opinv)
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
