"""Phase-space volumes and the semiclassical eigenvalue-sum bound.

With Vtilde = V + |grad rho|^2 and the normalization that carries the
(2 pi)^-nu prefactor inside the volumes,

    Phi_1(L) = (omega_nu/(2 pi)^nu) int (L - Vtilde)_+^(nu/2)
    Phi_w(L) = same integrand weighted by w
    E_w(L)   = (omega_nu/(2 pi)^nu) int ((nu/(nu+2)) (L - Vtilde)_+^(1+nu/2)
                                         + Vtilde (L - Vtilde)_+^(nu/2)) w

Phi_1 counts states, E_w is the classical energy below L: the
phase-space integral (2 pi)^-nu int int_{|p|^2 + Vtilde < L}
(|p|^2 + Vtilde) w dp dx of the Berezin / Li-Yau form (Li and Yau 1983,
Comm. Math. Phys. 88; Laptev 1997, J. Funct. Anal. 151).  Its kinetic
part integrates |p|^2 over the ball of radius (L - Vtilde)^(1/2); its
potential part is Vtilde times that ball's volume, summed directly rather
than as L Phi_w minus the rest, which would cancel when Vtilde is large
and negative.  Lambda(k) is the minimal level with Phi_1 >= k; this
normalized reading makes the V = 0 case reproduce the averaged (Kroger)
bound exactly, which the test suite pins down.  The sum bound adds a
correction term driven by the Lipschitz constant of Vtilde on the
sublevel set and the first zero of the Bessel function of order
nu/2 - 1 (the ground state of the nu-ball).

phase_space_tables sorts the quadrature nodes by Vtilde once.  A volume
at any level L then touches only the sublevel prefix {Vtilde < L}: for
odd nu it sums that prefix directly, and for even nu the integer power
expands binomially about the floor min Vtilde, so every whole block of
_BLOCK nodes below L is read from stored prefix moments and fewer than
_BLOCK nodes are summed directly.  Lambda(k) is a root of Phi_1 itself,
found by bracketed secant steps (Anderson-Bjorck regula falsi).  That
takes 6 to 13 volume sweeps per level on the benchmark's oscillator
tables, but 18, 24 and 32 at k = 10, 100 and 1000 on a flat unit
interval, where most sweeps are the doubling probes that bracket a level
far above the floor.

The sort is stable when w varies: tied nodes keep grid order, so their
weights are summed in the same order on every platform, and the
permutation serves only to gather w.  When w is one constant, as for a
Schrodinger operator (w = 1), tied nodes are interchangeable: Vtilde is
sorted in place by numpy's faster unstable sort, with no permutation at
all, and gives the same tables bit for bit.  The weights are then one
broadcast value, and for w = 1 the weighted moments are copies of the
unweighted ones.

The Lipschitz constant of a sublevel set needs no order among the nodes,
only the largest |grad Vtilde|^2 over {Vtilde <= L}.  _LevelIndex
quantises Vtilde monotonically into one bucket per _BUCKET nodes, and
keeps the prefix maximum over the buckets of each bucket's largest
|grad Vtilde|^2, found in one pass over the nodes in grid order.  A lower
bucket lies wholly below a higher one, so a level reads the prefix at the
bucket of the largest node at or below it: the whole bucket, which adds
the nodes of that bucket above the level, about _BUCKET of them on
average.  That can only raise the sampled Lipschitz constant, and with it
the bound.  A level at or above every node of its bucket reads the
sublevel maximum exactly.  The tables of the 1024^2 oscillator build in
about 28 ms and those of the 80^3 one in about 12 ms (one thread, 2 vCPU,
numpy 2.4; the pass relies on ufunc.at, which is fast only since numpy
1.25, the floor pyproject.toml declares).

The tables hold at their peak little more than what they keep, which is
Vtilde, a varying w and the index's prefix maxima, a quarter as many as
the nodes: 1.04x on the 1024^2 oscillator, 1.06x on the 80^3 one, 1.19x
on the 600^2 disk with w = 1 and 1.04x on the 96^3 cube with Vtilde =
exp(xyz) + z^2 (tracemalloc; 10.4, 5.2, 3.2 and 8.8 MiB).  Vtilde and
|grad Vtilde|^2 are evaluated a slab of whole rows, about _CHUNK nodes,
at a time, at the inside nodes only on a masked grid, so a field that is
not finite outside the domain is never formed: Vtilde into its own
buffer, where it is sorted, and |grad Vtilde|^2 into the level index.
With a varying w on a masked grid the permutation becomes grid indices
through a 4-byte index of the inside nodes, and w is gathered into the
permutation's own 8-byte buffer.  The block moments are summed a chunk
of blocks at a time, with the bits of a whole-array sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domains import QuadratureGrid
from .expressions import differentiate, is_constant
from .problem import ProblemSpec
from .report import BoundReport, make_report
from .special import bessel_first_zero, unit_ball_volume
from .spectra import Spectrum

__all__ = [
    "PhaseSpaceData",
    "phase_space_tables",
    "lambda_of_k",
    "phase_space_sum_bound",
]

# nodes per prefix block: a volume query sums fewer than _BLOCK nodes
# directly, and the prefix moments take 1/_BLOCK of the node storage
_BLOCK = 1024
# nodes per chunk (128 KiB of doubles) of the passes over the grid and of
# the block moments, so that their temporaries stay small
_CHUNK = 16 * _BLOCK
# nodes per bucket of the Lipschitz level index, on average: an
# oscillator's levels on a 2-D grid with a spacing of 2^-m are evenly
# spaced and fewer than a quarter as many as the nodes, so no two of them
# share a bucket
_BUCKET = 4
_FIELDS = "effective potential V + |grad rho|^2 or its gradient"


@dataclass
class PhaseSpaceData:
    """Quadrature nodes sorted by Vtilde, with the prefix moments that
    answer every phase-space volume at an arbitrary level, and the level
    index that answers the sublevel Lipschitz constant."""

    nu: int
    vt_nodes: np.ndarray = field(repr=False)    # ascending
    # in vt_nodes order; a read-only broadcast when w is one constant
    w_nodes: np.ndarray = field(repr=False)
    cell_volume: float = field(repr=False)
    # [a, b, j]: sum of w^a (Vtilde - min Vtilde)^j over the first
    # b * _BLOCK nodes, a in {0, 1}; None for odd nu
    block_moments: Optional[np.ndarray] = field(repr=False)
    # max_at(vt_nodes, count): the largest |grad Vtilde|^2 over the
    # buckets of the first count nodes, those at or below a level; the
    # whole bucket of the last one, so never below their own maximum
    lip_index: _LevelIndex = field(repr=False)

    @property
    def prefactor(self) -> float:
        return unit_ball_volume(self.nu) / (2.0 * math.pi) ** self.nu

    def _volume_sum(self, lam: float, power: float, weighted: bool,
                    potential: bool = False) -> float:
        """Sum over the nodes of (lam - vt)_+^power, times w if weighted
        and times vt if potential."""
        vt = self.vt_nodes
        p = int(power)
        below = int(np.searchsorted(vt, lam, side="left"))
        start = 0 if self.block_moments is None else below - below % _BLOCK
        level_gap = lam - vt[start:below]
        if power % 1:
            # odd nu: x^(p + 1/2) as sqrt(x) x^p, twice as fast as np.power,
            # and with no power pass at all for p of 0 or 1
            part = np.sqrt(level_gap)
            if p:
                part *= level_gap if p == 1 else np.power(level_gap, p)
        else:
            part = np.power(level_gap, p)
        if weighted:
            part *= self.w_nodes[start:below]
        if potential:
            part *= vt[start:below]
        head = 0.0
        if start:
            # (lam - vt)^p = sum_j C(p, j) mu^(p-j) (-u)^j with
            # mu = lam - min vt, u = vt - min vt; the factor vt = min vt + u
            # moves each term to the next moment
            moments = self.block_moments[int(weighted), start // _BLOCK]
            floor = float(vt[0])
            mu = lam - floor
            coef = [math.comb(p, j) * mu ** (p - j) * (-1.0) ** j
                    for j in range(p + 1)]
            head = sum(c * float(moments[j]) for j, c in enumerate(coef))
            if potential:
                head = floor * head + sum(c * float(moments[j + 1])
                                          for j, c in enumerate(coef))
        return head + float(part.sum())

    def phi1_at(self, lam: float) -> float:
        return self.prefactor * self.cell_volume * \
            self._volume_sum(lam, self.nu / 2.0, False)

    def phiw_at(self, lam: float) -> float:
        return self.prefactor * self.cell_volume * \
            self._volume_sum(lam, self.nu / 2.0, True)

    def ew_at(self, lam: float) -> float:
        kinetic = (self.nu / (self.nu + 2.0)) * self.prefactor * \
            self.cell_volume * \
            self._volume_sum(lam, 1.0 + self.nu / 2.0, True)
        return kinetic + self.prefactor * self.cell_volume * \
            self._volume_sum(lam, self.nu / 2.0, True, potential=True)

    def lip_at(self, lam: float) -> float:
        """Max of |grad Vtilde| over the nodes in the sublevel set and the
        rest of the bucket of its largest node, 0 if the set is empty: at
        least the sublevel maximum, which only a bucket split by lam
        exceeds."""
        count = int(np.searchsorted(self.vt_nodes, lam, side="right"))
        return math.sqrt(self.lip_index.max_at(self.vt_nodes, count)) \
            if count else 0.0


def _block_moments(vt: np.ndarray, w: np.ndarray, top: int,
                   unit_weight: bool) -> np.ndarray:
    """Moments of the sorted nodes about vt[0] at every block boundary,
    laid out as PhaseSpaceData.block_moments with j = 0..top.  The block
    sums are taken _CHUNK nodes at a time; each is a row sum of its own
    block, so it has the same bits however many rows a chunk holds."""
    blocks = vt.size // _BLOCK
    moments = np.zeros((2, blocks + 1, top + 1))
    rows = _CHUNK // _BLOCK
    for first in range(0, blocks, rows):
        last = min(first + rows, blocks)
        nodes = slice(first * _BLOCK, last * _BLOCK)
        u = (vt[nodes] - vt[0]).reshape(-1, _BLOCK)
        wb = w[nodes].reshape(-1, _BLOCK)
        term = np.ones_like(u)
        for j in range(top + 1):
            if j:
                term *= u
            moments[0, 1 + first:1 + last, j] = term.sum(axis=1)
            if not unit_weight:
                moments[1, 1 + first:1 + last, j] = (term * wb).sum(axis=1)
    if unit_weight:
        # term * 1.0 is term, bit for bit
        moments[1] = moments[0]
    return np.cumsum(moments, axis=1)


def _on_grid(expr, grid: QuadratureGrid) -> np.ndarray:
    """expr evaluated on grid.coords(), in the shape it evaluates to, with
    one axis per grid axis: length 1 along an axis it does not vary on."""
    values = np.asarray(expr.evaluate(grid.coords()), dtype=float)
    if values.ndim == grid.nu:
        return values
    return values.reshape((1,) * (grid.nu - values.ndim) + values.shape)


def _gathered(term: np.ndarray, index: np.ndarray, shape) -> np.ndarray:
    """term, from _on_grid, at the flat grid indices index.  It is indexed
    only along the axes it varies on: its own flat index is built from the
    grid index by one division and one remainder per such axis."""
    flat = index
    if term.shape != shape:
        flat, stride, step = 0, 1, 1
        for axis in reversed(range(len(shape))):
            if term.shape[axis] > 1:
                along = index // stride if stride > 1 else index
                if axis:
                    along = along % shape[axis]
                flat = along if step == 1 else flat + along * step
                step *= shape[axis]
            stride *= shape[axis]
    # a term that varies on no axis is one value
    return np.broadcast_to(term.reshape(-1)[flat], index.shape)


def _slab_sums(exprs: list, grid: QuadratureGrid, out=None, square=False):
    """The sum in list order ((0 + t0) + t1) + t2 of exprs, each squared
    if square, at the inside nodes in grid order, a slab of whole rows of
    the first axis, about _CHUNK nodes, at a time.  On a full grid a term
    is evaluated at the slab's coordinates in the shape it evaluates to
    ((rows, 1) for a term in x alone), on a masked grid at the slab's
    inside nodes only, so no field is read outside the domain.  Yields the
    slice of the inside nodes in a slab and the sum at them: in out[slice]
    when out is given, else in one buffer that the next slab overwrites."""
    shape, full = grid.shape, grid.mask.all()
    row = math.prod(shape[1:])
    rows = max(1, _CHUNK // row)
    buffer = np.empty(rows * row) if out is None else None
    found = 0
    for first in range(0, shape[0], rows):
        part = slice(first, first + rows)
        points = grid.coords(part)
        if full:
            slab = (min(rows, shape[0] - first),) + shape[1:]
        else:
            inside = grid.mask[part]
            points = tuple(np.broadcast_to(c, inside.shape)[inside]
                           for c in points)
            slab = points[0].shape
        size = math.prod(slab)
        nodes = slice(found, found + size)
        found += size
        total = (buffer[:size] if out is None else out[nodes]).reshape(slab)
        for i, expr in enumerate(exprs):
            term = np.asarray(expr.evaluate(points), dtype=float)
            if square:
                # in the evaluation's own buffer, unless it is a coordinate
                term = np.square(term, out=None if any(
                    term is c for c in points) else term)
            if i:
                total += term
            else:
                # -0 + 0 = +0: tied zeros are one key, which an unstable
                # sort cannot place apart from the permutation
                np.add(term, 0.0, out=total)
            # no term is held while the next evaluates, or while the
            # caller reads the slab
            del term
        del points
        yield nodes, total.reshape(-1)


class _LevelIndex:
    """The largest |grad Vtilde|^2 over the buckets of the nodes at or
    below a level.

    A monotone map of [min Vtilde, max Vtilde] puts Vtilde into about one
    bucket per _BUCKET nodes, so every node of a lower bucket lies below
    every node of a higher one; prefix[b] is the largest |grad Vtilde|^2
    over buckets 0..b.  A level reads prefix at the bucket of the largest
    node at or below it, which covers the whole bucket: a level strictly
    between two values of one bucket reads the nodes of that bucket above
    it too, so the maximum it reads never falls below the sublevel one."""

    def __init__(self, vt: np.ndarray, chunks):
        """vt is Vtilde at the inside nodes, and chunks its slices paired
        with |grad Vtilde|^2 at the same nodes."""
        # halves: no difference of two values overflows.  A scale that
        # does (a range in the subnormals) or a flat Vtilde puts every
        # node in bucket 0.  No node maps past (buckets - 1)(1 + 2^-52)
        buckets = max(1, vt.size // _BUCKET)
        self.floor = 0.5 * float(vt.min())
        span = 0.5 * float(vt.max()) - self.floor
        scale = (buckets - 1) / span if span > 0 else 0.0
        self.scale = scale if math.isfinite(scale) else 0.0
        self.prefix = np.zeros(buckets)
        for v, grad_sq in chunks:
            np.maximum.at(self.prefix, self.buckets(v), grad_sq)
        np.maximum.accumulate(self.prefix, out=self.prefix)

    def buckets(self, v: np.ndarray) -> np.ndarray:
        x = v * 0.5
        x -= self.floor
        x *= self.scale
        return x.astype(np.intp)

    def max_at(self, vt: np.ndarray, count: int) -> float:
        """Largest |grad Vtilde|^2 over the buckets of the first count > 0
        of the sorted nodes vt."""
        return float(self.prefix[self.buckets(vt[count - 1:count])[0]])


def phase_space_tables(problem: ProblemSpec,
                       grid: QuadratureGrid) -> PhaseSpaceData:
    """Sort the inside nodes of grid by Vtilde, store the prefix moments,
    so that every volume can be evaluated at any level, and index the
    sublevel maxima of |grad Vtilde|."""
    # a varying w needs a stable sort, since the order of tied nodes sets
    # the order in which their weights are summed.  With one constant w
    # any tie order gives the same vt, weights and moments, and no
    # permutation is needed at all
    weight = float(problem.w.evaluate(())) if is_constant(problem.w) \
        else None
    kind = "stable" if weight is None else None
    vt_expr = problem.effective_potential()
    vt = np.empty(int(grid.mask.sum()))
    with problem.naming_fields(_FIELDS):
        for _ in _slab_sums([vt_expr], grid, out=vt):
            pass
    w_field = None if weight is not None else _on_grid(problem.w, grid)
    # the gradient is evaluated after vt and w, whose errors report first
    with problem.naming_fields(_FIELDS):
        partials = [differentiate(vt_expr, axis) for axis in range(grid.nu)]
        index = _LevelIndex(vt, ((vt[nodes], grad_sq) for nodes, grad_sq
                                 in _slab_sums(partials, grid, square=True)))
    if weight is None:
        order = np.argsort(vt, kind=kind)
        if not grid.mask.all():
            # grid indices, a chunk at a time: a chunk's inside indices are
            # read before its slots are written.  The index is built a grid
            # chunk at a time, in 4-byte slots where the grid allows
            flat = grid.mask.reshape(-1)
            inside = np.empty(order.size, dtype=np.int32 if flat.size <=
                              np.iinfo(np.int32).max else np.intp)
            found = 0
            for start in range(0, flat.size, _CHUNK):
                nodes = start + np.flatnonzero(flat[start:start + _CHUNK])
                inside[found:found + nodes.size] = nodes
                found += nodes.size
            for start in range(0, order.size, _CHUNK):
                chunk = slice(start, start + _CHUNK)
                order[chunk] = inside[order[chunk]]
            del inside
        # w goes into sorted order a chunk at a time, into the
        # permutation's own 8-byte buffer: a chunk's indices are read
        # before its slots are written
        w = order.view(np.float64) if order.itemsize == 8 \
            else np.empty(order.size)
        for start in range(0, order.size, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            w[chunk] = _gathered(w_field, order[chunk], grid.shape)
        del order, w_field
    else:
        w = np.broadcast_to(weight, vt.shape)
    vt.sort(kind=kind)

    moments = None
    if problem.nu % 2 == 0:
        moments = _block_moments(vt, w, problem.nu // 2 + 1, weight == 1.0)
    return PhaseSpaceData(
        nu=problem.nu, vt_nodes=vt, w_nodes=w,
        cell_volume=grid.cell_volume, block_moments=moments,
        lip_index=index)


def lambda_of_k(psd: PhaseSpaceData, k: float) -> float:
    """Minimal level with Phi_1(Lambda) >= k.

    The bracket starts at the floor of Vtilde, where Phi_1 = 0, and its top
    steps up by g, doubled from max(1, |floor|), until Phi_1 reaches k.
    Regula falsi with the Anderson-Bjorck weight closes it: an end kept
    twice in a row has its residual scaled down, so the secant turns
    towards it.  A step keeps a few ulps off both ends, so a secant that
    lands on the root is settled by the next one, and it bisects where the
    secant leaves the bracket or the last three steps did not halve it (a
    kink of Phi_1 at a node, seen at ulp scale).  Every level goes through
    phi1_at, and the bracket keeps Phi_1(lo) < k <= Phi_1(hi).  It stops
    at a width of 1e-15 max(1, |hi|) once Phi_1(hi) lands within 1e-6
    relative of k.  A level below 1 that has not landed there keeps
    closing, to 1e-15 max(|hi|, min(1, hi - floor)): relative to the
    level, or to its height above a negative floor, so that it settles
    even where Phi_1 climbs from 0 to k within 1e-15 of the floor.  Both
    widths are at least two ulps of hi, so a level near a floor of 0 in
    the subnormal range stops too.  A level whose Phi_1 still does not
    land is refused with a ValueError."""
    if k <= 0:
        raise ValueError("k must be positive")
    floor = float(psd.vt_nodes[0])
    lo, f_lo = floor, -float(k)
    gap = max(1.0, abs(floor))
    while True:
        hi = floor + gap
        value = psd.phi1_at(hi)
        if value >= k:
            break
        lo, f_lo = hi, value - k
        gap *= 2.0
    f_hi = value - k
    moved = 1                       # the end the last step moved: +1 hi
    spans = [math.inf] * 3          # the bracket three to one steps back
    # near machine-tight: the flat-potential coincidence checks compare
    # the resulting bound at absolute 1e-10 scale
    tight = False
    while True:
        unit = min(1.0, hi - floor) if tight else 1.0
        # a bracket wider than two ulps of hi has a float strictly inside
        # for the next step; at a subnormal level 1e-15 |hi| is below an
        # ulp of hi, or underflows to 0, and could never be reached
        if hi - lo <= max(1e-15 * max(unit, abs(hi)), 2.0 * math.ulp(hi)):
            if tight or value <= k * (1.0 + 1e-6):
                break
            tight = True
            continue
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo <= x <= hi or hi - lo > 0.5 * spans[0]:
            x = 0.5 * (lo + hi)
            moved = 0
        spans = spans[1:] + [hi - lo]
        nudge = min(0.5e-15 * max(unit, abs(lo), abs(hi)), 0.5 * (hi - lo))
        x = min(max(x, lo + nudge), hi - nudge)
        phi = psd.phi1_at(x)
        f_x = phi - k
        if f_x >= 0:
            if moved > 0:
                m = 1.0 - f_x / f_hi if f_hi else 0.5
                f_lo *= m if m > 0 else 0.5
            hi, f_hi, value, moved = x, f_x, phi, 1
        else:
            if moved < 0:
                m = 1.0 - f_x / f_lo
                f_hi *= m if m > 0 else 0.5
            lo, f_lo, moved = x, f_x, -1
    if not (k <= value <= k * (1.0 + 1e-6)):
        # the level is settled to about 1e-15 relative only, which is too
        # coarse when Phi_1 climbs from 0 to k over less than about 1e-9
        # of the level (a tiny fractional k right above the floor)
        raise ValueError(
            f"Lambda(k) for k = {k:.6g} cannot be resolved: Phi_1 at the "
            f"settled level {hi:.6g} is {value:.6g}, not within 1e-6 "
            "relative of k")
    return hi


def phase_space_sum_bound(k: int, psd: PhaseSpaceData,
                          spectrum: Spectrum) -> BoundReport:
    """Eigenvalue-sum bound from phase-space volumes:

        sum_{j<k} mu_j <= E_w(Lambda(k))
                          + 3 (2 j^2 L)^(1/3) Phi_w(Lambda(k) + (2 j^2 L)^(1/3))

    with L the Lipschitz constant of Vtilde on the sublevel set and j the
    first zero of the Bessel function of order nu/2 - 1.
    When L = 0 the bound is E_w(Lambda(k)) alone.  The spectrum is read
    first, so a k beyond it is refused before any node sweep.
    """
    computed = spectrum.partial_sum(k)
    lam_k = lambda_of_k(psd, k)
    lip = psd.lip_at(lam_k)
    notes = ["level rule: minimal Lambda with normalized Phi_1 >= k",
             "Lipschitz constant grid-sampled (possible underestimate)"]

    if lip == 0.0:
        bound = psd.ew_at(lam_k)
        notes.append("flat effective potential: bound is E_w(Lambda(k))")
    else:
        order = 0.5 * psd.nu - 1.0
        j = bessel_first_zero(order)
        shift = (2.0 * j * j * lip) ** (1.0 / 3.0)
        bound = psd.ew_at(lam_k) + 3.0 * shift * psd.phiw_at(lam_k + shift)
        notes.append(f"Bessel order {order:g}, first zero {j:.12g}")

    return make_report("phase-space-sum", k, bound, computed, "upper",
                       notes=tuple(notes))
