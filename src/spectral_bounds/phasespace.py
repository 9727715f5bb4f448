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
sublevel set and the first zero of a Bessel function whose order is
exposed for sensitivity runs because the choice nu/2 - 1 (ground state of
the nu-ball) is adopted here.

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
bucket lies wholly below a higher one, so a level at or above every node
of its bucket reads that prefix exactly.  The tables of the 1024^2
oscillator build in about 40 ms and those of the 80^3 one in about 15 ms
(one thread, 2 vCPU, numpy 2.4; the pass relies on ufunc.at, which is
fast only since numpy 1.25, and older numpy was not measured).

A level strictly between two values of one bucket also needs the nodes
of that bucket below it.  The first such query evaluates the fields
again, on a grid built anew from the domain and the node counts (the
tables keep no grid), and keeps, sorted, the nodes that can matter.  It
is left to that query because most tables never make it: no Lambda(k) of
the benchmark's tables does, nor, up to k = 2000, of the oscillator on
the 600^2 disk or L-shape.  No two of an oscillator's levels share a
bucket in 2-D on a grid with a spacing of 2^-m, and elsewhere mostly
values a few ulps apart do.  Yet on the 80^3 oscillator those are 83% of
the nodes, and sorting them takes twice as long as the build.  Levels off
a lattice (V = x^2 + y^2 + 0.1 x) split a bucket at the first Lambda(k).
The query holds beside the tables one evaluation of Vtilde, the top
value of each bucket and four 8-byte arrays of the nodes that can
matter.  On that potential's 512^2 grid the tables and the query take
31 ms and peak at 8.1 MiB, where tables that sorted every node to read
the Lipschitz constant took 20 ms and 4.4 MiB.

The tables hold at their peak little more than what they keep, which is
Vtilde, a varying w and the index's prefix maxima, a quarter as many as
the nodes: 1.04x on the 1024^2 oscillator, 1.06x on the 80^3 one and
1.24x on the 600^2 disk with w = 1 (tracemalloc; 10.4, 5.2 and 3.3 MiB).
The squared partials are evaluated first, each in the shape it evaluates
to ((n, 1) for a term in x alone); those that span the grid fold into
one running sum, so a non-separable Vtilde holds one grid-sized array,
not one per axis.  Vtilde is then evaluated into a buffer of its own and
sorted in place.  On a masked grid its inside values move to the front
of that buffer a chunk at a time, and the buffer shrinks to them, so
Vtilde is never held twice.  |grad Vtilde|^2 is summed a chunk at a
time, in the order of the whole-grid sum: on a full grid over slabs of
whole rows, on a masked grid at the inside nodes only, each term read
along the axes it varies on, so a gradient that overflows only outside a
masked domain is never formed.  With a varying w on a masked grid the
permutation becomes grid indices through a 4-byte index of the inside
nodes, and w is gathered into the permutation's own 8-byte buffer.  The
block moments are summed a chunk of blocks at a time, with the bits of a
whole-array sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domains import QuadratureGrid
from .expressions import FieldEvaluationError, differentiate, is_constant
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
    # max_at(vt_nodes, count, lam): the largest |grad Vtilde|^2 over the
    # first count nodes, those at or below lam
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
        """Max of |grad Vtilde| over nodes in the sublevel set, 0 if none."""
        count = int(np.searchsorted(self.vt_nodes, lam, side="right"))
        return math.sqrt(self.lip_index.max_at(self.vt_nodes, count, lam)) \
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


def _squared_partials(vt_expr, grid: QuadratureGrid) -> list:
    """|grad Vtilde|^2 as terms whose sum in list order has the bits of
    the whole-grid sum ((0 + t0) + t1) + t2 of the squared partials: each
    in the shape it evaluates to, except that every partial up to the
    last one spanning the grid is folded, in that order, into one running
    grid-sized sum.  Addition commutes bit for bit, so a spanning partial
    takes the sum before it in place."""
    terms, folded = [], None
    for axis in range(grid.nu):
        t = _on_grid(differentiate(vt_expr, axis), grid)
        if t.shape != grid.shape:
            terms.append(np.square(t))
            continue
        # a fresh evaluation (or a coordinate array of this evaluation
        # only) is squared in its own buffer
        np.square(t, out=t)
        if folded is None:
            if terms:
                t += sum(terms[1:], terms[0])
            folded = t
        else:
            for term in terms:
                folded += term
            folded += t
        del t
        terms = []
    return terms if folded is None else [folded] + terms


def _gathered(terms: list, index: np.ndarray, shape) -> np.ndarray:
    """Sum in list order of terms from _on_grid or _squared_partials at the
    flat grid indices index.  A term is indexed only along the axes it
    varies on: its own flat index is built from the grid index by one
    division and one remainder per such axis."""
    total = None
    for term in terms:
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
        part = term.reshape(-1)[flat]
        if total is None:
            total = part
        else:
            total += part
    # terms that vary on no axis sum to one value
    return np.broadcast_to(total, index.shape)


def _evaluated(problem: ProblemSpec, grid: QuadratureGrid):
    """Vtilde at the inside nodes in grid order, in a writable buffer of
    its own and with -0 read as +0, and the terms of |grad Vtilde|^2 from
    _squared_partials, or the error that evaluating them raised.  The
    partials are evaluated first, while no node-sized array is held, so
    that a running grid-sized sum and its partials' evaluation come
    before, not on top of, Vtilde."""
    vt_expr = problem.effective_potential()
    with problem.naming_fields(_FIELDS):
        try:
            grad_sq = _squared_partials(vt_expr, grid)
        except (FieldEvaluationError, FloatingPointError) as exc:
            grad_sq = exc
        values = _on_grid(vt_expr, grid)
    if values.shape == grid.shape and values.flags.c_contiguous and \
            values.flags.owndata and values.flags.writeable:
        vt = values.reshape(-1)
        if not grid.mask.all():
            # the inside values move to the front of the evaluation a chunk
            # at a time (a chunk is read before its slots are written), and
            # the buffer shrinks to them: Vtilde is never held twice
            flat, found = grid.mask.reshape(-1), 0
            for start in range(0, flat.size, _CHUNK):
                inside = vt[start:start + _CHUNK][flat[start:start + _CHUNK]]
                vt[found:found + inside.size] = inside
                found += inside.size
            # no view of the buffer is left, so it can shrink in place
            del vt, inside
            values.resize(found, refcheck=False)
            vt = values
    else:
        vt = grid.inside_values(values)
        vt = vt if vt.flags.writeable else vt.copy()
    # -0 + 0 = +0: tied zeros are one key, which an unstable sort cannot
    # place apart from the permutation
    vt += 0.0
    return vt, grad_sq


def _node_chunks(vt: np.ndarray, terms: list, grid: QuadratureGrid):
    """Pairs of Vtilde and |grad Vtilde|^2 at the inside nodes, in grid
    order and about _CHUNK nodes at a time.  On a full grid a chunk is a
    slab of whole rows of the first axis, and each term is sliced to it;
    on a masked grid it is the inside nodes among _CHUNK grid nodes, read
    by _gathered.  Either way the terms are summed in list order, with the
    bits of the whole-grid sum, and at inside nodes only."""
    shape = grid.shape
    if grid.mask.all():
        row = vt.size // shape[0]
        rows = max(1, _CHUNK // row)
        for first in range(0, shape[0], rows):
            part = slice(first, first + rows)
            slab = [t[part] if t.shape[0] > 1 else t for t in terms]
            grad_sq = np.empty((min(rows, shape[0] - first),) + shape[1:])
            # a lone square plus 0.0 is the square: none is -0
            np.add(slab[0], slab[1] if len(slab) > 1 else 0.0, out=grad_sq)
            for term in slab[2:]:
                grad_sq += term
            yield vt[first * row:first * row + grad_sq.size], \
                grad_sq.reshape(-1)
        return
    flat, found = grid.mask.reshape(-1), 0
    for start in range(0, flat.size, _CHUNK):
        index = start + np.flatnonzero(flat[start:start + _CHUNK])
        yield vt[found:found + index.size], _gathered(terms, index, shape)
        found += index.size


def _grid_nodes(problem: ProblemSpec, domain, shape):
    """_node_chunks from a fresh evaluation of the fields, which gives the
    bits the tables were built from, on a grid built anew from the domain
    and the node counts, so that the tables keep no grid."""
    grid = QuadratureGrid(domain, shape)
    return _node_chunks(*_evaluated(problem, grid), grid)


class _LevelIndex:
    """The largest |grad Vtilde|^2 over the nodes at or below a level.

    A monotone map of [min Vtilde, max Vtilde] puts Vtilde into about one
    bucket per _BUCKET nodes, so every node of a lower bucket lies below
    every node of a higher one; prefix[b] is the largest |grad Vtilde|^2
    over buckets 0..b.  A level at or above every node of its bucket reads
    prefix alone.  A level strictly between two values of one bucket also
    reads split_levels, built on the first such query."""

    def __init__(self, vt: np.ndarray, chunks, nodes):
        """vt is Vtilde at the inside nodes, chunks its pairs with
        |grad Vtilde|^2 from _node_chunks, and nodes a callable that
        yields those pairs again."""
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
        self.nodes = nodes
        self._split = None

    def buckets(self, v: np.ndarray) -> np.ndarray:
        x = v * 0.5
        x -= self.floor
        x *= self.scale
        return x.astype(np.intp)

    def max_at(self, vt: np.ndarray, count: int, lam: float) -> float:
        """Largest |grad Vtilde|^2 over the first count > 0 of the sorted
        nodes vt, which are those at or below lam."""
        b = self.buckets(vt[count - 1:count + 1])
        if b.size == 1 or b[1] != b[0]:
            return float(self.prefix[b[0]])
        below = float(self.prefix[b[0] - 1]) if b[0] else 0.0
        levels, maxima = self.split_levels(vt)
        at = int(np.searchsorted(levels, lam, side="right"))
        return max(below, float(maxima[at - 1])) if at else below

    def split_levels(self, vt: np.ndarray):
        """Vtilde ascending at each node below the top value of its bucket
        whose |grad Vtilde|^2 exceeds prefix at the bucket before, and the
        running maximum of that |grad Vtilde|^2 where it rises.  A node of
        an earlier bucket never exceeds that prefix, so at a level this
        adds exactly the nodes of the level's own bucket below it."""
        if self._split is None:
            top = np.full(self.prefix.size, -np.inf)
            for start in range(0, vt.size, _CHUNK):
                v = vt[start:start + _CHUNK]
                np.maximum.at(top, self.buckets(v), v)
            below = np.concatenate(([-np.inf], self.prefix[:-1]))
            levels, maxima = [], []
            for v, grad_sq in self.nodes():
                b = self.buckets(v)
                keep = v < top[b]
                keep &= grad_sq > below[b]
                levels.append(v[keep])
                maxima.append(grad_sq[keep])
            # the last chunk is a view of the evaluated Vtilde
            del v, grad_sq, top, below
            levels = np.concatenate(levels)
            order = np.argsort(levels)
            maxima = np.concatenate(maxima)
            maxima = maxima[order]
            del order
            # the values of levels[order], sorted in place
            levels.sort()
            np.maximum.accumulate(maxima, out=maxima)
            rises = np.diff(maxima, prepend=-np.inf) > 0
            self._split = levels[rises], maxima[rises]
        return self._split


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
    vt, grad_sq = _evaluated(problem, grid)
    w_field = None if weight is not None else _on_grid(problem.w, grid)
    # the gradient's error waits until vt and w have evaluated, which
    # report first
    with problem.naming_fields(_FIELDS):
        if isinstance(grad_sq, Exception):
            raise grad_sq
        index = _LevelIndex(vt, _node_chunks(vt, grad_sq, grid),
                            functools.partial(_grid_nodes, problem,
                                              grid.domain, grid.shape))
    del grad_sq
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
            w[chunk] = _gathered([w_field], order[chunk], grid.shape)
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


def phase_space_sum_bound(k: int, psd: PhaseSpaceData, spectrum: Spectrum,
                          bessel_order: Optional[float] = None,
                          lip_override: Optional[float] = None) -> BoundReport:
    """Eigenvalue-sum bound from phase-space volumes:

        sum_{j<k} mu_j <= E_w(Lambda(k))
                          + 3 (2 j^2 L)^(1/3) Phi_w(Lambda(k) + (2 j^2 L)^(1/3))

    with L the Lipschitz constant of Vtilde on the sublevel set and j the
    first zero of the Bessel function of order nu/2 - 1 (overridable).
    When L = 0 the bound is E_w(Lambda(k)) alone.  The spectrum is read
    first, so a k beyond it is refused before any node sweep.
    """
    computed = spectrum.partial_sum(k)
    lam_k = lambda_of_k(psd, k)

    order = 0.5 * psd.nu - 1.0 if bessel_order is None else bessel_order
    notes = ["level rule: minimal Lambda with normalized Phi_1 >= k"]
    if lip_override is not None:
        lip = float(lip_override)
        notes.append(f"Lipschitz constant user-supplied: {lip:.12g}")
    else:
        lip = psd.lip_at(lam_k)
        notes.append("Lipschitz constant grid-sampled "
                     "(possible underestimate)")

    if lip == 0.0:
        bound = psd.ew_at(lam_k)
        notes.append("flat effective potential: bound is E_w(Lambda(k))")
    else:
        j = bessel_first_zero(order)
        shift = (2.0 * j * j * lip) ** (1.0 / 3.0)
        bound = psd.ew_at(lam_k) + 3.0 * shift * psd.phiw_at(lam_k + shift)
        notes.append(f"Bessel order {order:g}, first zero {j:.12g}")

    return make_report("phase-space-sum", k, bound, computed, "upper",
                       notes=tuple(notes))
