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
_BLOCK nodes are summed directly.  The Lipschitz constant of a sublevel
set is a running maximum over the sorted nodes, read at the end of a
group of tied nodes, and Lambda(k) is a root of Phi_1 itself, found by
bracketed secant steps (Anderson-Bjorck regula falsi) in about a dozen
volume sweeps.

The sort is stable when w varies: tied nodes keep grid order, so their
weights are summed in the same order on every platform.  When w is one
constant, as for a Schrodinger operator (w = 1), tied nodes are
interchangeable and numpy's faster unstable sort gives the same tables
bit for bit.  The weights are then one broadcast value, and for w = 1
the weighted moments are copies of the unweighted ones.

The tables hold at their peak little more than what they keep.  Vtilde
is sorted (and a varying w gathered into that order) before
|grad Vtilde|^2 is evaluated; the gradient is then gathered into sorted
order a chunk at a time in the sort permutation's own 8-byte buffer,
which becomes lip_nodes, and the block moments are summed a chunk of
blocks at a time, with the bits of a whole-array sum.
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
# nodes per chunk (128 KiB of doubles) of the sorted gather of |grad Vtilde|^2
# and of the block moments, so that their temporaries stay small
_CHUNK = 16 * _BLOCK


@dataclass
class PhaseSpaceData:
    """Quadrature nodes sorted by Vtilde, with the prefix moments that
    answer every phase-space volume at an arbitrary level."""

    nu: int
    vt_nodes: np.ndarray = field(repr=False)    # ascending
    # in vt_nodes order; a read-only broadcast when w is one constant
    w_nodes: np.ndarray = field(repr=False)
    lip_nodes: np.ndarray = field(repr=False)   # running max of |grad Vtilde|
    cell_volume: float = field(repr=False)
    # [a, b, j]: sum of w^a (Vtilde - min Vtilde)^j over the first
    # b * _BLOCK nodes, a in {0, 1}; None for odd nu
    block_moments: Optional[np.ndarray] = field(repr=False)

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
        return float(self.lip_nodes[count - 1]) if count else 0.0


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


def phase_space_tables(problem: ProblemSpec,
                       grid: QuadratureGrid) -> PhaseSpaceData:
    """Sort the inside nodes of grid by Vtilde and store the prefix
    moments, so that every volume can be evaluated at any level."""
    vt_expr = problem.effective_potential()
    fields = "effective potential V + |grad rho|^2 or its gradient"
    with problem.naming_fields(fields):
        vt = np.asarray(grid.inside_values(vt_expr), dtype=float)
    # a varying w needs a stable sort, since the order of tied nodes sets
    # the order in which their weights are summed.  With one constant w
    # any tie order gives the same vt, weights and moments, and lip_at
    # reads the running maximum only at the end of a tie group
    weight = float(problem.w.evaluate(())) if is_constant(problem.w) \
        else None
    order = np.argsort(vt, kind="stable" if weight is None else None)
    vt = vt[order]
    if weight is None:
        w = np.asarray(grid.inside_values(problem.w), dtype=float)[order]
    else:
        w = np.broadcast_to(weight, vt.shape)

    # |grad Vtilde|^2 goes into sorted order in the permutation's own
    # 8-byte buffer, a chunk at a time: a chunk's indices are read before
    # its slots are written
    with problem.naming_fields(fields):
        # each partial is squared in the shape it evaluates to, (n, 1) for
        # a term in x alone, before the sum broadcasts to the grid
        grad_sq = grid.inside_values(sum(np.asarray(differentiate(
            vt_expr, axis).evaluate(grid.coords()), dtype=float) ** 2
            for axis in range(problem.nu)))
    lip_nodes = order.view(np.float64) if order.itemsize == 8 \
        else np.empty(order.size)
    for start in range(0, order.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        lip_nodes[chunk] = grad_sq[order[chunk]]
    del grad_sq, order
    np.maximum.accumulate(lip_nodes, out=lip_nodes)
    np.sqrt(lip_nodes, out=lip_nodes)

    moments = None
    if problem.nu % 2 == 0:
        moments = _block_moments(vt, w, problem.nu // 2 + 1, weight == 1.0)
    return PhaseSpaceData(
        nu=problem.nu, vt_nodes=vt, w_nodes=w, lip_nodes=lip_nodes,
        cell_volume=grid.cell_volume, block_moments=moments)


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
