"""Finite-dimensional verifier of the averaged variational principle.

For a symmetric matrix H with eigenpairs (mu_j, psi_j) and a weighted
family of test vectors {(f, w)}, the principle states

    sum_j (z - mu_j)_+  sum_f w |<psi_j, f>|^2
        >= sum_{f in subset} w (z ||f||^2 - <f, H f>) = z W0 - E0

for every z and every subset of the family.  Equality holds when the
family is an orthonormal eigenbasis and the subset collects exactly the
eigenvectors with mu <= z.  The tight-frame corollary specializes the
subset choice to bound averages of the lowest eigenvalues by averages of
Rayleigh quotients.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .report import BoundReport, make_report

__all__ = ["avp_check", "tight_frame_bound", "frame_constant"]

Family = Sequence[Tuple[np.ndarray, float]]


def _family(n: int, family: Family):
    """The family as columns F (n x m) and weights w, each w > 0."""
    vectors = [np.asarray(f, dtype=float) for f, _ in family]
    w = np.array([weight for _, weight in family], dtype=float)
    for f in vectors:
        if f.shape != (n,):
            raise ValueError(
                f"family vector of shape {f.shape} does not match dim {n}")
    if not (w > 0).all():
        raise ValueError("family weights must be positive")
    return np.column_stack(vectors), w


def _validate(Hmat: np.ndarray, family: Family, subset: Sequence[int]):
    """H, F, w and the subset's sums W0 = sum w ||f||^2 and
    E0 = sum w <f, H f>; the subset must hold distinct indices in range."""
    H = np.asarray(Hmat, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got shape {H.shape}")
    scale = np.abs(H).max() or 1.0
    if np.abs(H - H.T).max() > 1e-12 * scale:
        raise ValueError("H must be symmetric")
    F, w = _family(H.shape[0], family)
    idx = list(subset)
    if not all(isinstance(i, (int, np.integer)) and type(i) is not bool
               and 0 <= i < len(w) for i in idx) or len(set(idx)) < len(idx):
        raise ValueError(
            f"subset must hold distinct integer indices in [0, {len(w)})")
    Fs, ws = F[:, idx], w[idx]
    return (H, F, w, float(ws @ (Fs * Fs).sum(axis=0)),
            float(ws @ (Fs * (H @ Fs)).sum(axis=0)))


def _frame_constant(F: np.ndarray, w: np.ndarray) -> float:
    t = (F * w) @ F.T
    a = float(np.trace(t)) / len(t)
    if np.abs(t - a * np.eye(len(t))).max() > 1e-9 * max(a, 1.0):
        raise ValueError("family is not a tight frame")
    return a


def avp_check(Hmat: np.ndarray, family: Family,
              subset: Sequence[int], z: float) -> BoundReport:
    """Evaluate both sides of the averaged variational principle."""
    H, F, w, w0, e0 = _validate(Hmat, family, subset)
    mu, psi = np.linalg.eigh(H)
    proj = psi.T @ F                      # proj[j, zeta] = <psi_j, f_zeta>
    lhs = float(np.clip(z - mu, 0.0, None) @ (proj ** 2 @ w))
    return make_report("avp", z, z * w0 - e0, lhs, "lower")


def frame_constant(Hmat_dim: int, family: Family) -> float:
    """Frame constant A with sum_f w f f^T = A I; raises if not tight."""
    return _frame_constant(*_family(Hmat_dim, family))


def tight_frame_bound(Hmat: np.ndarray, family: Family,
                      subset: Sequence[int], k: int) -> BoundReport:
    """Tight-frame corollary: with frame constant A and
    W0 = sum_{subset} w ||f||^2,

        (1/k) sum_{j<k} mu_j <= (mu_k (A k - W0) + E0) / (A k),

    E0 the weighted Rayleigh-quotient numerator sum over the subset.  The
    right side needs (W0 - A k) mu_k >= 0 to simplify to E0/(A k); the
    report keeps the exact form, so it is valid unconditionally.
    """
    H, F, w, w0, e0 = _validate(Hmat, family, subset)
    if not 1 <= k < len(H):
        raise ValueError(f"k must be in [1, {len(H) - 1}]")
    a = _frame_constant(F, w)
    mu = np.linalg.eigvalsh(H)
    bound = (mu[k] * (a * k - w0) + e0) / (a * k)
    computed = float(mu[:k].sum()) / k
    return make_report("avp-tight-frame", k, bound, computed, "upper",
                       notes=(f"frame constant A = {a:.12g}, subset mass "
                              f"W0 = {w0:.12g}",))
