"""Finite-dimensional verifier of the averaged variational principle.

For a symmetric matrix H with eigenpairs (mu_j, psi_j) and a weighted
family of test vectors {(f, w)}, the principle states

    sum_j (z - mu_j)_+  sum_f w |<psi_j, f>|^2
        >= sum_{f in subset} w (z ||f||^2 - <f, H f>)

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


def _validate(Hmat: np.ndarray, family: Family):
    H = np.asarray(Hmat, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got shape {H.shape}")
    scale = np.abs(H).max() or 1.0
    if np.abs(H - H.T).max() > 1e-12 * scale:
        raise ValueError("H must be symmetric")
    n = H.shape[0]
    vectors = []
    weights = []
    for f, w in family:
        f = np.asarray(f, dtype=float)
        if f.shape != (n,):
            raise ValueError(
                f"family vector of shape {f.shape} does not match dim {n}")
        if w <= 0:
            raise ValueError("family weights must be positive")
        vectors.append(f)
        weights.append(float(w))
    return H, np.column_stack(vectors), np.array(weights)


def avp_check(Hmat: np.ndarray, family: Family,
              subset: Sequence[int], z: float) -> BoundReport:
    """Evaluate both sides of the averaged variational principle."""
    H, F, w = _validate(Hmat, family)
    subset = list(subset)
    if subset and not (0 <= min(subset) and max(subset) < F.shape[1]):
        raise ValueError("subset indices out of range")

    mu, psi = np.linalg.eigh(H)
    proj = psi.T @ F                      # proj[j, zeta] = <psi_j, f_zeta>
    lhs = float(np.clip(z - mu, 0.0, None) @ (proj ** 2 @ w))

    rhs = 0.0
    for zeta in subset:
        f = F[:, zeta]
        rhs += w[zeta] * (z * float(f @ f) - float(f @ (H @ f)))

    return make_report("avp", z, rhs, lhs, "lower")


def frame_constant(Hmat_dim: int, family: Family) -> float:
    """Frame constant A with sum_f w f f^T = A I; raises if not tight."""
    t = np.zeros((Hmat_dim, Hmat_dim))
    for f, w in family:
        f = np.asarray(f, dtype=float)
        t += w * np.outer(f, f)
    a = float(np.trace(t)) / Hmat_dim
    if np.abs(t - a * np.eye(Hmat_dim)).max() > 1e-9 * max(a, 1.0):
        raise ValueError("family is not a tight frame")
    return a


def tight_frame_bound(Hmat: np.ndarray, family: Family,
                      subset: Sequence[int], k: int) -> BoundReport:
    """Tight-frame corollary: with frame constant A and
    W0 = sum_{subset} w ||f||^2,

        (1/k) sum_{j<k} mu_j <= (mu_k (A k - W0) + E0) / (A k),

    E0 the weighted Rayleigh-quotient numerator sum over the subset.  The
    right side needs (W0 - A k) mu_k >= 0 to simplify to E0/(A k); the
    report keeps the exact form, so it is valid unconditionally.
    """
    H, F, w = _validate(Hmat, family)
    n = H.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}]")
    a = frame_constant(n, family)
    mu = np.linalg.eigh(H)[0]

    w0 = 0.0
    e0 = 0.0
    for zeta in subset:
        f = F[:, zeta]
        w0 += w[zeta] * float(f @ f)
        e0 += w[zeta] * float(f @ (H @ f))

    bound = (mu[k] * (a * k - w0) + e0) / (a * k)
    computed = float(mu[:k].sum()) / k
    return make_report("avp-tight-frame", k, bound, computed, "upper",
                       notes=(f"frame constant A = {a:.12g}, subset mass "
                              f"W0 = {w0:.12g}",))
