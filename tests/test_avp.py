"""Tests for the finite-dimensional averaged variational principle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_bounds.avp import avp_check, frame_constant, tight_frame_bound


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def random_family(rng, n, m):
    return [(rng.standard_normal(n), float(rng.uniform(0.2, 3.0)))
            for _ in range(m)]


def brute_sides(Hmat, family, subset, z):
    """Both sides computed with explicit loops, no shared code paths."""
    mu, psi = np.linalg.eigh(Hmat)
    lhs = 0.0
    for j in range(len(mu)):
        gap = z - mu[j]
        if gap <= 0.0:
            continue
        mass = 0.0
        for f, w in family:
            mass += w * float(psi[:, j] @ np.asarray(f)) ** 2
        lhs += gap * mass
    rhs = 0.0
    for zeta in subset:
        f, w = family[zeta]
        f = np.asarray(f, dtype=float)
        rhs += w * (z * float(f @ f) - float(f @ Hmat @ f))
    return lhs, rhs


def test_avp_matches_brute_force():
    rng = np.random.default_rng(7)
    H = random_symmetric(rng, 10)
    family = random_family(rng, 10, 7)
    subset = [0, 2, 5]
    z = 0.4
    lhs, rhs = brute_sides(H, family, subset, z)
    rep = avp_check(H, family, subset, z)
    assert rep.computed_value == pytest.approx(lhs, rel=1e-12, abs=1e-14)
    assert rep.bound_value == pytest.approx(rhs, rel=1e-12, abs=1e-14)
    assert rep.direction == "lower"


def test_avp_holds_for_random_ensembles():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        H = random_symmetric(rng, 12, scale=rng.uniform(0.5, 4.0))
        family = random_family(rng, 12, int(rng.integers(1, 16)))
        size = int(rng.integers(0, len(family) + 1))
        subset = list(rng.choice(len(family), size=size, replace=False))
        mu = np.linalg.eigvalsh(H)
        z = float(rng.uniform(mu[0] - 1.0, mu[-1] + 1.0))
        rep = avp_check(H, family, subset, z)
        assert rep.holds, (rep.computed_value, rep.bound_value, z)


def test_avp_equality_on_eigenbasis():
    # family = orthonormal eigenbasis, subset = the modes below z
    rng = np.random.default_rng(11)
    H = random_symmetric(rng, 9)
    mu, psi = np.linalg.eigh(H)
    family = [(psi[:, j].copy(), 1.0) for j in range(9)]
    k = 4
    z = 0.5 * (mu[k - 1] + mu[k])
    rep = avp_check(H, family, list(range(k)), z)
    assert abs(rep.computed_value - rep.bound_value) <= 1e-10 * max(
        1.0, abs(rep.bound_value))
    assert rep.holds


def test_avp_empty_subset_and_low_z():
    rng = np.random.default_rng(3)
    H = random_symmetric(rng, 6)
    family = random_family(rng, 6, 4)
    mu = np.linalg.eigvalsh(H)
    # z below the bottom of the spectrum: left side vanishes, right side <= 0
    rep = avp_check(H, family, [0, 1], mu[0] - 2.0)
    assert rep.computed_value == 0.0
    assert rep.bound_value <= 0.0
    assert rep.holds
    rep = avp_check(H, family, [], 1.0)
    assert rep.bound_value == 0.0
    assert rep.holds


def test_avp_input_validation():
    rng = np.random.default_rng(5)
    H = random_symmetric(rng, 5)
    # an orthonormal basis: a tight frame, so only the input is at fault
    fam = [(np.eye(5)[:, j], 1.0) for j in range(5)]
    for check in (lambda H, fam, subset: avp_check(H, fam, subset, 0.0),
                  lambda H, fam, subset: tight_frame_bound(H, fam, subset, 1)):
        _refuses_malformed_input(check, H, fam)


def _refuses_malformed_input(check, H, fam):
    assert check(H, fam, [np.int64(1), 3]).holds
    with pytest.raises(ValueError, match="square"):
        check(np.zeros((3, 4)), fam, [])
    skew = H.copy()
    skew[0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        check(skew, fam, [])
    with pytest.raises(ValueError, match="shape"):
        check(H, [(np.zeros(4), 1.0)], [])
    for weight in (0.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            check(H, fam[:4] + [(np.ones(5), weight)], [])
    # repeated, negative, out of range, boolean and fractional indices
    for subset in ([0, 0], [-1], [5], [True], [1.5]):
        with pytest.raises(ValueError, match="subset"):
            check(H, fam, subset)


def test_frame_constant_orthonormal_and_union():
    rng = np.random.default_rng(17)
    n = 6
    eye = [(np.eye(n)[:, j], 1.0) for j in range(n)]
    assert frame_constant(n, eye) == pytest.approx(1.0, abs=1e-14)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    union = eye + [(q[:, j].copy(), 1.0) for j in range(n)]
    assert frame_constant(n, union) == pytest.approx(2.0, abs=1e-12)
    # weights scale the constant linearly
    scaled = [(f, 3.0 * w) for f, w in eye]
    assert frame_constant(n, scaled) == pytest.approx(3.0, abs=1e-12)


def test_frame_constant_rejects_loose_family():
    rng = np.random.default_rng(23)
    fam = random_family(rng, 5, 3)
    with pytest.raises(ValueError, match="tight"):
        frame_constant(5, fam)


def test_tight_frame_equality_for_eigenbasis():
    # A = 1, subset = lowest k modes: the bound collapses to the exact mean
    rng = np.random.default_rng(29)
    H = random_symmetric(rng, 8)
    mu, psi = np.linalg.eigh(H)
    family = [(psi[:, j].copy(), 1.0) for j in range(8)]
    for k in (1, 3, 6):
        rep = tight_frame_bound(H, family, list(range(k)), k)
        exact = float(mu[:k].mean())
        assert rep.computed_value == pytest.approx(exact, rel=1e-13, abs=1e-14)
        assert rep.bound_value == pytest.approx(exact, rel=1e-11, abs=1e-12)
        assert rep.holds


def test_tight_frame_union_of_bases():
    # union of the eigenbasis and the coordinate basis: A = 2, still valid
    rng = np.random.default_rng(31)
    H = random_symmetric(rng, 7)
    mu, psi = np.linalg.eigh(H)
    eye = np.eye(7)
    family = ([(psi[:, j].copy(), 1.0) for j in range(7)]
              + [(eye[:, j].copy(), 1.0) for j in range(7)])
    for k in (1, 2, 4, 6):
        rep = tight_frame_bound(H, family, list(range(k)), k)
        assert rep.holds
        assert rep.bound_value >= rep.computed_value - 1e-12
        assert "frame constant A = 2" in rep.notes[0]


def test_tight_frame_coordinate_subset():
    rng = np.random.default_rng(37)
    H = random_symmetric(rng, 10)
    mu = np.linalg.eigvalsh(H)
    eye = np.eye(10)
    family = [(eye[:, j].copy(), 1.0) for j in range(10)]
    # subset of coordinate vectors: Rayleigh quotients are diagonal entries
    subset = [1, 4, 7]
    k = 3
    rep = tight_frame_bound(H, family, subset, k)
    w0 = 3.0
    e0 = H[1, 1] + H[4, 4] + H[7, 7]
    expected = (mu[k] * (k - w0) + e0) / k
    assert rep.bound_value == pytest.approx(expected, rel=1e-12)
    assert rep.computed_value == pytest.approx(float(mu[:k].mean()), rel=1e-13)
    assert rep.holds


def test_tight_frame_k_range():
    H = np.diag([1.0, 2.0, 3.0])
    family = [(np.eye(3)[:, j], 1.0) for j in range(3)]
    with pytest.raises(ValueError, match="k"):
        tight_frame_bound(H, family, [0], 0)
    with pytest.raises(ValueError, match="k"):
        tight_frame_bound(H, family, [0], 3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 8), st.integers(1, 6),
       st.floats(-5.0, 5.0))
def test_avp_holds_property(seed, n, m, z):
    rng = np.random.default_rng(seed)
    H = random_symmetric(rng, n)
    family = random_family(rng, n, m)
    size = int(rng.integers(0, m + 1))
    subset = list(rng.choice(m, size=size, replace=False))
    rep = avp_check(H, family, subset, z)
    assert rep.holds
