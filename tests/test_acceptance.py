"""End-to-end acceptance battery.

Nine checks, one per guarantee the package makes; each prints a single
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them all).  Tolerances are stated inline next to each check.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import spectral_bounds
from spectral_bounds.avp import avp_check, tight_frame_bound
from spectral_bounds.bounds import (WeylMinorant, bound_context,
                                    general_sum_bound, heat_lower_bound,
                                    individual_bound_pos, individual_bound_sk,
                                    kroger_avg_bound, riesz_lower_bound,
                                    riesz_report, sum_report)
from spectral_bounds.domains import Box, QuadratureGrid, TorusFundamental
from spectral_bounds.fdsolver import assemble, solve_lowest
from spectral_bounds.homog import ReferenceMinorant, heat_torus_bound
from spectral_bounds.phasespace import (lambda_of_k, phase_space_sum_bound,
                                        phase_space_tables)
from spectral_bounds.problem import ProblemSpec
from spectral_bounds.special import Lattice2, hex_theta, lattice_heat_trace
from spectral_bounds.spectra import rectangle_neumann_exact, torus_spectrum

from heat_oracles import lattice_heat_trace_poisson

PI2 = math.pi ** 2


def _verdict(tag, failures, detail=""):
    ok = not failures
    note = detail if ok else "; ".join(failures)
    print(f"{'PASS' if ok else 'FAIL'} {tag}" + (f" [{note}]" if note else ""),
          flush=True)
    assert ok, f"{tag}: {note}"


def _solve(problem, n, k, method=None):
    grid = QuadratureGrid(problem.domain, n)
    return solve_lowest(assemble(problem, grid), k, method=method)


def test_01_unit_square_fd_spectrum():
    failures = []
    prob = ProblemSpec(Box((1.0, 1.0)))
    exact = np.array([0.0, PI2, PI2, 2 * PI2, 4 * PI2, 4 * PI2])

    started = time.perf_counter()
    s100 = _solve(prob, 100, 6)
    rel = np.abs(s100.values[1:] - exact[1:]) / exact[1:]
    if abs(s100.values[0]) > 1e-8:
        failures.append(f"mu_0 = {s100.values[0]:.3g} exceeds 1e-8")
    if rel.max() > 0.01:
        failures.append(f"relative error {rel.max():.3g} exceeds 1%")

    s50 = _solve(prob, 50, 6)
    factor = abs(s50.values[1] - PI2) / abs(s100.values[1] - PI2)
    if not 3.5 <= factor <= 4.5:
        failures.append(f"h-halving factor {factor:.3g} outside [3.5, 4.5]")

    # dense path exercised at its supported size (4096 unknowns); the
    # 100 x 100 request itself routes to the iterative solver
    s64 = _solve(prob, 64, 6, method="dense")
    if np.abs(s64.values - _solve(prob, 64, 6, "iterative").values).max() \
            > 1e-8:
        failures.append("dense and iterative paths disagree at 64^2")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")

    _verdict("unit-square spectrum via finite differences", failures,
             f"max rel err {rel.max():.2e}, halving factor {factor:.2f}, "
             f"{elapsed:.1f}s")


def test_02_averaged_bound_every_k():
    failures = []
    prob = ProblemSpec(Box((1.0, 1.0)))
    grid = QuadratureGrid(prob.domain, 64)
    spec = rectangle_neumann_exact(1.0, 1.0, count=51)

    started = time.perf_counter()
    slacks = {}
    ctx = bound_context(prob, grid)
    for k in range(1, 51):
        rep = kroger_avg_bound(ctx, k, spec)
        if not rep.holds:
            failures.append(f"violated at k={k}")
        if abs(rep.bound_value - 2 * math.pi * k * k) > \
                1e-12 * rep.bound_value:
            failures.append(f"closed form mismatch at k={k}")
        slacks[k] = rep.slack_ratio
    elapsed = time.perf_counter() - started

    probe = [slacks[k] for k in (5, 10, 20, 50)]
    if any(s is None or s > 1.0 for s in probe):
        failures.append(f"slack ratios not all in (0, 1]: {probe}")
    if not all(a < b for a, b in zip(probe, probe[1:])):
        failures.append(f"slack not strictly increasing: {probe}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")

    _verdict("averaged sum bound on the unit square, k = 1..50", failures,
             f"slack {probe[0]:.3f} -> {probe[-1]:.3f}, {elapsed * 1e3:.0f}ms")


def test_03_weighted_variants():
    failures = []
    cases = [("potential", {"V": "x^2 + y^2"}),
             ("weight", {"w": "1 + x/2"}),
             ("drift", {"rho": "(x^2 + y^2)/4"})]
    for name, fields in cases:
        prob = ProblemSpec(Box((2.0, 2.0), (-1.0, -1.0)), **fields)
        grid = QuadratureGrid(prob.domain, 120)
        spec = solve_lowest(assemble(prob, grid), 21, method="iterative")
        ctx = bound_context(prob, grid)
        for k in range(1, 21):
            if not general_sum_bound(ctx, k, spec).holds:
                failures.append(f"{name}: sum bound violated at k={k}")
        for k in (5, 10, 20):
            sk = individual_bound_sk(ctx, k, spec)
            if not sk.holds:
                failures.append(f"{name}: S_k bound violated at k={k}")
            ratio = float(sk.notes[0].split("=")[-1])
            if not 0.0 < ratio <= 1.0:
                failures.append(f"{name}: S_k = {ratio} outside (0, 1]")
            ri, rm = individual_bound_pos(ctx, k, spec)
            if not (ri.holds and rm.holds):
                failures.append(f"{name}: positivity pair violated at k={k}")
    _verdict("weighted variants on [-1,1]^2 at 120^2", failures,
             "3 coefficient sets x 20 sums + individual bounds")


def test_04_riesz_legendre_laplace():
    failures = []
    prob = ProblemSpec(Box((1.0, 1.0)))
    grid = QuadratureGrid(prob.domain, 64)
    spec = rectangle_neumann_exact(1.0, 1.0, count=60)
    cutoff = float(spec.cutoff)
    ctx = bound_context(prob, grid)

    for z in np.linspace(1.0, cutoff, 20):
        if not riesz_lower_bound(ctx, float(z), spec).holds:
            failures.append(f"Riesz bound violated at z={z:.3g}")

    # R(z) = z^2 / (8 pi) on the unit square: its Legendre conjugate
    # sup_z (k z - R(z)) = 2 pi k^2 sits at z = 4 pi k
    riesz = WeylMinorant(ctx).riesz
    worst = 0.0
    for k in range(1, 51):
        best = minimize_scalar(lambda z: riesz(z) - k * z, method="bounded",
                               bounds=(0.0, 8.0 * math.pi * k))
        dual = -best.fun
        direct = general_sum_bound(ctx, k, spec).bound_value
        worst = max(worst, abs(dual - direct) / direct)
    if worst > 1e-9:
        failures.append(f"Legendre dual off by {worst:.3g} (tol 1e-9)")

    lap_worst = 0.0
    for t in np.linspace(0.5, 2.0, 7):
        integral = quad(lambda z: math.exp(-t * z) * riesz(z), 0.0, math.inf,
                        epsabs=0.0, epsrel=1e-12)[0]
        bound = heat_lower_bound(ctx, float(t), spec).bound_value
        lap_worst = max(lap_worst, abs(t * t * integral - bound) / bound)
    if lap_worst > 1e-6:
        failures.append(f"Laplace transform off by {lap_worst:.3g} "
                        "(tol 1e-6)")

    _verdict("Riesz grid, Legendre duality, Laplace transform", failures,
             f"Legendre err {worst:.1e}, Laplace err {lap_worst:.1e}")


def test_05_phase_space_bound():
    failures = []
    # flat potential reproduces the averaged bound
    flat = ProblemSpec(Box((1.0, 1.0)))
    fgrid = QuadratureGrid(flat.domain, 64)
    psd = phase_space_tables(flat, fgrid)
    spec = rectangle_neumann_exact(1.0, 1.0, count=51)
    fctx = bound_context(flat, fgrid)
    worst = 0.0
    for k in (1, 5, 20, 50):
        psb = phase_space_sum_bound(k, psd, spec)
        avg = kroger_avg_bound(fctx, k, spec)
        worst = max(worst, abs(psb.bound_value - avg.bound_value),
                    abs(psb.bound_value - 2 * math.pi * k * k))
        if not psb.holds:
            failures.append(f"flat-case bound violated at k={k}")
    if worst > 1e-10:
        failures.append(f"flat case off the averaged bound by {worst:.3g} "
                        "(tol 1e-10)")

    # isotropic oscillator: Lambda(10) = sqrt(80), Lip = 2 sqrt(Lambda)
    osc = ProblemSpec(Box((16.0, 16.0), origin=(-8.0, -8.0)),
                      V="x^2 + y^2")
    n = 2048
    ogrid = QuadratureGrid(osc.domain, n)
    opsd = phase_space_tables(osc, ogrid)
    lam10 = lambda_of_k(opsd, 10)
    lam_err = abs(lam10 - math.sqrt(80.0))
    if lam_err > 1e-6:
        failures.append(f"Lambda(10) error {lam_err:.3g} exceeds 1e-6")
    h = 16.0 / n
    lip = opsd.lip_at(lam10)
    lip_err = abs(lip - 2.0 * math.sqrt(lam10))
    if lip_err > 4.0 * h:
        failures.append(f"Lipschitz constant error {lip_err:.3g} exceeds "
                        f"grid resolution {4 * h:.3g}")

    fd = solve_lowest(assemble(osc, QuadratureGrid(osc.domain, 128)),
                      10, method="iterative")
    rep = phase_space_sum_bound(10, opsd, fd)
    if not rep.holds:
        failures.append("oscillator sum bound violated")
    if not rep.bound_value > fd.partial_sum(10):
        failures.append("bound does not exceed the computed sum")

    _verdict("phase-space bound: flat coincidence and oscillator", failures,
             f"coincidence {worst:.1e}, Lambda err {lam_err:.1e}, "
             f"sum {fd.partial_sum(10):.1f} <= bound {rep.bound_value:.1f}")


def test_06_torus_comparisons():
    failures = []
    cutoff = 4.0 * PI2 * 30.0
    unit = Lattice2((1.0, 0.0), (0.0, 1.0))
    mu = rectangle_neumann_exact(0.5, 1.0, cutoff=cutoff)
    ref = torus_spectrum(unit, cutoff)
    half = ReferenceMinorant(ref, 0.5)

    for p in range(1, 31):
        if not sum_report("homog-sum", half, p, mu).holds:
            failures.append(f"sum comparison violated at k={p}")
    for z in np.linspace(1.0, 4.0 * PI2 * 10.0, 25):
        if not riesz_report("homog-riesz", half, float(z), mu).holds:
            failures.append(f"Riesz comparison violated at z={z:.3g}")

    whole = ref.flatten()
    worst = 0.0
    for p in range(1, 31):
        rep = sum_report("homog-sum", ReferenceMinorant(ref, 1.0), p, whole)
        worst = max(worst, abs(rep.computed_value - rep.bound_value))
        if not rep.holds:
            failures.append(f"whole-space case violated at k={p}")
    if worst > 1e-10:
        failures.append(f"whole-space equality gap {worst:.3g} (tol 1e-10)")

    _verdict("half torus and whole torus comparisons", failures,
             f"30 sums + 25 Riesz points, equality gap {worst:.1e}")


def test_07_lattice_identities_and_periodic_heat():
    failures = []
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        basis = rng.uniform(-2.0, 2.0, size=(2, 2))
        while abs(np.linalg.det(basis)) < 0.3:
            basis = rng.uniform(-2.0, 2.0, size=(2, 2))
        lat = Lattice2(tuple(basis[0]), tuple(basis[1]))
        t = float(rng.uniform(0.05, 1.5))
        direct = lattice_heat_trace(lat, t)
        dual = lattice_heat_trace_poisson(lat, t)
        worst = max(worst, abs(direct - dual) / max(abs(direct), 1.0))
    if worst > 1e-9:
        failures.append(f"Poisson identity off by {worst:.3g} (tol 1e-9)")

    theta_err = abs(hex_theta(10.0) - 2.0 / math.sqrt(3.0))
    if theta_err > 1e-6:
        failures.append(f"hex theta limit off by {theta_err:.3g} (tol 1e-6)")

    domain = TorusFundamental((1.0, 0.0), (0.0, 1.0))
    grid = QuadratureGrid(domain, 64)
    margins = []
    for fields in ({}, {"w": "1 + cos(2*pi*x)/4", "V": "sin(2*pi*x)"}):
        prob = ProblemSpec(domain, **fields)
        spec = solve_lowest(assemble(prob, grid), 45, method="iterative")
        ctx = bound_context(prob, grid)
        for t in (0.1, 0.3, 1.0):
            rep = heat_torus_bound(ctx, t, spec)
            margins.append(rep.computed_value / rep.bound_value - 1.0)
            if not rep.holds:
                failures.append(
                    f"periodic heat bound violated at t={t}, "
                    f"fields={fields or 'constant'}")

    _verdict("lattice identities and periodic heat floor", failures,
             f"Poisson {worst:.1e}, theta {theta_err:.1e}, "
             f"min heat margin {min(margins):.2e}")


def test_08_averaged_variational_principle():
    failures = []
    rng = np.random.default_rng(2718)
    for trial in range(100):
        a = rng.standard_normal((12, 12))
        h = 0.5 * (a + a.T)
        family = [(rng.standard_normal(12), float(rng.uniform(0.2, 2.0)))
                  for _ in range(rng.integers(1, 15))]
        subset = list(rng.choice(len(family),
                                 size=rng.integers(0, len(family) + 1),
                                 replace=False))
        z = float(rng.uniform(-3.0, 8.0))
        if not avp_check(h, family, subset, z).holds:
            failures.append(f"random ensemble violated (trial {trial})")

    a = rng.standard_normal((10, 10))
    h = 0.5 * (a + a.T)
    mu, psi = np.linalg.eigh(h)
    family = [(psi[:, j].copy(), 1.0) for j in range(10)]
    gap = 0.0
    for k in (2, 5, 8):
        z = 0.5 * (mu[k - 1] + mu[k])
        rep = avp_check(h, family, list(range(k)), z)
        gap = max(gap, abs(rep.computed_value - rep.bound_value))
    if gap > 1e-10:
        failures.append(f"eigenbasis equality gap {gap:.3g} (tol 1e-10)")

    n = 8
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    frame = [(q[:, j].copy(), 1.0) for j in range(n)]
    a = rng.standard_normal((n, n))
    h = 0.5 * (a + a.T)
    checked = 0
    for k in range(1, n):
        for size in range(0, n + 1):
            for subset in itertools.combinations(range(n), size):
                if not tight_frame_bound(h, frame, list(subset), k).holds:
                    failures.append(
                        f"tight-frame bound violated at k={k}, "
                        f"subset={subset}")
                checked += 1

    _verdict("averaged variational principle (matrix form)", failures,
             f"100 ensembles, equality gap {gap:.1e}, "
             f"{checked} exhaustive subset cases")


def test_09_cli_determinism(tmp_path):
    failures = []
    cfg = Path(spectral_bounds.__path__[0], "scenarios", "square-kroger.json")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "spectral_bounds.cli", "run",
             "--config", str(cfg), "--out", str(out), "--format", "both"],
            capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            failures.append(f"{name} run exited {proc.returncode}: "
                            f"{proc.stderr.strip()[:200]}")
        outs.append(out)
    if not failures:
        for suffix in (".json", ".csv"):
            a = (outs[0] / f"square-kroger{suffix}").read_bytes()
            b = (outs[1] / f"square-kroger{suffix}").read_bytes()
            if a != b:
                failures.append(f"{suffix} outputs differ between runs")
        payload = json.loads((outs[0] / "square-kroger.json").read_text())
        if payload["errors"]:
            failures.append(f"run reported errors: {payload['errors']}")
        if not all(b["holds"] for b in payload["bounds"]):
            failures.append("run reported violations")

    _verdict("CLI byte-determinism across repeat runs", failures,
             "json and csv identical")
