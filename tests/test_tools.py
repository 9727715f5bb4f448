"""The trees that tools/compare_outputs.py compares: directories as given,
git revisions exported, and sides without the package refused."""

import importlib.util
import json
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest

from spectral_bounds.domains import Disk, QuadratureGrid
from spectral_bounds.expressions import (FieldEvaluationError,
                                         differentiate, is_constant)
from spectral_bounds.phasespace import _slab_sums, lambda_of_k, \
    phase_space_tables
from spectral_bounds.scenario import build_spectrum, load_scenario
from spectral_bounds.spectra import torus_spectrum

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


@pytest.fixture
def repo(tmp_path):
    """A git repository whose first commit holds no package and whose
    second holds one."""
    repo = tmp_path / "repo"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    git = ["git", "-C", str(repo), "-c", "user.name=test", "-c",
           "user.email=test@example.com", "-c", "commit.gpgsign=false"]

    def commit(message):
        subprocess.run(git + ["add", "-A"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", message], check=True)

    (repo / "README").write_text("no package yet\n")
    commit("readme")
    package = repo / "src" / "spectral_bounds"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("VERSION = 2\n")
    commit("package")
    return repo


def test_a_directory_is_taken_as_given(tmp_path):
    src = ROOT / "src"
    assert compare.source_tree(str(src), tmp_path) == src.resolve()


def test_a_revision_is_exported_into_the_temporary_directory(repo, tmp_path):
    work = tmp_path / "work"
    got = compare.source_tree("HEAD", work, repo)
    assert work in got.parents
    assert (got / "spectral_bounds" / "__init__.py").read_text() == \
        "VERSION = 2\n"
    # the same commit by another name is the same export
    assert compare.source_tree("HEAD~0", work, repo) == got


@pytest.mark.parametrize("side, match", [
    ("HEAD~1", "HEAD~1 holds no spectral_bounds package"),
    ("no-such-revision", "neither a directory nor a git revision"),
])
def test_a_side_without_the_package_is_refused(repo, tmp_path, side, match):
    with pytest.raises(ValueError, match=match):
        compare.source_tree(side, tmp_path, repo)


def test_main_refuses_a_directory_without_the_package(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        compare.main([str(tmp_path), str(ROOT / "src")])
    assert exc.value.code == 2
    assert "holds no spectral_bounds package" in capsys.readouterr().err


def test_the_table_scenarios_load_and_take_every_table_path(tmp_path):
    """The fixed phase-space scenarios load, and between them take each
    path the phase-space tables branch on."""
    paths = compare.scenarios(tmp_path)
    tables = [load_scenario(p) for p in paths if p.parent.name == "tables"]
    assert [s.label for s in tables] == [d["label"] for d in compare.TABLES]
    problems = [s.problem for s in tables]
    assert any(isinstance(p.domain, Disk) and is_constant(p.w)
               for p in problems)
    assert any(not is_constant(p.w) for p in problems)
    # a varying w that is not finite on the domain's bounding grid
    def finite_on_the_box(p):
        try:
            QuadratureGrid(p.domain, 8).evaluate(p.w)
        except FieldEvaluationError:
            return False
        return True
    assert not all(finite_on_the_box(p) for p in problems)
    assert {1, 2, 3} <= {p.nu for p in problems}
    assert any(is_constant(p.effective_potential()) for p in problems)
    # a gradient term that spans the grid: Vtilde is not a sum of
    # functions of one coordinate each
    assert any(QuadratureGrid(p.domain, 8).sample(differentiate(
        p.effective_potential(), axis)).shape == (8,) * p.nu
               for p in problems if p.nu > 1 for axis in range(p.nu))
    assert max(len(r.parameters) for s in tables for r in s.bounds
               if r.kind == "phase-space-sum") >= 100
    # the inside nodes of each slab: a full grid whose last slab holds
    # fewer rows than the others, and a masked one whose first holds none
    grids = [QuadratureGrid(s.problem.domain, int(s.bounds[0].options[
        "grid_n"])) for s in tables]
    sizes = [[n.stop - n.start for n, _ in _slab_sums([p.V], g)]
             for p, g in zip(problems, grids)]
    assert any(g.mask.all() and size[-1] < size[0]
               for g, size in zip(grids, sizes))
    assert any(size[0] == 0 < size[1] for size in sizes)
    # Lambda(k) strictly between two values of one bucket of the Lipschitz
    # level index, which reads the nodes of that bucket above the level
    # too: every level of some table does
    def splits_at_every_level(s):
        (request,) = s.bounds
        psd = phase_space_tables(s.problem, QuadratureGrid(
            s.problem.domain, int(request.options["grid_n"])))
        vt = psd.vt_nodes
        buckets = psd.lip_index.buckets(vt)
        for k in request.parameters:
            lam = lambda_of_k(psd, int(k))
            count = int(np.searchsorted(vt, lam, side="right"))
            if not (0 < count < vt.size and vt[count - 1] < lam and
                    buckets[count - 1] == buckets[count]):
                return False
        return True

    assert any(splits_at_every_level(s) for s in tables)


def test_the_form_scenarios_take_the_sampled_assembly_paths(tmp_path):
    """The fixed fd scenarios load, and sample their fields on full grids
    in the shapes the bench workloads do not."""
    paths = compare.scenarios(tmp_path)
    forms = [load_scenario(p) for p in paths if p.parent.name == "forms"]
    assert [s.label for s in forms] == [d["label"] for d in compare.FORMS]
    grids = [QuadratureGrid(s.problem.domain, s.grid_n) for s in forms]
    assert all(g.full for g in grids)
    # a weight that varies across the seam of a periodic axis
    assert any(g.periodic and g.sample(s.problem.w).shape[0] > 1
               for s, g in zip(forms, grids))
    # a 3-D box with a constant nonzero rho and V
    assert any(s.problem.nu == 3 and all(
        is_constant(f) and f.evaluate(()) != 0.0
        for f in (s.problem.rho, s.problem.V)) for s in forms)
    # a weight that spans a box
    assert any(not g.periodic and g.sample(s.problem.w).shape == g.shape
               for s, g in zip(forms, grids))


def test_the_exact_scenarios_load_and_outgrow_the_weyl_cutoff(tmp_path):
    """The fixed exact scenarios load, and the thin torus holds fewer
    values under its Weyl-sized cutoff than its count asks for."""
    paths = compare.scenarios(tmp_path)
    exact = [load_scenario(p) for p in paths if p.parent.name == "exact"]
    assert [s.label for s in exact] == [d["label"] for d in compare.EXACT]
    (thin,) = exact
    torus = thin.problem.domain
    weyl = 4.0 * math.pi * (thin.count + 4) / torus.covolume()
    assert len(torus_spectrum(torus, weyl)) < thin.count
    assert len(build_spectrum(thin)[1]) >= thin.count


def test_moves_report_how_far_the_bounds_of_one_scenario_moved():
    def output(reports):
        return json.dumps({"label": "s", "bounds": [
            {"kind": "phase-space-sum", "parameter": k, "bound": b,
             "computed": c, "holds": h, "notes": []}
            for k, b, c, h in reports]}).encode()

    old = output([(1.0, 10.0, 9.0, True), (4.0, 20.0, 19.0, True),
                  (5.0, 30.0, 29.0, True)])
    new = output([(1.0, 10.5, 9.0, True), (4.0, 19.5, 19.0, True),
                  (5.0, 30.0, 31.0, False)])
    assert compare.moves(old, new) == (
        "largest relative change: bound +0.05 (at 1), computed +0.069 "
        "(at 5); 1 of 3 bounds down, 1 holds flipped")
    assert compare.moves(old, old) == (
        "largest relative change: bound +0, computed +0; 0 of 3 bounds "
        "down, 0 holds flipped")
