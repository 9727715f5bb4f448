"""The trees that tools/compare_outputs.py compares: directories as given,
git revisions exported, and sides without the package refused."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

from spectral_bounds.domains import Disk, QuadratureGrid
from spectral_bounds.expressions import is_constant
from spectral_bounds.phasespace import _squared_partials
from spectral_bounds.scenario import load_scenario

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
    assert {1, 2, 3} <= {p.nu for p in problems}
    assert any(is_constant(p.effective_potential()) for p in problems)
    # a gradient term that spans the grid: Vtilde is not a sum of
    # functions of one coordinate each
    assert any(_squared_partials(p.effective_potential(),
                                 QuadratureGrid(p.domain, 8))[0].shape ==
               (8,) * p.nu for p in problems if p.nu > 1)
    assert max(len(r.parameters) for s in tables for r in s.bounds
               if r.kind == "phase-space-sum") >= 100
