"""The trees that tools/compare_outputs.py compares: directories as given,
git revisions exported, and sides without the package refused."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

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
