"""Tests of ``scripts/cmp_outputs.py``, the byte-identity check of the CLI's
outputs against another commit: its tree comparison, its exit code for a
commit it cannot export, and the cleanup of its temporary directory."""
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_cmp_outputs():
    spec = importlib.util.spec_from_file_location("cmp_outputs", ROOT / "scripts" / "cmp_outputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cmp_outputs = _load_cmp_outputs()


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


FILES = {"evolve/dist.csv": b"0,1\n", "evolve/stdout.txt": b"exit 0\n", "sweep/sweep.csv": b"n,q\n"}


def test_equal_trees_have_no_differences(tmp_path):
    left, right = _tree(tmp_path / "left", FILES), _tree(tmp_path / "right", FILES)
    assert cmp_outputs._differences(left, right) == []


def test_differing_and_one_sided_files_are_listed(tmp_path):
    left = _tree(tmp_path / "left", FILES)
    right = _tree(tmp_path / "right", {**FILES, "evolve/dist.csv": b"0,2\n", "extra/std.csv": b""})
    assert cmp_outputs._differences(left, right) == ["evolve/dist.csv", "extra/std.csv"]
    assert cmp_outputs._differences(right, left) == ["evolve/dist.csv", "extra/std.csv"]


def test_unknown_ref_exits_2_and_leaves_no_temporary_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert cmp_outputs.main(["no-such-ref"]) == 2
    assert "cannot export no-such-ref" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _one_commit_repo(root: Path) -> Path:
    """A git repository at ``root`` holding one commit of one file."""
    _tree(root, {"README.md": b"one commit\n"})
    git = ["git", "-C", str(root), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "README.md"], check=True)
    subprocess.run([*git, "-c", "commit.gpgsign=false", "commit", "-q", "-m", "one commit"], check=True)
    return root


def test_compared_run_leaves_no_temporary_directory(tmp_path, tmp_path_factory, monkeypatch, capsys):
    # a repository of its own stands in for the checkout, and the input
    # files and CLI calls are replaced by stubs that write the same bytes
    # for both trees
    def run_all(tree, outdir, calls):
        _tree(outdir, {f"{name}/stdout.txt": b"exit 0\n" for name in calls})

    monkeypatch.setattr(cmp_outputs, "ROOT", _one_commit_repo(tmp_path_factory.mktemp("repo")))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(cmp_outputs, "_write_inputs", lambda tree, inputs: inputs.mkdir())
    monkeypatch.setattr(cmp_outputs, "_run_all", run_all)
    assert cmp_outputs.main(["HEAD"]) == 0
    assert capsys.readouterr().out == "0 differing file(s)\n"
    assert list(tmp_path.iterdir()) == []
