"""The history reader against the per-commit reader it replaced.

``GitRepo.commits`` reads a whole history in three ``git log`` runs. The
reference below is the earlier reader: ``git show --name-status`` and
``git show --numstat`` per commit, then ``git show --format= <sha> -- <path>``
per modified file, keeping the lines that start with ``-`` or ``+`` but not
``---`` or ``+++``. Both must read the same statuses, line counts and
changed lines, and so give the same candidates.
"""

import os
import subprocess
from pathlib import Path

import pytest

from conftest import DAY, T0, build_planted_repo, commit_all, git, write

from rustport.knowledge import mining
from rustport.knowledge.mining import Commit, GitRepo, get_file_candidates


def reference_commits(root: Path) -> list[Commit]:
    def show(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
        ).stdout

    commits = []
    for line in show("log", "--reverse", "--format=%H%x01%ae%x01%at%x01%s").splitlines():
        sha, email, ts, message = line.split("\x01", 3)
        commit = Commit(sha=sha, email=email, timestamp=int(ts), message=message)
        for row in show("show", "--no-renames", "--name-status", "--format=", sha).splitlines():
            parts = row.split("\t")
            if len(parts) >= 2:
                commit.status[parts[-1]] = parts[0][0]
        for row in show("show", "--no-renames", "--numstat", "--format=", sha).splitlines():
            parts = row.split("\t")
            if len(parts) == 3 and parts[0] != "-":
                commit.numstat[parts[2]] = (int(parts[0]), int(parts[1]))
        for path, status in commit.status.items():
            if status == "M":
                diff = show("show", "--format=", sha, "--", path).splitlines()
                commit.changed[path] = (
                    [r for r in diff if r.startswith("-") and not r.startswith("---")],
                    [r for r in diff if r.startswith("+") and not r.startswith("+++")],
                )
        commits.append(commit)
    return commits


def build_edge_history(root: Path) -> None:
    """Seven commits: a merge (one path modified against both parents, one
    against the first parent only), a rename, a binary file, a mode-only
    change, a path with a space, an empty commit, a non-ASCII subject, and
    removed and added lines that start with ``--`` and ``++``."""
    root.mkdir(parents=True)
    git(root, "init", "-q", "-b", "main")
    t = T0
    write(root, "a.c", "int a(void) { return one(1); }\n")
    write(root, "dir x/sp ace.c", "int s(int c) {\n--c;\nreturn old_call(c);\n}\n")
    write(root, "Makefile", "SRC = a.c\n-- comment.c\n--old.c\nkeep.c\n")
    write(root, "old.c", "int old_call(int v) { return v; }\n")
    (root / "blob.bin").write_bytes(b"\x00\x01\x02binary")
    commit_all(root, "init", t)
    t += DAY
    git(root, "checkout", "-q", "-b", "side", ts=t)
    write(root, "a.c", "int a(void) { return one(1); }\nint b(void) { return side_call(3); }\n")
    write(root, "Makefile", "SRC = a.c b.rs\nkeep.c\n")
    commit_all(root, "side: port b", t)
    t += DAY
    git(root, "checkout", "-q", "main", ts=t)
    write(root, "a.c", "int a0(void) { return zero(); }\nint a(void) { return one(1); }\n")
    write(root, "main_only.c", "int m(void) { return before(); }\n")
    commit_all(root, "main tweak", t)
    t += DAY
    git(root, "merge", "-q", "--no-ff", "--no-commit", "side", ts=t)
    write(root, "main_only.c", "int m(void) { return after(); }\n")
    commit_all(root, "merge side", t)
    t += DAY
    git(root, "mv", "old.c", "new_name.c", ts=t)
    write(root, "new.rs", "pub fn new_call(v: i32) -> i32 {\n    v\n}\n")
    write(root, "dir x/sp ace.c", "int s(int c) {\n++c;\nreturn new_call(c);\n}\n")
    commit_all(root, "rename and migrate — portage ünïcode", t)
    t += DAY
    (root / "blob.bin").write_bytes(b"\x00\x01\x02binary changed")
    os.chmod(root / "a.c", 0o755)
    commit_all(root, "binary and mode", t)
    t += DAY
    commit_all(root, "empty", t)


def build_linear_history(root: Path, n: int) -> None:
    """``n`` commits, each rewriting a C file and the Makefile; every other
    one adds a Rust file."""
    root.mkdir(parents=True)
    git(root, "init", "-q")
    for i in range(n):
        write(root, f"f{i % 3}.c", f"int f(void) {{ return call_{i}(); }}\n")
        write(root, "Makefile", "".join(f"OBJS += f{k % 3}.c\n" for k in range(i + 1)))
        if i % 2:
            write(root, f"r{i}.rs", f"pub fn r{i}() -> i32 {{\n    {i}\n}}\n")
        commit_all(root, f"port step {i}", T0 + i * DAY)


HISTORIES = {"planted": build_planted_repo, "edge": build_edge_history}


@pytest.fixture(params=sorted(HISTORIES))
def history(request, tmp_path):
    root = tmp_path / request.param
    HISTORIES[request.param](root)
    return root


def test_edge_history_has_its_cases(tmp_path):
    build_edge_history(tmp_path / "edge")
    commits = reference_commits(tmp_path / "edge")
    assert len(commits) == 7
    # removed lines starting with "--" read as "---" and are left out
    assert commits[1].changed["Makefile"] == (["-SRC = a.c"], ["+SRC = a.c b.rs"])
    merge = commits[3]
    assert merge.status == {"a.c": "M", "main_only.c": "M"}  # main_only.c is new to side
    assert merge.changed["main_only.c"] == (
        ["- int m(void) { return before(); }"],
        ["++int m(void) { return after(); }"],
    )
    renamed = commits[4]
    assert renamed.status["old.c"] == "D" and renamed.status["new_name.c"] == "A"
    assert renamed.changed["dir x/sp ace.c"] == (
        ["-return old_call(c);"],
        ["+return new_call(c);"],
    )
    assert commits[5].status == {"a.c": "M", "blob.bin": "M"}
    assert commits[5].numstat == {"a.c": (0, 0)}
    assert commits[6].status == {}


def test_reader_equals_the_per_commit_reference(history):
    assert GitRepo(history).commits() == reference_commits(history)


def test_candidates_equal_those_from_the_reference(history, monkeypatch):
    def dump():
        return [
            (c.c_path, c.rust_path, sorted(c.evidence), c.commit, c.c_text, c.rust_text)
            for c in get_file_candidates(history, regime="co_evolution")
        ]

    read = dump()
    assert any(c[3] for c in read)  # history heuristics tagged something
    monkeypatch.setattr(GitRepo, "commits", lambda repo: reference_commits(repo.path))
    assert read == dump()


@pytest.mark.parametrize("n", [4, 8])
def test_history_is_read_in_three_git_runs(tmp_path, monkeypatch, n):
    build_linear_history(tmp_path / "repo", n)
    runs = []
    real_run = subprocess.run

    def counting_run(argv, *args, **kwargs):
        runs.append(argv)
        return real_run(argv, *args, **kwargs)

    monkeypatch.setattr(mining.subprocess, "run", counting_run)
    commits = GitRepo(tmp_path / "repo").commits()
    assert len(commits) == n
    assert [argv[3] for argv in runs] == ["log", "log", "log"]
