"""File-pair candidate mining from repository history and snapshots.

Implements the heuristic families for recovering C-to-Rust migration pairs:
synchronous commit signals (message keywords, build-config switches, interface
migration, code-churn balance), asynchronous history signals (delete-then-
create inside a 365-day window, evolutionary coupling, developer identity),
and snapshot signals (module colocation, key-token overlap, shared long
literals). Heuristics combine disjunctively; every candidate keeps its
evidence tags so the downstream cascade can filter.

History is read with three ``git log`` runs (statuses, line counts, and the
patches of modified files), a merge as ``git show`` shows it (``--cc``).
Only recovering the text of a candidate missing from the snapshot runs git
again. Without git, or outside a repository, co-evolution mining reads only
the snapshot and logs a warning.
"""

from __future__ import annotations

import functools
import logging
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .bm25 import long_string_literals
from .rules import CALL_RE, split_c_functions, split_rust_functions

logger = logging.getLogger(__name__)

BUILD_FILE_NAMES = {"Makefile", "makefile", "CMakeLists.txt", "meson.build", "BUILD.gn"}
BUILD_FILE_SUFFIXES = {".mk", ".gn", ".gni", ".bp"}


# heuristic thresholds
KEYWORDS = ("rewrite", "port", "migrate", "translate")  # commit-message stems
CHURN_RATIO = 0.5  # max |C lines deleted - Rust lines added| / the larger
COUPLING_MIN_COMMITS = 3  # co-changes that make evolutionary coupling
WINDOW_DAYS = 365  # delete-then-create window
RECENT_CONTRIBUTOR_COMMITS = 10  # a C file's last commits that count as recent
KEY_TOKEN_MIN_OVERLAP = 3  # shared rare identifiers that make key-token overlap
KEY_TOKEN_MAX_DF = 1  # files per side an identifier may occur in to be rare


@dataclass
class FilePairCandidate:
    c_path: str
    rust_path: str
    evidence: set[str] = field(default_factory=set)
    c_text: str = ""
    rust_text: str = ""
    commit: Optional[str] = None
    rerank_score: float = 0.0


@dataclass
class Commit:
    sha: str
    email: str
    timestamp: int
    message: str
    # path -> status letter (A/M/D/R...)
    status: dict[str, str] = field(default_factory=dict)
    # path -> (added, deleted) line counts
    numstat: dict[str, tuple[int, int]] = field(default_factory=dict)
    # modified path -> (removed, added) diff lines as printed, marker included
    changed: dict[str, tuple[list[str], list[str]]] = field(default_factory=dict)


class GitRepo:
    """Thin wrapper over the host git executable."""

    def __init__(self, path):
        self.path = Path(path)

    def _git(self, *args: str) -> str:
        try:
            proc = subprocess.run(
                ["git", "-C", str(self.path), *args],
                capture_output=True,
                text=True,
                check=False,
            )
        except OSError as exc:
            raise RuntimeError(f"cannot run git: {exc}") from exc
        if proc.returncode != 0:
            raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
        return proc.stdout

    def _log(self, *args: str, fmt: str = "%H") -> Iterator[tuple[str, list[str]]]:
        """(format line, output lines) per commit, oldest first. Rename
        detection is off: the heuristics reason over raw add/delete."""
        raw = self._git("log", "--reverse", "--cc", "--no-renames", f"--format=%x00{fmt}", *args)
        for chunk in raw.split("\0")[1:]:
            head, _, body = chunk.partition("\n")
            yield head, body.splitlines()

    def commits(self) -> list[Commit]:
        commits: dict[str, Commit] = {}
        for head, rows in self._log("--name-status", fmt="%H%x01%ae%x01%at%x01%s"):
            sha, email, ts, message = head.split("\x01", 3)
            commit = commits[sha] = Commit(sha=sha, email=email, timestamp=int(ts), message=message)
            for parts in (row.split("\t") for row in rows):
                if len(parts) >= 2:
                    commit.status[parts[-1]] = parts[0][0]
        for sha, rows in self._log("--numstat"):
            for parts in (row.split("\t") for row in rows):
                if len(parts) == 3 and parts[0] != "-":  # "-" counts a binary file
                    commits[sha].numstat[parts[2]] = (int(parts[0]), int(parts[1]))
        # patches of all but deletions: --diff-filter=M would also drop a
        # merge's path modified against its first parent but new to another
        for sha, rows in self._log("-p", "--diff-filter=d", "--no-prefix"):
            commit = commits[sha]
            lines = None
            for row in rows:
                if row.startswith("diff "):
                    rest = row.split(" ", 2)[2]  # "X X" after --git (no prefixes), "X" after --cc
                    path = rest[: (len(rest) - 1) // 2] if row.startswith("diff --git") else rest
                    lines = None
                    if commit.status.get(path) == "M":
                        lines = commit.changed[path] = ([], [])
                elif lines is None:
                    continue
                elif row.startswith("-") and not row.startswith("---"):
                    lines[0].append(row)
                elif row.startswith("+") and not row.startswith("+++"):
                    lines[1].append(row)
        return list(commits.values())

    def file_at(self, sha: str, path: str) -> str:
        return self._git("show", f"{sha}:{path}")


def _snapshot_files(root: Path, suffix: str) -> list[str]:
    return sorted(
        str(p.relative_to(root).as_posix())
        for p in root.rglob(f"*{suffix}")
        if ".git" not in p.parts
    )


def _is_build_file(path: str) -> bool:
    p = Path(path)
    return p.name in BUILD_FILE_NAMES or p.suffix in BUILD_FILE_SUFFIXES


class _CandidateSet:
    def __init__(self):
        self.items: dict[tuple[str, str], FilePairCandidate] = {}

    def tag(self, c_path: str, rust_path: str, heuristic: str,
            commit: Optional[str] = None) -> None:
        cand = self.ensure(c_path, rust_path)
        cand.evidence.add(heuristic)
        if commit and cand.commit is None:
            cand.commit = commit

    def ensure(self, c_path: str, rust_path: str) -> FilePairCandidate:
        key = (c_path, rust_path)
        if key not in self.items:
            self.items[key] = FilePairCandidate(c_path=c_path, rust_path=rust_path)
        return self.items[key]


def get_file_candidates(repo_path, regime: str = "co_evolution") -> list[FilePairCandidate]:
    """Union of candidates from all enabled heuristics, each tagged.

    The general regime falls back to the Cartesian product of snapshot C and
    Rust files (candidates may carry empty evidence); the co-evolution regime
    returns only evidence-tagged pairs. Unreadable history degrades to
    snapshot heuristics with a logged warning.
    """
    root = Path(repo_path)
    repo = GitRepo(root)
    cands = _CandidateSet()

    c_files = _snapshot_files(root, ".c")
    rust_files = _snapshot_files(root, ".rs")

    commits: list[Commit] = []
    if regime == "co_evolution":
        try:
            commits = repo.commits()
        except RuntimeError as exc:
            logger.warning("history unreadable (%s); falling back to snapshot heuristics", exc)

    if commits:
        _mine_synchronous(commits, cands, root, c_files, rust_files)
        _mine_asynchronous(commits, cands)

    _mine_snapshot(root, c_files, rust_files, cands)

    if regime == "general":
        for c in c_files:
            for r in rust_files:
                cands.ensure(c, r)

    out = sorted(cands.items.values(), key=lambda c: (c.c_path, c.rust_path))
    text_of = functools.cache(lambda path: _text_of(path, root, repo, commits))
    for cand in out:
        cand.c_text, cand.rust_text = text_of(cand.c_path), text_of(cand.rust_path)
    return out


def _commit_files(commit: Commit, suffix: str, statuses: str) -> list[str]:
    return sorted(
        p for p, s in commit.status.items() if p.endswith(suffix) and s in statuses
    )


def _mine_synchronous(
    commits: list[Commit], cands: _CandidateSet, root: Path, c_files: list[str], rust_files: list[str]
) -> None:
    # snapshot definition maps for interface-migration lookups
    c_def_files = _definition_homes(root, c_files, split_c_functions)
    rust_def_files = _definition_homes(root, rust_files, split_rust_functions)

    for commit in commits:
        gone_c = _commit_files(commit, ".c", "DM")
        new_rust = _commit_files(commit, ".rs", "A")

        # commit-message keyword matching
        message = commit.message.lower()
        if any(re.search(rf"\b{re.escape(k)}", message) for k in KEYWORDS):
            for c in gone_c:
                for r in new_rust:
                    cands.tag(c, r, "keyword", commit=commit.sha)

        # code churn balance over numstat
        for c in gone_c:
            c_del = commit.numstat.get(c, (0, 0))[1]
            if c_del <= 0:
                continue
            for r in new_rust:
                r_add = commit.numstat.get(r, (0, 0))[0]
                if r_add <= 0:
                    continue
                if abs(c_del - r_add) / max(c_del, r_add) <= CHURN_RATIO:
                    cands.tag(c, r, "churn_balance", commit=commit.sha)

        for path, (removed, added) in commit.changed.items():
            # build-config switch: one build-file diff drops a .c and gains a .rs
            if _is_build_file(path):
                removed_c = {m for line in removed for m in re.findall(r"[\w/.-]+\.c\b", line)}
                added_rust = {m for line in added for m in re.findall(r"[\w/.-]+\.rs\b", line)}
                for c in sorted(removed_c):
                    for r in sorted(added_rust):
                        cands.tag(
                            _resolve_repo_path(c, commit, root),
                            _resolve_repo_path(r, commit, root),
                            "build_config",
                            commit=commit.sha,
                        )

            # interface migration: a caller swaps a C call for a Rust call
            if path.endswith(".rs"):
                continue
            removed_calls = {m.group(1) for line in removed for m in CALL_RE.finditer(line)}
            added_calls = {m.group(1) for line in added for m in CALL_RE.finditer(line)}
            for old_call in sorted(removed_calls - added_calls):
                c_home = c_def_files.get(old_call)
                if c_home is None:
                    continue
                for new_call in sorted(added_calls - removed_calls):
                    rust_home = rust_def_files.get(new_call)
                    if rust_home is not None:
                        cands.tag(c_home, rust_home, "interface_migration", commit=commit.sha)


def _definition_homes(root: Path, files: list[str], split) -> dict[str, str]:
    """Each function name -> the first of ``files`` that defines it."""
    homes: dict[str, str] = {}
    for path in files:
        try:
            for name, _ in split((root / path).read_text(encoding="utf-8")):
                homes.setdefault(name, path)
        except OSError:
            continue
    return homes


def _resolve_repo_path(name: str, commit: Commit, root: Path) -> str:
    """Build files often list bare names; prefer a commit or snapshot match."""
    for path in commit.status:
        if path.endswith(name) or Path(path).name == Path(name).name:
            return path
    for found in root.rglob(Path(name).name):
        if ".git" not in found.parts:
            return str(found.relative_to(root).as_posix())
    return name


def _mine_asynchronous(commits: list[Commit], cands: _CandidateSet) -> None:
    window = WINDOW_DAYS * 86400

    deletions: list[tuple[str, int, str]] = []  # (path, ts, sha)
    creations: list[tuple[str, int, str]] = []
    for commit in commits:
        for path, status in commit.status.items():
            if path.endswith(".c") and status == "D":
                deletions.append((path, commit.timestamp, commit.sha))
            elif path.endswith(".rs") and status == "A":
                creations.append((path, commit.timestamp, commit.sha))
    for c_path, c_ts, del_sha in deletions:
        for r_path, r_ts, _sha in creations:
            if 0 <= r_ts - c_ts <= window:
                cands.tag(c_path, r_path, "delete_then_create", commit=del_sha)

    # evolutionary coupling: co-changed in enough commits
    co_changes: dict[tuple[str, str], int] = {}
    for commit in commits:
        touched_c = [p for p in commit.status if p.endswith(".c")]
        touched_rust = [p for p in commit.status if p.endswith(".rs")]
        for c in touched_c:
            for r in touched_rust:
                co_changes[(c, r)] = co_changes.get((c, r), 0) + 1
    for (c, r), count in sorted(co_changes.items()):
        if count >= COUPLING_MIN_COMMITS:
            cands.tag(c, r, "evolutionary_coupling")

    # developer identity: Rust author was the C file's recent contributor
    rust_creators: dict[str, str] = {}
    c_touchers: dict[str, list[str]] = {}
    for commit in commits:
        for path, status in commit.status.items():
            if path.endswith(".rs") and status == "A" and path not in rust_creators:
                rust_creators[path] = commit.email
            elif path.endswith(".c"):
                c_touchers.setdefault(path, []).append(commit.email)
    for c_path, emails in c_touchers.items():
        recent = set(emails[-RECENT_CONTRIBUTOR_COMMITS:])
        for r_path, creator in rust_creators.items():
            if creator in recent:
                cands.tag(c_path, r_path, "developer_identity")


def _mine_snapshot(
    root: Path,
    c_files: list[str],
    rust_files: list[str],
    cands: _CandidateSet,
) -> None:
    texts: dict[str, str] = {}
    for path in c_files + rust_files:
        try:
            texts[path] = (root / path).read_text(encoding="utf-8")
        except OSError:
            texts[path] = ""

    # module colocation: a build file listing both sides
    build_files = sorted(
        str(p.relative_to(root).as_posix())
        for p in root.rglob("*")
        if p.is_file() and ".git" not in p.parts and _is_build_file(str(p))
    )
    for bf in build_files:
        try:
            content = (root / bf).read_text(encoding="utf-8")
        except OSError:
            continue
        listed_c = [c for c in c_files if Path(c).name in content]
        listed_rust = [r for r in rust_files if Path(r).name in content]
        for c in listed_c:
            for r in listed_rust:
                cands.tag(c, r, "module_colocation")

    # key-token overlap: identifiers rare on both sides, ≥ 3 shared
    ident_re = re.compile(r"[A-Za-z_]\w{3,}")
    side_df: dict[str, dict[str, int]] = {"c": {}, "rs": {}}
    file_idents: dict[str, set[str]] = {}
    for side, files in (("c", c_files), ("rs", rust_files)):
        for path in files:
            idents = set(ident_re.findall(texts[path]))
            file_idents[path] = idents
            for ident in idents:
                side_df[side][ident] = side_df[side].get(ident, 0) + 1
    for c in c_files:
        for r in rust_files:
            shared = {
                ident
                for ident in file_idents[c] & file_idents[r]
                if side_df["c"][ident] <= KEY_TOKEN_MAX_DF
                and side_df["rs"][ident] <= KEY_TOKEN_MAX_DF
            }
            if len(shared) >= KEY_TOKEN_MIN_OVERLAP:
                cands.tag(c, r, "key_token_overlap")

    # shared long string literals
    literal_cache = {path: long_string_literals(texts[path]) for path in c_files + rust_files}
    for c in c_files:
        for r in rust_files:
            if literal_cache[c] & literal_cache[r]:
                cands.tag(c, r, "shared_literal")


def _text_of(path: str, root: Path, repo: GitRepo, commits: list[Commit]) -> str:
    """The snapshot's text of ``path``, else its last text in history."""
    if (root / path).is_file():
        return (root / path).read_text(encoding="utf-8", errors="replace")
    return _text_from_history(repo, commits, path)


def _text_from_history(repo: GitRepo, commits: list[Commit], path: str) -> str:
    for commit in reversed(commits):
        status = commit.status.get(path)
        if status is None:
            continue
        try:
            # a deleted file's last text is in the commit's first parent
            return repo.file_at(f"{commit.sha}^" if status == "D" else commit.sha, path)
        except RuntimeError:
            continue
    return ""
