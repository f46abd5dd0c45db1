"""Shared fixture builders: synthetic git repositories and C projects."""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def build_pipeline(
    tmp_path: Path, files: dict[str, str], crate: str = "fixture_crate", runner=None
):
    """C sources -> verified skeleton workspace + graph + index + layers,
    built with ``runner`` (a new ``BuildRunner`` by default)."""
    from rustport.buildctx import (
        CompileCommand,
        PreprocessorConfig,
        derive_unit_context,
        preprocess_unit,
    )
    from rustport.cargo import BuildRunner
    from rustport.graph import build_graph, build_symbol_index, schedule
    from rustport.skeleton import SkeletonConfig, assemble_and_verify, plan_skeleton
    from rustport.workspace import Workspace

    root = tmp_path / "cproj"
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    units = []
    for rel in sorted(files):
        cmd = CompileCommand(directory=str(root), source_file=rel, arguments=["cc", "-c", rel])
        units.append(preprocess_unit(derive_unit_context(cmd), PreprocessorConfig()))
    runner = runner or BuildRunner()
    plan = plan_skeleton(root, units, SkeletonConfig(crate_name=crate))
    project = assemble_and_verify(plan, tmp_path / "ws", runner)
    index = build_symbol_index(project)
    graph = build_graph(index, project)
    layers = schedule(graph)
    return project, Workspace(project.workspace_dir), graph, index, layers, runner

DAY = 86400
T0 = 1_600_000_000


def git(repo: Path, *args: str, author=("Dev One", "dev1@example.org"), ts: int = T0) -> None:
    env = dict(os.environ)
    env.update(
        GIT_AUTHOR_NAME=author[0],
        GIT_AUTHOR_EMAIL=author[1],
        GIT_COMMITTER_NAME=author[0],
        GIT_COMMITTER_EMAIL=author[1],
        GIT_AUTHOR_DATE=f"{ts} +0000",
        GIT_COMMITTER_DATE=f"{ts} +0000",
    )
    subprocess.run(
        ["git", "-C", str(repo), *args], env=env, check=True, capture_output=True, text=True
    )


def commit_all(repo: Path, message: str, ts: int, author=("Dev One", "dev1@example.org")) -> None:
    git(repo, "add", "-A", ts=ts, author=author)
    git(repo, "commit", "-q", "-m", message, "--allow-empty", ts=ts, author=author)


def write(repo: Path, rel: str, text: str) -> None:
    p = repo / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")


def build_planted_repo(root: Path) -> dict[str, tuple[str, str]]:
    """Synthetic VCS history with one migration pair per heuristic class.

    Returns {class_name: (c_path, rust_path)} for the nine planted pairs.
    The delete-then-create decoy sits at a 400-day gap (outside the window)
    and is authored by two unrelated identities so no other signal tags it.
    """
    root.mkdir(parents=True, exist_ok=True)
    git(root, "init", "-q")

    planted: dict[str, tuple[str, str]] = {}
    t = T0

    # -- 1. commit-message keyword ------------------------------------------
    write(root, "kw.c", "int kw_compute(int v) {\n" + "    v += 1;\n" * 20 + "    return v;\n}\n")
    commit_all(root, "add keyword module", t, author=("Kay Word", "kw@example.org"))
    t += DAY
    (root / "kw.c").unlink()
    write(root, "kw.rs", "pub fn kw_compute(v: i32) -> i32 {\n    v + 20\n}\n")
    commit_all(root, "port kw module to rust", t, author=("Kay Word", "kw@example.org"))
    planted["keyword"] = ("kw.c", "kw.rs")

    # -- 2. build-config switch ----------------------------------------------
    t += DAY
    write(root, "bcfg.c", "int bcfg_run(void) { return 42; }\n")
    write(root, "Makefile", "OBJS = bcfg.c other.o\nall:\n\tcc $(OBJS)\n")
    commit_all(root, "add bcfg sources", t, author=("Bea Config", "bcfg@example.org"))
    t += DAY
    write(root, "bcfg.rs", "pub fn bcfg_run() -> i32 {\n    42\n}\n")
    write(root, "Makefile", "OBJS = bcfg.rs other.o\nall:\n\tcc $(OBJS)\n")
    commit_all(root, "swap build target source", t, author=("Bea Config", "bcfg@example.org"))
    planted["build_config"] = ("bcfg.c", "bcfg.rs")

    # -- 3. interface migration ----------------------------------------------
    t += DAY
    write(root, "iface_old.c", "unsigned legacy_crc(const char *buf) { return 9u; }\n")
    write(root, "iface_new.rs", "pub fn fast_crc(buf: &[u8]) -> u32 {\n    9\n}\n")
    write(root, "caller_site.txt", "x = legacy_crc(buf);\n")
    commit_all(root, "add checksum implementations", t, author=("Ivy Face", "iface@example.org"))
    t += DAY
    write(root, "caller_site.txt", "x = fast_crc(buf);\n")
    commit_all(root, "switch checksum call site", t, author=("Ivy Face", "iface@example.org"))
    planted["interface_migration"] = ("iface_old.c", "iface_new.rs")

    # -- 4. code churn balance -------------------------------------------------
    t += DAY
    churn_body = "\n".join(f"    total += {i};" for i in range(24))
    write(root, "churn.c", "int churn_total(void) {\n    int total = 0;\n" + churn_body + "\n    return total;\n}\n")
    commit_all(root, "add churn module", t, author=("Chu Rn", "churn@example.org"))
    t += DAY
    (root / "churn.c").unlink()
    rust_churn = "\n".join(f"    total += {i};" for i in range(22))
    write(root, "churn.rs", "pub fn churn_total() -> i32 {\n    let mut total = 0;\n" + rust_churn + "\n    total\n}\n")
    commit_all(root, "replace accumulation internals", t, author=("Chu Rn", "churn@example.org"))
    planted["churn_balance"] = ("churn.c", "churn.rs")

    # -- 5. delete-then-create at 300 days, decoy at 400 days -------------------
    write(root, "dtcdecoy.c", "int dtcdecoy_calc(void) { return 1; }\n")
    write(root, "dtc.c", "int dtc_calc(void) { return 2; }\n")
    commit_all(root, "add decoy and dtc sources", T0 - 10 * DAY, author=("Del Old", "delold@example.org"))
    (root / "dtcdecoy.c").unlink()
    commit_all(root, "drop decoy implementation", T0 - 9 * DAY, author=("Del Old", "delold@example.org"))
    write(root, "dtcdecoy.rs", "pub fn dtcdecoy_calc() -> i32 {\n    1\n}\n")
    commit_all(
        root,
        "unrelated decoy rust addition",
        T0 - 9 * DAY + 400 * DAY,
        author=("New Comer", "newcomer@example.org"),
    )
    (root / "dtc.c").unlink()
    commit_all(root, "drop dtc implementation", T0 + 600 * DAY, author=("Del Two", "deltwo@example.org"))
    write(root, "dtc.rs", "pub fn dtc_calc() -> i32 {\n    2\n}\n")
    commit_all(
        root,
        "late replacement lands",
        T0 + 900 * DAY,
        author=("Cre Ator", "creator@example.org"),
    )
    planted["delete_then_create"] = ("dtc.c", "dtc.rs")

    # -- 6. evolutionary coupling ---------------------------------------------
    t = T0 + 1000 * DAY
    write(root, "coup.c", "int coup_step(void) { return 0; }\n")
    write(root, "coup.rs", "pub fn coup_step() -> i32 {\n    0\n}\n")
    commit_all(root, "introduce coupled units", t, author=("Co Up", "coup@example.org"))
    for i in (1, 2):
        t += DAY
        write(root, "coup.c", f"int coup_step(void) {{ return {i}; }}\n")
        write(root, "coup.rs", f"pub fn coup_step() -> i32 {{\n    {i}\n}}\n")
        commit_all(root, f"adjust coupled step {i}", t, author=("Co Up", "coup@example.org"))
    planted["evolutionary_coupling"] = ("coup.c", "coup.rs")

    # -- 7. developer identity ---------------------------------------------------
    t += DAY
    write(root, "devid.c", "int devid_sum(int a, int b) { return a + b; }\n")
    commit_all(root, "maintain devid module", t, author=("Rust Fan", "rustfan@example.org"))
    t += DAY
    write(root, "devid.rs", "pub fn devid_sum(a: i32, b: i32) -> i32 {\n    a + b\n}\n")
    commit_all(root, "begin devid experiment", t, author=("Rust Fan", "rustfan@example.org"))
    planted["developer_identity"] = ("devid.c", "devid.rs")

    # -- 8. module colocation ------------------------------------------------------
    t += DAY
    write(root, "coloc.c", "int coloc_fill(void) { return 3; }\n")
    write(root, "coloc.rs", "pub fn coloc_fill() -> i32 {\n    3\n}\n")
    write(root, "BUILD.gn", 'sources = [ "coloc.c", "coloc.rs" ]\n')
    commit_all(root, "introduce colocated target", t, author=("Colo Cate", "coloc@example.org"))
    planted["module_colocation"] = ("coloc.c", "coloc.rs")

    # -- 9. semantic: key-token overlap plus a shared long literal ----------------
    t += DAY
    write(
        root,
        "sem.c",
        "#define SEM_ERR_NO_MEM -12\n"
        "#define SEM_MAX_DEPTH 48\n"
        "static unsigned sem_hash_seed = 0x9e3779b9u;\n"
        'const char *sem_banner = "semantic checkpoint alpha";\n'
        "int sem_probe(void) { return SEM_ERR_NO_MEM + SEM_MAX_DEPTH; }\n",
    )
    write(
        root,
        "sem.rs",
        "pub const SEM_ERR_NO_MEM: i32 = -12;\n"
        "pub const SEM_MAX_DEPTH: i32 = 48;\n"
        "pub static sem_hash_seed: u32 = 0x9e3779b9;\n"
        'pub const SEM_BANNER: &str = "semantic checkpoint alpha";\n'
        "pub fn sem_probe() -> i32 {\n    SEM_ERR_NO_MEM + SEM_MAX_DEPTH\n}\n",
    )
    commit_all(root, "snapshot semantic siblings", t, author=("Sem Antic", "sem@example.org"))
    planted["semantic"] = ("sem.c", "sem.rs")

    return planted


def write_trace(project_root: Path, rel_sources, extra_args=()) -> Path:
    """Write a compile_commands.json for the given project sources."""
    entries = [
        {
            "directory": str(project_root),
            "file": rel,
            "arguments": ["cc", *extra_args, "-c", rel],
        }
        for rel in rel_sources
    ]
    trace = project_root / "compile_commands.json"
    trace.write_text(json.dumps(entries, indent=2), encoding="utf-8")
    return trace
