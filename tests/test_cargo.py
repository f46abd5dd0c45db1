"""The direct rustc build against `cargo build`, and its stamp.

`reference_build` keeps the cargo path as the reference: every case must give
the same `ok` and the same diagnostics, field for field and in order. The MIR
lints and the post-monomorphization assert fail only when code is generated,
so a build that emitted metadata alone would read them as clean.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from rustport.cargo import OUT_DIR, BuildOutcome, BuildRunner, _parse_message
from rustport.errors import BuildToolError

MANIFEST = '[package]\nname = "{name}"\nversion = "0.1.0"\nedition = "2021"\n'


def make_crate(root: Path, files: dict[str, str], name: str = "probe_crate") -> Path:
    root.mkdir(parents=True)
    (root / "Cargo.toml").write_text(MANIFEST.format(name=name))
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def reference_build(workspace: Path) -> BuildOutcome:
    """What `cargo build --message-format=json` reports for the crate."""
    proc = subprocess.run(
        ["cargo", "build", "--message-format=json"],
        cwd=workspace, capture_output=True, text=True, timeout=600,
    )
    ok = proc.returncode == 0
    errors, warnings = [], []
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if record.get("reason") == "compiler-message":
            diag = _parse_message(record["message"])
            if diag.level == "error":
                errors.append(diag)
            elif diag.level == "warning":
                warnings.append(diag)
        elif record.get("reason") == "build-finished":
            ok = bool(record["success"])
    return BuildOutcome(ok=ok, errors=errors, warnings=warnings)


CASES = {
    "arithmetic_overflow": (
        False, {"src/lib.rs": "pub fn f() -> u8 {\n    let x: u8 = 255;\n    x + 1\n}\n"},
    ),
    "unconditional_panic": (
        False, {"src/lib.rs": "pub fn f() -> i32 {\n    let a = [1, 2];\n    a[5]\n}\n"},
    ),
    "post_mono_assert": (
        False,
        {"src/lib.rs": (
            "struct Check<const N: usize>;\n"
            "impl<const N: usize> Check<N> {\n"
            "    const OK: () = assert!(N < 4, \"N too big\");\n"
            "}\n"
            "pub fn h<const N: usize>() {\n    let () = Check::<N>::OK;\n}\n"
            "pub fn g() {\n    h::<8>();\n}\n"
        )},
    ),
    "type_unresolved_and_parse_errors": (
        False,
        {
            "src/lib.rs": "pub mod a;\npub mod b;\n",
            "src/a.rs": (
                "pub fn f() -> i32 {\n    \"no\"\n}\n"
                "pub fn g() -> i32 {\n    missing_name\n}\n"
            ),
            "src/b.rs": "pub fn h() {\n    let x = ;\n}\n",
        },
    ),
    "unused_mut": (
        True, {"src/lib.rs": "pub fn f() -> i32 {\n    let mut x = 1;\n    x\n}\n"},
    ),
    "unexpected_cfgs": (
        True, {"src/lib.rs": "#[cfg(feature = \"x\")]\npub fn f() {}\npub fn g() {}\n"},
    ),
    "env_pkg_name": (
        True, {"src/lib.rs": "pub fn name() -> &'static str {\n    env!(\"CARGO_PKG_NAME\")\n}\n"},
    ),
    "layout_assert": (
        False,
        {"src/lib.rs": (
            "#[repr(C)]\npub struct P {\n    pub a: u8,\n    pub b: u32,\n}\n"
            "const _: () = assert!(core::mem::size_of::<P>() == 5);\n"
        )},
    ),
}


@pytest.mark.parametrize(
    "case, incremental",
    [pytest.param(case, False, id=case) for case in sorted(CASES)]
    + [pytest.param(case, True, id=f"{case}-incremental") for case in sorted(CASES)],
)
def test_direct_build_matches_cargo_build(tmp_path, case, incremental):
    ok, files = CASES[case]
    expected = reference_build(make_crate(tmp_path / "cargo", files))
    got = BuildRunner().build(make_crate(tmp_path / "direct", files), incremental)
    assert expected.ok is ok
    assert got.ok == expected.ok
    assert got.errors == expected.errors
    assert got.warnings == expected.warnings
    if not ok:
        assert got.errors and all(d.file for d in got.errors)  # no summary record kept


# --- the stamp ---------------------------------------------------------------------


def logging_rustc(tmp_path: Path) -> tuple[str, Path, Path]:
    """A rustc wrapper that logs each invocation; its ``-vV`` answer ends with
    the contents of an extra file, so a test can change the toolchain text."""
    log, extra = tmp_path / "rustc.log", tmp_path / "version-extra"
    log.write_text("")
    extra.write_text("")
    wrapper = tmp_path / "rustc-logged"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'echo "$*" >> "{log}"\n'
        f'[ "$1" = -vV ] && {{ rustc -vV; cat "{extra}"; exit 0; }}\n'
        'exec rustc "$@"\n'
    )
    wrapper.chmod(0o755)
    return str(wrapper), log, extra


def compile_lines(log: Path) -> list[str]:
    return [line for line in log.read_text().splitlines() if line != "-vV"]


def compiles(log: Path) -> int:
    return len(compile_lines(log))


WARNED = {
    "src/lib.rs": "pub mod a;\npub const TEXT: &str = include_str!(\"data.txt\");\n",
    "src/a.rs": "pub fn f() -> i32 {\n    let mut x = 1;\n    x\n}\n",
    "src/data.txt": "hello\n",
}


def test_unchanged_workspace_starts_no_rustc(tmp_path):
    rustc, log, _ = logging_rustc(tmp_path)
    ws = make_crate(tmp_path / "ws", WARNED)
    runner = BuildRunner(rustc=rustc)
    first = runner.build(ws)
    logged = log.read_text()
    second = runner.build(ws)
    assert first.ok and second.ok and len(first.warnings) == 1
    assert log.read_text() == logged  # not even `-vV`
    assert second == first


@pytest.mark.parametrize("first", [True, False], ids=["incremental-first", "plain-first"])
def test_either_mode_hits_the_stamp_of_the_other(tmp_path, first):
    """The incremental cache does not change a build's outcome, so it stays
    out of the stamp's key: a clean build in one mode answers the other."""
    rustc, log, _ = logging_rustc(tmp_path)
    ws = make_crate(tmp_path / "ws", WARNED)
    runner = BuildRunner(rustc=rustc)
    written = runner.build(ws, incremental=first)
    assert written.ok and len(written.warnings) == 1
    assert ["-C incremental=" in line for line in compile_lines(log)] == [first]
    hit = runner.build(ws, incremental=not first)
    assert hit == written
    assert compiles(log) == 1
    assert runner.incremental_builds == int(first)


def _edit_module(ws, extra):
    (ws / "src/a.rs").write_text(WARNED["src/a.rs"] + "pub fn g() {}\n")


def _edit_included(ws, extra):
    (ws / "src/data.txt").write_text("hello again\n")


def _rename_crate(ws, extra):
    (ws / "Cargo.toml").write_text(MANIFEST.format(name="renamed_crate"))


def _new_toolchain_text(ws, extra):
    extra.write_text("patched: yes\n")


@pytest.mark.parametrize(
    "change", [_edit_module, _edit_included, _rename_crate, _new_toolchain_text],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_each_input_change_compiles_again(tmp_path, change):
    rustc, log, extra = logging_rustc(tmp_path)
    ws = make_crate(tmp_path / "ws", WARNED)
    assert BuildRunner(rustc=rustc).build(ws).ok
    assert compiles(log) == 1
    change(ws, extra)
    outcome = BuildRunner(rustc=rustc).build(ws)  # a new runner asks `-vV` again
    assert outcome.ok and len(outcome.warnings) == 1
    assert compiles(log) == 2


def test_failed_build_leaves_no_stamp(tmp_path):
    ws = make_crate(tmp_path / "ws", WARNED)
    runner = BuildRunner()
    assert runner.build(ws).ok
    stamp = ws / OUT_DIR / "stamp.json"
    assert stamp.exists()
    (ws / "src/a.rs").write_text("pub fn f() -> i32 {\n    \"no\"\n}\n")
    assert not runner.build(ws).ok
    assert not stamp.exists()


def test_copied_workspace_reuses_the_stamp(tmp_path):
    rustc, log, _ = logging_rustc(tmp_path)
    ws = make_crate(tmp_path / "ws", WARNED)
    runner = BuildRunner(rustc=rustc)
    first = runner.build(ws)
    shutil.copytree(ws, tmp_path / "copy")
    assert runner.build(tmp_path / "copy") == first
    assert compiles(log) == 1


def test_copy_of_a_crate_reading_its_directory_compiles_again(tmp_path):
    rustc, log, _ = logging_rustc(tmp_path)
    files = {"src/lib.rs": "pub const DIR: &str = env!(\"CARGO_MANIFEST_DIR\");\n"}
    ws = make_crate(tmp_path / "ws", files)
    runner = BuildRunner(rustc=rustc)
    assert runner.build(ws).ok
    assert runner.build(ws).ok and compiles(log) == 1
    shutil.copytree(ws, tmp_path / "copy")
    assert runner.build(tmp_path / "copy").ok
    assert compiles(log) == 2


# --- what a direct build cannot honour ----------------------------------------------


@pytest.mark.parametrize("extra, name", [
    ('[dependencies]\nlibc = "0.2"\n', r"\[dependencies\]"),
    ('[lib]\npath = "src/other.rs"\n', r"\[lib\]"),
    ('[lints.rust]\nunsafe_code = "forbid"\n', r"\[lints\]"),
    ('[features]\nx = []\n', r"\[features\]"),
    ('', r"package\.build"),
    ('', r"build\.rs"),
])
def test_manifest_a_direct_build_cannot_honour_is_refused(tmp_path, extra, name):
    ws = make_crate(tmp_path / "ws", {"src/lib.rs": "pub fn f() {}\n"})
    manifest = MANIFEST.format(name="probe_crate")
    if name == r"package\.build":
        manifest += 'build = "gen.rs"\n'
    if name == r"build\.rs":
        (ws / "build.rs").write_text("fn main() {}\n")
    (ws / "Cargo.toml").write_text(manifest + extra)
    with pytest.raises(BuildToolError, match=name):
        BuildRunner().build(ws)


def test_rustup_proxy_is_resolved_once_per_runner(tmp_path):
    """`rustup which rustc` is asked once, beside a proxy (a link to
    `rustup`); version queries and compiles then go to the rustc it names."""
    log = tmp_path / "calls.log"
    toolchain = tmp_path / "toolchain"
    (toolchain / "bin").mkdir(parents=True)
    direct = toolchain / "bin" / "rustc"
    direct.write_text(f'#!/bin/sh\necho "direct $1" >> "{log}"\nexec rustc "$@"\n')
    direct.chmod(0o755)
    proxy_dir = tmp_path / "proxy"
    proxy_dir.mkdir()
    rustup = proxy_dir / "rustup"
    rustup.write_text(
        f'#!/bin/sh\necho "proxy $*" >> "{log}"\n'
        f'[ "$1" = which ] && {{ echo "{direct}"; exit 0; }}\nexec rustc "$@"\n'
    )
    rustup.chmod(0o755)
    (proxy_dir / "rustc").symlink_to("rustup")
    ws = make_crate(tmp_path / "ws", WARNED)
    runner = BuildRunner(rustc=str(proxy_dir / "rustc"))
    assert runner.build(ws).ok
    (ws / "src/a.rs").write_text("pub fn f() {}\n")
    assert runner.build(ws).ok
    assert log.read_text().splitlines() == [
        "proxy which rustc", "direct -vV", "direct --crate-name", "direct --crate-name",
    ]
