"""Rust compiler invocation and structured diagnostics parsing.

All compilation in the toolkit goes through one runner, so builds serialize on
a single workspace lock and the invocation count and build time stay
auditable. ``BuildRunner.build`` runs rustc itself, with the arguments and
environment cargo passes for the library of a dependency-free crate in the dev
profile: full code generation, since deny-by-default MIR lints
(``arithmetic_overflow``, ``unconditional_panic``) and post-monomorphization
errors (E0080) only show when code is generated. The crate's name, version and
edition come from the ``[package]`` table the skeleton writes; a manifest or
crate layout that a direct compile cannot honour (any other table or package
key, a ``build.rs``, a binary target) is a ``BuildToolError``. Cargo's own
inputs, ``RUSTFLAGS`` and ``.cargo/config.toml``, do not reach these builds.

When ``rustc`` is a rustup proxy, the runner asks ``rustup which rustc`` once,
in the workspace, and then runs that toolchain's rustc, as cargo does under
rustup.

Outputs go to ``target/rustport/``. A caller asks for rustc's incremental
cache (``-C incremental``, kept in ``target/rustport/incremental``) only when
few items differ from the crate as the cache holds it, which is as the last
clean build that used the cache saw it: rustc saves no incremental state
after a failing build, and hashing and saving the cache costs more than it
saves when most items changed (``repair`` decides). After a clean build a
stamp there records the compiler arguments other than the cache's (the
outcome does not depend on it, so either mode hits the other's stamp) and the
environment, the toolchain's ``rustc -vV``, the sha256 of every file and the
value of every environment variable the build's dep-info lists, and the
warnings. A later build whose inputs all match returns that outcome without
starting rustc; any other build first deletes the stamp.
``cargo`` runs only as the default test command, with ``CARGO_INCREMENTAL=0``
unless the caller's environment sets it: the test command runs once per
evaluation, after translation changed the crate, so hashing and saving an
incremental cache costs more than a later run would gain from it.

Every invocation runs under a time limit: a build that outlives
``BUILD_TIMEOUT_S`` is an infrastructure failure, a test command that outlives
``TEST_TIMEOUT_S`` is reported to the caller as ``HarnessTimeoutError``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import shutil
import signal
import subprocess
import threading
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import BuildToolError, HarnessTimeoutError

logger = logging.getLogger(__name__)

BUILD_TIMEOUT_S = 600.0
TEST_TIMEOUT_S = 600.0


@dataclass
class Suggestion:
    file: str
    byte_start: int
    byte_end: int
    replacement: str
    applicability: str


@dataclass
class Diagnostic:
    level: str
    code: Optional[str]
    message: str
    file: Optional[str]
    line: Optional[int]
    column: Optional[int]
    rendered: str
    byte_start: Optional[int] = None
    byte_end: Optional[int] = None
    suggestions: list[Suggestion] = field(default_factory=list)

    def span_key(self) -> tuple:
        return (self.code, self.file, self.line, self.column)


@dataclass
class BuildOutcome:
    ok: bool
    errors: list[Diagnostic]
    warnings: list[Diagnostic]


def _parse_message(msg: dict) -> Diagnostic:
    code = None
    if isinstance(msg.get("code"), dict):
        code = msg["code"].get("code")
    file = line = column = byte_start = byte_end = None
    for span in msg.get("spans") or []:
        if span.get("is_primary"):
            file = span.get("file_name")
            line = span.get("line_start")
            column = span.get("column_start")
            byte_start = span.get("byte_start")
            byte_end = span.get("byte_end")
            break
    suggestions: list[Suggestion] = []
    for child in msg.get("children") or []:
        for span in child.get("spans") or []:
            repl = span.get("suggested_replacement")
            if repl is None:
                continue
            suggestions.append(
                Suggestion(
                    file=span.get("file_name", ""),
                    byte_start=span.get("byte_start", 0),
                    byte_end=span.get("byte_end", 0),
                    replacement=repl,
                    applicability=span.get("suggestion_applicability") or "Unspecified",
                )
            )
    return Diagnostic(
        level=msg.get("level", ""),
        code=code,
        message=msg.get("message", ""),
        file=file,
        line=line,
        column=column,
        rendered=msg.get("rendered") or msg.get("message", ""),
        byte_start=byte_start,
        byte_end=byte_end,
        suggestions=suggestions,
    )


def _run(argv: list[str], cwd, timeout: float, env: Optional[dict] = None) -> subprocess.CompletedProcess:
    """Run ``argv`` in a process group of its own. On timeout the whole group
    is killed, so a test binary started by cargo dies with it, and
    ``subprocess.TimeoutExpired`` propagates; an interrupt kills it the same
    way."""
    try:
        proc = subprocess.Popen(
            argv,
            cwd=str(cwd),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            errors="replace",  # a test may print any bytes
            start_new_session=True,
        )
    except OSError as exc:
        raise BuildToolError(f"cannot invoke {argv[0]}: {exc}") from exc
    with proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:  # the timeout, or an interrupt: no orphans either way
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


OUT_DIR = "target/rustport"
STAMP_VERSION = 1
_PACKAGE_KEYS = {"name", "version", "edition"}
_UNHONOURED_FILES = ("build.rs", "src/main.rs", "src/bin")


def _read_manifest(workspace_dir: Path) -> tuple[str, str, str]:
    """The package name, version and edition of the crate's ``Cargo.toml``,
    refusing what a direct compile of ``src/lib.rs`` would silently ignore."""
    path = workspace_dir / "Cargo.toml"
    try:
        manifest = tomllib.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
        raise BuildToolError(f"cannot read {path}: {exc}") from exc
    for table in sorted(manifest):
        if table != "package":
            raise BuildToolError(f"{path}: [{table}] cannot be honoured by a direct rustc build")
    package = manifest.get("package")
    if not isinstance(package, dict):
        raise BuildToolError(f"{path}: no [package] table")
    for key in sorted(package):
        if key not in _PACKAGE_KEYS:
            raise BuildToolError(
                f"{path}: package.{key} cannot be honoured by a direct rustc build"
            )
    name, version, edition = (
        package.get("name"), package.get("version", "0.0.0"), package.get("edition", "2015")
    )
    if not all(isinstance(v, str) for v in (name, version, edition)) or not name:
        raise BuildToolError(f"{path}: package name, version and edition must be strings")
    for rel in _UNHONOURED_FILES:
        if (workspace_dir / rel).exists():
            raise BuildToolError(
                f"{workspace_dir / rel}: cannot be honoured by a direct rustc build"
            )
    return name, version, edition


def _is_rustup_proxy(path: Path) -> bool:
    """Whether ``path`` is rustup's proxy (a link to the ``rustup`` binary
    beside it), which resolves the toolchain on each call."""
    rustup = path.with_name("rustup")
    try:
        return rustup.is_file() and os.path.samefile(path, rustup)
    except OSError:
        return False


def _query(argv: list[str], cwd: Path) -> str:
    """The standard output of a short toolchain query."""
    try:
        proc = _run(argv, cwd, BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BuildToolError(f"{' '.join(argv)} timed out") from exc
    if proc.returncode != 0:
        raise BuildToolError(
            f"{' '.join(argv)} failed (exit {proc.returncode}):\n" + proc.stderr[-2000:]
        )
    return proc.stdout


def _is_summary(msg: dict) -> bool:
    """rustc's closing counts, which cargo drops from its message stream: an
    "aborting due to ..." error would read as a spanless error."""
    text = msg.get("message", "")
    return (
        text.startswith("aborting due to")
        or text.endswith("warning emitted")
        or text.endswith("warnings emitted")
    )


def _escape_env_dep(value: str) -> str:
    """An environment value as rustc writes it in an ``# env-dep:`` line."""
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")


def _read_dep_info(text: str) -> tuple[list[str], dict[str, Optional[str]]]:
    """The files and (escaped) environment values a dep-info file lists.
    rustc writes each input file as a rule of its own with no prerequisites,
    and an unset environment variable without ``=``."""
    files: list[str] = []
    env_deps: dict[str, Optional[str]] = {}
    for line in text.splitlines():
        if line.startswith("# env-dep:"):
            name, sep, value = line[len("# env-dep:"):].partition("=")
            env_deps[name] = value if sep else None
        elif line.endswith(":") and not line.startswith("#"):
            files.append(line[:-1].replace("\\ ", " "))
    return files, env_deps


def _file_digests(workspace_dir: Path, files) -> Optional[dict[str, str]]:
    """sha256 of each file (relative to the workspace unless absolute); None
    when one is missing."""
    digests = {}
    for rel in files:
        try:
            digests[rel] = hashlib.sha256((workspace_dir / rel).read_bytes()).hexdigest()
        except OSError:
            return None
    return digests


def _stamped_outcome(
    workspace_dir: Path, stamp_path: Path, key: dict, env: dict
) -> Optional[BuildOutcome]:
    """The stored outcome of the last clean build when every input it read
    is unchanged, else None."""
    try:
        stamp = json.loads(stamp_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(stamp, dict) or stamp.get("key") != key:
        return None
    for name, value in stamp["env_deps"].items():
        current = env.get(name)
        if value != (None if current is None else _escape_env_dep(current)):
            return None
    if _file_digests(workspace_dir, stamp["files"]) != stamp["files"]:
        return None
    warnings = [_parse_message(msg) for msg in stamp["warnings"]]
    return BuildOutcome(ok=True, errors=[], warnings=warnings)


def _write_stamp(
    workspace_dir: Path, stamp_path: Path, key: dict, crate: str, raw_warnings: list[dict]
) -> None:
    """Record a clean build's inputs and warnings, replacing the stamp
    atomically."""
    try:
        dep_info = (stamp_path.parent / f"{crate}.d").read_text(encoding="utf-8")
    except OSError:
        return  # no dep-info, no stamp: the next build compiles again
    files, env_deps = _read_dep_info(dep_info)
    digests = _file_digests(workspace_dir, files)
    if digests is None:
        return
    stamp = {"key": key, "files": digests, "env_deps": env_deps, "warnings": raw_warnings}
    tmp = stamp_path.with_name(stamp_path.name + ".tmp")
    tmp.write_text(json.dumps(stamp), encoding="utf-8")
    os.replace(tmp, stamp_path)


class BuildRunner:
    """Serializes compiler invocations over a workspace and parses their JSON
    diagnostics. ``invocations`` counts every build and test request, stamp
    hits included; ``incremental_builds`` the rustc runs that used the
    incremental cache."""

    def __init__(self, rustc: str = "rustc"):
        self.rustc = rustc
        self._lock = threading.Lock()
        self._toolchain_info: Optional[tuple[str, str]] = None
        self.invocations = 0
        self.incremental_builds = 0
        self.build_seconds = 0.0

    def build(self, workspace_dir, incremental: bool = False) -> BuildOutcome:
        """Compile the workspace's library, with rustc's incremental cache
        when ``incremental`` is set; either way a stamp of the same inputs
        answers without starting rustc."""
        workspace_dir = Path(workspace_dir)
        with self._lock:
            self.invocations += 1
            start = time.perf_counter()
            try:
                return self._build(workspace_dir, incremental)
            finally:
                self.build_seconds += time.perf_counter() - start

    def _build(self, workspace_dir: Path, incremental: bool) -> BuildOutcome:
        name, version, edition = _read_manifest(workspace_dir)
        crate = name.replace("-", "_")
        program, version_text = self._toolchain(workspace_dir)
        argv = [
            program, "--crate-name", crate, f"--edition={edition}", "src/lib.rs",
            "--error-format=json", "--crate-type", "lib", "--emit=dep-info,link",
            "-C", "embed-bitcode=no", "-C", "debuginfo=2",
            "--check-cfg", "cfg(docsrs,test)", "--check-cfg", "cfg(feature, values())",
            "--out-dir", OUT_DIR,
        ]
        # CARGO_MANIFEST_DIR is absolute, so it stays out of the stamp's key:
        # a copied workspace keeps its stamp unless the source reads the
        # variable, which the dep-info then lists as an env-dep
        crate_env = {
            "CARGO_CRATE_NAME": crate, "CARGO_PKG_NAME": name, "CARGO_PKG_VERSION": version,
        }
        env = {**os.environ, **crate_env, "CARGO_MANIFEST_DIR": str(workspace_dir.resolve())}
        key = {"stamp": STAMP_VERSION, "argv": argv, "env": crate_env, "rustc": version_text}
        out_dir = workspace_dir / OUT_DIR
        stamp_path = out_dir / "stamp.json"
        cached = _stamped_outcome(workspace_dir, stamp_path, key, env)
        if cached is not None:
            return cached
        stamp_path.unlink(missing_ok=True)
        out_dir.mkdir(parents=True, exist_ok=True)
        if incremental:
            argv = [*argv, "-C", f"incremental={OUT_DIR}/incremental"]
            self.incremental_builds += 1
        try:
            proc = _run(argv, workspace_dir, BUILD_TIMEOUT_S, env)
        except subprocess.TimeoutExpired as exc:
            raise BuildToolError(f"{program} timed out after {BUILD_TIMEOUT_S:g} s") from exc

        errors: list[Diagnostic] = []
        warnings: list[Diagnostic] = []
        raw_warnings: list[dict] = []
        for line in proc.stderr.splitlines():
            if not line.startswith("{"):
                continue
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                continue
            if msg.get("$message_type") != "diagnostic" or _is_summary(msg):
                continue
            diag = _parse_message(msg)
            if diag.level == "error":
                errors.append(diag)
            elif diag.level == "warning":
                warnings.append(diag)
                raw_warnings.append(msg)
        if proc.returncode != 0:
            if not errors:
                # infrastructure failure: rustc died without compiler diagnostics
                raise BuildToolError(
                    f"{program} failed (exit {proc.returncode}) without diagnostics:\n"
                    + proc.stderr[-2000:]
                )
            return BuildOutcome(ok=False, errors=errors, warnings=warnings)
        _write_stamp(workspace_dir, stamp_path, key, crate, raw_warnings)
        return BuildOutcome(ok=True, errors=errors, warnings=warnings)

    def _toolchain(self, workspace_dir: Path) -> tuple[str, str]:
        """The rustc program to run and its ``-vV`` text, found once per
        runner. A rustup proxy picks the toolchain anew on every call, one
        more process start per compile; as cargo does under rustup, the
        runner calls the picked toolchain's own rustc instead. ``rustup
        which`` runs in the workspace, so a toolchain file there counts, as
        does ``RUSTUP_TOOLCHAIN``."""
        if self._toolchain_info is None:
            program = self.rustc
            found = shutil.which(program)
            if found is not None and _is_rustup_proxy(Path(found)):
                proxy = Path(found)
                rustup = str(proxy.with_name("rustup"))
                direct = Path(_query([rustup, "which", proxy.name], workspace_dir).strip())
                if direct.is_file():
                    program = str(direct)
            self._toolchain_info = (program, _query([program, "-vV"], workspace_dir))
        return self._toolchain_info

    def run_tests(self, workspace_dir, command: Optional[list[str]] = None) -> subprocess.CompletedProcess:
        """Run the test command in the workspace, with cargo's incremental
        cache off unless the caller's environment sets ``CARGO_INCREMENTAL``.
        A given command runs as given; the default, ``cargo test
        --no-fail-fast``, runs every test binary past a failing one."""
        argv = command or ["cargo", "test", "--no-fail-fast"]
        env = {"CARGO_INCREMENTAL": "0", **os.environ}
        with self._lock:
            self.invocations += 1
            try:
                return _run(argv, workspace_dir, TEST_TIMEOUT_S, env)
            except subprocess.TimeoutExpired as exc:
                raise HarnessTimeoutError(
                    f"test command {' '.join(argv)!r} timed out after {TEST_TIMEOUT_S:g} s"
                ) from exc


def render_diagnostics(diags: list[Diagnostic], limit: Optional[int] = None) -> str:
    chosen = diags if limit is None else diags[:limit]
    parts = [d.rendered.rstrip() for d in chosen]
    if limit is not None and len(diags) > limit:
        parts.append(f"... {len(diags) - limit} more diagnostics truncated")
    return "\n".join(parts)
