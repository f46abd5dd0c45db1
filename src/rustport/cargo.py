"""Rust build-tool invocation and structured diagnostics parsing.

All compilation in the toolkit goes through one runner so builds serialize on
a single workspace lock and the invocation count and build time stay
auditable. Every invocation runs under a time limit: a build that outlives
``BUILD_TIMEOUT_S`` is an infrastructure failure, a test command that outlives
``TEST_TIMEOUT_S`` is reported to the caller as ``HarnessTimeoutError``.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
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


def _run(argv: list[str], cwd, timeout: float) -> subprocess.CompletedProcess:
    """Run ``argv`` in a process group of its own. On timeout the whole group
    is killed, so a test binary started by cargo dies with it, and
    ``subprocess.TimeoutExpired`` propagates; an interrupt kills it the same
    way."""
    try:
        proc = subprocess.Popen(
            argv,
            cwd=str(cwd),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
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


class BuildRunner:
    """Serializes `cargo` invocations over a workspace and parses JSON output."""

    def __init__(self, cargo: str = "cargo"):
        self.cargo = cargo
        self._lock = threading.Lock()
        self.invocations = 0
        self.build_seconds = 0.0

    def build(self, workspace_dir) -> BuildOutcome:
        argv = [self.cargo, "build", "--message-format=json"]
        with self._lock:
            self.invocations += 1
            start = time.perf_counter()
            try:
                proc = _run(argv, workspace_dir, BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                raise BuildToolError(
                    f"{self.cargo} build timed out after {BUILD_TIMEOUT_S:g} s"
                ) from exc
            finally:
                self.build_seconds += time.perf_counter() - start

        errors: list[Diagnostic] = []
        warnings: list[Diagnostic] = []
        ok = proc.returncode == 0
        for line in proc.stdout.splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("reason") == "compiler-message":
                diag = _parse_message(record.get("message") or {})
                if diag.level == "error":
                    errors.append(diag)
                elif diag.level == "warning":
                    warnings.append(diag)
            elif record.get("reason") == "build-finished":
                ok = bool(record.get("success"))
        if not ok and not errors and proc.returncode != 0:
            # infrastructure failure: cargo died without compiler diagnostics
            raise BuildToolError(
                f"{self.cargo} failed (exit {proc.returncode}) without diagnostics:\n"
                + proc.stderr[-2000:]
            )
        return BuildOutcome(ok=ok, errors=errors, warnings=warnings)

    def run_tests(self, workspace_dir, command: Optional[list[str]] = None) -> subprocess.CompletedProcess:
        argv = command or [self.cargo, "test"]
        with self._lock:
            self.invocations += 1
            try:
                return _run(argv, workspace_dir, TEST_TIMEOUT_S)
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
