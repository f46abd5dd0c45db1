"""Rust build-tool invocation and structured diagnostics parsing.

All compilation in the toolkit goes through one runner so builds serialize on
a single workspace lock and the invocation count stays auditable.
"""

from __future__ import annotations

import json
import logging
import subprocess
import threading
from dataclasses import dataclass, field
from typing import Optional

from .errors import BuildToolError

logger = logging.getLogger(__name__)


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
    raw: str = ""


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


class BuildRunner:
    """Serializes `cargo` invocations over a workspace and parses JSON output."""

    def __init__(self, cargo: str = "cargo", extra_args: Optional[list[str]] = None):
        self.cargo = cargo
        self.extra_args = list(extra_args or [])
        self._lock = threading.Lock()
        self.invocations = 0

    def build(self, workspace_dir) -> BuildOutcome:
        argv = [self.cargo, "build", "--message-format=json", *self.extra_args]
        with self._lock:
            self.invocations += 1
            try:
                proc = subprocess.run(
                    argv,
                    cwd=str(workspace_dir),
                    capture_output=True,
                    text=True,
                    check=False,
                )
            except OSError as exc:
                raise BuildToolError(f"cannot invoke {self.cargo}: {exc}") from exc

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
        return BuildOutcome(ok=ok, errors=errors, warnings=warnings, raw=proc.stdout)

    def run_tests(self, workspace_dir, command: Optional[list[str]] = None) -> subprocess.CompletedProcess:
        argv = command or [self.cargo, "test"]
        with self._lock:
            self.invocations += 1
            try:
                return subprocess.run(
                    argv,
                    cwd=str(workspace_dir),
                    capture_output=True,
                    text=True,
                    check=False,
                )
            except OSError as exc:
                raise BuildToolError(f"cannot invoke {argv[0]}: {exc}") from exc


def render_diagnostics(diags: list[Diagnostic], limit: Optional[int] = None) -> str:
    chosen = diags if limit is None else diags[:limit]
    parts = [d.rendered.rstrip() for d in chosen]
    if limit is not None and len(diags) > limit:
        parts.append(f"... {len(diags) - limit} more diagnostics truncated")
    return "\n".join(parts)
