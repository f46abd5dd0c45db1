"""Workspace body segments: marker-delimited install, read-back, and rollback.

Every stub body sits between stable begin/end marker comments. Installs record
the prior segment in an on-disk rollback store so a failed compile restores
the file byte-identically; bodies containing marker text are defanged before
install (the rollback store, not parsing, guarantees reversibility).
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from .errors import WorkspaceError
from .skeleton import BODY_BEGIN, BODY_END, module_rel_file

logger = logging.getLogger(__name__)

_INDENT = "    "


def body_file(fn_id: str) -> Path:
    """The module file, relative to the crate root, that holds ``fn_id``'s body."""
    parts = fn_id.split("::")
    if len(parts) < 3 or parts[0] != "crate":
        raise WorkspaceError(f"not a qualified function id: {fn_id!r}")
    return module_rel_file("::".join(parts[:-1]))


def locate_body(text: str, fn_id: str) -> tuple[int, int, list[str]]:
    """Indices of ``fn_id``'s begin and end marker lines in a module's text,
    plus its lines with their endings kept.

    Exactly one begin marker must precede exactly one end marker.
    """
    lines = text.splitlines(keepends=True)
    begin = (BODY_BEGIN + fn_id).strip()
    end = (BODY_END + fn_id).strip()
    begin_idx = [i for i, line in enumerate(lines) if line.strip() == begin]
    end_idx = [i for i, line in enumerate(lines) if line.strip() == end]
    if len(begin_idx) != 1 or len(end_idx) != 1 or begin_idx[0] >= end_idx[0]:
        raise WorkspaceError(f"body markers for {fn_id} missing or duplicated")
    return begin_idx[0], end_idx[0], lines


def segment_body(lines: list[str], begin: int, end: int) -> str:
    """The body between two marker lines, without its install indent."""
    segment = [line.rstrip("\n") for line in lines[begin + 1 : end]]
    return "\n".join(
        line[len(_INDENT):] if line.startswith(_INDENT) else line for line in segment
    )


class Workspace:
    def __init__(self, root):
        self.root = Path(root)
        self._meta = self.root / ".rustport"
        self._rollback_file = self._meta / "rollback.json"

    def module_file(self, fn_id: str) -> Path:
        return self.root / body_file(fn_id)

    # --- segment primitives ----------------------------------------------

    def _locate(self, fn_id: str) -> tuple[Path, int, int, list[str]]:
        path = self.module_file(fn_id)
        try:
            begin, end, lines = locate_body(path.read_text(encoding="utf-8"), fn_id)
        except WorkspaceError as exc:
            raise WorkspaceError(f"{exc} in {path}") from None
        return path, begin, end, lines

    def read_body(self, fn_id: str) -> str:
        _, begin, end, lines = self._locate(fn_id)
        return segment_body(lines, begin, end)

    def write_body(self, fn_id: str, body: str) -> None:
        path, begin, end, lines = self._locate(fn_id)
        rendered = [
            (_INDENT + line + "\n") if line.strip() else "\n" for line in body.splitlines()
        ]
        path.write_text(
            "".join(lines[: begin + 1]) + "".join(rendered) + "".join(lines[end:]),
            encoding="utf-8",
        )

    def _raw_segment(self, fn_id: str) -> str:
        _, begin, end, lines = self._locate(fn_id)
        return "".join(lines[begin + 1 : end])

    def _write_raw_segment(self, fn_id: str, raw: str) -> None:
        path, begin, end, lines = self._locate(fn_id)
        path.write_text(
            "".join(lines[: begin + 1]) + raw + "".join(lines[end:]), encoding="utf-8"
        )

    # --- rollback store ------------------------------------------------------

    def _load_store(self) -> dict[str, list[str]]:
        if self._rollback_file.is_file():
            return json.loads(self._rollback_file.read_text(encoding="utf-8"))
        return {}

    def _save_store(self, store: dict[str, list[str]]) -> None:
        self._meta.mkdir(parents=True, exist_ok=True)
        self._rollback_file.write_text(json.dumps(store, sort_keys=True), encoding="utf-8")

    @staticmethod
    def sanitize(body: str) -> str:
        if "rustport:body" in body:
            logger.warning("body contains marker text; defanged before install")
            body = body.replace("rustport:body", "rustport_body")
        return body

    def install_body(self, fn_id: str, body: str) -> None:
        """Replace the segment, keeping the prior content for rollback."""
        prior = self._raw_segment(fn_id)
        store = self._load_store()
        store.setdefault(fn_id, []).append(prior)
        self._save_store(store)
        self.write_body(fn_id, self.sanitize(body))

    def rollback_body(self, fn_id: str) -> None:
        store = self._load_store()
        stack = store.get(fn_id)
        if not stack:
            raise WorkspaceError(f"no rollback entry for {fn_id}")
        raw = stack.pop()
        self._save_store(store)
        self._write_raw_segment(fn_id, raw)

    def commit_install(self, fn_id: str) -> None:
        """Drop the rollback entry once an installed body is accepted."""
        store = self._load_store()
        if store.get(fn_id):
            store[fn_id].pop()
            self._save_store(store)

    def body_ids(self) -> list[str]:
        """Every function id that has a marked body segment under src/."""
        out = []
        for path in sorted(self.root.glob("src/**/*.rs")):
            for line in path.read_text(encoding="utf-8").splitlines():
                stripped = line.strip()
                if stripped.startswith(BODY_BEGIN.strip()):
                    out.append(stripped[len(BODY_BEGIN.strip()):].strip())
        return out
