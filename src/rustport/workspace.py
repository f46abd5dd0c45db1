"""Workspace body segments: marker-delimited install, read-back, and rollback.

Every stub body sits between stable begin/end marker comments. Installs record
the prior segment in an on-disk rollback store before any segment is written,
so a failed compile restores the file byte-identically; bodies containing
marker text are defanged before install (the rollback store, not parsing,
guarantees reversibility). Opening a workspace restores every entry a crashed
run left pending, so no unverified body survives a crash.
"""

from __future__ import annotations

import functools
import json
import logging
import os
from collections import defaultdict
from pathlib import Path
from typing import Iterable

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


def locate_bodies(text: str, fn_ids: Iterable[str]) -> tuple[dict[str, tuple[int, int]], list[str]]:
    """Indices of each function's begin and end marker lines in a module's
    text, from one pass over it, plus its lines with their endings kept.

    For every function exactly one begin marker must precede exactly one end
    marker.
    """
    fn_ids = list(fn_ids)
    lines = text.splitlines(keepends=True)
    wanted: dict[str, tuple[str, int]] = {}
    for fn_id in fn_ids:
        wanted[(BODY_BEGIN + fn_id).strip()] = (fn_id, 0)
        wanted[(BODY_END + fn_id).strip()] = (fn_id, 1)
    found: dict[str, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
    for i, line in enumerate(lines):
        hit = wanted.get(line.strip())
        if hit is not None:
            found[hit[0]][hit[1]].append(i)
    spans = {}
    for fn_id in fn_ids:
        begins, ends = found[fn_id]
        if len(begins) != 1 or len(ends) != 1 or begins[0] >= ends[0]:
            raise WorkspaceError(f"body markers for {fn_id} missing or duplicated")
        spans[fn_id] = (begins[0], ends[0])
    return spans, lines


def locate_body(text: str, fn_id: str) -> tuple[int, int, list[str]]:
    """Indices of ``fn_id``'s begin and end marker lines in a module's text,
    plus its lines with their endings kept."""
    spans, lines = locate_bodies(text, [fn_id])
    return (*spans[fn_id], lines)


def segment_body(lines: list[str], begin: int, end: int) -> str:
    """The body between two marker lines, without its install indent."""
    segment = [line.rstrip("\n") for line in lines[begin + 1 : end]]
    return "\n".join(
        line[len(_INDENT):] if line.startswith(_INDENT) else line for line in segment
    )


def _render(body: str) -> str:
    """A body as its raw segment: indented, blank lines kept empty."""
    return "".join(
        (_INDENT + line + "\n") if line.strip() else "\n" for line in body.splitlines()
    )


def _replace_file(path: Path, text: str) -> None:
    """Write through a sibling file and rename it over ``path``, so a crash
    leaves either the old or the new contents, never a torn file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class Workspace:
    def __init__(self, root):
        self.root = Path(root)
        self._meta = self.root / ".rustport"
        self._rollback_file = self._meta / "rollback.json"
        self._recover()

    def module_file(self, fn_id: str) -> Path:
        return self.root / body_file(fn_id)

    # --- segment primitives ----------------------------------------------

    def locate(
        self, fn_ids: Iterable[str]
    ) -> dict[Path, tuple[dict[str, tuple[int, int]], list[str]]]:
        """For each module file holding some of ``fn_ids``, read and parsed
        once: the begin and end marker line indices of each of its functions
        and its lines with their endings kept (see ``locate_bodies``)."""
        groups: dict[Path, list[str]] = defaultdict(list)
        for fn_id in fn_ids:
            groups[self.module_file(fn_id)].append(fn_id)
        located = {}
        for path, ids in groups.items():
            try:
                located[path] = locate_bodies(path.read_text(encoding="utf-8"), ids)
            except WorkspaceError as exc:
                raise WorkspaceError(f"{exc} in {path}") from None
        return located

    def read_body(self, fn_id: str) -> str:
        [(spans, lines)] = self.locate([fn_id]).values()
        return segment_body(lines, *spans[fn_id])

    def _raw_segments(self, fn_ids: Iterable[str]) -> dict[str, str]:
        raws = {}
        for spans, lines in self.locate(fn_ids).values():
            for fn_id, (begin, end) in spans.items():
                raws[fn_id] = "".join(lines[begin + 1 : end])
        return raws

    def _write_raw_segments(self, raws: dict[str, str]) -> None:
        """Write each raw segment between its markers, one write per file."""
        for path, (spans, lines) in self.locate(raws).items():
            # bottom-up, so splicing one segment leaves the others' indices valid
            for fn_id in sorted(spans, key=lambda f: spans[f][0], reverse=True):
                begin, end = spans[fn_id]
                lines[begin + 1 : end] = [raws[fn_id]]
            _replace_file(path, "".join(lines))

    # --- rollback store ------------------------------------------------------

    def _load_store(self) -> dict[str, list[str]]:
        if self._rollback_file.is_file():
            return json.loads(self._rollback_file.read_text(encoding="utf-8"))
        return {}

    def _save_store(self, store: dict[str, list[str]]) -> None:
        self._meta.mkdir(parents=True, exist_ok=True)
        _replace_file(self._rollback_file, json.dumps(store, sort_keys=True))

    def _recover(self) -> None:
        """Restore the segment each pending entry saved before its first
        uncommitted install, then clear the store."""
        store = self._load_store()
        pending = {fn_id: stack[0] for fn_id, stack in store.items() if stack}
        if not pending:
            return
        logger.warning(
            "restoring %d body segment(s) left uncommitted in %s", len(pending), self.root
        )
        self._write_raw_segments(pending)
        self._save_store({})

    @staticmethod
    def sanitize(body: str) -> str:
        if "rustport:body" in body:
            logger.warning("body contains marker text; defanged before install")
            body = body.replace("rustport:body", "rustport_body")
        return body

    def install_bodies(self, bodies: dict[str, str]) -> None:
        """Replace the segments, saving every prior segment for rollback
        before any segment is written."""
        priors = self._raw_segments(bodies)
        store = self._load_store()
        for fn_id, prior in priors.items():
            store.setdefault(fn_id, []).append(prior)
        self._save_store(store)
        self._write_raw_segments(
            {fn_id: _render(self.sanitize(body)) for fn_id, body in bodies.items()}
        )

    def rollback_bodies(self, fn_ids: Iterable[str]) -> None:
        store = self._load_store()
        raws = {}
        for fn_id in fn_ids:
            if not store.get(fn_id):
                raise WorkspaceError(f"no rollback entry for {fn_id}")
            raws[fn_id] = store[fn_id].pop()
        # segments first: a crash in between leaves the entries to restore again
        self._write_raw_segments(raws)
        self._save_store(store)

    def commit_installs(self, fn_ids: Iterable[str]) -> None:
        """Drop the rollback entries once installed bodies are accepted."""
        store = self._load_store()
        for fn_id in fn_ids:
            if store.get(fn_id):
                store[fn_id].pop()
        self._save_store(store)

    def uncommitted(self, fn_ids: Iterable[str]) -> set[str]:
        """Those of ``fn_ids`` installed but neither committed nor rolled
        back: their rollback entries are pending."""
        store = self._load_store()
        return {fn_id for fn_id in fn_ids if store.get(fn_id)}

    def install_body(self, fn_id: str, body: str) -> None:
        """Replace the segment, keeping the prior content for rollback."""
        self.install_bodies({fn_id: body})

    def rollback_body(self, fn_id: str) -> None:
        self.rollback_bodies([fn_id])

    def commit_install(self, fn_id: str) -> None:
        self.commit_installs([fn_id])

    @functools.cached_property
    def body_count(self) -> int:
        """How many marked body segments the workspace holds, counted once:
        installs replace segments but never add or remove one."""
        return len(self.body_ids())

    def body_ids(self) -> list[str]:
        """Every function id that has a marked body segment under src/."""
        out = []
        for path in sorted(self.root.glob("src/**/*.rs")):
            for line in path.read_text(encoding="utf-8").splitlines():
                stripped = line.strip()
                if stripped.startswith(BODY_BEGIN.strip()):
                    out.append(stripped[len(BODY_BEGIN.strip()):].strip())
        return out
