"""Outside-in tracing for the migration benchmark.

Spans are kept in memory as (name, start, end, parent) and written out when
the benchmark ends. ``instrument`` wraps the toolkit's public calls at the name
each caller looks them up by (``rustport.pipeline.repair_loop`` is bound by
direct import, ``BuildRunner.build`` through the class, and so on), so nothing
inside the program changes and an untraced run records no spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child_time)]

    def root_of(self, idx: int) -> int:
        while self.spans[idx].parent is not None:
            idx = self.spans[idx].parent
        return idx

    def under(self, idx: int, ancestor_name: str) -> bool:
        parent = self.spans[idx].parent
        while parent is not None:
            if self.spans[parent].name == ancestor_name:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self, fh, header: dict) -> None:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        selfs = self.self_times()
        for i, (s, own) in enumerate(zip(self.spans, selfs)):
            fh.write(json.dumps({
                "id": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "self_s": own,
            }) + "\n")


def _observe_build(tracer: Tracer, args, outcome) -> None:
    tracer.sample("cargo.build.ok", 1.0 if outcome.ok else 0.0)


def _observe_preprocess(tracer: Tracer, args, unit) -> None:
    tracer.sample("buildctx.preprocessed_lines", unit.text.count("\n"))


def _observe_retrieve(tracer: Tracer, args, result) -> None:
    tracer.sample("knowledge.docs_per_retrieve", len(args[0].pairs))


def _patch(owner, attr: str, replacement: Callable, saved: list) -> None:
    raw = inspect.getattr_static(owner, attr)
    saved.append((owner, attr, raw))
    if isinstance(raw, classmethod):
        replacement = classmethod(replacement)
    setattr(owner, attr, replacement)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the toolkit's layer entry points with spans for the duration."""
    from rustport import buildctx, cargo, metrics, pipeline, repair, skeleton
    from rustport.knowledge import KnowledgeBase
    from rustport.workspace import Workspace

    targets = [
        (cargo.BuildRunner, "build", "cargo.build", _observe_build),
        (cargo.BuildRunner, "run_tests", "cargo.run_tests", None),
        (buildctx, "preprocess_unit", "buildctx.preprocess_unit", _observe_preprocess),
        (skeleton, "extract_symbols", "csyms.extract_symbols", None),
        (skeleton, "plan_skeleton", "skeleton.plan_skeleton", None),
        (skeleton, "assemble_and_verify", "skeleton.assemble_and_verify", None),
        (skeleton, "load_project", "skeleton.load_project", None),
        (KnowledgeBase, "load", "knowledge.load", None),
        (KnowledgeBase, "retrieve", "knowledge.retrieve", _observe_retrieve),
        (KnowledgeBase, "accumulate", "knowledge.accumulate", None),
        (Workspace, "install_body", "workspace.install_body", None),
        (Workspace, "rollback_body", "workspace.rollback_body", None),
        (Workspace, "commit_install", "workspace.commit_install", None),
        (pipeline, "repair_loop", "repair.repair_loop", None),
        (pipeline, "assemble_context", "translate.assemble_context", None),
        (pipeline, "build_prompt", "translate.build_prompt", None),
        (pipeline, "extract_body", "translate.extract_body", None),
        (pipeline.RunArtifacts, "save_prompt", "pipeline.artifacts", None),
        (pipeline.RunArtifacts, "log_attempts", "pipeline.artifacts", None),
        (repair, "compile_and_install", "repair.compile_and_install", None),
        (repair, "rule_based_fix", "repair.rule_based_fix", None),
        (repair, "model_repair", "repair.model_repair", None),
        (repair, "build_repair_prompt", "translate.build_repair_prompt", None),
        (repair, "extract_body", "translate.extract_body", None),
        (metrics, "compile_and_install", "metrics.compile_and_install", None),
        (metrics, "incremental_comp_rate", "metrics.incremental_comp_rate", None),
        (metrics, "unsafe_ratio", "metrics.unsafe_ratio", None),
        (metrics, "warning_count", "metrics.warning_count", None),
        (metrics, "functional_correctness", "metrics.functional_correctness", None),
    ]
    saved: list = []
    try:
        for owner, attr, name, observe in targets:
            fn = getattr(owner, attr)
            fn = getattr(fn, "__func__", fn)  # unwrap classmethods
            _patch(owner, attr, tracer.wrap(fn, name, observe), saved)
        _patch_layers(tracer, pipeline.TranslationRun, saved)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _patch_layers(tracer: Tracer, run_cls, saved: list) -> None:
    """Schedule-layer spans: a layer runs from one ``_prepare_layer`` call to
    the next, or to the end of ``execute``."""
    prepare, execute = run_cls._prepare_layer, run_cls.execute
    open_layer: list[int] = []

    def close() -> None:
        if open_layer:
            tracer.end(open_layer.pop())

    def traced_prepare(self, layer):
        close()
        open_layer.append(tracer.begin("pipeline.layer"))
        return prepare(self, layer)

    def traced_execute(self):
        try:
            return execute(self)
        finally:
            close()

    _patch(run_cls, "_prepare_layer", traced_prepare, saved)
    _patch(run_cls, "execute", traced_execute, saved)
