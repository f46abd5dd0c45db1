"""Wave-by-wave translation run: retrieval, generation, repair, accumulation.

The skeleton fixes every signature, type and global before any body exists,
and prompts read only the skeleton, so one schedule layer hands the next
nothing but what the knowledge base accumulates from it. A run therefore
settles in *waves*: the whole schedule as one wave when no knowledge flows
between layers (no knowledge base, accumulation off, or retrieval depth 0),
otherwise one wave per layer.

Within a wave, initial generation may fan out across worker threads; the
wave's functions then settle together, each repair step built as one batch
(see ``repair``), and results are reduced in canonical schedule order so runs
are reproducible. One line per wave is logged with its builds (and how many
used rustc's incremental cache) and times.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .cargo import BuildRunner
from .graph import ScheduleLayers, SkeletonGraph, GlobalSymbolIndex
from .knowledge import KnowledgeBase
from .repair import (
    DEFAULT_REPAIR_BUDGET,
    FunctionOutcome,
    repair_layer,
    repair_loop,  # noqa: F401  (the benchmark's tracer wraps it under this name)
    repair_steps,
)
from .skeleton import SkeletonProject
from .translate import TranslationContext, assemble_context, build_prompt, extract_body
from .workspace import Workspace

logger = logging.getLogger(__name__)


@dataclass
class RunArtifacts:
    run_dir: Path

    def __post_init__(self):
        self.run_dir = Path(self.run_dir)
        (self.run_dir / "prompts").mkdir(parents=True, exist_ok=True)
        self.attempts_file = self.run_dir / "attempts.jsonl"

    def save_prompt(self, tag: str, text: str) -> None:
        """One file per tag, named injectively: ``crate::a::f#2`` is saved as
        ``prompts/crate.a.f#2.txt`` (a Rust path holds no ``.``)."""
        name = tag.replace("::", ".")
        (self.run_dir / "prompts" / f"{name}.txt").write_text(text, encoding="utf-8")

    def log_attempts(self, outcome: FunctionOutcome) -> None:
        with self.attempts_file.open("a", encoding="utf-8") as fh:
            for attempt in outcome.attempts:
                fh.write(
                    json.dumps(
                        {
                            "function": outcome.node_id,
                            "round": attempt.round_index,
                            "ok": attempt.ok,
                            "fix_source": attempt.fix_source,
                            "diagnostics": attempt.diagnostics,
                            "note": attempt.note,
                            "body": attempt.body,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


@dataclass
class TranslationRun:
    skeleton: SkeletonProject
    workspace: Workspace
    graph: SkeletonGraph
    index: GlobalSymbolIndex
    layers: ScheduleLayers
    backend: object
    runner: BuildRunner
    kb: Optional[KnowledgeBase] = None
    retrieval_depth: int = 5
    repair_budget: int = DEFAULT_REPAIR_BUDGET
    jobs: int = 1
    artifacts: Optional[RunArtifacts] = None
    accumulate: bool = True
    outcomes: dict[str, FunctionOutcome] = field(default_factory=dict)

    def _waves(self) -> list[tuple[str, list[str]]]:
        """The schedule as the units that settle together, each with its name:
        one wave per layer when accumulated knowledge reaches later layers'
        retrievals, else the whole schedule in canonical order."""
        layers = self.layers.layers
        layered = [(f"layer {number}", layer) for number, layer in enumerate(layers)]
        if len(layers) <= 1 or (
            self.kb is not None and self.accumulate and self.retrieval_depth > 0
        ):
            return layered
        return [(f"wave 0 (layers 0-{len(layers) - 1})", self.layers.flatten())]

    def execute(self) -> dict[str, FunctionOutcome]:
        for name, wave in self._waves():
            start = time.perf_counter()
            builds, build_s = self.runner.invocations, self.runner.build_seconds
            incremental = self.runner.incremental_builds
            prepared = self._prepare_layer(wave)
            stubs = {fn_id: self.skeleton.stub_by_name(fn_id) for fn_id in wave}
            machines = {}
            for fn_id in wave:
                ctx, body = prepared[fn_id]
                machines[fn_id] = repair_steps(
                    stubs[fn_id], ctx, body, self.backend, index=self.index,
                    budget=self.repair_budget, prompt_sink=self._prompt_sink,
                )
            settled = repair_layer(self.workspace, machines, self.runner)
            for fn_id in wave:  # canonical order: reduce deterministically
                outcome = settled[fn_id]
                stub = stubs[fn_id]
                self.outcomes[fn_id] = outcome
                self.graph.mark(fn_id, outcome.final_state)
                if self.artifacts is not None:
                    self.artifacts.log_attempts(outcome)
                if (
                    outcome.final_state == "translated"
                    and self.kb is not None
                    and self.accumulate
                ):
                    self.kb.accumulate(
                        c_name=stub.origin.name,
                        c_source=stub.origin.source_text,
                        rust_name=fn_id,
                        rust_source=f"{stub.signature_text} {{\n{outcome.final_body}\n}}",
                    )
            logger.info(
                "%s: %d functions, %d builds (%d incremental), %.2f s building, %.2f s wall",
                name, len(wave), self.runner.invocations - builds,
                self.runner.incremental_builds - incremental,
                self.runner.build_seconds - build_s, time.perf_counter() - start,
            )
        return self.outcomes

    def _prepare_layer(self, layer: list[str]) -> dict[str, tuple[TranslationContext, str]]:
        """Assemble contexts and run initial generation for a wave's functions,
        possibly in parallel: each function's context and initial body."""
        def prepare(fn_id: str):
            ctx = assemble_context(fn_id, self.skeleton, self.graph)
            examples, api_rules, frag_rules = [], [], []
            if self.kb is not None and self.retrieval_depth > 0:
                examples, api_rules, frag_rules = self.kb.retrieve(
                    ctx.c_source, k=self.retrieval_depth
                )
            request = build_prompt(
                ctx, f"{fn_id}#1", examples, list(api_rules) + list(frag_rules)
            )
            if self.artifacts is not None:
                self.artifacts.save_prompt(request.tag, request.render())
            resp = self.backend.generate(request)
            fn_name = fn_id.rsplit("::", 1)[1]
            if resp.finish_reason == "error":
                logger.warning("initial generation failed for %s: %s", fn_id, resp.backend_id)
                body = ""  # forces a compile failure; the repair loop takes over
            else:
                body = extract_body(resp.text, fn_name)
            return fn_id, (ctx, body)

        if self.jobs > 1 and len(layer) > 1:
            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                results = dict(pool.map(prepare, layer))
        else:
            results = dict(prepare(fn) for fn in layer)
        return results

    def _prompt_sink(self, tag: str, text: str) -> None:
        if self.artifacts is not None:
            self.artifacts.save_prompt(tag, text)
