"""One benchmark iteration: skeleton -> translate -> evaluate, then the
correctness gate.

The stages make the same public calls ``rustport.cli`` makes for
``skeleton``, ``translate`` and ``evaluate``, looked up through their modules
so that ``tracing.instrument`` can wrap them. Every iteration works in a fresh
tree (cargo target directories included), so the cold skeleton build is paid
the same way every time.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rustport import buildctx, metrics, pipeline, skeleton  # noqa: E402
from rustport import graph as rgraph  # noqa: E402
from rustport.backends import OracleBackend, ScriptedFailureBackend  # noqa: E402
from rustport.cargo import BuildRunner  # noqa: E402
from rustport.knowledge import KnowledgeBase  # noqa: E402
from rustport.workspace import Workspace  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

REPAIR_BUDGET = 5  # the toolkit's defaults
RETRIEVAL_DEPTH = 5
TEST_COMMAND = ["cargo", "test"]


class CountingBackend:
    """Counts generation requests and prompt characters, the model cost a
    user would pay; spans each request when a tracer is given."""

    def __init__(self, inner, tracer: Optional[Tracer]):
        self.inner = inner
        self.tracer = tracer
        self.prompt_chars: list[int] = []

    def generate(self, req):
        self.prompt_chars.append(len(req.system) + len(req.user))
        if self.tracer is None:
            return self.inner.generate(req)
        with self.tracer.span("backends.generate"):
            return self.inner.generate(req)


@dataclass
class Iteration:
    setup_s: float
    translate_s: float
    evaluate_s: float
    functions: int
    states: dict[str, str]
    bodies: dict[str, str]
    rounds: dict[str, int]
    fix_sources: dict[str, list[tuple[str, bool]]]
    ledger: list[tuple[str, str]]
    report: dict
    prompt_chars: list[int]
    graph_stats: dict[str, int]
    rust_bytes: int
    mismatches: list[str] = field(default_factory=list)
    checks: int = 0
    tracer: Optional[Tracer] = None

    @property
    def total_s(self) -> float:
        return self.setup_s + self.translate_s + self.evaluate_s


class _NoTracer:
    @staticmethod
    def span(name):
        return nullcontext()


def _load_pipeline(workspace_dir: Path, tr):
    project = skeleton.load_project(workspace_dir)
    with tr.span("graph.build"):
        index = rgraph.build_symbol_index(project)
        graph = rgraph.build_graph(index, project)
        layers = rgraph.schedule(graph)
    return project, graph, index, layers


def _make_backend(wl: workloads.Workload):
    if wl.backend == "oracle":
        return OracleBackend.from_file(wl.backend_file)
    spec = json.loads(wl.backend_file.read_text(encoding="utf-8"))
    return ScriptedFailureBackend(failures=spec["failures"], bodies=spec["bodies"])


def _rust_bytes(workspace_dir: Path) -> int:
    return sum(p.stat().st_size for p in workspace_dir.glob("src/**/*.rs"))


@dataclass
class Setup:
    wl: workloads.Workload
    ws_skel: Path
    ws_tr: Path
    project: object
    graph: object
    index: object
    layers: object
    kb: Optional[KnowledgeBase]
    backend: CountingBackend
    seconds: float


def setup(name: str, seed: int, work: Path, tracer: Optional[Tracer] = None) -> Setup:
    """Generate the workload under ``work`` (untimed), then time what
    ``rustport skeleton`` and the loading half of ``rustport translate`` do."""
    wl = workloads.generate(name, seed, work / "inputs")
    tr = tracer or _NoTracer()
    ws_skel, ws_tr = work / "ws_skel", work / "ws_tr"
    t0 = time.perf_counter()
    with tr.span("setup"):
        commands = buildctx.dedupe_by_source(buildctx.load_compile_commands(wl.trace))
        cpp = buildctx.PreprocessorConfig()
        units = [buildctx.preprocess_unit(buildctx.derive_unit_context(c), cpp) for c in commands]
        plan = skeleton.plan_skeleton(
            wl.project, units, skeleton.SkeletonConfig(crate_name=wl.crate)
        )
        skeleton.assemble_and_verify(plan, ws_skel, BuildRunner())
        with tr.span("setup.copy_workspace"):
            if wl.rust_tests:
                tests_dst = ws_skel / "tests"
                tests_dst.mkdir(exist_ok=True)
                for f in sorted((wl.project / "rust_tests").glob("*.rs")):
                    shutil.copyfile(f, tests_dst / f.name)
            shutil.copytree(ws_skel, ws_tr)  # cp -r ws_skel ws_tr
        project, graph, index, layers = _load_pipeline(ws_tr, tr)
        kb = KnowledgeBase.load(wl.kb_dir) if wl.kb_dir is not None else None
        backend = CountingBackend(_make_backend(wl), tracer)
    seconds = time.perf_counter() - t0
    return Setup(wl, ws_skel, ws_tr, project, graph, index, layers, kb, backend, seconds)


def run_iteration(name: str, seed: int, work: Path, tracer: Optional[Tracer] = None) -> Iteration:
    """Generate the workload under ``work`` and run it end to end once."""
    st = setup(name, seed, work, tracer)
    wl = st.wl
    tr = tracer or _NoTracer()

    # --- rustport translate --------------------------------------------------------
    run = pipeline.TranslationRun(
        skeleton=st.project,
        workspace=Workspace(st.ws_tr),
        graph=st.graph,
        index=st.index,
        layers=st.layers,
        backend=st.backend,
        runner=BuildRunner(),
        kb=st.kb,
        retrieval_depth=RETRIEVAL_DEPTH,
        repair_budget=REPAIR_BUDGET,
        jobs=1,
        artifacts=pipeline.RunArtifacts(st.ws_tr / "runs" / "run-001"),
        accumulate=st.kb is not None,
    )
    t0 = time.perf_counter()
    with tr.span("translate"):
        outcomes = run.execute()
    translate_s = time.perf_counter() - t0

    # --- rustport evaluate, on a fresh copy of the clean skeleton ---------------
    ws_tr, ws_eval = st.ws_tr, work / "ws_eval"
    t0 = time.perf_counter()
    with tr.span("evaluate"):
        with tr.span("evaluate.copy_skeleton"):
            shutil.copytree(st.ws_skel, ws_eval)
        runner = BuildRunner()
        translated_ws = Workspace(ws_tr)
        eval_project, _, _, eval_layers = _load_pipeline(ws_eval, tr)
        placeholders = {s.qualified_name: s.placeholder_body.strip() for s in eval_project.stubs}
        bodies = {}
        for fn_id in translated_ws.body_ids():
            body = translated_ws.read_body(fn_id)
            if placeholders.get(fn_id, "").strip() != body.strip():
                bodies[fn_id] = body
        rate, ledger = metrics.incremental_comp_rate(ws_eval, bodies, eval_layers.flatten(), runner)
        report = {
            "icomp_rate": rate,
            "unsafe_ratio": metrics.unsafe_ratio(ws_tr),
            "warnings": metrics.warning_count(ws_tr, runner),
            "fc": None,
            "avg_repair": metrics.avg_repair(list(outcomes.values())),
        }
        if wl.rust_tests:
            report["fc"], _note = metrics.functional_correctness(ws_tr, TEST_COMMAND, runner)
    evaluate_s = time.perf_counter() - t0

    translated = sum(1 for o in outcomes.values() if o.final_state == "translated")
    report["translated_pct"] = 100.0 * translated / len(outcomes) if outcomes else 0.0
    it = Iteration(
        setup_s=st.seconds,
        translate_s=translate_s,
        evaluate_s=evaluate_s,
        functions=len(wl.expected),
        states={fn: o.final_state for fn, o in outcomes.items()},
        bodies={fn: o.final_body for fn, o in outcomes.items()},
        rounds={fn: o.rounds_used for fn, o in outcomes.items()},
        fix_sources={
            fn: [(a.fix_source, a.ok) for a in o.attempts] for fn, o in outcomes.items()
        },
        ledger=[(e.fn_id, e.outcome) for e in ledger],
        report=report,
        prompt_chars=st.backend.prompt_chars,
        graph_stats={
            "nodes": len(st.graph.nodes),
            "edges": len(st.graph.call_edges) + len(st.graph.symbol_edges),
            "layers": len(st.layers.layers),
        },
        rust_bytes=_rust_bytes(st.ws_skel),
        tracer=tracer,
    )
    check(wl, it)
    return it


def check(wl: workloads.Workload, it: Iteration) -> None:
    """The correctness gate: one check per function plus one per run-level
    expectation; every failed check is recorded as a mismatch."""
    for fn_id, exp in sorted(wl.expected.items()):
        state = it.states.get(fn_id)
        body = it.bodies.get(fn_id, "")
        if state != exp.state or it.rounds.get(fn_id) != exp.rounds:
            it.mismatches.append(
                f"{fn_id}: {state}/{it.rounds.get(fn_id)} rounds, "
                f"expected {exp.state}/{exp.rounds}"
            )
        elif exp.body is not None and body != exp.body:
            it.mismatches.append(f"{fn_id}: final body differs from the expected body")
        elif exp.state == "fallback" and skeleton.FALLBACK_MARK not in body:
            it.mismatches.append(f"{fn_id}: fallback without the fallback shim")
    for fn_id in sorted(set(it.states) - set(wl.expected)):
        it.mismatches.append(f"{fn_id}: translated but not part of the workload")
    gates = [
        ("icomp_rate", it.report["icomp_rate"], wl.expected_icomp),
        ("translated_pct", it.report["translated_pct"], wl.expected_translated_pct),
    ]
    if wl.expected_fc is not None:
        gates.append(("fc", it.report["fc"], wl.expected_fc))
    for label, got, want in gates:
        if got is None or abs(got - want) > 1e-9:
            it.mismatches.append(f"{label} = {got}, expected {want}")
    it.checks = len(wl.expected) + len(gates)
