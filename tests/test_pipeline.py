import json
import logging
import shutil

import pytest

from conftest import FIXTURES, build_pipeline

from rustport.backends import OracleBackend, ScriptedFailureBackend
from rustport.graph import FALLBACK, TRANSLATED
from rustport.knowledge import KnowledgeBase
from rustport.knowledge.rules import split_c_functions
from rustport.pipeline import RunArtifacts, TranslationRun
from rustport.workspace import Workspace

LIST_C = (FIXTURES / "mini_list" / "list.c").read_text()
LIST_BODIES = json.loads((FIXTURES / "mini_list" / "oracle_bodies.json").read_text())


def make_run(pipe, backend, tmp_path=None, **kwargs):
    project, workspace, graph, index, layers, runner = pipe
    artifacts = RunArtifacts(tmp_path / "run") if tmp_path else None
    return TranslationRun(
        skeleton=project,
        workspace=workspace,
        graph=graph,
        index=index,
        layers=layers,
        backend=backend,
        runner=runner,
        artifacts=artifacts,
        **kwargs,
    )


@pytest.fixture()
def list_pipe(tmp_path):
    return build_pipeline(tmp_path, {"list.c": LIST_C}, crate="mini_list")


def test_oracle_run_translates_everything(list_pipe, tmp_path):
    run = make_run(list_pipe, OracleBackend(LIST_BODIES), tmp_path)
    outcomes = run.execute()
    assert len(outcomes) == 3
    assert all(o.final_state == "translated" for o in outcomes.values())
    project, workspace, graph, index, layers, runner = list_pipe
    assert all(graph.nodes[fn].state == TRANSLATED for fn in outcomes)
    assert runner.build(workspace.root).ok
    assert "cur.is_null()" in workspace.read_body("crate::list::list_length")


def test_run_artifacts_written(list_pipe, tmp_path):
    run = make_run(list_pipe, OracleBackend(LIST_BODIES), tmp_path)
    run.execute()
    attempts = (tmp_path / "run" / "attempts.jsonl").read_text().splitlines()
    assert len(attempts) == 3  # one first-try attempt per function
    prompts = list((tmp_path / "run" / "prompts").glob("*.txt"))
    assert len(prompts) == 3
    record = json.loads(attempts[0])
    assert record["ok"] is True and record["fix_source"] == "generation"


def test_prompt_files_of_different_tags_never_collide(tmp_path):
    artifacts = RunArtifacts(tmp_path / "run")
    tags = ["crate::net_io::read#1", "crate::net::io_read#1", "crate::net::io_read#12"]
    for tag in tags:
        artifacts.save_prompt(tag, f"prompt of {tag}")
    saved = {p.name: p.read_text() for p in (tmp_path / "run" / "prompts").iterdir()}
    assert saved == {
        "crate.net_io.read#1.txt": "prompt of crate::net_io::read#1",
        "crate.net.io_read#1.txt": "prompt of crate::net::io_read#1",
        "crate.net.io_read#12.txt": "prompt of crate::net::io_read#12",
    }


class RecordingBackend:
    """Passes each request on and keeps it."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def generate(self, req):
        self.requests.append(req)
        return self.inner.generate(req)


def test_saved_prompt_is_the_request_sent(tmp_path):
    """Each prompt file holds exactly what the backend was sent: initial and
    repair prompts, with retrieved examples and rules."""
    kb_c = (FIXTURES / "mini_kb" / "kb.c").read_text()
    bodies = json.loads((FIXTURES / "mini_kb" / "oracle_bodies.json").read_text())
    kb = KnowledgeBase()
    for name, source in split_c_functions(kb_c):
        kb.accumulate(name, source, name, f"pub fn {name}() {{\n{bodies['crate::kb::' + name]}\n}}")
    pipe = build_pipeline(tmp_path / "ws", {"kb.c": kb_c}, crate="mini_kb")
    backend = RecordingBackend(
        ScriptedFailureBackend(failures={"crate::kb::step_up": 1}, bodies=bodies)
    )
    outcomes = make_run(pipe, backend, tmp_path, kb=kb, retrieval_depth=3).execute()
    assert all(o.final_state == "translated" for o in outcomes.values())
    tags = [req.tag for req in backend.requests]
    assert len(set(tags)) == len(tags) == 4  # three initial prompts, one repair
    assert "crate::kb::step_up#2" in tags
    assert any("## Examples" in req.user and "## Reuse rules" in req.user for req in backend.requests)
    prompts = tmp_path / "run" / "prompts"
    assert len(list(prompts.iterdir())) == len(tags)
    for req in backend.requests:
        assert (prompts / f"{req.tag.replace('::', '.')}.txt").read_text() == req.render()


def test_scripted_run_reaches_fallback(list_pipe, tmp_path):
    backend = ScriptedFailureBackend(
        failures={"crate::list::record_push": None}, bodies=LIST_BODIES
    )
    run = make_run(list_pipe, backend, tmp_path, repair_budget=2)
    outcomes = run.execute()
    states = {fn: o.final_state for fn, o in outcomes.items()}
    assert states["crate::list::record_push"] == "fallback"
    assert states["crate::list::list_length"] == "translated"
    project, workspace, graph, index, layers, runner = list_pipe
    assert graph.nodes["crate::list::record_push"].state == FALLBACK
    assert runner.build(workspace.root).ok  # fallback keeps the tree compilable


def test_run_accumulates_into_kb(list_pipe, tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    run = make_run(list_pipe, OracleBackend(LIST_BODIES), tmp_path, kb=kb)
    run.execute()
    assert len(kb.pairs) == 3
    pairs, _, _ = kb.retrieve(LIST_C, k=5)
    assert pairs
    # journal persisted
    assert (tmp_path / "kb" / "pairs.jsonl").is_file()


def synthetic_project(n_dirs=3, fns_per_file=4):
    """A layered project: each function calls one function from the layer
    below, through a shared header type, so scheduling actually matters."""
    files = {"inc/common.h": "struct acc_t { int total; int steps; };\n"}
    bodies = {}
    prev_fn = None
    for d in range(n_dirs):
        lines = ['#include "common.h"\n']
        for i in range(fns_per_file):
            name = f"stage{d}_fn{i}"
            if prev_fn is None:
                lines.append(f"int {name}(int v) {{ return v + {d + i}; }}\n")
                bodies[f"crate::part{d}::unit::{name}"] = f"v + {d + i}"
            else:
                prev_name, prev_module = prev_fn
                lines.append(f"int {prev_name}(int v);\n")
                lines.append(f"int {name}(int v) {{ return {prev_name}(v) + 1; }}\n")
                call = prev_name if prev_module == f"crate::part{d}::unit" else f"{prev_module}::{prev_name}"
                bodies[f"crate::part{d}::unit::{name}"] = f"{call}(v) + 1"
            prev_fn = (name, f"crate::part{d}::unit")
        files[f"part{d}/unit.c"] = "".join(lines)
    return files, bodies


def _translate_layered(tmp_path, caplog, kb):
    """Translate the synthetic project fully, check that its final bodies
    restore with ICompRate 100, and return the per-wave log lines."""
    files, bodies = synthetic_project()
    root = tmp_path / "cproj"
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)

    from rustport.buildctx import (
        CompileCommand,
        PreprocessorConfig,
        derive_unit_context,
        preprocess_unit,
    )
    from rustport.cargo import BuildRunner
    from rustport.graph import build_graph, build_symbol_index, schedule
    from rustport.metrics import incremental_comp_rate
    from rustport.skeleton import SkeletonConfig, assemble_and_verify, plan_skeleton

    units = []
    for rel in sorted(f for f in files if f.endswith(".c")):
        cmd = CompileCommand(
            directory=str(root), source_file=rel, arguments=["cc", "-Iinc", "-c", rel]
        )
        units.append(preprocess_unit(derive_unit_context(cmd), PreprocessorConfig()))
    runner = BuildRunner()
    plan = plan_skeleton(root, units, SkeletonConfig(crate_name="layered"))
    project = assemble_and_verify(plan, tmp_path / "ws_skel", runner)
    index = build_symbol_index(project)
    graph = build_graph(index, project)
    layers = schedule(graph)

    # the call chain forces strictly increasing layers along the chain
    order = layers.flatten()
    positions = {fn: i for i, fn in enumerate(order)}
    assert positions["crate::part0::unit::stage0_fn0"] < positions["crate::part2::unit::stage2_fn3"]

    from rustport.workspace import Workspace

    run = TranslationRun(
        skeleton=project, workspace=Workspace(project.workspace_dir), graph=graph,
        index=index, layers=layers, backend=OracleBackend(bodies), runner=runner,
        kb=kb,
    )
    with caplog.at_level(logging.INFO, logger="rustport.pipeline"):
        outcomes = run.execute()
    assert len(outcomes) == 12
    assert all(o.final_state == "translated" for o in outcomes.values())

    # restoring the final bodies onto a fresh skeleton passes one-by-one
    plan2 = plan_skeleton(root, units, SkeletonConfig(crate_name="layered"))
    fresh = assemble_and_verify(plan2, tmp_path / "ws_fresh", runner)
    final_bodies = {fn: o.final_body for fn, o in outcomes.items()}
    rate, ledger = incremental_comp_rate(fresh.workspace_dir, final_bodies, order, runner)
    assert rate == 100.0
    return [r.getMessage() for r in caplog.records if r.name == "rustport.pipeline"]


def test_layered_synthetic_project_translates_fully(tmp_path, caplog):
    """With no knowledge flowing between layers the 12 functions settle in one
    broad wave, which builds without rustc's incremental cache."""
    lines = _translate_layered(tmp_path, caplog, kb=None)
    assert lines == [lines[0]] and "12 functions, 1 builds (0 incremental)" in lines[0]


def test_layered_synthetic_project_with_a_knowledge_base_uses_the_cache(tmp_path, caplog):
    """An accumulating knowledge base makes 12 one-function waves, each
    narrow enough to build with rustc's incremental cache."""
    lines = _translate_layered(tmp_path, caplog, kb=KnowledgeBase())
    assert [line.split(": ", 1)[1].split(", ")[:2] for line in lines] == [
        ["1 functions", "1 builds (1 incremental)"]
    ] * 12


def test_parallel_generation_same_outcomes(tmp_path):
    pipe1 = build_pipeline(tmp_path / "a", {"list.c": LIST_C}, crate="mini_list")
    pipe2 = build_pipeline(tmp_path / "b", {"list.c": LIST_C}, crate="mini_list")
    out1 = make_run(pipe1, OracleBackend(LIST_BODIES), jobs=1).execute()
    out2 = make_run(pipe2, OracleBackend(LIST_BODIES), jobs=3).execute()
    assert {f: o.final_state for f, o in out1.items()} == {
        f: o.final_state for f, o in out2.items()
    }
    assert {f: o.final_body for f, o in out1.items()} == {
        f: o.final_body for f, o in out2.items()
    }


def test_parallel_retrieval_same_prompts(tmp_path):
    seed = KnowledgeBase(tmp_path / "kb")
    for name, c_source in split_c_functions(LIST_C):
        seed.accumulate(name, c_source, name, f"pub fn {name}() {{\n    todo!()\n}}")
    prompts = {}
    for jobs in (1, 3):
        shutil.copytree(tmp_path / "kb", tmp_path / f"kb{jobs}")
        pipe = build_pipeline(tmp_path / f"p{jobs}", {"list.c": LIST_C}, crate="mini_list")
        run = make_run(pipe, OracleBackend(LIST_BODIES), tmp_path / f"p{jobs}",
                       kb=KnowledgeBase.load(tmp_path / f"kb{jobs}"), jobs=jobs)
        run.execute()
        prompts[jobs] = {p.name: p.read_text() for p in (tmp_path / f"p{jobs}" / "run" / "prompts").iterdir()}
    assert len(prompts[1]) == 3 and "## Examples" in "".join(prompts[1].values())
    assert prompts[3] == prompts[1]
