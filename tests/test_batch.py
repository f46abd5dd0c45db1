"""Batched compilation of a wave against the layer-at-a-time serial reference.

The serial reference settles the schedule one layer after another and builds
once per candidate body (``repair_loop`` per function, ``compile_and_install``
per ICompRate body). The batched path settles each wave (the whole schedule
when no knowledge flows between layers, else one layer) and builds each step
of it once, blaming errors on body segments. Outcomes, ledgers, knowledge-base
journals and initial-generation prompts must match exactly. Repair prompts may
differ only in the source positions they quote (``file:line:column`` and the
line-number gutter): a batch build sees the other candidates of the same
file, those of later layers included, where the reference sees the earlier
layers' final bodies and the later layers' placeholders.
"""

import json
import logging
import re
import shutil
from dataclasses import replace

import pytest

from conftest import FIXTURES, build_pipeline, write_trace
from test_acceptance import FIXTURE_PROJECTS, run_cli
from test_cargo import compile_lines, logging_rustc

from rustport.backends import OracleBackend, ScriptedFailureBackend
from rustport.cargo import BuildRunner
from rustport.graph import build_graph, build_symbol_index, schedule
from rustport.knowledge import KnowledgeBase
from rustport.metrics import LedgerEntry, incremental_comp_rate
from rustport.pipeline import RunArtifacts, TranslationRun
from rustport.repair import (
    compile_and_install,
    compile_batch,
    repair_layer,
    repair_loop,
    settle_bodies,
)
from rustport.skeleton import FALLBACK_MARK, load_project
from rustport.workspace import Workspace

# one file: two good bodies, a real parse error and a type error
SHARED_C = "\n".join(
    f"int sh_{i}(int a, int b) {{\n    return a + b + {i};\n}}\n" for i in range(4)
)
SHARED_BODIES = {
    "crate::shared_file::sh_0": "a + b",
    "crate::shared_file::sh_1": "a +",
    "crate::shared_file::sh_2": 'let s: i32 = "not a number";\ns + a',
    "crate::shared_file::sh_3": "a * b + 3",
}

# a layer of six independent functions in two files for the scripted runs
WIDE_FILES = {
    f"w{u}.c": "\n".join(
        f"int w{u}_f{i}(int a, int b) {{\n    return a - b + {i};\n}}\n" for i in range(3)
    )
    for u in range(2)
}
WIDE_VALID = {
    "crate::w0::w0_f0": "a - b",
    "crate::w0::w0_f1": "let wide: i64 = (a as i64) - b as i64;\nwide",  # rule fix: cast
    "crate::w0::w0_f2": "let total = a;\ntotal -= b;\ntotal + 2",  # rule fix: mut
    "crate::w1::w1_f0": "a - b",
    "crate::w1::w1_f1": "a - b + 1",
    "crate::w1::w1_f2": "a -",  # a parse error, every attempt
}
WIDE_FAILURES = {"crate::w0::w0_f0": 1, "crate::w1::w1_f0": 2, "crate::w1::w1_f1": None}

# five layers in two files: callers share a file with their callees, and a
# later layer's function sits above an earlier layer's (mid and top above
# leaf_add and leaf_sub, edge above peak)
LAYERED_FILES = {
    "lay0.c": (
        "int leaf_add(int a, int b);\n"
        "int leaf_sub(int a, int b);\n\n"
        "int mid(int a, int b) {\n    return leaf_add(a, b) * 2;\n}\n\n"
        "int leaf_add(int a, int b) {\n    return a + b;\n}\n\n"
        "int top(int a, int b) {\n    return mid(a, b) - leaf_sub(a, b);\n}\n\n"
        "int leaf_sub(int a, int b) {\n    return a - b;\n}\n\n"
        "int leaf_odd(int a, int b) {\n    return a + b + 1;\n}\n"
    ),
    "lay1.c": (
        "int mid(int a, int b);\n"
        "int top(int a, int b);\n"
        "int peak(int a, int b);\n\n"
        "int edge(int a, int b) {\n    return peak(a, b) - 1;\n}\n\n"
        "int side(int a, int b) {\n    return mid(a, b) + 1;\n}\n\n"
        "int peak(int a, int b) {\n    return top(a, b) + side(a, b);\n}\n"
    ),
}
LAYERED_VALID = {
    "crate::lay0::leaf_add": "a + b",  # layer 0
    "crate::lay0::leaf_sub": "let wide: i64 = (a as i64) - b as i64;\nwide",  # rule fix: cast
    "crate::lay0::leaf_odd": "a +",  # a parse error, every attempt: fallback
    "crate::lay0::mid": "leaf_add(a, b) * 2",  # layer 1, one model repair
    "crate::lay0::top": "let total = mid(a, b);\ntotal -= leaf_sub(a, b);\ntotal",  # layer 2, rule fix: mut
    "crate::lay1::side": "mid(a, b) + 1",  # layer 2, rule fix: path
    "crate::lay1::peak": "crate::lay0::top(a, b) + side(a, b)",  # layer 3, two model repairs
    "crate::lay1::edge": "peak(a, b) - 1",  # layer 4, never valid: fallback
}
LAYERED_FAILURES = {"crate::lay0::mid": 1, "crate::lay1::peak": 2, "crate::lay1::edge": None}

SCRIPTED = {  # name: (C files, crate, failures, valid bodies)
    "scripted": (WIDE_FILES, "wide_crate", WIDE_FAILURES, WIDE_VALID),
    "layered": (LAYERED_FILES, "layered_crate", LAYERED_FAILURES, LAYERED_VALID),
}


def clone_pipeline(ws_dir, dest):
    """A fresh copy of a verified skeleton with its graph and schedule."""
    shutil.copytree(ws_dir, dest, ignore=shutil.ignore_patterns("target"))
    project = load_project(dest)
    index = build_symbol_index(project)
    graph = build_graph(index, project)
    return project, Workspace(dest), graph, index, schedule(graph), BuildRunner()


def make_run(pipe, backend, jobs=1, budget=3, run_dir=None, kb=None, k=5):
    project, workspace, graph, index, layers, runner = pipe
    return TranslationRun(
        skeleton=project, workspace=workspace, graph=graph, index=index, layers=layers,
        backend=backend, runner=runner, repair_budget=budget, jobs=jobs,
        artifacts=RunArtifacts(run_dir) if run_dir is not None else None,
        kb=kb, retrieval_depth=k, accumulate=kb is not None,
    )


def serial_execute(run):
    """The reference driver: one layer after another, one function after
    another, one build per candidate; each layer's translated functions then
    accumulate into the knowledge base in canonical order."""
    for layer in run.layers.layers:
        prepared = run._prepare_layer(layer)
        for fn_id in layer:
            ctx, body = prepared[fn_id]
            outcome = repair_loop(
                run.workspace, run.skeleton.stub_by_name(fn_id), ctx, body, run.backend,
                run.runner, index=run.index, budget=run.repair_budget,
                prompt_sink=run._prompt_sink,
            )
            run.outcomes[fn_id] = outcome
            run.graph.mark(fn_id, outcome.final_state)
        for fn_id in layer:
            stub, outcome = run.skeleton.stub_by_name(fn_id), run.outcomes[fn_id]
            if outcome.final_state == "translated" and run.kb is not None and run.accumulate:
                run.kb.accumulate(
                    c_name=stub.origin.name,
                    c_source=stub.origin.source_text,
                    rust_name=fn_id,
                    rust_source=f"{stub.signature_text} {{\n{outcome.final_body}\n}}",
                )
    return run.outcomes


def serial_icomp(ws_dir, bodies, order, runner):
    """The reference ICompRate ledger: each body restored and built on its own."""
    workspace = Workspace(ws_dir)
    ledger = []
    for fn_id in [fn for fn in order if fn in bodies]:
        if FALLBACK_MARK in bodies[fn_id]:
            ledger.append(LedgerEntry(fn_id, "fallback", reason="fallback shim counted as failure"))
            continue
        ok, diags, _ = compile_and_install(workspace, fn_id, bodies[fn_id], runner)
        reason = "" if ok else (diags[0].message if diags else "compile failure")
        ledger.append(LedgerEntry(fn_id, "restored" if ok else "failed", reason=reason))
    return ledger


def summary(outcomes):
    return {
        fn: (o.final_state, o.final_body, o.rounds_used, [(a.fix_source, a.ok) for a in o.attempts])
        for fn, o in outcomes.items()
    }


def without_positions(text):
    """A prompt with the source positions it quotes taken out: the
    ``file:line:column`` of each span and the line-number gutter, whose
    width follows the numbers."""
    text = re.sub(r"(\.rs):\d+:\d+", r"\1", text)
    text = re.sub(r"(?m)^ *(\d+ *)?\|", "|", text)
    return re.sub(r"(?m)^ *(-->|:::|= )", r"\1", text)


def saved_prompts(run_dir):
    """A run's prompts by tag: the initial generations' as written, the
    repairs' without source positions."""
    prompts = {}
    for path in sorted((run_dir / "prompts").glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        prompts[path.stem] = text if path.stem.endswith("#1") else without_positions(text)
    return prompts


def wave_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "rustport.pipeline"]


def fixture_skeleton(tmp_path, name):
    sources, extra_args = FIXTURE_PROJECTS[name]
    proj = tmp_path / name
    shutil.copytree(FIXTURES / name, proj)
    write_trace(proj, sources, extra_args=extra_args)
    ws = tmp_path / f"{name}_skel"
    assert run_cli(
        "skeleton", "--project", proj, "--trace", proj / "compile_commands.json",
        "--out", ws, "--config", proj / "project.json",
    ) == 0
    bodies = json.loads((proj / "oracle_bodies.json").read_text())
    return ws, lambda: OracleBackend(bodies), bodies


def scripted_skeleton(tmp_path, name):
    files, crate, failures, bodies = SCRIPTED[name]
    project, *_ = build_pipeline(tmp_path / name, files, crate=crate)
    return (
        project.workspace_dir,
        lambda: ScriptedFailureBackend(failures=failures, bodies=bodies),
        bodies,
    )


@pytest.fixture(scope="module")
def skeletons(tmp_path_factory):
    """Each project's verified skeleton, built once for the whole module."""
    made = {}

    def get(name):
        if name not in made:
            tmp = tmp_path_factory.mktemp(name)
            made[name] = (
                scripted_skeleton(tmp, name) if name in SCRIPTED else fixture_skeleton(tmp, name)
            )
        return made[name]

    return get


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("name", sorted(FIXTURE_PROJECTS) + sorted(SCRIPTED))
def test_batched_driver_matches_serial_reference(tmp_path, skeletons, caplog, name, jobs):
    ws, backend, first_bodies = skeletons(name)

    batched = make_run(
        clone_pipeline(ws, tmp_path / "batched"), backend(), jobs=jobs,
        run_dir=tmp_path / "batched_run",
    )
    serial = make_run(
        clone_pipeline(ws, tmp_path / "serial"), backend(), jobs=jobs,
        run_dir=tmp_path / "serial_run",
    )
    with caplog.at_level(logging.INFO, logger="rustport.pipeline"):
        got = batched.execute()
    want = serial_execute(serial)
    assert list(got) == list(want)
    assert summary(got) == summary(want)
    assert batched.runner.invocations <= serial.runner.invocations
    assert saved_prompts(tmp_path / "batched_run") == saved_prompts(tmp_path / "serial_run")

    # no knowledge base: the whole schedule settles as one wave, within the
    # bound of one: one build per step (no body here is blamed late, no
    # fallback shim fails and no candidate is built one by one)
    last = len(batched.layers.layers) - 1
    [line] = wave_lines(caplog)
    assert line.startswith(f"wave 0 (layers 0-{last}): " if last else "layer 0: ")
    assert batched.runner.invocations <= batched.repair_budget + 2

    # ICompRate over the final bodies and over the first-attempt bodies,
    # which include failures
    order = batched.layers.flatten()
    for label, bodies in (
        ("final", {fn: o.final_body for fn, o in got.items()}),
        ("first", first_bodies),
    ):
        runner = BuildRunner()
        _rate, ledger = incremental_comp_rate(
            clone_pipeline(ws, tmp_path / f"icomp_{label}")[1].root, bodies, order, runner
        )
        reference = serial_icomp(
            clone_pipeline(ws, tmp_path / f"icomp_ref_{label}")[1].root, bodies, order,
            BuildRunner(),
        )
        assert ledger == reference, label
        if label == "final":
            assert runner.invocations <= 2  # the baseline and one batch


@pytest.mark.parametrize("k", [0, 2])
def test_knowledge_flow_decides_the_waves(tmp_path, skeletons, caplog, k):
    """A run that accumulates hands each layer's translations to the next
    layer's retrievals, so with k > 0 it settles layer by layer; with k = 0
    nothing flows and it takes one wave. Either way outcomes, prompts and the
    knowledge base's files equal the layer-at-a-time reference's."""
    ws, backend, _ = skeletons("layered")
    runs = {
        label: make_run(
            clone_pipeline(ws, tmp_path / label), backend(), run_dir=tmp_path / f"{label}_run",
            kb=KnowledgeBase(tmp_path / f"{label}_kb"), k=k,
        )
        for label in ("waves", "serial")
    }
    with caplog.at_level(logging.INFO, logger="rustport.pipeline"):
        got = runs["waves"].execute()
    assert summary(got) == summary(serial_execute(runs["serial"]))

    layers = len(runs["waves"].layers.layers)
    names = [line.split(":")[0] for line in wave_lines(caplog)]
    if k == 0:
        assert names == [f"wave 0 (layers 0-{layers - 1})"]
    else:
        assert names == [f"layer {n}" for n in range(layers)]
    prompts = saved_prompts(tmp_path / "waves_run")
    assert prompts == saved_prompts(tmp_path / "serial_run")
    # retrieval shows later layers what earlier ones learned, e.g. leaf_sub's rule-fixed body
    assert any("(wide) as i32" in text for text in prompts.values()) == (k > 0)

    kb_files = sorted(p.name for p in (tmp_path / "waves_kb").iterdir())
    assert "pairs.jsonl" in kb_files
    assert kb_files == sorted(p.name for p in (tmp_path / "serial_kb").iterdir())
    for name in kb_files:
        assert (tmp_path / "waves_kb" / name).read_bytes() == (
            tmp_path / "serial_kb" / name
        ).read_bytes(), name


def test_scripted_layer_build_count_bound(tmp_path, skeletons, caplog):
    ws, backend, _ = skeletons("scripted")
    pipe = clone_pipeline(ws, tmp_path / "run")
    budget = 3
    run = make_run(pipe, backend(), budget=budget)
    assert len(run.layers.layers) == 1
    with caplog.at_level(logging.INFO, logger="rustport.pipeline"):
        outcomes = run.execute()
    builds = run.runner.invocations
    # one build per step: no body here is blamed late, no fallback shim
    # fails and no candidate is built one by one
    assert builds <= budget + 2
    states = {fn: o.final_state for fn, o in outcomes.items()}
    assert states["crate::w1::w1_f1"] == states["crate::w1::w1_f2"] == "fallback"
    assert run.runner.build_seconds > 0
    lines = wave_lines(caplog)
    assert lines == [lines[0]] and lines[0].startswith(
        f"layer 0: 6 functions, {builds} builds (0 incremental), "
    )


# twelve functions in two files, so one changed body is under a tenth of them
TWELVE_FILES = {
    f"tw{u}.c": "\n".join(
        f"int tw{u}_f{i}(int a, int b) {{\n    return a + b + {i};\n}}\n" for i in range(6)
    )
    for u in range(2)
}


def _candidates(*bodies):
    """A step machine that proposes each body in turn until one compiles,
    and returns the last result."""
    for body in bodies:
        result = yield body
        if result[0]:
            break
    return result


def test_only_a_narrow_wave_uses_the_incremental_cache(tmp_path):
    """Saving rustc's cache costs more than it saves when most bodies changed,
    so only a wave holding fewer than one function in ten of the crate's
    bodies asks for it, at every step; nothing else does."""
    rustc, log, _ = logging_rustc(tmp_path)
    runner = BuildRunner(rustc=rustc)
    project, workspace, _graph, _index, layers, _ = build_pipeline(
        tmp_path, TWELVE_FILES, crate="twelve_crate", runner=runner
    )
    shutil.copytree(
        project.workspace_dir, tmp_path / "icomp", ignore=shutil.ignore_patterns("target")
    )
    bodies = {fn_id: "a - b" for fn_id in workspace.body_ids()}
    assert len(bodies) == 12
    first, second = list(bodies)[:2]
    seen = 0

    def cached():
        """Whether each rustc run since the last call used the cache."""
        nonlocal seen
        lines = compile_lines(log)[seen:]
        seen += len(lines)
        return ["-C incremental=" in line for line in lines]

    def ok(results):
        return {fn_id: result[0] for fn_id, result in results.items()}

    assert cached() == [False]  # assemble_and_verify
    # a broad wave: its first step, and its second that confirms the eleven
    # bodies held beside the one that failed
    broad = {fn_id: _candidates("a - b") for fn_id in bodies}
    broad[first] = _candidates("a +")
    assert ok(repair_layer(workspace, broad, runner)) == {
        fn_id: fn_id != first for fn_id in bodies
    }
    assert cached() == [False, False]
    # one body, but outside a wave
    assert ok(compile_batch(workspace, {first: "a * b"}, runner)) == {first: True}
    assert ok(settle_bodies(workspace, {second: "b - a"}, runner)) == {second: True}
    assert cached() == [False, False]
    rate, _ = incremental_comp_rate(tmp_path / "icomp", bodies, layers.flatten(), runner)
    assert rate == 100.0
    assert cached() == [False, False]  # ICompRate's baseline and restore
    # a wave of one function of twelve: its failing first step and the clean
    # second step, although no build has written the cache before
    narrow = {first: _candidates("a +", "a - b")}
    assert ok(repair_layer(workspace, narrow, runner)) == {first: True}
    assert cached() == [True, True]
    assert runner.incremental_builds == 2


def test_parse_error_shares_file_with_type_error_and_good_bodies(tmp_path):
    project, workspace, graph, index, layers, runner = build_pipeline(
        tmp_path, {"shared_file.c": SHARED_C}, crate="shared_crate"
    )
    path = workspace.module_file("crate::shared_file::sh_0")
    before = runner.invocations
    results = settle_bodies(workspace, SHARED_BODIES, runner)
    # the batch, then one clean build of the two it held
    assert runner.invocations - before == 2
    assert {fn: ok for fn, (ok, _, _) in results.items()} == {
        "crate::shared_file::sh_0": True,
        "crate::shared_file::sh_1": False,
        "crate::shared_file::sh_2": False,
        "crate::shared_file::sh_3": True,
    }
    _, type_diags, snapshot = results["crate::shared_file::sh_2"]
    assert [d.code for d in type_diags] == ["E0308"]
    assert "a +\n" in snapshot  # the file as the build saw it, parse error included
    assert workspace.read_body("crate::shared_file::sh_0") == "a + b"
    assert "unimplemented!()" in workspace.read_body("crate::shared_file::sh_1")
    assert not any(json.loads((tmp_path / "ws" / ".rustport" / "rollback.json").read_text()).values())

    # each failure reproduces on its own with the same error codes
    committed = path.read_bytes()
    for fn in ("crate::shared_file::sh_1", "crate::shared_file::sh_2"):
        ok, diags, _ = compile_and_install(workspace, fn, SHARED_BODIES[fn], runner)
        assert not ok
        assert [d.code for d in diags] == [d.code for d in results[fn][1]]
    assert path.read_bytes() == committed


class SpanMover:
    """A build runner that reports the first error of its first failing
    build at line 1 of the crate root, outside every function."""

    def __init__(self, inner):
        self.inner = inner
        self.moved = False

    @property
    def invocations(self):
        return self.inner.invocations

    def build(self, root, incremental=False):
        outcome = self.inner.build(root, incremental)
        if not outcome.ok and not self.moved:
            self.moved = True
            outcome.errors[0] = replace(outcome.errors[0], file="src/lib.rs", line=1)
        return outcome


def test_unattributable_error_takes_serial_path(tmp_path):
    project, workspace, graph, index, layers, runner = build_pipeline(
        tmp_path, {"shared_file.c": SHARED_C}, crate="shared_crate"
    )
    mover = SpanMover(BuildRunner())
    results = compile_batch(workspace, SHARED_BODIES, mover)
    # the batch, rolled back whole, then one build per candidate
    assert mover.invocations == 1 + len(SHARED_BODIES)
    assert {fn: ok for fn, (ok, _, _) in results.items()} == {
        "crate::shared_file::sh_0": True,
        "crate::shared_file::sh_1": False,
        "crate::shared_file::sh_2": False,
        "crate::shared_file::sh_3": True,
    }
    assert workspace.read_body("crate::shared_file::sh_0") == "a + b"
    assert "unimplemented!()" in workspace.read_body("crate::shared_file::sh_1")
    assert not any(json.loads((tmp_path / "ws" / ".rustport" / "rollback.json").read_text()).values())

    # ICompRate falls back to one build per body and still gets the ledger right
    mover = SpanMover(BuildRunner())
    rate, ledger = incremental_comp_rate(
        project.workspace_dir, SHARED_BODIES, layers.flatten(), mover
    )
    assert mover.invocations == 1 + 1 + len(SHARED_BODIES)  # baseline, batch, serial
    assert rate == 50.0
    assert {e.fn_id: e.outcome for e in ledger} == {
        "crate::shared_file::sh_0": "restored",
        "crate::shared_file::sh_1": "failed",
        "crate::shared_file::sh_2": "failed",
        "crate::shared_file::sh_3": "restored",
    }


def test_error_at_signature_is_blamed_on_its_function(tmp_path):
    """A body without a tail of the return type, or an empty one, is reported
    at the signature's return type, outside the body segment."""
    project, workspace, graph, index, layers, runner = build_pipeline(
        tmp_path, {"shared_file.c": SHARED_C}, crate="shared_crate"
    )
    candidates = {
        "crate::shared_file::sh_0": "a + b",
        "crate::shared_file::sh_1": "a + b;",
        "crate::shared_file::sh_2": "",
        "crate::shared_file::sh_3": "a * b + 3",
    }
    before = runner.invocations
    results = settle_bodies(workspace, candidates, runner)
    # the batch, then one clean build of the two it held
    assert runner.invocations - before == 2
    assert {fn: ok for fn, (ok, _, _) in results.items()} == {
        "crate::shared_file::sh_0": True,
        "crate::shared_file::sh_1": False,
        "crate::shared_file::sh_2": False,
        "crate::shared_file::sh_3": True,
    }
    for fn in ("crate::shared_file::sh_1", "crate::shared_file::sh_2"):
        ok, diags, _ = compile_and_install(workspace, fn, candidates[fn], runner)
        assert not ok
        assert [(d.code, d.message) for d in diags] == [
            (d.code, d.message) for d in results[fn][1]
        ] == [("E0308", "mismatched types")]


@pytest.mark.parametrize(
    "reaching",
    [
        "struct Local;\nimpl Local {\n    fn get(&self) -> i32 { 7 }\n}\nLocal.get() + a",
        "0 }\nfn stray_item() -> i32 {\n0",  # closes its function early
    ],
)
def test_body_reaching_past_its_function_takes_serial_path(tmp_path, reaching):
    project, workspace, graph, index, layers, runner = build_pipeline(
        tmp_path, {"shared_file.c": SHARED_C}, crate="shared_crate"
    )
    candidates = {
        "crate::shared_file::sh_0": "a + b",
        "crate::shared_file::sh_1": reaching,
        "crate::shared_file::sh_3": "a * b + 3",
    }
    before = runner.invocations
    results = compile_batch(workspace, candidates, runner)
    # the two local bodies build together, the reaching one on its own after
    assert runner.invocations - before == 2
    assert all(ok for ok, _, _ in results.values())
    assert workspace.read_body("crate::shared_file::sh_1") == reaching


def test_crate_wide_word_inside_a_literal_builds_in_the_batch(tmp_path):
    project, workspace, graph, index, layers, runner = build_pipeline(
        tmp_path, {"shared_file.c": SHARED_C}, crate="shared_crate"
    )
    candidates = {
        "crate::shared_file::sh_0": "a + b",
        "crate::shared_file::sh_1": 'let note = "impl Drop"; // no_mangle\na + note.len() as i32',
        "crate::shared_file::sh_3": "a * b + 3",
    }
    _, serial, *_ = clone_pipeline(tmp_path / "ws", tmp_path / "serial")
    reference = {fn: compile_and_install(serial, fn, body, runner) for fn, body in candidates.items()}
    before = runner.invocations
    results = compile_batch(workspace, candidates, runner)
    assert runner.invocations - before == 1  # one build for all three
    assert results == reference
    assert all(ok for ok, _, _ in results.values())
    path = workspace.module_file("crate::shared_file::sh_1")
    assert path.read_bytes() == serial.module_file("crate::shared_file::sh_1").read_bytes()


# one function per file, so a batch build and a one-body build quote the
# same source positions and attempts can be compared whole
LATE_FILES = {
    f"late_{x}.c": f"int late_{x}(int a, int b) {{\n    return a + b;\n}}\n" for x in "abc"
}
# rustc reports the deny-by-default `overflowing_literals` lint only once no
# other error remains, so a batch build that fails elsewhere hides it
LINTED = "let y: u8 = 256;\ny as i32"
TYPE_ERROR = 'let s: i32 = "not a number";\ns + a'
IMPL_BODY = "struct Local;\nimpl Local {\n    fn get(&self) -> i32 { 7 }\n}\nLocal.get() + a"


@pytest.mark.parametrize(
    "repaired, builds",
    [
        # late_a is blamed at step 1 and repaired; late_b is held at step 1,
        # blamed at step 2 and repaired twice in vain, and its fallback shim
        # compiles at step 5 beside late_a and late_c, held since: budget + 2
        # steps plus the one step late_b waited
        ("a + b", 5),
        # late_a's repair reaches past its function, so it is built on its
        # own, and only once nothing is held: after step 5, one build more
        (IMPL_BODY, 6),
    ],
    ids=["local-repair", "repair-built-alone"],
)
def test_late_blame_matches_serial_reference(tmp_path, repaired, builds):
    project, *_ = build_pipeline(tmp_path / "late", LATE_FILES, crate="late_crate")

    def backend():
        return ScriptedFailureBackend(
            failures={"crate::late_a::late_a": 1},
            bodies={
                "crate::late_a::late_a": repaired,
                "crate::late_b::late_b": LINTED,
                "crate::late_c::late_c": "a + b",
            },
            invalid_body=TYPE_ERROR,
        )

    batched, serial = (
        make_run(
            clone_pipeline(project.workspace_dir, tmp_path / label), backend(), budget=2,
            run_dir=tmp_path / f"{label}_run",
        )
        for label in ("batched", "serial")
    )
    got = batched.execute()
    want = serial_execute(serial)
    assert got == want  # every attempt, its diagnostics included
    assert [d[0] for d in got["crate::late_b::late_b"].attempts[0].diagnostics] == [
        "overflowing_literals"
    ]
    assert summary(got)["crate::late_b::late_b"][0] == "fallback"
    assert batched.runner.invocations == builds
    assert saved_prompts(tmp_path / "batched_run") == saved_prompts(tmp_path / "serial_run")
    store = batched.workspace.root / ".rustport" / "rollback.json"
    assert not any(json.loads(store.read_text()).values())

    # ICompRate over the first attempts holds late_b and late_c after its
    # first build, blames late_b in the next and confirms late_c in a third
    order = batched.layers.flatten()
    first = {
        "crate::late_a::late_a": TYPE_ERROR, "crate::late_b::late_b": LINTED,
        "crate::late_c::late_c": "a + b",
    }
    for label, bodies in (("final", {fn: o.final_body for fn, o in got.items()}), ("first", first)):
        runner = BuildRunner()
        _rate, ledger = incremental_comp_rate(
            clone_pipeline(project.workspace_dir, tmp_path / f"icomp_{label}")[1].root,
            bodies, order, runner,
        )
        assert ledger == serial_icomp(
            clone_pipeline(project.workspace_dir, tmp_path / f"icomp_ref_{label}")[1].root,
            bodies, order, BuildRunner(),
        ), label
        if label == "first":
            assert runner.invocations == 1 + 3  # the baseline, then three steps


class Killed(Exception):
    pass


class CrashOnBuild:
    """A build runner whose build number ``crash_at`` raises, leaving the
    workspace as a process killed mid-build would."""

    def __init__(self, inner, crash_at):
        self.inner = inner
        self.crash_at = crash_at

    def build(self, root, incremental=False):
        if self.inner.invocations + 1 == self.crash_at:
            raise Killed
        return self.inner.build(root, incremental)


def test_crash_while_bodies_are_held_restores_them(tmp_path):
    project, workspace, graph, index, layers, runner = build_pipeline(
        tmp_path, {"shared_file.c": SHARED_C}, crate="shared_crate"
    )
    path = workspace.module_file("crate::shared_file::sh_0")
    skeleton_text = path.read_bytes()
    crashing = CrashOnBuild(runner, crash_at=runner.invocations + 2)
    with pytest.raises(Killed):
        settle_bodies(workspace, SHARED_BODIES, crashing)
    # the first build blamed sh_1 and sh_2 and held sh_0 and sh_3
    assert workspace.read_body("crate::shared_file::sh_0") == "a + b"
    assert workspace.uncommitted(SHARED_BODIES) == {
        "crate::shared_file::sh_0", "crate::shared_file::sh_3",
    }

    Workspace(workspace.root)
    assert path.read_bytes() == skeleton_text
    assert json.loads((workspace.root / ".rustport" / "rollback.json").read_text()) == {}
