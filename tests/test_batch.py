"""Batched compilation of a schedule layer against the serial reference.

The serial reference builds once per candidate body (``repair_loop`` per
function, ``compile_and_install`` per ICompRate body); the batched path builds
each step of a layer once and blames errors on body segments. Outcomes and
ledgers must match exactly.
"""

import json
import logging
import shutil
from dataclasses import replace

import pytest

from conftest import FIXTURES, build_pipeline, write_trace
from test_acceptance import FIXTURE_PROJECTS, run_cli

from rustport.backends import OracleBackend, ScriptedFailureBackend
from rustport.cargo import BuildRunner
from rustport.graph import build_graph, build_symbol_index, schedule
from rustport.metrics import LedgerEntry, incremental_comp_rate
from rustport.pipeline import TranslationRun
from rustport.repair import compile_and_install, compile_batch, repair_loop
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


def clone_pipeline(ws_dir, dest):
    """A fresh copy of a verified skeleton with its graph and schedule."""
    shutil.copytree(ws_dir, dest, ignore=shutil.ignore_patterns("target"))
    project = load_project(dest)
    index = build_symbol_index(project)
    graph = build_graph(index, project)
    return project, Workspace(dest), graph, index, schedule(graph), BuildRunner()


def make_run(pipe, backend, jobs=1, budget=3):
    project, workspace, graph, index, layers, runner = pipe
    return TranslationRun(
        skeleton=project, workspace=workspace, graph=graph, index=index, layers=layers,
        backend=backend, runner=runner, repair_budget=budget, jobs=jobs,
    )


def serial_execute(run):
    """The reference driver: one function after another, one build per candidate."""
    for layer in run.layers.layers:
        prepared = run._prepare_layer(layer)
        for fn_id in layer:
            ctx, _prompt, body = prepared[fn_id]
            outcome = repair_loop(
                run.workspace, run.skeleton.stub_by_name(fn_id), ctx, body, run.backend,
                run.runner, index=run.index, budget=run.repair_budget,
            )
            run.outcomes[fn_id] = outcome
            run.graph.mark(fn_id, outcome.final_state)
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


def scripted_skeleton(tmp_path):
    project, *_ = build_pipeline(tmp_path / "scripted", WIDE_FILES, crate="wide_crate")
    return (
        project.workspace_dir,
        lambda: ScriptedFailureBackend(failures=WIDE_FAILURES, bodies=WIDE_VALID),
        WIDE_VALID,
    )


@pytest.fixture(scope="module")
def skeletons(tmp_path_factory):
    """Each project's verified skeleton, built once for the whole module."""
    made = {}

    def get(name):
        if name not in made:
            tmp = tmp_path_factory.mktemp(name)
            made[name] = scripted_skeleton(tmp) if name == "scripted" else fixture_skeleton(tmp, name)
        return made[name]

    return get


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("name", sorted(FIXTURE_PROJECTS) + ["scripted"])
def test_batched_driver_matches_serial_reference(tmp_path, skeletons, name, jobs):
    ws, backend, first_bodies = skeletons(name)

    batched = make_run(clone_pipeline(ws, tmp_path / "batched"), backend(), jobs=jobs)
    serial = make_run(clone_pipeline(ws, tmp_path / "serial"), backend(), jobs=jobs)
    got, want = batched.execute(), serial_execute(serial)
    assert list(got) == list(want)
    assert summary(got) == summary(want)
    assert batched.runner.invocations <= serial.runner.invocations

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


def test_scripted_layer_build_count_bound(tmp_path, skeletons, caplog):
    ws, backend, _ = skeletons("scripted")
    pipe = clone_pipeline(ws, tmp_path / "run")
    budget = 3
    run = make_run(pipe, backend(), budget=budget)
    assert len(run.layers.layers) == 1
    with caplog.at_level(logging.INFO, logger="rustport.pipeline"):
        outcomes = run.execute()
    builds = run.runner.invocations
    # no error here only shows once others are rolled back (no fixed-point
    # rebuild), and no step falls back to one build per candidate
    assert builds <= 2 * (budget + 2)
    states = {fn: o.final_state for fn, o in outcomes.items()}
    assert states["crate::w1::w1_f1"] == states["crate::w1::w1_f2"] == "fallback"
    assert run.runner.build_seconds > 0
    lines = [r.getMessage() for r in caplog.records if r.name == "rustport.pipeline"]
    assert lines == [lines[0]] and lines[0].startswith(f"layer 0: 6 functions, {builds} builds, ")


def test_parse_error_shares_file_with_type_error_and_good_bodies(tmp_path):
    project, workspace, graph, index, layers, runner = build_pipeline(
        tmp_path, {"shared_file.c": SHARED_C}, crate="shared_crate"
    )
    path = workspace.module_file("crate::shared_file::sh_0")
    before = runner.invocations
    results = compile_batch(workspace, SHARED_BODIES, runner)
    assert runner.invocations - before == 2  # the batch, then one clean rebuild
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

    def build(self, root):
        outcome = self.inner.build(root)
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
    results = compile_batch(workspace, candidates, runner)
    assert runner.invocations - before == 2  # the batch, then one clean rebuild
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
