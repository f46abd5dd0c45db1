from dataclasses import replace

import pytest

from conftest import build_pipeline

from rustport.backends import OracleBackend, ScriptedFailureBackend
from rustport.repair import compile_and_install, fallback_body, repair_loop, rule_based_fix
from rustport.translate import assemble_context

TWO_FN_C = """\
int leaf_add(int a, int b) {
    return a + b;
}

int top_mul(int a, int b) {
    return leaf_add(a, 0) * b;
}
"""

AUX_C = """\
int aux_scale(int v) {
    return v * 3;
}
"""

ORACLE_BODIES = {
    "crate::two::leaf_add": "a + b",
    "crate::two::top_mul": "crate::two::leaf_add(a, 0) * b",
    "crate::aux_fns::aux_scale": "v * 3",
}


@pytest.fixture()
def pipe(tmp_path):
    return build_pipeline(
        tmp_path, {"two.c": TWO_FN_C, "aux_fns.c": AUX_C}, crate="two_crate"
    )


def ctx_for(pipe, fn_id):
    project, _, graph, index, _, _ = pipe
    return assemble_context(fn_id, project, graph)


# --- compile_and_install ----------------------------------------------------------


def test_compile_and_install_valid_body_persists(pipe):
    project, workspace, graph, index, layers, runner = pipe
    ok, diags, _ = compile_and_install(workspace, "crate::two::leaf_add", "a + b", runner)
    assert ok and diags == []
    assert workspace.read_body("crate::two::leaf_add") == "a + b"


def test_compile_and_install_failure_rolls_back(pipe):
    project, workspace, graph, index, layers, runner = pipe
    fn = "crate::two::leaf_add"
    path = workspace.module_file(fn)
    before = path.read_bytes()
    ok, diags, snapshot = compile_and_install(workspace, fn, 'let s: i32 = "mismatch"; s', runner)
    assert not ok
    assert any(d.code == "E0308" for d in diags)
    assert path.read_bytes() == before
    assert 'let s: i32 = "mismatch"; s' in snapshot


def test_name_collision_failure_still_rolls_back(pipe):
    project, workspace, graph, index, layers, runner = pipe
    fn = "crate::two::leaf_add"
    path = workspace.module_file(fn)
    before = path.read_bytes()
    # a body that injects a conflicting item into the module namespace
    evil = "}\npub fn top_mul() {}\npub fn leaf_add_2() -> i32 {\n0"
    ok, diags, _ = compile_and_install(workspace, fn, evil, runner)
    assert not ok
    assert path.read_bytes() == before


# --- rule-based fixes -----------------------------------------------------------


def test_rule_fix_integer_width_cast(pipe):
    project, workspace, graph, index, layers, runner = pipe
    fn = "crate::two::leaf_add"
    body = "let wide: i64 = 7;\na + b + wide"
    ok, diags, snapshot = compile_and_install(workspace, fn, body, runner)
    assert not ok
    fixed = rule_based_fix(
        diags, index=index, file_snapshot=snapshot, fn_id=fn, from_module="crate::two"
    )
    assert fixed is not None
    ok2, diags2, _ = compile_and_install(workspace, fn, fixed, runner)
    assert ok2, [d.rendered for d in diags2]


def test_rule_fix_unique_path_qualification(pipe):
    project, workspace, graph, index, layers, runner = pipe
    fn = "crate::two::leaf_add"
    body = "aux_scale(a) + b"  # defined in another module, unqualified
    ok, diags, snapshot = compile_and_install(workspace, fn, body, runner)
    assert not ok
    assert any(d.code == "E0425" for d in diags)
    fixed = rule_based_fix(
        diags, index=index, file_snapshot=snapshot, fn_id=fn, from_module="crate::two"
    )
    assert fixed is not None and "crate::aux_fns::aux_scale" in fixed
    ok2, diags2, _ = compile_and_install(workspace, fn, fixed, runner)
    assert ok2, [d.rendered for d in diags2]


def test_rule_fix_mutability_annotation(pipe):
    project, workspace, graph, index, layers, runner = pipe
    fn = "crate::two::leaf_add"
    body = "let total = a;\ntotal += b;\ntotal"
    ok, diags, snapshot = compile_and_install(workspace, fn, body, runner)
    assert not ok
    fixed = rule_based_fix(
        diags, index=index, file_snapshot=snapshot, fn_id=fn, from_module="crate::two"
    )
    assert fixed is not None and "let mut total" in fixed
    ok2, _, _ = compile_and_install(workspace, fn, fixed, runner)
    assert ok2


def _elsewhere(diag):
    """The same suggestion, reported against another module's file."""
    return replace(
        diag,
        file="src/aux_fns.rs",
        suggestions=[replace(s, file="src/aux_fns.rs") for s in diag.suggestions],
    )


def _before_segment(diag):
    """The same suggestion, aimed at the start of this module's file."""
    return replace(
        diag, suggestions=[replace(s, byte_start=0, byte_end=0) for s in diag.suggestions]
    )


@pytest.mark.parametrize("move", [_elsewhere, _before_segment])
def test_rule_fix_ignores_spans_outside_own_segment(pipe, move):
    project, workspace, graph, index, layers, runner = pipe
    fn = "crate::two::leaf_add"
    body = "let total = a;\ntotal += b;\ntotal"
    ok, diags, snapshot = compile_and_install(workspace, fn, body, runner)
    assert not ok
    moved = [move(d) for d in diags]
    assert any(s.applicability == "MachineApplicable" for d in moved for s in d.suggestions)
    fixed = rule_based_fix(
        moved, index=index, file_snapshot=snapshot, fn_id=fn, from_module="crate::two"
    )
    assert fixed is None


def test_rule_fix_declines_outside_closed_set(pipe):
    project, workspace, graph, index, layers, runner = pipe
    fn = "crate::two::leaf_add"
    body = "let r: &i32;\n*r"  # uninitialized borrow: not in the fix table
    ok, diags, snapshot = compile_and_install(workspace, fn, body, runner)
    assert not ok
    fixed = rule_based_fix(
        diags, index=index, file_snapshot=snapshot, fn_id=fn, from_module="crate::two"
    )
    assert fixed is None


# --- repair loop -------------------------------------------------------------------


def run_loop(pipe, fn_id, backend, budget=5):
    project, workspace, graph, index, layers, runner = pipe
    stub = project.stub_by_name(fn_id)
    ctx = assemble_context(fn_id, project, graph)
    initial = backend.generate(
        __import__("rustport.backends", fromlist=["GenerationRequest"]).GenerationRequest(
            system="s", user="u", tag=f"{fn_id}#1"
        )
    ).text
    return repair_loop(
        workspace, stub, ctx, initial, backend, runner, index=index, budget=budget
    ), runner


def test_loop_valid_first_try(pipe):
    backend = OracleBackend(ORACLE_BODIES)
    outcome, _ = run_loop(pipe, "crate::two::leaf_add", backend)
    assert outcome.final_state == "translated"
    assert outcome.rounds_used == 0
    assert len(outcome.attempts) == 1


def test_loop_scripted_failures_consume_rounds(pipe):
    backend = ScriptedFailureBackend(failures={"crate::two::leaf_add": 2}, bodies=ORACLE_BODIES)
    outcome, _ = run_loop(pipe, "crate::two::leaf_add", backend)
    assert outcome.final_state == "translated"
    assert outcome.rounds_used == 2
    assert [a.fix_source for a in outcome.attempts] == [
        "generation",
        "model_repair",
        "model_repair",
    ]


def test_loop_success_on_final_round(pipe):
    backend = ScriptedFailureBackend(failures={"crate::two::leaf_add": 5}, bodies=ORACLE_BODIES)
    outcome, _ = run_loop(pipe, "crate::two::leaf_add", backend, budget=5)
    assert outcome.final_state == "translated"
    assert outcome.rounds_used == 5


def test_loop_permanent_failure_installs_fallback(pipe):
    project, workspace, graph, index, layers, runner = pipe
    backend = ScriptedFailureBackend(failures={"crate::two::leaf_add": None}, bodies=ORACLE_BODIES)
    outcome, _ = run_loop(pipe, "crate::two::leaf_add", backend, budget=5)
    assert outcome.final_state == "fallback"
    assert outcome.rounds_used == 5
    body = workspace.read_body("crate::two::leaf_add")
    assert "rustport:fallback" in body
    assert 'extern "C"' in body
    # workspace safety: the whole tree still builds with the shim installed
    assert runner.build(workspace.root).ok


def test_loop_budget_bound_on_compile_invocations(pipe):
    project, workspace, graph, index, layers, runner = pipe
    before = runner.invocations
    backend = ScriptedFailureBackend(failures={"crate::two::leaf_add": None}, bodies=ORACLE_BODIES)
    outcome, _ = run_loop(pipe, "crate::two::leaf_add", backend, budget=5)
    compile_calls = runner.invocations - before
    assert compile_calls <= 5 + 2


def test_fallback_body_shapes(pipe):
    project, _, _, _, _, _ = pipe
    stub = project.stub_by_name("crate::two::top_mul")
    shim = fallback_body(stub)
    assert "fn top_mul(a: i32, b: i32) -> i32;" in shim
    assert "unsafe { top_mul(a, b) }" in shim


def test_zero_budget_goes_straight_to_fallback(pipe):
    backend = ScriptedFailureBackend(failures={"crate::two::leaf_add": 1}, bodies=ORACLE_BODIES)
    outcome, _ = run_loop(pipe, "crate::two::leaf_add", backend, budget=0)
    assert outcome.final_state == "fallback"
    assert outcome.rounds_used == 0


def test_model_repair_notes_diagnostic_truncation(pipe):
    from rustport.backends import GenerationResponse
    from rustport.cargo import Diagnostic
    from rustport.repair import DIAG_PROMPT_LIMIT, model_repair

    project, _, graph, index, _, _ = pipe
    ctx = ctx_for(pipe, "crate::two::leaf_add")
    diags = [
        Diagnostic(
            level="error", code="E0308", message=f"problem {i}", file="src/two.rs",
            line=i, column=1, rendered=f"error: problem {i}",
        )
        for i in range(DIAG_PROMPT_LIMIT + 5)
    ]
    seen = {}

    class Fake:
        def generate(self, req):
            seen["user"] = req.user
            return GenerationResponse(text="a + b", finish_reason="complete")

    body, note = model_repair(ctx, "x", diags, Fake(), "crate::two::leaf_add#2", "leaf_add")
    assert body == "a + b"
    assert "truncated" in note
    assert "more diagnostics truncated" in seen["user"]


def test_loop_rollback_exactness_after_failures(pipe):
    project, workspace, graph, index, layers, runner = pipe
    fn = "crate::two::top_mul"
    path = workspace.module_file(fn)
    before = path.read_bytes()
    backend = ScriptedFailureBackend(failures={fn: 1}, bodies=ORACLE_BODIES)
    outcome, _ = run_loop(pipe, fn, backend, budget=2)
    assert outcome.final_state == "translated"
    text = path.read_text()
    assert "crate::two::leaf_add(a, 0) * b" in text
