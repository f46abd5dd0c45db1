import json
import shutil
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, build_pipeline

from rustport import cargo
from rustport.cargo import BuildRunner
from rustport.errors import BuildToolError, MetricsError
from rustport.metrics import (
    MetricsReport,
    avg_repair,
    classify_file,
    functional_correctness,
    incremental_comp_rate,
    render_table,
    unsafe_ratio,
    warning_count,
)
from rustport.repair import FunctionOutcome

TEN_FN_C = "\n".join(
    f"int tenfn_{i}(int v) {{\n    return v + {i};\n}}\n" for i in range(10)
)

VALID_BODIES = {f"crate::ten::tenfn_{i}": f"v + {i}" for i in range(10)}


@pytest.fixture(scope="module")
def ten_pipe(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("metrics")
    return build_pipeline(tmp, {"ten.c": TEN_FN_C}, crate="ten_crate")


def make_workspace(tmp_path, lib_rs: str, crate="warnfix") -> Path:
    ws = tmp_path / crate
    (ws / "src").mkdir(parents=True)
    (ws / "Cargo.toml").write_text(
        f'[package]\nname = "{crate}"\nversion = "0.1.0"\nedition = "2021"\n'
    )
    (ws / "src" / "lib.rs").write_text(lib_rs)
    return ws


# --- incremental compilation pass rate ------------------------------------------


def test_icomp_all_valid_is_100(ten_pipe):
    project, workspace, graph, index, layers, runner = ten_pipe
    rate, ledger = incremental_comp_rate(
        project.workspace_dir, VALID_BODIES, layers.flatten(), runner
    )
    assert rate == 100.0
    assert all(e.outcome == "restored" for e in ledger)


def test_icomp_two_invalid_is_80(ten_pipe):
    project, workspace, graph, index, layers, runner = ten_pipe
    bodies = dict(VALID_BODIES)
    bodies["crate::ten::tenfn_3"] = 'let s: i32 = "bad"; s'
    bodies["crate::ten::tenfn_7"] = "no_such_symbol_anywhere(v)"
    rate, ledger = incremental_comp_rate(project.workspace_dir, bodies, layers.flatten(), runner)
    assert rate == 80.0
    failed = {e.fn_id for e in ledger if e.outcome == "failed"}
    assert failed == {"crate::ten::tenfn_3", "crate::ten::tenfn_7"}


def test_icomp_fallback_marked_count_as_failures(ten_pipe):
    project, workspace, graph, index, layers, runner = ten_pipe
    bodies = dict(VALID_BODIES)
    shim = '// rustport:fallback delegating shim\nextern "C" { fn tenfn_2(v: i32) -> i32; }\nunsafe { tenfn_2(v) }'
    bodies["crate::ten::tenfn_2"] = shim
    bodies["crate::ten::tenfn_5"] = shim.replace("tenfn_2", "tenfn_5")
    rate, ledger = incremental_comp_rate(project.workspace_dir, bodies, layers.flatten(), runner)
    assert rate == 80.0
    flagged = {e.fn_id for e in ledger if e.outcome == "fallback"}
    assert flagged == {"crate::ten::tenfn_2", "crate::ten::tenfn_5"}


def test_icomp_rerun_identical(ten_pipe):
    project, workspace, graph, index, layers, runner = ten_pipe
    bodies = dict(VALID_BODIES)
    bodies["crate::ten::tenfn_4"] = "v +"  # syntax error
    rate1, _ = incremental_comp_rate(project.workspace_dir, bodies, layers.flatten(), runner)
    rate2, _ = incremental_comp_rate(project.workspace_dir, bodies, layers.flatten(), runner)
    assert rate1 == rate2 == 90.0



@pytest.mark.parametrize("bodies", [VALID_BODIES, {}], ids=["bodies", "no-bodies"])
def test_icomp_refuses_a_skeleton_that_does_not_build(ten_pipe, tmp_path, bodies):
    project, workspace, graph, index, layers, runner = ten_pipe
    broken = tmp_path / "skeleton"
    shutil.copytree(project.workspace_dir, broken, ignore=shutil.ignore_patterns("target"))
    [module] = [f for f in (broken / "src").rglob("*.rs") if "tenfn_0" in f.read_text()]
    # a type error outside every body segment: the skeleton itself is broken
    module.write_text(module.read_text() + '\npub fn not_a_body() -> i32 { "text" }\n')
    before = {f: f.read_bytes() for f in (broken / "src").rglob("*.rs")}
    with pytest.raises(MetricsError, match="skeleton workspace does not build"):
        incremental_comp_rate(broken, bodies, layers.flatten(), runner)
    assert {f: f.read_bytes() for f in (broken / "src").rglob("*.rs")} == before


# --- unsafe ratio ------------------------------------------------------------------


def test_unsafe_ratio_matches_hand_counts():
    cases = json.loads((FIXTURES / "unsafe_cases" / "hand_counts.json").read_text())
    for name, expected in cases.items():
        text = (FIXTURES / "unsafe_cases" / name).read_text()
        countable, unsafe_lines, balanced = classify_file(text)
        assert balanced, name
        assert countable == set(expected["countable_lines"]), f"{name} countable mismatch"
        assert unsafe_lines == set(expected["unsafe_lines"]), f"{name} unsafe mismatch"


def test_unsafe_ratio_zero_without_keyword(tmp_path):
    ws = make_workspace(tmp_path, "pub fn f() -> i32 { 1 }\n")
    assert unsafe_ratio(ws) == 0.0


def test_unsafe_ratio_thirty_percent(tmp_path):
    text = (FIXTURES / "unsafe_cases" / "ten_lines.rs").read_text()
    ws = make_workspace(tmp_path, text)
    assert unsafe_ratio(ws) == pytest.approx(30.0)


def test_unsafe_in_string_only_is_zero(tmp_path):
    ws = make_workspace(tmp_path, 'pub fn s() -> &\'static str { "unsafe" }\n')
    assert unsafe_ratio(ws) == 0.0


def test_unbalanced_file_excluded(tmp_path):
    ws = make_workspace(tmp_path, "pub fn f() -> i32 { unsafe { 1 }\n")  # missing brace
    assert unsafe_ratio(ws) == 0.0


def test_unsafe_scanner_nested_block_comments():
    text = (
        "pub fn f() -> i32 {\n"
        "    /* outer /* nested unsafe */ still comment */\n"
        "    7\n"
        "}\n"
    )
    countable, unsafe_lines, balanced = classify_file(text)
    assert balanced
    assert countable == {1, 3, 4}
    assert unsafe_lines == set()


def test_unsafe_scanner_raw_string_with_quotes():
    text = (
        "pub fn f() -> &'static str {\n"
        '    let s = r#"contains "unsafe" and { braces }"#;\n'
        "    s\n"
        "}\n"
    )
    countable, unsafe_lines, balanced = classify_file(text)
    assert balanced
    assert unsafe_lines == set()
    assert 2 in countable  # the let binding is code


def test_unsafe_scanner_brace_in_char_literal():
    text = (
        "pub fn f(c: u8) -> i32 {\n"
        "    if c == b'{' { unsafe { core::hint::black_box(1) } } else { 0 }\n"
        "}\n"
    )
    countable, unsafe_lines, balanced = classify_file(text)
    assert balanced
    assert unsafe_lines == {2}


# --- warnings ---------------------------------------------------------------------


def test_warning_count_clean_is_zero(ten_pipe):
    project, _, _, _, _, runner = ten_pipe
    assert warning_count(project.workspace_dir, runner) == 0


def test_warning_count_two_planted(tmp_path):
    ws = make_workspace(
        tmp_path,
        "pub fn a() -> i32 {\n    let x = 1;\n    2\n}\n"
        "pub fn b() -> i32 {\n    let y = 3;\n    4\n}\n",
    )
    assert warning_count(ws, BuildRunner()) == 2


def test_warning_count_not_available_on_broken_build(tmp_path):
    ws = make_workspace(tmp_path, "pub fn broken() -> i32 { }\n")
    assert warning_count(ws, BuildRunner()) is None


# --- functional correctness ----------------------------------------------------------


def make_test_crate(tmp_path, crate: str, tests: dict[str, str]) -> Path:
    ws = make_workspace(tmp_path, "pub fn add(a: i32, b: i32) -> i32 { a + b }\n", crate=crate)
    (ws / "tests").mkdir()
    for name, text in tests.items():
        (ws / "tests" / name).write_text(text)
    return ws


THREE_OF_FOUR = {
    "suite.rs": "use fc_case::add;\n"
    "#[test]\nfn t1() { assert_eq!(add(1, 1), 2); }\n"
    "#[test]\nfn t2() { assert_eq!(add(2, 2), 4); }\n"
    "#[test]\nfn t3() { assert_eq!(add(3, 3), 6); }\n"
    "#[test]\nfn t4() { assert_eq!(add(1, 1), 3); }\n"
}
SUITE = ["cargo", "test", "--test", "suite"]


def test_fc_three_of_four(tmp_path):
    ws = make_test_crate(tmp_path, "fc_case", THREE_OF_FOUR)
    rate, note = functional_correctness(ws, SUITE, BuildRunner())
    assert rate == pytest.approx(75.0)


def test_fc_default_command_counts_every_test_binary(tmp_path):
    # cargo stops at the first failing test binary unless told not to
    ws = make_test_crate(tmp_path, "fc_binaries", {
        "a.rs": "#[test]\nfn fails() { panic!(); }\n",
        "b.rs": "".join(f"#[test]\nfn passes_{i}() {{}}\n" for i in range(3)),
    })
    assert functional_correctness(ws, None, BuildRunner()) == (pytest.approx(75.0), "")
    assert functional_correctness(ws, ["cargo", "test"], BuildRunner()) == (0.0, "")


def test_test_command_runs_without_cargo_incremental_unless_set(tmp_path, monkeypatch):
    ws = make_workspace(tmp_path, "pub fn fine() -> i32 { 5 }\n")
    show = ["sh", "-c", 'printf %s "$CARGO_INCREMENTAL"']
    assert BuildRunner().run_tests(ws, show).stdout == "0"
    monkeypatch.setenv("CARGO_INCREMENTAL", "1")
    assert BuildRunner().run_tests(ws, show).stdout == "1"


def test_fc_writes_no_incremental_cache(tmp_path):
    ws = make_test_crate(tmp_path, "fc_case", THREE_OF_FOUR)
    functional_correctness(ws, SUITE, BuildRunner())
    assert list((ws / "target" / "debug" / "incremental").glob("*")) == []


def test_fc_is_the_same_with_cargo_incremental_on(tmp_path, monkeypatch):
    off = functional_correctness(
        make_test_crate(tmp_path / "off", "fc_case", THREE_OF_FOUR), SUITE, BuildRunner()
    )
    monkeypatch.setenv("CARGO_INCREMENTAL", "1")
    ws = make_test_crate(tmp_path / "on", "fc_case", THREE_OF_FOUR)
    on = functional_correctness(ws, SUITE, BuildRunner())
    assert list((ws / "target" / "debug" / "incremental").glob("*")) != []
    assert on == off == (pytest.approx(75.0), "")


def test_fc_aborted_test_binary_is_zero_with_a_note(tmp_path):
    # cargo exits non-zero, and the aborted binary prints no summary, so the
    # summaries alone would read 1 passed, 0 failed
    ws = make_test_crate(tmp_path, "fc_abort", {
        "a.rs": "#[test]\nfn passes() {}\n",
        "t.rs": "#[test]\nfn passes() {}\n#[test]\nfn aborts() { std::process::abort(); }\n",
    })
    rate, note = functional_correctness(ws, ["cargo", "test"], BuildRunner())
    assert rate == 0.0
    assert "exited 101" in note


def test_fc_exit_zero_without_a_summary_is_an_error(tmp_path):
    ws = make_workspace(tmp_path, "pub fn fine() -> i32 { 5 }\n")
    with pytest.raises(MetricsError, match="no parsable summary"):
        functional_correctness(ws, ["true"], BuildRunner())


def test_fc_reads_test_output_that_is_not_utf8(tmp_path):
    ws = make_test_crate(tmp_path, "fc_bytes", {
        "suite.rs": "use std::io::Write;\n"
        "#[test]\nfn passes() {}\n"
        "#[test]\nfn fails() {\n"
        "    std::io::stdout().write_all(b\"\\xff\\xfe\").unwrap();\n"
        "    panic!();\n}\n",
    })
    rate, note = functional_correctness(ws, SUITE, BuildRunner())
    assert (rate, note) == (pytest.approx(50.0), "")


def test_fc_not_run_when_build_fails(tmp_path):
    ws = make_workspace(tmp_path, "pub fn broken() -> i32 { }\n")
    rate, note = functional_correctness(ws, None, BuildRunner())
    assert rate is None
    assert "build" in note


def test_fc_zero_tests_not_run(tmp_path):
    ws = make_workspace(tmp_path, "pub fn fine() -> i32 { 5 }\n", crate="fc_empty")
    rate, note = functional_correctness(ws, ["cargo", "test"], BuildRunner())
    assert rate is None
    assert "no tests" in note


def test_fc_timeout_is_a_failure_with_a_note(tmp_path, monkeypatch):
    monkeypatch.setattr(cargo, "TEST_TIMEOUT_S", 0.5)
    ws = make_workspace(tmp_path, "pub fn fine() -> i32 { 5 }\n", crate="fc_hang")
    start = time.monotonic()
    # the sleep runs in a child of the shell: the whole process group dies
    rate, note = functional_correctness(ws, ["sh", "-c", "sleep 30; echo done"], BuildRunner())
    assert time.monotonic() - start < 10
    assert rate == 0.0
    assert "timed out" in note


def test_build_timeout_is_a_build_tool_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cargo, "BUILD_TIMEOUT_S", 0.5)
    ws = make_workspace(tmp_path, "pub fn fine() -> i32 { 5 }\n")
    stub = tmp_path / "slow-rustc"
    # answers the version query at once, then hangs on the compile
    stub.write_text('#!/bin/sh\n[ "$1" = -vV ] && exec rustc -vV\nsleep 30\n')
    stub.chmod(0o755)
    runner = BuildRunner(rustc=str(stub))
    start = time.monotonic()
    with pytest.raises(BuildToolError, match="timed out"):
        runner.build(ws)
    assert time.monotonic() - start < 10
    assert runner.invocations == 1 and runner.build_seconds >= 0.5


# --- average repair rounds -------------------------------------------------------------


def outcome(fn, state, rounds):
    return FunctionOutcome(node_id=fn, final_state=state, rounds_used=rounds)


def test_avg_repair_all_zero():
    assert avg_repair([outcome("a", "translated", 0), outcome("b", "translated", 0)]) == 0.0


def test_avg_repair_mean():
    entries = [outcome(c, "translated", r) for c, r in zip("abc", (1, 2, 3))]
    assert avg_repair(entries) == pytest.approx(2.0)


def test_avg_repair_excludes_failures():
    entries = [
        outcome("a", "translated", 0),
        outcome("b", "translated", 3),
        outcome("c", "fallback", 5),
    ]
    assert avg_repair(entries) == pytest.approx(1.5)


def test_avg_repair_not_available_without_successes():
    assert avg_repair([outcome("a", "fallback", 5)]) is None
    with pytest.raises(MetricsError):
        avg_repair([])


# --- report rendering ---------------------------------------------------------------------


def test_render_table_five_columns_and_dashes():
    report = MetricsReport(icomp_rate=80.0, fc=None, unsafe_ratio=12.5, warnings=None, avg_repair=1.5)
    table = render_table(report, title="demo")
    for column in ("ICompRate", "FC", "Unsafe", "Warnings", "AvgRepair"):
        assert column in table
    assert "80.00" in table and "12.50" in table and "1.50" in table
    assert "--" in table
