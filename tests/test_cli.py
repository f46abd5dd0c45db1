import hashlib
import json
import re
import shutil
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import FIXTURES, build_planted_repo, write_trace

from rustport.cli import build_parser, main
from rustport.config import RunConfig, apply_flag_overrides, load_config


def copy_fixture(name: str, dest: Path) -> Path:
    shutil.copytree(FIXTURES / name, dest)
    return dest


def setup_mini_list(tmp_path: Path) -> tuple[Path, Path]:
    proj = copy_fixture("mini_list", tmp_path / "proj")
    trace = write_trace(proj, ["list.c"])
    return proj, trace


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_skeleton_command_builds_workspace(tmp_path, capsys):
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    rc = run_cli(
        "skeleton", "--project", proj, "--trace", trace, "--out", ws,
        "--config", proj / "project.json", "--emit-graph",
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "skeleton assembled and verified" in out
    assert (ws / "Cargo.toml").is_file()
    assert (ws / "graph.json").is_file()
    assert (ws / "mapping.json").is_file()
    assert (ws / "tests" / "integration.rs").is_file()  # bundled tests copied


def test_skeleton_command_prints_its_hole_count(tmp_path, capsys):
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "a.c").write_text("int trace(int m[2][3]) { return m[0][0]; }\nint ok(void) { return 1; }\n")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"strict_holes": False}))
    rc = run_cli(
        "skeleton", "--project", proj, "--trace", write_trace(proj, ["a.c"]),
        "--out", tmp_path / "ws", "--config", config,
    )
    assert rc == 0
    assert "modules: 1  stubs: 1  types: 0  statics: 0  holes: 1" in capsys.readouterr().out


def test_skeleton_response_file_cycle_is_an_error(tmp_path, capsys):
    proj = copy_fixture("mini_list", tmp_path / "proj")
    (proj / "loop.rsp").write_text("-DA @loop.rsp\n")
    trace = write_trace(proj, ["list.c"], extra_args=["@loop.rsp"])
    rc = run_cli("skeleton", "--project", proj, "--trace", trace, "--out", tmp_path / "ws")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "loop.rsp" in err
    assert not (tmp_path / "ws").exists()


def test_skeleton_prints_the_preprocessors_message(tmp_path, capsys):
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "u.c").write_text('#include "no_such_header.h"\nint f(void) { return 1; }\n')
    rc = run_cli(
        "skeleton", "--project", proj, "--trace", write_trace(proj, ["u.c"]), "--out", tmp_path / "ws"
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: preprocessor failed on u.c (exit 1):")
    assert "no_such_header.h" in err


@pytest.mark.parametrize(
    "order", [["a.c", "latin1.c", "missing.c"], ["a.c", "missing.c", "latin1.c"]]
)
def test_skeleton_reports_the_first_failing_unit_in_trace_order(tmp_path, capsys, order):
    # the units are preprocessed concurrently; the error stays the one of the
    # first unit in trace order that fails
    proj = tmp_path / "proj"
    proj.mkdir()
    (proj / "a.c").write_text("int ok(void) { return 1; }\n")
    (proj / "latin1.c").write_bytes(b'const char *g = "caf\xe9";\n')
    (proj / "missing.c").write_text('#include "no_such_header.h"\n')
    rc = run_cli(
        "skeleton", "--project", proj, "--trace", write_trace(proj, order), "--out", tmp_path / "ws"
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    first_bad, other_bad = order[1:]
    assert first_bad in err and other_bad not in err


def test_skeleton_missing_trace_nonzero(tmp_path, capsys):
    proj, _ = setup_mini_list(tmp_path)
    rc = run_cli(
        "skeleton", "--project", proj, "--trace", tmp_path / "nope.json",
        "--out", tmp_path / "ws",
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_skeleton_existing_out_requires_force(tmp_path):
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    assert run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws) == 0
    assert run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws) == 1
    assert run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws, "--force") == 0


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["skeleton"])  # missing required flags
    assert exc.value.code == 2


def test_trace_entry_outside_project_is_an_error(tmp_path, capsys):
    proj, _ = setup_mini_list(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "x.c").write_text("int x_value(void) { return 1; }\n")
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([
        {"directory": str(proj), "file": "list.c", "arguments": ["cc", "-c", "list.c"]},
        {"directory": str(elsewhere), "file": "x.c", "arguments": ["cc", "-c", "x.c"]},
    ]))
    rc = run_cli("skeleton", "--project", proj, "--trace", trace, "--out", tmp_path / "ws")
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert str(elsewhere / "x.c") in err and str(proj.resolve()) in err


@pytest.mark.parametrize("key", ["flatten_root", "placeholder_style"])
def test_removed_settings_are_unknown_config_keys(tmp_path, capsys, key):
    proj, trace = setup_mini_list(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: True}))
    rc = run_cli(
        "skeleton", "--project", proj, "--trace", trace, "--out", tmp_path / "ws",
        "--config", config,
    )
    assert rc == 1
    assert f"unknown config key: {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, key, expected",
    [
        ({"jobs": "3"}, "jobs", "int"),
        ({"repair_budget": True}, "repair_budget", "int"),
        ({"retrieval_depth": 2.5}, "retrieval_depth", "int"),
        ({"preprocessor": ["gcc", 1]}, "preprocessor", "list[str]"),
    ],
)
def test_config_values_of_the_wrong_type_are_errors(tmp_path, capsys, values, key, expected):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values))
    rc = run_cli("translate", "--workspace", tmp_path / "ws", "--config", config)
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert f"config key {key!r} must be {expected}" in err


@pytest.mark.parametrize("text", ["[1, 2]", '{"jobs": '], ids=["array", "cut-short"])
def test_a_config_file_that_is_no_json_object_is_an_error(tmp_path, capsys, text):
    config = tmp_path / "run.json"
    config.write_text(text)
    assert run_cli("translate", "--workspace", tmp_path / "ws", "--config", config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and str(config) in err


def test_readme_lists_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"can set any of these keys:(.*?)Any other key", readme, re.S)
    assert listed is not None
    assert re.findall(r"`(\w+)`", listed.group(1)) == [f.name for f in fields(RunConfig)]


def test_flags_override_config_file_values(tmp_path):
    """Each flag whose name differs from its config key still overrides that
    key, a zero included, and leaves the other keys as the file set them."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({
        "trace_path": "file-trace.json", "kb_path": "file-kb",
        "retrieval_depth": 7, "script_file": "file-script.json",
    }))
    parser = build_parser()

    args = parser.parse_args([
        "skeleton", "--project", "p", "--out", "o", "--config", str(config_file),
        "--trace", "flag-trace.json",
    ])
    config = apply_flag_overrides(load_config(args.config), args)
    assert (config.trace_path, config.kb_path, config.retrieval_depth, config.script_file) == (
        "flag-trace.json", "file-kb", 7, "file-script.json"
    )

    args = parser.parse_args([
        "translate", "--workspace", "w", "--config", str(config_file),
        "--kb", "flag-kb", "--k", "0", "--script", "flag-script.json",
    ])
    config = apply_flag_overrides(load_config(args.config), args)
    assert (config.trace_path, config.kb_path, config.retrieval_depth, config.script_file) == (
        "file-trace.json", "flag-kb", 0, "flag-script.json"
    )


def test_translate_oracle_and_reports(tmp_path, capsys):
    proj, trace = setup_mini_list(tmp_path)
    ws_skel = tmp_path / "ws_skel"
    run_cli(
        "skeleton", "--project", proj, "--trace", trace, "--out", ws_skel,
        "--config", proj / "project.json",
    )
    ws_tr = tmp_path / "ws_tr"
    shutil.copytree(ws_skel, ws_tr)

    rc = run_cli(
        "translate", "--workspace", ws_tr, "--backend", "oracle",
        "--oracle-bodies", proj / "oracle_bodies.json", "--run-id", "run-001",
    )
    assert rc == 0
    assert "translated 3/3" in capsys.readouterr().out
    summary = json.loads((ws_tr / "runs" / "run-001" / "summary.json").read_text())
    assert summary["translated"] == 3 and summary["fallback"] == 0

    skeleton_before = tree_digest(ws_skel)
    rc = run_cli(
        "evaluate", "--workspace", ws_tr, "--skeleton", ws_skel,
        "--tests", "cargo test", "--run-id", "run-001",
    )
    assert rc == 0
    assert tree_digest(ws_skel) == skeleton_before  # evaluation never modifies inputs
    table = capsys.readouterr().out
    assert "ICompRate" in table and "100.00" in table
    report = json.loads((ws_tr / "runs" / "run-001" / "report.json").read_text())
    assert report["icomp_rate"] == 100.0
    assert report["fc"] == 100.0

    rc = run_cli("report", "--workspace", ws_tr, "--run-id", "run-001")
    assert rc == 0
    rendered = capsys.readouterr().out
    for column in ("ICompRate", "FC", "Unsafe", "Warnings", "AvgRepair"):
        assert column in rendered

    rc = run_cli("report", "--workspace", ws_tr, "--run-id", "run-001", "--format", "json")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["icomp_rate"] == 100.0


def test_translate_existing_run_requires_force(tmp_path):
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws)
    args = [
        "translate", "--workspace", ws, "--backend", "oracle",
        "--oracle-bodies", proj / "oracle_bodies.json", "--run-id", "fixed",
    ]
    assert run_cli(*args) == 0
    assert run_cli(*args) == 1


def assert_refused_before_the_run(capsys, ws, run_id, *names):
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    for name in names:
        assert str(name) in err
    assert not (ws / "runs" / run_id).exists()


@pytest.mark.parametrize("bad", ["missing", "malformed"])
def test_translate_reads_backend_inputs_before_claiming_the_run(tmp_path, capsys, bad):
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws)
    bodies = json.loads((proj / "oracle_bodies.json").read_text())
    script = tmp_path / "script.json"
    if bad == "malformed":
        script.write_text('{"bodies": {')
    args = ["translate", "--workspace", ws, "--backend", "script", "--script", script,
            "--run-id", "r1"]
    assert run_cli(*args) == 1
    assert_refused_before_the_run(capsys, ws, "r1", script)
    oracle = ["translate", "--workspace", ws, "--backend", "oracle", "--run-id", "r1",
              "--oracle-bodies", tmp_path / "bodies.json"]
    if bad == "malformed":
        (tmp_path / "bodies.json").write_text("[1, 2]")  # JSON, but not an object
    assert run_cli(*oracle) == 1
    assert_refused_before_the_run(capsys, ws, "r1", tmp_path / "bodies.json")
    replay = ["translate", "--workspace", ws, "--backend", "replay", "--run-id", "r1",
              "--replay-dir", tmp_path / "replays"]
    if bad == "malformed":
        (tmp_path / "replays").write_text("a file, not a directory")
    assert run_cli(*replay) == 1
    assert_refused_before_the_run(capsys, ws, "r1", tmp_path / "replays")

    script.write_text(json.dumps({"bodies": bodies}))
    assert run_cli(*args) == 0  # the retry needs no --force
    assert json.loads((ws / "runs" / "r1" / "summary.json").read_text())["translated"] == 3


def test_translate_refuses_a_missing_kb_directory(tmp_path, capsys):
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws)
    kb_dir = tmp_path / "kb"
    args = ["translate", "--workspace", ws, "--backend", "oracle", "--run-id", "r1",
            "--oracle-bodies", proj / "oracle_bodies.json", "--kb", kb_dir]
    assert run_cli(*args) == 1
    assert_refused_before_the_run(capsys, ws, "r1", kb_dir)
    assert not kb_dir.exists()  # a mistyped --kb creates nothing

    kb_dir.mkdir()  # an existing empty directory starts a new knowledge base
    assert run_cli(*args) == 0
    journal = (kb_dir / "pairs.jsonl").read_text().splitlines()
    assert len(journal) == 1 + 3  # the header, then the three translated functions


def test_translate_one_shot_shape(tmp_path):
    # k=0 and R=0: no retrieval, no repair; failures fall back immediately
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "failures": {"crate::list::record_push": 1},
        "bodies": json.loads((proj / "oracle_bodies.json").read_text()),
    }))
    rc = run_cli(
        "translate", "--workspace", ws, "--backend", "script", "--script", script,
        "--k", "0", "--repair-budget", "0", "--run-id", "oneshot",
    )
    assert rc == 0
    summary = json.loads((ws / "runs" / "oneshot" / "summary.json").read_text())
    assert summary["outcomes"]["crate::list::record_push"]["state"] == "fallback"
    assert summary["outcomes"]["crate::list::record_push"]["rounds"] == 0
    assert summary["translated"] == 2


def test_report_missing_run_nonzero(tmp_path):
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws)
    assert run_cli("report", "--workspace", ws, "--run-id", "ghost") == 1


def test_evaluate_without_skeleton_reports_partial_metrics(tmp_path, capsys):
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws,
            "--config", proj / "project.json")
    rc = run_cli("evaluate", "--workspace", ws, "--run-id", "bare")
    assert rc == 0
    report = json.loads((ws / "runs" / "bare" / "report.json").read_text())
    assert report["icomp_rate"] is None  # no skeleton baseline given
    assert report["warnings"] == 0
    assert report["fc"] is None and "no test command" in report["fc_note"]


def test_evaluate_reads_summary_of_run_id_from_config(tmp_path):
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "failures": {"crate::list::record_push": 1},
        "bodies": json.loads((proj / "oracle_bodies.json").read_text()),
    }))
    config = tmp_path / "run.json"  # the run id is set here and by no flag
    config.write_text(json.dumps(
        {"run_id": "from-config", "backend": "script", "script_file": str(script)}
    ))
    assert run_cli("translate", "--workspace", ws, "--config", config) == 0
    summary = json.loads((ws / "runs" / "from-config" / "summary.json").read_text())
    assert summary["avg_repair"] > 0  # record_push took one model repair

    assert run_cli("evaluate", "--workspace", ws, "--config", config) == 0
    report = json.loads((ws / "runs" / "from-config" / "report.json").read_text())
    assert report["avg_repair"] == summary["avg_repair"]


def test_mine_command_on_planted_repo(tmp_path, capsys):
    build_planted_repo(tmp_path / "repo")
    kb_dir = tmp_path / "kb"
    rc = run_cli("mine", "--repo", tmp_path / "repo", "--out", kb_dir)
    assert rc == 0
    out = capsys.readouterr().out
    assert "file-pair candidates" in out
    assert (kb_dir / "pairs.jsonl").is_file()
    assert (kb_dir / "api_rules.jsonl").is_file()
    assert (kb_dir / "fragment_rules.jsonl").is_file()


def test_mine_without_git_reads_the_snapshot(tmp_path, monkeypatch, capsys, caplog):
    build_planted_repo(tmp_path / "repo")
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))  # no git on it
    rc = run_cli("mine", "--repo", tmp_path / "repo", "--out", tmp_path / "kb")
    assert rc == 0
    assert "history unreadable" in caplog.text
    assert "module_colocation" in capsys.readouterr().out


def test_mine_empty_repo_succeeds(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run_cli("mine", "--repo", empty, "--out", tmp_path / "kb", "--regime", "general")
    assert rc == 0


def test_mine_unreadable_path_nonzero(tmp_path, capsys):
    rc = run_cli("mine", "--repo", tmp_path / "missing", "--out", tmp_path / "kb")
    assert rc == 1
    assert "unreadable" in capsys.readouterr().err


def test_cycle_project_full_flow(tmp_path, capsys):
    # multi-directory project, shared-layer global, mutually recursive pair
    proj = copy_fixture("mini_cycle", tmp_path / "proj")
    write_trace(proj, ["core/parity.c", "util/track.c"])
    ws_skel = tmp_path / "ws_skel"
    assert run_cli(
        "skeleton", "--project", proj, "--trace", proj / "compile_commands.json",
        "--out", ws_skel, "--config", proj / "project.json", "--emit-graph",
    ) == 0
    graph = json.loads((ws_skel / "graph.json").read_text())
    final_layer = graph["layers"][-1]
    assert "crate::core::parity::is_even" in final_layer
    assert "crate::core::parity::is_odd" in final_layer

    ws_tr = tmp_path / "ws_tr"
    shutil.copytree(ws_skel, ws_tr)
    assert run_cli(
        "translate", "--workspace", ws_tr, "--backend", "oracle",
        "--oracle-bodies", proj / "oracle_bodies.json", "--run-id", "run-001",
    ) == 0
    assert run_cli(
        "evaluate", "--workspace", ws_tr, "--skeleton", ws_skel,
        "--tests", "cargo test", "--run-id", "run-001",
    ) == 0
    report = json.loads((ws_tr / "runs" / "run-001" / "report.json").read_text())
    assert report["icomp_rate"] == 100.0
    assert report["fc"] == 100.0
    assert report["unsafe_ratio"] > 0  # shared static access is unsafe


def test_callback_project_full_flow(tmp_path):
    # a function-pointer typedef used by a struct member and a parameter, and
    # a static function stored in that member
    proj = copy_fixture("mini_callback", tmp_path / "proj")
    write_trace(proj, ["callback.c"])
    ws_skel = tmp_path / "ws_skel"
    assert run_cli(
        "skeleton", "--project", proj, "--trace", proj / "compile_commands.json",
        "--out", ws_skel, "--config", proj / "project.json",
    ) == 0
    ws_tr = tmp_path / "ws_tr"
    shutil.copytree(ws_skel, ws_tr)
    assert run_cli(
        "translate", "--workspace", ws_tr, "--backend", "oracle",
        "--oracle-bodies", proj / "oracle_bodies.json", "--run-id", "run-001",
    ) == 0
    summary = json.loads((ws_tr / "runs" / "run-001" / "summary.json").read_text())
    # use_twice stores the static `twice` in an `unsafe extern "C" fn` member
    assert summary["outcomes"]["crate::callback::use_twice"]["state"] == "translated"
    assert summary["translated"] == 4

    assert run_cli(
        "evaluate", "--workspace", ws_tr, "--skeleton", ws_skel,
        "--tests", "cargo test", "--run-id", "run-001",
    ) == 0
    report = json.loads((ws_tr / "runs" / "run-001" / "report.json").read_text())
    assert report["icomp_rate"] == 100.0
    assert report["fc"] == 100.0
    # hand count: callback.rs has 25 counted lines, lib.rs 3, shared.rs none;
    # unsafe are the `cb_t` alias (a function pointer type marks its own line)
    # and `Some(f) => unsafe { f(v) },` in apply_cb
    assert report["unsafe_ratio"] == 100.0 * 2 / 28


def test_graph_command(tmp_path, capsys):
    proj, trace = setup_mini_list(tmp_path)
    ws = tmp_path / "ws"
    run_cli("skeleton", "--project", proj, "--trace", trace, "--out", ws)
    rc = run_cli("graph", "--workspace", ws)
    assert rc == 0
    doc = json.loads((ws / "graph.json").read_text())
    assert doc["layers"]
    assert any(n["kind"] == "function" for n in doc["nodes"])


def test_translate_prompts_equal_an_in_memory_run(tmp_path):
    """`rustport translate` loads the skeleton from disk; its prompts must be
    the ones an in-memory run over the same skeleton builds."""
    from rustport.backends import OracleBackend
    from rustport.buildctx import (
        PreprocessorConfig,
        dedupe_by_source,
        derive_unit_context,
        load_compile_commands,
        preprocess_unit,
    )
    from rustport.cargo import BuildRunner
    from rustport.graph import build_graph, build_symbol_index, schedule
    from rustport.pipeline import RunArtifacts, TranslationRun
    from rustport.skeleton import SkeletonConfig, assemble_and_verify, plan_skeleton
    from rustport.workspace import Workspace

    proj = copy_fixture("mini_cycle", tmp_path / "proj")
    trace = write_trace(proj, ["core/parity.c", "util/track.c"])
    ws = tmp_path / "ws"
    assert run_cli(
        "skeleton", "--project", proj, "--trace", trace, "--out", ws,
        "--config", proj / "project.json",
    ) == 0
    cli_skeleton = tree_digest(ws / "src")
    assert run_cli(
        "translate", "--workspace", ws, "--backend", "oracle",
        "--oracle-bodies", proj / "oracle_bodies.json", "--run-id", "cli",
    ) == 0
    cli_prompts = ws / "runs" / "cli" / "prompts"
    # the shared layer's accessor reaches the prompt through the saved record
    assert "g_checks_ptr" in (cli_prompts / "crate.util.track.read_checks#1.txt").read_text()

    units = [
        preprocess_unit(derive_unit_context(c), PreprocessorConfig())
        for c in dedupe_by_source(load_compile_commands(trace))
    ]
    project = assemble_and_verify(
        plan_skeleton(proj, units, SkeletonConfig(crate_name="mini_cycle")), tmp_path / "mem_ws"
    )
    # the CLI preprocesses its units concurrently, this run one after another
    assert tree_digest(tmp_path / "mem_ws" / "src") == cli_skeleton
    index = build_symbol_index(project)
    graph = build_graph(index, project)
    TranslationRun(
        skeleton=project, workspace=Workspace(project.workspace_dir), graph=graph,
        index=index, layers=schedule(graph),
        backend=OracleBackend.from_file(proj / "oracle_bodies.json"), runner=BuildRunner(),
        artifacts=RunArtifacts(tmp_path / "mem_run"),
    ).execute()
    assert tree_digest(tmp_path / "mem_run" / "prompts") == tree_digest(cli_prompts)
