"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and time budget."""

import json
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import FIXTURES, build_pipeline, build_planted_repo, write_trace
from test_graph import check_layering, graph_of, random_dag
from test_knowledge import brute_force_bm25
from test_metrics import TEN_FN_C, VALID_BODIES, make_workspace

from rustport.backends import OracleBackend, ScriptedFailureBackend
from rustport.cargo import BuildRunner
from rustport.cli import main as cli_main
from rustport.graph import schedule
from rustport.knowledge import KnowledgeBase, get_file_candidates
from rustport.knowledge.bm25 import Bm25Index
from rustport.metrics import (
    MetricsReport,
    avg_repair,
    classify_file,
    incremental_comp_rate,
    render_table,
    warning_count,
)
from rustport.pipeline import TranslationRun
from rustport.repair import repair_loop
from rustport.skeleton import FALLBACK_MARK
from rustport.translate import assemble_context


@contextmanager
def criterion(number: int, title: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {title}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s (limit {limit_seconds}s)"
    print(f"[criterion {number:2d}] PASS  {title} ({elapsed:.1f}s)")


def run_cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


# --- 1. compile-before-bodies ----------------------------------------------------


FIXTURE_PROJECTS = {
    "mini_list": (["list.c"], []),
    "mini_mix": (["mix.c"], ["-DMIX_ENABLE_EXTRA"]),
    "mini_cycle": (["core/parity.c", "util/track.c"], []),
    "mini_kb": (["kb.c"], []),
    "mini_callback": (["callback.c"], []),
}


def test_criterion_1_compile_before_bodies(tmp_path):
    with criterion(1, "compile-before-bodies on bundled fixtures", 120 * len(FIXTURE_PROJECTS)):
        from rustport.skeleton import load_project
        from rustport.workspace import Workspace

        for name, (sources, extra_args) in FIXTURE_PROJECTS.items():
            start = time.monotonic()
            proj = tmp_path / name
            shutil.copytree(FIXTURES / name, proj)
            write_trace(proj, sources, extra_args=extra_args)
            ws = tmp_path / f"{name}_ws"
            rc = run_cli(
                "skeleton", "--project", proj, "--trace", proj / "compile_commands.json",
                "--out", ws, "--config", proj / "project.json",
            )
            assert rc == 0, f"{name}: skeleton command failed"
            project = load_project(ws)
            workspace = Workspace(ws)
            for stub in project.stubs:
                body = workspace.read_body(stub.qualified_name)
                assert body.strip() == stub.placeholder_body.strip(), (
                    f"{name}: {stub.qualified_name} body is not the placeholder"
                )
            assert time.monotonic() - start < 120, f"{name}: over the 2-minute budget"
        # the conditional-compilation branch is the one the build selected
        mix_ws = tmp_path / "mini_mix_ws"
        assert "extra_feature" in (mix_ws / "src" / "mix.rs").read_text()


# --- 2. scheduling soundness --------------------------------------------------------


def test_criterion_2_scheduling_soundness():
    with criterion(2, "layering sound on 100 DAGs + 20 planted-cycle graphs", 10):
        rng = random.Random(20260808)
        for _ in range(100):
            nodes, edges = random_dag(rng, rng.randint(2, 50))
            layers = schedule(graph_of(edges, nodes=nodes))
            check_layering(nodes, edges, layers)
        for _ in range(20):
            nodes, edges = random_dag(rng, rng.randint(4, 50))
            members = rng.sample(nodes, rng.randint(2, min(6, len(nodes))))
            for a, b in zip(members, members[1:] + members[:1]):
                edges.add((a, b))
            layers = schedule(graph_of(edges, nodes=nodes))
            check_layering(nodes, edges, layers)


# --- 3. BM25 oracle equivalence ---------------------------------------------------------


def test_criterion_3_bm25_oracle_equivalence():
    with criterion(3, "BM25 ranking equals brute-force oracle incl. tiebreaks", 5):
        rng = random.Random(3)
        vocab = [f"sym{i}" for i in range(60)]
        specs = [(40, 30), (100, 80), (25, 10)]
        for n_docs, vocab_used in specs:
            docs = []
            for d in range(n_docs):
                words = [rng.choice(vocab[:vocab_used]) for _ in range(rng.randint(2, 80))]
                docs.append((f"d{d:04d}", " ".join(words)))
            query = " ".join(rng.choice(vocab) for _ in range(8))
            assert Bm25Index(docs).top_n(query, n_docs) == brute_force_bm25(query, docs)


# --- 4. mining recall ------------------------------------------------------------------


def test_criterion_4_mining_recall(tmp_path):
    with criterion(4, "all 9 planted heuristic pairs recovered, 400-day decoy excluded", 30):
        planted = build_planted_repo(tmp_path / "repo")
        candidates = get_file_candidates(tmp_path / "repo", regime="co_evolution")
        found = {(c.c_path, c.rust_path) for c in candidates}
        assert len(planted) == 9
        for klass, pair in planted.items():
            assert pair in found, f"heuristic class {klass}: pair {pair} not recovered"
        assert ("dtcdecoy.c", "dtcdecoy.rs") not in found, "decoy beyond the 365-day window leaked in"


# --- 5. ICompRate exactness ----------------------------------------------------------------


def test_criterion_5_icomp_exactness(tmp_path):
    with criterion(5, "ICompRate 80.00 exactly for invalid and for fallback bodies", 180):
        project, workspace, graph, index, layers, runner = build_pipeline(
            tmp_path, {"ten.c": TEN_FN_C}, crate="ten_crate"
        )
        order = layers.flatten()

        bodies = dict(VALID_BODIES)
        bodies["crate::ten::tenfn_1"] = 'let wrong: i32 = "type error"; wrong'
        bodies["crate::ten::tenfn_8"] = "call_into_the_void(v)"
        rate, ledger = incremental_comp_rate(project.workspace_dir, bodies, order, runner)
        assert rate == 80.0
        assert {e.fn_id for e in ledger if e.outcome == "failed"} == {
            "crate::ten::tenfn_1",
            "crate::ten::tenfn_8",
        }

        bodies = dict(VALID_BODIES)
        for fn in ("crate::ten::tenfn_2", "crate::ten::tenfn_6"):
            name = fn.rsplit("::", 1)[1]
            bodies[fn] = (
                f"{FALLBACK_MARK} delegating to the untranslated C symbol\n"
                f'extern "C" {{ fn {name}(v: i32) -> i32; }}\n'
                f"unsafe {{ {name}(v) }}"
            )
        rate, ledger = incremental_comp_rate(project.workspace_dir, bodies, order, runner)
        assert rate == 80.0
        flagged = {e.fn_id for e in ledger if e.outcome == "fallback"}
        assert flagged == {"crate::ten::tenfn_2", "crate::ten::tenfn_6"}


# --- 6. repair accounting ---------------------------------------------------------------------


FIVE_FN_C = "\n".join(
    f"int rfn_{i}(int v) {{\n    return v + {i};\n}}\n" for i in range(5)
)
FIVE_BODIES = {f"crate::five::rfn_{i}": f"v + {i}" for i in range(5)}


def test_criterion_6_repair_accounting(tmp_path):
    with criterion(6, "scripted failures {0,1,2,5,permanent}, R=5: outcomes and AvgRepair 2.00", 300):
        project, workspace, graph, index, layers, runner = build_pipeline(
            tmp_path, {"five.c": FIVE_FN_C}, crate="five_crate"
        )
        failures = {
            "crate::five::rfn_0": 0,
            "crate::five::rfn_1": 1,
            "crate::five::rfn_2": 2,
            "crate::five::rfn_3": 5,
            "crate::five::rfn_4": None,
        }
        backend = ScriptedFailureBackend(failures=failures, bodies=FIVE_BODIES)
        outcomes = {}
        for fn_id in layers.flatten():
            stub = project.stub_by_name(fn_id)
            ctx = assemble_context(fn_id, project, graph)
            from rustport.backends import GenerationRequest

            initial = backend.generate(
                GenerationRequest(system="s", user="u", tag=f"{fn_id}#1")
            ).text
            before = runner.invocations
            outcomes[fn_id] = repair_loop(
                workspace, stub, ctx, initial, backend, runner, index=index, budget=5
            )
            assert runner.invocations - before <= 5 + 2, f"{fn_id}: compile budget exceeded"

        states = {fn: o.final_state for fn, o in outcomes.items()}
        assert sum(1 for s in states.values() if s == "translated") == 4
        assert states["crate::five::rfn_4"] == "fallback"
        assert outcomes["crate::five::rfn_4"].rounds_used == 5
        rounds = {fn: o.rounds_used for fn, o in outcomes.items()}
        assert rounds["crate::five::rfn_0"] == 0
        assert rounds["crate::five::rfn_1"] == 1
        assert rounds["crate::five::rfn_2"] == 2
        assert rounds["crate::five::rfn_3"] == 5
        assert avg_repair(list(outcomes.values())) == pytest.approx(2.0, abs=0)


# --- 7. unsafe ratio exactness ---------------------------------------------------------------


def test_criterion_7_unsafe_ratio_exactness():
    with criterion(7, "unsafe ratio equals the committed hand-count table exactly", 5):
        table = json.loads((FIXTURES / "unsafe_cases" / "hand_counts.json").read_text())
        assert {"strings_comments.rs", "ten_lines.rs"} <= set(table)
        for name, expected in table.items():
            text = (FIXTURES / "unsafe_cases" / name).read_text()
            countable, unsafe_lines, balanced = classify_file(text)
            assert balanced
            assert countable == set(expected["countable_lines"]), name
            assert unsafe_lines == set(expected["unsafe_lines"]), name
            want_countable = len(expected["countable_lines"])
            want_unsafe = len(expected["unsafe_lines"])
            got_ratio = 100.0 * len(unsafe_lines) / len(countable)
            assert got_ratio == 100.0 * want_unsafe / want_countable


# --- 8. warnings gating -----------------------------------------------------------------------


def test_criterion_8_warnings_gating(tmp_path):
    with criterion(8, "planted warnings count exactly 2; broken build renders --", 120):
        runner = BuildRunner()
        ws = make_workspace(
            tmp_path,
            "pub fn a() -> i32 {\n    let planted_one = 1;\n    2\n}\n"
            "pub fn b() -> i32 {\n    let planted_two = 3;\n    4\n}\n",
            crate="warn_two",
        )
        assert warning_count(ws, runner) == 2

        broken = make_workspace(tmp_path, "pub fn nope() -> i32 { }\n", crate="warn_broken")
        count = warning_count(broken, runner)
        assert count is None
        table = render_table(MetricsReport(warnings=count), title="broken")
        row = table.splitlines()[-1]
        assert "--" in row


# --- 9. knowledge closure ----------------------------------------------------------------------


def test_criterion_9_knowledge_closure(tmp_path):
    with criterion(9, "accumulated knowledge ranks first and strictly lowers AvgRepair", 600):
        kb_bodies = json.loads((FIXTURES / "mini_kb" / "oracle_bodies.json").read_text())
        kb_source = (FIXTURES / "mini_kb" / "kb.c").read_text()

        # run A: oracle backend, successes accumulate into the knowledge base
        pipe_a = build_pipeline(tmp_path / "a", {"kb.c": kb_source}, crate="mini_kb")
        kb = KnowledgeBase(tmp_path / "kbdir")
        run_a = TranslationRun(
            skeleton=pipe_a[0], workspace=pipe_a[1], graph=pipe_a[2], index=pipe_a[3],
            layers=pipe_a[4], backend=OracleBackend(kb_bodies), runner=pipe_a[5], kb=kb,
        )
        outcomes_a = run_a.execute()
        assert all(o.final_state == "translated" for o in outcomes_a.values())
        assert any("offset_of!" in r.rust_idiom for r in kb.fragment_rules)

        # retrieval: identical C source ranks the accumulated pair first
        offset_stub = pipe_a[0].stub_by_name("crate::kb::next_offset")
        pairs, _, frags = kb.retrieve(offset_stub.origin.source_text, k=5)
        assert pairs[0].c_name == "next_offset"
        assert any("offset_of!" in r.rust_idiom for r in frags)

        def scripted_run(workdir, with_kb):
            pipe = build_pipeline(workdir, {"kb.c": kb_source}, crate="mini_kb")
            backend = ScriptedFailureBackend(
                failures={fn: 1 for fn in kb_bodies},
                bodies=kb_bodies,
                unlock_substring="offset_of!",
            )
            run = TranslationRun(
                skeleton=pipe[0], workspace=pipe[1], graph=pipe[2], index=pipe[3],
                layers=pipe[4], backend=backend, runner=pipe[5],
                kb=with_kb, accumulate=False,
            )
            outcomes = run.execute()
            assert all(o.final_state == "translated" for o in outcomes.values())
            return avg_repair(list(outcomes.values()))

        avg_empty = scripted_run(tmp_path / "b_empty", KnowledgeBase())
        avg_accumulated = scripted_run(tmp_path / "b_kb", KnowledgeBase.load(tmp_path / "kbdir"))
        assert avg_accumulated < avg_empty, (
            f"accumulated KB did not reduce repair rounds ({avg_accumulated} vs {avg_empty})"
        )


# --- 10. end-to-end oracle run --------------------------------------------------------------------


def test_criterion_10_end_to_end_oracle(tmp_path, capsys):
    with criterion(10, "oracle run on mini_list: ICompRate 100.00, FC 100.00, full table", 300):
        proj = tmp_path / "proj"
        shutil.copytree(FIXTURES / "mini_list", proj)
        write_trace(proj, ["list.c"])
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
        assert run_cli(
            "evaluate", "--workspace", ws_tr, "--skeleton", ws_skel,
            "--tests", "cargo test", "--run-id", "run-001",
        ) == 0
        report = json.loads((ws_tr / "runs" / "run-001" / "report.json").read_text())
        assert report["icomp_rate"] == 100.0
        assert report["fc"] == 100.0
        capsys.readouterr()
        assert run_cli("report", "--workspace", ws_tr, "--run-id", "run-001") == 0
        table = capsys.readouterr().out
        for column in ("ICompRate", "FC", "Unsafe", "Warnings", "AvgRepair"):
            assert column in table
        assert "100.00" in table
