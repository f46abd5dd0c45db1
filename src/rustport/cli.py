"""Command-line surface: mine, skeleton, graph, translate, evaluate, report.

Exit codes: 0 success, 1 domain error, 2 usage error. No command ever prompts;
re-running into an existing run directory requires --force.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shlex
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .backends import OracleBackend, RemoteBackend, ReplayBackend, ScriptedFailureBackend
from .buildctx import (
    PreprocessorConfig,
    dedupe_by_source,
    derive_unit_context,
    load_compile_commands,
    preprocess_unit,
)
from .cargo import BuildRunner
from .config import RunConfig, apply_flag_overrides, load_config, read_json_object
from .errors import RustportError
from .graph import build_graph, build_symbol_index, export_graph, schedule
from .knowledge import KnowledgeBase, build_knowledge_base
from .metrics import (
    MetricsReport,
    avg_repair,
    functional_correctness,
    incremental_comp_rate,
    render_table,
    unsafe_ratio,
    warning_count,
)
from .pipeline import RunArtifacts, TranslationRun
from .skeleton import SkeletonConfig, assemble_and_verify, load_project, plan_skeleton
from .workspace import Workspace

logger = logging.getLogger(__name__)


def _next_run_id(runs_dir: Path) -> str:
    n = 1
    while (runs_dir / f"run-{n:03d}").exists():
        n += 1
    return f"run-{n:03d}"


def _claim_run_dir(workspace: Path, run_id, force: bool) -> Path:
    runs_dir = workspace / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    if run_id is None:
        run_id = _next_run_id(runs_dir)
    run_dir = runs_dir / run_id
    if run_dir.exists() and not force:
        raise RustportError(f"run directory exists: {run_dir} (use --force to reuse)")
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _make_backend(config: RunConfig):
    kind = config.backend
    if kind == "oracle":
        if not config.oracle_bodies:
            raise RustportError("oracle backend needs --oracle-bodies <file.json>")
        return OracleBackend(read_json_object(config.oracle_bodies, "--oracle-bodies file"))
    if kind == "replay":
        if not config.replay_dir:
            raise RustportError("replay backend needs --replay-dir <dir>")
        if not Path(config.replay_dir).is_dir():
            raise RustportError(f"--replay-dir is not a directory: {config.replay_dir}")
        return ReplayBackend(config.replay_dir)
    if kind == "script":
        if not config.script_file:
            raise RustportError("script backend needs --script <file.json>")
        spec = read_json_object(config.script_file, "--script file")
        return ScriptedFailureBackend(
            failures=spec.get("failures", {}),
            bodies=spec.get("bodies", {}),
            invalid_body=spec.get("invalid_body", ScriptedFailureBackend.DEFAULT_INVALID),
            unlock_substring=spec.get("unlock_substring"),
        )
    if kind == "remote":
        if not config.endpoint or not config.model:
            raise RustportError("remote backend needs --endpoint and --model")
        return RemoteBackend(
            endpoint=config.endpoint, model=config.model, auth_env=config.auth_env
        )
    raise RustportError(f"unknown backend {kind!r}")


def _load_pipeline(project):
    """Index, graph and schedule of an already-loaded skeleton project."""
    index = build_symbol_index(project)
    graph = build_graph(index, project)
    layers = schedule(graph)
    return graph, index, layers


# --- subcommands ----------------------------------------------------------------


def cmd_mine(args) -> int:
    for repo in args.repo:
        if not Path(repo).is_dir():
            raise RustportError(f"repository path unreadable: {repo}")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise RustportError(f"knowledge base directory not empty: {out} (use --force)")
    _, stats = build_knowledge_base(args.repo, regime=args.regime, out_dir=out)
    print(f"mined {stats['repos']} repositories: {stats['candidates']} file-pair candidates")
    for heuristic, count in sorted(stats["heuristics"].items()):
        print(f"  {heuristic}: {count}")
    print(f"pairs: {stats['pairs']}  rules: {stats['rules']}")
    print(f"knowledge base written to {out}")
    return 0


def cmd_skeleton(args) -> int:
    config = apply_flag_overrides(load_config(args.config), args)
    if not config.trace_path:
        raise RustportError("a build trace is required (--trace)")
    project_root = Path(args.project).resolve()
    out = Path(args.out)
    if (out / "Cargo.toml").exists() and not args.force:
        raise RustportError(f"workspace already exists: {out} (use --force)")

    commands = dedupe_by_source(
        load_compile_commands(config.trace_path, skip_missing_sources=args.skip_missing)
    )
    if not commands:
        raise RustportError("build trace contains no usable entries")
    cpp = PreprocessorConfig(
        executable=list(config.preprocessor), base_flags=list(config.preprocessor_flags)
    )
    # each unit waits on its own preprocessor process; map keeps trace order,
    # and so raises the error of the first failing unit in that order
    with ThreadPoolExecutor(max_workers=min(len(commands), os.cpu_count() or 1)) as pool:
        units = list(pool.map(lambda cmd: preprocess_unit(derive_unit_context(cmd), cpp), commands))

    skel_config = SkeletonConfig(
        crate_name=config.crate_name or project_root.name.replace("-", "_"),
        strict_holes=config.strict_holes,
    )
    project = assemble_and_verify(plan_skeleton(project_root, units, skel_config), out)

    if config.rust_tests_dir:
        tests_src = project_root / config.rust_tests_dir
        if tests_src.is_dir():
            tests_dst = out / "tests"
            tests_dst.mkdir(exist_ok=True)
            for f in sorted(tests_src.glob("*.rs")):
                (tests_dst / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")

    print(f"skeleton assembled and verified at {out}")
    print(f"modules: {len(project.tree.mapping)}  stubs: {len(project.stubs)}  "
          f"types: {len(project.types)}  statics: {len(project.statics)}  "
          f"holes: {len(project.holes)}")
    if args.emit_graph:
        graph, _, layers = _load_pipeline(project)
        export_graph(graph, layers, out / "graph.json")
        print(f"graph written to {out / 'graph.json'}")
    return 0


def cmd_graph(args) -> int:
    workspace_dir = Path(args.workspace)
    graph, _, layers = _load_pipeline(load_project(workspace_dir))
    out = Path(args.out) if args.out else workspace_dir / "graph.json"
    export_graph(graph, layers, out)
    print(f"{len(graph.function_nodes())} function nodes, "
          f"{len(graph.call_edges)} call edges, {len(layers.layers)} layers")
    print(f"graph written to {out}")
    return 0


def cmd_translate(args) -> int:
    config = apply_flag_overrides(load_config(args.config), args)
    workspace_dir = Path(args.workspace)
    project = load_project(workspace_dir)
    graph, index, layers = _load_pipeline(project)
    # every input is read before the run directory is claimed, so a bad one
    # leaves nothing behind and the retry needs no --force
    backend = _make_backend(config)
    kb = None
    if config.kb_path:
        if not Path(config.kb_path).is_dir():
            raise RustportError(
                f"knowledge base directory not found: {config.kb_path} "
                "(an existing empty directory starts a new one)"
            )
        kb = KnowledgeBase.load(config.kb_path)
    run_dir = _claim_run_dir(workspace_dir, config.run_id, args.force)
    # one progress line per wave of the schedule on stderr
    layer_log = logging.getLogger("rustport.pipeline")
    if layer_log.getEffectiveLevel() > logging.INFO:
        layer_log.setLevel(logging.INFO)
    runner = BuildRunner()
    run = TranslationRun(
        skeleton=project,
        workspace=Workspace(workspace_dir),
        graph=graph,
        index=index,
        layers=layers,
        backend=backend,
        runner=runner,
        kb=kb,
        retrieval_depth=config.retrieval_depth,
        repair_budget=config.repair_budget,
        jobs=config.jobs,
        artifacts=RunArtifacts(run_dir),
        accumulate=kb is not None and not args.no_accumulate,
    )
    outcomes = run.execute()
    export_graph(graph, layers, run_dir / "graph.json")

    translated = sum(1 for o in outcomes.values() if o.final_state == "translated")
    fallback = sum(1 for o in outcomes.values() if o.final_state == "fallback")
    failed = sum(1 for o in outcomes.values() if o.final_state == "failed")
    summary = {
        "run_id": run_dir.name,
        "functions": len(outcomes),
        "translated": translated,
        "fallback": fallback,
        "failed": failed,
        "avg_repair": avg_repair(list(outcomes.values())) if outcomes else None,
        "outcomes": {
            fn: {"state": o.final_state, "rounds": o.rounds_used}
            for fn, o in sorted(outcomes.items())
        },
    }
    (run_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"translated {translated}/{len(outcomes)} functions "
          f"({fallback} fallback, {failed} failed); run {run_dir.name}")
    return 0


def cmd_evaluate(args) -> int:
    config = apply_flag_overrides(load_config(args.config), args)
    workspace_dir = Path(args.workspace)
    skeleton_dir = Path(args.skeleton) if args.skeleton else workspace_dir
    # evaluate may add its report to an existing run; overwriting one needs --force
    runs_dir = workspace_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    run_dir = runs_dir / (config.run_id or _next_run_id(runs_dir))
    if (run_dir / "report.json").exists() and not args.force:
        raise RustportError(f"report already exists in {run_dir} (use --force)")
    run_dir.mkdir(parents=True, exist_ok=True)

    runner = BuildRunner()
    report = MetricsReport()

    translated_ws = Workspace(workspace_dir)
    project = load_project(skeleton_dir)
    placeholders = {s.qualified_name: s.placeholder_body.strip() for s in project.stubs}
    bodies: dict[str, str] = {}
    for fn_id in translated_ws.body_ids():
        body = translated_ws.read_body(fn_id)
        if placeholders.get(fn_id, "").strip() == body.strip():
            continue  # untranslated placeholder: nothing to evaluate
        bodies[fn_id] = body

    if args.skeleton and bodies:
        _, _, layers = _load_pipeline(project)
        # ICompRate installs bodies: it runs on a private copy, so the input
        # skeleton stays byte-identical (its build cache is left behind)
        with tempfile.TemporaryDirectory(prefix="rustport-icomp-") as tmp:
            private = Path(tmp) / "skeleton"
            shutil.copytree(
                skeleton_dir, private,
                ignore=lambda d, names: ["target"] if Path(d) == skeleton_dir else [],
            )
            rate, ledger = incremental_comp_rate(private, bodies, layers.flatten(), runner)
        report.icomp_rate = rate
        report.ledger = ledger
    elif args.skeleton:
        report.icomp_rate = 0.0

    report.unsafe_ratio = unsafe_ratio(workspace_dir)
    report.warnings = warning_count(workspace_dir, runner)

    test_command = config.test_command
    if args.tests:
        test_command = shlex.split(args.tests)
    if test_command:
        fc, note = functional_correctness(workspace_dir, test_command, runner)
        report.fc = fc
        report.fc_note = note
    else:
        report.fc_note = "no test command configured"

    summary_file = run_dir / "summary.json"
    if summary_file.is_file():
        summary = json.loads(summary_file.read_text(encoding="utf-8"))
        report.avg_repair = summary.get("avg_repair")

    report.save(run_dir / "report.json")
    print(render_table(report, title=run_dir.name))
    print(f"report written to {run_dir / 'report.json'}")
    return 0


def cmd_report(args) -> int:
    workspace_dir = Path(args.workspace)
    run_dir = workspace_dir / "runs" / args.run_id
    report_file = run_dir / "report.json"
    if not report_file.is_file():
        raise RustportError(f"no report for run {args.run_id!r} under {workspace_dir}")
    data = json.loads(report_file.read_text(encoding="utf-8"))
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    report = MetricsReport(
        icomp_rate=data.get("icomp_rate"),
        fc=data.get("fc"),
        fc_note=data.get("fc_note", ""),
        unsafe_ratio=data.get("unsafe_ratio"),
        warnings=data.get("warnings"),
        avg_repair=data.get("avg_repair"),
    )
    print(render_table(report, title=args.run_id))
    return 0


# --- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rustport",
        description="Build-aware incremental C-to-Rust migration toolkit",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine a knowledge base from repositories")
    p.add_argument("--repo", action="append", required=True, help="repository path (repeatable)")
    p.add_argument("--regime", choices=["co_evolution", "general"], default="co_evolution")
    p.add_argument("--out", required=True, help="knowledge base output directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("skeleton", help="build the compilable Rust skeleton")
    p.add_argument("--project", required=True, help="C project root")
    p.add_argument("--trace", dest="trace_path", default=None, help="compile_commands.json path")
    p.add_argument("--out", required=True, help="workspace output directory")
    p.add_argument("--config", default=None)
    p.add_argument("--crate-name", dest="crate_name", default=None)
    p.add_argument("--skip-missing", action="store_true", help="skip trace entries whose sources are gone")
    p.add_argument("--emit-graph", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("graph", help="export the dependency graph and schedule")
    p.add_argument("--workspace", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("translate", help="translate function bodies bottom-up")
    p.add_argument("--workspace", required=True)
    p.add_argument("--backend", choices=["remote", "replay", "oracle", "script"], default=None)
    p.add_argument("--kb", dest="kb_path", default=None, help="knowledge base directory")
    p.add_argument(
        "--k", dest="retrieval_depth", type=int, default=None,
        help="retrieval depth (0 disables retrieval)",
    )
    p.add_argument("--repair-budget", dest="repair_budget", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--run-id", dest="run_id", default=None)
    p.add_argument("--oracle-bodies", dest="oracle_bodies", default=None)
    p.add_argument("--replay-dir", dest="replay_dir", default=None)
    p.add_argument("--script", dest="script_file", default=None)
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--auth-env", dest="auth_env", default=None)
    p.add_argument("--no-accumulate", action="store_true")
    p.add_argument("--config", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="compute the metric suite")
    p.add_argument("--workspace", required=True, help="translated workspace")
    p.add_argument("--skeleton", default=None, help="clean skeleton workspace for ICompRate")
    p.add_argument(
        "--tests", default=None,
        help="test command (quoted); FC is 0 when it exits non-zero with no failed test counted",
    )
    p.add_argument("--run-id", dest="run_id", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render a stored report")
    p.add_argument("--workspace", required=True)
    p.add_argument("--run-id", dest="run_id", required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except RustportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
