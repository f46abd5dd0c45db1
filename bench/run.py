"""End-to-end migration benchmark: build trace -> verified skeleton ->
bottom-up translation -> evaluation, on seeded synthetic C projects.

    python3 bench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for the generators and BENCHMARK.json for why
each was chosen): ``chain``, ``wide_repair``, ``kb_accumulate``; ``all`` runs
each in turn. A run repeats whole iterations (fresh tree, setup, translate,
evaluate, correctness gate) as often as the first one says fit in
``--seconds`` (at least one) and reports the
median of every metric over its iterations; set-up is repeated until there
are at least five samples. ``--trace 0`` prints the end-to-end
metrics. ``--trace 1`` alternates untraced and traced iterations, prints the
per-layer metrics of the traced ones plus the tracing overhead (traced minus
untraced ``total_s``), and writes every span to ``.bench_out/``.

Tail latencies (``*.tail_ms``) are the highest of the 99.9/99/95/90/75/50th
percentiles that has at least ten samples beyond it, or the maximum when a
run has fewer than twenty samples.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every function
migrated and every run-level expectation (ICompRate, translated share, FC) is
one attempted operation; each mismatch against the workload's expected
outcome is a failed one.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chain", "wide_repair", "kb_accumulate")
MIN_SETUPS = 5

# (name, unit); the order is the column order of the printed table
END_TO_END = [
    ("setup_s", "s"),
    ("translate_s", "s"),
    ("evaluate_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("backend_calls", "count"),
    ("prompt_kchars", "kchar"),
    ("translated_pct", "%"),
    ("icomp_rate", "%"),
    ("avg_attempts", "count"),
    ("unsafe_ratio", "%"),
    ("warnings", "count"),
    ("match_pct", "%"),
]

# Each group names the end-to-end metric and workload it should move, so a
# later change can state its prediction against a named metric.
PER_LAYER = [
    # builds per layer (batching) -> translate_s, evaluate_s on wide_repair,
    # not on chain (one function per layer); cost per build (check vs build)
    # -> translate_s, evaluate_s on chain
    ("cargo.build.calls", "count"),
    ("cargo.build.s", "s"),
    ("cargo.build.p50_ms", "ms"),
    ("cargo.build.tail_ms", "ms"),
    ("cargo.build.ok_ratio", "ratio"),
    ("cargo.builds_per_fn", "count"),
    # -> evaluate_s on chain, the only workload with tests
    ("cargo.run_tests.s", "s"),
    # -> translate_s on kb_accumulate; no change elsewhere (no KB)
    ("knowledge.retrieve.calls", "count"),
    ("knowledge.retrieve.s", "s"),
    ("knowledge.retrieve.p50_ms", "ms"),
    ("knowledge.retrieve.tail_ms", "ms"),
    ("knowledge.docs_per_retrieve", "count"),
    ("knowledge.accumulate.calls", "count"),
    ("knowledge.accumulate.s", "s"),
    # -> setup_s on kb_accumulate: an index that makes reads cheaper by
    # making load or insert dearer shows here and in accumulate
    ("knowledge.load.s", "s"),
    # -> translate_s on wide_repair (rolls back) and on chain (commits only)
    ("workspace.install_body.calls", "count"),
    ("workspace.install_body.s", "s"),
    ("workspace.rollback_body.calls", "count"),
    ("workspace.rollback_body.s", "s"),
    ("workspace.commit_install.calls", "count"),
    ("workspace.commit_install.s", "s"),
    # -> avg_attempts, backend_calls and translate_s on wide_repair
    ("repair.repair_loop.self_s", "s"),
    ("repair.rounds", "count"),
    ("repair.rule_fix.attempts", "count"),
    ("repair.rule_fix.ok_ratio", "ratio"),
    ("repair.model_repair.calls", "count"),
    ("repair.fallbacks", "count"),
    # -> prompt_kchars and translate_s on kb_accumulate
    ("backends.generate.calls", "count"),
    ("backends.generate.s", "s"),
    ("translate.assemble_context.s", "s"),
    ("translate.build_prompt.s", "s"),
    ("translate.extract_body.s", "s"),
    ("translate.prompt_chars.p50", "chars"),
    ("translate.prompt_chars.max", "chars"),
    # -> setup_s on wide_repair (libc front end); small on chain
    ("buildctx.preprocess_unit.calls", "count"),
    ("buildctx.preprocess_unit.s", "s"),
    ("buildctx.preprocessed_lines", "lines"),
    ("csyms.extract_symbols.calls", "count"),
    ("csyms.extract_symbols.s", "s"),
    ("skeleton.plan_skeleton.s", "s"),
    ("skeleton.assemble_and_verify.s", "s"),
    ("skeleton.rust_bytes", "bytes"),
    ("graph.build.s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.layers", "count"),
    # -> evaluate_s on every workload
    ("metrics.incremental_comp_rate.s", "s"),
    ("metrics.unsafe_ratio.s", "s"),
    ("metrics.warning_count.s", "s"),
    ("metrics.functional_correctness.s", "s"),
    ("metrics.icomp_builds", "count"),
    # schedule-layer wall time and run artifacts -> translate_s
    ("pipeline.layer.p50_ms", "ms"),
    ("pipeline.layer.tail_ms", "ms"),
    ("pipeline.artifacts.s", "s"),
    # stage time no layer span covers, and the tracing itself
    ("setup.self_s", "s"),
    ("translate.self_s", "s"),
    ("evaluate.self_s", "s"),
    ("trace.self_coverage_pct", "%"),
    ("trace.total_s", "s"),
    ("trace.untraced_total_s", "s"),
    ("trace.overhead_s", "s"),
]


def tail(values: list[float]) -> float:
    """Highest standard percentile with at least ten samples beyond it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    for per_mille in (999, 990, 950, 900, 750, 500):
        rank = -(-per_mille * n // 1000)  # nearest-rank percentile
        if n - rank >= 10:
            return ordered[rank - 1]
    return ordered[-1]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(its, setups: list[float], attempted: int, failed: int) -> dict[str, float]:
    def med(fn):
        return _median(fn(it) for it in its)

    return {
        "setup_s": _median(setups),
        "translate_s": med(lambda it: it.translate_s),
        "evaluate_s": med(lambda it: it.evaluate_s),
        "total_s": med(lambda it: it.total_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend_calls": med(lambda it: len(it.prompt_chars)),
        "prompt_kchars": med(lambda it: sum(it.prompt_chars) / 1000.0),
        "translated_pct": med(lambda it: it.report["translated_pct"]),
        "icomp_rate": med(lambda it: it.report["icomp_rate"]),
        # the paper's AvgRepair counts rounds after the first attempt; plus
        # one it stays non-zero where every body compiles first time
        "avg_attempts": med(lambda it: (it.report["avg_repair"] or 0.0) + 1.0),
        "unsafe_ratio": med(lambda it: it.report["unsafe_ratio"]),
        "warnings": med(lambda it: it.report["warnings"] or 0),
        "match_pct": 100.0 * (attempted - failed) / attempted,
    }


def per_layer(it) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    tr = it.tracer
    selfs = tr.self_times()
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    for span, own in zip(tr.spans, selfs):
        durations[span.name].append(span.end - span.start)
        self_s[span.name] += own

    def calls(name):
        return len(durations[name])

    def secs(name):
        return sum(durations[name])

    def ms(name, stat):
        return 1000.0 * stat(durations[name]) if durations[name] else 0.0

    builds = [i for i, s in enumerate(tr.spans) if s.name == "cargo.build"]
    translate_builds = sum(1 for i in builds if tr.spans[tr.root_of(i)].name == "translate")
    icomp_builds = sum(1 for i in builds if tr.under(i, "metrics.incremental_comp_rate"))
    rule_fixes = [ok for attempts in it.fix_sources.values() for src, ok in attempts if src == "rule_fix"]
    ok_builds = tr.samples["cargo.build.ok"]
    stages = ("setup", "translate", "evaluate")
    m = {
        "cargo.build.calls": calls("cargo.build"),
        "cargo.build.s": secs("cargo.build"),
        "cargo.build.p50_ms": ms("cargo.build", _median),
        "cargo.build.tail_ms": ms("cargo.build", tail),
        "cargo.build.ok_ratio": sum(ok_builds) / len(ok_builds) if ok_builds else 0.0,
        "cargo.builds_per_fn": translate_builds / it.functions,
        "cargo.run_tests.s": secs("cargo.run_tests"),
        "knowledge.retrieve.calls": calls("knowledge.retrieve"),
        "knowledge.retrieve.s": secs("knowledge.retrieve"),
        "knowledge.retrieve.p50_ms": ms("knowledge.retrieve", _median),
        "knowledge.retrieve.tail_ms": ms("knowledge.retrieve", tail),
        "knowledge.docs_per_retrieve": _median(tr.samples["knowledge.docs_per_retrieve"]),
        "knowledge.accumulate.calls": calls("knowledge.accumulate"),
        "knowledge.accumulate.s": secs("knowledge.accumulate"),
        "knowledge.load.s": secs("knowledge.load"),
        "repair.repair_loop.self_s": self_s["repair.repair_loop"],
        "repair.rounds": sum(it.rounds.values()),
        "repair.rule_fix.attempts": len(rule_fixes),
        "repair.rule_fix.ok_ratio": sum(rule_fixes) / len(rule_fixes) if rule_fixes else 0.0,
        "repair.model_repair.calls": calls("repair.model_repair"),
        "repair.fallbacks": sum(1 for s in it.states.values() if s == "fallback"),
        "backends.generate.calls": calls("backends.generate"),
        "backends.generate.s": secs("backends.generate"),
        "translate.prompt_chars.p50": _median(it.prompt_chars),
        "translate.prompt_chars.max": max(it.prompt_chars, default=0),
        "buildctx.preprocess_unit.calls": calls("buildctx.preprocess_unit"),
        "buildctx.preprocess_unit.s": secs("buildctx.preprocess_unit"),
        "buildctx.preprocessed_lines": sum(tr.samples["buildctx.preprocessed_lines"]),
        "csyms.extract_symbols.calls": calls("csyms.extract_symbols"),
        "csyms.extract_symbols.s": secs("csyms.extract_symbols"),
        "skeleton.rust_bytes": it.rust_bytes,
        "graph.build.s": secs("graph.build"),
        "metrics.icomp_builds": icomp_builds,
        "pipeline.layer.p50_ms": ms("pipeline.layer", _median),
        "pipeline.layer.tail_ms": ms("pipeline.layer", tail),
        "pipeline.artifacts.s": secs("pipeline.artifacts"),
        "trace.total_s": it.total_s,
        "trace.self_coverage_pct": 100.0 * (1 - sum(self_s[s] for s in stages) / it.total_s),
    }
    for name in ("install_body", "rollback_body", "commit_install"):
        m[f"workspace.{name}.calls"] = calls(f"workspace.{name}")
        m[f"workspace.{name}.s"] = secs(f"workspace.{name}")
    for name in ("assemble_context", "build_prompt", "extract_body"):
        m[f"translate.{name}.s"] = secs(f"translate.{name}")
    for name in ("plan_skeleton", "assemble_and_verify"):
        m[f"skeleton.{name}.s"] = secs(f"skeleton.{name}")
    for name in ("incremental_comp_rate", "unsafe_ratio", "warning_count", "functional_correctness"):
        m[f"metrics.{name}.s"] = secs(f"metrics.{name}")
    for stat, value in it.graph_stats.items():
        m[f"graph.{stat}"] = value
    for stage in stages:
        m[f"{stage}.self_s"] = self_s[stage]
    return m


def _same_outcomes(a, b) -> bool:
    return (a.states, a.bodies, a.rounds, a.ledger) == (b.states, b.bodies, b.rounds, b.ledger)


def tool_versions() -> dict[str, str]:
    versions = {"python": f"Python {sys.version.split()[0]}"}
    for tool in ("cargo", "rustc", "gcc"):
        try:
            out = subprocess.run([tool, "--version"], capture_output=True, text=True, check=False)
            versions[tool] = out.stdout.splitlines()[0] if out.stdout else f"{tool} unavailable"
        except OSError:
            versions[tool] = f"{tool} unavailable"
    return versions


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """Run as many iterations as fit in ``seconds`` and summarise them."""
    import harness
    from tracing import Tracer, instrument

    plain, traced, setups = [], [], []
    counter = itertools.count()

    def fresh() -> Path:
        return tmp / f"it{next(counter)}"

    def run(tracer=None):
        work = fresh()
        try:
            return harness.run_iteration(workload, seed, work, tracer)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    # as many iterations as fit in ``seconds``, judged by the first one;
    # traced runs count an untraced and a traced iteration as one step
    planned = 1
    while len(plain) < planned:
        t0 = time.perf_counter()
        plain.append(run())
        setups.append(plain[-1].setup_s)
        print(f"{workload} iteration {len(plain)}: setup {plain[-1].setup_s:.3f} s, "
              f"translate {plain[-1].translate_s:.3f} s, evaluate {plain[-1].evaluate_s:.3f} s",
              file=sys.stderr)
        if trace:
            tracer = Tracer()
            with instrument(tracer):
                traced.append(run(tracer))
        if len(plain) == 1:
            # round down unless the last iteration would overrun by under
            # a quarter of one, so a run stays close to ``seconds``
            planned = max(1, math.floor(seconds / (time.perf_counter() - t0) + 0.25))
    while not trace and len(setups) < MIN_SETUPS:
        work = fresh()
        try:
            setups.append(harness.setup(workload, seed, work).seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    its = plain + traced
    attempted = sum(it.checks for it in its)
    mismatches = [m for it in its for m in it.mismatches]
    for t in traced:
        attempted += 1
        if not _same_outcomes(plain[0], t):
            mismatches.append("traced iteration diverged from the untraced one")
    result = {"attempted": attempted, "failed": len(mismatches), "mismatches": mismatches}
    if trace:
        layers = [per_layer(it) for it in traced]
        metrics = {name: _median(m[name] for m in layers) for name, _ in PER_LAYER if name in layers[0]}
        untraced_total = _median(it.total_s for it in plain)
        metrics["trace.untraced_total_s"] = untraced_total
        metrics["trace.overhead_s"] = metrics["trace.total_s"] - untraced_total
        result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in PER_LAYER}
        result["tracers"] = [it.tracer for it in traced]
    else:
        metrics = end_to_end(plain, setups, attempted, len(mismatches))
        result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}
    result["iterations"] = len(plain)
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_table(rows: list[tuple[str, dict]], spec: list[tuple[str, str]], by_row: bool) -> None:
    """One row per workload, or with ``by_row`` false one row per metric."""
    names = [f"{n} [{u}]" for n, u in spec]
    values = [[_fmt(m[n]["value"]) for n, _ in spec] for _, m in rows]
    if by_row:
        table = [["workload"] + names] + [[w] + v for (w, _), v in zip(rows, values)]
    else:
        table = [["metric"] + [w for w, _ in rows]]
        table += [[n] + [v[i] for v in values] for i, n in enumerate(names)]
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def write_spans(workload: str, seed: int, tracers, versions: dict) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i, tracer in enumerate(tracers):
            tracer.dump(fh, {"workload": workload, "seed": seed, "iteration": i, "tools": versions})
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rustport" / "__init__.py").is_file():
        print(f"error: the rustport sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    tmp_parent = ROOT / ".bench_tmp"
    tmp = tmp_parent / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # every workspace gets its own target directory inside the fresh tree;
    # compiler scratch files stay inside it too
    os.environ.pop("CARGO_TARGET_DIR", None)
    os.environ["TMPDIR"] = str(tmp)
    versions = tool_versions()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows, attempted, failed = [], 0, 0
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, bool(args.trace), tmp)
            for line in res["mismatches"][:20]:
                print(f"mismatch [{name}]: {line}", file=sys.stderr)
            if args.trace:
                path = write_spans(name, args.seed, res["tracers"], versions)
                print(f"spans written to {path.relative_to(ROOT)}")
            rows.append((name, res["metrics"]))
            attempted += res["attempted"]
            failed += res["failed"]
            print(f"{name}: {res['iterations']} iteration(s), {res['attempted']} operations, "
                  f"{res['failed']} mismatches", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print("tools: " + "; ".join(versions[k] for k in sorted(versions)))
    print_table(rows, PER_LAYER if args.trace else END_TO_END, by_row=not args.trace)
    if len(rows) == 1:
        metrics = rows[0][1]
    else:
        metrics = {f"{w}.{n}": v for w, m in rows for n, v in m.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
