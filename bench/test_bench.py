"""The benchmark's own tests: seeded inputs are reproducible, tracing does
not change what the toolkit does, and BENCHMARK.json names exactly the
metrics the benchmark prints.

    python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import workloads
from tracing import Tracer, instrument

BENCH_DIR = Path(__file__).resolve().parent


def _digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    dest = tmp_path / "inputs"
    workloads.generate(name, 7, dest)
    digest = _digest(dest)
    shutil.rmtree(dest)
    workloads.generate(name, 7, dest)
    assert _digest(dest) == digest
    shutil.rmtree(dest)
    workloads.generate(name, 8, dest)
    assert _digest(dest) != digest


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_outcome_mix_does_not_depend_on_the_seed(name, tmp_path):
    def mix(seed):
        wl = workloads.generate(name, seed, tmp_path / str(seed))
        states = sorted((e.state, e.rounds) for e in wl.expected.values())
        return states, wl.expected_icomp, wl.expected_translated_pct

    assert mix(1) == mix(2)


@pytest.mark.parametrize("name", ["wide_repair", "kb_accumulate"])
def test_traced_run_matches_untraced_run(name, tmp_path, monkeypatch):
    monkeypatch.delenv("CARGO_TARGET_DIR", raising=False)
    plain = harness.run_iteration(name, 3, tmp_path / "plain")
    tracer = Tracer()
    with instrument(tracer):
        traced = harness.run_iteration(name, 3, tmp_path / "traced", tracer)
    assert plain.mismatches == [] and traced.mismatches == []
    assert traced.bodies == plain.bodies
    assert traced.states == plain.states
    assert traced.rounds == plain.rounds
    assert traced.ledger == plain.ledger
    assert traced.report == plain.report
    # instrumentation is removed again on exit
    assert harness.pipeline.repair_loop.__name__ == "repair_loop"
    assert not hasattr(harness.BuildRunner.build, "__wrapped__")

    layers = run.per_layer(traced)
    assert set(layers) | {"trace.untraced_total_s", "trace.overhead_s"} == {n for n, _ in run.PER_LAYER}
    assert layers["trace.self_coverage_pct"] >= 90.0
    assert layers["cargo.build.calls"] > 0 and layers["backends.generate.calls"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.begin("outer")
    with tracer.span("child"):
        pass
    with tracer.span("child"):
        pass
    tracer.end(outer)
    spans = tracer.spans
    selfs = tracer.self_times()
    children = sum(s.end - s.start for s in spans[1:])
    assert selfs[0] == pytest.approx(spans[0].end - spans[0].start - children)
    assert [s.parent for s in spans] == [None, 0, 0]


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(1, 11))) == 10  # fewer than twenty: the maximum
    assert run.tail(list(range(1, 21))) == 10  # p50
    assert run.tail(list(range(1, 101))) == 90  # p90
    assert run.tail(list(range(1, 1001))) == 990  # p99


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
