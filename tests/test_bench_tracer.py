"""The benchmark's tracer wraps toolkit names from outside the package.

Entering ``bench/tracing.instrument`` looks up every name it wraps, so a
rename or deletion in ``src/`` that the tracer still names fails here, in the
tier-1 suite, and not only in the benchmark's own tests. No workload runs.
"""

import importlib.util
import sys
from pathlib import Path

from rustport import buildctx, cargo, metrics, pipeline, repair, skeleton
from rustport.knowledge import KnowledgeBase
from rustport.workspace import Workspace

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_restores_every_name_it_wraps():
    tracing = load_tracing()
    owners = [
        buildctx, cargo.BuildRunner, metrics, pipeline, pipeline.RunArtifacts,
        pipeline.TranslationRun, repair, skeleton, KnowledgeBase, Workspace,
    ]
    before = [dict(vars(owner)) for owner in owners]
    with tracing.instrument(tracing.Tracer()):
        patched = {
            (owner.__name__, attr)
            for owner, saved in zip(owners, before)
            for attr, value in vars(owner).items()
            if saved.get(attr) is not value
        }
    assert {("rustport.pipeline", "repair_loop"), ("Workspace", "install_body")} <= patched
    assert [dict(vars(owner)) for owner in owners] == before
