"""The benchmark's C inputs plan without holes.

Each workload in ``bench/workloads.py`` is generated at seed 1 and planned
under the strict hole policy, without cargo. A front-end change that turns a
construct the workloads use into a hole fails here, in the tier-1 suite, and
not only when the benchmark runs. ``bench/`` is read, never written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from rustport.buildctx import (
    PreprocessorConfig,
    dedupe_by_source,
    derive_unit_context,
    load_compile_commands,
    preprocess_unit,
)
from rustport.skeleton import SkeletonConfig, plan_skeleton

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_workload_plans_without_holes(tmp_path, name):
    wl = workloads.generate(name, 1, tmp_path)
    cpp = PreprocessorConfig()
    units = [
        preprocess_unit(derive_unit_context(c), cpp)
        for c in dedupe_by_source(load_compile_commands(wl.trace))
    ]
    plan = plan_skeleton(wl.project, units, SkeletonConfig(crate_name=wl.crate, strict_holes=True))
    assert plan.holes == []
    assert len(plan.stubs) == len(wl.expected)
