"""The planned skeleton of every bundled fixture, pinned byte for byte.

For each fixture in ``FIXTURE_PROJECTS`` the test preprocesses its sources
under the fixture's flags, plans the skeleton, and compares every module's
``render_module`` text and the planned constants with
``fixtures/skeleton_golden.json``. A change that claims to keep the skeleton
byte-identical is checked here.

Regenerate the golden file only for an intended output change, from the
repository root::

    PYTHONPATH=src:tests python tests/test_skeleton_golden.py
"""

import json
import shutil
import sys
from pathlib import Path

from conftest import FIXTURES
from test_acceptance import FIXTURE_PROJECTS

from rustport.buildctx import CompileCommand, PreprocessorConfig, derive_unit_context, preprocess_unit
from rustport.skeleton import SHARED_MODULE, plan_skeleton, render_module

GOLDEN = FIXTURES / "skeleton_golden.json"


def planned_fixture(tmp_path: Path, name: str) -> dict:
    """The fixture's rendered modules and planned constants, as JSON values."""
    sources, extra_args = FIXTURE_PROJECTS[name]
    proj = tmp_path / name
    shutil.copytree(FIXTURES / name, proj)
    units = [
        preprocess_unit(
            derive_unit_context(
                CompileCommand(str(proj), rel, ["cc", *extra_args, "-c", rel])
            ),
            PreprocessorConfig(),
        )
        for rel in sources
    ]
    project = plan_skeleton(proj, units)
    modules = sorted(set(project.tree.mapping.values()) | {SHARED_MODULE})
    return {
        "modules": {m: render_module(project, m) for m in modules},
        "constants": [[c.name, c.emitted_text, c.module] for c in project.constants],
    }


def test_planned_skeletons_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(FIXTURE_PROJECTS)
    for name in sorted(FIXTURE_PROJECTS):
        assert planned_fixture(tmp_path, name) == golden[name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: planned_fixture(Path(tmp), name) for name in sorted(FIXTURE_PROJECTS)}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
