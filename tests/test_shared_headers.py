"""The front end's shared-header path against its per-unit reference.

``preprocess_unit`` scans the preprocessor's output with a cheap path for
blank and code lines, and ``plan_skeleton`` lets the units of one build share
their header work through one ``SharedHeaders``. Here every unit a plan reads
must equal the unit a plain per-line scan of the same output gives, and every
symbol table it extracts must equal the one ``extract_symbols`` gives that
reference unit with no sharing. This holds on every fixture the golden
skeleton pins and on every benchmark workload.
"""

import re
import shutil
import subprocess

import pytest
from conftest import FIXTURES
from test_acceptance import FIXTURE_PROJECTS
from test_bench_workloads import workloads

from rustport import csyms, skeleton
from rustport.buildctx import (
    CompileCommand,
    PreprocessedUnit,
    PreprocessorConfig,
    TranslationUnitContext,
    dedupe_by_source,
    derive_unit_context,
    load_compile_commands,
    preprocess_unit,
    split_lines,
)
from rustport.csyms import extract_symbols

CPP = PreprocessorConfig()


def reference_unit(ctx: TranslationUnitContext) -> PreprocessedUnit:
    """The unit a per-line scan of the preprocessor's output gives, every
    line's origin counted up from the last line marker."""
    cmd = ctx.command
    argv = [*CPP.executable, *CPP.base_flags, "-dD", *ctx.flags, str(cmd.source_path())]
    out = subprocess.run(argv, cwd=cmd.directory, capture_output=True, check=True).stdout
    lines = split_lines(out.decode("utf-8"))
    line_map: dict[int, tuple[str, int]] = {}
    defines: list[tuple[str, str, str, int]] = []
    current_file, current_line = str(cmd.source_path()), 1
    for row, line in enumerate(lines, start=1):
        if line.startswith("#"):
            lines[row - 1] = ""
            m = re.match(r'#\s+(\d+)\s+"([^"]*)"', line)
            if m:
                current_line, current_file = int(m.group(1)), m.group(2)
                continue
            m = re.match(r"#define (\w+) (.+)$", line)
            if m and not current_file.startswith("<"):
                defines.append((m.group(1), m.group(2), current_file, current_line))
        elif line.strip():
            line_map[row] = (current_file, current_line)
        current_line += 1
    return PreprocessedUnit(ctx, "\n".join([*lines, ""]), line_map, defines)


def fixture_inputs(tmp_path, name):
    sources, extra_args = FIXTURE_PROJECTS[name]
    proj = tmp_path / name
    shutil.copytree(FIXTURES / name, proj)
    commands = [CompileCommand(str(proj), rel, ["cc", *extra_args, "-c", rel]) for rel in sources]
    return proj, commands, skeleton.SkeletonConfig()


def workload_inputs(tmp_path, name):
    wl = workloads.generate(name, 1, tmp_path)
    commands = dedupe_by_source(load_compile_commands(wl.trace))
    return wl.project, commands, skeleton.SkeletonConfig(crate_name=wl.crate)


def same_marker_inputs(tmp_path, name):
    # each unit runs the compiler in its own directory, where the line marker
    # "inc/cfg.h" names another header
    commands = []
    for d in ("a", "b"):
        (tmp_path / d / "inc").mkdir(parents=True)
        (tmp_path / d / "inc" / "cfg.h").write_text(f"#define LIMIT_{d.upper()} 1\n")
        (tmp_path / d / "u.c").write_text(f'#include "cfg.h"\nint f_{d}(void) {{ return 1; }}\n')
        commands.append(CompileCommand(str(tmp_path / d), "u.c", ["cc", "-Iinc", "-c", "u.c"]))
    return tmp_path, commands, skeleton.SkeletonConfig()


CASES = [(fixture_inputs, name) for name in sorted(FIXTURE_PROJECTS)] + [
    (workload_inputs, name) for name in sorted(workloads.GENERATORS)
] + [(same_marker_inputs, "same_marker")]


@pytest.mark.parametrize("inputs, name", CASES, ids=[name for _, name in CASES])
def test_planned_units_and_tables_equal_the_per_unit_reference(tmp_path, monkeypatch, inputs, name):
    root, commands, config = inputs(tmp_path, name)
    units = [preprocess_unit(derive_unit_context(c), CPP) for c in commands]
    planned = []

    def recording(unit, *args, **kwargs):
        table = extract_symbols(unit, *args, **kwargs)
        planned.append((unit, table))
        return table

    monkeypatch.setattr(skeleton, "extract_symbols", recording)
    skeleton.plan_skeleton(root, units, config)
    assert [unit for unit, _ in planned] == units
    for unit, table in planned:
        reference = reference_unit(unit.origin)
        assert unit == reference, unit.origin.command.source_file
        assert table == extract_symbols(reference, root), unit.origin.command.source_file


def test_one_plan_resolves_each_header_path_and_harvests_each_text_once(tmp_path, monkeypatch):
    # wide_repair's 16 units all include the same five libc headers
    root, commands, config = workload_inputs(tmp_path, "wide_repair")
    units = [preprocess_unit(derive_unit_context(c), CPP) for c in commands]
    calls = {"resolve": 0, "harvest": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(csyms, "_project_path", counted("resolve", csyms._project_path))
    monkeypatch.setattr(csyms, "_harvest_env_names", counted("harvest", csyms._harvest_env_names))
    skeleton.plan_skeleton(root, units, config)
    assert len(units) == 16
    assert calls == {"resolve": 75, "harvest": 1}
    # nothing outlives the plan: the next one does the work again
    skeleton.plan_skeleton(root, units, config)
    assert calls == {"resolve": 150, "harvest": 2}
