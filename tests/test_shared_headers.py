"""The front end's one scan and its shared-header path against references.

``extract_symbols`` reads the preprocessor's output in one pass with a cheap
path for blank and code lines, and ``plan_skeleton`` lets the units of one
build share their header work through one ``SharedHeaders``. Here every unit
a plan reads must hold the preprocessor's output as printed; every token the
scan hands the parser must sit at the origin a plain per-line scan of that
output gives its row, and every constant must be a literal definition that
scan finds in a project file, at its header and line; and every symbol table
must equal the one ``extract_symbols`` gives the unit with no sharing. This
holds on every fixture the golden skeleton pins and on every benchmark
workload.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest
from conftest import FIXTURES
from test_acceptance import FIXTURE_PROJECTS
from test_bench_workloads import workloads

from rustport import csyms, skeleton
from rustport.buildctx import (
    CompileCommand,
    PreprocessorConfig,
    TranslationUnitContext,
    dedupe_by_source,
    derive_unit_context,
    load_compile_commands,
    preprocess_unit,
)
from rustport.csyms import extract_symbols, read_literal, split_lines

CPP = PreprocessorConfig()


def reference_scan(ctx: TranslationUnitContext):
    """The preprocessor's output, each code row's (file, line) and each
    object-like definition as (name, replacement, file, line), from a per-line
    scan that counts every line's origin up from the last line marker."""
    cmd = ctx.command
    argv = [*CPP.executable, *CPP.base_flags, "-dD", *ctx.flags, str(cmd.source_path())]
    out = subprocess.run(argv, cwd=cmd.directory, capture_output=True, check=True).stdout
    text = out.decode("utf-8")
    origins: dict[int, tuple[str, int]] = {}
    defines: list[tuple[str, str, str, int]] = []
    current_file, current_line = str(cmd.source_path()), 1
    for row, line in enumerate(split_lines(text), start=1):
        if line.startswith("#"):
            m = re.match(r'#\s+(\d+)\s+"([^"]*)"', line)
            if m:
                current_line, current_file = int(m.group(1)), m.group(2)
                continue
            m = re.match(r"#define (\w+) (.+)$", line)
            if m and not current_file.startswith("<"):
                defines.append((m.group(1), m.group(2), current_file, current_line))
        elif line.strip():
            origins[row] = (current_file, current_line)
        current_line += 1
    return text, origins, defines


def reference_constants(ctx: TranslationUnitContext, root: Path, defines):
    """The literal definitions among ``defines`` that lie in project files, as
    ``SymbolTable.constants`` lists them."""
    main = str(ctx.command.source_path())
    constants = []
    for name, replacement, file, line in defines:
        header = csyms._project_path(file, root.resolve(), Path(ctx.command.directory))
        value = read_literal(replacement)
        if header is not None and value is not None and not isinstance(value, float):
            constants.append((None if file == main else header, line, name, value))
    return constants


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


def declared_twice_inputs(tmp_path, name):
    # the header declares one function twice, and the unit then defines it
    (tmp_path / "api.h").write_text("int twice(int v);\nint after(void);\nint twice(int);\n")
    (tmp_path / "u.c").write_text(
        '#include "api.h"\nint twice(int v) { return after() + v; }\nint after(void);\n'
    )
    commands = [CompileCommand(str(tmp_path), "u.c", ["cc", "-c", "u.c"])]
    return tmp_path, commands, skeleton.SkeletonConfig()


CASES = [(fixture_inputs, name) for name in sorted(FIXTURE_PROJECTS)] + [
    (workload_inputs, name) for name in sorted(workloads.GENERATORS)
] + [(same_marker_inputs, "same_marker"), (declared_twice_inputs, "declared_twice")]


@pytest.mark.parametrize("inputs, name", CASES, ids=[name for _, name in CASES])
def test_planned_units_and_tables_equal_the_per_unit_reference(tmp_path, monkeypatch, inputs, name):
    root, commands, config = inputs(tmp_path, name)
    units = [preprocess_unit(derive_unit_context(c), CPP) for c in commands]
    planned = []

    class Recording(csyms._Parser):
        def __init__(self, toks, *args):
            planned[-1].append(toks)
            super().__init__(toks, *args)

    def recording(unit, *args, **kwargs):
        planned.append([unit])
        table = extract_symbols(unit, *args, **kwargs)
        planned[-1].append(table)
        return table

    monkeypatch.setattr(csyms, "_Parser", Recording)
    monkeypatch.setattr(skeleton, "extract_symbols", recording)
    skeleton.plan_skeleton(root, units, config)
    monkeypatch.undo()
    assert [unit for unit, _, _ in planned] == units
    for unit, toks, table in planned:
        ctx = unit.origin
        where = ctx.command.source_file
        text, origins, defines = reference_scan(ctx)
        assert unit.text == text, where
        project_rows = {
            row for row, (file, _) in origins.items()
            if csyms._project_path(file, root.resolve(), Path(ctx.command.directory))
        }
        assert {t.row for t in toks} == project_rows, where
        assert all((t.file, t.line) == origins[t.row] for t in toks), where
        locs = {f"{file}:{line}" for file, line in origins.values()}
        declared = [*table.types, *table.functions, *table.globals]
        assert all(d.source_loc in locs for d in declared), where
        assert table.constants == reference_constants(ctx, root, defines), where
        assert table == extract_symbols(unit, root), where


class ListScanParser(csyms._Parser):
    """The function table kept as a bare list: every prototype scans it for
    its name, and every definition rebuilds it without that name."""

    def add_function(self, fn):
        if fn.defined_here:
            self.table.functions = [f for f in self.table.functions if f.name != fn.name]
            self.table.functions.append(fn)
        elif not any(f.name == fn.name for f in self.table.functions):
            self.table.functions.append(fn)


@pytest.mark.parametrize("inputs, name", CASES, ids=[name for _, name in CASES])
def test_function_table_equals_the_list_scan_reference(tmp_path, monkeypatch, inputs, name):
    root, commands, _ = inputs(tmp_path, name)
    units = [preprocess_unit(derive_unit_context(c), CPP) for c in commands]
    tables = [extract_symbols(unit, root) for unit in units]
    monkeypatch.setattr(csyms, "_Parser", ListScanParser)
    assert tables == [extract_symbols(unit, root) for unit in units]
    if name == "declared_twice":
        [table] = tables
        assert [(f.name, f.defined_here) for f in table.functions] == [
            ("after", False), ("twice", True),
        ]


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
