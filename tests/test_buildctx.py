import json
import random
import sys
from pathlib import Path

import pytest

from rustport.buildctx import (
    CompileCommand,
    PreprocessorConfig,
    dedupe_by_source,
    derive_unit_context,
    load_compile_commands,
    preprocess_unit,
)
from rustport.errors import BuildTraceError, MalformedRecordError, MissingSourceError, PreprocessError

CPP = PreprocessorConfig()


def write_trace(tmp_path: Path, entries) -> Path:
    trace = tmp_path / "compile_commands.json"
    trace.write_text(json.dumps(entries), encoding="utf-8")
    return trace


def test_empty_trace_gives_empty_list(tmp_path):
    trace = write_trace(tmp_path, [])
    assert load_compile_commands(trace) == []


def test_command_string_is_split_to_argv(tmp_path):
    (tmp_path / "a.c").write_text("int x;\n")
    trace = write_trace(
        tmp_path,
        [{"directory": str(tmp_path), "file": "a.c", "command": "cc -DLOSCFG_FOO -Iinc -c a.c"}],
    )
    [cmd] = load_compile_commands(trace)
    assert cmd.arguments == ["cc", "-DLOSCFG_FOO", "-Iinc", "-c", "a.c"]
    assert cmd.source_path() == tmp_path / "a.c"


def test_arguments_array_is_kept_verbatim(tmp_path):
    (tmp_path / "a.c").write_text("int x;\n")
    args = ["cc", "-O2", "-DX=1", "-c", "a.c"]
    trace = write_trace(tmp_path, [{"directory": str(tmp_path), "file": "a.c", "arguments": args}])
    [cmd] = load_compile_commands(trace)
    assert cmd.arguments == args


def test_entry_without_command_or_arguments_is_malformed(tmp_path):
    (tmp_path / "a.c").write_text("int x;\n")
    trace = write_trace(tmp_path, [{"directory": str(tmp_path), "file": "a.c"}])
    with pytest.raises(MalformedRecordError) as exc:
        load_compile_commands(trace)
    assert exc.value.index == 0
    assert "command" in exc.value.field


def test_missing_source_raises_unless_skipped(tmp_path):
    trace = write_trace(
        tmp_path, [{"directory": str(tmp_path), "file": "gone.c", "command": "cc -c gone.c"}]
    )
    with pytest.raises(MissingSourceError):
        load_compile_commands(trace)
    assert load_compile_commands(trace, skip_missing_sources=True) == []


def test_missing_trace_file(tmp_path):
    with pytest.raises(BuildTraceError):
        load_compile_commands(tmp_path / "nope.json")


def test_derive_no_flags():
    cmd = CompileCommand(directory="/p", source_file="a.c", arguments=["cc", "-c", "a.c"])
    ctx = derive_unit_context(cmd)
    assert ctx.flags == []


def test_derive_defines_and_includes(tmp_path):
    # kept as recorded; the preprocessor reads -DX=3 as X -> 3 and -DY as Y -> 1
    cmd = CompileCommand(
        directory="/p", source_file="a.c", arguments=["cc", "-DX=3", "-DY", "-Iinc", "a.c"]
    )
    ctx = derive_unit_context(cmd)
    assert ctx.flags == ["-DX=3", "-DY", "-Iinc"]
    (tmp_path / "inc").mkdir()
    (tmp_path / "inc" / "h.h").write_text("int from_inc;\n")
    unit = unit_for(tmp_path, '#include "h.h"\nint x = X, y = Y;\n', ctx.flags)
    assert "int from_inc;" in unit.text
    assert "int x = 3, y = 1;" in unit.text


def test_derive_split_include_form():
    cmd = CompileCommand(directory="/p", source_file="a.c", arguments=["cc", "-I", "inc2", "a.c"])
    ctx = derive_unit_context(cmd)
    assert ctx.flags == ["-I", "inc2"]


def test_derive_isystem_and_std():
    cmd = CompileCommand(
        directory="/p",
        source_file="a.c",
        arguments=["cc", "-isystem", "sysinc", "-std=c11", "a.c"],
    )
    ctx = derive_unit_context(cmd)
    assert ctx.flags == ["-isystem", "sysinc", "-std=c11"]


def test_undef_cancels_earlier_define(tmp_path):
    cmd = CompileCommand(
        directory="/p", source_file="a.c", arguments=["cc", "-DFOO=1", "-UFOO", "-DBAR", "a.c"]
    )
    ctx = derive_unit_context(cmd)
    assert ctx.flags == ["-DFOO=1", "-UFOO", "-DBAR"]
    # the preprocessor applies -D and -U in their recorded order
    source = "#ifdef X\nint x_defined;\n#endif\n"
    assert "x_defined" not in unit_for(tmp_path, source, ["-DX", "-UX"]).text
    assert "x_defined" in unit_for(tmp_path, source, ["-UX", "-DX"]).text
    assert "x_defined" not in unit_for(tmp_path, source, ["-D", "X", "-U", "X"]).text


def test_response_file_expansion(tmp_path):
    (tmp_path / "flags.rsp").write_text("-DFROM_RSP=7 -Irspinc\n")
    cmd = CompileCommand(
        directory=str(tmp_path), source_file="a.c", arguments=["cc", "@flags.rsp", "a.c"]
    )
    ctx = derive_unit_context(cmd)
    assert ctx.flags == ["-DFROM_RSP=7", "-Irspinc"]


def test_unknown_flags_never_fail():
    cmd = CompileCommand(
        directory="/p",
        source_file="a.c",
        arguments=["cc", "--weird-flag=zzz", "-fno-such-thing", "a.c"],
    )
    ctx = derive_unit_context(cmd)
    assert ctx.flags == []


def test_argv_normalization_idempotent(tmp_path):
    (tmp_path / "a.c").write_text("int x;\n")
    trace = write_trace(
        tmp_path, [{"directory": str(tmp_path), "file": "a.c", "command": "cc -DZ -c a.c"}]
    )
    [cmd] = load_compile_commands(trace)
    trace2 = write_trace(
        tmp_path, [{"directory": cmd.directory, "file": cmd.source_file, "arguments": cmd.arguments}]
    )
    [cmd2] = load_compile_commands(trace2)
    assert cmd2.arguments == cmd.arguments
    assert derive_unit_context(cmd2) == derive_unit_context(cmd)


def unit_for(tmp_path: Path, source: str, extra_args=()) -> "PreprocessedUnit":
    src = tmp_path / "u.c"
    src.write_text(source)
    cmd = CompileCommand(
        directory=str(tmp_path),
        source_file="u.c",
        arguments=["cc", *extra_args, "-c", "u.c"],
    )
    return preprocess_unit(derive_unit_context(cmd), CPP)


def test_preprocess_macro_expansion(tmp_path):
    unit = unit_for(tmp_path, "#define N 4\nint a[N];\n")
    assert "int a[4];" in unit.text


def test_preprocess_active_ifdef_branch(tmp_path):
    source = "#ifdef LOSCFG_FOO\nint guarded_decl;\n#endif\nint always;\n"
    with_def = unit_for(tmp_path, source, extra_args=["-DLOSCFG_FOO"])
    assert "guarded_decl" in with_def.text
    without = unit_for(tmp_path, source)
    assert "guarded_decl" not in without.text
    assert "always" in without.text


def test_branch_fidelity_property(tmp_path):
    # property: guarded text present iff the guard macro is defined
    rng = random.Random(1234)
    for trial in range(20):
        guard = "G_" + "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(8))
        source = f"#ifdef {guard}\nint guarded_{trial};\n#endif\n"
        enable = rng.random() < 0.5
        args = [f"-D{guard}"] if enable else []
        unit = unit_for(tmp_path, source, extra_args=args)
        assert (f"guarded_{trial}" in unit.text) == enable


def test_line_map_totality_and_origins(tmp_path):
    src = tmp_path / "u.c"
    src.write_text("int first;\nint second;\n")
    cmd = CompileCommand(
        directory=str(tmp_path), source_file="u.c", arguments=["cc", "-c", "u.c"]
    )
    unit = preprocess_unit(derive_unit_context(cmd), CPP)
    lines = unit.text.splitlines()
    for no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("#") or not stripped:
            continue
        assert no in unit.line_map
    declared = {
        unit.line_map[no] for no, line in enumerate(lines, start=1) if "int first" in line
    }
    assert (str(src), 1) in declared


def test_preprocess_failure_captures_diagnostics(tmp_path):
    src = tmp_path / "u.c"
    src.write_text('#include "no_such_header.h"\n')
    cmd = CompileCommand(directory=str(tmp_path), source_file="u.c", arguments=["cc", "-c", "u.c"])
    with pytest.raises(PreprocessError) as exc:
        preprocess_unit(derive_unit_context(cmd), CPP)
    assert "no_such_header" in exc.value.diagnostics


def test_dedupe_keeps_first_variant(tmp_path):
    (tmp_path / "a.c").write_text("int x;\n")
    c1 = CompileCommand(str(tmp_path), "a.c", ["cc", "-DV1", "-c", "a.c"])
    c2 = CompileCommand(str(tmp_path), "a.c", ["cc", "-DV2", "-c", "a.c"])
    kept = dedupe_by_source([c1, c2])
    assert kept == [c1]


def test_response_file_named_twice_is_not_a_cycle(tmp_path):
    (tmp_path / "flags.rsp").write_text("-DTWICE\n")
    cmd = CompileCommand(
        directory=str(tmp_path),
        source_file="a.c",
        arguments=["cc", "@flags.rsp", "@flags.rsp", "a.c"],
    )
    assert derive_unit_context(cmd).flags == ["-DTWICE", "-DTWICE"]


def test_response_file_cycle_is_a_trace_error(tmp_path):
    (tmp_path / "outer.rsp").write_text("-DA @inner.rsp\n")
    (tmp_path / "inner.rsp").write_text("-DB @outer.rsp\n")
    cmd = CompileCommand(
        directory=str(tmp_path), source_file="a.c", arguments=["cc", "@outer.rsp", "a.c"]
    )
    with pytest.raises(BuildTraceError, match="outer.rsp"):
        derive_unit_context(cmd)


def test_preprocessor_gets_recorded_flags_in_order(tmp_path):
    # a stub preprocessor that records its argv and emits nothing
    log = tmp_path / "argv.json"
    stub = tmp_path / "cpp_stub.py"
    stub.write_text(
        "import json, sys\n"
        f"open({str(log)!r}, 'w').write(json.dumps(sys.argv[1:]))\n"
    )
    (tmp_path / "u.c").write_text("int x;\n")
    recorded = [
        "cc", "-O2", "-isystem", "sys", "-Wall", "-DA=1", "-MD", "-MF", "x.d",
        "-Iinc", "-UA", "-include", "pre.h", "-c", "-std=gnu99", "-o", "x.o",
        "-I", "inc2", "-D", "B", "u.c",
    ]
    cmd = CompileCommand(directory=str(tmp_path), source_file="u.c", arguments=recorded)
    toolchain = PreprocessorConfig(executable=[sys.executable, str(stub)], base_flags=["-P"])
    unit = preprocess_unit(derive_unit_context(cmd), toolchain)
    assert unit.text == ""
    # -dD is always passed, so the output carries the macros in force
    assert json.loads(log.read_text()) == [
        "-P", "-dD", "-isystem", "sys", "-DA=1", "-Iinc", "-UA", "-include", "pre.h",
        "-std=gnu99", "-I", "inc2", "-D", "B", str(tmp_path / "u.c"),
    ]


def test_isystem_dir_is_searched_after_include_dirs(tmp_path):
    # gcc searches -I directories before -isystem ones, whatever their order
    for d, which in (("A", 1), ("B", 2)):
        (tmp_path / d).mkdir()
        (tmp_path / d / "x.h").write_text(f"#define WHICH {which}\n")
    unit = unit_for(tmp_path, '#include "x.h"\nint w = WHICH;\n', ["-isystem", "A", "-IB"])
    assert "int w = 2;" in unit.text



@pytest.mark.parametrize(
    "flags",
    [["-iquote", "inc"], ["-idirafter", "inc"], ["-isysteminc"], ["-iquoteinc"], ["-idirafterinc"]],
    ids=" ".join,
)
def test_include_dir_flag_reaches_the_preprocessor(tmp_path, flags):
    (tmp_path / "inc").mkdir()
    (tmp_path / "inc" / "q.h").write_text("int from_q;\n")
    unit = unit_for(tmp_path, '#include "q.h"\n', flags)
    assert "int from_q;" in unit.text


def test_defines_are_the_ones_in_force_where_they_stood(tmp_path):
    (tmp_path / "cfg.h").write_text(
        "#ifdef BIG\n#define N 64\n#else\n#define N 8 /* eight */\n#endif\n"
        "#define SUM (1 + \\\n  2)\n#define TWICE(x) ((x) * 2)\n#define GUARD\n"
    )
    unit = unit_for(tmp_path, '#include "cfg.h"\n#define LOCAL 3\nint v = N;\n')
    project = [d for d in unit.defines if d[2].startswith(str(tmp_path))]
    header, main = str(tmp_path / "cfg.h"), str(tmp_path / "u.c")
    assert project == [
        ("N", "8", header, 4), ("SUM", "(1 + 2)", header, 6), ("LOCAL", "3", main, 2),
    ]
    # directive and blank lines map to no source line
    assert [unit.line_map[no] for no in sorted(unit.line_map)] == [(main, 3)]
