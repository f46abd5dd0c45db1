from pathlib import Path

import pytest

from rustport.buildctx import CompileCommand, PreprocessorConfig, derive_unit_context, preprocess_unit
from rustport.csyms import CFuncSig, CType, extract_symbols, read_literal

CPP = PreprocessorConfig()


def extract(tmp_path: Path, source: str, extra_args=(), name="u.c"):
    src = tmp_path / name
    src.write_text(source)
    cmd = CompileCommand(
        directory=str(tmp_path), source_file=name, arguments=["cc", *extra_args, "-c", name]
    )
    unit = preprocess_unit(derive_unit_context(cmd), CPP)
    return extract_symbols(unit, project_root=tmp_path), unit


def test_struct_members_in_order(tmp_path):
    table, _ = extract(tmp_path, "struct P { int x; int y; };\n")
    [t] = table.types
    assert t.kind == "record"
    assert t.name == "P"
    assert [(m[0], m[1]) for m in t.members] == [("x", CType("int")), ("y", CType("int"))]


def test_function_definition_and_extern_global(tmp_path):
    table, _ = extract(tmp_path, "int add(int a, int b) { return a + b; }\nextern int g;\n")
    [fn] = table.functions
    assert fn.name == "add" and fn.defined_here
    assert fn.params == [("a", CType("int")), ("b", CType("int"))]
    [g] = table.globals
    assert g.name == "g" and g.storage == "external" and not g.is_definition


def test_external_call_lands_in_external_refs(tmp_path):
    src = "void release(void *buf) { HdfSbufRecycle(buf); }\n"
    table, _ = extract(tmp_path, src)
    # reference resolution by set subtraction: called but not defined here
    assert "HdfSbufRecycle" in table.external_refs
    [fn] = table.functions
    assert "HdfSbufRecycle" in fn.calls


def test_static_function_is_internal(tmp_path):
    table, _ = extract(tmp_path, "static void helper(void) { }\n")
    [fn] = table.functions
    assert fn.storage == "internal"
    assert fn.params == []


def test_union_and_enum(tmp_path):
    table, _ = extract(
        tmp_path,
        "union V { int i; float f; };\nenum Mode { M_OFF, M_ON = 5, M_AUTO };\n",
    )
    union = next(t for t in table.types if t.kind == "union")
    assert [(m[0], m[1]) for m in union.members] == [("i", CType("int")), ("f", CType("float"))]
    enum = next(t for t in table.types if t.kind == "enumeration")
    assert enum.enumerators == [("M_OFF", 0), ("M_ON", 5), ("M_AUTO", 6)]
    assert enum.members == []


def test_typedef_alias(tmp_path):
    table, _ = extract(tmp_path, "typedef unsigned int u32_t;\nu32_t v;\n")
    alias = next(t for t in table.types if t.kind == "alias")
    assert alias.name == "u32_t"
    assert alias.members[0][1] == CType("unsigned int")
    [g] = table.globals
    assert g.c_type == CType("u32_t")


def test_typedef_struct_without_tag(tmp_path):
    table, _ = extract(tmp_path, "typedef struct { int a; } Box;\nBox make(void);\n")
    record = next(t for t in table.types if t.kind == "record")
    alias = next(t for t in table.types if t.kind == "alias")
    assert alias.name == "Box"
    assert alias.members[0][1] == CType(f"struct {record.name}")
    [fn] = table.functions
    assert fn.return_type == CType("Box")


def test_pointers_arrays_and_function_pointers(tmp_path):
    src = (
        "struct Node { int value; struct Node *next; };\n"
        "char buf[16];\n"
        "int (*callback)(int, char *);\n"
        "const char *name(void);\n"
    )
    table, _ = extract(tmp_path, src)
    node = next(t for t in table.types if t.name == "Node")
    assert node.members[1] == ("next", CType("struct Node", 1), None)
    buf = next(g for g in table.globals if g.name == "buf")
    assert buf.c_type == CType("char", array_dims=[16])
    cb = next(g for g in table.globals if g.name == "callback")
    assert cb.c_type == CType("<fn>", 1, func=CFuncSig([CType("int"), CType("char", 1)], CType("int")))
    fn = next(f for f in table.functions if f.name == "name")
    assert fn.return_type == CType("char", 1, const=True)


def test_function_pointer_type_parses_to_a_ctype(tmp_path):
    table, _ = extract(tmp_path, "int (*cb)(int, char *);\n")
    [g] = table.globals
    ct = g.c_type
    assert ct.func is not None
    assert (ct.base, ct.pointer_depth, ct.array_dims) == ("<fn>", 1, [])
    assert ct.func.ret == CType("int")
    assert ct.func.params == [CType("int"), CType("char", 1)]
    assert not ct.func.variadic


def test_variadic_function_pointers_keep_the_flag(tmp_path):
    src = (
        "struct logger { int (*log)(const char *fmt, ...); };\n"
        "void run(int (*sink)(const char *, ...), void emit(const char *, ...));\n"
    )
    table, _ = extract(tmp_path, src)
    fmt = CType("char", 1, const=True)
    variadic = CType("<fn>", 1, func=CFuncSig([fmt], CType("int"), variadic=True))
    [logger] = table.types
    assert logger.members == [("log", variadic, None)]
    [run] = table.functions
    assert run.params == [
        ("sink", variadic),
        ("emit", CType("<fn>", 1, func=CFuncSig([fmt], CType("void"), variadic=True))),
    ]


def test_bitfields_flag_layout_sensitive(tmp_path):
    table, _ = extract(tmp_path, "struct Flags { unsigned int a : 3; unsigned int b : 5; };\n")
    [t] = table.types
    assert t.layout_sensitive
    assert t.members[0] == ("a", CType("unsigned int"), 3)
    assert t.members[1] == ("b", CType("unsigned int"), 5)


def test_variadic_function(tmp_path):
    table, _ = extract(tmp_path, "int report(const char *fmt, ...);\n")
    [fn] = table.functions
    assert fn.variadic
    assert fn.params == [("fmt", CType("char", 1, const=True))]


def test_global_initializer_kept_verbatim(tmp_path):
    table, _ = extract(tmp_path, 'const char *NAME = "hdf";\nconst int LIMIT = 9;\nint counter = 0;\n')
    name = next(g for g in table.globals if g.name == "NAME")
    assert name.initializer_text == '"hdf"'
    assert name.mutable  # the pointer object itself is assignable in C
    limit = next(g for g in table.globals if g.name == "LIMIT")
    assert not limit.mutable
    counter = next(g for g in table.globals if g.name == "counter")
    assert counter.initializer_text == "0"
    assert counter.mutable


def test_locals_do_not_leak_into_refs(tmp_path):
    src = (
        "int use_locals(int seed) {\n"
        "    int local_a = seed;\n"
        "    struct Missing *p = 0;\n"
        "    for (int i = 0; i < local_a; i++) { local_a += i; }\n"
        "    return local_a;\n"
        "}\n"
    )
    table, _ = extract(tmp_path, src)
    [fn] = table.functions
    assert "local_a" not in fn.value_refs
    assert "i" not in fn.value_refs
    assert "seed" not in fn.value_refs


def test_call_names_contained_in_defined_or_external(tmp_path):
    src = (
        "int helper(int v) { return v + 1; }\n"
        "int top(int v) { return helper(v) + mystery(v); }\n"
    )
    table, _ = extract(tmp_path, src)
    defined = {f.name for f in table.functions}
    top = next(f for f in table.functions if f.name == "top")
    for callee in top.calls:
        assert callee in defined or callee in table.external_refs
    assert "mystery" in table.external_refs
    assert "helper" not in table.external_refs


def test_determinism(tmp_path):
    src = "struct A { int x; };\nint f(struct A *a) { return a->x; }\nint g_v = 2;\n"
    t1, _ = extract(tmp_path, src)
    t2, _ = extract(tmp_path, src)
    assert t1.types == t2.types
    assert t1.functions == t2.functions
    assert t1.globals == t2.globals
    assert t1.external_refs == t2.external_refs


def test_partial_failure_isolation(tmp_path):
    clean = "struct A { int x; };\nint f(void) { return 1; }\n"
    broken = clean + "int bad_decl[;\n"
    t_clean, _ = extract(tmp_path, clean)
    t_broken, _ = extract(tmp_path, broken, name="u2.c")
    assert t_broken.partial
    assert not t_clean.partial
    assert [t.name for t in t_broken.types] == [t.name for t in t_clean.types]
    assert [f.name for f in t_broken.functions] == [f.name for f in t_clean.functions]


def test_system_headers_not_emitted(tmp_path):
    src = "#include <stddef.h>\nsize_t measure(void) { return 0; }\n"
    table, _ = extract(tmp_path, src)
    assert [f.name for f in table.functions] == ["measure"]
    assert all(not t.name.startswith("__") for t in table.types)


def test_defined_functions_never_in_external_refs(tmp_path):
    src = "int a(void) { return b(); }\nint b(void) { return a(); }\n"
    table, _ = extract(tmp_path, src)
    assert table.external_refs == set()


def test_member_type_reference_goes_external(tmp_path):
    src = "struct Uses { struct Elsewhere *other; int n; };\n"
    table, _ = extract(tmp_path, src)
    assert "Elsewhere" in table.external_refs


def test_source_text_sliced_from_original(tmp_path):
    src = "#define K 3\nint scaled(int v) {\n    return v * K;\n}\n"
    table, _ = extract(tmp_path, src)
    [fn] = table.functions
    # original text (macro name visible), not the preprocessed expansion
    assert "v * K" in fn.source_text
    assert fn.source_text.startswith("int scaled")
    # the same read of the main file gives its macro constants
    assert table.macro_constants == [("K", 3)]


def test_source_text_skips_brace_in_char_literal(tmp_path):
    src = "int close_brace(void)\n{\n    char c = '}';\n    return c + 1;\n}\n"
    table, _ = extract(tmp_path, src)
    [fn] = table.functions
    assert fn.source_text == src.rstrip("\n")


def test_source_text_of_a_macro_defined_function_is_its_call(tmp_path):
    src = (
        "#define GETTER(n) int get_##n(void) { return 7; }\n"
        "GETTER(seven)\n"
        "int h(int x)\n"
        "{\n"
        "    return x + 1;\n"
        "}\n"
    )
    table, _ = extract(tmp_path, src)
    texts = {fn.name: fn.source_text for fn in table.functions}
    assert texts == {"get_seven": "GETTER(seven)", "h": "int h(int x)\n{\n    return x + 1;\n}"}


def test_source_text_keeps_conditional_braces_and_directives(tmp_path):
    # each #ifdef branch opens a brace, so the raw text never balances
    src = (
        "int pick(int a, int b)\n"
        "{\n"
        "#ifdef W\n"
        "    if (a > b) {\n"
        "#else\n"
        "    if (a < b) {\n"
        "#endif\n"
        "        return a;\n"
        "    }\n"
        "    return b;\n"
        "}\n"
    )
    table, _ = extract(tmp_path, src)
    [fn] = table.functions
    assert fn.source_text == src.rstrip("\n")


def test_source_text_of_a_header_function_is_preprocessed(tmp_path):
    (tmp_path / "twice.h").write_text(
        "#define FACTOR 3\n"
        "static inline int twice(int v)\n"
        "{\n"
        "    return v * FACTOR;\n"
        "}\n"
    )
    table, _ = extract(tmp_path, '#include "twice.h"\nint use(int v) { return twice(v); }\n')
    texts = {fn.name: fn.source_text for fn in table.functions}
    assert texts["twice"] == "static inline int twice(int v)\n{\n    return v * 3;\n}"
    assert texts["use"] == "int use(int v) { return twice(v); }"


def test_array_of_callbacks(tmp_path):
    src = "int (*handlers[4])(int);\nstruct S { int n; void (*cbs[2])(void); };\n"
    table, _ = extract(tmp_path, src)
    assert not table.partial
    [g] = table.globals
    assert g.c_type == CType("<fn>", 1, [4], func=CFuncSig([CType("int")], CType("int")))
    [s] = table.types
    assert s.members[1] == ("cbs", CType("<fn>", 1, [2], func=CFuncSig([], CType("void"))), None)


def test_array_of_callbacks_parameter_is_unsupported(tmp_path):
    # C passes a pointer here; a by-value array of callbacks would be the wrong ABI
    table, _ = extract(tmp_path, "void run(int (*cbs[4])(int)) {}\nint ok;\n")
    assert table.partial
    assert any(i.startswith("array of function pointers as a parameter") for i in table.issues)
    assert [fn.name for fn in table.functions] == []


def test_anonymous_nested_union_member(tmp_path):
    src = (
        "struct holder {\n"
        "    int kind;\n"
        "    union { int i; float f; } payload;\n"
        "};\n"
    )
    table, _ = extract(tmp_path, src)
    holder = next(t for t in table.types if t.name == "holder")
    anon = next(t for t in table.types if t.kind == "union")
    assert anon.name.startswith("Anon_")
    assert holder.members[1][0] == "payload"
    assert holder.members[1][1] == CType(f"union {anon.name}")


def test_enum_char_values(tmp_path):
    table, _ = extract(tmp_path, "enum Keys { K_A = 'a', K_NL = '\\n' };\n")
    [t] = table.types
    assert t.enumerators == [("K_A", 97), ("K_NL", 10)]


def test_function_pointer_parameter(tmp_path):
    src = "int apply(int (*op)(int), int v) { return op(v); }\n"
    table, _ = extract(tmp_path, src)
    [fn] = table.functions
    op = CType("<fn>", 1, func=CFuncSig([CType("int")], CType("int")))
    assert fn.params == [("op", op), ("v", CType("int"))]
    assert "op" not in fn.calls  # indirect call site, not a symbol reference
    assert table.external_refs == set()


def test_source_locations_across_headers(tmp_path):
    (tmp_path / "shapes.h").write_text(
        "#ifndef SHAPES_H\n"
        "#define SHAPES_H\n"
        "\n"
        "struct Shape {\n"
        "    int w;\n"
        "    int h;\n"
        "};\n"
        "\n"
        "#endif\n"
    )
    src = (
        "#include <stdio.h>\n"
        '#include "shapes.h"\n'
        "\n"
        "int shape_area(struct Shape *s) {\n"
        "    return s->w * s->h;\n"
        "}\n"
        "\n"
        "int shape_dump(FILE *out, struct Shape *s) {\n"
        '    return fprintf(out, "%d", shape_area(s));\n'
        "}\n"
    )
    table, _ = extract(tmp_path, src)
    locs = {fn.name: fn.source_loc for fn in table.functions if fn.defined_here}
    assert locs == {"shape_area": f"{tmp_path / 'u.c'}:4", "shape_dump": f"{tmp_path / 'u.c'}:8"}
    [shape] = table.types
    assert (shape.name, shape.source_loc) == ("Shape", f"{tmp_path / 'shapes.h'}:4")
    assert "FILE" in table.env_types
    assert "FILE" not in {t.name for t in table.types}


def test_macro_constants_object_like_only(tmp_path):
    source = (
        "#define MAX_LEN 64\n"
        "#define MIN(a,b) ((a)<(b)?(a):(b))\n"
        "#define HDF_POWER_DYNAMIC_CTRL 0\n"
        '#define TAG_NAME "hdf"\n'
        "#define NEWLINE '\\n'\n"
        "#define EXPR (MAX_LEN + 1)\n"
    )
    table, _ = extract(tmp_path, source)
    as_dict = dict(table.macro_constants)
    assert as_dict["MAX_LEN"] == 64
    assert as_dict["HDF_POWER_DYNAMIC_CTRL"] == 0
    assert as_dict["TAG_NAME"] == "hdf"
    assert as_dict["NEWLINE"] == 10
    assert "MIN" not in as_dict
    assert "EXPR" not in as_dict


def test_array_parameter_decays_to_a_pointer(tmp_path):
    src = "int sum(int a[4]);\nint first(const int a[]);\nint main2(int n, char *argv[]);\n"
    table, _ = extract(tmp_path, src)
    params = {fn.name: fn.params for fn in table.functions}
    assert params["sum"] == [("a", CType("int", 1))]
    assert params["first"] == [("a", CType("int", 1, const=True))]
    assert params["main2"] == [("n", CType("int")), ("argv", CType("char", 2))]


def test_multi_dimensional_array_parameter_is_unsupported(tmp_path):
    # C passes a pointer to an int[3] here, which CType cannot express
    table, _ = extract(tmp_path, "int trace(int m[2][3]) { return m[0][0]; }\nint ok;\n")
    assert table.partial
    assert any(i.startswith("multi-dimensional array parameter") for i in table.issues)
    assert [fn.name for fn in table.functions] == []


@pytest.mark.parametrize(
    "source, read",
    [
        (
            "enum Perm { P_R = 010, P_W = -(02), P_X = 0x1F };\n",
            lambda t: t.types[0].enumerators == [("P_R", 8), ("P_W", -2), ("P_X", 31)],
        ),
        ("int grid[010][(2)];\n", lambda t: t.globals[0].c_type.array_dims == [8, 2]),
        ("struct Bits { unsigned a : 010; };\n", lambda t: t.types[0].members[0][2] == 8),
    ],
    ids=["enumerator", "array-dim", "bit-field-width"],
)
def test_octal_literals_read_as_octal(tmp_path, source, read):
    table, _ = extract(tmp_path, source)
    assert not table.partial
    assert read(table)


@pytest.mark.parametrize(
    "text, value",
    [
        ("0644", 0o644), ("0", 0), ("0x1fUL", 31), ("42u", 42), ("-(7)", -7), ("+3", 3),
        ("((-1))", -1), ("'\\n'", 10), ("'\\0'", 0), ("'\\101'", 65), ("'\\x41'", 65),
        ("'a'", 97), ("'\\xff'", -1), ("'\\200'", -128), ('"hdf"', "hdf"),
        ("1.5f", 1.5), ("-2.", -2.0), ("1e3", 1000.0),
        ("08", None), ('-"s"', None), ("N + 1", None), ("(1) + (2)", None), ("", None),
    ],
)
def test_read_literal(text, value):
    assert read_literal(text) == value
    assert type(read_literal(text)) is type(value)
