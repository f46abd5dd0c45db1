import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from conftest import FIXTURES, write_trace
from test_acceptance import FIXTURE_PROJECTS
from test_pipeline import synthetic_project

from rustport.buildctx import (
    CompileCommand,
    PreprocessorConfig,
    derive_unit_context,
    load_compile_commands,
    preprocess_unit,
)
from rustport.cargo import BuildRunner
from rustport.clayout import PRIMITIVES, TypeResolver, record_size_align
from rustport.csyms import KNOWN_ENV_TYPEDEFS, CType, CTypeDef, extract_symbols
from rustport.errors import SkeletonError
from rustport.repair import compile_and_install
from rustport.skeleton import (
    SkeletonConfig,
    assemble_and_verify,
    load_project,
    lower_type,
    mirror_module_tree,
    plan_skeleton,
    sanitize_ident,
)
from rustport.workspace import Workspace

CPP = PreprocessorConfig()
RUNNER = BuildRunner()


def make_project(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "proj"
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    return root


def preprocess_all(root: Path, rels, flags=()) -> list:
    units = []
    for rel in rels:
        cmd = CompileCommand(directory=str(root), source_file=rel, arguments=["cc", *flags, "-c", rel])
        units.append(preprocess_unit(derive_unit_context(cmd), CPP))
    return units


def c_sizeof_oracle(tmp_path: Path, c_decls: str, type_expr: str) -> tuple[int, int]:
    """Independent layout oracle: ask the host C compiler."""
    src = tmp_path / "probe.c"
    src.write_text(
        c_decls
        + "\n#include <stdio.h>\nint main(void){"
        + f'printf("%zu %zu", sizeof({type_expr}), _Alignof({type_expr}));'
        + "return 0;}\n"
    )
    exe = tmp_path / "probe"
    subprocess.run(["cc", str(src), "-o", str(exe)], check=True, capture_output=True)
    out = subprocess.run([str(exe)], check=True, capture_output=True, text=True).stdout
    size, align = out.split()
    return int(size), int(align)


def table_for(tmp_path: Path, source: str):
    root = make_project(tmp_path, {"u.c": source})
    [unit] = preprocess_all(root, ["u.c"])
    return extract_symbols(unit, project_root=root)


def resolver_for(table) -> TypeResolver:
    defs = {t.name: t for t in table.types}
    return TypeResolver(lookup=defs.get, rust_path=lambda n: n if n in defs else None)


# --- module tree -------------------------------------------------------------


def test_mirror_single_file(tmp_path):
    root = make_project(tmp_path, {"src/a.c": "int x;\n"})
    tree = mirror_module_tree(root, [root / "src/a.c"])
    assert tree.mapping == {"src/a.c": "crate::src::a"}


def test_mirror_parent_modules(tmp_path):
    root = make_project(
        tmp_path, {"core/x.c": "int x;\n", "core/y.c": "int y;\n", "util/z.c": "int z;\n"}
    )
    tree = mirror_module_tree(root, [root / "core/x.c", root / "core/y.c", root / "util/z.c"])
    assert tree.mapping == {
        "core/x.c": "crate::core::x",
        "core/y.c": "crate::core::y",
        "util/z.c": "crate::util::z",
    }


def test_mirror_sanitized_collision(tmp_path):
    root = make_project(tmp_path, {"a-b.c": "int x;\n", "a_b.c": "int y;\n"})
    tree = mirror_module_tree(root, [root / "a-b.c", root / "a_b.c"])
    modules = sorted(tree.mapping.values())
    assert modules == ["crate::a_b", "crate::a_b_1"]
    assert tree.collisions


def test_mirror_bijective(tmp_path):
    root = make_project(tmp_path, {"m/n.c": "int x;\n", "o.c": "int y;\n"})
    tree = mirror_module_tree(root, [root / "m/n.c", root / "o.c"])
    for c_path, module in tree.mapping.items():
        assert tree.reverse[module] == c_path
    for module, c_path in tree.reverse.items():
        assert tree.mapping[c_path] == module


def test_mirror_empty_project_errors(tmp_path):
    with pytest.raises(SkeletonError):
        mirror_module_tree(tmp_path, [])


def test_sanitize_keywords_use_raw_idents():
    assert sanitize_ident("match") == "r#match"
    assert sanitize_ident("type") == "r#type"
    assert sanitize_ident("self") == "self_"
    assert sanitize_ident("9lives") == "_9lives"


# --- type lowering ------------------------------------------------------------


def test_lower_record_repr_c(tmp_path):
    table = table_for(tmp_path, "struct P { int x; int y; };\n")
    decl = lower_type(table.types[0], resolver_for(table))
    assert decl.emitted_text.startswith("#[repr(C)]\n")
    assert "pub x: i32," in decl.emitted_text
    assert "pub y: i32," in decl.emitted_text


def test_lower_alias_plain(tmp_path):
    table = table_for(tmp_path, "typedef unsigned int u32_t;\n")
    decl = lower_type(table.types[0], resolver_for(table))
    assert decl.emitted_text == "pub type u32_t = u32;"  # no #[repr(C)]


def test_lower_union_with_layout_asserts(tmp_path):
    table = table_for(tmp_path, "union V { int i; float f; };\n")
    decl = lower_type(table.types[0], resolver_for(table))
    assert "#[repr(C)]" in decl.emitted_text
    assert "pub union V" in decl.emitted_text
    assert "size_of::<V>() == 4" in decl.emitted_text


def test_lower_enum_explicit_discriminants(tmp_path):
    table = table_for(tmp_path, "enum Mode { M_OFF, M_ON = 5, M_AUTO };\n")
    decl = lower_type(table.types[0], resolver_for(table))
    assert decl.emitted_text == "pub type Mode = i32;"
    assert plan_constants(tmp_path / "proj", ["u.c"]) == {
        "M_OFF": ("crate::u", "pub const M_OFF: crate::u::Mode = 0;"),
        "M_ON": ("crate::u", "pub const M_ON: crate::u::Mode = 5;"),
        "M_AUTO": ("crate::u", "pub const M_AUTO: crate::u::Mode = 6;"),
    }


def test_lower_enum_duplicate_discriminants_keep_every_name(tmp_path):
    table = table_for(tmp_path, "enum Dup { D_A = 1, D_B = 1 };\n")
    decl = lower_type(table.types[0], resolver_for(table))
    assert decl.emitted_text == "pub type Dup = i32;"
    assert plan_constants(tmp_path / "proj", ["u.c"]) == {
        "D_A": ("crate::u", "pub const D_A: crate::u::Dup = 1;"),
        "D_B": ("crate::u", "pub const D_B: crate::u::Dup = 1;"),
    }


@pytest.mark.parametrize(
    "values, rust, size",
    [
        ("A = -1, B = 0x7FFFFFFF", "i32", 4),
        ("A = 0xFFFFFFFF", "u32", 4),
        ("A = -1, B = 0xFFFFFFFF", "i64", 8),
        ("A = 0xFFFFFFFFFFFFFFFF", "u64", 8),
    ],
    ids=["int", "unsigned-int", "long", "unsigned-long"],
)
def test_enum_is_stored_as_the_integer_gcc_sizes(tmp_path, values, rust, size):
    c_decls = f"enum E {{ {values} }};"
    table = table_for(tmp_path, c_decls + "\n")
    assert lower_type(table.types[0], resolver_for(table)).emitted_text == f"pub type E = {rust};"
    assert c_sizeof_oracle(tmp_path, c_decls, "enum E") == (size, size)


def test_lower_unresolvable_member_strict_errors(tmp_path):
    td = CTypeDef(
        name="Bad", kind="record", members=[("m", CType("struct Nowhere"), None)], source_loc="x:1"
    )
    resolver = TypeResolver(lookup=lambda n: None, rust_path=lambda n: None)
    with pytest.raises(SkeletonError):
        lower_type(td, resolver)


@pytest.mark.parametrize(
    "c_decls,type_expr,members",
    [
        ("struct P { int x; int y; };", "struct P", None),
        ("struct Q { char c; long l; short s; };", "struct Q", None),
        ("union U { int i; double d; char buf[3]; };", "union U", None),
        ("struct R { char a; struct Inner { int v; } in; char b; }; struct Inner dummy;", "struct R", None),
        ("#include <stddef.h>\nstruct W { wchar_t w; char c; };", "struct W", None),
    ],
)
def test_layout_matches_host_compiler(tmp_path, c_decls, type_expr, members):
    table = table_for(tmp_path, c_decls + "\n")
    resolver = resolver_for(table)
    tag = type_expr.split()[-1]
    td = next(t for t in table.types if t.name == tag)
    got = record_size_align(td, resolver)
    want = c_sizeof_oracle(tmp_path, c_decls, type_expr)
    assert got == want


def test_every_known_environment_typedef_has_a_layout():
    """A typedef the front end accepts from a system header must also lower,
    or the skeleton refuses it as an unresolvable type."""
    assert KNOWN_ENV_TYPEDEFS <= PRIMITIVES.keys()


def test_bitfield_layout_matches_host_compiler(tmp_path):
    c_decls = "struct F { unsigned int a : 3; unsigned int b : 7; unsigned short c : 2; char tail; };"
    table = table_for(tmp_path, c_decls + "\n")
    td = table.types[0]
    got = record_size_align(td, resolver_for(table))
    want = c_sizeof_oracle(tmp_path, c_decls, "struct F")
    assert got == want


def test_bitfield_record_emitted_opaque(tmp_path):
    table = table_for(tmp_path, "struct F { unsigned int a : 3; unsigned int b : 5; };\n")
    decl = lower_type(table.types[0], resolver_for(table))
    assert "_bits: [u8; 4]" in decl.emitted_text
    assert "pub fn a(&self)" in decl.emitted_text
    assert "pub fn set_b" in decl.emitted_text


# --- whole-skeleton assembly ---------------------------------------------------


def build_skeleton(tmp_path, files, config=None):
    root = make_project(tmp_path, files)
    units = preprocess_all(root, sorted(files))
    plan = plan_skeleton(root, units, config or SkeletonConfig(crate_name="skel_test"))
    out = tmp_path / "ws"
    return plan, assemble_and_verify(plan, out, RUNNER)


MINI_LIST_C = """\
#define LIST_MAX 8

struct list_node {
    int value;
    struct list_node *next;
};

int g_total_pushes = 0;

int list_length(const struct list_node *head) {
    int n = 0;
    const struct list_node *cur = head;
    while (cur) {
        n = n + 1;
        cur = cur->next;
    }
    return n;
}

int list_sum(const struct list_node *head) {
    int total = 0;
    const struct list_node *cur = head;
    while (cur) {
        total = total + cur->value;
        cur = cur->next;
    }
    return total;
}

int record_push(void) {
    g_total_pushes = g_total_pushes + 1;
    if (g_total_pushes > LIST_MAX) {
        g_total_pushes = LIST_MAX;
    }
    return g_total_pushes;
}
"""


def test_mini_list_skeleton_builds_clean(tmp_path):
    plan, project = build_skeleton(tmp_path, {"list.c": MINI_LIST_C})
    assert project.workspace_dir is not None
    text = (project.workspace_dir / "src" / "list.rs").read_text()
    assert "unimplemented!()" in text
    assert "pub const LIST_MAX: i32 = 8;" in text
    assert "static mut g_total_pushes: i32 = 0;" in text
    assert (project.workspace_dir / "mapping.json").is_file()


def test_mutually_recursive_signatures_compile(tmp_path):
    files = {
        "p.c": (
            "int is_odd(unsigned int n);\n"
            "int is_even(unsigned int n) { if (n == 0u) return 1; return is_odd(n - 1u); }\n"
            "int is_odd(unsigned int n) { if (n == 0u) return 0; return is_even(n - 1u); }\n"
        )
    }
    plan, project = build_skeleton(tmp_path, files)
    assert len(project.stubs) == 2


def test_unresolvable_member_type_strict_assembly_error(tmp_path):
    files = {"u.c": "struct Holder { struct Ghost *g; };\nstruct Holder h;\n"}
    root = make_project(tmp_path, files)
    units = preprocess_all(root, ["u.c"])
    with pytest.raises(SkeletonError) as exc:
        plan_skeleton(root, units, SkeletonConfig(crate_name="strictskel", strict_holes=True))
    assert "Ghost" in str(exc.value)


def test_lenient_policy_emits_opaque_hole(tmp_path):
    files = {"u.c": "struct Holder { struct Ghost *g; };\nstruct Holder h;\n"}
    root = make_project(tmp_path, files)
    units = preprocess_all(root, ["u.c"])
    plan = plan_skeleton(root, units, SkeletonConfig(crate_name="lenientskel", strict_holes=False))
    project = assemble_and_verify(plan, tmp_path / "ws", RUNNER)
    assert any("Ghost" in h for h in plan.holes)
    shared = (project.workspace_dir / "src" / "shared.rs").read_text()
    assert "pub struct Ghost" in shared


def test_cross_module_global_lands_in_shared_layer(tmp_path):
    files = {
        "core/parity.c": (
            "extern int g_checks;\n"
            "int is_even(unsigned int n) { g_checks = g_checks + 1; return n % 2u == 0u; }\n"
        ),
        "util/track.c": "int g_checks = 0;\nint read_checks(void) { return g_checks; }\n",
    }
    plan, project = build_skeleton(tmp_path, files)
    [static] = project.statics
    assert static.module == "crate::shared"
    shared = (project.workspace_dir / "src" / "shared.rs").read_text()
    assert "pub static mut g_checks: i32 = 0;" in shared
    assert "pub fn g_checks_ptr() -> *mut i32" in shared


def test_static_function_stub_is_private(tmp_path):
    plan, project = build_skeleton(
        tmp_path, {"m.c": "static int helper(void) { return 1; }\nint top(void) { return helper(); }\n"}
    )
    helper = next(s for s in project.stubs if s.qualified_name.endswith("::helper"))
    assert helper.visibility == "private"
    assert not helper.signature_text.startswith("pub")
    top = next(s for s in project.stubs if s.qualified_name.endswith("::top"))
    assert top.visibility == "public"


CALLBACK_C = """\
typedef int (*cb_t)(int);
struct handler { cb_t cb; int tag; };
static int twice(int v) { return v * 2; }
static int once(int v) { return v; }
int run(int v) { struct handler h = { twice, 0 }; return h.cb(v) + once(v); }
"""


def test_address_taken_static_function_gets_c_abi(tmp_path):
    plan, project = build_skeleton(tmp_path, {"h.c": CALLBACK_C})
    signatures = {s.qualified_name: s.signature_text for s in project.stubs}
    # stored in a C function pointer: C ABI, still private
    assert signatures["crate::h::twice"] == 'extern "C" fn twice(v: i32) -> i32'
    assert signatures["crate::h::once"] == "fn once(v: i32) -> i32"  # only called
    # a Rust-ABI `twice` fails here with E0308: expected "C" fn, found "Rust" fn
    body = (
        "let h = handler { cb: Some(twice), tag: 0 };\n"
        "let r = unsafe { h.cb.unwrap()(v) };\n"
        "r + once(v)"
    )
    ok, diags, _ = compile_and_install(
        Workspace(project.workspace_dir), "crate::h::run", body, RUNNER
    )
    assert ok, [d.message for d in diags]


def test_cross_module_called_function_gets_crate_visibility(tmp_path):
    files = {
        "a.c": "int shared_fn(int v) { return v; }\n",
        "b.c": "int shared_fn(int v);\nint use_it(void) { return shared_fn(3); }\n",
    }
    plan, project = build_skeleton(tmp_path, files)
    stub = next(s for s in project.stubs if s.qualified_name == "crate::a::shared_fn")
    assert stub.visibility == "crate"
    assert stub.signature_text.startswith("pub(crate)")


def test_variadic_stub_flagged_abi_sensitive(tmp_path):
    plan, project = build_skeleton(
        tmp_path, {"v.c": 'int report(const char *fmt, ...) { return 0; }\n'}
    )
    [stub] = project.stubs
    assert stub.origin.variadic
    # stable Rust cannot define a C-variadic body: only the fixed parameters stay
    assert stub.signature_text.endswith("fn report(fmt: *const i8) -> i32")
    assert stub.param_names == ["fmt"]


def test_variadic_function_pointers_keep_their_ellipsis(tmp_path):
    src = (
        "struct logger { int (*log)(const char *fmt, ...); };\n"
        "int run(struct logger *l, int (*sink)(const char *, ...)) { return l != 0; }\n"
    )
    plan, project = build_skeleton(tmp_path, {"log.c": src})
    fnptr = 'Option<unsafe extern "C" fn(*const i8, ...) -> i32>'
    [logger] = project.types
    assert f"pub log: {fnptr}," in logger.emitted_text
    [stub] = project.stubs
    assert f"sink: {fnptr})" in stub.signature_text
    assert stub.signature_text.startswith('pub extern "C" fn run(')


def test_function_pointer_parameter_stub_compiles(tmp_path):
    plan, project = build_skeleton(
        tmp_path, {"fp.c": "int apply(int (*op)(int), int v) { return op(v); }\n"}
    )
    [stub] = project.stubs
    assert 'op: Option<unsafe extern "C" fn(i32) -> i32>' in stub.signature_text


def test_arrays_of_callbacks_lower_and_build(tmp_path):
    decls = "int (*handlers[4])(int);\nstruct table { int n; void (*cbs[2])(void); };\n"
    src = decls + "int count(struct table *t) { return t->n; }\n"
    plan, project = build_skeleton(tmp_path, {"cb.c": src})
    [static] = project.statics
    assert static.emitted_text.startswith(
        'pub static mut handlers: [Option<unsafe extern "C" fn(i32) -> i32>; 4] ='
    )
    [table] = project.types
    assert 'pub cbs: [Option<unsafe extern "C" fn()>; 2],' in table.emitted_text
    size, _ = c_sizeof_oracle(tmp_path, decls, "struct table")
    # the layout assert matches the host compiler, and the skeleton built with it
    assert f"size_of::<table>() == {size})" in table.emitted_text


def test_array_parameters_decay_to_pointers_and_build(tmp_path):
    src = (
        "int sum(int a[4]) { return a[0]; }\n"
        "int first(const int a[]) { return a[0]; }\n"
        "int argc_of(int argc, char *argv[]) { return argc; }\n"
    )
    plan, project = build_skeleton(tmp_path, {"arr.c": src})
    sigs = {s.origin.name: s.signature_text for s in project.stubs}
    assert "a: *mut i32" in sigs["sum"]
    assert "a: *const i32" in sigs["first"]
    assert "argv: *mut *mut i8" in sigs["argc_of"]


def plan_constants(root: Path, rels, flags=()) -> dict[str, tuple[str, str]]:
    plan = plan_skeleton(root, preprocess_all(root, rels, flags), SkeletonConfig(crate_name="c"))
    return {c.name: (c.module, c.emitted_text) for c in plan.constants}


BRANCHED_N = "#ifdef BIG\n#define N 64\n#else\n#define N 8\n#endif\n"


@pytest.mark.parametrize("flags, n", [((), 8), (("-DBIG",), 64)])
def test_header_constant_takes_the_branch_the_flags_select(tmp_path, flags, n):
    root = make_project(tmp_path, {
        "cfg.h": BRANCHED_N,
        "a.c": '#include "cfg.h"\nint n(void) { return N; }\n',
    })
    assert plan_constants(root, ["a.c"], flags) == {
        "N": ("crate::shared", f"pub const N: i32 = {n};"),
    }


@pytest.mark.parametrize("flags, n", [((), 8), (("-DBIG",), 64)])
def test_unit_constant_takes_the_branch_the_flags_select(tmp_path, flags, n):
    root = make_project(tmp_path, {"a.c": BRANCHED_N + "int n(void) { return N; }\n"})
    assert plan_constants(root, ["a.c"], flags) == {"N": ("crate::a", f"pub const N: i32 = {n};")}


def test_defines_are_read_as_the_preprocessor_sees_them(tmp_path):
    root = make_project(tmp_path, {
        "a.c": "#define N 8 /* eight */\n"
        "#define K \\\n    3\n"
        "#define PERM 0644\n"
        "#define MSG \"tab\\there \\\"q\\\"\"\n"
        "#define TWICE(x) ((x) * 2)\n"
        "int n(void) { return TWICE(N + K) + PERM; }\n",
    })
    assert plan_constants(root, ["a.c"]) == {
        "N": ("crate::a", "pub const N: i32 = 8;"),
        "K": ("crate::a", "pub const K: i32 = 3;"),
        "PERM": ("crate::a", "pub const PERM: i32 = 420;"),
        "MSG": ("crate::a", 'pub const MSG: &str = "tab\\u{9}here \\u{22}q\\u{22}";'),
    }


def test_macro_a_unit_defines_twice_plants_no_constant(tmp_path, caplog):
    root = make_project(tmp_path, {
        "a.c": "#define L 3\n#undef L\n#define L 4\n#define M 5\n#undef M\n#define M 5\n"
        "int l(void) { return L + M; }\n",
    })
    assert plan_constants(root, ["a.c"]) == {"M": ("crate::a", "pub const M: i32 = 5;")}
    assert "macro L has several values in crate::a: no constant planted" in caplog.text


def test_header_constant_units_read_differently_goes_to_each_unit(tmp_path):
    root = make_project(tmp_path, {
        "cfg.h": BRANCHED_N,
        "a.c": '#include "cfg.h"\nint na(void) { return N; }\n',
        "b.c": '#include "cfg.h"\nint nb(void) { return N; }\n',
    })
    units = preprocess_all(root, ["a.c"], ("-DBIG",)) + preprocess_all(root, ["b.c"])
    plan = plan_skeleton(root, units, SkeletonConfig(crate_name="c"))
    assert [(c.module, c.emitted_text) for c in plan.constants] == [
        ("crate::a", "pub const N: i32 = 64;"),
        ("crate::b", "pub const N: i32 = 8;"),
    ]


def test_header_no_unit_includes_plants_no_constant(tmp_path):
    root = make_project(tmp_path, {
        "cfg/other_platform.h": "#define BUF_LEN 64\n#define OTHER_ONLY 1\n",
        "a.c": "#define BUF_LEN 16\nint buf_len(void) { return BUF_LEN; }\n",
    })
    assert plan_constants(root, ["a.c"]) == {
        "BUF_LEN": ("crate::a", "pub const BUF_LEN: i32 = 16;"),
    }


def test_header_behind_an_inactive_ifdef_plants_no_constant(tmp_path):
    root = make_project(tmp_path, {
        "cfg/on.h": "#define ON_LEN 2\n",
        "cfg/off.h": "#define OFF_LEN 3\n",
        "a.c": '#include "cfg/on.h"\n#ifdef USE_OFF\n#include "cfg/off.h"\n#endif\n'
        "int len(void) { return ON_LEN; }\n",
    })
    assert plan_constants(root, ["a.c"]) == {
        "ON_LEN": ("crate::shared", "pub const ON_LEN: i32 = 2;"),
    }


def test_defines_only_header_still_plants_its_constants(tmp_path):
    # such a header maps no preprocessed line; its line marker still names it
    root = make_project(tmp_path, {
        "inc/consts.h": "#define K_ONE 1\n#define K_NAME \"k\"\n",
        "a.c": '#include "inc/consts.h"\nint one(void) { return K_ONE; }\n',
    })
    assert plan_constants(root, ["a.c"]) == {
        "K_ONE": ("crate::shared", "pub const K_ONE: i32 = 1;"),
        "K_NAME": ("crate::shared", 'pub const K_NAME: &str = "k";'),
    }


def test_module_named_core_does_not_shadow_emitted_paths(tmp_path):
    # a C file named core.c produces `mod core`, which must not break the
    # emitted `core::mem`/`core::ptr` paths inside module files
    files = {
        "core.c": "struct core_rec { int a; long b; };\nint core_fn(struct core_rec r) { return r.a; }\n",
        "other.c": "extern int g_core_count;\nint touch(void) { g_core_count = 1; return g_core_count; }\n",
        "defs.c": "int g_core_count = 0;\n",
    }
    plan, project = build_skeleton(tmp_path, files)
    core_rs = (project.workspace_dir / "src" / "core.rs").read_text()
    assert "core::mem::size_of" in core_rs  # layout assert still resolves


def test_keyword_identifiers_survive_via_raw_idents(tmp_path):
    # C is free to use Rust keywords as file, function, and parameter names
    plan, project = build_skeleton(
        tmp_path, {"match.c": "int match(int type) { return type + 1; }\n"}
    )
    assert plan.tree.mapping == {"match.c": "crate::r#match"}
    [stub] = project.stubs
    assert stub.qualified_name == "crate::r#match::r#match"
    assert "r#type: i32" in stub.signature_text
    assert (project.workspace_dir / "src" / "match.rs").is_file()


def test_shared_header_type_unifies_into_shared_layer(tmp_path):
    # both units preprocess the same header; the record must be emitted once,
    # in the shared layer, and both signatures must reference it by path
    files = {
        "inc/geom.h": "#define GEOM_DIMS 2\nstruct geom_pt { int x; int y; };\n",
        "a.c": '#include "geom.h"\nint pt_x(struct geom_pt p) { return p.x; }\n',
        "b.c": '#include "geom.h"\nint pt_y(struct geom_pt p) { return p.y; }\n',
    }
    root = make_project(tmp_path, files)
    units = []
    for rel in ("a.c", "b.c"):
        cmd = CompileCommand(
            directory=str(root), source_file=rel, arguments=["cc", "-Iinc", "-c", rel]
        )
        units.append(preprocess_unit(derive_unit_context(cmd), CPP))
    plan = plan_skeleton(root, units, SkeletonConfig(crate_name="geom_crate"))
    project = assemble_and_verify(plan, tmp_path / "ws", RUNNER)
    geom_types = [t for t in project.types if t.name == "geom_pt"]
    assert len(geom_types) == 1
    assert geom_types[0].module == "crate::shared"
    a_rs = (project.workspace_dir / "src" / "a.rs").read_text()
    assert "crate::shared::geom_pt" in a_rs
    # the header macro lands once, as a shared-layer constant
    consts = [c for c in project.constants if c.name == "GEOM_DIMS"]
    assert len(consts) == 1 and consts[0].module == "crate::shared"


@pytest.mark.parametrize("b_enum,unified", [("M_A, M_B = 4", True), ("M_A, M_B = 5", False)])
def test_same_name_enums_unify_only_when_their_values_match(tmp_path, b_enum, unified):
    files = {
        "a.c": "enum mode { M_A, M_B = 4 };\nint fa(enum mode m) { return m == M_B; }\n",
        "b.c": f"enum mode {{ {b_enum} }};\nint fb(enum mode m) {{ return m == M_A; }}\n",
    }
    root = make_project(tmp_path, files)
    units = preprocess_all(root, ["a.c", "b.c"])
    if unified:
        plan = plan_skeleton(root, units, SkeletonConfig("enum_crate"))
        [mode] = [t for t in plan.types if t.name == "mode"]
        assert mode.module == "crate::shared"
        assert plan.holes == []
    else:
        # the strict hole policy refuses a conflict, as it refuses any hole
        with pytest.raises(SkeletonError, match="type conflict: mode"):
            plan_skeleton(root, units, SkeletonConfig("enum_crate"))
        plan = plan_skeleton(root, units, SkeletonConfig("enum_crate", strict_holes=False))
        [mode] = [t for t in plan.types if t.name == "mode"]
        assert mode.module == "crate::a"
        assert plan.holes == ["type conflict: mode"]


def c_object_bytes(tmp_path: Path, decl: str, name: str) -> str:
    """Independent value oracle: the bytes a gcc-compiled program stores for
    the global ``name``, in hex."""
    src = tmp_path / "bytes.c"
    src.write_text(
        f"#include <stdio.h>\n{decl}\nint main(void) {{\n"
        f"    for (unsigned long i = 0; i < sizeof {name}; i++)\n"
        f'        printf("%02x", ((unsigned char *)&{name})[i]);\n'
        "    return 0;\n}\n"
    )
    exe = tmp_path / "bytes"
    subprocess.run(["cc", str(src), "-o", str(exe)], check=True, capture_output=True)
    return subprocess.run([str(exe)], check=True, capture_output=True, text=True).stdout


def rust_object_bytes(ws: Path, path: str) -> str:
    """The bytes a `cargo test` reads from the static at ``path``, in hex."""
    (ws / "tests").mkdir()
    (ws / "tests" / "read.rs").write_text(
        "#[test]\nfn read() {\n"
        f"    let p = core::ptr::addr_of!({path});\n"
        "    let bytes = unsafe { core::slice::from_raw_parts(p as *const u8, core::mem::size_of_val(&*p)) };\n"
        '    let hex: String = bytes.iter().map(|b| format!("{:02x}", b)).collect();\n'
        '    println!("BYTES={hex}");\n}\n'
    )
    proc = RUNNER.run_tests(ws, ["cargo", "test", "-q", "--test", "read", "--", "--nocapture"])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("BYTES=")[1].split()[0]


ENUM_MODE = "enum mode { A, B };\n"


@pytest.mark.parametrize(
    "decl, emitted",
    [
        ("int g = -1;", "pub static mut g: i32 = -1;"),
        ("int g = 010;", "pub static mut g: i32 = 8;"),
        ("unsigned g = -1;", "pub static mut g: u32 = -1i64 as u32;"),
        ("char g = '\\xff';", "pub static mut g: i8 = -1;"),
        ("char *p = 0;", "pub static mut p: *mut i8 = core::ptr::null_mut();"),
        ("const char *q = 0;", "pub static mut q: *const i8 = core::ptr::null();"),
        ("double d = 1;", "pub static mut d: f64 = 1.0;"),
        ("float f = 1;", "pub static mut f: f32 = 1.0;"),
        ("int x = 1.5;", "pub static mut x: i32 = 1;"),
        ("_Bool b = 1;", "pub static mut b: bool = true;"),
        ("char c = 200;", "pub static mut c: i8 = 200i64 as i8;"),
        (ENUM_MODE + "enum mode m = 1;", "pub static mut m: crate::a::mode = 1;"),
        (ENUM_MODE + "enum mode m = B;", "pub static mut m: crate::a::mode = 1;"),
        ("enum { K = 7 };\nint k = K;", "pub static mut k: i32 = 7;"),
        (
            "enum big { BIG = 0xFFFFFFFF };\nenum big g = BIG;",
            "pub static mut g: crate::a::big = 4294967295;",
        ),
        ("char name[8] = \"abc\";", "pub static mut name: [i8; 8] = [97, 98, 99, 0, 0, 0, 0, 0];"),
        ("char s[] = \"abc\";", "pub static mut s: [i8; 4] = [97, 98, 99, 0];"),
        ("typedef char *str;\nconst str cs = 0;", "pub static mut cs: crate::a::str = core::ptr::null_mut();"),
        (
            "struct P { char *p; };\nconst struct P cp = {0};",
            "pub static mut cp: crate::a::P = unsafe { core::mem::zeroed() };",
        ),
        ("enum { K = 3 };\nint a[K];", "pub static mut a: [i32; 3] = unsafe { core::mem::zeroed() };"),
        ("enum { A = 4, B = A };\nint b = B;", "pub static mut b: i32 = 4;"),
        (
            "int (*const cb)(int) = 0;",
            'pub static mut cb: Option<unsafe extern "C" fn(i32) -> i32> = None;',
        ),
        ("float f = 1e300;", "pub static mut f: f32 = f32::INFINITY;"),
        ("float f = -1e300;", "pub static mut f: f32 = f32::NEG_INFINITY;"),
        ("double d = 1e999;", "pub static mut d: f64 = f64::INFINITY;"),
        ("double d = -1e999;", "pub static mut d: f64 = f64::NEG_INFINITY;"),
    ],
    ids=[
        "negative", "octal", "negative-unsigned", "high-char", "null-pointer",
        "null-const-pointer", "int-to-double", "int-to-float", "float-to-int", "bool",
        "wrapping-char", "int-to-enum", "enumerator", "anonymous-enumerator", "unsigned-enum",
        "string-in-array", "string-sizes-array", "const-pointer-alias", "const-record-with-pointer",
        "enumerator-dimension", "enumerator-naming-enumerator", "const-function-pointer",
        "float-overflow", "float-negative-overflow", "infinite-double", "negative-infinite-double",
    ],
)
def test_literal_initializer_keeps_its_value(tmp_path, decl, emitted):
    """Each static builds, and Rust reads the bytes gcc stores for the same
    declaration."""
    _, project = build_skeleton(tmp_path, {"a.c": f"{decl}\n"})
    [static] = project.statics
    assert static.emitted_text == emitted
    name = static.origin.name
    assert rust_object_bytes(project.workspace_dir, f"skel_test::a::{name}") == c_object_bytes(
        tmp_path, decl, name
    )


def test_infinite_literal_initializer_is_left_as_a_todo(tmp_path):
    # C leaves converting a float beyond an integer type's range undefined
    plan, _ = build_skeleton(tmp_path, {"a.c": "int x = 1e999;\nlong y = -1e300;\n"})
    assert [s.emitted_text for s in plan.statics] == [
        "// TODO: translate non-literal initializer: 1e999\npub static mut x: i32 = 0;",
        "// TODO: translate non-literal initializer: - 1e300\npub static mut y: i64 = 0;",
    ]


def test_incomplete_array_takes_its_size_from_its_initializer(tmp_path):
    source = 'char s[] = "a\\n";\nint a[] = {1, 2, 3,};\nconst char *names[] = {"x,y", "z"};\n'
    plan, _ = build_skeleton(tmp_path, {"a.c": source})
    lines = {s.name: s.emitted_text.splitlines()[-1] for s in plan.statics}
    types = {name: line.split(": ", 1)[1].split(" = ")[0] for name, line in lines.items()}
    assert types == {"s": "[i8; 3]", "a": "[i32; 3]", "names": "[*const i8; 2]"}


def test_incomplete_array_without_a_sized_initializer_is_a_hole(tmp_path):
    root = make_project(tmp_path, {"a.c": "int a[];\nint b[] = {[4] = 1};\nint c = 1;\n"})
    units = preprocess_all(root, ["a.c"])
    with pytest.raises(SkeletonError, match="incomplete array 'a' without a size"):
        plan_skeleton(root, units)
    plan = plan_skeleton(root, units, SkeletonConfig(strict_holes=False))
    assert [s.name for s in plan.statics] == ["c"]
    assert plan.holes == [
        "incomplete array 'a' without a size",
        "incomplete array 'b' without a size",
    ]


def test_unsupported_construct_is_a_hole(tmp_path):
    root = make_project(tmp_path, {"a.c": "int trace(int m[2][3]) { return m[0][0]; }\nint ok;\n"})
    units = preprocess_all(root, ["a.c"])
    hole = f"unsupported construct: multi-dimensional array parameter at {root / 'a.c'}:1"
    with pytest.raises(SkeletonError, match=re.escape(hole)):
        plan_skeleton(root, units)
    plan = plan_skeleton(root, units, SkeletonConfig(strict_holes=False))
    assert plan.holes == [hole]
    assert ([s.name for s in plan.statics], plan.stubs) == (["ok"], [])


def test_tentative_global_in_two_units_emitted_once(tmp_path):
    files = {
        "common.h": "int g_shared_counter;\n",
        "u1.c": '#include "common.h"\nint bump1(void) { g_shared_counter = g_shared_counter + 1; return g_shared_counter; }\n',
        "u2.c": '#include "common.h"\nint bump2(void) { g_shared_counter = g_shared_counter + 2; return g_shared_counter; }\n',
    }
    root = make_project(tmp_path, files)
    units = []
    for rel in ("u1.c", "u2.c"):
        cmd = CompileCommand(directory=str(root), source_file=rel, arguments=["cc", "-I.", "-c", rel])
        units.append(preprocess_unit(derive_unit_context(cmd), CPP))
    plan = plan_skeleton(root, units, SkeletonConfig(crate_name="tentative_crate"))
    project = assemble_and_verify(plan, tmp_path / "ws", RUNNER)
    counters = [s for s in project.statics if s.name == "g_shared_counter"]
    assert len(counters) == 1
    assert counters[0].module == "crate::shared"


@pytest.mark.parametrize(
    "c_decls,type_expr",
    [
        ("struct Z0 { unsigned int a : 3; unsigned int : 0; unsigned int b : 1; };", "struct Z0"),
        ("struct Str { unsigned short a : 9; unsigned short b : 9; };", "struct Str"),
        ("struct MixB { char c; unsigned int bits : 5; double d; };", "struct MixB"),
        ("struct Wide { unsigned long a : 33; unsigned long b : 33; };", "struct Wide"),
    ],
)
def test_bitfield_layout_edge_cases_match_host(tmp_path, c_decls, type_expr):
    table = table_for(tmp_path, c_decls + "\n")
    tag = type_expr.split()[-1]
    td = next(t for t in table.types if t.name == tag)
    got = record_size_align(td, resolver_for(table))
    want = c_sizeof_oracle(tmp_path, c_decls, type_expr)
    assert got == want


def test_skeleton_output_deterministic(tmp_path):
    files = {"a.c": MINI_LIST_C}
    root = make_project(tmp_path, files)
    units = preprocess_all(root, ["a.c"])
    cfg = SkeletonConfig(crate_name="deterministic")
    plan1 = plan_skeleton(root, units, cfg)
    plan2 = plan_skeleton(root, units, cfg)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    p1 = assemble_and_verify(plan1, out1, RUNNER)
    p2 = assemble_and_verify(plan2, out2, RUNNER)
    for rel in ["src/lib.rs", "src/a.rs", "src/shared.rs", "Cargo.toml", "mapping.json"]:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


# --- persistence ---------------------------------------------------------------

@pytest.mark.parametrize("name", [*FIXTURE_PROJECTS, "synthetic_8x8"])
def test_saved_project_loads_back_equal(tmp_path, name):
    if name in FIXTURE_PROJECTS:
        root = tmp_path / name
        shutil.copytree(FIXTURES / name, root)
        sources, extra_args = FIXTURE_PROJECTS[name]
    else:
        files, _ = synthetic_project(8, 8)
        root = make_project(tmp_path, files)
        sources, extra_args = sorted(f for f in files if f.endswith(".c")), ["-Iinc"]
    trace = write_trace(root, sources, extra_args=extra_args)
    units = [preprocess_unit(derive_unit_context(c), CPP) for c in load_compile_commands(trace)]
    plan = plan_skeleton(root, units, SkeletonConfig(crate_name=name))
    assert plan.workspace_dir is None
    project = assemble_and_verify(plan, tmp_path / "ws", RUNNER)
    assert project.workspace_dir == tmp_path / "ws"
    assert load_project(tmp_path / "ws") == project
    # the workspace directory is where the record is read from, not stored
    shutil.copytree(tmp_path / "ws", tmp_path / "copy")
    copy = load_project(tmp_path / "copy")
    assert copy.workspace_dir == tmp_path / "copy"
    assert copy.stubs == project.stubs and copy.statics == project.statics


SKELETON_HEADER = {"format": "rustport-skeleton", "version": 5}


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[]",
        json.dumps({"config": {"crate_name": "old"}, "mapping": {}, "types": []}),
        json.dumps({**SKELETON_HEADER, "version": 1, "project": {}}),
        json.dumps({**SKELETON_HEADER, "version": 2, "project": {}}),
        json.dumps({**SKELETON_HEADER, "version": 3, "project": {}}),
        json.dumps({**SKELETON_HEADER, "version": 4, "project": {}}),
        json.dumps({**SKELETON_HEADER, "version": 6, "project": {}}),
        json.dumps({**SKELETON_HEADER, "project": None}),
        json.dumps({**SKELETON_HEADER, "project": {"tree": [], "types": []}}),
        json.dumps({**SKELETON_HEADER, "project": {"no_such_field": 1}}),
    ],
    ids=["not-json", "not-an-object", "headerless", "version-1", "version-2", "version-3",
         "version-4", "future-version",
         "null-project", "wrong-shape", "unknown-field"],
)
def test_unreadable_skeleton_metadata_is_a_skeleton_error(tmp_path, text):
    (tmp_path / ".rustport").mkdir()
    (tmp_path / ".rustport" / "skeleton.json").write_text(text)
    with pytest.raises(SkeletonError, match="re-run `rustport skeleton`"):
        load_project(tmp_path)
