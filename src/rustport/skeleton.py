"""Rust skeleton synthesis.

Mirrors the C directory hierarchy into a module tree, lowers types in a
layout-preserving form, emits placeholder-bodied function stubs, lifts globals
into module-local or shared storage, and assembles a workspace that must
compile before any function logic exists.
"""

from __future__ import annotations

import functools
import json
import logging
import re
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import clayout
from .buildctx import PreprocessedUnit
from .cargo import BuildRunner, render_diagnostics
from .clayout import TypeResolver
from .csyms import (
    CFunctionDecl,
    CGlobalDecl,
    CTypeDef,
    SymbolTable,
    base_names,
    declared_types,
    extract_symbols,
    read_literal,
)
from .errors import SkeletonBuildError, SkeletonError

logger = logging.getLogger(__name__)

SHARED_MODULE = "crate::shared"

RUST_KEYWORDS = {
    "as", "async", "await", "break", "const", "continue", "dyn", "else",
    "enum", "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop",
    "match", "mod", "move", "mut", "pub", "ref", "return", "static", "struct",
    "trait", "true", "type", "unsafe", "use", "where", "while", "union",
}
# these cannot be raw identifiers
RUST_RESERVED_RAW = {"crate", "self", "super", "Self"}

CRATE_ALLOWS = "#![allow(dead_code, non_camel_case_types, non_snake_case, non_upper_case_globals)]"

BODY_BEGIN = "// >>> rustport:body "
BODY_END = "// <<< rustport:body "
FALLBACK_MARK = "// rustport:fallback"


def sanitize_ident(name: str) -> str:
    """Make a C identifier valid in Rust, preferring raw-ident over renaming."""
    ident = re.sub(r"\W", "_", name)
    if not ident or ident[0].isdigit():
        ident = "_" + ident
    if ident in RUST_RESERVED_RAW:
        return ident + "_"
    if ident in RUST_KEYWORDS:
        return "r#" + ident
    return ident


@dataclass
class SkeletonConfig:
    crate_name: str = "translated"
    strict_holes: bool = True


@dataclass
class ModuleTree:
    # C path (project-relative, posix) <-> Rust module path ("crate::a::b")
    mapping: dict[str, str]
    reverse: dict[str, str]
    collisions: list[str] = field(default_factory=list)


@dataclass
class RustTypeDecl:
    name: str
    emitted_text: str
    origin: CTypeDef
    module: str = SHARED_MODULE


@dataclass
class FunctionStub:
    qualified_name: str
    signature_text: str
    placeholder_body: str
    visibility: str  # public | crate | private
    origin: CFunctionDecl
    module: str
    param_names: list[str] = field(default_factory=list)


@dataclass
class LiftedStatic:
    name: str
    emitted_text: str
    module: str
    origin: CGlobalDecl
    accessor_text: str = ""


@dataclass
class NamedConstant:
    name: str
    emitted_text: str
    module: str


@dataclass
class SkeletonProject:
    """The skeleton record: planned in memory, saved with the workspace, loaded back.

    ``workspace_dir`` is None until the project is assembled, and is never
    saved: a loaded project lives wherever its file was read from.
    """

    tree: ModuleTree
    types: list[RustTypeDecl]
    stubs: list[FunctionStub]
    statics: list[LiftedStatic]
    constants: list[NamedConstant]
    workspace_dir: Optional[Path] = None
    holes: list[str] = field(default_factory=list)
    config: SkeletonConfig = field(default_factory=SkeletonConfig)

    def stub_by_name(self, qualified: str) -> Optional[FunctionStub]:
        for s in self.stubs:
            if s.qualified_name == qualified:
                return s
        return None


def _relative_keys(project_root, source_files) -> dict[str, str]:
    """Absolute source path -> the project-relative key used in the mapping."""
    root = Path(project_root).resolve()
    out: dict[str, str] = {}
    for f in source_files:
        p = Path(f).resolve()
        if not p.is_relative_to(root):
            raise SkeletonError(f"source file {p} lies outside the project root {root}")
        out[str(p)] = p.relative_to(root).as_posix()
    return out


def mirror_module_tree(project_root, source_files) -> ModuleTree:
    """Map every C source file one-to-one onto a Rust module path."""
    rels = sorted(_relative_keys(project_root, source_files).values())
    if not rels:
        raise SkeletonError("empty project: no C source files")

    mapping: dict[str, str] = {}
    reverse: dict[str, str] = {}
    collisions: list[str] = []
    for rel in rels:
        parts = [sanitize_ident(p) for p in Path(rel).parts[:-1]]
        stem = sanitize_ident(Path(rel).stem)
        candidate = "::".join(["crate", *parts, stem])
        final = candidate
        n = 0
        while final in reverse:
            n += 1
            final = f"{candidate}_{n}"
        if final != candidate:
            collisions.append(f"{rel}: module name collision, using {final}")
            logger.warning("module name collision for %s -> %s", rel, final)
        mapping[rel] = final
        reverse[final] = rel
    return ModuleTree(mapping=mapping, reverse=reverse, collisions=collisions)


@dataclass
class TypePolicy:
    resolver: TypeResolver
    strict: bool = True


def lower_type(t: CTypeDef, policy: TypePolicy, module: str = SHARED_MODULE) -> RustTypeDecl:
    """Lower one C type definition to layout-preserving Rust source."""
    name = sanitize_ident(t.name)
    if t.kind == "alias":
        target = clayout.lower(t.members[0][1], policy.resolver)
        text = f"pub type {name} = {target};"
        return RustTypeDecl(name=name, emitted_text=text, origin=t, module=module)

    if t.kind == "enumeration":
        values = [(sanitize_ident(n), v) for n, v in t.enumerators]
        if len({v for _, v in values}) != len(values):
            # duplicate discriminants cannot become a Rust enum
            lines = [f"pub type {name} = i32;"]
            for vn, vv in values:
                lines.append(f"pub const {vn}: {name} = {vv};")
            logger.info("enum %s has duplicate discriminants; emitted as alias+consts", t.name)
            return RustTypeDecl(name=name, emitted_text="\n".join(lines), origin=t, module=module)
        lines = ["#[repr(C)]", "#[derive(Clone, Copy, PartialEq)]", f"pub enum {name} {{"]
        for vn, vv in values:
            lines.append(f"    {vn} = {vv},")
        lines.append("}")
        lines.append(f"const _: () = assert!(core::mem::size_of::<{name}>() == 4);")
        return RustTypeDecl(name=name, emitted_text="\n".join(lines), origin=t, module=module)

    keyword = "struct" if t.kind == "record" else "union"

    if t.opaque or not t.members:
        text = f"#[repr(C)]\npub struct {name} {{\n    _opaque: [u8; 0],\n}}"
        return RustTypeDecl(name=name, emitted_text=text, origin=t, module=module)

    if t.layout_sensitive:
        # bit-field records become opaque byte blobs of the computed C size,
        # with accessor stubs flagged for manual follow-up
        try:
            size, align = clayout.record_size_align(t, policy.resolver)
        except SkeletonError as exc:
            if policy.strict:
                raise
            size, align = 0, 1
            logger.warning("bit-field record %s: %s", t.name, exc)
        lines = [
            f"#[repr(C, align({align}))]",
            "#[derive(Clone, Copy)]",
            f"pub struct {name} {{",
            f"    _bits: [u8; {size}],",
            "}",
            f"impl {name} {{",
        ]
        for mname, mtype, width in t.members:
            if width is None:
                continue
            acc = sanitize_ident(mname)
            mt = clayout.lower(mtype, policy.resolver)
            lines.append(f"    pub fn {acc}(&self) -> {mt} {{ unimplemented!() }}")
            lines.append(
                f"    pub fn set_{acc}(&mut self, value: {mt}) {{ let _ = value; unimplemented!() }}"
            )
        lines.append("}")
        logger.warning(
            "record %s has bit-fields; emitted as opaque %d-byte blob with accessor stubs",
            t.name,
            size,
        )
        return RustTypeDecl(name=name, emitted_text="\n".join(lines), origin=t, module=module)

    lines = ["#[repr(C)]", "#[derive(Clone, Copy)]", f"pub {keyword} {name} {{"]
    for mname, mtype, _width in t.members:
        lowered = clayout.lower(mtype, policy.resolver)
        lines.append(f"    pub {sanitize_ident(mname)}: {lowered},")
    lines.append("}")
    try:
        size, align = clayout.record_size_align(t, policy.resolver)
        lines.append(f"const _: () = assert!(core::mem::size_of::<{name}>() == {size});")
        lines.append(f"const _: () = assert!(core::mem::align_of::<{name}>() == {align});")
    except SkeletonError:
        logger.info("no layout assertion for %s (member outside layout subset)", t.name)
    return RustTypeDecl(name=name, emitted_text="\n".join(lines), origin=t, module=module)


def placeholder_body(param_names: list[str]) -> str:
    sentinel = "unimplemented!()"
    if len(param_names) == 1:
        return f"let _ = {param_names[0]};\n{sentinel}"
    if param_names:
        return f"let _ = ({', '.join(param_names)});\n{sentinel}"
    return sentinel


def emit_stub(
    f: CFunctionDecl,
    module: str,
    policy: TypePolicy,
    visibility: str = "public",
    address_taken: bool = False,
) -> FunctionStub:
    """Emit a placeholder-bodied stub with lowered signature types.

    External functions, and internal ones whose address is taken, get the C
    ABI: a function pointer lowers to ``unsafe extern "C" fn``, which a
    Rust-ABI function cannot be stored in."""
    name = sanitize_ident(f.name)
    params: list[str] = []
    param_names: list[str] = []
    for i, (pname, ptype) in enumerate(f.params):
        rust_name = sanitize_ident(pname) if pname else f"p{i}"
        param_names.append(rust_name)
        params.append(f"{rust_name}: {clayout.lower(ptype, policy.resolver)}")
    ret = clayout.lower(f.return_type, policy.resolver, position="return")

    vis_prefix = {"public": "pub ", "crate": "pub(crate) ", "private": ""}[visibility]
    abi = 'extern "C" ' if f.storage == "external" or address_taken else ""
    sig = f"{vis_prefix}{abi}fn {name}({', '.join(params)})"
    if ret != "()":
        sig += f" -> {ret}"
    if f.variadic:
        # stable Rust cannot define C-variadic bodies; the fixed prefix is kept
        logger.warning("variadic %s: emitted with fixed parameters only", f.name)
    return FunctionStub(
        qualified_name=f"{module}::{name}",
        signature_text=sig,
        placeholder_body=placeholder_body(param_names),
        visibility=visibility,
        origin=f,
        module=module,
        param_names=param_names,
    )


@dataclass
class GlobalUsage:
    using_modules: set[str] = field(default_factory=set)
    defining_module: str = SHARED_MODULE


def _zero_value(rust_type: str) -> str:
    if rust_type in ("f32", "f64"):
        return "0.0"
    if rust_type == "bool":
        return "false"
    if rust_type.startswith("*const"):
        return "core::ptr::null()"
    if rust_type.startswith("*mut"):
        return "core::ptr::null_mut()"
    if rust_type.startswith("Option<"):
        return "None"
    if re.fullmatch(r"[iu](8|16|32|64|size)", rust_type):
        return "0"
    return "unsafe { core::mem::zeroed() }"


def lift_global(
    g: CGlobalDecl,
    usage: GlobalUsage,
    policy: TypePolicy,
) -> LiftedStatic:
    """Lift one C global into a module-local or shared static.

    Literal and zero initializers translate directly; anything else gets a
    zeroed default plus a logged TODO marker in the emitted text.
    """
    name = sanitize_ident(g.name)
    rust_type = clayout.lower(g.c_type, policy.resolver)
    cross_module = len(usage.using_modules - {usage.defining_module}) >= 1
    module = SHARED_MODULE if cross_module else usage.defining_module

    todo_comment = ""
    init = (g.initializer_text or "").strip()
    value = read_literal(init)
    str_ptr = g.c_type.pointer_depth == 1 and g.c_type.base == "char"
    if isinstance(value, str) and str_ptr:
        rust_init = f'b"{value}\\0".as_ptr() as {rust_type}'
    elif isinstance(value, int) and value < 0 and not re.fullmatch(r"i(8|16|32|64|size)", rust_type):
        # C converts the value to the object's type, as `as` does
        rust_init = f"{value}i64 as {rust_type}"
    elif isinstance(value, (int, float)):
        rust_init = repr(value)
    else:
        rust_init = _zero_value(rust_type)
        if init not in ("", "{ 0 }", "{0}"):
            todo_comment = f"// TODO: translate non-literal initializer: {init}\n"
            logger.warning("global %s: initializer %r needs manual translation", g.name, init)

    mutable = g.mutable
    if not mutable and "*" in rust_type:
        # raw pointers are not Sync; a pointer-typed static must stay `mut`
        mutable = True
    vis = "pub " if g.storage == "external" or cross_module else ""
    mut = "mut " if mutable else ""
    text = f"{todo_comment}{vis}static {mut}{name}: {rust_type} = {rust_init};"

    accessor = ""
    if mutable and module == SHARED_MODULE:
        accessor = (
            f"pub fn {name}_ptr() -> *mut {rust_type} {{\n"
            f"    core::ptr::addr_of_mut!({name})\n"
            f"}}"
        )
    return LiftedStatic(
        name=name, emitted_text=text, module=module, origin=g, accessor_text=accessor
    )


def _const_text(name: str, value: object) -> str:
    ident = sanitize_ident(name)
    if isinstance(value, bool):
        return f"pub const {ident}: bool = {str(value).lower()};"
    if isinstance(value, int):
        if -(2**31) <= value < 2**31:
            ty = "i32"
        elif value >= 0 and value < 2**64:
            ty = "u64" if value >= 2**63 else "i64"
        else:
            ty = "i64"
        return f"pub const {ident}: {ty} = {value};"
    escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'pub const {ident}: &str = "{escaped}";'


# --- whole-project planning --------------------------------------------------


def plan_skeleton(
    project_root,
    units: list[PreprocessedUnit],
    config: Optional[SkeletonConfig] = None,
) -> SkeletonProject:
    """Turn preprocessed units into a complete, not yet assembled, project.

    Decides type/global placement (module-local vs shared layer), stub
    visibility, and name resolution before anything is written to disk.
    """
    config = config or SkeletonConfig()
    project_root = Path(project_root).resolve()

    unit_paths = [u.origin.command.source_path() for u in units]
    tree = mirror_module_tree(project_root, unit_paths)

    rel_keys = _relative_keys(project_root, unit_paths)
    symtabs: dict[str, SymbolTable] = {}
    for unit in units:
        rel_key = rel_keys[str(unit.origin.command.source_path().resolve())]
        module = tree.mapping[rel_key]
        symtabs[module] = extract_symbols(unit, project_root=project_root)

    # usage analysis: which modules reference which names
    uses: dict[str, set[str]] = {}
    for module, table in symtabs.items():
        names: set[str] = set(table.external_refs)
        for fn in table.functions:
            names |= fn.calls | fn.value_refs
        for name in names:
            uses.setdefault(name, set()).add(module)

    # type placement: structurally identical same-name definitions unify;
    # shared when seen or referenced from more than one module
    placed_types: dict[str, str] = {}
    type_defs: dict[str, CTypeDef] = {}
    type_conflicts: list[str] = []
    for module in sorted(symtabs):
        for t in symtabs[module].types:
            prior = type_defs.get(t.name)
            if prior is None:
                type_defs[t.name] = t
                placed_types[t.name] = module
                continue
            if (prior.kind, prior.members, prior.enumerators) == (
                t.kind, t.members, t.enumerators
            ):
                placed_types[t.name] = SHARED_MODULE
            else:
                type_conflicts.append(t.name)
                logger.warning("type %s defined differently in multiple units", t.name)
    for name, module in list(placed_types.items()):
        using = uses.get(name, set())
        if module != SHARED_MODULE and len(using - {module}) >= 1:
            placed_types[name] = SHARED_MODULE

    holes: list[str] = []

    def resolve_lookup(name: str) -> Optional[CTypeDef]:
        return type_defs.get(name)

    def resolve_path(name: str) -> Optional[str]:
        rust_name = sanitize_ident(name)
        if name in placed_types:
            home = placed_types[name]
            return f"{home}::{rust_name}"
        return None

    resolver = TypeResolver(lookup=resolve_lookup, rust_path=resolve_path)
    policy = TypePolicy(resolver=resolver, strict=config.strict_holes)

    # synthesize opaque types for referenced-but-undefined type names
    referenced_types = {
        name
        for table in symtabs.values()
        for ct in declared_types(table)
        for name in base_names(ct)
    }
    synthesized: list[RustTypeDecl] = []
    for name in sorted(referenced_types):
        if name in type_defs or name in clayout.PRIMITIVES or name == "void":
            continue
        hole = f"unresolvable type '{name}'"
        if config.strict_holes:
            raise SkeletonError(f"{hole} (strict hole policy)")
        holes.append(hole)
        logger.warning("%s: emitted as opaque in shared layer", hole)
        opaque = CTypeDef(name=name, kind="record", members=[], source_loc="<hole>", opaque=True)
        type_defs[name] = opaque
        placed_types[name] = SHARED_MODULE
        synthesized.append(lower_type(opaque, policy, module=SHARED_MODULE))

    types: list[RustTypeDecl] = list(synthesized)
    emitted_type_names: set[str] = {t.origin.name for t in synthesized}
    for module in sorted(symtabs):
        for t in symtabs[module].types:
            if t.name in emitted_type_names:
                continue
            emitted_type_names.add(t.name)
            types.append(lower_type(t, policy, module=placed_types[t.name]))

    # globals: external tentative definitions unify by name
    statics: list[LiftedStatic] = []
    emitted_globals: set[str] = set()
    for module in sorted(symtabs):
        for g in symtabs[module].globals:
            if not g.is_definition:
                continue
            key = g.name if g.storage == "external" else f"{module}::{g.name}"
            if key in emitted_globals:
                continue
            emitted_globals.add(key)
            usage = GlobalUsage(
                using_modules=set(uses.get(g.name, set())) | {module},
                defining_module=module,
            )
            statics.append(lift_global(g, usage, policy))

    # named constants from object-like macros: those of the project headers
    # the units included land in the shared layer, in (header, line) order
    constants: list[NamedConstant] = []
    emitted_consts: set[str] = set()
    header_consts = sorted({c for table in symtabs.values() for c in table.header_constants})
    for _header, _line, name, value in header_consts:
        if name in emitted_consts or name in emitted_type_names:
            continue
        emitted_consts.add(name)
        constants.append(
            NamedConstant(
                name=sanitize_ident(name),
                emitted_text=_const_text(name, value),
                module=SHARED_MODULE,
            )
        )
    for module in sorted(symtabs):
        for name, value in symtabs[module].macro_constants:
            if name in emitted_consts or name in emitted_type_names:
                continue
            if any(s.name == sanitize_ident(name) for s in statics):
                continue
            emitted_consts.add(name)
            constants.append(
                NamedConstant(
                    name=sanitize_ident(name),
                    emitted_text=_const_text(name, value),
                    module=module,
                )
            )

    # stubs with storage- and usage-derived visibility
    stubs: list[FunctionStub] = []
    for module in sorted(symtabs):
        # an internal function can be named, so have its address taken, only
        # in its own unit
        values = set().union(*(fn.value_refs for fn in symtabs[module].functions))
        for fn in symtabs[module].functions:
            if not fn.defined_here:
                continue
            if fn.storage == "internal":
                visibility = "private"
            elif len(uses.get(fn.name, set()) - {module}) >= 1:
                visibility = "crate"
            else:
                visibility = "public"
            stubs.append(
                emit_stub(
                    fn, module, policy, visibility=visibility,
                    address_taken=fn.name in values,
                )
            )

    return SkeletonProject(
        tree=tree,
        types=types,
        stubs=stubs,
        statics=statics,
        constants=constants,
        holes=holes + [f"type conflict: {n}" for n in type_conflicts],
        config=config,
    )


# --- emission ----------------------------------------------------------------


def module_rel_file(module: str) -> Path:
    """Module path -> source file path; raw-ident prefixes never reach disk."""
    parts = [p[2:] if p.startswith("r#") else p for p in module.split("::")[1:]]
    return Path("src", *parts[:-1], parts[-1] + ".rs")


def render_module(project: SkeletonProject, module: str) -> str:
    """Render one module file: constants, types, statics, then stubs."""
    sections: list[str] = []
    for const in project.constants:
        if const.module == module:
            sections.append(const.emitted_text)
    for t in project.types:
        if t.module == module:
            sections.append(t.emitted_text)
    for s in project.statics:
        if s.module == module:
            sections.append(s.emitted_text)
            if s.accessor_text:
                sections.append(s.accessor_text)
    for stub in project.stubs:
        if stub.module == module:
            body = "\n".join(
                "    " + line if line else "" for line in stub.placeholder_body.splitlines()
            )
            sections.append(
                f"{stub.signature_text} {{\n"
                f"    {BODY_BEGIN}{stub.qualified_name}\n"
                f"{body}\n"
                f"    {BODY_END}{stub.qualified_name}\n"
                f"}}"
            )
    return "\n\n".join(sections) + ("\n" if sections else "")


def assemble_and_verify(
    project: SkeletonProject,
    out_dir,
    runner: Optional[BuildRunner] = None,
) -> SkeletonProject:
    """Write the workspace and require a clean build before any bodies exist.

    On success the project records ``out_dir`` as its workspace and is saved
    there; the same object is returned.
    """
    out_dir = Path(out_dir)
    runner = runner or BuildRunner()
    src = out_dir / "src"
    src.mkdir(parents=True, exist_ok=True)

    modules = sorted(set(project.tree.mapping.values()) | {SHARED_MODULE})
    # parent module files declare their children
    children: dict[str, set[str]] = {}
    for module in modules:
        parts = module.split("::")
        for i in range(1, len(parts)):
            parent = "::".join(parts[:i])
            children.setdefault(parent, set()).add(parts[i])

    lib_lines = [CRATE_ALLOWS, ""]
    for child in sorted(children.get("crate", set())):
        lib_lines.append(f"pub mod {child};")
    (src / "lib.rs").write_text("\n".join(lib_lines) + "\n", encoding="utf-8")

    for parent, kids in sorted(children.items()):
        if parent == "crate":
            continue
        pfile = module_rel_file(parent)
        content = "\n".join(f"pub mod {k};" for k in sorted(kids)) + "\n"
        if parent in modules:
            content += "\n" + render_module(project, parent)
        path = out_dir / pfile
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")

    for module in modules:
        if module in children:
            continue  # already written with child declarations
        path = out_dir / module_rel_file(module)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_module(project, module), encoding="utf-8")

    manifest = (
        "[package]\n"
        f'name = "{project.config.crate_name}"\n'
        'version = "0.1.0"\n'
        'edition = "2021"\n'
    )
    (out_dir / "Cargo.toml").write_text(manifest, encoding="utf-8")

    mapping_doc = {
        "crate": project.config.crate_name,
        "modules": dict(sorted(project.tree.mapping.items())),
        "symbols": {
            stub.qualified_name: {
                "c_file": project.tree.reverse.get(stub.module, ""),
                "c_name": stub.origin.name,
                "kind": "function",
            }
            for stub in project.stubs
        },
    }
    for t in project.types:
        mapping_doc["symbols"][f"{t.module}::{t.name}"] = {
            "c_name": t.origin.name,
            "kind": "type",
        }
    for s in project.statics:
        mapping_doc["symbols"][f"{s.module}::{s.name}"] = {
            "c_name": s.origin.name,
            "kind": "static",
        }
    (out_dir / "mapping.json").write_text(
        json.dumps(mapping_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    outcome = runner.build(out_dir)
    if not outcome.ok:
        raise SkeletonBuildError(
            "skeleton failed to compile (compile-before-bodies violated):\n"
            + render_diagnostics(outcome.errors, limit=10),
            diagnostics=outcome.errors,
        )

    project.workspace_dir = out_dir
    save_project(project, out_dir)
    return project


# --- persistence across CLI invocations --------------------------------------


SKELETON_FORMAT = {"format": "rustport-skeleton", "version": 4}

_field_types = functools.cache(get_type_hints)  # one entry per record class


def _to_json(value):
    """Record dataclasses to JSON values: tuples become lists, sets sorted lists."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, set):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    return value


def _from_json(hint, value):
    """The inverse of ``_to_json``, guided by the record classes' annotations."""
    if is_dataclass(hint):
        hints = _field_types(hint)
        return hint(**{k: _from_json(hints[k], v) for k, v in value.items()})
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        return None if value is None else _from_json(args[0], value)
    if origin in (list, set):
        return origin(_from_json(args[0], v) for v in value)
    if origin is tuple:
        return tuple(_from_json(a, v) for a, v in zip(args, value, strict=True))
    if origin is dict:
        return {k: _from_json(args[1], v) for k, v in value.items()}
    return value


def save_project(project: SkeletonProject, out_dir) -> None:
    """Write the whole project record to ``.rustport/skeleton.json``."""
    record = _to_json(project)
    del record["workspace_dir"]
    meta = Path(out_dir) / ".rustport"
    meta.mkdir(parents=True, exist_ok=True)
    (meta / "skeleton.json").write_text(
        json.dumps({**SKELETON_FORMAT, "project": record}, indent=2) + "\n", encoding="utf-8"
    )


def load_project(out_dir) -> SkeletonProject:
    """Read the project record back; it equals the one that was saved."""
    path = Path(out_dir) / ".rustport" / "skeleton.json"
    if not path.is_file():
        raise SkeletonError(f"no skeleton metadata at {path}; run the skeleton step first")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if {k: doc.get(k) for k in SKELETON_FORMAT} != SKELETON_FORMAT:
            raise ValueError(f"no {SKELETON_FORMAT} header")
        project = _from_json(SkeletonProject, doc["project"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SkeletonError(
            f"{path}: unreadable skeleton metadata ({exc}); re-run `rustport skeleton`"
        ) from exc
    project.workspace_dir = Path(out_dir)
    return project
