"""Symbol extraction from preprocessed C translation units.

A restricted declaration grammar is parsed natively: records, unions, enums,
typedefs, function declarators (pointers, arrays, function pointers), and
globals. Expression parsing is limited to identifier harvesting, which is all
reference collection needs. Declarations originating outside the project root
(system headers pulled in by the real build) are not emitted; only their type
names are harvested so project declarations referring to them still parse.

``extract_symbols`` is the one reader of the preprocessor's output. It walks
the rows once: a line marker sets the file and line the rows after it come
from, a ``-dD`` definition in a project file may give a named constant, and a
code row is either tokenized for the parser or, from a system header, kept for
the type-name harvest.

The units of one build include the same headers. ``SharedHeaders`` does the
work that depends only on those headers once for all of a build's units:
classifying each line-marker file as project or system, and harvesting each
distinct system-header text. ``skeleton.plan_skeleton`` owns one per plan.
"""

from __future__ import annotations

import codecs
import functools
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .buildctx import PreprocessedUnit
from .errors import PreprocessError

logger = logging.getLogger(__name__)

C_KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if", "inline",
    "int", "long", "register", "restrict", "return", "short", "signed",
    "sizeof", "static", "struct", "switch", "typedef", "union", "unsigned",
    "void", "volatile", "while", "_Bool", "_Noreturn", "_Static_assert",
    "_Alignof", "_Alignas", "_Atomic", "_Thread_local",
}

PRIMITIVE_WORDS = {
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "_Bool",
}

TYPE_QUALIFIERS = {"const", "volatile", "restrict", "_Atomic", "__restrict", "__restrict__"}
STORAGE_WORDS = {"static", "extern", "typedef", "register", "auto", "_Thread_local"}
SKIP_WORDS = {"inline", "_Noreturn", "__inline", "__inline__", "__extension__", "__signed__"}

# well-known aliases that may come from skipped system headers
KNOWN_ENV_TYPEDEFS = {
    "size_t", "ssize_t", "ptrdiff_t", "intptr_t", "uintptr_t", "wchar_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
}


_TAGS = ("struct", "union", "enum")


@dataclass
class CType:
    """A parsed C type. A function pointer has the base ``<fn>``, one level
    of pointer, and its signature in ``func``; ``const`` qualifies the base."""

    base: str  # "int", "unsigned long", "struct Foo", "Foo", "void", "<fn>"
    pointer_depth: int = 0
    array_dims: list[int] = field(default_factory=list)
    const: bool = False
    func: Optional["CFuncSig"] = None

    @property
    def name(self) -> str:
        """The base without its struct/union/enum tag."""
        tag, _, rest = self.base.partition(" ")
        return rest if tag in _TAGS else self.base


@dataclass
class CFuncSig:
    params: list[CType]
    ret: CType
    variadic: bool = False


def base_names(ct: CType) -> Iterator[str]:
    """The tag-stripped base names a type refers to, in declaration order: a
    function pointer's return type first, then its parameters."""
    if ct.func is None:
        yield ct.name
        return
    yield from base_names(ct.func.ret)
    for p in ct.func.params:
        yield from base_names(p)


@dataclass
class CTypeDef:
    """One C type definition in declaration order.

    Records and unions list their members as (name, type, bit width); an
    alias has the single member ("", target type, None); an enumeration
    lists its enumerators as (name, value) instead.
    """

    name: str
    kind: str  # record | union | enumeration | alias
    members: list[tuple[str, CType, Optional[int]]]
    source_loc: str
    layout_sensitive: bool = False
    opaque: bool = False
    enumerators: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class CFunctionDecl:
    name: str
    return_type: CType
    params: list[tuple[Optional[str], CType]]
    variadic: bool
    storage: str  # external | internal
    defined_here: bool
    source_loc: str
    # reference harvest from the body (definitions only)
    calls: set[str] = field(default_factory=set)
    value_refs: set[str] = field(default_factory=set)
    source_text: str = ""


@dataclass
class CGlobalDecl:
    name: str
    c_type: CType
    initializer_text: Optional[str]
    storage: str  # external | internal
    mutable: bool
    source_loc: str
    is_definition: bool = True


@dataclass
class SymbolTable:
    types: list[CTypeDef] = field(default_factory=list)
    functions: list[CFunctionDecl] = field(default_factory=list)
    globals: list[CGlobalDecl] = field(default_factory=list)
    # each declaration the parser could not read: "<construct> at <file:line>"
    issues: list[str] = field(default_factory=list)
    # object-like literal macros of its project files, in the order defined:
    # (resolved project header, or None in the unit's main file, line, name, value)
    constants: list[tuple[Optional[Path], int, str, object]] = field(default_factory=list)


@dataclass
class _Tok:
    text: str
    kind: str  # ident | num | str | char | punct
    file: str
    line: int
    row: int  # line in the preprocessed text, 1-based


_TOKEN_RE = re.compile(
    r"""
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>(?:0[xX][0-9a-fA-F]+|\d+\.?\d*(?:[eE][+-]?\d+)?)[uUlLfF]*)
  | (?P<str>"(?:\\.|[^"\\])*")
  | (?P<char>'(?:\\.|[^'\\])+')
  | (?P<punct>\.\.\.|->|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+\+|--|[-+*/%&|^~!<>=?:;,.(){}\[\]])
    """,
    re.VERBOSE,
)

# GNU-style line marker: `# <line> "<file>" [flags]`
_LINE_MARKER = re.compile(r'^#\s+(\d+)\s+"([^"]*)"')
# `-dD` prints each definition as `#define NAME REPLACEMENT`, comments
# stripped and continuations joined; a `(` right after the name makes it
# function-like, and an empty replacement defines no value
_OBJECT_DEFINE = re.compile(r"#define (\w+) (.+)$")


def split_lines(text: str) -> list[str]:
    """``text`` cut where the C preprocessor ends a line: at LF, CR LF and a
    lone CR, never at the other breaks ``str.splitlines`` knows (form feed,
    U+2028, ...); a final line end opens no further line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _project_path(file: str, project_root: Path, base_dir: Path) -> Optional[Path]:
    """The resolved path of ``file`` if it lies inside ``project_root``."""
    if file.startswith("<"):
        return None
    try:
        # line markers are relative to the compiler's working directory
        p = (base_dir / file).resolve()
    except (OSError, ValueError):
        return None
    return p if p.is_relative_to(project_root) else None


_ENV_TYPEDEF_RE = re.compile(r"\btypedef\b[^;{]*?(\w+)\s*;")
_ENV_TAG_RE = re.compile(r"\b(?:struct|union|enum)\s+(\w+)")
_ENV_FNPTR_TYPEDEF_RE = re.compile(r"\btypedef\b[^;]*\(\s*\*\s*(\w+)\s*\)")


def _harvest_env_names(text_chunk: str) -> frozenset[str]:
    """The type and tag names that system-header text declares."""
    regexes = (_ENV_TYPEDEF_RE, _ENV_FNPTR_TYPEDEF_RE, _ENV_TAG_RE)
    return frozenset(m.group(1) for r in regexes for m in r.finditer(text_chunk))


class SharedHeaders:
    """The work on a build's shared headers, done once for all its units.

    The units of one build include the same system and project headers, so
    the same line-marker files recur in every unit and the same system-header
    text reaches every unit's type-name harvest. One instance remembers each
    (compiler directory, marker file) classification and each harvested text
    for as long as its owner keeps it: ``plan_skeleton`` makes one per plan.
    """

    def __init__(self) -> None:
        self._paths: dict[tuple[str, str, str], Optional[Path]] = {}
        self._env_names: dict[str, frozenset[str]] = {}

    def project_path(self, file: str, project_root: Path, base_dir: Path) -> Optional[Path]:
        """``_project_path`` of the arguments, resolved once per instance."""
        key = (str(project_root), str(base_dir), file)
        if key not in self._paths:
            self._paths[key] = _project_path(file, project_root, base_dir)
        return self._paths[key]

    def env_names(self, text: str) -> frozenset[str]:
        """The names ``text`` declares, harvested once per instance."""
        if text not in self._env_names:
            self._env_names[text] = _harvest_env_names(text)
        return self._env_names[text]


class _Parser:
    def __init__(self, toks: list[_Tok], table: SymbolTable, env_types: frozenset[str]):
        self.toks = toks
        self.pos = 0
        self.table = table
        self.typedefs: set[str] = KNOWN_ENV_TYPEDEFS | env_types
        # each enumerator declared so far -> its value
        self.enum_constants: dict[str, int] = {}
        self.anon_counter = 0
        self._decl_start: Optional[_Tok] = None
        # defined function -> (its first token, its body's closing brace)
        self.extents: dict[str, tuple[_Tok, _Tok]] = {}
        # the names in table.functions
        self.function_names: set[str] = set()

    # --- token helpers -------------------------------------------------

    def peek(self, off: int = 0) -> Optional[_Tok]:
        i = self.pos + off
        return self.toks[i] if i < len(self.toks) else None

    def next(self) -> Optional[_Tok]:
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def at(self, text: str, off: int = 0) -> bool:
        t = self.peek(off)
        return t is not None and t.text == text

    def expect(self, text: str) -> None:
        t = self.next()
        if t is None or t.text != text:
            got = t.text if t else "<eof>"
            raise _Unsupported(f"expected '{text}', got '{got}'", t)

    def loc(self, tok: Optional[_Tok]) -> str:
        if tok is None:
            return "<eof>"
        return f"{tok.file}:{tok.line}"

    def skip_balanced(self, open_t: str, close_t: str) -> list[_Tok]:
        """Consume from the current open token through its match; return span."""
        span: list[_Tok] = []
        depth = 0
        while True:
            t = self.next()
            if t is None:
                raise _Unsupported(f"unbalanced '{open_t}'", None)
            span.append(t)
            if t.text == open_t:
                depth += 1
            elif t.text == close_t:
                depth -= 1
                if depth == 0:
                    return span

    def skip_attributes(self) -> None:
        while True:
            t = self.peek()
            if t is None:
                return
            if t.text in ("__attribute__", "__attribute", "__declspec", "_Alignas"):
                self.next()
                if self.at("("):
                    self.skip_balanced("(", ")")
                continue
            if t.text in ("__asm__", "__asm", "asm") and self.at("(", 1):
                self.next()
                self.skip_balanced("(", ")")
                continue
            return

    def skip_declaration(self, start: int) -> None:
        """Skip the declaration that begins at token ``start``: through its
        ``;``, or through the closing brace of a function body."""
        self.pos = start
        depth = 0
        body = False
        prev = ""
        while (t := self.next()) is not None:
            if t.text in "({[":
                body |= depth == 0 and t.text == "{" and prev == ")"
                depth += 1
            elif t.text in ")}]":
                depth -= 1
                if body and depth == 0:
                    return
            elif t.text == ";" and depth <= 0:
                return
            prev = t.text

    # --- top level ------------------------------------------------------

    def parse(self) -> None:
        while self.peek() is not None:
            start = self.pos
            try:
                self.parse_external_decl()
            except _Unsupported as exc:
                tok = exc.tok or self.peek(-1)
                self.table.issues.append(f"{exc.construct} at {self.loc(tok)}")
                self.skip_declaration(start)

    def parse_external_decl(self) -> None:
        self.skip_attributes()
        t = self.peek()
        self._decl_start = t
        if t is None:
            return
        if t.text == ";":
            self.next()
            return
        if t.text == "_Static_assert":
            self.next()
            if self.at("("):
                self.skip_balanced("(", ")")
            if self.at(";"):
                self.next()
            return

        storage = "external"
        is_typedef = False
        is_extern = False
        while True:
            self.skip_attributes()
            t = self.peek()
            if t is None:
                return
            if t.text in STORAGE_WORDS:
                if t.text == "static":
                    storage = "internal"
                elif t.text == "extern":
                    is_extern = True
                elif t.text == "typedef":
                    is_typedef = True
                self.next()
                continue
            if t.text in SKIP_WORDS or t.text in TYPE_QUALIFIERS and t.text != "const":
                self.next()
                continue
            break

        is_const, base = self.parse_base_type()
        self.skip_attributes()

        if self.at(";"):
            self.next()
            return  # bare type definition or forward declaration

        first = True
        while True:
            decl = self.parse_declarator(base, is_const)
            self.skip_attributes()
            if decl.is_function and self.at("{") and first:
                body = self.skip_balanced("{", "}")
                self.make_function(decl, storage, defined=True, body=body)
                return
            if decl.is_function:
                self.make_function(decl, storage, defined=False, body=None)
            else:
                init = None
                if self.at("="):
                    self.next()
                    toks = self.capture_expr((",", ";"))
                    init = " ".join(t.text for t in toks)
                    if decl.ctype.array_dims[:1] == [0]:
                        decl.ctype.array_dims[0] = _initializer_length(toks)
                self.make_global(decl, storage, is_extern, is_typedef, init)
            first = False
            if self.at(","):
                self.next()
                continue
            self.expect(";")
            return

    # --- specifiers -----------------------------------------------------

    def parse_base_type(self) -> tuple[bool, str]:
        """Return (const, base name): a canonical primitive, a tagged name or a
        typedef name."""
        is_const = False
        words: list[str] = []
        while True:
            self.skip_attributes()
            t = self.peek()
            if t is None:
                raise _Unsupported("truncated declaration", None)
            if t.text == "const":
                is_const = True
                self.next()
                continue
            if t.text in TYPE_QUALIFIERS or t.text in SKIP_WORDS:
                self.next()
                continue
            if t.text in ("struct", "union"):
                return is_const, self.parse_record(t.text)
            if t.text == "enum":
                return is_const, self.parse_enum()
            if t.text in PRIMITIVE_WORDS:
                words.append(t.text)
                self.next()
                while True:
                    nxt = self.peek()
                    if nxt is not None and nxt.text in PRIMITIVE_WORDS:
                        words.append(nxt.text)
                        self.next()
                    elif nxt is not None and nxt.text == "const":
                        is_const = True
                        self.next()
                    else:
                        break
                return is_const, _canon_primitive(words)
            if t.kind == "ident" and t.text not in C_KEYWORDS:
                # typedef name (possibly harvested from the environment)
                self.next()
                return is_const, t.text
            raise _Unsupported(f"unrecognized type specifier '{t.text}'", t)

    def parse_record(self, keyword: str) -> str:
        kw_tok = self.next()  # struct | union
        assert kw_tok is not None
        self.skip_attributes()
        tag = None
        t = self.peek()
        if t is not None and t.kind == "ident" and t.text not in C_KEYWORDS:
            tag = t.text
            self.next()
        self.skip_attributes()
        if self.at("{"):
            name = tag or self.synth_anon_name(kw_tok)
            members, has_bits = self.parse_member_list()
            self.table.types.append(
                CTypeDef(
                    name=name,
                    kind="record" if keyword == "struct" else "union",
                    members=members,
                    source_loc=self.loc(kw_tok),
                    layout_sensitive=has_bits,
                )
            )
            return f"{keyword} {name}"
        if tag is None:
            raise _Unsupported(f"anonymous {keyword} without body", kw_tok)
        return f"{keyword} {tag}"

    def parse_member_list(self) -> tuple[list[tuple[str, CType, Optional[int]]], bool]:
        self.expect("{")
        members: list[tuple[str, CType, Optional[int]]] = []
        has_bits = False
        while not self.at("}"):
            self.skip_attributes()
            if self.at(";"):
                self.next()
                continue
            is_const, base = self.parse_base_type()
            if self.at(";"):
                # anonymous member (C11 anonymous struct/union)
                members.append((f"anon{len(members)}", CType(base), None))
                self.next()
                continue
            while True:
                decl = self.parse_declarator(base, is_const)
                width: Optional[int] = None
                if self.at(":"):
                    self.next()
                    width = self.parse_int_literal("bit-field width", (",", ";"))
                    has_bits = True
                if decl.is_function:
                    raise _Unsupported("function member", None)
                members.append((decl.name or f"anon{len(members)}", decl.ctype, width))
                self.skip_attributes()
                if self.at(","):
                    self.next()
                    continue
                self.expect(";")
                break
        self.expect("}")
        self.skip_attributes()
        return members, has_bits

    def parse_enum(self) -> str:
        kw_tok = self.next()
        assert kw_tok is not None
        self.skip_attributes()
        tag = None
        t = self.peek()
        if t is not None and t.kind == "ident" and t.text not in C_KEYWORDS:
            tag = t.text
            self.next()
        if self.at("{"):
            name = tag or self.synth_anon_name(kw_tok)
            self.expect("{")
            enumerators: list[tuple[str, int]] = []
            next_value = 0
            while not self.at("}"):
                et = self.next()
                if et is None or et.kind != "ident":
                    raise _Unsupported("bad enumerator", et)
                value = next_value
                if self.at("="):
                    self.next()
                    value = self.parse_int_literal("enumerator value", (",", "}"))
                enumerators.append((et.text, value))
                self.enum_constants[et.text] = value
                next_value = value + 1
                if self.at(","):
                    self.next()
            self.expect("}")
            self.table.types.append(
                CTypeDef(
                    name=name,
                    kind="enumeration",
                    members=[],
                    source_loc=self.loc(kw_tok),
                    enumerators=enumerators,
                )
            )
            return f"enum {name}"
        if tag is None:
            raise _Unsupported("anonymous enum without body", kw_tok)
        return f"enum {tag}"

    def parse_int_literal(self, what: str, stops: tuple[str, ...]) -> int:
        """Read the tokens up to one of ``stops`` as an integer literal or as
        an enumerator the unit declared earlier."""
        toks = self.capture_expr(stops)
        value = read_literal(" ".join(t.text for t in toks), self.enum_constants)
        if not isinstance(value, int):
            raise _Unsupported(f"non-literal {what}", toks[0] if toks else self.peek())
        return value

    def synth_anon_name(self, tok: _Tok) -> str:
        self.anon_counter += 1
        stem = re.sub(r"\W", "_", Path(tok.file).stem) or "unit"
        name = f"Anon_{stem}_{self.anon_counter}"
        logger.info("synthesized name %s for anonymous type at %s", name, self.loc(tok))
        return name

    # --- declarators ----------------------------------------------------

    def pointers(self) -> int:
        """Consume each ``*`` with the qualifiers after it; the number of
        pointer levels read."""
        depth = 0
        while self.at("*"):
            self.next()
            depth += 1
            while (t := self.peek()) is not None and t.text in TYPE_QUALIFIERS:
                self.next()
        return depth

    def parse_declarator(self, base: str, base_const: bool) -> "_Declarator":
        ptr = self.pointers()
        self.skip_attributes()

        name: Optional[str] = None
        t = self.peek()
        if t is not None and t.text == "(" and self._looks_like_fnptr():
            self.next()  # (
            inner_ptr = self.pointers()
            nt = self.peek()
            if nt is not None and nt.kind == "ident" and nt.text not in C_KEYWORDS:
                name = nt.text
                self.next()
            dims = self.parse_array_dims()  # an array of callbacks: (*name[N])
            self.expect(")")
            params, variadic = self.parse_params()
            if inner_ptr != 1:
                raise _Unsupported("multi-level function pointer", t)
            ret = CType(base, ptr, const=base_const)
            sig = CFuncSig([p for _, p in params], ret, variadic)
            return _Declarator(name, CType("<fn>", 1, dims, func=sig))
        if t is not None and t.kind == "ident" and t.text not in C_KEYWORDS:
            name = t.text
            self.next()
        self.skip_attributes()

        if self.at("("):
            params, variadic = self.parse_params()
            return _Declarator(
                name=name,
                ctype=CType(base, ptr, const=base_const),
                is_function=True,
                params=params,
                variadic=variadic,
            )
        return _Declarator(name, CType(base, ptr, self.parse_array_dims(), base_const))

    def _looks_like_fnptr(self) -> bool:
        return self.at("(") and (self.at("*", 1) or self.at("*", 2))

    def parse_array_dims(self) -> list[int]:
        dims: list[int] = []
        while self.at("["):
            self.next()
            if self.at("]"):
                dims.append(0)  # incomplete array
            else:
                dims.append(self.parse_int_literal("array dimension", ("]",)))
            self.expect("]")
        return dims

    def parse_params(self) -> tuple[list[tuple[Optional[str], CType]], bool]:
        self.expect("(")
        params: list[tuple[Optional[str], CType]] = []
        variadic = False
        if self.at(")"):
            self.next()
            return params, variadic
        while True:
            if self.at("..."):
                self.next()
                variadic = True
                break
            first = self.peek()
            is_const, base = self.parse_base_type()
            decl = self.parse_declarator(base, is_const)
            ctype = decl.ctype
            if ctype.array_dims:
                # C passes a pointer to the first element; CType cannot express
                # one to a callback or to an inner array
                if ctype.func is not None:
                    raise _Unsupported("array of function pointers as a parameter", first)
                if len(ctype.array_dims) > 1:
                    raise _Unsupported("multi-dimensional array parameter", first)
                ctype = CType(ctype.base, ctype.pointer_depth + 1, const=ctype.const)
            if decl.is_function:
                # function-typed parameter decays to a function pointer
                sig = CFuncSig([p for _, p in decl.params], ctype, decl.variadic)
                ctype = CType("<fn>", 1, func=sig)
            if ctype != CType("void") or decl.name is not None:
                params.append((decl.name, ctype))
            if self.at(","):
                self.next()
                continue
            break
        self.expect(")")
        return params, variadic

    def capture_expr(self, stops: tuple[str, ...]) -> list[_Tok]:
        """Consume the tokens before the first of ``stops`` outside brackets."""
        parts: list[_Tok] = []
        depth = 0
        while True:
            t = self.peek()
            if t is None or depth == 0 and t.text in stops:
                break
            if t.text in "({[":
                depth += 1
            elif t.text in ")}]":
                depth -= 1
            parts.append(t)
            self.next()
        return parts

    # --- result construction ---------------------------------------------

    def make_function(
        self,
        decl: "_Declarator",
        storage: str,
        defined: bool,
        body: Optional[list[_Tok]],
    ) -> None:
        if decl.name is None:
            raise _Unsupported("unnamed function declarator", None)
        tok = self._decl_start or self.peek(-1)
        fn = CFunctionDecl(
            name=decl.name,
            return_type=decl.ctype,
            params=decl.params,
            variadic=decl.variadic,
            storage=storage,
            defined_here=defined,
            source_loc=self.loc(tok),
        )
        if body is not None:
            calls, values = _harvest_body_refs(body, self.typedefs)
            param_names = {p[0] for p in decl.params if p[0]}
            # calls through function-pointer parameters are indirect call sites
            fn.calls = calls - {decl.name} - param_names
            fn.value_refs = values - param_names - {decl.name}
            self.extents[fn.name] = (tok, body[-1])
        self.add_function(fn)

    def add_function(self, fn: CFunctionDecl) -> None:
        """List ``fn`` once per name: a definition takes the place of an
        earlier declaration of its name, at the end of the list; any other
        redeclaration is dropped."""
        if fn.name in self.function_names:
            if not fn.defined_here:
                return
            self.table.functions = [f for f in self.table.functions if f.name != fn.name]
        self.function_names.add(fn.name)
        self.table.functions.append(fn)

    def make_global(
        self,
        decl: "_Declarator",
        storage: str,
        is_extern: bool,
        is_typedef: bool,
        init: Optional[str],
    ) -> None:
        if decl.name is None:
            raise _Unsupported("unnamed declarator", None)
        tok = self._decl_start or self.peek(-1)
        if is_typedef:
            self.typedefs.add(decl.name)
            self.table.types.append(
                CTypeDef(
                    name=decl.name,
                    kind="alias",
                    members=[("", decl.ctype, None)],
                    source_loc=self.loc(tok),
                )
            )
            return
        # only a top-level const (no pointer declarator) makes the object itself
        # immutable; `const char *` is a mutable pointer to const data
        mutable = not (decl.ctype.const and not decl.ctype.pointer_depth)
        self.table.globals.append(
            CGlobalDecl(
                name=decl.name,
                c_type=decl.ctype,
                initializer_text=init,
                storage="internal" if storage == "internal" else "external",
                mutable=mutable,
                source_loc=self.loc(tok),
                is_definition=not (is_extern and init is None),
            )
        )


@dataclass
class _Declarator:
    """A declared name and its type; a function declarator's type is its
    return type."""

    name: Optional[str]
    ctype: CType
    is_function: bool = False
    params: list[tuple[Optional[str], CType]] = field(default_factory=list)
    variadic: bool = False


class _Unsupported(Exception):
    def __init__(self, construct: str, tok: Optional[_Tok]):
        self.construct = construct
        self.tok = tok
        super().__init__(construct)


def _canon_primitive(words: list[str]) -> str:
    order = {"signed": 0, "unsigned": 0, "long": 2, "short": 1}
    words = sorted(words, key=lambda w: (order.get(w, 3), w == "int"))
    text = " ".join(words)
    aliases = {
        "signed": "int",
        "signed int": "int",
        "unsigned": "unsigned int",
        "short int": "short",
        "short short": "short",
        "signed short int": "short",
        "signed short": "short",
        "unsigned short int": "unsigned short",
        "long int": "long",
        "signed long int": "long",
        "signed long": "long",
        "unsigned long int": "unsigned long",
        "long long int": "long long",
        "signed long long int": "long long",
        "signed long long": "long long",
        "unsigned long long int": "unsigned long long",
        "signed char": "signed char",
    }
    return aliases.get(text, text)


_LITERAL_RE = re.compile(
    r"""
    (?P<int>(?:0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*)[uUlL]*)
  | (?P<float>(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)[fFlL]?)
  | "(?P<str>(?:\\.|[^"\\])*)"
  | '(?P<char>[^'\\]|\\(?:[0-7]{1,3}|x[0-9a-fA-F]{2}|[abfnrtv'"\\]))'
    """,
    re.VERBOSE,
)


def _unparen(text: str) -> str:
    text = text.strip()
    while text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    return text


def read_literal(
    text: str, enumerators: Optional[dict[str, int]] = None
) -> int | float | str | None:
    """The value of one C literal or of one of ``enumerators``, or None if
    ``text`` is anything else.

    An optional sign and enclosing parentheses are accepted around an
    enumerator's name, decimal, hex or octal integers with ``uUlL`` suffixes,
    character literals (the value of a signed char, as ``char`` lowers to
    ``i8``; simple, octal and two-digit hex escapes), floats, and string
    literals (their text between the quotes, escapes as written; never signed).
    """
    body = _unparen(text)
    sign = body[:1] if body[:1] in ("-", "+") else ""
    body = _unparen(body[len(sign):])
    m = _LITERAL_RE.fullmatch(body)
    if enumerators and body in enumerators:
        value = enumerators[body]
    elif m is None or sign and m.lastgroup == "str":
        return None
    elif m.lastgroup == "str":
        return m.group("str")
    elif m.lastgroup == "float":
        value = float(m.group("float").rstrip("fFlL"))
    elif m.lastgroup == "int":
        digits = m.group("int").rstrip("uUlL")
        value = int(digits, 16 if digits[1:2] in ("x", "X") else 8 if digits[0] == "0" else 10)
    else:  # the escapes the pattern admits mean the same in Python
        char = m.group("char")
        value = ord(codecs.decode(char, "unicode_escape") if char[0] == "\\" else char)
        value -= 256 if 127 < value < 256 else 0  # a (signed) char's value, as C's lowers
    return -value if sign == "-" else value


def string_bytes(text: str) -> bytes:
    """The bytes of a string literal's text (as ``read_literal`` returns it),
    its escapes decoded, without the terminating NUL."""
    return text.encode("utf-8").decode("unicode_escape", "replace").encode("latin-1", "replace")


def _initializer_length(toks: list[_Tok]) -> int:
    """The element count an initializer gives an incomplete array: a string's
    bytes plus the NUL, or a flat brace list's items; 0 for anything else."""
    value = read_literal(" ".join(t.text for t in toks))
    if isinstance(value, str):
        return len(string_bytes(value)) + 1
    inner = toks[1:-1]
    if not inner or toks[0].text + toks[-1].text != "{}" or any(t.text in "{}[]" for t in inner):
        return 0
    return sum(t.text == "," for t in inner) + (inner[-1].text != ",")


_STATEMENT_TERMINATORS = {";", "{", "}"}


def _harvest_body_refs(body: list[_Tok], typedefs: set[str]) -> tuple[set[str], set[str]]:
    """Collect call-position identifiers and other value identifiers.

    Local declarations are tracked with a statement-start heuristic so locals
    are not reported as external references.
    """
    calls: set[str] = set()
    values: set[str] = set()
    locals_: set[str] = set()
    n = len(body)
    i = 0
    stmt_start = True
    while i < n:
        t = body[i]
        if t.text in _STATEMENT_TERMINATORS:
            stmt_start = True
            i += 1
            continue
        if t.text == "(" and i > 0 and body[i - 1].text == "for":
            stmt_start = True
            i += 1
            continue
        if stmt_start and _starts_declaration(body, i, typedefs):
            i = _consume_local_declaration(body, i, typedefs, locals_, calls, values)
            stmt_start = False
            continue
        stmt_start = False
        if t.kind == "ident" and t.text not in C_KEYWORDS:
            prev = body[i - 1].text if i > 0 else ""
            nxt = body[i + 1].text if i + 1 < n else ""
            if prev in (".", "->"):
                i += 1
                continue  # member access, not a symbol reference
            if nxt == "(":
                calls.add(t.text)
            else:
                values.add(t.text)
        i += 1
    values -= locals_
    calls -= locals_
    return calls, values


def _starts_declaration(body: list[_Tok], i: int, typedefs: set[str]) -> bool:
    t = body[i]
    if t.text in PRIMITIVE_WORDS or t.text in ("struct", "union", "enum"):
        return True
    if t.text in ("const", "static", "register", "volatile", "unsigned", "signed"):
        return True
    if t.kind == "ident" and t.text in typedefs:
        nxt = body[i + 1] if i + 1 < len(body) else None
        if nxt is not None and (nxt.text == "*" or nxt.kind == "ident"):
            return True
    return False


def _consume_local_declaration(
    body: list[_Tok],
    i: int,
    typedefs: set[str],
    locals_: set[str],
    calls: set[str],
    values: set[str],
) -> int:
    n = len(body)
    # skip specifier tokens
    while i < n and (
        body[i].text in PRIMITIVE_WORDS
        or body[i].text in ("struct", "union", "enum", "const", "static", "register", "volatile")
        or (body[i].kind == "ident" and body[i].text in typedefs)
    ):
        if body[i].text in ("struct", "union", "enum") and i + 1 < n and body[i + 1].kind == "ident":
            i += 1  # the tag
        i += 1
    # declarator list until ';' at depth 0; a declarator's name is its first
    # identifier at depth 0, or the one after '(' and '*'s: `int (*fp)(int)`
    depth = 0
    expecting_name = True
    while i < n:
        t = body[i]
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
            if depth < 0:
                return i
        elif depth == 0 and t.text == ";":
            return i
        elif depth == 0 and t.text == ",":
            expecting_name = True
        elif depth == 0 and t.text == "=":
            expecting_name = False
        elif t.kind == "ident" and t.text not in C_KEYWORDS:
            if expecting_name and (depth == 0 or _names_pointer_declarator(body, i)):
                locals_.add(t.text)
                expecting_name = False
            else:
                nxt = body[i + 1].text if i + 1 < n else ""
                prev = body[i - 1].text if i > 0 else ""
                if prev not in (".", "->"):
                    if nxt == "(":
                        calls.add(t.text)
                    else:
                        values.add(t.text)
        elif t.text == "*":
            pass  # pointer declarator, keep expecting a name
        i += 1
    return i


def _names_pointer_declarator(body: list[_Tok], i: int) -> bool:
    """Whether ``body[i]`` follows '(' and one or more '*'s."""
    j = i - 1
    while j >= 0 and body[j].text == "*":
        j -= 1
    return j < i - 1 and j >= 0 and body[j].text == "("


def extract_symbols(
    unit: PreprocessedUnit, project_root, shared: Optional[SharedHeaders] = None
) -> SymbolTable:
    """Categorize every project-owned top-level declaration in the unit.

    One pass over the preprocessor's rows reads every line marker, definition
    and line of code. Declarations whose origin file lies outside
    ``project_root`` (system headers) only contribute type names, never
    emitted symbols. A declaration the parser cannot read is skipped and
    listed in ``issues``. A defined function's source runs from its first
    token's line through its closing brace's line: original lines in the
    unit's main file, preprocessed lines elsewhere, with each directive row
    among them blank; both are counted as the preprocessor counts them
    (``split_lines``). The object-like macros of the unit's project files
    whose replacement is an integer, character or string literal become its
    ``constants``.

    ``shared`` carries the header work of the unit's build across its units;
    without one, the unit's header work is done for it alone. A main file
    that is not UTF-8 is a ``PreprocessError``.
    """
    project_root = Path(project_root).resolve()
    shared = shared or SharedHeaders()
    main_file = str(unit.origin.command.source_path())
    try:
        original = split_lines(Path(main_file).read_text(encoding="utf-8"))
    except OSError:
        original = []
    except UnicodeDecodeError as exc:
        source = unit.origin.command.source_file
        raise PreprocessError(f"{source}: source is not UTF-8: {exc}") from exc
    table = SymbolTable()

    base_dir = Path(unit.origin.command.directory)
    project_path = functools.cache(lambda file: shared.project_path(file, project_root, base_dir))

    toks: list[_Tok] = []
    env_rows: list[str] = []
    rows = split_lines(unit.text)
    file = main_file
    # each row after a marker is one origin line further on, so a row's
    # origin line is its row plus the offset the last marker set
    offset = 0
    for row, text in enumerate(rows, start=1):
        if not text:
            continue
        if text[0] != "#":
            if text.isspace():
                continue
            # lines from outside the project (system headers) only feed
            # type-name harvesting
            if project_path(file) is None:
                env_rows.append(text)
            else:
                for tm in _TOKEN_RE.finditer(text):
                    toks.append(_Tok(tm.group(0), tm.lastgroup or "punct", file, row + offset, row))
            continue
        # a directive reads as a blank line in a function's source
        rows[row - 1] = ""
        if text[1:2].isspace():
            m = _LINE_MARKER.match(text)
            if m:
                # the marker names the origin line of the row after it
                offset = int(m.group(1)) - row - 1
                file = m.group(2)
        # built-in and command-line definitions are never a project file's
        elif text.startswith("#define ") and not file.startswith("<"):
            m = _OBJECT_DEFINE.match(text)
            if m and (header := project_path(file)) is not None:
                name, replacement = m.groups()
                value = read_literal(replacement)
                if value is None or isinstance(value, float):
                    logger.info("macro %s skipped: non-literal replacement %r", name, replacement)
                else:
                    header = None if file == main_file else header
                    table.constants.append((header, row + offset, name, value))
    parser = _Parser(toks, table, shared.env_names("\n".join(env_rows)))
    parser.parse()

    for fn in table.functions:
        if fn.defined_here:
            first, last = parser.extents[fn.name]
            if first.file == last.file == main_file and original:
                fn.source_text = "\n".join(original[first.line - 1 : last.line])
            else:
                fn.source_text = "\n".join(rows[first.row - 1 : last.row])
    return table


# literals and comments a C brace matcher skips, or a brace
_C_BRACE_RE = re.compile(
    r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|//[^\n]*|/\*.*?\*/|[{}]', re.S
)


def match_c_brace(text: str, start: int = 0) -> Optional[int]:
    """The index of the ``}`` that closes the first ``{`` at or after
    ``start``, skipping string and char literals and comments; None if it
    never closes."""
    depth = 0
    for m in _C_BRACE_RE.finditer(text, start):
        if m.group() == "{":
            depth += 1
        elif m.group() == "}" and depth:
            depth -= 1
            if not depth:
                return m.start()
    return None


def declared_types(table: SymbolTable) -> Iterator[CType]:
    """Every type the table's declarations name: signatures, members, alias
    targets and globals."""
    for fn in table.functions:
        yield from (ptype for _, ptype in fn.params)
        yield fn.return_type
    for t in table.types:
        yield from (mtype for _, mtype, _ in t.members)
    for g in table.globals:
        yield g.c_type
