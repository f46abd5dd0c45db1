"""Symbol extraction from preprocessed C translation units.

A restricted declaration grammar is parsed natively: records, unions, enums,
typedefs, function declarators (pointers, arrays, function pointers), and
globals. Expression parsing is limited to identifier harvesting, which is all
reference collection needs. Declarations originating outside the project root
(system headers pulled in by the real build) are not emitted; only their type
names are harvested so project declarations referring to them still parse.
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
    external_refs: set[str] = field(default_factory=set)
    partial: bool = False
    issues: list[str] = field(default_factory=list)
    env_types: set[str] = field(default_factory=set)
    # object-like literal macros of the unit's main file: (name, value)
    macro_constants: list[tuple[str, object]] = field(default_factory=list)
    # those of the project headers it included: (resolved header, line, name, value)
    header_constants: list[tuple[Path, int, str, object]] = field(default_factory=list)


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


def _harvest_env_names(text_chunk: str, env_types: set[str]) -> None:
    for m in _ENV_TYPEDEF_RE.finditer(text_chunk):
        env_types.add(m.group(1))
    for m in _ENV_FNPTR_TYPEDEF_RE.finditer(text_chunk):
        env_types.add(m.group(1))
    for m in _ENV_TAG_RE.finditer(text_chunk):
        env_types.add(m.group(1))


class _Parser:
    def __init__(self, toks: list[_Tok], table: SymbolTable):
        self.toks = toks
        self.pos = 0
        self.table = table
        self.typedefs: set[str] = set(KNOWN_ENV_TYPEDEFS) | set(table.env_types)
        self.enum_constants: set[str] = set()
        self.anon_counter = 0
        self._decl_start: Optional[_Tok] = None
        # defined function -> (its first token, its body's closing brace)
        self.extents: dict[str, tuple[_Tok, _Tok]] = {}

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

    def recover_to_semicolon(self) -> None:
        depth = 0
        while True:
            t = self.next()
            if t is None:
                return
            if t.text in "({[":
                depth += 1
            elif t.text in ")}]":
                depth -= 1
            elif t.text == ";" and depth <= 0:
                return

    # --- top level ------------------------------------------------------

    def parse(self) -> None:
        while self.peek() is not None:
            start = self.pos
            try:
                self.parse_external_decl()
            except _Unsupported as exc:
                tok = exc.tok or self.peek(-1)
                self.table.partial = True
                self.table.issues.append(f"{exc.construct} at {self.loc(tok)}")
                logger.warning("unsupported construct: %s at %s", exc.construct, self.loc(tok))
                if self.pos == start:
                    self.next()
                self.recover_to_semicolon()

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
                    init = " ".join(t.text for t in self.capture_expr((",", ";")))
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
                self.enum_constants.add(et.text)
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
        """Read the tokens up to one of ``stops`` as an integer literal."""
        toks = self.capture_expr(stops)
        value = read_literal(" ".join(t.text for t in toks))
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

    def parse_declarator(self, base: str, base_const: bool) -> "_Declarator":
        ptr = 0
        while self.at("*"):
            self.next()
            ptr += 1
            while True:
                t = self.peek()
                if t is not None and (t.text in TYPE_QUALIFIERS or t.text == "const"):
                    self.next()
                else:
                    break
        self.skip_attributes()

        name: Optional[str] = None
        inner_ptr = 0
        t = self.peek()
        if t is not None and t.text == "(" and self._looks_like_fnptr():
            self.next()  # (
            while self.at("*"):
                self.next()
                inner_ptr += 1
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
        # a definition supersedes any earlier prototype of the same name
        if defined:
            self.table.functions = [f for f in self.table.functions if f.name != fn.name]
            self.table.functions.append(fn)
        elif not any(f.name == fn.name for f in self.table.functions):
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


def read_literal(text: str) -> int | float | str | None:
    """The value of one C literal, or None if ``text`` is anything else.

    An optional sign and enclosing parentheses are accepted around decimal,
    hex or octal integers with ``uUlL`` suffixes, character literals (the
    value of a signed char, as ``char`` lowers to ``i8``; simple, octal and
    two-digit hex escapes), floats, and string literals (their text between
    the quotes, escapes as written; never signed).
    """
    body = _unparen(text)
    sign = body[:1] if body[:1] in ("-", "+") else ""
    m = _LITERAL_RE.fullmatch(_unparen(body[len(sign):]))
    if m is None or sign and m.lastgroup == "str":
        return None
    if m.lastgroup == "str":
        return m.group("str")
    if m.lastgroup == "float":
        value = float(m.group("float").rstrip("fFlL"))
    elif m.lastgroup == "int":
        digits = m.group("int").rstrip("uUlL")
        value = int(digits, 16 if digits[1:2] in ("x", "X") else 8 if digits[0] == "0" else 10)
    else:  # the escapes the pattern admits mean the same in Python
        char = m.group("char")
        value = ord(codecs.decode(char, "unicode_escape") if char[0] == "\\" else char)
        value -= 256 if 127 < value < 256 else 0  # a (signed) char's value, as C's lowers
    return -value if sign == "-" else value


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
    # declarator list until ';' at depth 0; identifiers before '=' are locals
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
            if depth == 0 and expecting_name:
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


def extract_symbols(unit: PreprocessedUnit, project_root) -> SymbolTable:
    """Categorize every project-owned top-level declaration in the unit.

    Declarations whose origin file lies outside ``project_root`` (system
    headers) only contribute type names, never emitted symbols. External
    references are computed as referenced-minus-defined. A defined function's
    source runs from its first token's line through its closing brace's line:
    original lines in the unit's main file, preprocessed lines elsewhere. The
    unit's object-like macros whose replacement is an integer, character or
    string literal become its main file's ``macro_constants`` and its project
    headers' ``header_constants``.
    """
    project_root = Path(project_root).resolve()
    main_file = str(unit.origin.command.source_path())
    try:
        original = Path(main_file).read_text(encoding="utf-8").splitlines()
    except OSError:
        original = []
    table = SymbolTable()

    base_dir = Path(unit.origin.command.directory)
    project_path = functools.cache(lambda file: _project_path(file, project_root, base_dir))

    for name, replacement, file, line in unit.defines:
        header = project_path(file)
        if header is None:
            continue  # built in, from the command line, or a system header's
        value = read_literal(replacement)
        if value is None or isinstance(value, float):
            logger.info("macro %s skipped: non-literal replacement %r", name, replacement)
        elif file == main_file:
            table.macro_constants.append((name, value))
        else:
            table.header_constants.append((header, line, name, value))

    # attribute each line through the unit's line map; lines from outside the
    # project (system headers) only feed type-name harvesting
    toks: list[_Tok] = []
    env_lines: list[str] = []
    pre_lines = unit.text.splitlines()
    for out_no, (file, line) in unit.line_map.items():
        raw = pre_lines[out_no - 1]
        if project_path(file) is None:
            env_lines.append(raw)
        else:
            for tm in _TOKEN_RE.finditer(raw):
                toks.append(_Tok(tm.group(0), tm.lastgroup or "punct", file, line, out_no))
    _harvest_env_names("\n".join(env_lines), table.env_types)

    parser = _Parser(toks, table)
    parser.parse()

    for fn in table.functions:
        if fn.defined_here:
            first, last = parser.extents[fn.name]
            if first.file == last.file == main_file and original:
                fn.source_text = "\n".join(original[first.line - 1 : last.line])
            else:
                fn.source_text = "\n".join(pre_lines[first.row - 1 : last.row])
    _compute_external_refs(table, parser)
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


def _compute_external_refs(table: SymbolTable, parser: _Parser) -> None:
    defined: set[str] = set()
    defined.update(t.name for t in table.types)
    defined.update(f.name for f in table.functions)
    defined.update(g.name for g in table.globals)
    defined.update(parser.enum_constants)

    referenced: set[str] = set()
    for fn in table.functions:
        referenced |= fn.calls | fn.value_refs
    referenced.update(
        name
        for ct in declared_types(table)
        for name in base_names(ct)
        if not PRIMITIVE_WORDS.issuperset(name.split())
    )
    table.external_refs = {
        r for r in referenced - defined - C_KEYWORDS - KNOWN_ENV_TYPEDEFS if r
    }


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
