"""C type texts: parsing, LP64 layout computation, and Rust lowering.

Canonical type texts produced by symbol extraction ("unsigned int *",
"char [16]", "int (*)(int, char *)") are parsed back into a small structural
model here. Record sizes and alignments follow the System V x86-64 rules,
including the bit-field allocation algorithm; the test suite checks them
against sizes reported by the host C compiler.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .csyms import CTypeDef
from .errors import SkeletonError


@dataclass
class CType:
    base: str                      # "int", "struct Foo", "Foo", "void", ...
    pointer_depth: int = 0
    array_dims: list[int] = field(default_factory=list)
    const: bool = False
    func: Optional["CFuncSig"] = None  # set for function-pointer types


@dataclass
class CFuncSig:
    params: list[CType]
    ret: CType
    variadic: bool = False


_FNPTR_RE = re.compile(r"^(?P<ret>.+?)\s*\(\s*\*\s*\)\s*\((?P<params>.*)\)(?P<dims>(\s*\[\d+\])*)$")
_DIM_RE = re.compile(r"\[(\d+)\]")


def parse_c_type(text: str) -> CType:
    text = text.strip()
    m = _FNPTR_RE.match(text)
    if m:
        params_text = m.group("params").strip()
        params: list[CType] = []
        if params_text and params_text != "void":
            params = [parse_c_type(p) for p in _split_params(params_text)]
        dims = [int(d) for d in _DIM_RE.findall(m.group("dims") or "")]
        return CType(
            base="<fn>",
            pointer_depth=1,
            array_dims=dims,
            func=CFuncSig(params=params, ret=parse_c_type(m.group("ret"))),
        )

    dims = [int(d) for d in _DIM_RE.findall(text)]
    text = _DIM_RE.sub("", text).strip()
    depth = 0
    while text.endswith("*"):
        depth += 1
        text = text[:-1].strip()
    const = False
    if text.startswith("const "):
        const = True
        text = text[len("const ") :].strip()
    if text.endswith(" const"):
        const = True
        text = text[: -len(" const")].strip()
    return CType(base=text or "int", pointer_depth=depth, array_dims=dims, const=const)


def _split_params(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


# base name -> (rust type, size, align) on LP64
PRIMITIVES: dict[str, tuple[str, int, int]] = {
    "char": ("i8", 1, 1),
    "signed char": ("i8", 1, 1),
    "unsigned char": ("u8", 1, 1),
    "short": ("i16", 2, 2),
    "unsigned short": ("u16", 2, 2),
    "int": ("i32", 4, 4),
    "unsigned int": ("u32", 4, 4),
    "long": ("i64", 8, 8),
    "unsigned long": ("u64", 8, 8),
    "long long": ("i64", 8, 8),
    "unsigned long long": ("u64", 8, 8),
    "float": ("f32", 4, 4),
    "double": ("f64", 8, 8),
    "_Bool": ("bool", 1, 1),
    "size_t": ("usize", 8, 8),
    "ssize_t": ("isize", 8, 8),
    "ptrdiff_t": ("isize", 8, 8),
    "intptr_t": ("isize", 8, 8),
    "uintptr_t": ("usize", 8, 8),
    "wchar_t": ("i32", 4, 4),
    "int8_t": ("i8", 1, 1),
    "int16_t": ("i16", 2, 2),
    "int32_t": ("i32", 4, 4),
    "int64_t": ("i64", 8, 8),
    "uint8_t": ("u8", 1, 1),
    "uint16_t": ("u16", 2, 2),
    "uint32_t": ("u32", 4, 4),
    "uint64_t": ("u64", 8, 8),
}

POINTER_SIZE = 8
POINTER_ALIGN = 8


class TypeResolver:
    """Resolves non-primitive base names while lowering.

    ``rust_path(name)`` returns the absolute Rust path for a project type;
    ``lookup(name)`` returns its CTypeDef (for layout); both return None for
    unknown names.
    """

    def __init__(
        self,
        lookup: Callable[[str], Optional[CTypeDef]],
        rust_path: Callable[[str], Optional[str]],
    ):
        self.lookup = lookup
        self.rust_path = rust_path


def lower_type_text(text: str, resolver: TypeResolver, position: str = "value") -> str:
    """Lower a canonical C type text to Rust source text.

    ``position`` is "value" for members/params/locals and "return" for
    function returns (where void becomes the unit type).
    """
    return _lower(parse_c_type(text), resolver, position)


def _lower(ct: CType, resolver: TypeResolver, position: str = "value") -> str:
    if ct.func is not None:
        sig = ct.func
        params = ", ".join(_lower(p, resolver) for p in sig.params)
        ret = _lower(sig.ret, resolver, "return")
        fn = f'unsafe extern "C" fn({params})' + (f" -> {ret}" if ret != "()" else "")
        lowered = f"Option<{fn}>"
        for d in reversed(ct.array_dims):
            lowered = f"[{lowered}; {d}]"
        return lowered

    base = _strip_tag(ct.base)
    if ct.pointer_depth:
        if base == "void":
            inner = "core::ffi::c_void"
        elif base in PRIMITIVES:
            inner = PRIMITIVES[base][0]
        else:
            path = resolver.rust_path(base)
            if path is None:
                raise SkeletonError(f"unresolvable member type '{ct.base}'")
            inner = path
        sigil = "*const" if ct.const else "*mut"
        lowered = f"{sigil} {inner}"
        for _ in range(ct.pointer_depth - 1):
            lowered = f"{sigil} {lowered}"
    else:
        if base == "void":
            if position == "return":
                lowered = "()"
            else:
                raise SkeletonError("void in value position")
        elif base in PRIMITIVES:
            lowered = PRIMITIVES[base][0]
        else:
            path = resolver.rust_path(base)
            if path is None:
                raise SkeletonError(f"unresolvable member type '{ct.base}'")
            lowered = path

    for d in reversed(ct.array_dims):
        lowered = f"[{lowered}; {d}]"
    return lowered


def _strip_tag(base: str) -> str:
    for kw in ("struct ", "union ", "enum "):
        if base.startswith(kw):
            return base[len(kw) :]
    return base


# --- layout ----------------------------------------------------------------


def _round_up(v: int, align: int) -> int:
    return (v + align - 1) // align * align


def size_align_of(ct: CType, resolver: TypeResolver) -> tuple[int, int]:
    if ct.pointer_depth or ct.func is not None:
        size, align = POINTER_SIZE, POINTER_ALIGN
    else:
        base = _strip_tag(ct.base)
        if base in PRIMITIVES:
            _, size, align = PRIMITIVES[base]
        else:
            td = resolver.lookup(base)
            if td is None:
                raise SkeletonError(f"unknown type for layout: '{ct.base}'")
            size, align = record_size_align(td, resolver)
    for d in ct.array_dims:
        size *= d
    return size, align


def record_size_align(td: CTypeDef, resolver: TypeResolver) -> tuple[int, int]:
    """System V x86-64 layout for records, unions, and enums."""
    if td.kind == "enumeration":
        return 4, 4
    if td.kind == "alias":
        return size_align_of(parse_c_type(td.members[0][1]), resolver)
    if td.opaque or not td.members:
        return 0, 1

    if td.kind == "union":
        size = 0
        align = 1
        for _, mtype, _width in td.members:
            msize, malign = size_align_of(parse_c_type(mtype), resolver)
            size = max(size, msize)
            align = max(align, malign)
        return _round_up(size, align), align

    # record: walk members tracking a bit offset
    bit_offset = 0
    align = 1
    for _, mtype, width in td.members:
        msize, malign = size_align_of(parse_c_type(mtype), resolver)
        if width is not None:
            unit_bits = msize * 8
            if width == 0:
                bit_offset = _round_up(bit_offset, unit_bits)
                continue
            # a bit-field never straddles its storage-unit boundary
            start_unit = bit_offset // unit_bits
            end_unit = (bit_offset + width - 1) // unit_bits
            if start_unit != end_unit:
                bit_offset = _round_up(bit_offset, unit_bits)
            bit_offset += width
            align = max(align, malign)
        else:
            bit_offset = _round_up(bit_offset, malign * 8)
            bit_offset += msize * 8
            align = max(align, malign)
    size = _round_up(_round_up(bit_offset, 8) // 8, align)
    return size, align
