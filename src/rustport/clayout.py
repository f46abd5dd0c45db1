"""C types: LP64 layout computation and Rust lowering.

Symbol extraction parses every declarator into a ``CType``; this module sizes
and lowers those structures. Record sizes and alignments follow the System V
x86-64 rules, including the bit-field allocation algorithm; the test suite
checks them against sizes reported by the host C compiler.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .csyms import CType, CTypeDef, string_bytes
from .errors import SkeletonError


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

# what an enum is stored as: the first that holds every enumerator, so its
# size is gcc's sizeof; ``int`` is the type C gives enumerators
ENUM_BASES = ("int", "unsigned int", "long", "unsigned long")


@dataclass
class TypeResolver:
    """Resolves base names while lowering: ``rust_path(name)`` gives a project
    type's absolute Rust path and ``lookup(name)`` its CTypeDef (for layout
    and values); both give None for an unknown name."""

    lookup: Callable[[str], Optional[CTypeDef]]
    rust_path: Callable[[str], Optional[str]]


def lower(ct: CType, resolver: TypeResolver, position: str = "value") -> str:
    """Lower a C type to Rust source text.

    ``position`` is "value" for members/params/locals and "return" for
    function returns (where void becomes the unit type).
    """
    base = ct.name
    if ct.func is not None:
        params = [lower(p, resolver) for p in ct.func.params]
        if ct.func.variadic:
            params.append("...")
        ret = lower(ct.func.ret, resolver, "return")
        fn = f'unsafe extern "C" fn({", ".join(params)})' + (f" -> {ret}" if ret != "()" else "")
        lowered = f"Option<{fn}>"
    elif base == "void" and not ct.pointer_depth:
        if position != "return":
            raise SkeletonError("void in value position")
        lowered = "()"
    else:
        if base == "void":
            lowered = "core::ffi::c_void"
        else:
            lowered = PRIMITIVES[base][0] if base in PRIMITIVES else resolver.rust_path(base)
        if lowered is None:
            raise SkeletonError(f"unresolvable member type '{ct.base}'")
        for _ in range(ct.pointer_depth):
            lowered = f"{'*const' if ct.const else '*mut'} {lowered}"

    for d in reversed(ct.array_dims):
        lowered = f"[{lowered}; {d}]"
    return lowered


# --- layout ----------------------------------------------------------------


def _round_up(v: int, align: int) -> int:
    return (v + align - 1) // align * align


def int_range(base: str) -> tuple[int, int]:
    """The least and greatest value of a primitive integer type."""
    rust, size, _ = PRIMITIVES[base]
    bits = 8 * size
    return (-(1 << bits - 1), (1 << bits - 1) - 1) if rust[0] == "i" else (0, (1 << bits) - 1)


def narrowest(values: list[int], bases: tuple[str, ...] = ENUM_BASES) -> str:
    """The first of ``bases`` that holds every value, else the last."""
    lo, hi = min(values, default=0), max(values, default=0)
    return next((b for b in bases if int_range(b)[0] <= lo and hi <= int_range(b)[1]), bases[-1])


def underlying(ct: CType, resolver: TypeResolver) -> CType:
    """``ct`` with typedef names and enums replaced by what they stand for."""
    td = resolver.lookup(ct.name) if ct.func is None else None
    if td is not None and td.kind == "enumeration":
        return replace(ct, base=narrowest([v for _, v in td.enumerators]))
    if td is None or td.kind != "alias" or td.members[0][1].name == ct.name:
        return ct
    to = td.members[0][1]
    const = ct.const if ct.pointer_depth else to.const
    depth, dims = ct.pointer_depth + to.pointer_depth, ct.array_dims + to.array_dims
    return underlying(CType(to.base, depth, dims, const, to.func), resolver)


def c_value(
    value: int | float | str, ct: Optional[CType], resolver: TypeResolver
) -> Optional[str]:
    """A ``read_literal`` value as a Rust constant of the lowered ``ct``,
    converted as C converts it, or None where C takes no such value: 0 is a
    null pointer, ``_Bool`` is whether the value is nonzero, an integer out of
    range goes through ``as``, a float out of a float type's range is an
    infinity (one out of an integer type's range has no value), and a string
    fills a NUL-padded char array or points at its bytes. A string of no C
    type is a ``&str``."""
    if ct is None:
        text = string_bytes(value).decode("utf-8", "replace")
        safe = (c if " " <= c <= "~" and c not in '"\\' else f"\\u{{{ord(c):x}}}" for c in text)
        return '"' + "".join(safe) + '"'
    ct = underlying(ct, resolver)
    rust = lower(ct, resolver)
    if isinstance(value, str):
        data = string_bytes(value) + b"\0"
        chars = ct.name in ("char", "signed char", "unsigned char")
        if not chars or ct.pointer_depth + len(ct.array_dims) != 1:
            return None
        if ct.pointer_depth:
            safe = (chr(b) if 32 <= b < 127 and b not in b'"\\' else f"\\x{b:02x}" for b in data)
            return f'b"{"".join(safe)}".as_ptr() as {rust}'
        data = data[: ct.array_dims[0]].ljust(ct.array_dims[0], b"\0")
        return "[" + ", ".join(c_value(b, CType(ct.base), resolver) for b in data) + "]"
    if ct.array_dims or not ct.pointer_depth and ct.name not in PRIMITIVES:
        return "unsafe { core::mem::zeroed() }" if value == 0 else None
    if ct.pointer_depth:
        if value != 0 or isinstance(value, float):
            return None
        if ct.func is not None:
            return "None"
        return "core::ptr::null()" if ct.const else "core::ptr::null_mut()"
    if rust == "bool":
        return "true" if value else "false"
    if rust in ("f32", "f64"):
        value = float(value)
        # the native pack is C's (float) cast: beyond f32's range, an infinity
        if rust == "f32" and math.isinf(struct.unpack("f", struct.pack("f", value))[0]):
            value = math.copysign(math.inf, value)
        if math.isinf(value):
            return f"{rust}::{'NEG_' if value < 0 else ''}INFINITY"
        return repr(value)
    lo, hi = int_range(ct.name)
    if isinstance(value, float):
        if not lo - 1 < value < hi + 1:
            return None  # C leaves converting a float out of range undefined
        value = int(value)
    if lo <= value <= hi:
        return str(value)
    return f"{value}{'i64' if value < 1 << 63 else 'u64'} as {rust}"


def constant_type(value: int | str) -> Optional[CType]:
    """The C type of a named constant: the first of int, long and unsigned
    long that holds an integer; None (a ``&str``) for a string."""
    bases = ("int", "long", "unsigned long")
    return None if isinstance(value, str) else CType(narrowest([value], bases))


def size_align_of(ct: CType, resolver: TypeResolver) -> tuple[int, int]:
    ct = underlying(ct, resolver)
    if ct.pointer_depth or ct.func is not None:
        size, align = POINTER_SIZE, POINTER_ALIGN
    elif ct.name in PRIMITIVES:
        _, size, align = PRIMITIVES[ct.name]
    else:
        td = resolver.lookup(ct.name)
        if td is None:
            raise SkeletonError(f"unknown type for layout: '{ct.base}'")
        size, align = record_size_align(td, resolver)
    for d in ct.array_dims:
        size *= d
    return size, align


def record_size_align(td: CTypeDef, resolver: TypeResolver) -> tuple[int, int]:
    """System V x86-64 layout for records and unions."""
    if td.opaque or not td.members:
        return 0, 1

    if td.kind == "union":
        size = 0
        align = 1
        for _, mtype, _width in td.members:
            msize, malign = size_align_of(mtype, resolver)
            size = max(size, msize)
            align = max(align, malign)
        return _round_up(size, align), align

    # record: walk members tracking a bit offset
    bit_offset = 0
    align = 1
    for _, mtype, width in td.members:
        msize, malign = size_align_of(mtype, resolver)
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
