"""C types: LP64 layout computation and Rust lowering.

Symbol extraction parses every declarator into a ``CType``; this module sizes
and lowers those structures. Record sizes and alignments follow the System V
x86-64 rules, including the bit-field allocation algorithm; the test suite
checks them against sizes reported by the host C compiler.
"""

from __future__ import annotations

from typing import Callable, Optional

from .csyms import CType, CTypeDef
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
    elif ct.pointer_depth:
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
    elif base == "void":
        if position != "return":
            raise SkeletonError("void in value position")
        lowered = "()"
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


# --- layout ----------------------------------------------------------------


def _round_up(v: int, align: int) -> int:
    return (v + align - 1) // align * align


def size_align_of(ct: CType, resolver: TypeResolver) -> tuple[int, int]:
    if ct.pointer_depth or ct.func is not None:
        size, align = POINTER_SIZE, POINTER_ALIGN
    else:
        base = ct.name
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
        return size_align_of(td.members[0][1], resolver)
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
