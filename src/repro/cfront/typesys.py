"""C and HLS-C type system.

The frontend models the C types the subjects use plus the HLS-specific
types HeteroGen introduces during transpilation:

* ``fpga_int<N>`` / ``fpga_uint<N>`` — arbitrary-bitwidth integers with
  wrap-around semantics (the paper's finitized integer types, §4).
* ``fpga_float<E, M>`` — custom floating point with *E* exponent and *M*
  mantissa bits (the paper's replacement for ``long double``, Figure 4).
* ``hls::stream<T>`` — FIFO channels used by dataflow designs (Figure 5).

Types are immutable value objects: two structurally equal types compare
equal and hash equally, which the repair engine relies on when matching
edit templates against declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class CType:
    """Base class for all types."""

    def is_synthesizable(self) -> bool:
        """Whether an HLS compiler can map the type to hardware as-is."""
        return True

    def sizeof(self) -> int:
        """Size in bytes, following a typical LP64 CPU ABI."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return self.__class__.__name__


@dataclass(frozen=True)
class VoidType(CType):
    def sizeof(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    """A native C integer type (``char`` … ``long long``)."""

    bits: int
    signed: bool = True
    name: str = ""

    def sizeof(self) -> int:
        return max(1, self.bits // 8)

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    def __str__(self) -> str:
        if self.name:
            return self.name
        prefix = "" if self.signed else "unsigned "
        return f"{prefix}int{self.bits}"


@dataclass(frozen=True)
class FloatType(CType):
    """A native C floating-point type.

    ``long double`` is the canonical *unsupported* HLS type in the paper
    (Table 1, "Unsupported Data Types"): it is not synthesizable and must be
    rewritten to :class:`FpgaFloatType`.
    """

    bits: int
    name: str = "float"

    def sizeof(self) -> int:
        return self.bits // 8

    def is_synthesizable(self) -> bool:
        return self.name != "long double"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FpgaIntType(CType):
    """``fpga_int<N>`` / ``fpga_uint<N>`` — finite-bitwidth HLS integer."""

    bits: int
    signed: bool = True

    def sizeof(self) -> int:
        return max(1, (self.bits + 7) // 8)

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Wrap *value* into the representable range (hardware semantics)."""
        mask = (1 << self.bits) - 1
        value &= mask
        if self.signed and value >= (1 << (self.bits - 1)):
            value -= 1 << self.bits
        return value

    def __str__(self) -> str:
        return f"fpga_int<{self.bits}>" if self.signed else f"fpga_uint<{self.bits}>"


@dataclass(frozen=True)
class FpgaFloatType(CType):
    """``fpga_float<E, M>`` — custom float with E exponent / M mantissa bits."""

    exp_bits: int
    mant_bits: int

    def sizeof(self) -> int:
        return (1 + self.exp_bits + self.mant_bits + 7) // 8

    def __str__(self) -> str:
        return f"fpga_float<{self.exp_bits},{self.mant_bits}>"


@dataclass(frozen=True)
class PointerType(CType):
    """A raw pointer.  Strictly forbidden in HLS except interface pointers."""

    pointee: CType

    def sizeof(self) -> int:
        return 8

    def is_synthesizable(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"{self.pointee} *"


@dataclass(frozen=True)
class ReferenceType(CType):
    """A C++ reference, used for ``hls::stream`` parameters (Figure 5)."""

    target: CType

    def sizeof(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"{self.target} &"


@dataclass(frozen=True)
class ArrayType(CType):
    """An array.  ``size is None`` models a VLA / unknown-size array, which
    triggers the ``SYNCHK-61`` dynamic-memory diagnostic during synthesis."""

    elem: CType
    size: Optional[int] = None

    def sizeof(self) -> int:
        if self.size is None:
            return 8
        return self.elem.sizeof() * self.size

    def is_synthesizable(self) -> bool:
        return self.size is not None and self.elem.is_synthesizable()

    def __str__(self) -> str:
        size = "" if self.size is None else str(self.size)
        return f"{self.elem}[{size}]"


@dataclass(frozen=True)
class StreamType(CType):
    """``hls::stream<T>`` — a FIFO channel."""

    elem: CType

    def sizeof(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"hls::stream<{self.elem}>"


@dataclass(frozen=True)
class StructField:
    name: str
    type: CType


@dataclass(frozen=True)
class StructType(CType):
    """A ``struct`` or ``union``.

    Method names (member functions) and the presence of an explicit
    constructor are tracked because the "Struct and Union" repair family
    (Figure 7) keys on them: a struct used as a dataflow stage must declare
    an explicit constructor to be synthesizable.
    """

    tag: str
    fields: Tuple[StructField, ...] = ()
    is_union: bool = False
    method_names: Tuple[str, ...] = ()
    has_constructor: bool = False

    def sizeof(self) -> int:
        sizes = [f.type.sizeof() for f in self.fields]
        if not sizes:
            return 0
        return max(sizes) if self.is_union else sum(sizes)

    def field_map(self) -> Dict[str, CType]:
        """Field name → type, built on first use; the first of two
        same-named fields wins, as in a linear scan."""
        fmap = self.__dict__.get("_field_map")
        if fmap is None:
            fmap = {}
            for f in self.fields:
                fmap.setdefault(f.name, f.type)
            self.__dict__["_field_map"] = fmap
        return fmap

    def field_type(self, name: str) -> CType:
        ctype = self.field_map().get(name)
        if ctype is None:
            raise KeyError(f"struct {self.tag} has no field {name!r}")
        return ctype

    def has_field(self, name: str) -> bool:
        return name in self.field_map()

    def __str__(self) -> str:
        kw = "union" if self.is_union else "struct"
        return f"{kw} {self.tag}"


@dataclass(frozen=True)
class NamedType(CType):
    """A typedef reference, kept for faithful pretty-printing."""

    name: str
    aliased: CType

    def sizeof(self) -> int:
        return self.aliased.sizeof()

    def is_synthesizable(self) -> bool:
        return self.aliased.is_synthesizable()

    def __str__(self) -> str:
        return self.name


# Canonical singletons for the native types the subjects use.
VOID = VoidType()
CHAR = IntType(8, True, "char")
UCHAR = IntType(8, False, "unsigned char")
SHORT = IntType(16, True, "short")
USHORT = IntType(16, False, "unsigned short")
INT = IntType(32, True, "int")
UINT = IntType(32, False, "unsigned")
LONG = IntType(64, True, "long")
ULONG = IntType(64, False, "unsigned long")
FLOAT = FloatType(32, "float")
DOUBLE = FloatType(64, "double")
LONG_DOUBLE = FloatType(80, "long double")
BOOL = IntType(8, False, "bool")


def strip_typedefs(ctype: CType) -> CType:
    """Resolve typedef chains to the underlying type."""
    while isinstance(ctype, NamedType):
        ctype = ctype.aliased
    return ctype


def decay(ctype: CType) -> CType:
    """Array-to-pointer decay, as in C expression contexts."""
    resolved = strip_typedefs(ctype)
    if isinstance(resolved, ArrayType):
        return PointerType(resolved.elem)
    return ctype


def is_integer(ctype: CType) -> bool:
    return isinstance(strip_typedefs(ctype), (IntType, FpgaIntType))


def is_float(ctype: CType) -> bool:
    return isinstance(strip_typedefs(ctype), (FloatType, FpgaFloatType))


def is_arithmetic(ctype: CType) -> bool:
    return is_integer(ctype) or is_float(ctype)


def integer_bits(ctype: CType) -> int:
    resolved = strip_typedefs(ctype)
    if isinstance(resolved, (IntType, FpgaIntType)):
        return resolved.bits
    raise TypeError(f"not an integer type: {ctype}")


def is_signed(ctype: CType) -> bool:
    resolved = strip_typedefs(ctype)
    if isinstance(resolved, (IntType, FpgaIntType)):
        return resolved.signed
    raise TypeError(f"not an integer type: {ctype}")


def common_type(left: CType, right: CType) -> CType:
    """Usual arithmetic conversions, extended to the HLS types."""
    lt, rt = strip_typedefs(left), strip_typedefs(right)
    if is_float(lt) or is_float(rt):
        candidates = [t for t in (lt, rt) if is_float(t)]
        return max(candidates, key=_float_rank)
    if is_integer(lt) and is_integer(rt):
        if integer_bits(lt) == integer_bits(rt):
            # Prefer the unsigned flavour on a tie, as C does.
            if not is_signed(lt):
                return lt
            return rt
        return lt if integer_bits(lt) > integer_bits(rt) else rt
    if isinstance(lt, PointerType):
        return lt
    if isinstance(rt, PointerType):
        return rt
    return lt


def _float_rank(ctype: CType) -> int:
    if isinstance(ctype, FloatType):
        return ctype.bits
    if isinstance(ctype, FpgaFloatType):
        return 1 + ctype.exp_bits + ctype.mant_bits
    return 0


def replace_struct(ctype: CType, old_tag: str, new: StructType) -> CType:
    """Return *ctype* with every occurrence of ``struct old_tag`` swapped
    for *new*.  Used by struct-family edits when they update a definition."""
    resolved = ctype
    if isinstance(resolved, StructType) and resolved.tag == old_tag:
        return new
    if isinstance(resolved, PointerType):
        return PointerType(replace_struct(resolved.pointee, old_tag, new))
    if isinstance(resolved, ReferenceType):
        return ReferenceType(replace_struct(resolved.target, old_tag, new))
    if isinstance(resolved, ArrayType):
        return ArrayType(replace_struct(resolved.elem, old_tag, new), resolved.size)
    if isinstance(resolved, StreamType):
        return StreamType(replace_struct(resolved.elem, old_tag, new))
    if isinstance(resolved, NamedType):
        return NamedType(resolved.name, replace_struct(resolved.aliased, old_tag, new))
    return resolved


def bits_needed(max_abs_value: int, signed: bool) -> int:
    """Smallest bitwidth able to represent values up to *max_abs_value*.

    This is the bitwidth-estimation rule from §4: profiling found ``ret``
    peaking at 83, so ``fpga_uint<7>`` suffices (2**7 - 1 = 127 >= 83).
    """
    if max_abs_value < 0:
        raise ValueError("max_abs_value must be non-negative")
    magnitude_bits = max(1, max_abs_value.bit_length())
    return magnitude_bits + 1 if signed else magnitude_bits
