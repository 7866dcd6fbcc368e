"""Runtime value and memory model for the C interpreter.

The model is deliberately simple but faithful enough to expose the bugs
HeteroGen's differential testing must catch:

* every object lives in a :class:`MemBlock` (a typed sequence of cells);
* pointers are ``(block, offset)`` pairs, so out-of-bounds indexing and
  use-after-free raise :class:`MemoryFault` instead of corrupting state;
* ``fpga_int<N>`` stores wrap at N bits and ``fpga_float<E,M>`` stores
  quantize the mantissa, so a bitwidth the repair engine picked too small
  produces *observably different outputs* — the signal differential
  testing keys on (§6.2 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import HlsSimulationFault, InterpError, MemoryFault
from ..cfront import typesys as T


class StructValue:
    """A struct/union instance: a mutable mapping of field values."""

    __slots__ = ("tag", "fields")

    def __init__(self, tag: str, fields: Dict[str, Any]) -> None:
        self.tag = tag
        self.fields = fields

    def copy(self) -> "StructValue":
        return StructValue(self.tag, dict(self.fields))

    def __repr__(self) -> str:
        return f"StructValue({self.tag}, {self.fields})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StructValue)
            and self.tag == other.tag
            and self.fields == other.fields
        )


class StreamValue:
    """An ``hls::stream`` FIFO."""

    __slots__ = ("elem_type", "items", "total_writes")

    def __init__(self, elem_type: T.CType) -> None:
        self.elem_type = elem_type
        self.items: List[Any] = []
        self.total_writes = 0

    def write(self, value: Any) -> None:
        self.items.append(value)
        self.total_writes += 1

    def read(self) -> Any:
        if not self.items:
            raise HlsSimulationFault("read from an empty hls::stream")
        return self.items.pop(0)

    def empty(self) -> bool:
        return not self.items


@dataclass
class MemBlock:
    """A contiguous allocation: the unit of pointer arithmetic."""

    elem_type: T.CType
    cells: List[Any]
    label: str = ""
    alive: bool = True
    is_array: bool = False
    """True when this block *is* an array object (so a bare reference to it
    decays to a pointer), False for the single-cell box of a scalar."""

    def check(self, offset: int) -> None:
        if not self.alive:
            raise MemoryFault(f"use after free of block {self.label!r}")
        if not 0 <= offset < len(self.cells):
            fault = MemoryFault(
                f"index {offset} out of bounds for block {self.label!r} "
                f"of {len(self.cells)} elements"
            )
            # HLS-mode executions upgrade overflow of a *static array* to a
            # simulation fault; heap blocks and pointer inputs stay soft.
            fault.oob_array = self.is_array  # type: ignore[attr-defined]
            raise fault

    def load(self, offset: int) -> Any:
        self.check(offset)
        return self.cells[offset]

    def store(self, offset: int, value: Any) -> None:
        self.check(offset)
        self.cells[offset] = value


@dataclass(frozen=True)
class Pointer:
    """A typed pointer value."""

    block: Optional[MemBlock]
    offset: int = 0

    @property
    def is_null(self) -> bool:
        return self.block is None

    def add(self, delta: int) -> "Pointer":
        if self.block is None:
            raise MemoryFault("arithmetic on a null pointer")
        return Pointer(self.block, self.offset + delta)

    def deref_block(self) -> MemBlock:
        if self.block is None:
            raise MemoryFault("dereference of a null pointer")
        return self.block


NULL = Pointer(None, 0)


class LValue:
    """A writable location: a (block, offset) slot or a struct field."""

    __slots__ = ("block", "offset", "struct", "field_name", "ctype")

    def __init__(
        self,
        ctype: T.CType,
        block: Optional[MemBlock] = None,
        offset: int = 0,
        struct: Optional[StructValue] = None,
        field_name: str = "",
    ) -> None:
        self.ctype = ctype
        self.block = block
        self.offset = offset
        self.struct = struct
        self.field_name = field_name

    def load(self) -> Any:
        if self.struct is not None:
            if self.field_name not in self.struct.fields:
                raise MemoryFault(
                    f"struct {self.struct.tag} has no field {self.field_name!r}"
                )
            return self.struct.fields[self.field_name]
        assert self.block is not None
        return self.block.load(self.offset)

    def store(self, value: Any) -> None:
        value = coerce(value, self.ctype)
        if self.struct is not None:
            self.struct.fields[self.field_name] = value
            return
        assert self.block is not None
        self.block.store(self.offset, value)


def default_value(ctype: T.CType, structs: Optional[Dict[str, T.StructType]] = None) -> Any:
    """Zero-initialized value of the given type."""
    resolved = T.strip_typedefs(ctype)
    if isinstance(resolved, (T.IntType, T.FpgaIntType)):
        return 0
    if isinstance(resolved, (T.FloatType, T.FpgaFloatType)):
        return 0.0
    if isinstance(resolved, (T.PointerType, T.ReferenceType)):
        return NULL
    if isinstance(resolved, T.ArrayType):
        size = resolved.size or 0
        return MemBlock(
            resolved.elem,
            [default_value(resolved.elem, structs) for _ in range(size)],
            is_array=True,
        )
    if isinstance(resolved, T.StreamType):
        return StreamValue(resolved.elem)
    if isinstance(resolved, T.StructType):
        definition = resolved
        if structs and resolved.tag in structs:
            definition = structs[resolved.tag]
        return StructValue(
            definition.tag,
            {f.name: default_value(f.type, structs) for f in definition.fields},
        )
    if isinstance(resolved, T.VoidType):
        return None
    raise TypeError(f"cannot default-initialize {ctype}")


def _quantize_float(value: float, mant_bits: int) -> float:
    """Round *value* to ``mant_bits`` of mantissa (fpga_float semantics)."""
    if mant_bits >= 52 or value == 0.0 or not math.isfinite(value):
        return value
    mantissa, exponent = math.frexp(value)
    scale = 1 << mant_bits
    return math.ldexp(round(mantissa * scale) / scale, exponent)


def coerce(value: Any, ctype: T.CType) -> Any:
    """Convert *value* to the representation of *ctype* on store/cast.

    This is where hardware finitization becomes observable: native C ints
    wrap at their declared width, ``fpga_int<N>`` wraps at N bits, and
    narrow ``fpga_float`` loses mantissa precision.
    """
    resolved = T.strip_typedefs(ctype)
    if isinstance(resolved, T.IntType):
        if isinstance(value, Pointer):
            return value  # pointer smuggled through an integer-typed slot
        if isinstance(value, float):
            value = int(value)
        return _wrap_int(int(value), resolved.bits, resolved.signed)
    if isinstance(resolved, T.FpgaIntType):
        if isinstance(value, float):
            value = int(value)
        return resolved.wrap(int(value))
    if isinstance(resolved, T.FloatType):
        value = float(value)
        if resolved.bits == 32:
            import struct

            return struct.unpack("f", struct.pack("f", value))[0]
        return value
    if isinstance(resolved, T.FpgaFloatType):
        return _quantize_float(float(value), resolved.mant_bits)
    if isinstance(resolved, (T.PointerType, T.ReferenceType)):
        if isinstance(value, int) and value == 0:
            return NULL
        return value
    # Aggregates pass through by reference.
    return value


def _wrap_int(value: int, bits: int, signed: bool) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if signed and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


#: Shift counts must lie in ``[0, MAX_SHIFT_COUNT)``.  1024 is the widest
#: ``ap_int`` HLS accepts by default (``AP_INT_MAX_W``), so a larger count
#: is over-wide for any operand HLS would build; the bound also keeps a
#: fuzzed ``x << n`` from allocating a gigantic Python int.
MAX_SHIFT_COUNT = 1024


def c_shift(op: str, left: int, count: int) -> int:
    """``left << count`` or ``left >> count`` on integer operands.

    C leaves a negative or over-wide shift count undefined; the
    interpreter faults on it, as it does on division by zero, so fuzzed
    inputs that reach one count as an outcome.  Every engine shifts
    through here, which keeps their fault messages identical.
    """
    if count < 0:
        raise InterpError("negative shift count")
    if count >= MAX_SHIFT_COUNT:
        raise InterpError(f"shift count {count} is not below {MAX_SHIFT_COUNT}")
    return left << count if op == "<<" else left >> count


def python_to_c(value: Any, ctype: T.CType,
                structs: Optional[Dict[str, T.StructType]] = None) -> Any:
    """Convert a plain Python test input into a runtime value.

    Lists become fresh :class:`MemBlock` arrays, scalars are coerced; this
    is how fuzz-generated inputs enter the interpreter.
    """
    resolved = T.strip_typedefs(ctype)
    if isinstance(resolved, T.ArrayType):
        items = list(value)
        block = MemBlock(
            resolved.elem,
            [python_to_c(v, resolved.elem, structs) for v in items],
            label="input",
            is_array=True,
        )
        return block
    if isinstance(resolved, T.PointerType):
        if isinstance(value, (list, tuple)):
            block = MemBlock(
                resolved.pointee,
                [python_to_c(v, resolved.pointee, structs) for v in value],
                label="input",
            )
            return Pointer(block, 0)
        if value in (0, None):
            return NULL
        return value
    if isinstance(resolved, T.StreamType):
        stream = StreamValue(resolved.elem)
        for item in value or []:
            stream.write(coerce(item, resolved.elem))
        return stream
    if isinstance(resolved, T.ReferenceType):
        return python_to_c(value, resolved.target, structs)
    return coerce(value, ctype)


def c_to_python(value: Any) -> Any:
    """Convert a runtime value to a comparable plain Python structure."""
    if isinstance(value, MemBlock):
        return [c_to_python(v) for v in value.cells]
    if isinstance(value, Pointer):
        if value.is_null:
            return None
        return ("ptr", value.offset)
    if isinstance(value, StructValue):
        return {k: c_to_python(v) for k, v in value.fields.items()}
    if isinstance(value, StreamValue):
        return [c_to_python(v) for v in value.items]
    return value
