"""Type-aware input mutation.

Algorithm 1 (line 8) mutates kernel inputs under the constraint that the
result stays *type-valid for HLS*: a value that does not fit the kernel's
declared (possibly finitized) parameter types would bounce off the kernel
entry without exercising any logic (§4).  Every mutator therefore ends by
clamping to the parameter type's representable range.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence

from ..cfront import typesys as T


def clamp_to_type(value: Any, ctype: T.CType) -> Any:
    """Force *value* into the representable domain of *ctype*."""
    resolved = T.strip_typedefs(ctype)
    if isinstance(resolved, (T.IntType, T.FpgaIntType)):
        lo, hi = resolved.min_value, resolved.max_value
        return max(lo, min(hi, int(value)))
    if isinstance(resolved, (T.FloatType, T.FpgaFloatType)):
        return float(value)
    return value


def is_type_valid(value: Any, ctype: T.CType) -> bool:
    """Would this scalar pass the kernel's HLS type check unchanged?"""
    resolved = T.strip_typedefs(ctype)
    if isinstance(resolved, (T.IntType, T.FpgaIntType)):
        if not isinstance(value, (int, float)):
            return False
        iv = int(value)
        return resolved.min_value <= iv <= resolved.max_value
    if isinstance(resolved, (T.FloatType, T.FpgaFloatType)):
        return isinstance(value, (int, float))
    return True


_INTERESTING_INTS = [0, 1, -1, 2, 7, 8, 127, 128, 255, 256, 1023, -128, 65535]
_INTERESTING_FLOATS = [0.0, 1.0, -1.0, 0.5, -0.5, 1e-6, 100.0, -100.0, 3.14159]


class Mutator:
    """Deterministic (seeded) mutation of one kernel argument vector."""

    def __init__(self, param_types: Sequence[T.CType], rng: random.Random) -> None:
        self.param_types = list(param_types)
        self.rng = rng

    def mutate(self, args: List[Any], count: int) -> List[List[Any]]:
        """Produce *count* type-valid mutants of *args* (Algorithm 1 line 8)."""
        out: List[List[Any]] = []
        for _ in range(count):
            mutant = [self._copy(a) for a in args]
            index = self.rng.randrange(len(mutant)) if mutant else 0
            if mutant:
                mutant[index] = self._mutate_value(
                    mutant[index], self.param_types[index]
                )
            out.append(mutant)
        return out

    @staticmethod
    def _copy(value: Any) -> Any:
        if isinstance(value, list):
            return [Mutator._copy(v) for v in value]
        return value

    # -- per-type mutation ---------------------------------------------------

    def _mutate_value(self, value: Any, ctype: T.CType) -> Any:
        resolved = T.strip_typedefs(ctype)
        if isinstance(resolved, T.ArrayType) or (
            isinstance(resolved, T.PointerType) and isinstance(value, list)
        ):
            elem = (
                resolved.elem
                if isinstance(resolved, T.ArrayType)
                else resolved.pointee
            )
            return self._mutate_array(list(value), elem)
        if isinstance(resolved, T.StreamType) and isinstance(value, list):
            return self._mutate_array(list(value), resolved.elem)
        if isinstance(resolved, (T.IntType, T.FpgaIntType)):
            return self._mutate_int(value, resolved)
        if isinstance(resolved, (T.FloatType, T.FpgaFloatType)):
            return self._mutate_float(value)
        return value

    def _mutate_array(self, items: List[Any], elem: T.CType) -> List[Any]:
        if not items:
            return items
        strategy = self.rng.randrange(4)
        if strategy == 0:  # point mutation
            i = self.rng.randrange(len(items))
            items[i] = self._mutate_value(items[i], elem)
        elif strategy == 1:  # splash a boundary value
            i = self.rng.randrange(len(items))
            items[i] = self._interesting(elem)
        elif strategy == 2:  # swap two segments
            i, j = self.rng.randrange(len(items)), self.rng.randrange(len(items))
            items[i], items[j] = items[j], items[i]
        else:  # rescale the whole array
            scale = self.rng.choice([-1, 2, 3, 10])
            items = [clamp_to_type(self._num(v) * scale, elem) for v in items]
        return [clamp_to_type(self._num(v), elem) for v in items]

    @staticmethod
    def _num(value: Any) -> Any:
        return value if isinstance(value, (int, float)) else 0

    def _interesting(self, ctype: T.CType) -> Any:
        """A boundary value for *ctype*, clamped into its domain."""
        resolved = T.strip_typedefs(ctype)
        if isinstance(resolved, (T.FloatType, T.FpgaFloatType)):
            return self.rng.choice(_INTERESTING_FLOATS)
        candidate = self.rng.choice(_INTERESTING_INTS)
        return clamp_to_type(candidate, ctype)

    def _mutate_int(self, value: Any, resolved: T.CType) -> int:
        base = int(self._num(value))
        strategy = self.rng.randrange(4)
        if strategy == 0:
            base += self.rng.choice([-1, 1, -16, 16, 256, -256])
        elif strategy == 1:
            base = self.rng.choice(_INTERESTING_INTS)
        elif strategy == 2:
            base ^= 1 << self.rng.randrange(16)
        else:
            assert isinstance(resolved, (T.IntType, T.FpgaIntType))
            base = self.rng.randint(
                max(resolved.min_value, -(1 << 30)),
                min(resolved.max_value, 1 << 30),
            )
        return int(clamp_to_type(base, resolved))

    def _mutate_float(self, value: Any) -> float:
        base = float(self._num(value))
        strategy = self.rng.randrange(4)
        if strategy == 0:
            base += self.rng.choice([-1.0, 1.0, 0.125, -0.125])
        elif strategy == 1:
            base = self.rng.choice(_INTERESTING_FLOATS)
        elif strategy == 2:
            base *= self.rng.choice([-1.0, 0.5, 2.0, 10.0])
        else:
            base = self.rng.uniform(-1000.0, 1000.0)
        return base


def random_seed_args(param_types: Sequence[T.CType], rng: random.Random,
                     array_len: int = 16) -> List[Any]:
    """A fully random (but type-valid) argument vector, used when no host
    program is available to extract a kernel seed from."""
    args: List[Any] = []
    for ctype in param_types:
        resolved = T.strip_typedefs(ctype)
        if isinstance(resolved, T.ArrayType):
            length = resolved.size or array_len
            args.append(
                [_random_scalar(resolved.elem, rng) for _ in range(length)]
            )
        elif isinstance(resolved, T.PointerType):
            args.append(
                [_random_scalar(resolved.pointee, rng) for _ in range(array_len)]
            )
        elif isinstance(resolved, T.StreamType):
            args.append(
                [_random_scalar(resolved.elem, rng) for _ in range(array_len)]
            )
        else:
            args.append(_random_scalar(ctype, rng))
    return args


def _random_scalar(ctype: T.CType, rng: random.Random) -> Any:
    resolved = T.strip_typedefs(ctype)
    if isinstance(resolved, (T.IntType, T.FpgaIntType)):
        lo = max(resolved.min_value, -1000)
        hi = min(resolved.max_value, 1000)
        return rng.randint(lo, hi)
    if isinstance(resolved, (T.FloatType, T.FpgaFloatType)):
        return rng.uniform(-100.0, 100.0)
    if isinstance(resolved, T.StructType):
        return {f.name: _random_scalar(f.type, rng) for f in resolved.fields}
    return 0
