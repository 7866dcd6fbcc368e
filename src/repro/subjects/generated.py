"""Smoke-scale generated subject corpus — differential-test fodder.

The ten Table 3 subjects are realistic but narrow: each was written to
seed one HLS incompatibility, so between them they leave corners of the
parseable subset untouched.  This module emits ~20 small programs that
sweep the rest — integer wrap at every declarable width, fixed-point
``fpga_int<N>`` arithmetic, array shapes (1-D, flattened 2-D, out-arg
writes), ``hls::stream`` producer/consumer chains, struct methods,
C-truncating division, short-circuit evaluation with side effects,
pointer arithmetic (including a deliberately out-of-bounds program for
fault-path coverage), recursion, static locals and global initializers.

They exist to be executed, not transpiled: the backend equivalence tests
run every program under ``tree`` and ``batch`` and assert
bit-identical results, so a codegen regression in any engine shows up
as a cross-backend diff on this corpus before it shows up in a paper
table.  Sources are built from templates where a parameter (bit width,
array length) is the interesting axis, and are hand-written where the
shape itself is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

from ..cfront import nodes as N
from ..cfront.parser import parse

__all__ = ["GeneratedSubject", "generated_subjects"]


@dataclass(frozen=True)
class GeneratedSubject:
    """One generated program plus the inputs to drive it with."""

    name: str
    kernel: str
    source: str
    tests: List[List[Any]] = field(default_factory=list)
    faulting: bool = False
    """True when some test is *expected* to raise an interpreter fault
    (the equivalence check then compares fault type and message)."""

    def parse(self) -> N.TranslationUnit:
        return parse(self.source, top_name=self.kernel)


def _wrap_subject(ctype: str, bits: int, signed: bool) -> GeneratedSubject:
    """Integer wrap: multiply-accumulate until the width overflows."""
    src = f"""
    int wrap_acc(int seed, int n) {{
        {ctype} acc = ({ctype})seed;
        for (int i = 0; i < n; i++) {{
            acc = acc * 3 + 7;
        }}
        return (int)acc;
    }}
    """
    return GeneratedSubject(
        name=f"wrap_{ctype.replace(' ', '_')}",
        kernel="wrap_acc",
        source=src,
        tests=[[1, 5], [255, 40], [-9, 17], [2 ** (bits - 1) - 1, 3]],
    )


def _fixed_point_subject(width: int, signed: bool) -> GeneratedSubject:
    """Fixed-point accumulation in an ``fpga_int<N>``/``fpga_uint<N>``."""
    tname = f"fpga_int<{width}>" if signed else f"fpga_uint<{width}>"
    src = f"""
    int fx_scale(int xs[8], int shift) {{
        {tname} acc = 0;
        for (int i = 0; i < 8; i++) {{
            {tname} v = ({tname})(xs[i] >> shift);
            acc = acc + v * 3;
        }}
        return (int)acc;
    }}
    """
    return GeneratedSubject(
        name=f"fixed_{'s' if signed else 'u'}{width}",
        kernel="fx_scale",
        source=src,
        tests=[
            [[1, 2, 3, 4, 5, 6, 7, 8], 0],
            [[100, -50, 75, -25, 60, -30, 90, -45], 1],
            [[1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000], 2],
        ],
    )


def _array_shape_subject(length: int) -> GeneratedSubject:
    """Array reduce + reverse-copy out-arg at a given length."""
    src = f"""
    int arr_rev(int xs[{length}], int out[{length}]) {{
        int total = 0;
        for (int i = 0; i < {length}; i++) {{
            out[{length} - 1 - i] = xs[i];
            total += xs[i];
        }}
        return total;
    }}
    """
    ramp = list(range(length))
    return GeneratedSubject(
        name=f"array_{length}",
        kernel="arr_rev",
        source=src,
        tests=[[ramp, [0] * length], [ramp[::-1], [0] * length]],
    )


_STREAM_SRC = """
int stream_relay(int n) {
    hls::stream<int> mid;
    int total = 0;
    for (int i = 0; i < n; i++) {
        mid.write(i * i + 1);
    }
    while (!mid.empty()) {
        total += mid.read();
    }
    return total;
}
"""

_STREAM_CHAIN_SRC = """
void produce(hls::stream<unsigned> &out, int n) {
    for (int i = 0; i < n; i++) {
        out.write((unsigned)(i * 5 + 2));
    }
}

unsigned consume(hls::stream<unsigned> &in) {
    unsigned best = 0;
    while (!in.empty()) {
        unsigned v = in.read();
        if (v > best) {
            best = v;
        }
    }
    return best;
}

unsigned stream_chain(int n) {
    static hls::stream<unsigned> ch;
    produce(ch, n);
    return consume(ch);
}
"""

_STRUCT_SRC = """
struct Accum {
    int total;
    int count;

    void add(int v) {
        this->total += v;
        this->count++;
    }

    int mean() {
        if (this->count == 0) {
            return 0;
        }
        return this->total / this->count;
    }
};

int struct_mean(int xs[6]) {
    struct Accum a;
    a.total = 0;
    a.count = 0;
    for (int i = 0; i < 6; i++) {
        a.add(xs[i]);
    }
    return a.mean();
}
"""

_MATRIX_SRC = """
int mat_trace(int m[16], int scale) {
    int tr = 0;
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 4; j++) {
            if (i == j) {
                tr += m[i * 4 + j] * scale;
            }
        }
    }
    return tr;
}
"""

_DIV_SRC = """
int div_trunc(int a, int b) {
    int q = a / b;
    int r = a % b;
    return q * 1000 + r;
}
"""

_SHORTCIRCUIT_SRC = """
int bump(int arr[4], int i) {
    arr[i] += 1;
    return arr[i];
}

int shortcircuit(int flag, int arr[4]) {
    int hits = 0;
    if (flag && bump(arr, 0)) {
        hits += 1;
    }
    if (flag || bump(arr, 1)) {
        hits += 2;
    }
    if (!flag && bump(arr, 2) > 0) {
        hits += 4;
    }
    return hits * 100 + arr[0] * 10 + arr[1] + arr[2];
}
"""

_POINTER_SRC = """
int ptr_walk(int xs[8], int n) {
    int *p = xs;
    int total = 0;
    for (int i = 0; i < n; i++) {
        total += *(p + i);
    }
    *p = total;
    return total;
}
"""

_OOB_SRC = """
int oob_read(int xs[4], int idx) {
    return xs[idx];
}
"""

_RECURSE_SRC = """
int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
"""

_STATIC_SRC = """
int tick(int step) {
    static int counter = 100;
    counter += step;
    return counter;
}

int static_counter(int a, int b) {
    tick(a);
    tick(b);
    return tick(0);
}
"""

_GLOBAL_SRC = """
int BASE = 40;
int TABLE[4] = {1, 2, 4, 8};

int global_mix(int i) {
    return BASE + TABLE[i & 3];
}
"""

_DOWHILE_SRC = """
int collatz_len(int n) {
    int len = 0;
    do {
        if (n % 2 == 0) {
            n = n / 2;
        } else {
            n = 3 * n + 1;
        }
        len++;
    } while (n != 1 && len < 200);
    return len;
}
"""

_COND_SRC = """
int clamp3(int x, int lo, int hi) {
    int v = x < lo ? lo : (x > hi ? hi : x);
    int sign = v < 0 ? -1 : (v > 0 ? 1 : 0);
    return v * 10 + sign;
}
"""

_FLOAT_SRC = """
float mix_float(float a, int b) {
    double acc = a;
    for (int i = 0; i < b; i++) {
        acc = acc * 1.5 + (float)i;
    }
    return (float)acc;
}
"""

_BREAK_SRC = """
int first_gap(int xs[10]) {
    int prev = xs[0];
    int where = -1;
    for (int i = 1; i < 10; i++) {
        if (xs[i] < prev) {
            continue;
        }
        if (xs[i] - prev > 5) {
            where = i;
            break;
        }
        prev = xs[i];
    }
    return where;
}
"""


def generated_subjects() -> List[GeneratedSubject]:
    """The full corpus, in a stable order."""
    subjects: List[GeneratedSubject] = []
    # Integer wrap at every declarable width (the charge-identity
    # argument leans hardest on masking, so sweep it).
    subjects.append(_wrap_subject("char", 8, True))
    subjects.append(_wrap_subject("unsigned char", 8, False))
    subjects.append(_wrap_subject("short", 16, True))
    subjects.append(_wrap_subject("unsigned short", 16, False))
    subjects.append(_wrap_subject("int", 32, True))
    subjects.append(_wrap_subject("unsigned", 32, False))
    # Fixed-point widths (odd widths exercise non-byte masks).
    subjects.append(_fixed_point_subject(7, signed=True))
    subjects.append(_fixed_point_subject(5, signed=False))
    subjects.append(_fixed_point_subject(13, signed=True))
    # Array shapes.
    subjects.append(_array_shape_subject(4))
    subjects.append(_array_shape_subject(16))
    subjects.append(GeneratedSubject(
        name="matrix_4x4", kernel="mat_trace", source=_MATRIX_SRC,
        tests=[[list(range(16)), 3], [[7] * 16, -2]],
    ))
    # Streaming.
    subjects.append(GeneratedSubject(
        name="stream_relay", kernel="stream_relay", source=_STREAM_SRC,
        tests=[[0], [1], [9]],
    ))
    subjects.append(GeneratedSubject(
        name="stream_chain", kernel="stream_chain",
        source=_STREAM_CHAIN_SRC, tests=[[3], [8]],
    ))
    # Structs with methods.
    subjects.append(GeneratedSubject(
        name="struct_mean", kernel="struct_mean", source=_STRUCT_SRC,
        tests=[[[6, 12, 18, 24, 30, 36]], [[-5, 5, -5, 5, -5, 4]]],
    ))
    # C-truncating division / modulo, including negative operands.
    subjects.append(GeneratedSubject(
        name="div_trunc", kernel="div_trunc", source=_DIV_SRC,
        tests=[[7, 2], [-7, 2], [7, -2], [-7, -2]],
    ))
    # Short-circuit evaluation with observable side effects.
    subjects.append(GeneratedSubject(
        name="shortcircuit", kernel="shortcircuit",
        source=_SHORTCIRCUIT_SRC,
        tests=[[0, [0, 0, 0, 0]], [1, [0, 0, 0, 0]]],
    ))
    # Pointer arithmetic, plus a deliberate out-of-bounds fault.
    subjects.append(GeneratedSubject(
        name="ptr_walk", kernel="ptr_walk", source=_POINTER_SRC,
        tests=[[[1, 2, 3, 4, 5, 6, 7, 8], 8], [[9, 8, 7, 6, 5, 4, 3, 2], 3]],
    ))
    subjects.append(GeneratedSubject(
        name="oob_read", kernel="oob_read", source=_OOB_SRC,
        tests=[[[10, 20, 30, 40], 2], [[10, 20, 30, 40], 7]],
        faulting=True,
    ))
    # Recursion (call depth charges).
    subjects.append(GeneratedSubject(
        name="fib", kernel="fib", source=_RECURSE_SRC,
        tests=[[0], [1], [10]],
    ))
    # Static locals persisting across calls within one execution.
    subjects.append(GeneratedSubject(
        name="static_counter", kernel="static_counter", source=_STATIC_SRC,
        tests=[[1, 2], [10, -3]],
    ))
    # Global scalar + aggregate initializers.
    subjects.append(GeneratedSubject(
        name="global_mix", kernel="global_mix", source=_GLOBAL_SRC,
        tests=[[0], [1], [2], [3], [6]],
    ))
    # do-while / conditional expression / float / break+continue.
    subjects.append(GeneratedSubject(
        name="collatz", kernel="collatz_len", source=_DOWHILE_SRC,
        tests=[[1], [6], [27]],
    ))
    subjects.append(GeneratedSubject(
        name="clamp3", kernel="clamp3", source=_COND_SRC,
        tests=[[5, 0, 10], [-5, 0, 10], [15, 0, 10], [0, -3, 3]],
    ))
    subjects.append(GeneratedSubject(
        name="mix_float", kernel="mix_float", source=_FLOAT_SRC,
        tests=[[1.5, 0], [0.25, 6], [-2.0, 4]],
    ))
    subjects.append(GeneratedSubject(
        name="first_gap", kernel="first_gap", source=_BREAK_SRC,
        tests=[
            [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]],
            [[0, 9, 1, 2, 3, 4, 5, 6, 7, 8]],
            [[9, 8, 7, 6, 5, 4, 3, 2, 1, 0]],
        ],
    ))
    return subjects
