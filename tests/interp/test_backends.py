"""Backend equivalence: the tree-walker and batch's generated code.

Edge semantics that historically diverge between interpreter
implementations — integer wrap at every width, pointer arithmetic across
block boundaries, short-circuit step charges, HLS static-array faults —
asserted identical across the engines of :mod:`.engines`, plus the
``batch-cross`` harness and the backend-selection machinery themselves.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.cfront import parse
from repro.errors import HlsSimulationFault, InterpError, MemoryFault
from repro.interp import (
    BACKENDS,
    BackendMismatch,
    BatchCrossCheckEngine,
    BatchEngine,
    BatchRecord,
    Interpreter,
    default_backend,
    engine_run_many,
    make_engine,
    run_program,
    set_default_backend,
)
from repro.interp import batch as batch_module
from repro.interp.batch import _profile_key

from .engines import ENGINES, engine_for, run_on

BOTH = pytest.mark.parametrize("backend", ENGINES)


def run_c(source, func, args, backend, **kwargs):
    return run_on(parse(source), func, args, backend, **kwargs)


# ---------------------------------------------------------------------------
# Integer wrap at every width
# ---------------------------------------------------------------------------

SIGNED = [("char", 8), ("short", 16), ("int", 32), ("long", 64)]
UNSIGNED = [
    ("unsigned char", 8),
    ("unsigned short", 16),
    ("unsigned", 32),
    ("unsigned long", 64),
]


@BOTH
@pytest.mark.parametrize("cname,bits", SIGNED)
def test_signed_overflow_wraps(backend, cname, bits):
    src = f"{cname} bump({cname} x) {{ return x + 1; }}"
    top = (1 << (bits - 1)) - 1
    result = run_c(src, "bump", [top], backend)
    assert result.value == -(1 << (bits - 1))


@BOTH
@pytest.mark.parametrize("cname,bits", SIGNED)
def test_signed_underflow_wraps(backend, cname, bits):
    src = f"{cname} dip({cname} x) {{ return x - 1; }}"
    bottom = -(1 << (bits - 1))
    result = run_c(src, "dip", [bottom], backend)
    assert result.value == (1 << (bits - 1)) - 1


@BOTH
@pytest.mark.parametrize("cname,bits", UNSIGNED)
def test_unsigned_overflow_wraps_to_zero(backend, cname, bits):
    src = f"{cname} bump({cname} x) {{ return x + 1; }}"
    result = run_c(src, "bump", [(1 << bits) - 1], backend)
    assert result.value == 0


@BOTH
@pytest.mark.parametrize("cname,bits", UNSIGNED)
def test_unsigned_underflow_wraps_to_max(backend, cname, bits):
    src = f"{cname} dip({cname} x) {{ return x - 1; }}"
    result = run_c(src, "dip", [0], backend)
    assert result.value == (1 << bits) - 1


@BOTH
@pytest.mark.parametrize("bits", [3, 7, 12, 23])
def test_fpga_int_wrap(backend, bits):
    src = f"""
    #include "fpga.h"
    int bump(int x) {{
        fpga_uint<{bits}> v = x;
        v = v + 1;
        return (int)v;
    }}
    """
    result = run_c(src, "bump", [(1 << bits) - 1], backend)
    assert result.value == 0


# ---------------------------------------------------------------------------
# Pointer arithmetic across MemBlock boundaries
# ---------------------------------------------------------------------------

WALK_SRC = """
int poke(int n) {
    int a[4];
    a[0] = 7; a[1] = 8; a[2] = 9; a[3] = 10;
    int *p = a;
    p = p + n;
    return *p;
}
"""


@BOTH
def test_pointer_walk_in_bounds(backend):
    assert run_c(WALK_SRC, "poke", [3], backend).value == 10


@BOTH
def test_pointer_walks_off_block_faults(backend):
    with pytest.raises(MemoryFault):
        run_c(WALK_SRC, "poke", [4], backend)
    with pytest.raises(MemoryFault):
        run_c(WALK_SRC, "poke", [-1], backend)


def test_pointer_fault_messages_identical():
    """A divergent diagnostic would trip the cross-check harness."""
    excs = []
    for backend in ENGINES:
        with pytest.raises(MemoryFault) as info:
            run_c(WALK_SRC, "poke", [4], backend)
        excs.append(str(info.value))
    assert excs[0] == excs[1]


@BOTH
def test_cross_block_pointer_difference_faults(backend):
    src = """
    int gap() {
        int a[4];
        int b[4];
        int *p = a;
        int *q = b;
        return q - p;
    }
    """
    with pytest.raises(InterpError):
        run_c(src, "gap", [], backend)


# ---------------------------------------------------------------------------
# Short-circuit step charges
# ---------------------------------------------------------------------------

SHORT_AND = """
int guard(int a, int b) {
    if (a != 0 && b / a > 1) { return 1; }
    return 0;
}
"""

SHORT_OR = """
int fallback(int a, int b) {
    if (a == 0 || b / a > 1) { return 1; }
    return 0;
}
"""


@pytest.mark.parametrize("src,args", [
    (SHORT_AND, [0, 10]),
    (SHORT_AND, [3, 10]),
    (SHORT_OR, [0, 10]),
    (SHORT_OR, [3, 10]),
])
def test_short_circuit_step_charges_match(src, args):
    unit = parse(src)
    func = "guard" if src is SHORT_AND else "fallback"
    tree = run_on(unit, func, args, "tree")
    for backend in ENGINES[1:]:
        other = run_on(unit, func, args, backend)
        assert tree.value == other.value
        assert tree.steps == other.steps


def test_short_circuit_skips_rhs_charges():
    unit = parse(SHORT_AND)
    taken = run_program(unit, "guard", [3, 10], backend="batch")
    skipped = run_program(unit, "guard", [0, 10], backend="batch")
    # a == 0 short-circuits past the division, so fewer abstract steps —
    # and crucially no division fault.
    assert skipped.steps < taken.steps
    assert skipped.value == 0


# ---------------------------------------------------------------------------
# HLS-mode faults
# ---------------------------------------------------------------------------

OVERFLOW_SRC = """
int kernel(int n) {
    int a[4];
    for (int i = 0; i < n; i++) { a[i] = i; }
    return a[0];
}
"""


@BOTH
def test_static_array_overflow_is_hls_fault(backend):
    with pytest.raises(HlsSimulationFault):
        run_c(OVERFLOW_SRC, "kernel", [5], backend, hls_mode=True)


@BOTH
def test_static_array_overflow_is_memory_fault_on_cpu(backend):
    with pytest.raises(MemoryFault) as info:
        run_c(OVERFLOW_SRC, "kernel", [5], backend, hls_mode=False)
    assert not isinstance(info.value, HlsSimulationFault)


# ---------------------------------------------------------------------------
# Whole-result equivalence on a meaty program
# ---------------------------------------------------------------------------

def test_full_result_identical_on_recursive_program(tree_source):
    unit = parse(tree_source)
    args = [[5, 3, 8, 1, 4, 9, 2, 7, 6, 0, 11, 13, 12, 10, 15, 14], 16]
    tree = run_on(unit, "kernel", args, "tree")
    for backend in ENGINES[1:]:
        other = run_on(unit, "kernel", args, backend)
        assert tree.observable() == other.observable()
        assert tree.steps == other.steps
        assert tree.coverage.hits == other.coverage.hits


GLOBAL_CALL_SRC = """
int scale(int x) {
    if (x > 2) { return x * 3; }
    return x + 1;
}
int g = scale(4);
int h = g + scale(1);
int kernel(int a) {
    g = g + a;
    return g * 10 + h;
}
"""

STRUCT_GLOBAL_SRC = """
struct Pt { unsigned char x; int y; };
struct Pt origin;
int kernel(int a) {
    origin.x = origin.x + a;
    origin.y = origin.x * 2;
    return origin.x + origin.y;
}
"""


STRUCT_BRACE_GLOBAL_SRC = """
struct P { int a; int b; };
struct P g = {3, 4};
int kernel(int x) {
    return g.a + x;
}
"""

SCALAR_BRACE_GLOBAL_SRC = """
int g = {3};
int kernel(int x) {
    return g + x;
}
"""


def surface(engine, func, args):
    """One run reduced to everything the engines must agree on."""
    try:
        result = engine.run(func, list(args))
    except Exception as exc:  # TypeError/IndexError escape both engines
        return ("fault", type(exc), str(exc))
    return (
        "ok", result.observable(), result.steps, result.coverage.hits,
        _profile_key(result.profile),
    )


@pytest.mark.parametrize("src,args,value", [
    (GLOBAL_CALL_SRC, [5], 184),  # g = 12, h = 14
    (GLOBAL_CALL_SRC, [-3], 104),
    (STRUCT_GLOBAL_SRC, [300], 132),  # x wraps to 44 by its field type
    (STRUCT_BRACE_GLOBAL_SRC, [1], None),
    (SCALAR_BRACE_GLOBAL_SRC, [1], None),
], ids=[
    "global-calls-function", "global-calls-function-neg", "struct-global",
    "struct-brace-global", "scalar-brace-global",
])
def test_global_initializers_match(src, args, value):
    """Global initializers are generated per unit by batch itself: one
    that calls a defined function binds to batch's generated function,
    stores to a struct-typed global's fields coerce to the field types
    in batch's struct table, and a brace list for a struct or scalar
    global is evaluated and faults exactly where the tree-walker's
    does (``value`` None: the tree-walker faults)."""
    unit = parse(src)
    tree = surface(engine_for(unit, "tree"), "kernel", args)
    if value is None:
        assert tree[0] == "fault"
    else:
        assert tree[0] == "ok" and tree[1][0] == value
    for backend in ENGINES[1:]:
        engine = engine_for(unit, backend)
        for _ in range(2):  # every run re-initializes the globals
            assert surface(engine, "kernel", args) == tree
    if src is GLOBAL_CALL_SRC:
        # scale's branch runs only inside the initializers.
        assert len(tree[3]) == 2


# ---------------------------------------------------------------------------
# Struct fields, brace lists and stream writes
# ---------------------------------------------------------------------------

STRUCT_P = "struct P { int a; unsigned char b; };\n"

#: Source, then what the tree-walker does on ``k(9)``: the returned value,
#: or the fault's type and text (None: any text).
SHAPES = {
    "addr-of-field": (STRUCT_P + """
int k(int x) {
    struct P s;
    s.a = x;
    int *q = &s.a;
    return *q;
}
""", (InterpError, "address-of a struct field is unsupported")),
    "field-postdec": (STRUCT_P + """
int k(int x) {
    struct P s;
    s.a = x;
    s.a--;
    int y = s.a--;
    --s.b;
    return y * 1000 + s.a + s.b;
}
""", 8 * 1000 + 7 + 255),
    "arrow-compound-sub": (STRUCT_P + """
int k(int x) {
    struct P s;
    struct P *p = &s;
    p->a = x;
    p->a -= 7;
    p->b = 250;
    p->b -= x;
    return p->a * 1000 + p->b;
}
""", 2 * 1000 + 241),
    "scalar-brace-local": ("""
int k(int x) {
    int y = {x};
    return y;
}
""", (TypeError, None)),
    "struct-brace-local": (STRUCT_P + """
int k(int x) {
    struct P p = {x, 2};
    if (x > 5) { return p.a; }
    return x;
}
""", (MemoryFault, "member access 'a' on a non-struct value")),
    "stream-write-no-args": ("""
int k(int x) {
    hls::stream<int> s;
    s.write();
    return x;
}
""", (IndexError, None)),
    "stream-write-two-args": ("""
int k(int x) {
    hls::stream<int> s;
    s.write(x, 1);
    s.write(x + 1, 2);
    return s.read() * 10 + s.size();
}
""", 91),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_generated_shapes_match(name):
    """Every engine agrees on observables, steps, coverage, profile, and
    fault type and text for the struct-field, brace-list and stream-write
    shapes the generator lowers."""
    src, expected = SHAPES[name]
    unit = parse(src)
    tree = surface(engine_for(unit, "tree"), "k", [9])
    if isinstance(expected, tuple):
        kind, text = expected
        assert tree[:2] == ("fault", kind)
        assert text is None or tree[2] == text
    else:
        assert tree[0] == "ok" and tree[1][0] == expected
    for x in (3, 9):
        tree = surface(engine_for(unit, "tree"), "k", [x])
        for backend in ENGINES[1:]:
            assert surface(engine_for(unit, backend), "k", [x]) == tree


@BOTH
def test_want_out_args_gating(backend, sum_array_source):
    unit = parse(sum_array_source)
    args = [[1, 2, 3, 4, 5, 6, 7, 8], 8]
    lean = engine_for(unit, backend, want_out_args=False)
    full = engine_for(unit, backend)
    lean_result = lean.run("sum_array", list(args))
    full_result = full.run("sum_array", list(args))
    assert lean_result.out_args == []
    assert full_result.out_args  # materialized
    assert lean_result.value == full_result.value
    assert lean_result.steps == full_result.steps


# ---------------------------------------------------------------------------
# The cross-check harness itself
# ---------------------------------------------------------------------------

def test_cross_backend_runs_and_agrees(sum_array_source):
    engine = make_engine(parse(sum_array_source), backend="batch-cross")
    assert isinstance(engine, BatchCrossCheckEngine)
    result = engine.run("sum_array", [[1, 2, 3, 4, 5, 6, 7, 8], 4])
    assert result.value == 10


def test_cross_backend_compares_exceptions():
    engine = make_engine(parse(WALK_SRC), backend="batch-cross")
    with pytest.raises(MemoryFault):
        engine.run("poke", [4])


def test_cross_backend_detects_value_divergence(sum_array_source):
    engine = make_engine(parse(sum_array_source), backend="batch-cross")
    real_run_many = engine.batch.run_many

    def tampered(func_name, arg_sets, max_faults=None):
        records = real_run_many(func_name, arg_sets, max_faults=max_faults)
        records[0].result.value += 1
        return records

    engine.batch.run_many = tampered
    with pytest.raises(BackendMismatch):
        engine.run("sum_array", [[1, 2, 3, 4, 5, 6, 7, 8], 4])


def test_cross_backend_detects_missing_exception(sum_array_source):
    engine = make_engine(parse(WALK_SRC), backend="batch-cross")
    real_run_many = engine.batch.run_many

    def swallowing(func_name, arg_sets, max_faults=None):
        records = real_run_many(func_name, arg_sets, max_faults=max_faults)
        return [BatchRecord(result=r.result) for r in records]

    engine.batch.run_many = swallowing
    with pytest.raises(BackendMismatch):
        engine.run("poke", [4])


SUM_INPUTS = [[[1, 2, 3, 4, 5, 6, 7, 8], n] for n in (1, 4, 8)]


def test_cross_backend_checks_the_pooled_pass(sum_array_source):
    """Consumers batch through ``engine_run_many``; under ``batch-cross``
    that must reach batch's pooled ``run_many``, so a divergence planted
    there in one record of the batch is caught."""
    engine = make_engine(parse(sum_array_source), backend="batch-cross")
    real_run_many = engine.batch.run_many

    def tampered(func_name, arg_sets, max_faults=None):
        records = real_run_many(func_name, arg_sets, max_faults=max_faults)
        records[1].result.value += 1
        return records

    engine.batch.run_many = tampered
    with pytest.raises(BackendMismatch, match="observable"):
        engine_run_many(engine, "sum_array", SUM_INPUTS)


def test_cross_backend_pooled_pass_agrees_under_max_faults():
    """With a fault budget both engines skip the same records, and the
    batch records are what the consumer gets."""
    engine = make_engine(parse(WALK_SRC), backend="batch-cross")
    tests = [[0], [4], [1], [5]]
    records = engine_run_many(engine, "poke", tests, max_faults=1)
    assert [r.skipped for r in records] == [False, False, True, True]
    assert records[0].result.value == 7
    assert isinstance(records[1].error, MemoryFault)


def test_cross_backend_detects_skip_divergence():
    engine = make_engine(parse(WALK_SRC), backend="batch-cross")
    real_run_many = engine.batch.run_many

    def unbudgeted(func_name, arg_sets, max_faults=None):
        return real_run_many(func_name, arg_sets)  # ignores the budget

    engine.batch.run_many = unbudgeted
    with pytest.raises(BackendMismatch, match="skipped"):
        engine_run_many(engine, "poke", [[4], [0]], max_faults=1)


def test_backend_mismatch_is_not_interp_error():
    """The harness treats InterpError as a candidate fault; a backend bug
    must never be swallowed that way."""
    assert not issubclass(BackendMismatch, InterpError)
    assert issubclass(BackendMismatch, AssertionError)


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

def test_make_engine_types(sum_array_source):
    unit = parse(sum_array_source)
    assert isinstance(make_engine(unit, backend="tree"), Interpreter)
    assert isinstance(make_engine(unit, backend="batch"), BatchEngine)
    assert isinstance(
        make_engine(unit, backend="batch-cross"), BatchCrossCheckEngine
    )
    for retired in ("compiled", "cross", "bogus"):
        with pytest.raises(ValueError):
            make_engine(unit, backend=retired)


def test_default_backend_roundtrip(sum_array_source):
    unit = parse(sum_array_source)
    original = default_backend()
    try:
        set_default_backend("tree")
        assert isinstance(make_engine(unit), Interpreter)
        set_default_backend("batch")
        assert isinstance(make_engine(unit), BatchEngine)
        with pytest.raises(ValueError):
            set_default_backend("compiled")
    finally:
        set_default_backend(original)
    assert BACKENDS == ("tree", "batch", "batch-cross")


@pytest.mark.parametrize("raw, backend", [
    (None, "batch"), ("", "batch"), ("  ", "batch"), ("batch", "batch"),
    ("tree", "tree"), (" Tree ", "tree"), ("BATCH-CROSS", "batch-cross"),
])
def test_backend_env_values(monkeypatch, raw, backend):
    if raw is None:
        monkeypatch.delenv("REPRO_INTERP_BACKEND", raising=False)
    else:
        monkeypatch.setenv("REPRO_INTERP_BACKEND", raw)
    assert batch_module._backend_from_env() == backend


@pytest.mark.parametrize("raw", ["bogus", "compiled", "cross"])
def test_unknown_backend_env_value_raises(monkeypatch, raw):
    monkeypatch.setenv("REPRO_INTERP_BACKEND", raw)
    with pytest.raises(ValueError, match="REPRO_INTERP_BACKEND") as info:
        batch_module._backend_from_env()
    assert "'batch-cross'" in str(info.value)


def _default_backend_in_fresh_process(raw):
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, REPRO_INTERP_BACKEND=raw, PYTHONPATH=package_root)
    return subprocess.run(
        [sys.executable, "-c",
         "from repro.interp import batch; print(batch.default_backend())"],
        env=env, capture_output=True, text=True,
    )


def test_empty_backend_env_value_means_batch():
    proc = _default_backend_in_fresh_process("")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "batch"


def test_unknown_backend_env_value_fails_at_import():
    proc = _default_backend_in_fresh_process("bogus")
    assert proc.returncode != 0
    assert "unknown REPRO_INTERP_BACKEND value 'bogus'" in proc.stderr


# ---------------------------------------------------------------------------
# Argument marshalling faults
# ---------------------------------------------------------------------------


class TestArgumentMarshalling:
    """An argument that cannot be marshalled into the parameter's C type
    (e.g. a test tuple shaped for a different signature after a
    ``set_top`` edit) must surface as an InterpError — a faulty
    candidate, never a raw TypeError crashing the harness."""

    @BOTH
    def test_list_for_scalar_is_interp_error(self, backend):
        with pytest.raises(InterpError, match="cannot marshal"):
            run_c("int k(int y) { return y; }", "k", [[1, 2, 3]], backend)

    @BOTH
    def test_string_for_scalar_is_interp_error(self, backend):
        with pytest.raises(InterpError, match="cannot marshal"):
            run_c("int k(int y) { return y; }", "k", ["nope"], backend)

    @BOTH
    def test_message_names_function_and_parameter(self, backend):
        with pytest.raises(InterpError, match=r"k: .*'y'"):
            run_c("int k(int y) { return y; }", "k", [[1]], backend)
