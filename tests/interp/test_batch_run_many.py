"""``run_many`` semantics: pooling must never leak state between inputs.

The batch backend reuses one Runtime and one global frame across the
whole batch.  These tests pin the contract down:

* a faulting input yields an error record and its batch siblings are
  bit-identical to fresh single-input runs (fault isolation);
* ``max_faults`` aborts in input order and marks the remainder skipped
  without executing it;
* statics, captured calls, coverage and step counters reset per input;
* every input rebuilds the globals exactly as a fresh run does,
  including initializers that record coverage;
* the generic :func:`engine_run_many` loop gives any backend the same
  record contract the batch backend implements natively.
"""

from __future__ import annotations

import pytest

from repro.errors import HlsSimulationFault, InterpLimitExceeded, MemoryFault
from repro.cfront.parser import parse
from repro.interp import (
    BatchRecord,
    ExecLimits,
    engine_run_many,
    make_engine,
)

LIMITS = ExecLimits(max_steps=200_000, max_depth=64)

OOB_SRC = """
int pick(int xs[4], int idx) {
    return xs[idx] * 10;
}
"""

SPIN_SRC = """
int spin(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        total += i;
    }
    return total;
}
"""

STATIC_SRC = """
int tick(int step) {
    static int counter = 100;
    counter += step;
    return counter;
}
"""

GLOBAL_ARRAY_SRC = """
int BASE = 40;
int TABLE[4] = {1, 2, 4, 8};

int global_mix(int i) {
    TABLE[i & 3] += BASE;
    return TABLE[i & 3];
}
"""

GLOBAL_BRANCH_SRC = """
int GATE = 1 && 2;

int gated(int x) {
    return GATE + x;
}
"""

CAPTURE_SRC = """
int inner(int x) {
    return x * 2;
}

int outer(int a, int b) {
    return inner(a) + inner(b);
}
"""

GOOD = [10, 20, 30, 40]


def batch_engine(src, **kwargs):
    return make_engine(
        parse(src), backend="batch", limits=LIMITS, **kwargs
    )


def test_fault_isolation_mid_batch():
    """Input 1 faults; inputs 0 and 2 must match fresh single runs."""
    engine = batch_engine(OOB_SRC)
    fresh = batch_engine(OOB_SRC)
    tests = [[GOOD, 1], [GOOD, 9], [GOOD, 3]]
    records = engine.run_many("pick", tests)
    assert [r.error is not None for r in records] == [False, True, False]
    assert isinstance(records[1].error, MemoryFault)
    for test, record in zip(tests, records):
        if record.error is not None:
            with pytest.raises(MemoryFault) as exc_info:
                fresh.run("pick", list(test))
            assert str(exc_info.value) == str(record.error)
        else:
            result = fresh.run("pick", list(test))
            assert record.result.value == result.value
            assert record.result.steps == result.steps
            assert record.result.coverage.hits == result.coverage.hits


def test_step_budget_fault_does_not_poison_siblings():
    tight = ExecLimits(max_steps=200, max_depth=64)
    engine = make_engine(parse(SPIN_SRC), backend="batch", limits=tight)
    records = engine.run_many("spin", [[3], [10_000], [3]])
    assert records[0].error is None and records[2].error is None
    assert isinstance(records[1].error, InterpLimitExceeded)
    # The sibling after the blown budget sees a fully reset counter.
    assert records[0].result.steps == records[2].result.steps
    assert records[0].result.value == records[2].result.value == 3


def test_max_faults_skips_remainder_in_order():
    engine = batch_engine(OOB_SRC)
    tests = [[GOOD, 9], [GOOD, 0], [GOOD, 9], [GOOD, 1], [GOOD, 2]]
    records = engine.run_many("pick", tests, max_faults=2)
    assert records[0].error is not None
    assert records[1].error is None
    assert records[2].error is not None
    # Budget exhausted: everything after the second fault is skipped,
    # even inputs that would have succeeded.
    assert records[3].skipped and records[4].skipped
    assert records[3].result is None and records[3].error is None


def test_generic_loop_matches_native_run_many():
    """The tree-walker through engine_run_many must produce the same
    record stream the batch backend builds natively."""
    tests = [[GOOD, 1], [GOOD, 9], [GOOD, 3], [GOOD, 8], [GOOD, 0]]
    native = batch_engine(OOB_SRC).run_many("pick", tests, max_faults=2)
    looped = engine_run_many(
        make_engine(parse(OOB_SRC), backend="tree", limits=LIMITS),
        "pick", tests, max_faults=2,
    )
    assert len(native) == len(looped) == len(tests)
    for n, l in zip(native, looped):
        assert n.skipped == l.skipped
        assert (n.error is None) == (l.error is None)
        if n.error is not None:
            assert type(n.error) is type(l.error)
            assert str(n.error) == str(l.error)
        elif not n.skipped:
            assert n.result.value == l.result.value
            assert n.result.steps == l.result.steps


def test_statics_reset_between_inputs():
    """A static local must not smuggle state from one input to the next:
    every input starts from the initializer, exactly as a fresh run."""
    engine = batch_engine(STATIC_SRC)
    records = engine.run_many("tick", [[5], [5], [7]])
    assert [r.result.value for r in records] == [105, 105, 107]


def test_pooled_globals_reset_between_inputs():
    """The kernel mutates a global array; every input must start from
    the initial values, and pay the init step charges, afresh."""
    engine = batch_engine(GLOBAL_ARRAY_SRC)
    fresh = batch_engine(GLOBAL_ARRAY_SRC)
    records = engine.run_many("global_mix", [[0], [0], [2], [0]])
    assert [r.result.value for r in records] == [41, 41, 44, 41]
    single = fresh.run("global_mix", [0])
    assert records[0].result.steps == single.steps
    assert records[-1].result.steps == single.steps


def test_unpoolable_globals_rebuild_per_input():
    """``1 && 2`` records branch coverage in the initializer, so every
    input's record must carry it, as a fresh run's does."""
    unit = parse(GLOBAL_BRANCH_SRC)
    engine = make_engine(unit, backend="batch", limits=LIMITS)
    # Same unit: coverage keys are node uids, so the comparison below
    # needs both engines looking at one parse.
    fresh = make_engine(unit, backend="batch", limits=LIMITS)
    records = engine.run_many("gated", [[1], [2]])
    for record, x in zip(records, [1, 2]):
        single = fresh.run("gated", [x])
        assert record.result.value == single.value == 1 + x
        assert record.result.steps == single.steps
        assert record.result.coverage.hits == single.coverage.hits


def test_captured_calls_reset_per_input():
    engine = batch_engine(CAPTURE_SRC, capture_calls="inner")
    records = engine.run_many("outer", [[1, 2], [7, 8]])
    assert records[0].result.captured_args == [[1], [2]]
    assert records[1].result.captured_args == [[7], [8]]
    # The engine attribute mirrors the *last* input, like repeated run().
    assert engine.captured == [[7], [8]]


def test_hls_mode_translates_oob_faults():
    engine = batch_engine(OOB_SRC, hls_mode=True)
    records = engine.run_many("pick", [[GOOD, 9], [GOOD, 0]])
    assert isinstance(records[0].error, HlsSimulationFault)
    assert isinstance(records[0].error.__cause__, MemoryFault)
    assert records[1].error is None


def test_unknown_function_faults_every_input():
    engine = batch_engine(OOB_SRC)
    records = engine.run_many("nope", [[GOOD, 0], [GOOD, 1]])
    assert all(r.error is not None for r in records)
    assert "no function named 'nope'" in str(records[0].error)


def test_empty_batch():
    assert batch_engine(OOB_SRC).run_many("pick", []) == []


def test_record_repr_shapes():
    assert "skipped" in repr(BatchRecord(skipped=True))
