"""Acceptance: batch's pooled ``run_many`` pass stays bit-identical across Table 3.

:mod:`.test_cross_check_subjects` fuzzes every subject under
``batch-cross``, whose own comparison checks the pooled pass against the
tree-walker.  Here the check does not go through that engine: each
subject's fuzz corpus is replayed through one plain batch ``run_many``
call, in CPU and in HLS mode, and every record is checked against a
fresh tree-walker run of that input: observables, step counts, coverage
hits, value profiles, and the fault type and message.  A second test
checks that the pooled pass over a subject's existing tests gives the
records that fresh one-input runs (the ``compiled`` engine of
:mod:`.engines`) give.
"""

from __future__ import annotations

import pytest

from repro.errors import InterpError
from repro.fuzz import FuzzConfig, fuzz_kernel
from repro.interp import ExecLimits, engine_run_many, make_engine
from repro.interp.batch import _profile_key
from repro.subjects import all_subjects

from .engines import engine_for

#: Modest CI budget; the benchmark harness replays full corpora with the
#: same identity assertion on every run.
CROSS_EXECS = 120

LIMITS = ExecLimits(max_steps=60_000, max_depth=128)

SUBJECTS = all_subjects()


def _tree_surface(tree, kernel, test):
    try:
        result = tree.run(kernel, list(test))
    except InterpError as exc:
        return ("fault", type(exc), str(exc))
    return (
        "ok", result.observable(), result.steps, result.coverage.hits,
        _profile_key(result.profile),
    )


def _record_surface(record):
    if record.error is not None:
        return ("fault", type(record.error), str(record.error))
    result = record.result
    return (
        "ok", result.observable(), result.steps, result.coverage.hits,
        _profile_key(result.profile),
    )


@pytest.mark.parametrize("subject", SUBJECTS, ids=[s.id for s in SUBJECTS])
def test_fuzz_corpus_batch_cross_checks(subject):
    unit = subject.parse()
    report = fuzz_kernel(
        unit,
        subject.kernel,
        FuzzConfig(max_execs=CROSS_EXECS, plateau_execs=CROSS_EXECS, seed=7),
        seeds=subject.existing_test_list() or None,
        limits=LIMITS,
        backend="batch",
    )
    assert report.execs > 0
    tests = report.suite(40)
    for hls_mode in (False, True):
        batch = make_engine(
            unit, backend="batch", limits=LIMITS, hls_mode=hls_mode
        )
        tree = make_engine(
            unit, backend="tree", limits=LIMITS, hls_mode=hls_mode
        )
        records = engine_run_many(batch, subject.kernel, tests)
        assert len(records) == len(tests)
        for test, record in zip(tests, records):
            assert _record_surface(record) == _tree_surface(
                tree, subject.kernel, test
            ), f"{subject.id} (hls_mode={hls_mode}) diverged on {test!r}"


@pytest.mark.parametrize("subject", SUBJECTS, ids=[s.id for s in SUBJECTS])
def test_run_many_matches_compiled_on_subject_suite(subject):
    """The pooled batched pass over each subject's existing tests must
    produce the same record stream as the generated code run on a fresh
    engine one input at a time."""
    tests = subject.existing_test_list()
    if not tests:
        pytest.skip(f"{subject.id} has no pre-existing test suite")
    unit = subject.parse()
    batch = make_engine(unit, backend="batch", limits=LIMITS)
    compiled = engine_for(unit, "compiled", limits=LIMITS)
    native = engine_run_many(batch, subject.kernel, tests)
    assert len(native) == len(tests)
    for test, n in zip(tests, native):
        try:
            expected = compiled.run(subject.kernel, list(test))
        except InterpError as exc:
            assert type(n.error) is type(exc)
            assert str(n.error) == str(exc)
            continue
        assert n.error is None
        assert n.result.value == expected.value
        assert n.result.out_args == expected.out_args
        assert n.result.steps == expected.steps
        assert n.result.coverage.hits == expected.coverage.hits
