"""Acceptance: batch's expression closures stay bit-identical across Table 3.

Batch splices an expression's closure in wherever its generator declines
the expression, and every unit's global initializers are closures, so
the closures must match the tree-walker on their own too.  Under
:func:`~.engines.closure_lowering` the generator declines every
expression, so fuzzing each subject with ``backend="batch-cross"`` runs
generated statements whose every expression is a closure against the
tree-walker and asserts identical observables, step counts, coverage
hits and value profiles.  A divergence raises ``BackendMismatch`` (an
``AssertionError``), failing the campaign outright.
"""

from __future__ import annotations

import pytest

from repro.errors import InterpError
from repro.fuzz import FuzzConfig, fuzz_kernel
from repro.interp import ExecLimits, engine_run_many, make_engine
from repro.subjects import all_subjects

from .engines import closure_lowering, engine_for

#: Modest CI budget; the benchmark harness replays full corpora with the
#: same identity assertion on every run.
CROSS_EXECS = 120

LIMITS = ExecLimits(max_steps=60_000, max_depth=128)

SUBJECTS = all_subjects()


@pytest.mark.parametrize("subject", SUBJECTS, ids=[s.id for s in SUBJECTS])
def test_fuzz_corpus_batch_cross_checks(subject):
    unit = subject.parse()
    with closure_lowering():
        report = fuzz_kernel(
            unit,
            subject.kernel,
            FuzzConfig(
                max_execs=CROSS_EXECS, plateau_execs=CROSS_EXECS, seed=7
            ),
            seeds=subject.existing_test_list() or None,
            limits=LIMITS,
            backend="batch-cross",
        )
    assert report.execs > 0

    # Replay part of the corpus in HLS mode: wrap/fault translation must
    # agree between the tree-walker and the closures too.
    with closure_lowering():
        engine = make_engine(
            subject.parse(), backend="batch-cross", limits=LIMITS,
            hls_mode=True,
        )
    for test in report.suite(20):
        try:
            engine.run(subject.kernel, test)
        except InterpError:
            pass  # a fault is fine — only divergence is not


@pytest.mark.parametrize("subject", SUBJECTS, ids=[s.id for s in SUBJECTS])
def test_run_many_matches_compiled_on_subject_suite(subject):
    """The pooled batched pass over each subject's existing tests must
    produce the same record stream as the closures run one input at a
    time."""
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
