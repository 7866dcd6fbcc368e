"""Acceptance: batch stays bit-identical to the tree-walker across Table 3.

Fuzzing each subject under ``backend="batch-cross"`` executes every
generated input through both the tree-walker (the oracle) and batch's
pooled ``run_many`` pass, which the fuzzer reaches through
``engine_run_many``, and asserts identical observables, step counts,
coverage hits, value profiles, captured arguments and faults (type and
message).  Part of the corpus is then replayed in HLS mode through one
pooled pass.  :class:`BackendMismatch` is an ``AssertionError``, not an
``InterpError``, so a divergence is never swallowed as an ordinary
candidate fault — it fails the fuzz campaign (and this test) outright.
"""

from __future__ import annotations

import pytest

from repro.fuzz import FuzzConfig, fuzz_kernel, get_kernel_seed
from repro.interp import ExecLimits, engine_run_many, make_engine
from repro.errors import InterpError
from repro.subjects import all_subjects

#: Modest CI budget; the ad-hoc sweep used during development ran each
#: subject at several hundred executions with zero mismatches.
CROSS_EXECS = 120

LIMITS = ExecLimits(max_steps=60_000, max_depth=128)

SUBJECTS = all_subjects()


@pytest.mark.parametrize("subject", SUBJECTS, ids=[s.id for s in SUBJECTS])
def test_fuzz_corpus_cross_checks(subject):
    unit = subject.parse()
    seeds = subject.existing_test_list() or None
    if subject.host:
        try:
            seeds = get_kernel_seed(
                unit, subject.host, subject.kernel, list(subject.host_args),
                backend="batch-cross",
            ) + (seeds or [])
        except InterpError:
            pass
    report = fuzz_kernel(
        unit,
        subject.kernel,
        FuzzConfig(max_execs=CROSS_EXECS, plateau_execs=CROSS_EXECS, seed=7),
        seeds=seeds,
        limits=LIMITS,
        backend="batch-cross",
    )
    assert report.execs > 0

    # Replay part of the corpus in HLS mode: the wrap/fault translation
    # path must agree between backends too.  A fault is fine — only
    # divergence is not.
    engine = make_engine(
        unit, backend="batch-cross", limits=LIMITS, hls_mode=True
    )
    tests = report.suite(40)
    assert len(engine_run_many(engine, subject.kernel, tests)) == len(tests)
