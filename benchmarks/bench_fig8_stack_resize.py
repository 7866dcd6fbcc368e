"""Figure 8 / §6.2 — the stack-resize story.

With only the pre-existing suite, HeteroGen's stack-based recursion
replacement keeps its initial (too small) stack and every existing test
still passes.  With the generated tests, deep inputs overflow the stack,
a large fraction of tests diverge, and the ``resize`` repair is forced —
after which all tests pass.  (Paper: stack 1024 → 44% of generated tests
diverged → 2048; our capacities are scaled to the smaller workloads.)
"""

import pytest

from repro.core.edits import Candidate, RepairContext
from repro.core.edits.dynamic_data import (
    INITIAL_STACK_SIZE,
    ResizeEdit,
    StackTransEdit,
)
from repro.difftest import differential_test
from repro.fuzz import FuzzConfig, fuzz_kernel, get_kernel_seed
from repro.hls import compile_unit
from repro.subjects import get_subject

from _shared import SEED, write_table


def run_fig8():
    subject = get_subject("P3")
    unit = subject.parse()
    context = RepairContext(kernel_name=subject.kernel)

    # Apply only stack_trans, leaving the initial stack capacity.
    cand = Candidate(unit=unit, config=subject.solution)
    report = compile_unit(cand.unit, cand.config)
    app = StackTransEdit().propose(cand, report.errors, context)[0]
    unresized = app.apply(cand)
    assert compile_unit(unresized.unit, unresized.config).ok

    existing = subject.existing_test_list()
    seeds = get_kernel_seed(
        unit, subject.host, subject.kernel, list(subject.host_args)
    )
    generated = fuzz_kernel(
        unit, subject.kernel,
        FuzzConfig(max_execs=1500, plateau_execs=500, seed=SEED),
        seeds=seeds,
    ).suite(60)

    def pass_ratio(candidate, tests):
        diff = differential_test(
            unit, candidate.unit, subject.kernel, candidate.config, tests
        )
        return diff.pass_ratio

    existing_ratio = pass_ratio(unresized, existing)
    generated_ratio = pass_ratio(unresized, generated)

    resized = unresized
    resizes = 0
    while pass_ratio(resized, generated) < 1.0 and resizes < 6:
        apps = ResizeEdit().propose(resized, [], context)
        stack_app = next(a for a in apps if "_stk" in a.label)
        resized = stack_app.apply(resized)
        resizes += 1
    final_ratio = pass_ratio(resized, generated)
    return existing_ratio, generated_ratio, resizes, final_ratio


def test_fig8(benchmark):
    existing_ratio, generated_ratio, resizes, final_ratio = benchmark.pedantic(
        run_fig8, rounds=1, iterations=1
    )
    text = "\n".join(
        [
            "Figure 8 / §6.2 — stack sizing driven by generated tests",
            f"initial stack capacity          : {INITIAL_STACK_SIZE}",
            f"pass ratio on pre-existing suite: {existing_ratio:.0%}",
            f"pass ratio on generated suite   : {generated_ratio:.0%}",
            f"resize edits forced             : {resizes}",
            f"pass ratio after resizing       : {final_ratio:.0%}",
            "",
            "paper: existing tests all passed at stack=1024; 44% of the",
            "generated tests diverged until the stack was resized to 2048.",
        ]
    )
    write_table("fig8_stack_resize.txt", text)

    # The §6.2 claims, in order:
    assert existing_ratio == 1.0        # weak suite sees nothing wrong
    assert generated_ratio < 1.0        # generated tests expose the bug
    assert resizes >= 1                 # a resize was forced
    assert final_ratio == 1.0           # and it repairs behaviour
