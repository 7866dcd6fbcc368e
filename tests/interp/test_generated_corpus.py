"""Cross-backend equivalence over the generated subject corpus.

The ten Table 3 subjects each exercise one seeded incompatibility; the
generated corpus (:mod:`repro.subjects.generated`) sweeps the rest of
the parseable subset — wrap at every width, fixed-point, streams,
structs, pointer faults, recursion, statics, globals.  Every program is
run under the tree-walker and under batch's two test engines, fresh and
warm pooled (see :mod:`.engines`), and the full observable surface
(value, out args, steps, coverage, fault type and message) must be
identical; the batch backend is additionally required to run every test
through one ``run_many`` call with per-record identity.
"""

from __future__ import annotations

import pytest

from repro.cfront import nodes as N
from repro.errors import InterpError
from repro.interp import ExecLimits, engine_run_many, make_engine
from repro.subjects import generated_subjects

from .engines import ENGINES, engine_for

LIMITS = ExecLimits(max_steps=500_000, max_depth=256)

CORPUS = generated_subjects()


def observe(engine, kernel, test):
    """One execution reduced to its comparable surface."""
    try:
        result = engine.run(kernel, list(test))
    except InterpError as exc:
        return ("fault", type(exc).__name__, str(exc), engine.steps)
    return (
        "ok",
        result.value,
        result.out_args,
        result.steps,
        frozenset(result.coverage.hits),
    )


@pytest.mark.parametrize("gs", CORPUS, ids=[g.name for g in CORPUS])
def test_backends_agree(gs):
    unit = gs.parse()
    engines = {
        backend: engine_for(unit, backend, limits=LIMITS)
        for backend in ENGINES
    }
    saw_fault = False
    for test in gs.tests:
        surfaces = {b: observe(e, gs.kernel, test) for b, e in engines.items()}
        assert surfaces["tree"] == surfaces["compiled"] == surfaces["batch"], (
            f"{gs.name}: backends diverged on {test!r}"
        )
        saw_fault = saw_fault or surfaces["tree"][0] == "fault"
    if gs.faulting:
        assert saw_fault, f"{gs.name}: expected at least one faulting test"


@pytest.mark.parametrize("gs", CORPUS, ids=[g.name for g in CORPUS])
def test_run_many_matches_per_input_runs(gs):
    unit = gs.parse()
    batch = make_engine(unit, backend="batch", limits=LIMITS)
    tree = make_engine(unit, backend="tree", limits=LIMITS)
    records = engine_run_many(batch, gs.kernel, gs.tests)
    assert len(records) == len(gs.tests)
    for test, record in zip(gs.tests, records):
        expected = observe(tree, gs.kernel, test)
        if record.error is not None:
            assert expected[0] == "fault"
            assert type(record.error).__name__ == expected[1]
            assert str(record.error) == expected[2]
        else:
            assert expected == (
                "ok",
                record.result.value,
                record.result.out_args,
                record.result.steps,
                frozenset(record.result.coverage.hits),
            )


def test_corpus_generates_without_fallbacks():
    """The corpus exists to exercise the batch code generator, so every
    function of every program, and its global initializer, must be
    generated code."""
    for gs in CORPUS:
        program = make_engine(gs.parse(), backend="batch", limits=LIMITS).program
        bodies = list(program.functions.values()) + list(program.methods.values())
        assert bodies, gs.name
        for cf in bodies:
            cf.lower()
            assert cf.body.__code__.co_filename == f"<batch:{cf.name}>", (
                f"{gs.name}: {cf.name} is not generated code"
            )
        if any(isinstance(d, N.VarDecl) for d in program.unit.decls):
            assert program.global_init.__code__.co_filename == (
                "<batch:globals>"
            ), gs.name


def test_corpus_shape():
    names = [g.name for g in CORPUS]
    assert len(names) == len(set(names)), "duplicate corpus names"
    assert len(names) >= 20
    assert all(g.tests for g in CORPUS), "every program needs inputs"
