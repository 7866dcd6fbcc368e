"""The batch backend's memo of compiled code objects.

Generated source is keyed by function name and source digest, so units
that lower a function to the same text share one code object.  Each
function still ``exec``s it into its own constant pool: the functions are
distinct and bound to that unit's callees and constants, and a function's
source does not depend on the functions lowered before it.
"""

from __future__ import annotations

import traceback

import pytest

from repro.cfront import parse
from repro.cfront.fingerprint import forced_mode
from repro.errors import MemoryFault
from repro.interp import batch, make_engine
from repro.interp.batch import _CODE_MEMO, _RECENT_LIMIT
from repro.memo import clear_analysis_caches

CALLER = """
int g(int x) {{ return x * {k}; }}
int f(int x) {{ return g(x) + 1; }}
"""


def lower(source: str):
    """The unit's batch program with every function body lowered, through
    the hook a function's first call uses."""
    program = make_engine(parse(source), backend="batch").program
    for cf in program.functions.values():
        cf.lower()
    return program


def test_same_source_shares_code_but_not_bindings():
    with forced_mode("on"):
        clear_analysis_caches()
        two = lower(CALLER.format(k=2))
        hits = _CODE_MEMO.hits
        three = lower(CALLER.format(k=3))
        assert _CODE_MEMO.hits == hits + 1  # f repeats; g differs
        f2, f3 = two.functions["f"].body, three.functions["f"].body
        assert f2.__code__ is f3.__code__
        assert f2 is not f3
        assert f2.__globals__ is not f3.__globals__
        assert make_engine(two.unit, backend="batch").run("f", [5]).value == 11
        assert make_engine(three.unit, backend="batch").run("f", [5]).value == 16


def test_function_source_does_not_depend_on_earlier_functions():
    # h pools its float literal but inlines the int one; f, lowered after
    # it, is the same text in both units and must hit the memo.
    source = """
    float h(float x) {{ return x * {factor}; }}
    int f(int x) {{ return x + 1; }}
    """
    with forced_mode("on"):
        clear_analysis_caches()
        lower(source.format(factor="2"))
        hits = _CODE_MEMO.hits
        lower(source.format(factor="2.5f"))
        assert _CODE_MEMO.hits == hits + 1  # f repeats; h differs


def test_a_function_is_lowered_at_its_first_call(monkeypatch):
    compiled = []

    def recording_compile(src, filename, mode):
        compiled.append(filename)
        return compile(src, filename, mode)

    monkeypatch.setattr(batch, "compile", recording_compile, raising=False)
    source = CALLER.format(k=5) + "int host(void) { return f(2); }\n"
    with forced_mode("on"):
        clear_analysis_caches()
        engine = make_engine(parse(source), backend="batch")
        functions = engine.program.functions
        assert [cf.body for cf in functions.values()] == [None] * 3
        assert engine.run("f", [5]).value == 26
    assert functions["host"].body is None
    assert sorted(compiled) == ["<batch:f>", "<batch:g>"]


def test_clear_analysis_caches_empties_the_memo():
    with forced_mode("on"):
        lower(CALLER.format(k=4))
        assert len(_CODE_MEMO) > 0
        clear_analysis_caches()
        assert len(_CODE_MEMO) == 0
        assert _CODE_MEMO.hits == _CODE_MEMO.misses == 0


def test_cross_mode_verifies_every_hit():
    source = CALLER.format(k=7)
    with forced_mode("cross"):
        clear_analysis_caches()
        first = make_engine(parse(source), backend="batch").run("f", [3])
        second = make_engine(parse(source), backend="batch").run("f", [3])
        assert _CODE_MEMO.hits == 2  # both functions recompiled and compared
    assert first.value == second.value == 22
    assert first.steps == second.steps


@pytest.mark.parametrize("mode", ["on", "off"])
def test_fault_traceback_names_its_own_function(mode):
    body = "(int x) { return 10 / x; }"
    with forced_mode(mode):
        clear_analysis_caches()
        lower("int boom" + body)
        program = lower("int bang" + body)
        with pytest.raises(MemoryFault) as info:
            make_engine(program.unit, backend="batch").run("bang", [0])
    files = [frame.filename for frame in traceback.extract_tb(info.tb)]
    assert "<batch:bang>" in files
    assert "<batch:boom>" not in files


def test_recent_units_share_one_lowering_that_the_unit_does_not_hold():
    units = [parse(CALLER.format(k=k)) for k in range(_RECENT_LIMIT + 1)]
    first = make_engine(units[0], backend="batch").program
    assert make_engine(units[0], backend="batch").program is first
    assert "_batch_program" not in units[0].__dict__
    for unit in units[1:]:
        make_engine(unit, backend="batch")
    assert make_engine(units[0], backend="batch").program is not first
