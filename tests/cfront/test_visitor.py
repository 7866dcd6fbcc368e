"""AST search and rewriting helper tests."""

from repro.cfront import nodes as N
from repro.cfront.parser import parse
from repro.cfront.visitor import (
    enclosing_function,
    find_all,
    find_by_uid,
    find_parent,
    rewrite_exprs,
)

SRC = """
int helper(int x) { return x * 2; }
int main_fn(int a[4]) {
    int total = 0;
    for (int i = 0; i < 4; i++) {
        total += helper(a[i]);
    }
    return total;
}
"""


def test_find_all_with_predicate():
    unit = parse(SRC)
    loops = find_all(unit, N.For)
    assert len(loops) == 1
    big_ints = find_all(unit, N.IntLit, lambda n: n.value >= 2)
    assert {n.value for n in big_ints} == {2, 4}


def test_find_by_uid():
    unit = parse(SRC)
    loop = find_all(unit, N.For)[0]
    assert find_by_uid(unit, loop.uid) is loop
    assert find_by_uid(unit, 10**9) is None


def test_find_parent():
    unit = parse(SRC)
    loop = find_all(unit, N.For)[0]
    parent = find_parent(unit, loop)
    assert isinstance(parent, N.Compound)
    assert any(item is loop for item in parent.items)
    assert find_parent(unit, unit) is None


def test_enclosing_function():
    unit = parse(SRC)
    call = find_all(unit, N.Call, lambda c: c.callee_name == "helper")[0]
    func = enclosing_function(unit, call.uid)
    assert func.name == "main_fn"


def test_rewrite_exprs_bottom_up():
    unit = parse("int f() { return 1 + 2 + 3; }")

    seen = []

    def record(expr):
        if isinstance(expr, N.IntLit):
            seen.append(expr.value)
        return None

    rewrite_exprs(unit, record)
    assert seen == [1, 2, 3]


def test_rewrite_exprs_substitutes():
    unit = parse("int f(int x) { return x + 1; }")

    def double_literals(expr):
        if isinstance(expr, N.IntLit):
            return N.IntLit(value=expr.value * 2, text=str(expr.value * 2))
        return None

    rewrite_exprs(unit, double_literals)
    lits = find_all(unit, N.IntLit)
    assert [l.value for l in lits] == [2]


def test_clone_preserves_uids_refresh_changes_them():
    unit = parse(SRC)
    cloned = N.clone(unit)
    assert [n.uid for n in unit.walk()] == [n.uid for n in cloned.walk()]
    N.refresh_uids(cloned)
    assert [n.uid for n in unit.walk()] != [n.uid for n in cloned.walk()]
