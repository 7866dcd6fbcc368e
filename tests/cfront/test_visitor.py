"""Visitor / AST-surgery helper tests."""

from repro.cfront import nodes as N
from repro.cfront.parser import parse, parse_fragment_stmts
from repro.cfront.visitor import (
    Visitor,
    calls_to,
    enclosing_function,
    find_all,
    find_by_uid,
    find_parent,
    insert_after,
    insert_before,
    replace_expr,
    replace_stmt_in,
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


def test_calls_to():
    unit = parse(SRC)
    assert len(calls_to(unit, "helper")) == 1
    assert calls_to(unit, "nonexistent") == []


def test_enclosing_function():
    unit = parse(SRC)
    call = calls_to(unit, "helper")[0]
    func = enclosing_function(unit, call.uid)
    assert func.name == "main_fn"


def test_dispatching_visitor():
    unit = parse(SRC)

    class CallCounter(Visitor):
        def __init__(self):
            self.calls = 0

        def visit_Call(self, node):
            self.calls += 1
            self.generic_visit(node)

    counter = CallCounter()
    counter.visit(unit)
    assert counter.calls == 1


def test_replace_stmt_in():
    unit = parse("void f() { int a = 1; int b = 2; }")
    body = unit.function("f").body
    target = body.items[0]
    new_stmts = parse_fragment_stmts("int c = 3; int d = 4;")
    assert replace_stmt_in(body, target.uid, new_stmts)
    assert len(body.items) == 3
    assert body.items[0].decl.name == "c"


def test_replace_stmt_deletion():
    unit = parse("void f() { int a = 1; int b = 2; }")
    body = unit.function("f").body
    assert replace_stmt_in(body, body.items[0].uid, [])
    assert len(body.items) == 1


def test_insert_before_and_after():
    unit = parse("void f() { int a = 1; }")
    body = unit.function("f").body
    anchor = body.items[0]
    insert_before(body, anchor.uid, parse_fragment_stmts("int pre = 0;"))
    insert_after(body, anchor.uid, parse_fragment_stmts("int post = 2;"))
    names = [s.decl.name for s in body.items]
    assert names == ["pre", "a", "post"]


def test_replace_expr_in_field():
    unit = parse("int f() { return 1 + 2; }")
    ret = find_all(unit, N.Return)[0]
    assert replace_expr(unit, ret.value.uid, N.IntLit(value=42, text="42"))
    assert ret.value.value == 42


def test_replace_expr_in_list():
    unit = parse("void f() { g(1, 2); }")
    call = find_all(unit, N.Call)[0]
    old_arg = call.args[1]
    assert replace_expr(unit, old_arg.uid, N.IntLit(value=9, text="9"))
    assert call.args[1].value == 9


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
