"""Edits for the *Loop Parallelization* family plus the performance-
exploration edits (Table 2, row 4).

Repairs:

* ``index_static($l1:loop)`` — give a variable-bound loop an explicit
  ``loop_tripcount`` so it can be unrolled (the "explicit total number of
  iterations" fix from post 721719);
* ``explore($p1:pragma, $l1:loop)`` — re-parameterize an unroll factor
  that interacts badly with an enclosing dataflow region;
* ``mem_reset($l1:loop)`` — insert an explicit reset loop for an
  accumulator array (safe because statics start zeroed);
* ``init($l1:loop)`` — canonicalize a loop to start from an explicit
  constant (enables static tripcount analysis).

Performance exploration (used once the program compiles cleanly):

* ``insert(pipeline/unroll/array_partition/dataflow)`` with a small
  factor sweep; the fitness function keeps whichever variant simulates
  fastest while preserving behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ...cfront import nodes as N
from ...cfront import typesys as T
from ...cfront.fingerprint import decl_record, unit_loops, unit_pragmas
from ...cfront.visitor import find_all, find_parent
from ...hls.diagnostics import ErrorType
from ...hls.pragmas import loop_pragmas, parse_pragma
from .base import Candidate, Edit, EditApplication, cloned_unit, owning_decl_names

#: Factors tried by the exploration edits.
UNROLL_FACTORS = (2, 4, 8)
PIPELINE_IIS = (1, 2)


def _loop_body_compound(loop: N.Stmt) -> Optional[N.Compound]:
    body = getattr(loop, "body", None)
    if isinstance(body, N.Compound):
        return body
    return None


def _find_loop(
    unit: N.TranslationUnit, loop_uid: int
) -> Optional[Tuple[N.FunctionDef, N.Stmt]]:
    """The first entry of :func:`unit_loops` whose loop has *loop_uid*."""
    for entry in unit_loops(unit):
        if entry[1].uid == loop_uid:
            return entry
    return None


def _clone_at_loop(
    candidate: Candidate, loop_uid: int
) -> Tuple[N.TranslationUnit, Optional[Tuple[N.FunctionDef, N.Stmt]]]:
    """Clone the candidate's unit to rewrite the declaration holding
    *loop_uid*, and find in the clone what :func:`_find_loop` finds in
    the parent.  The parent's records name the function; only that
    function of the clone, which an edit is about to rewrite and so
    must not be read through records, is walked."""
    parent = candidate.unit
    unit = cloned_unit(candidate, dirty=owning_decl_names(parent, loop_uid))
    found = _find_loop(parent, loop_uid)
    if found is None:
        return unit, None
    position = next(
        i for i, func in enumerate(parent.functions()) if func is found[0]
    )
    func = unit.functions()[position]
    first_while = None
    for node in func.body.walk():
        if node.uid != loop_uid:
            continue
        if isinstance(node, N.For):
            return unit, (func, node)
        if first_while is None and isinstance(node, N.While):
            first_while = node
    return unit, (func, first_while)


class IndexStaticEdit(Edit):
    """``index_static($l1:loop)``: add an explicit tripcount."""

    name = "index_static"
    error_type = ErrorType.LOOP_PARALLELIZATION
    signature = "index_static($l1:loop)"

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        for diag in diagnostics:
            if "tripcount" not in diag.message:
                continue
            label = f"index_static(loop@{diag.node_uid})"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, uid=diag.node_uid, label=label:
                        self._apply(cand, uid, label),
                )
            )
        return out

    def _apply(self, candidate: Candidate, loop_uid: int, label: str):
        unit, found = _clone_at_loop(candidate, loop_uid)
        if found is None:
            return None
        loop = found[1]
        body = _loop_body_compound(loop)
        if body is None:
            return None
        bound = self._bound_guess(unit, loop)
        body.items.insert(
            0,
            N.Pragma(text=f"HLS loop_tripcount min=1 max={bound} avg={bound}"),
        )
        return candidate.with_unit(unit, label)

    @staticmethod
    def _bound_guess(unit: N.TranslationUnit, loop: N.Stmt) -> int:
        """Conservative bound: the largest array indexed inside the loop."""
        best = 0
        sizes: Dict[str, int] = {}
        for decl in find_all(unit, N.VarDecl):
            resolved = T.strip_typedefs(decl.type)
            if isinstance(resolved, T.ArrayType) and resolved.size:
                sizes[decl.name] = resolved.size
        for param in find_all(unit, N.ParamDecl):
            resolved = T.strip_typedefs(param.type)
            if isinstance(resolved, T.ArrayType) and resolved.size:
                sizes.setdefault(param.name, resolved.size)
        for index in find_all(loop, N.Index):
            if isinstance(index.base, N.Ident):
                best = max(best, sizes.get(index.base.name, 0))
        return best or 64


class ExploreUnrollEdit(Edit):
    """``explore($p1:pragma, $l1:loop)``: fix a bad unroll factor."""

    name = "explore"
    error_type = ErrorType.LOOP_PARALLELIZATION
    signature = "explore($p1:pragma, $l1:loop)"

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        for diag in diagnostics:
            if "unroll factor" not in diag.message and "Pre-synthesis" not in diag.message:
                continue
            for factor in UNROLL_FACTORS:
                label = f"explore(unroll@{diag.node_uid}, factor={factor})"
                if label in candidate.applied:
                    continue
                out.append(
                    EditApplication(
                        label=label,
                        transform=lambda cand, uid=diag.node_uid, f=factor,
                        label=label: self._set_factor(cand, uid, f, label),
                        performance_hint=factor / 8.0,
                    )
                )
            label = f"explore(unroll@{diag.node_uid}, delete)"
            if label not in candidate.applied:
                out.append(
                    EditApplication(
                        label=label,
                        transform=lambda cand, uid=diag.node_uid, label=label:
                            self._delete_unroll(cand, uid, label),
                        performance_hint=-1.0,
                    )
                )
        return out

    def _set_factor(self, candidate: Candidate, loop_uid: int, factor: int, label: str):
        unit, found = _clone_at_loop(candidate, loop_uid)
        pragma_node = self._unroll_pragma_of(found)
        if pragma_node is None:
            return None
        pragma_node.text = f"HLS unroll factor={factor}"
        return candidate.with_unit(unit, label)

    def _delete_unroll(self, candidate: Candidate, loop_uid: int, label: str):
        unit, found = _clone_at_loop(candidate, loop_uid)
        pragma_node = self._unroll_pragma_of(found)
        if pragma_node is None:
            return None
        for compound in find_all(unit, N.Compound):
            if pragma_node in compound.items:
                compound.items.remove(pragma_node)
                return candidate.with_unit(unit, label)
        return None

    @staticmethod
    def _unroll_pragma_of(
        found: Optional[Tuple[N.FunctionDef, N.Stmt]]
    ) -> Optional[N.Pragma]:
        body = _loop_body_compound(found[1]) if found else None
        if body is None:
            return None
        for stmt in body.items:
            if isinstance(stmt, N.Pragma):
                pragma = parse_pragma(stmt)
                if pragma is not None and pragma.directive == "unroll":
                    return stmt
        return None


class MemResetEdit(Edit):
    """``mem_reset($l1:loop)``: explicitly re-zero an accumulator array.

    Statics start zeroed, so prefixing an accumulation loop with an
    explicit reset is behaviour-preserving while making the memory's
    initial state visible to the scheduler.
    """

    name = "mem_reset"
    error_type = ErrorType.LOOP_PARALLELIZATION
    signature = "mem_reset($l1:loop)"

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        for func, loop in unit_loops(candidate.unit):
            target = self._accumulated_array(loop)
            if target is None:
                continue
            label = f"mem_reset({target}@{loop.uid})"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, uid=loop.uid, name=target, label=label:
                        self._apply(cand, uid, name, label),
                )
            )
        return out

    @staticmethod
    def _accumulated_array(loop: N.Stmt) -> Optional[str]:
        for assign in find_all(loop, N.Assign):
            if assign.op == "+=" and isinstance(assign.target, N.Index):
                base = assign.target.base
                if isinstance(base, N.Ident):
                    return base.name
        return None

    def _apply(self, candidate: Candidate, loop_uid: int, array_name: str, label: str):
        from ...cfront.parser import parse_fragment_stmts

        unit, found = _clone_at_loop(candidate, loop_uid)
        size = None
        for decl in find_all(unit, N.VarDecl):
            if decl.name == array_name:
                resolved = T.strip_typedefs(decl.type)
                if isinstance(resolved, T.ArrayType) and resolved.size:
                    size = resolved.size
        if size is None or found is None:
            return None
        func, loop = found
        items = getattr(find_parent(func.body, loop), "items", None)
        if not isinstance(items, list):
            return None
        reset = parse_fragment_stmts(
            f"for (int __r = 0; __r < {size}; __r++) {{ "
            f"{array_name}[__r] = 0; }}",
            unit,
        )
        index = items.index(loop)
        items[index:index] = reset
        return candidate.with_unit(unit, label)


class PerfPragmaEdit(Edit):
    """Performance exploration: insert pipeline/unroll/partition pragmas.

    Not tied to a diagnostic — proposed once the design compiles, as the
    paper's search keeps optimizing after compatibility is achieved (§1).
    """

    name = "perf_pragma"
    error_type = None
    signature = "explore($p1:pragma, $l1:loop)"

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        unit = candidate.unit
        for func, loop in unit_loops(unit):
            body = _loop_body_compound(loop)
            if body is None:
                continue
            existing = {p.directive for p in loop_pragmas(body)}
            innermost = not any(
                isinstance(n, (N.For, N.While)) for n in body.walk()
            )
            if innermost and "pipeline" not in existing and "unroll" not in existing:
                for ii in PIPELINE_IIS:
                    label = f"insert(pipeline II={ii}, loop@{loop.uid})"
                    if label in candidate.applied:
                        continue
                    out.append(
                        EditApplication(
                            label=label,
                            transform=lambda cand, uid=loop.uid, ii=ii, label=label:
                                self._insert_loop_pragma(
                                    cand, uid, f"HLS pipeline II={ii}", label
                                ),
                            performance_hint=2.0 / ii,
                        )
                    )
            if innermost and "unroll" not in existing and "pipeline" not in existing:
                for factor in UNROLL_FACTORS:
                    label = f"insert(unroll factor={factor}, loop@{loop.uid})"
                    if label in candidate.applied:
                        continue
                    out.append(
                        EditApplication(
                            label=label,
                            transform=lambda cand, uid=loop.uid, f=factor,
                            label=label: self._insert_loop_pragma(
                                cand, uid, f"HLS unroll factor={f}", label
                            ),
                            performance_hint=factor / 4.0,
                        )
                    )
        out.extend(self._partition_proposals(candidate))
        out.extend(self._naive_placements(candidate))
        return out

    def _naive_placements(self, candidate: Candidate) -> List[EditApplication]:
        """Pragma placements a human commonly tries first — *before* the
        loop, or at the *tail* of its body, instead of at the body head.
        These violate HLS coding style; the lightweight checker rejects
        them without an HLS compile, which is exactly the saving the
        Figure 9 WithoutChecker ablation measures.  The search explores
        them with hints comparable to the valid placements because, a
        priori, it cannot know which placement the toolchain accepts —
        that ignorance is why the checker pays off."""
        out: List[EditApplication] = []
        for func, loop in unit_loops(candidate.unit):
            body = _loop_body_compound(loop)
            if body is None:
                continue
            if loop_pragmas(body):
                continue
            variants = [
                (f"insert(pipeline, before-loop@{loop.uid})", 2.0,
                 lambda cand, uid=loop.uid, label=None:
                     self._insert_before_loop(cand, uid, "HLS pipeline II=1", label)),
                (f"insert(unroll, before-loop@{loop.uid})", 1.7,
                 lambda cand, uid=loop.uid, label=None:
                     self._insert_before_loop(cand, uid, "HLS unroll factor=4", label)),
                (f"insert(pipeline, loop-tail@{loop.uid})", 1.6,
                 lambda cand, uid=loop.uid, label=None:
                     self._insert_at_loop_tail(cand, uid, "HLS pipeline II=1", label)),
            ]
            for label, hint, transform in variants:
                if label in candidate.applied:
                    continue
                out.append(
                    EditApplication(
                        label=label,
                        transform=(
                            lambda cand, t=transform, label=label: t(cand, label=label)
                        ),
                        performance_hint=hint,
                    )
                )
        return out

    @staticmethod
    def _insert_at_loop_tail(candidate: Candidate, loop_uid: int, text: str, label: str):
        unit, found = _clone_at_loop(candidate, loop_uid)
        body = _loop_body_compound(found[1]) if found else None
        if body is None:
            return None
        body.items.append(N.Pragma(text=text))
        return candidate.with_unit(unit, label)

    @staticmethod
    def _insert_before_loop(candidate: Candidate, loop_uid: int, text: str, label: str):
        unit, found = _clone_at_loop(candidate, loop_uid)
        if found is None:
            return None
        func, loop = found
        parent = find_parent(func.body, loop)
        items = getattr(parent, "items", None)
        if not isinstance(items, list):
            if func.body is parent or parent is None:
                items = func.body.items
            else:
                return None
        if loop not in items:
            return None
        index = items.index(loop)
        items[index:index] = [N.Pragma(text=text)]
        return candidate.with_unit(unit, label)

    def _partition_proposals(self, candidate: Candidate) -> List[EditApplication]:
        out: List[EditApplication] = []
        unit = candidate.unit
        partitioned: Set[str] = set()
        for pragma_node in unit_pragmas(unit):
            pragma = parse_pragma(pragma_node)
            if pragma is not None and pragma.directive == "array_partition":
                partitioned.add(pragma.variable)
        for func in unit.functions():
            if func.body is None:
                continue
            local_arrays: Dict[str, int] = {}
            for decl_stmt in decl_record(unit, func).decl_stmts:
                resolved = T.strip_typedefs(decl_stmt.decl.type)
                if isinstance(resolved, T.ArrayType) and resolved.size:
                    local_arrays[decl_stmt.decl.name] = resolved.size
            for param in func.params:
                resolved = T.strip_typedefs(param.type)
                if isinstance(resolved, T.ArrayType) and resolved.size:
                    local_arrays[param.name] = resolved.size
            for name, size in local_arrays.items():
                if name in partitioned:
                    continue
                for factor in UNROLL_FACTORS:
                    if size % factor != 0:
                        continue
                    label = f"insert(array_partition {name} factor={factor}, {func.name})"
                    if label in candidate.applied:
                        continue
                    out.append(
                        EditApplication(
                            label=label,
                            transform=lambda cand, fname=func.name, name=name,
                            f=factor, label=label: self._insert_partition(
                                cand, fname, name, f, label
                            ),
                            performance_hint=factor / 8.0,
                        )
                    )
        return out

    @staticmethod
    def _insert_loop_pragma(candidate: Candidate, loop_uid: int, text: str, label: str):
        unit, found = _clone_at_loop(candidate, loop_uid)
        body = _loop_body_compound(found[1]) if found else None
        if body is None:
            return None
        body.items.insert(0, N.Pragma(text=text))
        return candidate.with_unit(unit, label)

    @staticmethod
    def _insert_partition(
        candidate: Candidate, func_name: str, array_name: str, factor: int, label: str
    ):
        unit = cloned_unit(candidate, dirty=[func_name])
        func = unit.function(func_name)
        if func is None or func.body is None:
            return None
        func.body.items.insert(
            0,
            N.Pragma(text=f"HLS array_partition variable={array_name} factor={factor}"),
        )
        return candidate.with_unit(unit, label)
