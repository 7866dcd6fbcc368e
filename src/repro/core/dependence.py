"""Dependence and precedence among repair edits (Figure 7c).

The dependence relation is declared on the edit classes themselves
(``requires`` / ``requires_any``); this module gives it a graph view used
by the search, the benchmarks and the documentation:

* ``dependence_graph`` — edges ``prerequisite → dependent``;
* ``ordered_applications`` — filter a proposal list down to the
  applications whose prerequisites the candidate has already satisfied,
  which is exactly how HeteroGen's evolutionary search enumerates
  dependence-respecting edit sequences ({➊, ➋, ➊➌, ➋➍, …});
* ``chain_probability`` — the Figure 9 intuition: the chance a *random*
  explorer picks a valid next edit, versus 1.0 for dependence guidance.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set, Tuple

from ..hls.diagnostics import ErrorType
from .edits import Candidate, Edit, EditApplication, EditRegistry

#: AST uids embedded in application labels (``loop@1124``).
_UID = re.compile(r"@\d+")


def dependence_graph(registry: EditRegistry) -> Dict[str, Set[str]]:
    """Map edit name → the set of edit names that may directly follow it."""
    graph: Dict[str, Set[str]] = {e.name: set() for e in registry.all_edits()}
    for edit in registry.all_edits():
        for prereq in tuple(edit.requires) + tuple(edit.requires_any):
            if prereq in graph:
                graph[prereq].add(edit.name)
    return graph


def prerequisites(edit: Edit) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(all-of, any-of) prerequisite template names of *edit*."""
    return tuple(edit.requires), tuple(edit.requires_any)


def roots(registry: EditRegistry, error_type: ErrorType) -> List[Edit]:
    """Edits of the family that can start a repair chain."""
    return [
        e
        for e in registry.edits_for(error_type)
        if not e.requires and not e.requires_any
    ]


def ordered_applications(
    edits: Sequence[Edit],
    candidate: Candidate,
    diagnostics,
    context,
) -> List[EditApplication]:
    """Concretize only the dependence-ready edits against *candidate*.

    This is the heart of dependence-guided exploration: an edit whose
    prerequisites have not been applied yet is not even proposed, so the
    search never wastes an (expensive) evaluation on it.
    """
    applications: List[EditApplication] = []
    for edit in edits:
        if not edit.dependencies_met(candidate):
            continue
        if edit.behavior_only and diagnostics:
            continue  # capacity edits cannot remove a diagnostic
        applications.extend(edit.propose(candidate, diagnostics, context))
    # Stable order: strongest performance hint first (the paper prefers
    # the edit with the largest performance potential, §1).  Ties are
    # broken by the label with AST uids masked out: uids restart nowhere
    # — they come from a process-global counter — so comparing them
    # lexicographically would order the same two loops differently from
    # one parse of a program to the next.  Masking keeps the tie-break
    # parse-invariant; proposals with fully identical masked labels keep
    # their AST enumeration order (the sort is stable), which is itself
    # parse-invariant.
    applications.sort(key=lambda a: (-a.performance_hint, _UID.sub("@", a.label)))
    return applications


def unordered_applications(
    edits: Sequence[Edit],
    candidate: Candidate,
    diagnostics,
    context,
    rng,
) -> List[EditApplication]:
    """The ``WithoutDependence`` ablation: propose everything (dependences
    and performance hints ignored) in random order."""
    applications: List[EditApplication] = []
    for edit in edits:
        applications.extend(edit.propose(candidate, diagnostics, context))
    rng.shuffle(applications)
    return applications


def chain_probability(chain: Sequence[str], registry: EditRegistry) -> float:
    """Probability that a uniform-random explorer happens to pick the
    dependence-valid *chain* of edit names (Figure 9's 1/10 example)."""
    pool = len(registry.all_edits())
    if pool == 0:
        return 0.0
    probability = 1.0
    for _step in chain:
        probability *= 1.0 / pool
    return probability
