"""Parameterized repair edits: the machinery behind Table 2.

An :class:`Edit` is a *template* — ``array_static($a1:arr, $i1:int)`` in
the paper's notation.  Given a repair candidate and the diagnostics its
last compilation produced, ``propose`` concretizes the template into zero
or more :class:`EditApplication`\\ s (bindings of the ``$``-parameters to
program entities, plus the transformation closure).  Applying an
application clones the candidate and rewrites the clone, so exploration
never corrupts shared state.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ...cfront import fingerprint
from ...cfront import nodes as N
from ...cfront.nodes import clone
from ...hls.diagnostics import Diagnostic, ErrorType
from ...hls.platform import SolutionConfig


@dataclass(frozen=True)
class Candidate:
    """One point in the repair search space: a program plus its solution
    configuration and the history of edits that produced it."""

    unit: N.TranslationUnit
    config: SolutionConfig
    applied: Tuple[str, ...] = ()

    def applied_names(self) -> Tuple[str, ...]:
        """Edit template names (without parameter bindings) applied so far."""
        return tuple(label.split("(", 1)[0] for label in self.applied)

    def with_unit(self, unit: N.TranslationUnit, label: str) -> "Candidate":
        return Candidate(unit=unit, config=self.config, applied=self.applied + (label,))

    def with_config(self, config: SolutionConfig, label: str) -> "Candidate":
        return Candidate(unit=self.unit, config=config, applied=self.applied + (label,))


@dataclass
class RepairContext:
    """Shared read-only context the edits may consult."""

    kernel_name: str
    rng: random.Random = field(default_factory=lambda: random.Random(2022))


@dataclass
class EditApplication:
    """A concrete, applicable instance of an edit template."""

    label: str
    """Concretized template, e.g. ``array_static(line_buf, 1024)``."""
    transform: Callable[[Candidate], Optional[Candidate]]
    """Clone-and-rewrite closure; None signals the rewrite turned out to be
    inapplicable after all (the search just skips it)."""
    performance_hint: float = 0.0
    """Heuristic expected latency improvement; used only to order
    applications with equal repair value (the paper prefers the edit with
    the largest performance potential, §1)."""

    def apply(self, candidate: Candidate) -> Optional[Candidate]:
        return self.transform(candidate)


class Edit(abc.ABC):
    """A parameterized edit template (one row entry of Table 2)."""

    #: Template name, e.g. ``"array_static"``.
    name: str = ""
    #: The error family whose diagnostics this template answers.
    error_type: Optional[ErrorType] = None
    #: Template names that must *all* have been applied first.
    requires: Tuple[str, ...] = ()
    #: Template names of which at least one must have been applied first
    #: (for the OR-shaped dependences in Figure 7c).
    requires_any: Tuple[str, ...] = ()
    #: Signature string for documentation / Table 2 rendering.
    signature: str = ""
    #: True for edits that can only repair *behaviour* (divergent test
    #: outputs), never compile errors — e.g. ``resize``.  The search skips
    #: them while compile errors remain, because a capacity change cannot
    #: remove a diagnostic and each attempt costs a full HLS compile.
    behavior_only: bool = False

    @abc.abstractmethod
    def propose(
        self,
        candidate: Candidate,
        diagnostics: Sequence[Diagnostic],
        context: RepairContext,
    ) -> List[EditApplication]:
        """Concretize the template against the current candidate."""

    def blind_propose(
        self,
        candidate: Candidate,
        diagnostics: Sequence[Diagnostic],
        context: RepairContext,
    ) -> List[EditApplication]:
        """Proposal path for the ``WithoutDependence`` ablation: concretize
        without consulting what has been applied before.  Defaults to the
        normal proposal; edits whose ``propose`` reads the edit history
        override this."""
        return self.propose(candidate, diagnostics, context)

    # -- dependence helpers ------------------------------------------------

    def dependencies_met(self, candidate: Candidate) -> bool:
        applied = set(candidate.applied_names())
        if any(req not in applied for req in self.requires):
            return False
        if self.requires_any and not any(req in applied for req in self.requires_any):
            return False
        return True

    def __repr__(self) -> str:
        return f"<Edit {self.signature or self.name}>"


def cloned_unit(
    candidate: Candidate,
    dirty: Optional[Sequence[str]] = None,
) -> N.TranslationUnit:
    """Deep-copy the candidate's unit for in-place rewriting.

    *dirty* names the top-level declarations (function names, global or
    typedef names, struct tags) the caller is about to mutate in the
    clone.  ``dirty=None`` means the rewrite's extent is unknown: the
    whole unit is deep-copied and every declaration record is recomputed
    lazily — always safe, never wrong.

    With a declared dirty set (and incremental mode on), the clone is
    **copy-on-write** at the declaration grain
    (:func:`~repro.cfront.nodes.cow_clone_unit`): dirty declarations are
    deep-copied, clean ones shared by reference, and the records of every
    clean declaration (digests, uids, loops …) are inherited from the
    parent, so only the dirty ones are walked again (see
    :mod:`repro.cfront.fingerprint`).  Both rest on the dirty contract:
    an edit mutating outside its declared set is a bug.
    ``REPRO_INCREMENTAL=0`` deep-copies every clone, which makes it the
    reference a copy-on-write run is compared against.
    """
    if dirty is None or not fingerprint.incremental_enabled():
        unit = clone(candidate.unit)
        assert isinstance(unit, N.TranslationUnit)
        return unit
    unit = N.cow_clone_unit(candidate.unit, set(dirty))
    fingerprint.inherit_fingerprints(unit, candidate.unit, dirty)
    return unit


def owning_decl_names(
    unit: N.TranslationUnit, node_uid: int
) -> Optional[List[str]]:
    """Dirty-set for an edit anchored at *node_uid*: the name (or struct
    tag) of the first top-level declaration whose record lists the node's
    uid.  Returns None when the node cannot be located — callers pass that
    straight to :func:`cloned_unit`, where None means "invalidate
    everything"."""
    for decl in unit.decls:
        if node_uid in fingerprint.decl_record(unit, decl).uids:
            if isinstance(decl, N.StructDef):
                return [decl.tag]
            name = getattr(decl, "name", "")
            return [name] if name else None
    return None
