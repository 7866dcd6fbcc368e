"""Repair-search identity against a committed golden snapshot.

``subjects --json`` reports each subject's outcome, not the path the
search took to it.  This bench pins that path: the default-config
ten-subject sweep's applied chains, attempt and iteration counts,
history lines, simulated clock, fitness and rendered final source must
match ``benchmarks/golden_search.json`` field for field, and the sweep's
digest must equal the golden's.

AST uids in edit labels (``loop@1392``) are renumbered by first
appearance within each subject's snapshot: their raw values come from a
process-global counter, so they shift with every node any earlier parse
or edit allocated in the sweep, including edits applied to children the
search never evaluates.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from repro.baselines import default_config, run_variant
from repro.subjects import all_subjects

GOLDEN_PATH = Path(__file__).parent / "golden_search.json"

#: An AST uid inside an edit label.
_UID = re.compile(r"@(\d+)")


def _snapshot(result) -> dict:
    sr = result.search_result
    uids: dict = {}

    def renumber(label: str) -> str:
        return _UID.sub(
            lambda m: "@%d" % uids.setdefault(m.group(1), len(uids) + 1),
            label,
        )

    applied = list(sr.best.candidate.applied) if sr.best else []
    return {
        "applied": [renumber(label) for label in applied],
        "attempts": sr.stats.attempts,
        "clock_seconds": round(sr.clock.seconds, 2),
        "final_render_sha": hashlib.sha256(
            result.final_source().encode()
        ).hexdigest(),
        "fitness": repr(sr.best.fitness) if sr.best else None,
        "history": [renumber(line) for line in sr.history],
        "iterations": sr.stats.iterations,
        "success_seconds": sr.success_seconds,
    }


def run_sweep() -> dict:
    return {
        subject.id: _snapshot(
            run_variant(subject, "HeteroGen", default_config())
        )
        for subject in all_subjects()
    }


def test_search_matches_golden(benchmark):
    sweep = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    golden = json.loads(GOLDEN_PATH.read_text())
    mismatched = [
        sid for sid, snap in golden["subjects"].items()
        if sweep.get(sid) != snap
    ]
    assert not mismatched, (
        f"search diverged from benchmarks/golden_search.json on {mismatched}"
    )
    digest = hashlib.sha256(
        json.dumps(sweep, sort_keys=True).encode()
    ).hexdigest()
    assert digest == golden["digest"]
