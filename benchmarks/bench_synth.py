"""Evidence-driven synthesis — candidates evaluated per repaired subject.

Two claims, both emitted into ``benchmarks/out/BENCH_synth.json``:

1. **Effectiveness** — with synthesis-first proposal (`REPRO_SYNTH` /
   ``SearchConfig.use_synthesis``) the search derives edit parameters
   (stack capacities from profiled call depths, array extents and
   bitwidths from value ranges, pragma factors from the latency model)
   instead of enumerating ladders.  On the subjects whose repairs are
   parameter-shaped the number of candidates evaluated before success
   drops by at least 3x.

2. **Identity** — with synthesis *off* the search is bit-identical to
   the pre-synthesis implementation: the full ten-subject sweep
   (applied chains, attempt counts, history lines, simulated clock,
   rendered final source) matches the committed golden snapshot
   ``benchmarks/golden_synth_off.json`` field for field.  AST uids in
   edit labels (``loop@1392``) are renumbered by first appearance within
   each subject's snapshot: their raw values come from a process-global
   counter, so they shift with every node any earlier parse or edit
   allocated in the sweep, including edits applied to children the
   search never evaluates.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from repro.baselines import default_config, run_variant
from repro.subjects import all_subjects

from _shared import write_bench_json, write_table

GOLDEN_PATH = Path(__file__).parent / "golden_synth_off.json"

#: Subjects whose repair chains carry derived parameters (stack
#: capacities, VLA extents, bitwidths, pragma factors) — the population
#: the >= 3x acceptance bound applies to.  The remaining subjects'
#: repairs are structural or configuration-shaped (e.g. P10's
#: device/clock/top fixes), where derivation can only trim the
#: exploration around them.
PARAMETER_SHAPED = ("P2", "P3", "P5", "P6", "P7", "P8")

MIN_RATIO = 3.0


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


def run_sweep(use_synthesis: bool) -> dict:
    out = {}
    for subject in all_subjects():
        config = default_config()
        config.search.use_synthesis = use_synthesis
        out[subject.id] = _snapshot(run_variant(subject, "HeteroGen", config))
    return out


def run_bench() -> dict:
    golden = json.loads(GOLDEN_PATH.read_text())
    enum_sweep = run_sweep(use_synthesis=False)
    synth_sweep = run_sweep(use_synthesis=True)

    digest = hashlib.sha256(
        json.dumps(enum_sweep, sort_keys=True).encode()
    ).hexdigest()
    identity = digest == golden["digest"]
    mismatches = [
        sid
        for sid, snap in golden["subjects"].items()
        if enum_sweep.get(sid) != snap
    ]

    rows = {}
    for sid, enum_snap in enum_sweep.items():
        synth_snap = synth_sweep[sid]
        rows[sid] = {
            "attempts_enumerated": enum_snap["attempts"],
            "attempts_synthesis": synth_snap["attempts"],
            "ratio": round(
                enum_snap["attempts"] / synth_snap["attempts"], 2
            ),
            "parameter_shaped": sid in PARAMETER_SHAPED,
            "synthesis_success": synth_snap["fitness"] is not None
            and "fail_ratio=0.0" in synth_snap["fitness"],
            "applied_synthesis": synth_snap["applied"],
        }
    return {
        "identity_digest": digest,
        "identity_matches_golden": identity,
        "identity_mismatched_subjects": mismatches,
        "min_ratio_required": MIN_RATIO,
        "subjects": rows,
    }


def test_synth_sweep(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    # Claim 2: synthesis off is bit-identical to the pre-synthesis search.
    assert payload["identity_matches_golden"], (
        "enumerated-mode sweep diverged from benchmarks/golden_synth_off"
        f".json on {payload['identity_mismatched_subjects']}"
    )

    # Claim 1: >= 3x fewer candidate evaluations on the
    # parameter-shaped subjects, and synthesis still repairs everything.
    for sid, row in payload["subjects"].items():
        assert row["synthesis_success"], f"{sid} no longer repairs"
        if row["parameter_shaped"]:
            assert row["ratio"] >= MIN_RATIO, (
                f"{sid}: {row['attempts_enumerated']} -> "
                f"{row['attempts_synthesis']} attempts is only "
                f"{row['ratio']}x (need >= {MIN_RATIO}x)"
            )

    lines = [
        "Evidence-driven synthesis: candidates evaluated per repair",
        "",
        f"{'subject':8s} {'enumerated':>10s} {'synthesis':>9s} "
        f"{'ratio':>6s}  param-shaped",
    ]
    for sid, row in payload["subjects"].items():
        lines.append(
            f"{sid:8s} {row['attempts_enumerated']:>10d} "
            f"{row['attempts_synthesis']:>9d} {row['ratio']:>5.2f}x"
            f"  {'yes' if row['parameter_shaped'] else 'no'}"
        )
    lines.append("")
    lines.append(
        "identity (synthesis off): "
        + ("bit-identical to golden" if payload["identity_matches_golden"]
           else "DIVERGED")
    )
    write_table("synth_candidates.txt", "\n".join(lines) + "\n")
    write_bench_json("BENCH_synth.json", payload)
