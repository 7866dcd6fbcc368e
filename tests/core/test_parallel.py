"""Subject-level fan-out (:func:`repro.core.parallel.run_subjects`):
input order, serial equivalence, a shared store, and a dead worker."""

import os

import pytest

from repro.baselines import variants
from repro.baselines.variants import default_config
from repro.cfront.fingerprint import forced_mode, incremental_mode
from repro.core import parallel
from repro.core.parallel import run_subjects
from repro.core.store import close_stores
from repro.interp import default_backend, set_default_backend

#: Two quick subjects: P1 has no loops, P3 repairs in a few dozen
#: evaluations.
QUICK = ["P3", "P1"]

#: The subject the killed-worker test loses.
DOOMED = "P3"

_real_summary = parallel._run_subject_summary


def _dies_on_doomed(subject_id, *args):
    """Stands in for ``_run_subject_summary`` in the forked workers: the
    worker running :data:`DOOMED` exits without a result."""
    if subject_id == DOOMED:
        os._exit(1)
    return _real_summary(subject_id, *args)


def quick_config():
    return default_config(
        budget_seconds=1200.0, max_iterations=30, fuzz_execs=150
    )


class TestSubjectFanout:
    def test_serial_fanout_matches_input_order(self):
        summaries = run_subjects(QUICK, "HeteroGen", quick_config(), workers=1)
        assert [s["subject"] for s in summaries] == QUICK
        for summary in summaries:
            assert summary["attempts"] > 0
            assert isinstance(summary["history"], list)
            assert summary["final_source"]

    def test_two_workers_match_serial(self):
        serial = run_subjects(QUICK, "HeteroGen", quick_config(), workers=1)
        fanned = run_subjects(QUICK, "HeteroGen", quick_config(), workers=2)
        assert [s["subject"] for s in fanned] == QUICK
        assert fanned == serial

    def test_shared_store_path(self, tmp_path):
        """Workers share one store file: a rerun against the store the
        first sweep filled answers from it with identical results."""
        path = str(tmp_path / "shared.sqlite")
        try:
            cold = run_subjects(
                QUICK, "HeteroGen", quick_config(), workers=2, store_path=path
            )
            warm = run_subjects(
                QUICK, "HeteroGen", quick_config(), workers=2, store_path=path
            )
        finally:
            close_stores()
        assert sum(s["store_hits"] for s in cold) == 0
        assert sum(s["store_hits"] for s in warm) > 0
        for c, w in zip(cold, warm):
            assert c["history"] == w["history"], c["subject"]
            assert c["clock_seconds"] == w["clock_seconds"], c["subject"]
            assert c["final_source"] == w["final_source"], c["subject"]


class TestProcessSettings:
    """A spawn-started worker re-imports the package, so the parent's
    incremental mode and interpreter engine travel with every job."""

    def test_run_subjects_hands_over_the_parent_settings(self, monkeypatch):
        handed = []
        monkeypatch.setattr(
            parallel,
            "_run_subject_summary",
            lambda sid, *args: handed.append(args[-2:]) or {"subject": sid},
        )
        previous = default_backend()
        try:
            set_default_backend("tree")
            with forced_mode("off"):
                run_subjects(QUICK, "HeteroGen", None, workers=1)
        finally:
            set_default_backend(previous)
        assert handed == [("off", "tree")] * len(QUICK)

    def test_worker_runs_under_the_settings_it_is_handed(self, monkeypatch):
        seen = []

        class Stop(Exception):
            """Ends the job before any real work."""

        def probe(*args):
            seen.append((incremental_mode(), default_backend()))
            raise Stop

        monkeypatch.setattr(variants, "run_variant", probe)
        previous = default_backend()
        try:
            with forced_mode("on"), pytest.raises(Stop):
                parallel._run_subject_summary(
                    "P1", "HeteroGen", None, None, "off", "tree"
                )
        finally:
            set_default_backend(previous)
        assert seen == [("off", "tree")]


class TestDeadWorker:
    def test_error_names_lost_subject_and_next_call_recovers(
        self, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_run_subject_summary", _dies_on_doomed)
        with pytest.raises(RuntimeError, match=DOOMED):
            run_subjects(QUICK, "HeteroGen", quick_config(), workers=2)
        monkeypatch.undo()
        summaries = run_subjects(QUICK, "HeteroGen", quick_config(), workers=2)
        assert [s["subject"] for s in summaries] == QUICK
