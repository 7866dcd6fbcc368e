"""Observability overhead — tracing must be free when off, cheap when on.

Two measurements, emitted into ``benchmarks/out/BENCH_obs.json``:

1. **micro null-hook cost** — the per-call price of an instrumentation
   site when tracing is disabled: one ``get_recorder()`` lookup plus one
   no-op span enter/exit (or metric increment) on the
   :class:`~repro.obs.recorder.NullRecorder`.  Multiplied by the number
   of hook executions a real run performs (counted from a traced run of
   the same workload), this extrapolates the *total* disabled-mode
   overhead, which the ≤2 % budget is asserted against.  The
   extrapolation is deliberately pessimistic: it charges every hook the
   full micro cost on top of a wall time that already includes them.
2. **macro off-vs-on sweep** — median wall time of a full transpile with
   the default :class:`NullRecorder` against the same run with a live
   :class:`~repro.obs.recorder.TraceRecorder`, reporting what switching
   tracing *on* costs (informational: buffering spans is allowed to show
   up; determinism, not speed, is the enabled-mode contract).
3. **subscriber overhead** — the traced run again, with the live
   streaming sinks attached (:class:`~repro.obs.stream.ProgressSink`
   rendering to a non-TTY buffer plus a
   :class:`~repro.obs.stream.JsonlTailSink`); the progress sink must
   cost at most ``SUBSCRIBER_OVERHEAD_BUDGET`` over tracing-only, so
   ``--progress`` is safe to leave on by default.
"""

from __future__ import annotations

import io
import itertools
import statistics
import time

from repro.cfront import nodes as N
from repro.hls.memo import clear_analysis_caches
from repro.obs import NULL_RECORDER, TraceRecorder, get_recorder, scoped_recorder
from repro.obs.stream import JsonlTailSink, ProgressSink
from repro.subjects import get_subject

from _shared import write_bench_json, write_table

#: Workload: one mid-size subject at benchmark-quick settings.
SUBJECT_ID = "P3"

#: Macro rounds per mode; the reported time is the median.
ROUNDS = 5

#: Micro-loop iterations for the per-hook cost.
MICRO_ITERS = 200_000

#: The hard budget: instrumentation with tracing disabled may cost at
#: most this fraction of the untraced wall time.
DISABLED_OVERHEAD_BUDGET = 0.02

#: The live progress sink may cost at most this fraction of the
#: tracing-only wall time (the tail sink does per-record file I/O and is
#: reported informationally, not gated).
SUBSCRIBER_OVERHEAD_BUDGET = 0.02


def _quick_config():
    from repro.baselines import default_config

    return default_config(
        budget_seconds=2400.0,
        max_iterations=60,
        fuzz_execs=200,
    )


def _run_once(recorder):
    """One full transpile of the workload under *recorder*."""
    from repro.baselines.variants import make_heterogen

    N._uid_counter = itertools.count(1)
    clear_analysis_caches()
    subject = get_subject(SUBJECT_ID)
    with scoped_recorder(recorder):
        start = time.perf_counter()
        result = make_heterogen(_quick_config()).transpile(
            subject.source,
            kernel_name=subject.kernel,
            solution=subject.solution,
            host_name=subject.host,
            host_args=list(subject.host_args),
            tests=subject.existing_test_list() or None,
            subject_name=subject.id,
        )
        elapsed = time.perf_counter() - start
    assert result.search_result.best is not None
    return elapsed, result


def run_macro(tmp_path):
    """Median wall time per mode, interleaved (off, on, live, off, on,
    live, ...) so host drift biases no side."""
    off_times, on_times, live_times, tail_times = [], [], [], []
    recorded = None
    for round_no in range(ROUNDS):
        off, _result = _run_once(NULL_RECORDER)
        off_times.append(off)
        recorder = TraceRecorder()
        on, _result = _run_once(recorder)
        on_times.append(on)
        recorded = recorder
        # Progress sink only (the ≤2% gate): renders to an in-memory
        # non-TTY buffer, so what is measured is the sink's own work.
        recorder = TraceRecorder()
        progress = ProgressSink(recorder, stream=io.StringIO())
        recorder.add_subscriber(progress)
        live, _result = _run_once(recorder)
        progress.close()
        live_times.append(live)
        # Both sinks (informational): adds the tail sink's per-record
        # write+flush to a real file.
        recorder = TraceRecorder()
        progress = ProgressSink(recorder, stream=io.StringIO())
        tail = JsonlTailSink(str(tmp_path / f"tail-{round_no}.jsonl"))
        recorder.add_subscriber(progress)
        recorder.add_subscriber(tail)
        both, _result = _run_once(recorder)
        progress.close()
        tail.close()
        tail_times.append(both)
    return off_times, on_times, live_times, tail_times, recorded


def run_micro():
    """Nanoseconds per disabled instrumentation hook."""

    def timed(fn):
        start = time.perf_counter()
        for _ in range(MICRO_ITERS):
            fn()
        return (time.perf_counter() - start) / MICRO_ITERS * 1e9

    def span_hook():
        rec = get_recorder()
        if rec.enabled:  # the guard every hot call site uses
            with rec.span("bench"):
                pass

    def metric_hook():
        rec = get_recorder()
        if rec.enabled:
            rec.metrics.inc("bench")

    def unguarded_span_hook():
        with get_recorder().span("bench"):
            pass

    return {
        "span_guarded_ns": round(timed(span_hook), 1),
        "metric_guarded_ns": round(timed(metric_hook), 1),
        "span_unguarded_ns": round(timed(unguarded_span_hook), 1),
    }


def test_obs_overhead(benchmark, tmp_path):
    off_times, on_times, live_times, tail_times, recorder = benchmark.pedantic(
        run_macro, args=(tmp_path,), rounds=1, iterations=1
    )
    micro = run_micro()

    off_median = statistics.median(off_times)
    on_median = statistics.median(on_times)
    live_median = statistics.median(live_times)
    tail_median = statistics.median(tail_times)
    subscriber_overhead = (
        live_median / on_median - 1.0 if on_median else 0.0
    )
    # Hook executions per run: every span open/close and metric update a
    # traced run performs is one disabled-mode hook in an untraced run.
    hook_count = len(recorder.records())
    snapshot = recorder.metrics.snapshot()
    metric_count = sum(
        len(snapshot[kind]) for kind in ("counters", "gauges", "histograms")
    )
    worst_hook_ns = max(micro["span_unguarded_ns"], micro["span_guarded_ns"])
    extrapolated_s = (hook_count + metric_count) * worst_hook_ns / 1e9
    disabled_overhead = extrapolated_s / off_median if off_median else 0.0

    payload = {
        "subject": SUBJECT_ID,
        "rounds": ROUNDS,
        "micro_ns_per_hook": micro,
        "macro": {
            "off_seconds": [round(t, 3) for t in off_times],
            "on_seconds": [round(t, 3) for t in on_times],
            "live_seconds": [round(t, 3) for t in live_times],
            "tail_seconds": [round(t, 3) for t in tail_times],
            "off_median_s": round(off_median, 3),
            "on_median_s": round(on_median, 3),
            "live_median_s": round(live_median, 3),
            "tail_median_s": round(tail_median, 3),
            "tracing_on_overhead": round(on_median / off_median - 1.0, 4),
            "progress_sink_overhead": round(subscriber_overhead, 4),
            "tail_sink_overhead": round(
                tail_median / on_median - 1.0 if on_median else 0.0, 4
            ),
            "subscriber_budget": SUBSCRIBER_OVERHEAD_BUDGET,
        },
        "extrapolation": {
            "span_and_event_records": hook_count,
            "metric_series": metric_count,
            "worst_hook_ns": worst_hook_ns,
            "disabled_overhead_fraction": round(disabled_overhead, 6),
            "budget": DISABLED_OVERHEAD_BUDGET,
        },
    }
    write_bench_json("BENCH_obs.json", payload)

    lines = [
        "Observability overhead",
        f"workload          : {SUBJECT_ID} quick transpile, median of {ROUNDS}",
        f"untraced (null)   : {off_median:.3f}s",
        f"traced            : {on_median:.3f}s "
        f"({payload['macro']['tracing_on_overhead']:+.1%})",
        f"traced + progress : {live_median:.3f}s "
        f"({subscriber_overhead:+.1%} vs traced)",
        f"traced + tail     : {tail_median:.3f}s "
        f"({payload['macro']['tail_sink_overhead']:+.1%} vs traced)",
        f"null span hook    : {micro['span_guarded_ns']:.0f}ns guarded, "
        f"{micro['span_unguarded_ns']:.0f}ns unguarded",
        f"null metric hook  : {micro['metric_guarded_ns']:.0f}ns",
        f"hooks per run     : {hook_count} spans/events + "
        f"{metric_count} metric series",
        f"disabled overhead : {disabled_overhead:.4%} extrapolated "
        f"(budget {DISABLED_OVERHEAD_BUDGET:.0%})",
    ]
    write_table("bench_obs.txt", "\n".join(lines))

    assert disabled_overhead <= DISABLED_OVERHEAD_BUDGET, (
        f"disabled instrumentation costs {disabled_overhead:.2%} "
        f"of the untraced run — over the "
        f"{DISABLED_OVERHEAD_BUDGET:.0%} budget"
    )
    assert subscriber_overhead <= SUBSCRIBER_OVERHEAD_BUDGET, (
        f"live progress sink costs {subscriber_overhead:.2%} over "
        f"tracing-only — over the {SUBSCRIBER_OVERHEAD_BUDGET:.0%} budget"
    )
    # The traced run must have actually traced something substantive.
    assert hook_count > 50
