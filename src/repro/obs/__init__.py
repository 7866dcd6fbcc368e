"""``repro.obs`` — end-to-end observability for the transpile/repair
pipeline.

Spans + events (:mod:`.recorder`), metrics (:mod:`.metrics`), exporters
(:mod:`.export`: the JSONL journal, the one trace artifact of a run,
with the run manifest in its header; the metrics snapshot), the live
progress renderer (:mod:`.stream`), journal analytics (:mod:`.analyze`:
per-stage aggregation, critical path, folded-stack and Chrome
``trace_event`` exports, structural diff; its ``load_journal`` is the
journal's only reader),
per-stage perf baselines (:mod:`.baseline`: the ``repro trace check``
gate) and logging wiring (:mod:`.logs`).

Default state is a no-op :class:`NullRecorder`; `REPRO_TRACE` or the CLI
``--trace-out`` flag activates a :class:`TraceRecorder`.  Tracing is
determinism-safe by construction: see the module docstring of
:mod:`.recorder` and DESIGN.md "Observability".
"""

from .logs import configure_logging
from .metrics import MetricsRegistry, NullMetrics
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    TRACE_ENV,
    TraceRecorder,
    get_recorder,
    install_recorder,
    reset_recorder,
    scoped_recorder,
    trace_env_value,
)

#: Canonical span names, shared by the instrumented pipeline, the tests
#: and the journal consumers.  Grepping for one of these finds both the
#: producer and every consumer.
SPAN_TRANSPILE = "transpile"
SPAN_SEED_CAPTURE = "seed_capture"
SPAN_FUZZ = "fuzz"
SPAN_BITWIDTH = "bitwidth"
SPAN_SEARCH = "search"
SPAN_ITERATION = "search.iteration"
SPAN_EVALUATE = "search.evaluate"
SPAN_STYLE_CHECK = "style_check"
SPAN_HLS_COMPILE = "hls_compile"
SPAN_SCHEDULE = "hls_schedule"
SPAN_DIFFTEST = "difftest"
SPAN_CPU_REFERENCE = "cpu_reference"
SPAN_FINAL_DIFFTEST = "final_difftest"
SPAN_PARSE = "parse"
SPAN_CHECK = "check"
SPAN_STUDY = "study"
SPAN_STUDY_GENERATE = "study.generate"
SPAN_STUDY_ANALYZE = "study.analyze"

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "TRACE_ENV",
    "configure_logging",
    "get_recorder",
    "install_recorder",
    "reset_recorder",
    "scoped_recorder",
    "trace_env_value",
    "SPAN_TRANSPILE",
    "SPAN_SEED_CAPTURE",
    "SPAN_FUZZ",
    "SPAN_BITWIDTH",
    "SPAN_SEARCH",
    "SPAN_ITERATION",
    "SPAN_EVALUATE",
    "SPAN_STYLE_CHECK",
    "SPAN_HLS_COMPILE",
    "SPAN_SCHEDULE",
    "SPAN_DIFFTEST",
    "SPAN_CPU_REFERENCE",
    "SPAN_FINAL_DIFFTEST",
    "SPAN_PARSE",
    "SPAN_CHECK",
    "SPAN_STUDY",
    "SPAN_STUDY_GENERATE",
    "SPAN_STUDY_ANALYZE",
]
