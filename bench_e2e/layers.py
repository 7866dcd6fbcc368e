"""Per-layer self time, measured by wrapping each layer's entry points.

The wrappers are installed from benchmark code on the name a *consumer*
module binds (``repro.core.search.compile_unit``, not
``repro.hls.compiler.compile_unit``), because modules bind these names at
import time.  Nothing under ``src/`` is modified, and
:meth:`LayerTracer.restore` puts every original attribute back.

A layer's self time is the time inside its wrapped calls minus the time
inside wrapped calls nested in them, so the self times of all layers plus
the unattributed residue add up to the wall time of the traced pass.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Consumers of the interpreter, one metric per consumer.
_INTERP_CONSUMERS = (
    ("repro.fuzz.fuzzer", "fuzz"),
    ("repro.core.bitwidth", "bitwidth"),
    ("repro.hls.simulator", "simulator"),
    ("repro.difftest.harness", "cpu_reference"),
)

#: Edit modules that bind ``cloned_unit`` from ``repro.core.edits.base``.
_CLONING_EDIT_MODULES = (
    "data_types", "dataflow", "dynamic_data", "extensions", "loops", "structs",
)

#: ``(module, attribute path, metric)``: the calls each layer metric times.
#: Several entries may feed one metric.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.heterogen", "parse", "parse.s"),
    ("repro.core.heterogen", "get_kernel_seed", "fuzz.s"),
    ("repro.core.heterogen", "fuzz_kernel", "fuzz.s"),
    ("repro.core.heterogen", "generate_initial_version", "bitwidth.s"),
    ("repro.core.heterogen", "differential_test", "difftest.s"),
    ("repro.core.search", "run_cpu_reference", "difftest.s"),
    ("repro.core.search", "differential_test", "difftest.s"),
    ("repro.core.search", "RepairSearch.run", "search.s"),
    ("repro.core.search", "ordered_applications", "dependence.s"),
    ("repro.core.search", "unordered_applications", "dependence.s"),
    ("repro.core.search", "check_style", "hls.s"),
    ("repro.core.search", "compile_unit", "hls.s"),
    ("repro.difftest.harness", "simulate", "hls.s"),
    ("repro.core.search", "cached_candidate_key", "evalcache.s"),
    ("repro.core.search", "canonicalize_evaluation", "evalcache.s"),
    ("repro.core.search", "rebind_evaluation", "evalcache.s"),
    ("repro.core.evalcache", "EvalCache.lookup", "evalcache.s"),
    ("repro.core.evalcache", "EvalCache.put", "evalcache.s"),
    ("repro.core.edits.base", "EditApplication.apply", "edits.apply.s"),
) + tuple(
    (f"repro.core.edits.{name}", "cloned_unit", "edits.clone.s")
    for name in _CLONING_EDIT_MODULES
) + tuple(
    (module, "engine_run_many", f"interp.{consumer}.s")
    for module, consumer in _INTERP_CONSUMERS
) + tuple(
    (module, "make_engine", "interp.make_engine.s")
    for module, _ in _INTERP_CONSUMERS
)

#: Calls counted per metric name, from the wrapped entries above.
COUNTED_CALLS = {
    "repro.core.search:compile_unit": "hls.compile.calls",
    "repro.core.edits.base:EditApplication.apply": "edits.apply.calls",
}

#: Interpreter inputs counted per consumer (the length of the input batch).
COUNTED_INPUTS = {
    "repro.fuzz.fuzzer:engine_run_many": "interp.fuzz.inputs",
    "repro.hls.simulator:engine_run_many": "interp.simulator.inputs",
}

#: Every self-time metric, in report order.
SELF_TIME_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(m for _, _, m in WRAPPED))


def resolve(module_name: str, path: str) -> Tuple[object, str]:
    """The object holding a wrapped attribute, and the attribute's name."""
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerTracer:
    """Installs timing wrappers, accumulates self time, restores originals.

    Single-threaded by design: the benchmark runs the pipeline serially,
    and the nesting stack assumes calls nest on one thread.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._installed: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("layer wrappers are already installed")
        for module_name, path, metric in WRAPPED:
            owner, attr = resolve(module_name, path)
            original = owner.__dict__[attr]
            key = f"{module_name}:{path}"
            wrapper = self._wrap(
                original, metric, COUNTED_CALLS.get(key), COUNTED_INPUTS.get(key)
            )
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()

    def _wrap(
        self,
        original: Callable,
        metric: str,
        call_metric: "str | None",
        input_metric: "str | None",
    ) -> Callable:
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if call_metric is not None:
                counts[call_metric] += 1
            if input_metric is not None:
                counts[input_metric] += len(args[2])
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                self_s[metric] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return timed
