"""End-to-end benchmark of the HeteroGen pipeline.

Run from the repository root:

    python3 bench_e2e/run.py --workload table3 --seed 2022 --seconds 15 --trace 0

Set-up is measured first, in fresh processes.  Then one run transpiles
the workload's programs (see ``workloads.py``) in passes until
``--seconds`` have elapsed, at least one pass, serially in this process.
Every pass does the same work, so each timing metric is a median over
passes.  A fixed piece of reference work is timed between every two
programs, and small slices of it every 0.1s while a program runs; each
program's time is scaled by the readings next to it and in it, so that
swings in the host's speed cancel out (see ``reference.py``).
After timing stops, every converted program's HLS-C output is checked
against the original program with the tree-walking interpreter, and every
pass must have produced the same output.

``--trace 0`` reports the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` alternates untraced and traced passes and
reports per-layer self times from the traced ones (see ``layers.py``),
the unattributed residue, and the tracing overhead.

Every ``REPRO_*`` variable is removed from the environment before the
program is imported, unless it is given again with ``--env NAME=VALUE``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple  # noqa: E402

from layers import SELF_TIME_METRICS, LayerTracer  # noqa: E402
from reference import (  # noqa: E402
    NOMINAL_IMPORT_S,
    SpeedSampler,
    import_reference_seconds,
    reference_seconds,
    speed_scale,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    Program,
    Workload,
    get_workload,
    load_programs,
    make_config,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"

#: Fresh processes that load the program per benchmark run; the loading
#: part of ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Fresh processes that each fill an evaluation store with a cold pass, on
#: a warm-store workload; the filling part of ``setup_s`` is their median.
FILL_SAMPLES = 3
#: Seconds a set-up child may take before the run is abandoned.
SETUP_TIMEOUT_S = 120

#: ``name: (unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "transpile_s.geomean": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "converted_ratio": ("ratio", "higher"),
}

#: ``name: (unit, better)`` of the per-layer metrics (``--trace 1``).
PER_LAYER = {
    **{name: ("s", "lower") for name in SELF_TIME_METRICS},
    "residue.s": ("s", "lower"),
    "residue.ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "fuzz.execs": ("count", "lower"),
    "interp.fuzz.inputs": ("count", "lower"),
    "interp.simulator.inputs": ("count", "lower"),
    "search.iterations": ("count", "lower"),
    "search.attempts": ("count", "lower"),
    "edits.apply.calls": ("count", "lower"),
    "hls.compile.calls": ("count", "lower"),
    "evalcache.hits": ("count", "higher"),
    "store.hits": ("count", "higher"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Outcome:
    """One transpile of one program."""

    program: Program
    seconds: float
    result: Any = None
    error: str = ""
    scale: float = 1.0
    """Host-speed normalization: nominal over measured speed, averaged over
    the readings just before and just after the transpile and the slices
    sampled during it (see ``reference.speed_scale``)."""


@dataclass
class Pass:
    outcomes: List[Outcome]
    tracer: Optional[LayerTracer] = None

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def scale(self) -> float:
        """The pass's host-speed normalization, weighted by program time."""
        return sum(o.seconds * o.scale for o in self.outcomes) / self.seconds


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    converted: int = 0
    problems: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Environment


def scrub_environment(overrides: Sequence[str]) -> Dict[str, str]:
    """Drop every ``REPRO_*`` variable, then apply ``NAME=VALUE`` overrides.

    Returns the overrides applied, for stamping into the result."""
    applied: Dict[str, str] = {}
    for item in overrides:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise BenchError(f"--env expects NAME=VALUE, got {item!r}")
        applied[name] = value
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(applied)
    return applied


def add_source_path() -> None:
    """Make the checkout's ``src/repro`` importable, or fail."""
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SOURCE_DIR / 'repro'}")
    if str(SOURCE_DIR) not in sys.path:
        sys.path.insert(0, str(SOURCE_DIR))


def import_pipeline() -> None:
    """Import every module a timed pass uses, so set-up pays for it."""
    import repro.core.heterogen  # noqa: F401
    import repro.core.store  # noqa: F401
    import repro.hls.memo  # noqa: F401


# ---------------------------------------------------------------------------
# Passes


def run_pass(
    programs: Sequence[Program],
    config_factory: Callable[[], Any],
    store_path: Optional[str] = None,
    normalize: bool = False,
    sample: bool = False,
) -> List[Outcome]:
    """Transpile each program once.  A raising transpile is recorded as a
    failed outcome and the pass goes on.

    With *store_path*, every program's evaluation cache is backed by one
    freshly opened store, as in a new process rerunning against it.  With
    *normalize*, the reference work is timed before the first program and
    after each, and sets each outcome's ``scale``; with *sample* as well,
    so is the speed sampled while each program runs (see ``reference.py``)."""
    from repro.core.evalcache import EvalCache
    from repro.core.heterogen import HeteroGen
    from repro.core.store import EvalStore
    from repro.hls.memo import clear_analysis_caches

    store = EvalStore(store_path) if store_path else None
    outcomes: List[Outcome] = []
    readings = [reference_seconds()] if normalize else []
    try:
        for program in programs:
            config = config_factory()
            cache = EvalCache(store=store) if store is not None else None
            gc.collect()
            clear_analysis_caches()
            sampler = SpeedSampler() if normalize and sample else None
            start = time.perf_counter()
            with sampler or contextlib.nullcontext():
                try:
                    result = HeteroGen(config, cache=cache).transpile(
                        program.source,
                        kernel_name=program.kernel,
                        solution=program.solution,
                        host_name=program.host,
                        host_args=program.host_args,
                        tests=program.tests or None,
                        subject_name=program.name,
                    )
                    error = ""
                except Exception as exc:  # a failed op, not a failed run
                    result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if sampler is not None:
                seconds -= sampler.spent
            outcome = Outcome(program, seconds, result, error)
            if normalize:
                readings.append(reference_seconds())
                outcome.scale = speed_scale(
                    readings[-2], readings[-1], sampler.slices if sampler else ()
                )
            outcomes.append(outcome)
    finally:
        if store is not None:
            store.close()
    return outcomes


def measure(
    programs: Sequence[Program],
    config_factory: Callable[[], Any],
    seconds: float,
    trace: bool,
    store_path: Optional[str] = None,
) -> List[Pass]:
    """Run normalized passes until *seconds* have elapsed.  With *trace*,
    odd passes run under the layer wrappers; at least one pass of each
    kind runs.  Traced runs sample no speed inside programs, because the
    samples would land in the layers' self times."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while len(passes) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        tracer = LayerTracer() if trace and len(passes) % 2 == 1 else None
        with tracer or contextlib.nullcontext():
            outcomes = run_pass(
                programs, config_factory, store_path, normalize=True,
                sample=not trace,
            )
        passes.append(Pass(outcomes, tracer))
    return passes


# ---------------------------------------------------------------------------
# Oracle


def pipeline_suite(program: Program, result: Any, config: Any) -> List[List[Any]]:
    """The test suite the pipeline built: fuzzed inputs, with the
    program's own tests first (as ``HeteroGen.transpile`` orders them)."""
    suite = result.fuzz_report.suite(config.suite_cap)
    if program.tests:
        suite = list(program.tests) + [t for t in suite if t not in program.tests]
        suite = suite[: config.suite_cap]
    return suite


def output_matches(
    program: Program, result: Any, config: Any, hls_source: Optional[str] = None
) -> bool:
    """Re-parse the HLS-C output and compare it with the original program
    on the first ``final_diff_cap`` inputs, on the tree-walking interpreter."""
    from repro.cfront.parser import parse
    from repro.difftest import differential_test

    if hls_source is None:
        hls_source = result.final_source()
    top = result.final_config.top_name
    report = differential_test(
        parse(program.source, top_name=program.top_name),
        parse(hls_source, top_name=top),
        program.kernel,
        result.final_config,
        pipeline_suite(program, result, config)[: config.final_diff_cap],
        limits=config.limits,
        backend="tree",
    )
    return report.behavior_preserved


def check_outputs(passes: Sequence[Pass], config_factory: Callable[[], Any]) -> Verdict:
    """Count ops and failures; check the first pass's outputs against the
    oracle and every later pass's outputs against the first pass."""
    verdict = Verdict()
    first = passes[0].outcomes
    for index, outcome in enumerate(first):
        name = outcome.program.name
        runs = [p.outcomes[index] for p in passes]
        verdict.attempted += len(runs)
        errors = [o.error for o in runs if o.error]
        verdict.failed += len(errors)
        if errors:
            verdict.problems.append(f"{name}: {errors[0]}")
            continue
        result = outcome.result
        sources = {o.result.final_source() for o in runs}
        if len(sources) > 1:
            verdict.failed += len(runs)
            verdict.problems.append(f"{name}: output differs between passes")
            continue
        if result.final_unit is None:
            continue  # not converted: there is no output to check
        if not output_matches(outcome.program, result, config_factory()):
            verdict.failed += len(runs)
            verdict.problems.append(f"{name}: output disagrees with the original")
            continue
        verdict.converted += 1
    return verdict


# ---------------------------------------------------------------------------
# Metrics


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def program_medians(
    passes: Sequence[Pass], normalized: bool = True
) -> Dict[str, float]:
    """Median transpile seconds per program over *passes*, leaving out
    transpiles that raised."""
    names = [o.program.name for o in passes[0].outcomes]
    return {
        name: statistics.median(
            p.outcomes[i].seconds * (p.outcomes[i].scale if normalized else 1.0)
            for p in passes if not p.outcomes[i].error
        )
        for i, name in enumerate(names)
        if any(not p.outcomes[i].error for p in passes)
    }


def end_to_end_metrics(
    passes: Sequence[Pass], verdict: Verdict, setup_s: float, rss_kb: int
) -> Dict[str, float]:
    medians = program_medians(passes)
    if not medians:
        raise BenchError("every transpile failed; there is nothing to time")
    return {
        "wall_s": sum(medians.values()),
        "transpile_s.geomean": geomean(list(medians.values())),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "converted_ratio": verdict.converted / len(passes[0].outcomes),
    }


def layer_metrics(passes: Sequence[Pass]) -> Dict[str, float]:
    traced = [p for p in passes if p.tracer is not None]
    # The first pass also pays the process's warm-up; leave it out of the
    # untraced baseline when there is another untraced pass.
    untraced = [p for p in passes if p.tracer is None]
    untraced = untraced[1:] or untraced

    def median_of(value: Callable[[Pass], float]) -> float:
        return statistics.median(value(p) for p in traced)

    metrics = {
        name: median_of(lambda p, n=name: p.tracer.self_s.get(n, 0.0) * p.scale)
        for name in SELF_TIME_METRICS
    }

    def residue(p: Pass) -> float:
        return p.seconds - sum(p.tracer.self_s.values())

    metrics["residue.s"] = median_of(lambda p: residue(p) * p.scale)
    metrics["residue.ratio"] = median_of(lambda p: residue(p) / p.seconds)
    metrics["trace.overhead_ratio"] = (
        sum(program_medians(traced).values())
        / sum(program_medians(untraced).values())
        - 1.0
    )
    for name in ("interp.fuzz.inputs", "interp.simulator.inputs",
                 "edits.apply.calls", "hls.compile.calls"):
        metrics[name] = median_of(lambda p, n=name: p.tracer.counts.get(n, 0))

    def total(p: Pass, attribute: Callable[[Any], float]) -> float:
        return sum(attribute(o.result) for o in p.outcomes if o.result is not None)

    metrics["fuzz.execs"] = median_of(lambda p: total(p, lambda r: r.fuzz_report.execs))
    for name, stat in (
        ("search.iterations", "iterations"),
        ("search.attempts", "attempts"),
        ("evalcache.hits", "cache_hits"),
        ("store.hits", "store_hits"),
    ):
        metrics[name] = median_of(
            lambda p, s=stat: total(p, lambda r: getattr(r.search_result.stats, s))
        )
    return metrics


def simulated_summary(passes: Sequence[Pass]) -> Dict[str, float]:
    """Simulated outputs of the first pass (recorded, never gated)."""
    results = [o.result for o in passes[0].outcomes if o.result is not None]
    repair = [r.search_result.repair_minutes for r in results]
    speedups = [r.speedup for r in results if r.hls_compatible and r.speedup > 0]
    summary = {}
    if repair and min(repair) > 0:
        summary["search.sim_repair_min.geomean"] = geomean(repair)
    if speedups:
        summary["hls.sim_speedup.geomean"] = geomean(speedups)
    return summary


# ---------------------------------------------------------------------------
# Set-up


def setup_in_child(
    args: argparse.Namespace, store_path: Optional[str]
) -> Dict[str, float]:
    """One set-up in a fresh process; returns what :func:`setup_phase`
    measured."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--phase", "setup",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.programs:
        command += ["--programs", args.programs]
    for item in args.env:
        command += ["--env", item]
    if store_path:
        command += ["--store", store_path]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            cwd=str(ROOT),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up took over {SETUP_TIMEOUT_S}s") from exc
    if done.returncode != 0:
        raise BenchError(f"set-up failed:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def import_reading() -> float:
    """One reading of the import reference (see ``reference.py``)."""
    try:
        return import_reference_seconds()
    except (subprocess.SubprocessError, ValueError) as exc:
        raise BenchError(f"the import reference failed: {exc}") from exc


def measure_setup(
    args: argparse.Namespace, workload: Workload, work_dir: str
) -> Tuple[float, float, Optional[str]]:
    """Normalized and unnormalized set-up seconds, and the store set-up
    filled (None unless the workload needs one).

    Set-up is loading, the median over fresh processes, each scaled by the
    import reference read in fresh processes just before and after it;
    plus, for a warm-store workload, the median cold pass that fills a
    store, over processes that each fill a store of their own, scaled per
    program like a timed pass.  The timed passes use the first store."""
    raw, loads = [], []
    readings = [import_reading()]
    for _ in range(SETUP_SAMPLES):
        raw.append(setup_in_child(args, None)["load_s"])
        readings.append(import_reading())
        loads.append(raw[-1] * NOMINAL_IMPORT_S * 2 / (readings[-2] + readings[-1]))
    if not workload.warm_store:
        return statistics.median(loads), statistics.median(raw), None
    stores = [os.path.join(work_dir, f"store-{i}.sqlite") for i in range(FILL_SAMPLES)]
    fills = [setup_in_child(args, store) for store in stores]
    return (
        statistics.median(loads)
        + statistics.median(f["fill_normalized_s"] for f in fills),
        statistics.median(raw) + statistics.median(f["fill_s"] for f in fills),
        stores[0],
    )


def selected_programs(workload: Workload, only: str) -> List[Program]:
    names = list(workload.programs)
    if only:
        names = [n for n in only.split(",") if n]
    return load_programs(names)


def setup_phase(args: argparse.Namespace) -> None:
    """The set-up a workload process does before its timed passes: load
    the program and the inputs (timed from this process's first line) and,
    given ``--store``, fill that store with a cold pass."""
    import_pipeline()
    workload = get_workload(args.workload)
    programs = selected_programs(workload, args.programs)
    load_s = time.perf_counter() - _STARTED
    fill: List[Outcome] = []
    if args.store:
        fill = run_pass(
            programs, lambda: make_config(workload, args.seed), args.store,
            normalize=True, sample=True,
        )
        errors = [o.error for o in fill if o.error]
        if errors:
            raise BenchError(f"cold pass failed: {errors[0]}")
    print(json.dumps({
        "load_s": load_s,
        "fill_s": sum(o.seconds for o in fill),
        "fill_normalized_s": sum(o.seconds * o.scale for o in fill),
    }))


# ---------------------------------------------------------------------------
# Entry point


def run_phase(args: argparse.Namespace, env: Dict[str, str]) -> Dict[str, Any]:
    workload = get_workload(args.workload)
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=str(WORK_DIR))
    try:
        setup_s, setup_raw_s, store_path = measure_setup(args, workload, work_dir)
        import_pipeline()
        programs = selected_programs(workload, args.programs)
        config_factory = lambda: make_config(workload, args.seed)  # noqa: E731
        passes = measure(
            programs, config_factory, args.seconds, bool(args.trace), store_path
        )
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    verdict = check_outputs(passes, config_factory)
    for problem in verdict.problems:
        print(f"{workload.name} FAILED {problem}")
    if args.trace:
        metrics = layer_metrics(passes)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(passes, verdict, setup_s, rss_kb)
        units = END_TO_END
        for name, seconds in program_medians(passes).items():
            print(f"{workload.name} program {name} {seconds:.4f} s")
        raw = program_medians(passes, normalized=False)
        print(f"{workload.name} wall_s.unnormalized {sum(raw.values()):.4f} s "
              f"(not gated)")
        print(f"{workload.name} setup_s.unnormalized {setup_raw_s:.4f} s "
              f"(not gated)")
        for name, value in simulated_summary(passes).items():
            print(f"{workload.name} {name} {value:.4f} (simulated, not gated)")
    print(
        f"{workload.name} passes {len(passes)} programs {len(programs)} "
        f"seed {args.seed} env {json.dumps(env, sort_keys=True)}"
    )
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name][0]}")
    return {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0]}
            for name, value in metrics.items()
        },
    }


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w.name for w in WORKLOADS]
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--seconds", type=float, default=15.0,
        help="keep starting passes until this long has been measured",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--env", action="append", default=[], metavar="NAME=VALUE",
        help="set a REPRO_* variable for the program (repeatable)",
    )
    parser.add_argument(
        "--programs", default="",
        help="comma-separated subset of the workload's programs (smoke tests)",
    )
    parser.add_argument("--phase", choices=("run", "setup"), default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--store", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        env = scrub_environment(args.env)
        add_source_path()
        if args.phase == "setup":
            setup_phase(args)
            return 0
        result = run_phase(args, env)
    except BenchError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
