"""Smoke tests of the end-to-end benchmark on one-program slices.

Run from the repository root:

    python3 -m pytest bench_e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import WRAPPED, LayerTracer, resolve
from workloads import Program, get_workload, load_programs, make_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

run.add_source_path()


def _config_factory(workload: str):
    return lambda: make_config(get_workload(workload), 2022)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench_e2e" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=str(cwd),
    )


@pytest.mark.parametrize("workload, program", [
    ("table3", "P1"),
    ("repair", "P1"),
    ("store-warm", "P1"),
    ("generated", "div_trunc"),
])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_printed_with_its_unit(workload, program, trace):
    done = _bench("--workload", workload, "--programs", program,
                  "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}")
            for line in lines[:-1]
        ), f"no '{workload} {name} <value> {unit}' line"


def test_self_times_and_residue_add_up_to_the_traced_wall():
    programs = load_programs(["P1", "div_trunc"])
    with LayerTracer() as tracer:
        outcomes = run.run_pass(programs, _config_factory("table3"))
    wall = sum(o.seconds for o in outcomes)
    attributed = sum(tracer.self_s.values())
    # Nested calls are subtracted from their callers, so the self times
    # never add up to more than the wall; the residue is the rest.
    assert attributed <= wall * 1.01
    assert (wall - attributed) / wall <= 0.05
    assert all(value >= 0.0 for value in tracer.self_s.values())


def _bound(module: str, path: str):
    owner, attr = resolve(module, path)
    return owner.__dict__[attr]


def test_every_wrapped_attribute_is_restored():
    originals = [_bound(module, path) for module, path, _ in WRAPPED]
    with pytest.raises(RuntimeError, match="boom"):
        with LayerTracer():
            for (module, path, _), original in zip(WRAPPED, originals):
                assert _bound(module, path) is not original
            raise RuntimeError("boom")
    for (module, path, _), original in zip(WRAPPED, originals):
        assert _bound(module, path) is original, f"{module}.{path}"


def test_a_raising_transpile_counts_as_a_failed_op():
    good = load_programs(["div_trunc"])[0]
    broken = Program(
        name="missing_kernel", kernel="no_such_kernel", source=good.source,
        top_name="no_such_kernel",
    )
    factory = _config_factory("generated")
    passes = [run.Pass(run.run_pass([broken, good], factory))]
    verdict = run.check_outputs(passes, factory)
    assert verdict.attempted == 2
    assert verdict.failed == 1
    assert verdict.converted == 1
    assert verdict.problems and verdict.problems[0].startswith("missing_kernel:")


def test_a_corrupted_output_fails_the_oracle():
    program = load_programs(["div_trunc"])[0]
    factory = _config_factory("generated")
    (outcome,) = run.run_pass([program], factory)
    source = outcome.result.final_source()
    assert run.output_matches(program, outcome.result, factory(), source)
    assert "1000" in source
    corrupted = source.replace("1000", "1001", 1)
    assert not run.output_matches(program, outcome.result, factory(), corrupted)


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench_e2e",
        ignore=shutil.ignore_patterns("__pycache__", "work", ".pytest_cache"),
    )
    done = _bench("--workload", "table3", "--seconds", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
