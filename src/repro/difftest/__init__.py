"""Differential testing harness (CPU reference vs HLS simulation)."""

from .harness import (
    CPU_NS_PER_STEP,
    DiffReport,
    differential_test,
    outputs_equal,
    run_cpu_reference,
)

__all__ = [
    "CPU_NS_PER_STEP",
    "DiffReport",
    "differential_test",
    "outputs_equal",
    "run_cpu_reference",
]
