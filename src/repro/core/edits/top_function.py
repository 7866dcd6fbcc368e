"""Edits for the *Top Function* error family (Table 2, row 6).

These edit the solution configuration rather than the program text:
a wrong module entry point, clock, or device name is a configuration
problem ("Configuration Exploration" in Table 1).
"""

from __future__ import annotations

from typing import List

from ...hls.diagnostics import ErrorType
from ...hls.platform import DEVICES, DEFAULT_DEVICE
from .base import Edit, EditApplication


class SetTopEdit(Edit):
    """``insert($p1:pragma, $f1:func)``: point the solution at a real top
    function.  Proposes every defined function, the likely kernel first;
    differential testing rejects wrong choices."""

    name = "set_top"
    error_type = ErrorType.TOP_FUNCTION
    signature = "insert($p1:pragma, $f1:func)"

    def propose(self, candidate, diagnostics, context):
        if not any(
            d.error_type == ErrorType.TOP_FUNCTION and "top function" in d.message
            for d in diagnostics
        ):
            return []
        names = [f.name for f in candidate.unit.functions() if f.body is not None]
        # Order: the kernel the harness targets first, then the rest.
        names.sort(key=lambda n: (n != context.kernel_name, n))
        out: List[EditApplication] = []
        for name in names:
            if name == candidate.config.top_name:
                continue
            label = f"set_top({name})"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, name=name, label=label:
                        cand.with_config(cand.config.with_top(name), label),
                )
            )
        return out


class FixClockEdit(Edit):
    """``move($p1:pragma, $f1:func)``: legalize the clock period."""

    name = "fix_clock"
    error_type = ErrorType.TOP_FUNCTION
    signature = "move($p1:pragma, $f1:func)"

    #: Candidate clock periods (ns): 300 MHz, 200 MHz, 100 MHz.
    PERIODS = (3.33, 5.0, 10.0)

    def propose(self, candidate, diagnostics, context):
        if not any("clock" in d.message for d in diagnostics):
            return []
        out: List[EditApplication] = []
        for period in self.PERIODS:
            label = f"fix_clock({period}ns)"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, period=period, label=label:
                        cand.with_config(cand.config.with_clock(period), label),
                    performance_hint=1.0 / period,
                )
            )
        return out


class FixDeviceEdit(Edit):
    """``delete($p1:pragma, $f1:func)``: replace an unknown device name."""

    name = "fix_device"
    error_type = ErrorType.TOP_FUNCTION
    signature = "delete($p1:pragma, $f1:func)"

    def propose(self, candidate, diagnostics, context):
        if not any("device" in d.message for d in diagnostics):
            return []
        out: List[EditApplication] = []
        for device in DEVICES:
            if device == candidate.config.device:
                continue
            label = f"fix_device({device})"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, device=device, label=label:
                        cand.with_config(cand.config.with_device(device), label),
                    performance_hint=1.0 if device == DEFAULT_DEVICE else 0.0,
                )
            )
        return out
