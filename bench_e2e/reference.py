"""Fixed pieces of Python work that measure how fast the host runs now.

The benchmark shares its machine with other tenants, and the host's speed
swings by 10-100% over seconds to minutes.  Timing fixed work next to the
measured work and dividing it out removes most of that swing from the
reported times.  The work is independent of the program under test, so no
change to the program can move it.  Two references imitate the two kinds
of measured work:

- The tree work imitates the pipeline's profile: building and walking a
  tree of small objects with attribute access, ``isinstance`` dispatch,
  dictionary lookups and allocation.  It comes in slices of about a
  millisecond.  :func:`reference_seconds` times a reading of many slices
  between two programs, and :class:`SpeedSampler` times one slice every
  :data:`TICK_S` while a program runs.  They scale transpile times.
- :func:`import_reference_seconds` imitates loading the program: a fresh
  process imports a fixed set of standard-library modules.  It scales
  set-up times.  Loading tracks the tree work poorly, because the two
  slow down differently when other tenants contend for memory.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence

#: Seconds one slice of the tree work takes on the calibration host (a
#: 2-CPU x86 VM with CPython 3.11) when it is not slowed down.  Normalized
#: times are expressed in seconds at this speed.
NOMINAL_SLICE_S = 0.00107
#: Slices in one reading of :func:`reference_seconds`.
READING_SLICES = 32
#: Seconds :func:`reference_seconds` reads when the host is not slowed down.
NOMINAL_S = NOMINAL_SLICE_S * READING_SLICES
#: Seconds of wall time between two slices that :class:`SpeedSampler` times.
TICK_S = 0.1

#: Seconds :func:`import_reference_seconds` reads on the calibration host
#: when it is not slowed down.
NOMINAL_IMPORT_S = 0.1

#: Standard-library modules the import reference loads, in a process of
#: its own, so that the program's own imports never make them cheaper.
IMPORT_MODULES = (
    "argparse", "asyncio", "configparser", "dataclasses", "doctest",
    "email.message", "email.parser", "http.client", "http.server", "imaplib",
    "inspect", "logging.handlers", "mailbox", "pdb", "plistlib", "pydoc",
    "smtplib", "statistics", "tarfile", "typing", "unittest",
    "urllib.request", "xml.dom.minidom", "xml.etree.ElementTree", "zipfile",
)

_IMPORT_SCRIPT = (
    "import time\n"
    "start = time.perf_counter()\n"
    f"import {', '.join(IMPORT_MODULES)}\n"
    "print(time.perf_counter() - start)\n"
)

#: Seconds the import reference's process may take.
IMPORT_TIMEOUT_S = 60


class _Leaf:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class _Node:
    __slots__ = ("op", "children")

    def __init__(self, op: str, children: List[object]) -> None:
        self.op = op
        self.children = children


_OPS = ("+", "*", "-", "max")


def _build(depth: int, seed: int) -> object:
    if depth == 0:
        return _Leaf(seed % 17)
    return _Node(
        _OPS[seed % len(_OPS)],
        [_build(depth - 1, seed * 31 + i) for i in range(3)],
    )


def _evaluate(node: object, memo: Dict[int, int]) -> int:
    if isinstance(node, _Leaf):
        return node.value
    values = [_evaluate(child, memo) for child in node.children]
    op = node.op
    if op == "+":
        result = sum(values)
    elif op == "*":
        result = (values[0] * values[1] * values[2]) % 1009
    elif op == "-":
        result = values[0] - values[1] - values[2]
    else:
        result = max(values)
    memo[result % 251] = memo.get(result % 251, 0) + 1
    return result


def _clone(node: object) -> object:
    if isinstance(node, _Leaf):
        return _Leaf(node.value)
    return _Node(node.op, [_clone(child) for child in node.children])


_TREE = _build(4, 7)


def _slice() -> int:
    memo: Dict[int, int] = {}
    tree = _TREE
    total = 0
    for _ in range(16):
        tree = _clone(tree)
        total += _evaluate(tree, memo)
    return total + len(memo)


def reference_seconds() -> float:
    """Seconds one reading of the tree work takes now."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(READING_SLICES):
        _slice()
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the host's speed while a program runs.

    A program of a few seconds sees the host change speed, and two readings
    before and after it miss those swings.  Inside this context, a
    ``SIGALRM`` every :data:`TICK_S` of wall time interrupts the program
    between two bytecodes and times one slice of the tree work.  ``spent``
    is the time the interruptions took, which the caller takes off the
    program's time."""

    def __init__(self) -> None:
        self.slices: List[float] = []
        self.spent = 0.0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # the slice must not collect the program's garbage
        start = time.perf_counter()
        _slice()
        self.slices.append(time.perf_counter() - start)
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - entered

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # Restart system calls the alarm interrupts, such as SQLite's I/O.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def speed_scale(before: float, after: float, slices: Sequence[float] = ()) -> float:
    """The factor that turns a program's seconds into seconds at nominal
    speed: the mean of the speeds, nominal over measured, of the readings
    *before* and *after* it and of the *slices* sampled inside it.  The
    slices come at even intervals, so their mean speed times the program's
    seconds is the work the host could have done meanwhile."""
    return statistics.fmean(
        [NOMINAL_S / before, NOMINAL_S / after]
        + [NOMINAL_SLICE_S / s for s in slices]
    )


def import_reference_seconds() -> float:
    """Seconds a fresh process takes now to import :data:`IMPORT_MODULES`,
    timed from its first line like the program's loading."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT],
        capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])
