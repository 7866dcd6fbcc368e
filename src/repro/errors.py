"""Exception hierarchy shared across the HeteroGen reproduction.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
distinguish failures of the reproduction infrastructure from ordinary Python
errors (which would indicate a bug in the library itself).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CFrontError(ReproError):
    """Base class for errors from the C frontend (lexer/parser)."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class LexError(CFrontError):
    """Raised when the lexer meets a character sequence it cannot tokenize."""


class ParseError(CFrontError):
    """Raised when the parser meets an unexpected token."""


class InterpError(ReproError):
    """Base class for runtime errors raised while interpreting C code."""


class InterpLimitExceeded(InterpError):
    """The interpreter exceeded its step or recursion budget."""


class MemoryFault(InterpError):
    """Out-of-bounds access, use-after-free, or invalid pointer arithmetic."""


class HlsSimulationFault(InterpError):
    """A finite-resource violation during HLS simulation.

    Examples: overflowing a bounded software stack that replaced recursion,
    or indexing past the end of a finitized array.  Differential testing
    treats a fault as an observable divergence from the CPU run.
    """


class FuzzError(ReproError):
    """Test generation failed (e.g. the kernel seed could not be captured).

    ``partial_seeds`` holds whatever kernel invocations were captured
    before the failure: a host that crashes after calling the kernel
    three times still produced three perfectly valid seeds, and the
    caller can salvage them instead of falling back to purely random
    fuzzer seeding.
    """

    def __init__(self, message: str, partial_seeds=()):
        super().__init__(message)
        self.partial_seeds = [list(args) for args in partial_seeds]


class SubjectError(ReproError):
    """A benchmark subject is unknown or malformed."""
