"""Exception taxonomy shared by the library and the command-line front end.

The CLI maps these onto distinct exit codes: input problems exit with 2,
numerical non-convergence with 3, and internal invariant violations with 4.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ToolkitError):
    """Malformed or inconsistent input (bad index, wrong dimension, ...)."""


class AliasingError(InputError):
    """Grid too coarse to represent the requested frequency band."""


class ConvergenceError(ToolkitError):
    """An iterative solver stopped before reaching tolerance: cap reached or steps stalled.

    The partial result, when one exists, is attached as ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InvariantViolation(ToolkitError):
    """An internal consistency check failed; indicates a bug, not bad input."""
