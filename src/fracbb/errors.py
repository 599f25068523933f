"""Exception taxonomy shared by the library and the command-line front end.

The CLI maps these onto distinct exit codes: input problems exit with 2,
numerical non-convergence with 3, and internal invariant violations with 4.
"""

from __future__ import annotations

import numpy as np


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


def _count(value, name: str, least: int, most: int | None = None) -> int:
    """``value`` as an int: an integer (not a bool) of at least ``least`` and at most ``most``.

    Every count, size and index a caller passes goes through here; anything
    else is an input error.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least
            or most is not None and value > most):
        bounds = f"of at least {least}" if most is None else f"in [{least}, {most}]"
        raise InputError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)
