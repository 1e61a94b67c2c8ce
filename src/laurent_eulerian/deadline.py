"""Cooperative wall-clock budgets for the long computations.

A `Deadline` is passed explicitly (as ``deadline=None`` by default) to the
loops that can run long; each checks it at its own boundaries (a Buchberger
pair, a Hilbert slice, a pivot column) and `DeadlineExceeded` unwinds the
computation from there.  Nothing is interrupted asynchronously, so a budget
holds on any thread and any platform.
"""

from __future__ import annotations

import math
import time


def valid_seconds(seconds: float) -> bool:
    """A budget is finite and non-negative: a NaN or infinite one never expires."""
    return math.isfinite(seconds) and seconds >= 0


class DeadlineExceeded(Exception):
    """A computation ran past its deadline.

    Deliberately not a ValueError or TypeError: those mean bad input.
    """


class Deadline:
    """A point in time `seconds` from now, on the monotonic clock."""

    def __init__(self, seconds: float):
        if not valid_seconds(seconds):
            raise ValueError(f"not a finite, non-negative number of seconds: {seconds!r}")
        self.seconds = seconds
        self.expires_at = time.monotonic() + seconds

    def check(self) -> None:
        """Raise DeadlineExceeded once the deadline has passed."""
        if time.monotonic() >= self.expires_at:
            raise DeadlineExceeded(f"budget of {self.seconds} s exhausted")
