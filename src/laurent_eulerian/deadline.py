"""Cooperative wall-clock budgets for the long computations.

A `Deadline` is passed explicitly (as `NO_DEADLINE`, which never expires, by
default) to the loops that can run long, and `DeadlineExceeded` unwinds the
computation from the first check past it.  These are all the checks:

- `groebner._buchberger`: each popped pair and each interreduced element;
- `groebner._reduce`: each popped term of a polynomial reduction;
- `laurent.weight_zero_numerals`: before the first monomial of a walk;
- `laurent._weight_zero_walk`: after each monomial;
- `experiments.GenericFormSet.generate`: before each form is drawn;
- `experiments.graded_quotient_dims`: before each Hilbert slice;
- `experiments._span_matrix`: each form's block of a slice span matrix;
- `experiments._koszul_syzygies`: each pair's block of Koszul syzygy rows;
- `experiments._rank_mod_p`: each pivot column of an elimination.

Nothing is interrupted asynchronously, so a budget holds on any thread and any
platform.
"""

from __future__ import annotations

import math
import time
from typing import Optional


def valid_seconds(seconds: float) -> bool:
    """A budget is finite and non-negative: a NaN or infinite one never expires."""
    return math.isfinite(seconds) and seconds >= 0


class DeadlineExceeded(Exception):
    """A computation ran past its deadline.

    Deliberately not a ValueError or TypeError: those mean bad input.
    """


class Deadline:
    """A point in time `seconds` from now, on the monotonic clock; with
    seconds None, no budget: the deadline never expires."""

    def __init__(self, seconds: Optional[float]):
        if seconds is not None and not valid_seconds(seconds):
            raise ValueError(f"not a finite, non-negative number of seconds: {seconds!r}")
        self.seconds = seconds
        self.expires_at = math.inf if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        """Raise DeadlineExceeded once the deadline has passed."""
        if time.monotonic() >= self.expires_at:
            raise DeadlineExceeded(f"budget of {self.seconds} s exhausted")


# the default of every budgeted function: a run without a budget
NO_DEADLINE = Deadline(None)
