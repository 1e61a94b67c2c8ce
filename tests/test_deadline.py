import math

import pytest

from laurent_eulerian.deadline import NO_DEADLINE, Deadline


def test_no_budget_never_expires():
    deadline = Deadline(None)
    assert deadline.seconds is None and deadline.expires_at == math.inf
    for _ in range(1000):
        deadline.check()
    assert NO_DEADLINE.seconds is None
    NO_DEADLINE.check()
    # None is the only budget that never expires: a number must still be
    # finite and non-negative
    for seconds in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="not a finite, non-negative number"):
            Deadline(seconds)
