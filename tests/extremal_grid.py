"""g_extremal at its default budget over 0 <= k <= 5, 0 <= delta <= 4,
computed once per test session and shared by the tests that read the grid.
Tests of the budget itself call g_extremal afresh."""

from functools import cache

from linfor import g_extremal


@cache
def extremal_grid() -> dict[tuple[int, int], tuple]:
    """(k, delta) -> g_extremal(k, delta)."""
    return {(k, delta): g_extremal(k, delta) for k in range(6) for delta in range(5)}
