"""Host-speed probe: the yardstick every end-to-end time is divided by.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.8x for minutes at a time (another tenant on the sibling hyperthread, a
clock change), so two runs of the same code half a minute apart can differ
by 25% in every raw time.  Within one closed loop, though, a fixed piece of
pure-Python work timed right next to a call slows down with it.  So the
benchmark times this probe before and after every timed call, divides the
call's time by the mean of the two probe times, and reports the ratio in
reference seconds: times ``PROBE_REF_S``, the probe's time on a quiet host.

The probe is pure Python of the two kinds linfor's searches are made of:
recursion over int bitsets (a clique enumeration) and dict, set, tuple and
sort work (breadth-first searches keyed by distance).  It shares no code
with linfor, so no change to the program can move it.
"""

from __future__ import annotations

import random
from time import perf_counter

# About the probe's time on a quiet 2-vCPU Intel Xeon VM (Python 3.11.7).  It
# only sets the unit of the normalized times: a comparison of two commits
# divides both by the same constant.
PROBE_REF_S = 0.001


def _random_rows(n: int, p: float, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    rows = [0] * n
    for v in range(n):
        for u in range(v):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


_CLIQUE_ROWS = _random_rows(30, 0.6, 4242)
_BFS_ADJ = {v: {u for u in range(40) if row >> u & 1}
            for v, row in enumerate(_random_rows(40, 0.3, 97))}


def _count_cliques(cand: int, depth: int) -> int:
    """4-cliques of _CLIQUE_ROWS inside `cand`, by recursion on the lowest bit."""
    if depth == 4:
        return 1
    total = 0
    while cand:
        low = cand & -cand
        cand ^= low
        total += _count_cliques(cand & _CLIQUE_ROWS[low.bit_length() - 1], depth + 1)
    return total


def _bfs_signature() -> int:
    """Distance profiles of breadth-first searches from every fourth vertex."""
    sig = 0
    for s in range(0, 40, 4):
        dist = {s: 0}
        queue = [s]
        for x in queue:
            for y in sorted(_BFS_ADJ[x]):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        profile = tuple(sorted((d, len(_BFS_ADJ[v])) for v, d in dist.items()))
        sig = sig * 31 + len(profile) + sum(d * k for d, k in profile)
    return sig


def _work() -> tuple[int, int]:
    return _count_cliques((1 << len(_CLIQUE_ROWS)) - 1, 0), _bfs_signature()


EXPECTED = _work()


# Set-up is interpreter start, imports and file reads, which a pure-Python
# probe follows poorly (its set-up ratio swung by 15% between groups of ten
# set-ups where this start's swung by 5%).  So each set-up is divided by the
# time a reference interpreter takes to start and import numpy, spawned
# right before and right after it.  linfor is not imported, so no change to
# the program can move the reference.
START_REF_CMD = ["-c", "import json, time, numpy; print(time.monotonic())"]
# About that start's time on a quiet host: the unit of normalized set-ups.
START_REF_S = 0.1


def probe() -> float:
    """Seconds one run of the probe takes now."""
    t0 = perf_counter()
    got = _work()
    dt = perf_counter() - t0
    if got != EXPECTED:
        raise RuntimeError("host-speed probe miscounted")
    return dt
