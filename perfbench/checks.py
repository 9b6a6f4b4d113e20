"""Output invariants that share no code with linfor.

Every helper here works on plain integers, adjacency-row tuples and graph6
text, so a defect in linfor's own graph code cannot hide itself from these
checks.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def h_r(n: int, k: int, a: int, r: int) -> int:
    """Closed-form r-clique count of H(n, k, a): C(k-a, r) + (n-k+a)·C(a, r-1)."""
    return comb(k - a, r) + (n - k + a) * comb(a, r - 1)


def expected_formula(theorem: str, n: int, k: int, r: int, d: int | None) -> int:
    """Right-hand side of an extremal row (theorems 1-3, 5, 6)."""
    if theorem in ("theorem1", "theorem2", "theorem3"):
        return max(h_r(n, k, d or 0, r), h_r(n, k, (k - 1) // 2, r))
    return max(h_r(n, 2 * k + 1, d or 0, r), h_r(n, 2 * k + 1, k, r))


def expected_threshold(theorem: str, n: int, k: int, r: int, d: int) -> int:
    """Stability threshold of an 'exceeds' row (theorems 4 and 7)."""
    if theorem == "theorem4":
        return max(h_r(n, k, d, r), h_r(n, k, (k - 5) // 2, r))
    return max(h_r(n, 2 * k + 1, d, r), h_r(n, 2 * k + 1, k - 2, r))


def decode_graph6(text: str) -> tuple[int, tuple[int, ...]]:
    """(n, adjacency rows) of a graph6 record with n <= 62."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 size byte in {text!r}")
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bits.extend(val >> (5 - i) & 1 for i in range(6))
    rows = [0] * n
    p = 0
    for v in range(1, n):
        for u in range(v):
            if bits[p]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            p += 1
    return n, tuple(rows)


def clique_count(n: int, rows: tuple[int, ...], r: int) -> int:
    if r == 1:
        return n
    return sum(
        1
        for verts in combinations(range(n), r)
        if all(rows[u] >> v & 1 for u, v in combinations(verts, 2))
    )


def degrees(rows: tuple[int, ...]) -> list[int]:
    return [bin(row).count("1") for row in rows]


def is_matching(rows: tuple[int, ...], edges) -> bool:
    """True iff every pair is an edge of the graph and no vertex repeats."""
    seen: set[int] = set()
    for u, v in edges:
        if u == v or not rows[u] >> v & 1 or u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def host_rows(n: int, k: int, a: int) -> tuple[int, ...]:
    """Adjacency rows of the plain host H(n, k, a): A ∪ B a clique, A joined to C."""
    core = k - a  # vertices 0..a-1 form A, a..core-1 form B, the rest C
    a_mask = (1 << a) - 1
    core_mask = (1 << core) - 1
    all_mask = (1 << n) - 1
    rows = []
    for v in range(n):
        if v < a:
            row = all_mask
        elif v < core:
            row = core_mask
        else:
            row = a_mask
        rows.append(row & ~(1 << v))
    return tuple(rows)
