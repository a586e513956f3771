"""A fixed reference computation that measures the machine's current speed.

The kernel does the kinds of work the library spends its time on: exact
rational elimination (like the simplex in ``simplexlp``), a bitmask
branch-and-bound over small structures (like ``oracle``) and augmenting-path
search over a dict-of-dicts graph (like the networkx matchings ``lorenz``
calls).  It is a frozen
part of the benchmark and shares no code with the library, so a change to the
library never changes it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction


def _eliminate(n: int, rng: random.Random) -> Fraction:
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1)] for _ in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        a[col], a[pivot] = a[pivot], a[col]
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _pack(masks: list[int], values: list[Fraction]) -> Fraction:
    best = [Fraction(0)]
    suffix = [Fraction(0)] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]

    def dfs(i: int, used: int, value: Fraction) -> None:
        if value > best[0]:
            best[0] = value
        for j in range(i, len(masks)):
            if value + suffix[j] <= best[0]:
                return
            if not masks[j] & used:
                dfs(j + 1, used | masks[j], value + values[j])

    dfs(0, 0, Fraction(0))
    return best[0]


def _match(n: int, rng: random.Random) -> int:
    adj: dict[int, dict[int, dict]] = {u: {} for u in range(2 * n)}
    for u in range(n):
        for v in rng.sample(range(n, 2 * n), 4):
            adj[u][v] = {"weight": 1}
            adj[v][u] = {"weight": 1}
    mate: dict[int, int] = {}
    for root in range(n):
        parent = {root: None}
        frontier = [root]
        end = None
        while frontier and end is None:
            nxt = []
            for u in frontier:
                for v in sorted(adj[u]):
                    if v in parent:
                        continue
                    parent[v] = u
                    if v not in mate:
                        end = v
                        break
                    parent[mate[v]] = v
                    nxt.append(mate[v])
                if end is not None:
                    break
            frontier = nxt
        while end is not None:
            u = parent[end]
            previous = mate.get(u)
            mate[end], mate[u] = u, end
            end = previous
    return len(mate) // 2


def kernel() -> None:
    _eliminate(16, random.Random(1))
    rng = random.Random(20070)
    masks = [sum(1 << rng.randrange(24) for _ in range(3)) for _ in range(25)]
    values = [Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in masks]
    _pack(masks, values)
    _match(700, random.Random(5))


def probe() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
