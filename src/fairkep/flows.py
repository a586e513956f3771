"""Exact max-flow (Edmonds-Karp) and feasible circulation with arc lower bounds.

Capacities are ints or Fractions, never coerced; lorenz scales its networks to ints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Optional, Sequence

from .core import FairkepError

Node = Hashable
Capacity = int | Fraction

INF = 10**30


class Infeasible(FairkepError):
    """No feasible circulation; carries a violating node cut."""

    def __init__(self, message: str, cut: Optional[frozenset] = None):
        super().__init__(message)
        self.cut = cut


@dataclass
class Arc:
    tail: Node
    head: Node
    lower: Capacity = 0
    upper: Capacity = INF


class _MaxFlow:
    """Edmonds-Karp over an adjacency structure with residual pairing.

    Capacities are ints or Fractions; paths depend only on which are positive.
    """

    def __init__(self) -> None:
        self.adj: dict[Node, list[int]] = {}
        self.to: list[Node] = []
        self.cap: list[Capacity] = []

    def add(self, u: Node, v: Node, cap: Capacity) -> int:
        i = len(self.to)
        self.adj.setdefault(u, []).append(i)
        self.to.append(v)
        self.cap.append(cap)
        self.adj.setdefault(v, []).append(i + 1)
        self.to.append(u)
        self.cap.append(0)
        return i

    def flow_on(self, i: int) -> Capacity:
        return self.cap[i ^ 1]

    def run(self, s: Node, t: Node) -> Capacity:
        total = 0
        while True:
            parent: dict[Node, int] = {s: -1}
            q = deque([s])
            while q and t not in parent:
                u = q.popleft()
                for i in self.adj.get(u, []):
                    v = self.to[i]
                    if v not in parent and self.cap[i] > 0:
                        parent[v] = i
                        q.append(v)
            if t not in parent:
                return total
            # bottleneck along the path
            bottleneck = None
            v = t
            while v != s:
                i = parent[v]
                bottleneck = self.cap[i] if bottleneck is None else min(bottleneck, self.cap[i])
                v = self.to[i ^ 1]
            v = t
            while v != s:
                i = parent[v]
                self.cap[i] -= bottleneck
                self.cap[i ^ 1] += bottleneck
                v = self.to[i ^ 1]
            total += bottleneck

    def reachable(self, s: Node) -> frozenset:
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for i in self.adj.get(u, []):
                v = self.to[i]
                if v not in seen and self.cap[i] > 0:
                    seen.add(v)
                    q.append(v)
        return frozenset(seen)


def max_flow(arcs: Sequence[Arc], source: Node, sink: Node) -> tuple[Capacity, list[Capacity]]:
    """Maximum source→sink flow ignoring lower bounds; returns (value, per-arc flow)."""
    net = _MaxFlow()
    ids = [net.add(a.tail, a.head, a.upper) for a in arcs]
    value = net.run(source, sink)
    return value, [net.flow_on(i) for i in ids]


def feasible_circulation(arcs: Sequence[Arc]) -> list[Capacity]:
    """A circulation meeting every arc's [lower, upper] bounds, or raise Infeasible.

    Standard reduction: route mandatory lower-bound flow through a super
    source/sink and check that it saturates. On infeasibility the violating cut
    (nodes reachable from the super source in the residual) is attached.
    """
    net = _MaxFlow()
    S, T = ("__source__",), ("__sink__",)
    excess: dict[Node, Capacity] = {}
    ids = []
    for a in arcs:
        if a.lower > a.upper:
            raise Infeasible(f"arc {a.tail}->{a.head} has lower {a.lower} > upper {a.upper}")
        ids.append(net.add(a.tail, a.head, a.upper - a.lower))
        excess[a.head] = excess.get(a.head, 0) + a.lower
        excess[a.tail] = excess.get(a.tail, 0) - a.lower
    need = 0
    for v, e in excess.items():
        if e > 0:
            net.add(S, v, e)
            need += e
        elif e < 0:
            net.add(v, T, -e)
    got = net.run(S, T)
    if got != need:
        cut = net.reachable(S) - {S}
        raise Infeasible(f"circulation infeasible (short by {need - got})", cut=frozenset(cut))
    return [net.flow_on(i) + a.lower for i, a in zip(ids, arcs)]
