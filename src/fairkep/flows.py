"""Exact max flow (Dinic's blocking flows) and feasible circulation with arc lower bounds.

One kernel, `_MaxFlow`, serves every flow of the library:
`feasible_circulation` and lorenz's min cuts, one per Dinkelbach trial λ on a
connected component (none for a lone pseudonode).  Capacities are ints or
Fractions, never coerced; lorenz scales its networks to ints.
"""

from __future__ import annotations

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
    """Dinic's max flow (Dinitz 1970) on int-indexed arrays.

    Node keys map to ints 0, 1, ... on first use; arc i and its residual
    twin i ^ 1 sit side by side in `to` and `cap`.  Each phase builds the BFS
    level graph from the source, then saturates it with a blocking flow found
    by an iterative DFS that keeps a per-node cursor into its arc list, so no
    arc is scanned twice in a phase.  Capacities are ints or Fractions; the
    paths depend only on which residual capacities are positive.
    """

    def __init__(self) -> None:
        self.index: dict[Node, int] = {}
        self.adj: list[list[int]] = []
        self.to: list[int] = []
        self.cap: list[Capacity] = []

    def node(self, key: Node) -> int:
        i = self.index.get(key)
        if i is None:
            i = self.index[key] = len(self.adj)
            self.adj.append([])
        return i

    def add(self, u: Node, v: Node, cap: Capacity) -> int:
        a, b = self.node(u), self.node(v)
        i = len(self.to)
        self.adj[a].append(i)
        self.to.append(b)
        self.cap.append(cap)
        self.adj[b].append(i + 1)
        self.to.append(a)
        self.cap.append(0)
        return i

    def flow_on(self, i: int) -> Capacity:
        return self.cap[i ^ 1]

    def run(self, s: Node, t: Node) -> Capacity:
        if s not in self.index or t not in self.index:
            return 0
        s, t = self.index[s], self.index[t]
        adj, to, cap = self.adj, self.to, self.cap
        n = len(adj)
        total = 0
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                nxt = level[u] + 1
                for i in adj[u]:
                    v = to[i]
                    if level[v] < 0 and cap[i] > 0:
                        level[v] = nxt
                        queue.append(v)
            if level[t] < 0:
                return total
            cursor = [0] * n
            path: list[int] = []  # arcs from s to u along the level graph
            u = s
            while True:
                if u == t:
                    f = min(cap[i] for i in path)
                    for i in path:
                        cap[i] -= f
                        cap[i ^ 1] += f
                    total += f
                    # resume from the tail of the first arc the path saturated
                    k = next(k for k, i in enumerate(path) if not cap[i] > 0)
                    u = to[path[k] ^ 1]
                    del path[k:]
                    continue
                arcs, j, nxt = adj[u], cursor[u], level[u] + 1
                while j < len(arcs) and not (cap[arcs[j]] > 0 and level[to[arcs[j]]] == nxt):
                    j += 1
                cursor[u] = j
                if j < len(arcs):
                    path.append(arcs[j])
                    u = to[arcs[j]]
                elif u == s:
                    break
                else:
                    # dead end: retreat and skip the arc that led here
                    u = to[path.pop() ^ 1]
                    cursor[u] += 1

    def reaches_sink(self, t: Node) -> frozenset:
        """Node keys with a residual path to t (t included).

        After `run(s, t)` this is the same set for every maximum flow: its
        complement is the maximal source side of a minimum cut."""
        if t not in self.index:
            return frozenset({t})
        t = self.index[t]
        adj, to, cap = self.adj, self.to, self.cap
        seen = [False] * len(adj)
        seen[t] = True
        stack = [t]
        while stack:
            v = stack.pop()
            for i in adj[v]:
                u = to[i]
                # arc i leaves v; its twin i ^ 1 is the arc u -> v
                if not seen[u] and cap[i ^ 1] > 0:
                    seen[u] = True
                    stack.append(u)
        return frozenset(k for k, i in self.index.items() if seen[i])


def feasible_circulation(arcs: Sequence[Arc]) -> list[Capacity]:
    """A circulation meeting every arc's [lower, upper] bounds, or raise Infeasible.

    Standard reduction: route mandatory lower-bound flow through a super
    source/sink and check that it saturates. On infeasibility the violating cut
    (the nodes with no residual path to the super sink) is attached.
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
        # the maximal source side of a minimum cut, without the super source
        cut = frozenset(net.index) - net.reaches_sink(T) - {S}
        raise Infeasible(f"circulation infeasible (short by {need - got})", cut=cut)
    return [net.flow_on(i) + a.lower for i, a in zip(ids, arcs)]
