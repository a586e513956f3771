"""Undirected matching kernel.

Maximum-cardinality matching via blossoms, Gallai-Edmonds decomposition,
weighted (perfect) matching with exact rational weights, and the admissible
edges of a bipartite graph (edges lying in some maximum-weight perfect
matching) from one optimal matching, its exact dual potentials and one
strongly-connected-components pass over the tight edges. Weighted matching
runs networkx on integer weights (the exact weights scaled by the lcm of their
denominators), so its dual arithmetic stays exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

import networkx as nx

from .core import FairkepError
# perfbench/tracing.py looks this name up on the module
from .simplexlp import lp_solve_exact  # noqa: F401

Edge = tuple[int, int]


class NoPerfectMatching(FairkepError):
    pass


class NotBipartite(FairkepError):
    pass


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class UGraph:
    """Simple undirected graph."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", frozenset(norm_edge(u, v) for u, v in self.edges)
        )
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")

    @staticmethod
    def of(vertices: Iterable[int], edges: Iterable[Edge]) -> "UGraph":
        return UGraph(frozenset(vertices), frozenset(edges))

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def without(self, removed: Iterable[int]) -> "UGraph":
        gone = set(removed)
        return UGraph.of(
            self.vertices - gone,
            {e for e in self.edges if e[0] not in gone and e[1] not in gone},
        )

    def induced(self, keep: Iterable[int]) -> "UGraph":
        return self.without(self.vertices - set(keep))


@dataclass(frozen=True)
class GallaiEdmonds:
    """Partition of the vertex set: D (missed by some maximum matching), A = N(D)∖D, C = rest."""

    D: frozenset[int]
    A: frozenset[int]
    C: frozenset[int]
    components_D: tuple[frozenset[int], ...]
    nu: int
    matching: dict[int, int]


class _Blossom:
    """Iterative blossom algorithm over an indexed adjacency list (O(V^3))."""

    def __init__(self, n: int, adj: list[list[int]]):
        self.n = n
        self.adj = adj
        self.match = [-1] * n

    def solve(self) -> int:
        size = 0
        for v in range(self.n):
            if self.match[v] == -1 and self._find_path(v):
                size += 1
        return size

    def _find_path(self, root: int, banned: int = -1) -> bool:
        n, adj, match = self.n, self.adj, self.match
        p = [-1] * n
        base = list(range(n))
        used = [False] * n
        used[root] = True
        q = deque([root])
        blossom = [False] * n

        def lca(a: int, b: int) -> int:
            seen = [False] * n
            while True:
                a = base[a]
                seen[a] = True
                if match[a] == -1:
                    break
                a = p[match[a]]
            while True:
                b = base[b]
                if seen[b]:
                    return b
                b = p[match[b]]

        def mark_path(v: int, b: int, child: int) -> None:
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        while q:
            v = q.popleft()
            for to in adj[v]:
                if to == banned:
                    continue
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        self._augment(to, p)
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    def _augment(self, v: int, p: list[int]) -> None:
        while v != -1:
            pv = p[v]
            nxt = self.match[pv]
            self.match[v] = pv
            self.match[pv] = v
            v = nxt


def _index(graph: UGraph) -> tuple[list[int], dict[int, int], list[list[int]]]:
    order = sorted(graph.vertices)
    idx = {v: i for i, v in enumerate(order)}
    adj: list[list[int]] = [[] for _ in order]
    for (u, v) in sorted(graph.edges):
        adj[idx[u]].append(idx[v])
        adj[idx[v]].append(idx[u])
    return order, idx, adj


def max_matching(graph: UGraph) -> set[Edge]:
    """A maximum-cardinality matching as a set of normalized edges."""
    order, _, adj = _index(graph)
    solver = _Blossom(len(order), adj)
    solver.solve()
    out = set()
    for i, j in enumerate(solver.match):
        if j > i:
            out.add(norm_edge(order[i], order[j]))
    return out


def matching_number(graph: UGraph) -> int:
    order, _, adj = _index(graph)
    return _Blossom(len(order), adj).solve()


def has_perfect_matching(graph: UGraph) -> bool:
    return len(graph.vertices) % 2 == 0 and 2 * matching_number(graph) == len(graph.vertices)


def perfect_matching(graph: UGraph) -> set[Edge]:
    """A perfect matching; raises NoPerfectMatching if none exists."""
    m = max_matching(graph)
    if 2 * len(m) != len(graph.vertices):
        raise NoPerfectMatching(f"deficiency {len(graph.vertices) - 2 * len(m)}")
    return m


def gallai_edmonds(graph: UGraph) -> GallaiEdmonds:
    """Compute (D, A, C) by one blossom solve plus a warm-started deletion test per vertex."""
    order, idx, adj = _index(graph)
    n = len(order)
    solver = _Blossom(n, adj)
    nu = solver.solve()
    opt = solver.match[:]
    D: set[int] = set()
    for i in range(n):
        if opt[i] == -1:
            D.add(order[i])
            continue
        j = opt[i]
        solver.match = opt[:]
        solver.match[i] = -1
        solver.match[j] = -1
        # nu(G - v) == nu(G) iff the freed partner can re-augment without v
        if solver._find_path(j, banned=i):
            D.add(order[i])
    solver.match = opt
    neigh_of_D: set[int] = set()
    adjmap = graph.adjacency()
    for v in D:
        neigh_of_D.update(adjmap[v])
    A = neigh_of_D - D
    C = graph.vertices - D - A
    components = _components(D, adjmap)
    ge = GallaiEdmonds(
        D=frozenset(D),
        A=frozenset(A),
        C=frozenset(C),
        components_D=tuple(sorted(components, key=min)) if components else (),
        nu=nu,
        matching={order[i]: order[j] for i, j in enumerate(opt) if j != -1},
    )
    if 2 * nu != len(graph.vertices) - len(ge.components_D) + len(A):
        raise FairkepError(f"Gallai-Edmonds count fails: ν={nu}, |A|={len(A)}")
    return ge


def _components(D: set[int], adjmap: dict[int, list[int]]) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps = []
    for v in sorted(D):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adjmap[u]:
                if w in D and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


# ---------------------------------------------------------------------------
# weighted matching (networkx kernel on integer-scaled exact weights)
# ---------------------------------------------------------------------------

def _int_weights(graph: UGraph, weights: Mapping[Edge, Fraction]) -> dict[Edge, int]:
    """Edge weights times the lcm of their denominators (missing weights are 0).

    A common positive scale keeps the same optimal matchings; integer weights
    keep networkx's dual arithmetic exact (non-int weights are halved as floats).
    """
    exact = {e: Fraction(weights.get(e, 0)) for e in graph.edges}
    scale = lcm(*(f.denominator for f in exact.values()))
    return {e: f.numerator * (scale // f.denominator) for e, f in exact.items()}


def _nx_graph(graph: UGraph, weights: Mapping[Edge, Fraction]) -> "nx.Graph":
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from((u, v, {"weight": w}) for (u, v), w in _int_weights(graph, weights).items())
    return g


def max_weight_matching(
    graph: UGraph, weights: Mapping[Edge, Fraction], maxcardinality: bool = False
) -> set[Edge]:
    g = _nx_graph(graph, weights)
    m = nx.max_weight_matching(g, maxcardinality=maxcardinality)
    return {norm_edge(u, v) for (u, v) in m}


def matching_weight(matching: Iterable[Edge], weights: Mapping[Edge, Fraction]) -> Fraction:
    return sum((Fraction(weights.get(norm_edge(*e), 0)) for e in matching), Fraction(0))


def lex_weights(
    tiers: Mapping[Edge, tuple[Fraction, Fraction]], n_vertices: int
) -> dict[Edge, Fraction]:
    """Collapse two-level lexicographic edge weights into one exact rational weight.

    Primary tier strictly dominates: denominators of the primary tier are
    cleared so its sums differ by >= 1 when they differ at all, then the
    secondary tier is scaled below that granularity.
    """
    if not tiers:
        return {}
    den = lcm(*(Fraction(t1).denominator for (t1, _) in tiers.values()))
    max2 = max((abs(Fraction(t2)) for (_, t2) in tiers.values()), default=Fraction(0))
    scale = Fraction(1, int(n_vertices * max2) + 1)
    return {e: Fraction(t1) * den + Fraction(t2) * scale for e, (t1, t2) in tiers.items()}


def bipartition(graph: UGraph) -> tuple[set[int], set[int]]:
    """Two-color the graph; raises NotBipartite on an odd cycle."""
    color: dict[int, int] = {}
    adj = graph.adjacency()
    for start in sorted(graph.vertices):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    raise NotBipartite(f"odd cycle through edge ({u},{w})")
    left = {v for v, c in color.items() if c == 0}
    return left, graph.vertices - left


def bipartite_admissible_subgraph(
    graph: UGraph, weights: Mapping[Edge, Fraction]
) -> set[Edge]:
    """Edges lying in some maximum-weight perfect matching of a bipartite graph.

    One maximum-weight perfect matching M fixes exact optimal dual potentials:
    y_r = w(M(r), r) - y_{M(r)}, and the left potentials are longest-path
    values (Bellman-Ford, on integer-scaled weights) in the exchange digraph
    with an arc M(r) -> l of gain w(l, r) - w(M(r), r) for each edge (l, r)
    not in M.  By complementary slackness the optimal perfect matchings are
    the perfect matchings of the tight subgraph, whatever optimal duals are
    used.  A tight edge (l, r) lies in one of them iff it is in M or on an
    M-alternating cycle (Dulmage-Mendelsohn), that is iff l and M(r) share a
    strongly connected component of the tight arcs.
    """
    left, _ = bipartition(graph)  # raises NotBipartite
    w = _int_weights(graph, weights)
    m = max_weight_matching(graph, w, maxcardinality=True)
    if 2 * len(m) != len(graph.vertices):
        raise NoPerfectMatching("bipartite graph has no perfect matching")
    mate = {}  # right vertex -> its left partner in M
    for (a, b) in m:
        l, r = (a, b) if a in left else (b, a)
        mate[r] = l
    arcs = []  # (M(r), l, gain, edge (l, r))
    for e in graph.edges - m:
        l, r = e if e[0] in left else (e[1], e[0])
        arcs.append((mate[r], l, w[e] - w[norm_edge(mate[r], r)], e))
    y = dict.fromkeys(left, 0)
    for _ in range(len(left) + 1):
        changed = False
        for (a, b, gain, _) in arcs:
            if y[a] + gain > y[b]:
                y[b] = y[a] + gain
                changed = True
        if not changed:
            break
    else:
        raise FairkepError("exchange digraph has a positive cycle: matching not optimal")
    tight = [(a, b, e) for (a, b, gain, e) in arcs if y[b] - y[a] == gain]
    digraph = nx.DiGraph((a, b) for (a, b, _) in tight)
    comp = {v: i for i, scc in enumerate(nx.strongly_connected_components(digraph)) for v in scc}
    return m | {e for (a, b, e) in tight if comp[a] == comp[b]}
