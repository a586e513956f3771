"""Undirected matching kernel.

Maximum-cardinality matching via blossoms, Gallai-Edmonds decomposition,
weighted matching with exact rational weights, and the admissible edges of an
assignment problem (edges lying in some optimal assignment of every row, each
column left out earning a bonus) from one Hungarian solve, its exact dual
potentials and reachability over the tight edges.  Weighted matching runs
networkx on integer weights (the exact weights scaled by the lcm of their
denominators), so its dual arithmetic stays exact; networkx loads inside
max_weight_matching on its first call, and no other kernel here uses it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .core import FairkepError, integer_scaled
# perfbench/tracing.py looks this name up on the module
from .simplexlp import lp_solve_exact  # noqa: F401

Edge = tuple[int, int]


class NoPerfectMatching(FairkepError):
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
            if self.match[v] == -1 and self._find_path(v) is None:
                size += 1
        return size

    def _find_path(self, root: int) -> Optional[list[bool]]:
        """Augment along a path from exposed `root` and return None, or, when
        no augmenting path exists, return the outer (even) marks of its tree."""
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
                        return None
                    used[match[to]] = True
                    q.append(match[to])
        return used

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


def perfect_matching(graph: UGraph) -> set[Edge]:
    """A perfect matching; raises NoPerfectMatching if none exists."""
    m = max_matching(graph)
    if 2 * len(m) != len(graph.vertices):
        raise NoPerfectMatching(f"deficiency {len(graph.vertices) - 2 * len(m)}")
    return m


def gallai_edmonds(graph: UGraph) -> GallaiEdmonds:
    """Compute (D, A, C) by one blossom solve plus one search per exposed vertex.

    The matching is maximum, so no search from an exposed vertex augments, and
    D is the union of the outer (even) vertices of their search trees.
    """
    order, _, adj = _index(graph)
    n = len(order)
    solver = _Blossom(n, adj)
    nu = solver.solve()
    D: set[int] = set()
    for r in range(n):
        if solver.match[r] == -1:
            outer = solver._find_path(r)
            if outer is None:
                raise FairkepError("blossom matching is not maximum")
            D.update(order[i] for i in range(n) if outer[i])
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
        matching={order[i]: order[j] for i, j in enumerate(solver.match) if j != -1},
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
# weighted matching and assignment (integer-scaled exact weights)
# ---------------------------------------------------------------------------

def max_weight_matching(graph: UGraph, weights: Mapping[Edge, Fraction]) -> set[Edge]:
    """A matching of maximum weight (a missing weight is 0) among the
    maximum-cardinality ones."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    # on ints networkx's dual arithmetic stays exact (it halves others as floats)
    edges = list(graph.edges)
    w, _ = integer_scaled(Fraction(weights.get(e, 0)) for e in edges)
    g.add_edges_from((u, v, {"weight": x}) for (u, v), x in zip(edges, w))
    return {norm_edge(u, v) for (u, v) in nx.max_weight_matching(g, maxcardinality=True)}


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
    primary, _ = integer_scaled(Fraction(t1) for (t1, _) in tiers.values())
    max2 = max(abs(Fraction(t2)) for (_, t2) in tiers.values())
    scale = Fraction(1, int(n_vertices * max2) + 1)
    return {e: w1 + Fraction(t2) * scale for w1, (e, (_, t2)) in zip(primary, tiers.items())}


def bipartite_admissible_subgraph(
    rows: Sequence[Hashable], cols: Sequence[Hashable],
    weights: Mapping[tuple[Hashable, Hashable], Fraction], bonus: Mapping[Hashable, Fraction],
) -> tuple[set[tuple[Hashable, Hashable]], set[Hashable]]:
    """The edges and the left-out columns of the optimal row-covering assignments.

    An assignment gives every row its own column along an edge (a key (row,
    col) of weights) and is worth its edges' weights plus the bonus (default
    0) of each column it leaves out.  Returns the edges of the assignments of
    maximum worth and the columns they leave out; raises NoPerfectMatching
    when no assignment exists.

    One Hungarian solve (successive shortest paths; Kuhn 1955) on the integer-
    scaled costs bonus(c) - w(r, c) gives an optimal assignment M and integer
    potentials with u_r + v_c <= cost(r, c), v <= 0, and v = 0 on every column
    M leaves out.  By complementary slackness the optimal assignments are the
    row-covering matchings of tight edges that cover every column with v < 0;
    each differs from M by alternating cycles and by alternating paths
    between columns with v = 0.  In the digraph with an arc M(r) -> c per
    tight edge (r, c), an arc from each column M leaves out to a source s and
    one from s to each column with v = 0, a tight edge (r, c) is admissible
    iff c reaches M(r), and a column can be left out iff v = 0 and it reaches
    s (s reaches columns with v < 0 too, so its strongly connected component
    is not the test).
    """
    n, m = len(rows), len(cols)
    row_of = {r: i for i, r in enumerate(rows, 1)}
    col_of = {c: j for j, c in enumerate(cols, 1)}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    # integer costs keep the potentials integral
    cost, _ = integer_scaled(Fraction(bonus.get(c, 0)) - Fraction(w) for (_, c), w in weights.items())
    for (r, c), x in zip(weights, cost):
        adj[row_of[r]].append((col_of[c], x))
    # 1-based rows and columns; column 0 stands for the row being added
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    p = [0] * (m + 1)  # p[j]: the row matched to column j, 0 for none
    inf = float("inf")
    for i in range(1, n + 1):
        p[0], j0 = i, 0
        minv = [inf] * (m + 1)
        way = [0] * (m + 1)
        used = [False] * (m + 1)
        while p[j0]:
            used[j0] = True
            i0 = p[j0]
            for j, c in adj[i0]:
                if not used[j] and c - u[i0] - v[j] < minv[j]:
                    minv[j], way[j] = c - u[i0] - v[j], j0
            delta, j0 = min(((minv[j], j) for j in range(1, m + 1) if not used[j]), default=(inf, 0))
            if delta == inf:
                raise NoPerfectMatching(f"row {rows[i - 1]!r} cannot be assigned")
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
        while j0:
            p[j0] = p[way[j0]]
            j0 = way[j0]
    mine = {p[j]: j for j in range(1, m + 1) if p[j]}
    # node 0 is the source s
    succ = [[j for j in range(1, m + 1) if v[j] == 0]] + [[] if p[j] else [0] for j in range(1, m + 1)]
    # M's own edges are tight too: their arcs are loops, and they pass the test
    tight = [(i, j) for i in range(1, n + 1) for j, c in adj[i] if c == u[i] + v[j]]
    for i, j in tight:
        succ[mine[i]].append(j)
    reach = []
    for j in range(m + 1):
        seen, stack = {j}, [j]
        while stack:
            for k in succ[stack.pop()]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        reach.append(seen)
    return ({(rows[i - 1], cols[j - 1]) for i, j in tight if mine[i] in reach[j]},
            {cols[j - 1] for j in range(1, m + 1) if v[j] == 0 and 0 in reach[j]})
