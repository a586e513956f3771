"""Lorenz-dominant (leximin) lotteries over maximum-cardinality matchings.

Pipeline: Gallai-Edmonds decomposition, contraction of the factor-critical
components into pseudonodes, exact computation of the per-block coverage levels
λ (parametric min-cut), a feasible circulation fixing edge-inclusion
probabilities, a stochastic-matrix decomposition into matchings, expansion
back into full matchings, and an exact Carathéodory elimination
(simplexlp.caratheodory) that keeps linearly independent matchings with the
same marginals. Weighted variants (node weights, edge weights) reduce onto the
same engine by restricting removal vertices, admissible edges (one
maximum-weight perfect matching, its dual potentials and the
Dulmage-Mendelsohn alternating cycles of a doubled bipartite graph), and
forced ("must-match") pseudonodes. Fixed cardinality runs on fair's
column-generation engine (leximin level fixing), priced by perfect matchings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

from .core import (
    Cycle,
    FairkepError,
    KepInstance,
    Lottery,
    Packing,
)
from .fair import RestrictedMaster, leximin_lottery
from .flows import Arc, _MaxFlow, feasible_circulation
from .matching import (
    Edge,
    GallaiEdmonds,
    UGraph,
    bipartite_admissible_subgraph,
    gallai_edmonds,
    lex_weights,
    matching_number,
    matching_weight,
    max_weight_matching,
    norm_edge,
    perfect_matching,
)
from .simplexlp import caratheodory
# perfbench/tracing.py looks this name up on the module
from .simplexlp import lp_solve_exact  # noqa: F401

ZERO = Fraction(0)
ONE = Fraction(1)


class PerfectMatchingExists(FairkepError):
    """The graph is perfectly matchable: the lottery degenerates to one matching."""


class NotStochastic(FairkepError):
    pass


class CardinalityOutOfRange(FairkepError):
    pass


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pseudo:
    """A contracted factor-critical component.

    removal lists the vertices allowed to be the uncovered one when the
    component is not matched externally; an empty removal list marks a
    must-match pseudonode.
    """

    pid: int
    members: tuple[int, ...]
    removal: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def sigma(self) -> int:
        return len(self.removal)

    @property
    def must_match(self) -> bool:
        return not self.removal


@dataclass(frozen=True)
class ContractedBipartite:
    """Bipartite graph A(G) × pseudonodes with attach vertices per edge."""

    left: tuple[int, ...]
    pseudos: tuple[Pseudo, ...]
    edges: frozenset[tuple[int, int]]  # (left vertex, pid)
    attach: Mapping[tuple[int, int], tuple[int, ...]]

    def neighbors_of_pid(self, pid: int) -> frozenset[int]:
        return frozenset(u for (u, z) in self.edges if z == pid)

    def pseudo(self, pid: int) -> Pseudo:
        return self.pseudos[pid]


def contract(graph: UGraph, ge: Optional[GallaiEdmonds] = None) -> ContractedBipartite:
    """Contract each factor-critical component of D(G) to a pseudonode.

    Edges between A(G) vertices are dropped, parallel edges collapsed; the
    original endpoints inside each component are kept as attach candidates.
    """
    if ge is None:
        ge = gallai_edmonds(graph)
    pseudos = tuple(
        Pseudo(pid=i, members=tuple(sorted(comp)), removal=tuple(sorted(comp)))
        for i, comp in enumerate(ge.components_D)
    )
    member_pid = {v: p.pid for p in pseudos for v in p.members}
    edges = set()
    attach: dict[tuple[int, int], list[int]] = {}
    for (a, b) in graph.edges:
        for u, x in ((a, b), (b, a)):
            if u in ge.A and x in ge.D:
                key = (u, member_pid[x])
                edges.add(key)
                attach.setdefault(key, []).append(x)
    return ContractedBipartite(
        left=tuple(sorted(ge.A)),
        pseudos=pseudos,
        edges=frozenset(edges),
        attach={k: tuple(sorted(v)) for k, v in attach.items()},
    )


# ---------------------------------------------------------------------------
# blocks and λ
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    S_A: frozenset[int]
    S_D: frozenset[int]
    lambda_value: Fraction


@dataclass(frozen=True)
class Peel:
    left: frozenset[int]
    pids: frozenset[int]       # pseudonodes taking coverage level lam
    must_pids: frozenset[int]  # must-match pseudonodes removed alongside
    lam: Fraction


@dataclass(frozen=True)
class BlockPartition:
    cb: ContractedBipartite
    peels: tuple[Peel, ...]

    def lambda_of(self) -> dict[int, Fraction]:
        """Coverage level per pseudonode id (must-match nodes are at 1)."""
        out: dict[int, Fraction] = {}
        for peel in self.peels:
            for pid in peel.pids:
                out[pid] = peel.lam
            for pid in peel.must_pids:
                out[pid] = ONE
        return out


def _demand(p: Pseudo, lam: Fraction) -> Fraction:
    if p.must_match:
        return ONE
    d = p.sigma * lam - (p.sigma - 1)
    return d if d > 0 else ZERO


def _tight_lambda(pseudos: Sequence[Pseudo], capacity: int) -> Fraction:
    """Largest λ with Σ_z demand_z(λ) = capacity over the given pseudonodes.

    Piecewise-linear in λ with kinks at 1 - 1/σ; solved exactly segment by
    segment.
    """
    musts = sum(1 for p in pseudos if p.must_match)
    opts = sorted((p for p in pseudos if not p.must_match), key=lambda p: p.sigma)
    cap = Fraction(capacity - musts)
    kinks = sorted({Fraction(p.sigma - 1, p.sigma) for p in opts})
    active: list[Pseudo] = []
    rest = list(opts)
    best = ONE
    for k, kink in enumerate(kinks):
        while rest and Fraction(rest[0].sigma - 1, rest[0].sigma) <= kink:
            active.append(rest.pop(0))
        # on [kink, next kink): demand = Σ_active (σλ - σ + 1)
        a = sum(p.sigma for p in active)
        b = sum(p.sigma - 1 for p in active)
        if a == 0:
            continue
        lam = (cap + b) / a
        hi = kinks[k + 1] if k + 1 < len(kinks) else ONE
        if kink <= lam <= hi:
            best = min(best, lam)
    return min(best, ONE)


def lambda_star(
    cb: ContractedBipartite,
    rem_left: Optional[frozenset[int]] = None,
    rem_pids: Optional[frozenset[int]] = None,
) -> tuple[Fraction, Block]:
    """Exact minimum coverage ratio over pseudonode subsets, with the maximal tight block.

    λ = min over sets S of (|N(S)| - #musts(S) + Σ_{z∈S}(σ_z - 1)) / Σ_{z∈S} σ_z,
    capped at 1. Computed by Dinkelbach iteration over exact min-cuts rather
    than by enumerating neighborhood classes, because the minimizing set need
    not share a single neighborhood.
    """
    if rem_left is None:
        rem_left = frozenset(cb.left)
    if rem_pids is None:
        rem_pids = frozenset(p.pid for p in cb.pseudos)
    pseudos = [cb.pseudo(pid) for pid in sorted(rem_pids)]
    neigh = {
        p.pid: cb.neighbors_of_pid(p.pid) & rem_left for p in pseudos
    }
    optionals = [p for p in pseudos if not p.must_match]
    if not optionals:
        return ONE, Block(rem_left, rem_pids, ONE)

    def tight_set(lam: Fraction) -> tuple[Fraction, frozenset[int]]:
        """min over S of |N(S)| - Σ demand(λ), with the maximal minimizing S."""
        net = _MaxFlow()
        total = ZERO
        src, snk = ("s",), ("t",)
        for p in pseudos:
            d = _demand(p, lam)
            if d > 0:
                net.add(src, ("z", p.pid), d)
                total += d
                for u in neigh[p.pid]:
                    net.add(("z", p.pid), ("u", u), Fraction(10**30))
        for u in rem_left:
            net.add(("u", u), snk, ONE)
        flow = net.run(src, snk)
        # maximal source side of a min cut: complement of nodes reaching the sink
        can_reach = _reaches_sink(net, snk)
        S = frozenset(
            p.pid for p in pseudos if _demand(p, lam) > 0 and ("z", p.pid) not in can_reach
        )
        return flow - total, S

    lam = ONE
    while True:
        h, S = tight_set(lam)
        if h >= 0:
            break
        members = [cb.pseudo(pid) for pid in S]
        capacity = len(frozenset().union(*(neigh[pid] for pid in S)) if S else frozenset())
        new_lam = _tight_lambda(members, capacity)
        if new_lam >= lam:
            raise FairkepError(f"ratio stalled at λ={lam}: must-match pseudonodes unmatchable")
        lam = new_lam
    if lam >= 1:
        return ONE, Block(rem_left, rem_pids, ONE)
    _, S = tight_set(lam)
    # pull in boundary pseudonodes (demand exactly 0 at λ) stranded inside the block
    S_A = frozenset().union(*(neigh[pid] for pid in S)) if S else frozenset()
    extra = {
        p.pid
        for p in optionals
        if p.pid not in S and _demand(p, lam) == 0
        and lam == Fraction(p.sigma - 1, p.sigma) and neigh[p.pid] <= S_A
    }
    S = frozenset(S | extra)
    musts = frozenset(p.pid for p in pseudos if p.must_match and neigh[p.pid] <= S_A)
    return lam, Block(S_A, S | musts, lam)


def _reaches_sink(net: _MaxFlow, sink) -> set:
    """Nodes with a residual path to the sink."""
    rev: dict = {}
    for i, head in enumerate(net.to):
        if net.cap[i] > 0:
            rev.setdefault(head, []).append(net.to[i ^ 1])
    seen = {sink}
    stack = [sink]
    while stack:
        v = stack.pop()
        for u in rev.get(v, []):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def peel_blocks(cb: ContractedBipartite) -> BlockPartition:
    """Iteratively remove minimum-ratio blocks; λ values strictly increase."""
    rem_left = frozenset(cb.left)
    rem_pids = frozenset(p.pid for p in cb.pseudos)
    peels: list[Peel] = []
    prev = Fraction(-1)
    while rem_pids:
        lam, block = lambda_star(cb, rem_left, rem_pids)
        musts = frozenset(pid for pid in block.S_D if cb.pseudo(pid).must_match)
        if lam >= 1:
            peel = Peel(rem_left, frozenset(rem_pids - musts), musts, ONE)
            rem_left, rem_pids = frozenset(), frozenset()
        else:
            peel = Peel(block.S_A, frozenset(block.S_D - musts), musts, lam)
            rem_left = rem_left - block.S_A
            rem_pids = rem_pids - block.S_D
        if peel.lam <= prev:
            raise FairkepError(f"peel λ values must strictly increase: {prev} then {peel.lam}")
        prev = peel.lam
        peels.append(peel)
    if rem_left:
        raise FairkepError("left vertices remained after peeling")
    return BlockPartition(cb=cb, peels=tuple(peels))


# ---------------------------------------------------------------------------
# circulation and cover matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverMatrix:
    """Row-stochastic edge-inclusion probabilities over A(G) × pseudonodes."""

    rows: tuple[int, ...]           # left vertices
    cols: tuple[int, ...]           # pids
    entries: Mapping[tuple[int, int], Fraction]
    col_demand: Mapping[int, Fraction]

    def row_sum(self, u: int) -> Fraction:
        return sum((v for (r, _), v in self.entries.items() if r == u), ZERO)

    def col_sum(self, z: int) -> Fraction:
        return sum((v for (_, c), v in self.entries.items() if c == z), ZERO)


def cover_matrix(partition: BlockPartition) -> CoverMatrix:
    """Edge-inclusion probabilities p_{uz}: rows sum to 1, column z sums to its demand."""
    cb = partition.cb
    lam_of = partition.lambda_of()
    demands = {
        p.pid: (ONE if p.must_match else _demand(p, lam_of[p.pid])) for p in cb.pseudos
    }
    arcs = [Arc("source", ("u", u), ONE, ONE) for u in cb.left]
    edge_list = sorted(cb.edges)
    arcs += [Arc(("u", u), ("z", z), ZERO, ONE) for (u, z) in edge_list]
    for p in cb.pseudos:
        arcs.append(Arc(("z", p.pid), "sink", demands[p.pid], demands[p.pid]))
    arcs.append(Arc("sink", "source"))
    flows = feasible_circulation(arcs)
    base = len(cb.left)
    entries = {
        e: flows[base + i] for i, e in enumerate(edge_list) if flows[base + i] > 0
    }
    return CoverMatrix(
        rows=cb.left,
        cols=tuple(p.pid for p in cb.pseudos),
        entries=entries,
        col_demand=demands,
    )


def decompose_matrix(cover: CoverMatrix) -> list[tuple[dict[int, int], Fraction]]:
    """Write P as Σ p_k M_k with M_k bipartite matchings covering every row.

    Decrementing-set construction: each step finds a matching covering all rows
    and all currently tight columns, then removes as much probability mass as
    possible without breaking row equality or column feasibility.
    """
    rows = list(cover.rows)
    P = {e: Fraction(v) for e, v in cover.entries.items() if v > 0}
    for u in rows:
        s = sum((v for (r, _), v in P.items() if r == u), ZERO)
        if s != 1:
            raise NotStochastic(f"row {u} sums to {s}")
    for z in cover.cols:
        s = sum((v for (_, c), v in P.items() if c == z), ZERO)
        if s > 1:
            raise NotStochastic(f"column {z} sums to {s} > 1")
    if not rows:
        return [({}, ONE)]
    t = ONE
    out: list[tuple[dict[int, int], Fraction]] = []
    while t > 0:
        colsum: dict[int, Fraction] = {}
        for (_, z), v in P.items():
            colsum[z] = colsum.get(z, ZERO) + v
        tight = {z for z, s in colsum.items() if s == t}
        arcs = [Arc("s", ("u", u), ONE, ONE) for u in rows]
        arcs += [Arc(("u", u), ("z", z), ZERO, ONE) for (u, z) in sorted(P)]
        seen_cols = sorted(colsum)
        for z in seen_cols:
            low = ONE if z in tight else ZERO
            arcs.append(Arc(("z", z), "t", low, ONE))
        arcs.append(Arc("t", "s"))
        flows = feasible_circulation(arcs)
        M = {
            e[0]: e[1]
            for e, f in zip(sorted(P), flows[len(rows):len(rows) + len(P)])
            if f == 1
        }
        delta = min(P[(u, z)] for u, z in M.items())
        used_cols = set(M.values())
        for z, s in colsum.items():
            if z not in used_cols:
                delta = min(delta, t - s)
        delta = min(delta, t)
        if delta <= 0:
            raise NotStochastic(f"decomposition step of mass {delta} at remaining mass {t}")
        out.append((dict(M), delta))
        for u, z in M.items():
            P[(u, z)] -= delta
            if P[(u, z)] == 0:
                del P[(u, z)]
        t -= delta
    # exact reconstruction check
    recon: dict[tuple[int, int], Fraction] = {}
    for M, p in out:
        for u, z in M.items():
            recon[(u, z)] = recon.get((u, z), ZERO) + p
    if recon != {e: v for e, v in cover.entries.items() if v > 0}:
        raise FairkepError("decomposition does not reconstruct the cover matrix")
    return out


# ---------------------------------------------------------------------------
# end-to-end engine
# ---------------------------------------------------------------------------

@dataclass
class LeximinSolution:
    """A solved leximin lottery over matchings of an undirected graph."""

    graph: UGraph
    cb: ContractedBipartite
    partition: BlockPartition
    cover: CoverMatrix
    decomposition: list[tuple[dict[int, int], Fraction]]
    c_matching: frozenset[Edge]
    support: list[tuple[frozenset[Edge], Fraction]]
    marginals: dict[int, Fraction]
    perfect: bool = False

    def check(self) -> None:
        """Recompute marginals from the support and compare with the formula."""
        q = {v: ZERO for v in self.graph.vertices}
        total = ZERO
        for edges, p in self.support:
            total += p
            for (a, b) in edges:
                q[a] += p
                q[b] += p
        assert total == 1
        assert q == self.marginals, (q, self.marginals)


class _Internals:
    """Cached (maximum-weight) perfect matchings inside subsets of the graph."""

    def __init__(self, graph: UGraph, weights: Optional[Mapping[Edge, Fraction]]):
        self.graph = graph
        self.weights = weights
        self.cache: dict[frozenset[int], frozenset[Edge]] = {}

    def pm(self, vertices: frozenset[int]) -> frozenset[Edge]:
        key = frozenset(vertices)
        if key not in self.cache:
            sub = self.graph.induced(key)
            if self.weights is None:
                m = perfect_matching(sub)
            else:
                m = max_weight_matching(sub, self.weights, maxcardinality=True)
                if 2 * len(m) != len(key):
                    raise FairkepError("expected a perfect matching inside component")
            self.cache[key] = frozenset(m)
        return self.cache[key]


def _marginals_from_partition(
    graph: UGraph, cb: ContractedBipartite, partition: BlockPartition
) -> dict[int, Fraction]:
    q = {v: ONE for v in graph.vertices}
    lam_of = partition.lambda_of()
    for p in cb.pseudos:
        lam = lam_of[p.pid]
        for v in p.removal:
            q[v] = lam
    return q


def _assemble_support(
    cb: ContractedBipartite,
    decomposition: list[tuple[dict[int, int], Fraction]],
    c_matching: frozenset[Edge],
    internals: _Internals,
) -> list[tuple[frozenset[Edge], Fraction]]:
    support: dict[frozenset[Edge], Fraction] = {}
    for M, prob in decomposition:
        matched = set(M.values())
        base: set[Edge] = set(c_matching)
        for u, pid in M.items():
            x = cb.attach[(u, pid)][0]
            base.add(norm_edge(u, x))
            z = cb.pseudo(pid)
            base |= internals.pm(frozenset(z.members) - {x})
        unmatched = [cb.pseudo(pid) for pid in sorted(
            p.pid for p in cb.pseudos if p.pid not in matched
        )]
        for z in unmatched:
            if z.must_match:
                raise FairkepError(f"must-match pseudonode {z.pid} left unmatched")
        L = lcm(*(z.sigma for z in unmatched))
        slice_p = prob / L
        for j in range(L):
            edges = set(base)
            for z in unmatched:
                r = z.removal[j % z.sigma]
                edges |= internals.pm(frozenset(z.members) - {r})
            key = frozenset(edges)
            support[key] = support.get(key, ZERO) + slice_p
    return [(edges, p) for edges, p in sorted(support.items(), key=lambda kv: sorted(kv[0])) if p > 0]


def sparsify_support(
    support: list[tuple[frozenset[Edge], Fraction]], vertices: Sequence[int]
) -> list[tuple[frozenset[Edge], Fraction]]:
    """Reduce the support to linearly independent matchings, marginals unchanged.

    simplexlp.caratheodory eliminates over the coverage vectors of the given
    vertices (with total probability), so at most |vertices| + 1 matchings are
    kept and every per-vertex coverage probability stays exactly the same.
    """
    if len(support) <= 1:
        return support
    verts = set(vertices)
    covers = [{x for e in edges for x in e} & verts for edges, _ in support]
    weights = caratheodory(covers, [p for _, p in support])
    return [(edges, p) for (edges, _), p in zip(support, weights) if p > 0]


def _solve_engine(
    graph: UGraph,
    cb: ContractedBipartite,
    weights: Optional[Mapping[Edge, Fraction]],
    c_vertices: frozenset[int],
) -> LeximinSolution:
    internals = _Internals(graph, weights)
    c_matching = internals.pm(c_vertices) if c_vertices else frozenset()
    partition = peel_blocks(cb)
    cover = cover_matrix(partition)
    decomposition = decompose_matrix(cover)
    support = _assemble_support(cb, decomposition, c_matching, internals)
    marginals = _marginals_from_partition(graph, cb, partition)
    support = sparsify_support(support, sorted(graph.vertices))
    return LeximinSolution(
        graph=graph,
        cb=cb,
        partition=partition,
        cover=cover,
        decomposition=decomposition,
        c_matching=c_matching,
        support=support,
        marginals=marginals,
    )


def leximin_lottery_graph(graph: UGraph) -> LeximinSolution:
    """Leximin (Lorenz-dominant) lottery over maximum-cardinality matchings."""
    ge = gallai_edmonds(graph)
    if not ge.D:
        internals = _Internals(graph, None)
        pm = internals.pm(frozenset(graph.vertices)) if graph.vertices else frozenset()
        cb = ContractedBipartite(left=(), pseudos=(), edges=frozenset(), attach={})
        return LeximinSolution(
            graph=graph,
            cb=cb,
            partition=BlockPartition(cb=cb, peels=()),
            cover=CoverMatrix(rows=(), cols=(), entries={}, col_demand={}),
            decomposition=[({}, ONE)],
            c_matching=pm,
            support=[(pm, ONE)],
            marginals={v: ONE for v in graph.vertices},
            perfect=True,
        )
    cb = contract(graph, ge)
    return _solve_engine(graph, cb, None, frozenset(ge.C))


def sample_matching(solution: LeximinSolution, seed: int) -> frozenset[Edge]:
    """Sample one maximum matching; frequencies converge to the lottery marginals."""
    rng = random.Random(seed)
    cb = solution.cb
    den = lcm(*(p.denominator for _, p in solution.decomposition))
    draw = rng.randrange(den)
    acc = 0
    chosen = solution.decomposition[-1][0]
    for M, p in solution.decomposition:
        acc += int(p * den)
        if draw < acc:
            chosen = M
            break
    internals = _Internals(solution.graph, None)
    edges: set[Edge] = set(solution.c_matching)
    matched = set(chosen.values())
    for u, pid in chosen.items():
        x = rng.choice(cb.attach[(u, pid)])
        edges.add(norm_edge(u, x))
        z = cb.pseudo(pid)
        edges |= internals.pm(frozenset(z.members) - {x})
    for p in cb.pseudos:
        if p.pid in matched:
            continue
        r = p.removal[rng.randrange(p.sigma)]
        edges |= internals.pm(frozenset(p.members) - {r})
    return frozenset(edges)


# ---------------------------------------------------------------------------
# instance-level entry points
# ---------------------------------------------------------------------------

def _undirected_projection(instance: KepInstance) -> UGraph:
    return UGraph.of(instance.pairs, instance.undirected_edges())


def _undirected_weights(instance: KepInstance) -> dict[Edge, Fraction]:
    out = {}
    for (u, v) in instance.undirected_edges():
        out[(u, v)] = Fraction(instance.arcs[(u, v)]) + Fraction(instance.arcs[(v, u)])
    return out


def _edges_to_packing(edges: frozenset[Edge]) -> Packing:
    return Packing(frozenset(Cycle((u, v)) for (u, v) in edges))


def _support_to_lottery(support) -> Lottery:
    return Lottery(tuple((_edges_to_packing(e), p) for e, p in support))


def leximin_matching_lottery(instance: KepInstance) -> Lottery:
    """Algorithm for the fair lottery over maximum-cardinality 2-cycle packings."""
    sol = leximin_lottery_graph(_undirected_projection(instance))
    return _support_to_lottery(sol.support)


def node_weight_leximin(
    instance: KepInstance, node_weights: Optional[Mapping[int, Fraction]] = None
) -> Lottery:
    """Leximin lottery over maximum-node-weight maximum matchings.

    The weight of the covered set decomposes over matching edges as
    w(u) + w(v), so this is exactly the edge-weight problem with derived
    weights.
    """
    if node_weights is None:
        node_weights = instance.node_weights
    w = {v: Fraction(node_weights.get(v, 0)) for v in instance.pairs}
    graph = _undirected_projection(instance)
    derived = {e: w[e[0]] + w[e[1]] for e in graph.edges}
    sol = edge_weight_solution(graph, derived)
    return _support_to_lottery(sol.support)


def edge_weight_reduction(
    instance: KepInstance, edge_weights: Optional[Mapping[Edge, Fraction]] = None
) -> Lottery:
    """Leximin lottery over maximum-weight maximum-cardinality matchings.

    A doubled bipartite graph over the contraction encodes the choice between
    matching a pseudonode externally (weight tier s_z plus the best attachment
    weight) and leaving it internally matched (tier 2(s_z-1) plus twice the
    best internal weight). Admissible edges of that graph restrict the engine.
    """
    graph = _undirected_projection(instance)
    weights = (
        {norm_edge(*e): Fraction(wv) for e, wv in edge_weights.items()}
        if edge_weights is not None
        else _undirected_weights(instance)
    )
    sol = edge_weight_solution(graph, weights)
    return _support_to_lottery(sol.support)


def edge_weight_solution(graph: UGraph, weights: Mapping[Edge, Fraction]) -> LeximinSolution:
    ge = gallai_edmonds(graph)
    if not ge.D:
        internals = _Internals(graph, weights)
        pm = internals.pm(frozenset(graph.vertices)) if graph.vertices else frozenset()
        cb = ContractedBipartite(left=(), pseudos=(), edges=frozenset(), attach={})
        return LeximinSolution(
            graph=graph, cb=cb, partition=BlockPartition(cb=cb, peels=()),
            cover=CoverMatrix(rows=(), cols=(), entries={}, col_demand={}),
            decomposition=[({}, ONE)], c_matching=pm, support=[(pm, ONE)],
            marginals={v: ONE for v in graph.vertices}, perfect=True,
        )
    cb = contract(graph, ge)
    # best internal (near-perfect) weight and eligible removal vertices per component
    w_best: dict[int, Fraction] = {}
    removal: dict[int, tuple[int, ...]] = {}
    pm_val: dict[tuple[int, int], Optional[Fraction]] = {}

    def best_pm(pid: int, without: int) -> Optional[Fraction]:
        key = (pid, without)
        if key not in pm_val:
            z = cb.pseudo(pid)
            sub = graph.induced(frozenset(z.members) - {without})
            m = max_weight_matching(sub, weights, maxcardinality=True)
            pm_val[key] = (
                matching_weight(m, weights) if 2 * len(m) == z.size - 1 else None
            )
        return pm_val[key]

    for p in cb.pseudos:
        vals = {x: best_pm(p.pid, x) for x in p.members}
        w_best[p.pid] = max(v for v in vals.values() if v is not None)
        removal[p.pid] = tuple(x for x in p.members if vals[x] == w_best[p.pid])

    # attachment weights w(u,z) and the attach vertices achieving them
    wuz: dict[tuple[int, int], Fraction] = {}
    best_attach: dict[tuple[int, int], tuple[int, ...]] = {}
    for (u, pid) in sorted(cb.edges):
        cands = {}
        for x in cb.attach[(u, pid)]:
            inner = best_pm(pid, x)
            if inner is not None:
                cands[x] = Fraction(weights[norm_edge(u, x)]) + inner
        wuz[(u, pid)] = max(cands.values())
        best_attach[(u, pid)] = tuple(
            sorted(x for x, v in cands.items() if v == wuz[(u, pid)])
        )

    # doubled bipartite graph H over two copies of the contraction
    a1 = {u: ("A1", u) for u in cb.left}
    a2 = {u: ("A2", u) for u in cb.left}
    z1 = {p.pid: ("Z1", p.pid) for p in cb.pseudos}
    z2 = {p.pid: ("Z2", p.pid) for p in cb.pseudos}
    h_vertices = list(a1.values()) + list(a2.values()) + list(z1.values()) + list(z2.values())
    tiers: dict[Edge, tuple[Fraction, Fraction]] = {}
    for (u, pid) in cb.edges:
        s = Fraction(cb.pseudo(pid).size)
        tiers[norm_edge(a1[u], z2[pid])] = (s, wuz[(u, pid)])
        tiers[norm_edge(a2[u], z1[pid])] = (s, wuz[(u, pid)])
    for p in cb.pseudos:
        tiers[norm_edge(z1[p.pid], z2[p.pid])] = (
            Fraction(2 * (p.size - 1)),
            2 * w_best[p.pid],
        )
    H = UGraph.of(h_vertices, tiers.keys())
    adm = bipartite_admissible_subgraph(H, lex_weights(tiers, len(h_vertices)))

    adm_edges = {
        (u, pid) for (u, pid) in cb.edges if norm_edge(a1[u], z2[pid]) in adm
    }
    pseudos = tuple(
        Pseudo(
            pid=p.pid,
            members=p.members,
            removal=removal[p.pid] if norm_edge(z1[p.pid], z2[p.pid]) in adm else (),
        )
        for p in cb.pseudos
    )
    cb2 = ContractedBipartite(
        left=cb.left,
        pseudos=pseudos,
        edges=frozenset(adm_edges),
        attach={e: best_attach[e] for e in adm_edges},
    )
    return _solve_engine(graph, cb2, weights, frozenset(ge.C))


# ---------------------------------------------------------------------------
# fixed cardinality (fair's column-generation engine, matching pricer)
# ---------------------------------------------------------------------------

def fixed_cardinality_reduction(
    instance: KepInstance,
    edge_weights: Optional[Mapping[Edge, Fraction]] = None,
    mu: Optional[int] = None,
) -> Lottery:
    """Leximin lottery over maximum-weight matchings of exactly mu edges.

    Pricing solves a perfect-matching problem on the graph augmented with
    |V| - 2·mu dummy vertices absorbing the uncovered ones; the lottery itself
    is built by fair's exact column generation with iterative leximin level
    fixing.
    """
    if mu is None:
        raise ValueError("mu is required")
    graph = _undirected_projection(instance)
    weights = (
        {norm_edge(*e): Fraction(wv) for e, wv in edge_weights.items()}
        if edge_weights is not None
        else _undirected_weights(instance)
    )
    nu = matching_number(graph)
    if not (0 <= 2 * mu >= nu and mu <= nu):
        raise CardinalityOutOfRange(f"need ν/2 <= mu <= ν, got mu={mu}, ν={nu}")
    n = len(graph.vertices)
    dummies = [-(i + 1) for i in range(n - 2 * mu)]
    w_star: list[Optional[Fraction]] = [None]

    def pricing(prices: Mapping[int, Fraction]) -> tuple[Packing, Fraction]:
        verts = set(graph.vertices) | set(dummies)
        tiers: dict[Edge, tuple[Fraction, Fraction]] = {}
        for e in graph.edges:
            u, v = e
            tiers[e] = (
                Fraction(weights.get(e, 0)),
                Fraction(prices.get(u, 0)) + Fraction(prices.get(v, 0)),
            )
        for dv in dummies:
            for v in graph.vertices:
                tiers[norm_edge(dv, v)] = (ZERO, ZERO)
        big = UGraph.of(verts, tiers.keys())
        m = max_weight_matching(big, lex_weights(tiers, len(verts)), maxcardinality=True)
        if 2 * len(m) != len(verts):
            raise CardinalityOutOfRange(f"no matching with exactly {mu} edges exists")
        real = frozenset(e for e in m if e[0] >= 0 and e[1] >= 0)
        if len(real) != mu:
            raise FairkepError(f"pricing matched {len(real)} real edges, not {mu}")
        value = matching_weight(real, weights)
        if w_star[0] is None:
            w_star[0] = value
        if value != w_star[0]:
            raise FairkepError(f"pricing left the max-weight level: {value} after {w_star[0]}")
        packing = _edges_to_packing(real)
        return packing, sum((prices.get(x, 0) for x in packing.covered), ZERO)

    seed, _ = pricing({})
    # the matching pricer stays rational, so every master LP is exact
    master = RestrictedMaster(graph.vertices, pricing, exact=True, seed=seed)
    lottery, _, _ = leximin_lottery(master)
    return lottery
