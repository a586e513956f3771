"""Lorenz-dominant (leximin) lotteries over maximum-cardinality matchings.

Pipeline: Gallai-Edmonds decomposition, contraction of the factor-critical
components into pseudonodes, exact computation of the per-block coverage levels
λ (parametric min-cut, one max flow per trial λ), one feasible circulation
fixing edge-inclusion probabilities, a Birkhoff-von Neumann decomposition of
that matrix into matchings by repairing one matching from step to step (no
further flows), expansion back into full matchings, and an exact Carathéodory elimination
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
from collections import Counter
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
from .flows import INF, Arc, _MaxFlow, feasible_circulation
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
    cap = capacity - sum(1 for p in pseudos if p.must_match)
    count = Counter(p.sigma for p in pseudos if not p.must_match)
    sigmas = sorted(count)
    best = ONE
    a = b = 0
    for k, sigma in enumerate(sigmas):
        # on [1 - 1/σ, next kink): demand = Σ_{σ' <= σ} (σ'λ - σ' + 1) = aλ - b
        a += sigma * count[sigma]
        b += (sigma - 1) * count[sigma]
        lam = Fraction(cap + b, a)
        hi = Fraction(sigmas[k + 1] - 1, sigmas[k + 1]) if k + 1 < len(sigmas) else ONE
        if Fraction(sigma - 1, sigma) <= lam <= hi:
            best = min(best, lam)
    return best


def lambda_star(
    cb: ContractedBipartite,
    rem_left: Optional[frozenset[int]] = None,
    rem_pids: Optional[frozenset[int]] = None,
) -> tuple[Fraction, Block]:
    """Exact minimum coverage ratio over pseudonode subsets, with the maximal tight block.

    λ = min over sets S of (|N(S)| - #musts(S) + Σ_{z∈S}(σ_z - 1)) / Σ_{z∈S} σ_z,
    capped at 1. Computed by Dinkelbach iteration over exact min-cuts rather
    than by enumerating neighborhood classes, because the minimizing set need
    not share a single neighborhood. Each trial λ costs one max flow; the min
    cut of the last trial is the block, so it is not solved again.
    """
    if rem_left is None:
        rem_left = frozenset(cb.left)
    if rem_pids is None:
        rem_pids = frozenset(p.pid for p in cb.pseudos)
    pseudos = [cb.pseudo(pid) for pid in sorted(rem_pids)]
    neigh: dict[int, set[int]] = {pid: set() for pid in rem_pids}
    for (u, pid) in cb.edges:
        if pid in neigh and u in rem_left:
            neigh[pid].add(u)
    optionals = [p for p in pseudos if not p.must_match]

    def tight_set(lam: Fraction) -> tuple[int, frozenset[int]]:
        """q·min over S of |N(S)| - Σ demand(λ), with the maximal minimizing S.

        For λ = a/q every capacity is scaled by q, so the flow runs on ints."""
        a, q = lam.numerator, lam.denominator
        net = _MaxFlow()
        total = 0
        src, snk = ("s",), ("t",)
        positive = []
        for p in pseudos:
            d = q if p.must_match else p.sigma * a - (p.sigma - 1) * q
            if d > 0:
                positive.append(p.pid)
                net.add(src, ("z", p.pid), d)
                total += d
                for u in neigh[p.pid]:
                    net.add(("z", p.pid), ("u", u), INF)
        for u in rem_left:
            net.add(("u", u), snk, q)
        flow = net.run(src, snk)
        # maximal source side of a min cut: complement of nodes reaching the sink
        can_reach = net.reaches_sink(snk)
        return flow - total, frozenset(pid for pid in positive if ("z", pid) not in can_reach)

    if not optionals:
        # λ is 1 once Hall's condition holds for the must-match pseudonodes
        if tight_set(ONE)[0] < 0:
            raise FairkepError("must-match pseudonodes unmatchable")
        return ONE, Block(rem_left, rem_pids, ONE)
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
    # S is the maximal tight set of the last tight_set(lam)
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


def cover_matrix(partition: BlockPartition) -> CoverMatrix:
    """Edge-inclusion probabilities p_{uz}: rows sum to 1, column z sums to its demand.

    The circulation runs on ints: every bound is scaled by the demands' lcm denominator D."""
    cb = partition.cb
    lam_of = partition.lambda_of()
    demands = {
        p.pid: (ONE if p.must_match else _demand(p, lam_of[p.pid])) for p in cb.pseudos
    }
    D = lcm(*(d.denominator for d in demands.values()))
    arcs = [Arc("source", ("u", u), D, D) for u in cb.left]
    edge_list = sorted(cb.edges)
    arcs += [Arc(("u", u), ("z", z), 0, D) for (u, z) in edge_list]
    for p in cb.pseudos:
        d = int(demands[p.pid] * D)
        arcs.append(Arc(("z", p.pid), "sink", d, d))
    arcs.append(Arc("sink", "source"))
    flows = feasible_circulation(arcs)
    base = len(cb.left)
    entries = {
        e: Fraction(flows[base + i], D) for i, e in enumerate(edge_list) if flows[base + i] > 0
    }
    return CoverMatrix(
        rows=cb.left,
        cols=tuple(p.pid for p in cb.pseudos),
        entries=entries,
        col_demand=demands,
    )


def decompose_matrix(cover: CoverMatrix) -> list[tuple[dict[int, int], Fraction]]:
    """Write P as Σ p_k M_k with M_k bipartite matchings covering every row.

    Birkhoff-von Neumann decomposition by matching repair (Budish, Che, Kojima
    & Milgrom, AER 2013). Masses are ints, scaled by the entries' common
    denominator D, and t is the mass still to write: every row sums to t and
    every column to at most t. One row→column matching on the positive
    entries is kept across steps and repaired at the start of each: the
    edges whose entry reached 0 have left it, augmenting paths from the
    exposed rows cover every row again, and an alternating path from each
    exposed tight column (sum t) to a covered column that is not tight covers
    the tight columns. Hall's condition on the scaled matrix makes both paths
    exist, so a failed search means P is not stochastic. The step then removes
    the largest mass δ that keeps every uncovered column at most t - δ.
    """
    rows = list(cover.rows)
    D = lcm(*(v.denominator for v in cover.entries.values()))
    P = {e: int(v * D) for e, v in cover.entries.items() if v > 0}
    rowsum = dict.fromkeys(rows, 0)
    colsum = dict.fromkeys(cover.cols, 0)
    cols_of: dict[int, list[int]] = {}
    rows_of: dict[int, list[int]] = {}
    for (u, z) in sorted(P):
        if u not in rowsum:
            raise NotStochastic(f"entry ({u}, {z}) lies outside the rows")
        v = P[(u, z)]
        rowsum[u] += v
        colsum[z] = colsum.get(z, 0) + v
        cols_of.setdefault(u, []).append(z)
        rows_of.setdefault(z, []).append(u)
    for u, s in rowsum.items():
        if s != D:
            raise NotStochastic(f"row {u} sums to {Fraction(s, D)}")
    for z, s in colsum.items():
        if s > D:
            raise NotStochastic(f"column {z} sums to {Fraction(s, D)} > 1")
    if not rows:
        return [({}, ONE)]
    match: dict[int, int] = {}  # row -> column
    owner: dict[int, int] = {}  # column -> row

    def cover_row(r: int) -> bool:
        """Augment along a shortest alternating path from exposed row r to an exposed column."""
        came: dict[int, int] = {}  # column -> the row it was reached from
        queue = [r]
        for u in queue:
            for z in cols_of[u]:
                if z in came or (u, z) not in P:
                    continue
                came[z] = u
                if z in owner:
                    queue.append(owner[z])
                    continue
                while True:
                    u = came[z]
                    old = match.get(u)
                    match[u], owner[z] = z, u
                    if u == r:
                        return True
                    z = old
        return False

    def cover_column(z0: int, t: int) -> bool:
        """Shift rows along a shortest alternating path from exposed column z0
        to a covered column that is not tight, which becomes exposed."""
        came: dict[int, int] = {}  # column -> the column its row moves to
        queue = [z0]
        for z in queue:
            for u in rows_of.get(z, ()):
                c = match[u]
                if c in came or (u, z) not in P:
                    continue
                came[c] = z
                if colsum[c] == t:
                    queue.append(c)
                    continue
                u = owner.pop(c)
                while c != z0:
                    z = came[c]
                    old = owner.get(z)
                    match[u], owner[z] = z, u
                    c, u = z, old
                return True
        return False

    t = D
    steps: list[tuple[dict[int, int], int]] = []
    while t > 0:
        for u in rows:
            if u not in match and not cover_row(u):
                raise NotStochastic(f"no matching covers row {u} at mass {Fraction(t, D)}")
        for z, s in colsum.items():
            if s == t and z not in owner and not cover_column(z, t):
                raise NotStochastic(f"no matching covers tight column {z} at mass {Fraction(t, D)}")
        delta = min(P[e] for e in match.items())
        for z, s in colsum.items():
            if z not in owner:
                delta = min(delta, t - s)
        if delta <= 0:
            # unreachable after a full repair; stops the loop on a broken one
            raise NotStochastic(f"decomposition step of mass {Fraction(delta, D)} at mass {Fraction(t, D)}")
        steps.append((dict(match), delta))
        for u, z in list(match.items()):
            colsum[z] -= delta
            P[(u, z)] -= delta
            if P[(u, z)] == 0:
                del P[(u, z)], match[u], owner[z]
        t -= delta
    out = [(M, Fraction(delta, D)) for M, delta in steps]
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
    # edge weights of a maximum-weight solution (None: cardinality only)
    weights: Optional[Mapping[Edge, Fraction]] = None
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
        if total != 1:
            raise FairkepError(f"support probabilities sum to {total}, not 1")
        if q != self.marginals:
            raise FairkepError(f"support marginals {q} differ from the formula's {self.marginals}")


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
        weights=weights,
    )


def _perfect_solution(
    graph: UGraph, weights: Optional[Mapping[Edge, Fraction]]
) -> LeximinSolution:
    """A graph with a perfect matching: one (maximum-weight) perfect matching."""
    pm = _Internals(graph, weights).pm(frozenset(graph.vertices)) if graph.vertices else frozenset()
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
        weights=weights,
        perfect=True,
    )


def leximin_lottery_graph(graph: UGraph) -> LeximinSolution:
    """Leximin (Lorenz-dominant) lottery over maximum-cardinality matchings."""
    ge = gallai_edmonds(graph)
    if not ge.D:
        return _perfect_solution(graph, None)
    return _solve_engine(graph, contract(graph, ge), None, frozenset(ge.C))


def sample_matching(solution: LeximinSolution, seed: int) -> frozenset[Edge]:
    """Sample one matching of the solution's family (maximum-weight when the
    solution carries weights); frequencies converge to the lottery marginals."""
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
    internals = _Internals(solution.graph, solution.weights)
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
        return _perfect_solution(graph, weights)
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
    *,
    mu: int,
) -> Lottery:
    """Leximin lottery over maximum-weight matchings of exactly mu edges.

    Pricing solves a perfect-matching problem on the graph augmented with
    |V| - 2·mu dummy vertices absorbing the uncovered ones; the lottery itself
    is built by fair's exact column generation with iterative leximin level
    fixing.
    """
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
    # dummy edges absorb the uncovered vertices; their (0, 0) tiers add
    # nothing to lex_weights' scale, so only the real edges are weighted
    dummy_edges = [norm_edge(dv, v) for dv in dummies for v in graph.vertices]
    big = UGraph.of(set(graph.vertices) | set(dummies), [*graph.edges, *dummy_edges])
    w_star: list[Optional[Fraction]] = [None]

    def pricing(prices: Mapping[int, Fraction]) -> tuple[Packing, Fraction]:
        tiers: dict[Edge, tuple[Fraction, Fraction]] = {}
        for e in graph.edges:
            u, v = e
            tiers[e] = (
                Fraction(weights.get(e, 0)),
                Fraction(prices.get(u, 0)) + Fraction(prices.get(v, 0)),
            )
        m = max_weight_matching(big, lex_weights(tiers, len(big.vertices)), maxcardinality=True)
        if 2 * len(m) != len(big.vertices):
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
