"""Lorenz-dominant (leximin) lotteries over maximum-cardinality matchings.

One frame, leximin_lottery_graph, runs every solver, unweighted,
edge-weighted and node-weighted: Gallai-Edmonds decomposition, contraction
of its factor-critical components into pseudonodes (none when the graph has
a perfect matching), one cache of the matchings inside them, exact per-block
coverage levels λ (one connected component at a time: Dinkelbach iteration
from its own ratio, a max flow and min cut per trial λ, none for a lone
pseudonode), one feasible circulation fixing edge-inclusion probabilities, a
Birkhoff-von Neumann decomposition of that matrix by repairing one matching
from step to step, expansion into full matchings, an exact Carathéodory
reduction to independent matchings (simplexlp.caratheodory: a forward
echelon over their coverage vectors, one exchange per dependent matching)
and a check of the marginals. Weights first restrict removal vertices,
admissible edges and forced ("must-match") pseudonodes by one assignment
solve over the contraction (exact Hungarian potentials, then alternating
cycles and paths over the tight edges). Edge weights take the inner weights
of that solve from maximum-weight inner matchings; node weights take them in
closed form, since every perfect matching of a vertex set weighs the sum of
its vertices' weights, and their inner matchings are unweighted. Fixed
cardinality runs on fair's column-generation engine (leximin level fixing),
priced by perfect matchings.
"""

from __future__ import annotations

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
    integer_scaled,
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
Neighbours = Mapping[int, set[int]]  # pseudonode id -> its left vertices still in play


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


def contract(graph: UGraph, ge: GallaiEdmonds) -> ContractedBipartite:
    """Contract each factor-critical component of D(G) to a pseudonode.

    Edges between A(G) vertices are dropped, parallel edges collapsed; the
    original endpoints inside each component are kept as attach candidates.
    """
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
class Peel:
    """A block of the contraction: its left vertices and pseudonodes, with λ."""

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


def _peel(cb: ContractedBipartite, left, pids, lam: Fraction) -> Peel:
    musts = frozenset(pid for pid in pids if cb.pseudo(pid).must_match)
    return Peel(frozenset(left), frozenset(pids) - musts, musts, lam)


def _tight_set(pseudos: Sequence[Pseudo], neigh: Neighbours, lam: Fraction) -> tuple[int, frozenset[int]]:
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
    for u in frozenset().union(*(neigh[pid] for pid in positive)):
        net.add(("u", u), snk, q)
    flow = net.run(src, snk)
    # maximal source side of a min cut: complement of nodes reaching the sink
    can_reach = net.reaches_sink(snk)
    return flow - total, frozenset(pid for pid in positive if ("z", pid) not in can_reach)


def _block(cb: ContractedBipartite, pseudos: Sequence[Pseudo], neigh: Neighbours, S: frozenset[int],
           lam: Fraction) -> Peel:
    """The block of the maximal tight set S at λ < 1: N(S) and S, with the pseudonodes
    stranded in N(S) that are must-match or on the boundary (demand exactly 0 at λ)."""
    S_A = frozenset().union(*(neigh[pid] for pid in S))
    stranded = {
        p.pid for p in pseudos
        if neigh[p.pid] <= S_A and (p.must_match or lam == Fraction(p.sigma - 1, p.sigma))
    }
    return _peel(cb, S_A, S | stranded, lam)


def _min_ratio_block(cb: ContractedBipartite, pseudos: Sequence[Pseudo], neigh: Neighbours,
                     left: frozenset[int]) -> Peel:
    """λ = min over S ⊆ pseudos of (|N(S)| - #musts(S) + Σ_S (σ_z - 1)) / Σ_S σ_z, capped at 1,
    with the maximal tight block (at λ = 1, every pseudonode given and `left`).

    Dinkelbach iteration from the ratio of all of `pseudos`, one max flow per
    trial λ, the last trial's min cut giving the block.  Must-match
    pseudonodes failing Hall's condition stall the ratio, and this raises.
    """
    lam = _tight_lambda(pseudos, len(frozenset().union(*(neigh[p.pid] for p in pseudos))))
    while True:
        h, S = _tight_set(pseudos, neigh, lam)
        if h >= 0:
            break
        capacity = len(frozenset().union(*(neigh[pid] for pid in S)))
        new_lam = _tight_lambda([cb.pseudo(pid) for pid in S], capacity)
        if new_lam >= lam:
            raise FairkepError(f"ratio stalled at λ={lam}: must-match pseudonodes unmatchable")
        lam = new_lam
    if lam >= 1:
        return _peel(cb, left, [p.pid for p in pseudos], ONE)
    return _block(cb, pseudos, neigh, S, lam)


def _component_blocks(cb: ContractedBipartite, pids: Sequence[int],
                      neigh: Neighbours) -> list[tuple[list[Pseudo], Peel]]:
    """Each connected component of the pseudonodes (joined through shared left
    vertices) with its minimum-ratio block; a lone pseudonode needs no flow."""
    out, todo = [], set(pids)
    while todo:
        comp, left, grow = set(), frozenset(), {min(todo)}
        while grow:
            comp |= grow
            todo -= grow
            left = left.union(*(neigh[pid] for pid in grow))
            grow = {pid for pid in todo if not left.isdisjoint(neigh[pid])}
        pseudos = [cb.pseudo(pid) for pid in sorted(comp)]
        if len(pseudos) > 1 or (pseudos[0].must_match and not left):  # the latter fails Hall's condition
            block = _min_ratio_block(cb, pseudos, neigh, left)
        else:  # a lone pseudonode: min(1, (|N(z)| + σ - 1)/σ), or 1 when it must match
            (p,) = pseudos
            lam = ONE if p.must_match else min(ONE, Fraction(len(left) + p.sigma - 1, p.sigma))
            block = _peel(cb, left, comp, lam)
        out.append((pseudos, block))
    return out


def peel_blocks(cb: ContractedBipartite) -> BlockPartition:
    """Remove minimum-ratio blocks, one connected component at a time; λ values strictly increase.

    The min cut is a sum over the components (Fujishige, Math. Oper. Res.
    1980), so each peels on its own, its rest splitting anew; blocks of equal
    λ merge into one Peel, and left vertices with no pseudonode left join the
    one at λ = 1. A Hall-tight set M of must-match pseudonodes (|N(M)| = |M|)
    is tight at every λ, so it goes with N(M) at the first λ of all: one flow
    there finds it in each component that peels later. No rest after a peel
    holds one: it would have joined the maximal tight set.
    """
    neigh: dict[int, set[int]] = {p.pid: set() for p in cb.pseudos}
    for (u, pid) in cb.edges:
        neigh[pid].add(u)
    work = _component_blocks(cb, list(neigh), neigh)
    first = min((block.lam for _, block in work), default=ONE)
    for i, (pseudos, block) in enumerate(work):
        if block.lam > first and any(p.must_match for p in pseudos):
            if len(pseudos) > 1:
                S = _tight_set(pseudos, neigh, first)[1]
            else:  # a lone must-match pseudonode is Hall-tight with one neighbour
                S = frozenset(p.pid for p in pseudos if len(neigh[p.pid]) == 1)
            hall = _block(cb, pseudos, neigh, S, first)
            work[i] = (pseudos, hall if hall.must_pids else block)
    levels: dict[Fraction, tuple[set[int], set[int]]] = {}
    while work:
        pseudos, block = work.pop()
        gone = block.pids | block.must_pids
        left, pids = levels.setdefault(block.lam, (set(), set()))
        left |= block.left
        pids |= gone
        rest = [p.pid for p in pseudos if p.pid not in gone]
        for pid in rest:
            neigh[pid] -= block.left
        for sub, after in _component_blocks(cb, rest, neigh):
            if after.lam <= block.lam:
                raise FairkepError(f"peel λ values must strictly increase: {block.lam} then {after.lam}")
            work.append((sub, after))
    free = frozenset(cb.left).difference(*(left for left, _ in levels.values()))
    if free:
        if ONE not in levels:
            raise FairkepError("left vertices remained after peeling")
        levels[ONE][0].update(free)
    peels = tuple(_peel(cb, left, pids, lam) for lam, (left, pids) in sorted(levels.items()))
    return BlockPartition(cb=cb, peels=peels)


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
    demands = {p.pid: _demand(p, lam_of[p.pid]) for p in cb.pseudos}
    scaled, D = integer_scaled(demands.values())
    arcs = [Arc("source", ("u", u), D, D) for u in cb.left]
    edge_list = sorted(cb.edges)
    arcs += [Arc(("u", u), ("z", z), 0, D) for (u, z) in edge_list]
    for p, d in zip(cb.pseudos, scaled):
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
    scaled, D = integer_scaled(cover.entries.values())
    P = {e: v for e, v in zip(cover.entries, scaled) if v > 0}
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

class _Internals:
    """Cached perfect matchings of each factor-critical component without one
    member, keyed by (pseudonode id, left-out member): maximum-weight ones
    under edge weights, any one otherwise (every perfect matching of a vertex
    set weighs the sum of its vertices' weights under node weights).

    One per solve: the admissible restriction's inner weights and the
    support's assembly match each component without each member once;
    `perfect` also matches C, uncached.
    """

    def __init__(self, graph: UGraph, weights: Optional[Mapping[Edge, Fraction]]):
        self.graph = graph
        self.weights = weights
        self.cache: dict[tuple[int, int], frozenset[Edge]] = {}

    def perfect(self, vertices: Sequence[int]) -> frozenset[Edge]:
        """A (maximum-weight) perfect matching of the subgraph on vertices."""
        if not vertices:
            return frozenset()
        sub = self.graph.induced(vertices)
        if self.weights is None:
            return frozenset(perfect_matching(sub))
        m = max_weight_matching(sub, self.weights)
        if 2 * len(m) != len(vertices):
            raise FairkepError("expected a perfect matching inside component")
        return frozenset(m)

    def pm(self, z: Pseudo, x: int) -> frozenset[Edge]:
        """A perfect matching of z's component without its member x."""
        m = self.cache.get((z.pid, x))
        if m is None:
            m = self.cache[(z.pid, x)] = self.perfect([v for v in z.members if v != x])
        return m


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

    def check(self) -> None:
        """Recompute marginals from the support, as integer numerators over the
        lcm D of its denominators, and compare with the formula."""
        scaled, D = integer_scaled(p for _, p in self.support)
        q = dict.fromkeys(self.graph.vertices, 0)
        total = 0
        for (edges, _), n in zip(self.support, scaled):
            total += n
            for (a, b) in edges:
                q[a] += n
                q[b] += n
        if total != D:
            raise FairkepError(f"support probabilities sum to {Fraction(total, D)}, not 1")
        if q.keys() != self.marginals.keys() or any(
            q[v] * x.denominator != x.numerator * D for v, x in self.marginals.items()
        ):
            got = {v: Fraction(n, D) for v, n in q.items()}
            raise FairkepError(f"support marginals {got} differ from the formula's {self.marginals}")


def _marginals_from_partition(
    graph: UGraph, cb: ContractedBipartite, partition: BlockPartition
) -> dict[int, Fraction]:
    lam_of = partition.lambda_of()
    q = {v: ONE for v in graph.vertices}
    q.update((v, lam_of[p.pid]) for p in cb.pseudos for v in p.removal)
    return q


def _assemble_support(
    cb: ContractedBipartite, decomposition: list[tuple[dict[int, int], Fraction]],
    c_matching: frozenset[Edge], internals: _Internals,
) -> list[tuple[frozenset[Edge], Fraction]]:
    """Each decomposition matching M, split evenly over L slices, L the lcm of
    the σ of the pseudonodes it leaves out.

    Every slice holds C's perfect matching, for each edge (u, z) of M an
    attach edge u–x, x the first attach vertex, with a perfect matching of z's
    component without x, and for each pseudonode M leaves out a perfect
    matching of its component without a removal vertex: slice j removes the
    (j mod σ)-th.  Only the pseudonodes left out with σ > 1 differ between
    slices, so the rest is built once per M.
    """
    support: dict[frozenset[Edge], Fraction] = {}
    for M, prob in decomposition:
        fixed: set[Edge] = set(c_matching)
        for u, pid in M.items():
            x = cb.attach[(u, pid)][0]
            fixed.add(norm_edge(u, x))
            fixed |= internals.pm(cb.pseudo(pid), x)
        matched = set(M.values())
        varying = []
        for z in cb.pseudos:
            if z.pid in matched:
                continue
            if z.must_match:
                raise FairkepError(f"must-match pseudonode {z.pid} left unmatched")
            if z.sigma == 1:
                fixed |= internals.pm(z, z.removal[0])
            else:
                varying.append(z)
        L = lcm(*(z.sigma for z in varying))
        slice_p = prob / L
        for j in range(L):
            key = frozenset(fixed.union(*(internals.pm(z, z.removal[j % z.sigma]) for z in varying)))
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
    graph: UGraph, cb: ContractedBipartite, internals: _Internals, c_vertices: frozenset[int]
) -> LeximinSolution:
    """Peel, cover, decompose, assemble and sparsify; the answer is checked before it returns."""
    c_matching = internals.perfect(sorted(c_vertices))
    partition = peel_blocks(cb)
    cover = cover_matrix(partition)
    decomposition = decompose_matrix(cover)
    support = _assemble_support(cb, decomposition, c_matching, internals)
    marginals = _marginals_from_partition(graph, cb, partition)
    support = sparsify_support(support, sorted(graph.vertices))
    solution = LeximinSolution(graph, cb, partition, cover, decomposition, c_matching, support, marginals)
    solution.check()
    return solution


def _admissible(cb: ContractedBipartite, internals: _Internals,
                node_weights: Optional[Mapping[int, Fraction]] = None) -> ContractedBipartite:
    """Restrict the contraction to the choices of maximum-weight maximum matchings.

    A maximum matching matches every vertex of A to its own pseudonode and
    each pseudonode z it leaves out inside z's component, so its best weight
    is that of one assignment of A to the pseudonodes: matching u to z earns
    z's best attachment weight over (u, z), leaving z out z's best inner
    weight.  One assignment solve (bipartite_admissible_subgraph) keeps the
    contraction edges of the optimal assignments; a pseudonode no optimal
    assignment leaves out becomes must-match, the others keep the removal
    vertices of best weight.

    Under edge weights the inner weights are those of the cached
    maximum-weight inner matchings.  Under node weights (a vertex missing
    weighs 0) every perfect matching of a vertex set weighs the sum of its
    vertices' weights, so z's component W_z without x weighs W_z - w_x, every
    attach vertex of (u, z) ties at w_u + W_z, and the removal vertices kept
    are the members of least weight: no inner matching is solved.

    No cardinality tier is needed: a size tier (s_z per edge, s_z - 1 per
    pseudonode left out) sums to Σs_z - (|Z| - |A|) on every assignment and
    cannot change which are optimal.
    """
    if node_weights is None:
        weights = internals.weights
        # best weight of each component without one member: a perfect matching,
        # since the components of D are factor-critical
        inner = {(p.pid, x): matching_weight(internals.pm(p, x), weights)
                 for p in cb.pseudos for x in p.members}

        def edge_weight(u: int, x: int) -> Fraction:
            return Fraction(weights.get(norm_edge(u, x), 0))
    else:
        w = {v: Fraction(node_weights.get(v, 0)) for v in internals.graph.vertices}
        total = {p.pid: sum((w[v] for v in p.members), ZERO) for p in cb.pseudos}
        inner = {(p.pid, x): total[p.pid] - w[x] for p in cb.pseudos for x in p.members}

        def edge_weight(u: int, x: int) -> Fraction:
            return w[u] + w[x]
    w_best = {p.pid: max(inner[(p.pid, x)] for x in p.members) for p in cb.pseudos}
    w_attach: dict[tuple[int, int], Fraction] = {}
    best_attach: dict[tuple[int, int], tuple[int, ...]] = {}
    for (u, pid) in cb.edges:
        # the attachment weight w(u,z) and the attach vertices achieving it
        cands = {x: edge_weight(u, x) + inner[(pid, x)] for x in cb.attach[(u, pid)]}
        w_attach[(u, pid)] = max(cands.values())
        best_attach[(u, pid)] = tuple(sorted(x for x, v in cands.items() if v == w_attach[(u, pid)]))
    adm_edges, free = bipartite_admissible_subgraph(
        cb.left, [p.pid for p in cb.pseudos], w_attach, w_best
    )
    pseudos = tuple(
        Pseudo(p.pid, p.members, tuple(x for x in p.members if inner[(p.pid, x)] == w_best[p.pid])
               if p.pid in free else ())
        for p in cb.pseudos
    )
    return ContractedBipartite(
        left=cb.left,
        pseudos=pseudos,
        edges=frozenset(adm_edges),
        attach={e: best_attach[e] for e in adm_edges},
    )


def leximin_lottery_graph(
    graph: UGraph, weights: Optional[Mapping[Edge, Fraction]] = None,
    node_weights: Optional[Mapping[int, Fraction]] = None,
) -> LeximinSolution:
    """Leximin (Lorenz-dominant) lottery over maximum-cardinality matchings,
    with edge or node weights (at most one map; an edge or vertex missing
    from it weighs 0) over the maximum-weight ones.

    The frame of every solver: Gallai-Edmonds, the contraction, one inner
    matching cache (maximum-weight under edge weights, unweighted otherwise),
    with weights the admissible restriction, then the engine.
    A graph with a perfect matching has D = ∅: no pseudonodes, so no peels,
    the decomposition [({}, 1)] and the support [(pm(C), 1)].
    """
    if weights is not None and node_weights is not None:
        raise ValueError("give edge weights or node weights, not both")
    ge = gallai_edmonds(graph)
    cb = contract(graph, ge)
    internals = _Internals(graph, weights)
    if weights is not None or node_weights is not None:
        cb = _admissible(cb, internals, node_weights)
    return _solve_engine(graph, cb, internals, frozenset(ge.C))


# ---------------------------------------------------------------------------
# instance-level entry points
# ---------------------------------------------------------------------------

def _undirected_projection(instance: KepInstance) -> UGraph:
    return UGraph.of(instance.pairs, instance.undirected_edges())


def _edge_weights(
    instance: KepInstance, edge_weights: Optional[Mapping[Edge, Fraction]]
) -> dict[Edge, Fraction]:
    """Given edge weights keyed by normalized edges; by default, the sum of the two arc weights."""
    if edge_weights is not None:
        return {norm_edge(*e): Fraction(wv) for e, wv in edge_weights.items()}
    return {
        (u, v): Fraction(instance.arcs[(u, v)]) + Fraction(instance.arcs[(v, u)])
        for (u, v) in instance.undirected_edges()
    }


def _edges_to_packing(edges: frozenset[Edge]) -> Packing:
    return Packing(frozenset(Cycle((u, v)) for (u, v) in edges))


def _support_to_lottery(support) -> Lottery:
    """The lottery over the support's matchings, each edge one shared 2-cycle.

    Cycle is frozen, so the packings that match an edge share one Cycle.
    """
    cycles = {e: Cycle(e) for e in {e for edges, _ in support for e in edges}}
    return Lottery(tuple((Packing(frozenset(cycles[e] for e in edges)), p) for edges, p in support))


def leximin_matching_lottery(instance: KepInstance) -> Lottery:
    """Algorithm for the fair lottery over maximum-cardinality 2-cycle packings."""
    sol = leximin_lottery_graph(_undirected_projection(instance))
    return _support_to_lottery(sol.support)


def node_weight_leximin(
    instance: KepInstance, node_weights: Optional[Mapping[int, Fraction]] = None
) -> Lottery:
    """Leximin lottery over maximum-node-weight maximum matchings.

    A matching weighs the sum of the weights of the vertices it covers (a
    pair missing from node_weights weighs 0), so the inner weights of the
    admissible restriction come in closed form and the inner matchings are
    unweighted (leximin_lottery_graph under node_weights).
    """
    if node_weights is None:
        node_weights = instance.node_weights
    sol = leximin_lottery_graph(_undirected_projection(instance), node_weights=node_weights)
    return _support_to_lottery(sol.support)


def edge_weight_reduction(
    instance: KepInstance, edge_weights: Optional[Mapping[Edge, Fraction]] = None
) -> Lottery:
    """Leximin lottery over maximum-weight maximum-cardinality matchings.

    Without edge_weights an edge weighs the sum of its two arc weights.
    """
    sol = leximin_lottery_graph(_undirected_projection(instance), _edge_weights(instance, edge_weights))
    return _support_to_lottery(sol.support)


# ---------------------------------------------------------------------------
# fixed cardinality (fair's column-generation engine, matching pricer)
# ---------------------------------------------------------------------------

def fixed_cardinality_reduction(
    instance: KepInstance,
    edge_weights: Optional[Mapping[Edge, Fraction]] = None,
    *,
    mu: int,
) -> Lottery:
    """Leximin lottery over maximum-weight matchings of exactly mu edges, any 0 <= mu <= ν.

    Pricing solves a perfect-matching problem on the graph plus |V| - 2·mu
    dummy vertices, each adjacent to every vertex, so a perfect matching there
    has exactly mu real edges; fair's exact column generation with iterative
    leximin level fixing builds the lottery.
    """
    graph = _undirected_projection(instance)
    weights = _edge_weights(instance, edge_weights)
    nu = matching_number(graph)
    if not 0 <= mu <= nu:
        raise CardinalityOutOfRange(f"need 0 <= mu <= ν, got mu={mu}, ν={nu}")
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
        m = max_weight_matching(big, lex_weights(tiers, len(big.vertices)))
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
    master = RestrictedMaster(graph.vertices, pricing, seed=seed)
    lottery, _, _ = leximin_lottery(master)
    return lottery
