"""Independent brute-force oracles used across the test suite.

Everything here works by exhaustive enumeration plus direct LP solves over the
full enumerated family — deliberately sharing no logic with the library's
contraction/peeling or column-generation code paths.  The flow references at
the end (Edmonds-Karp, a circulation per decomposition step) are the
algorithms the library's flow kernel and matrix decomposition replaced,
`reference_search` is the packing search before it pruned on the cardinality
row, charged for the structure count and jumped over the rows it cannot
include, `doubled_graph_admissible` is the weighted Lorenz restriction
before it became one assignment solve, and
`reference_peel_blocks` is the peeling loop before it went one connected
component at a time: a Dinkelbach iteration from λ = 1 over everything left
per block (it shares the library's `_tight_lambda` and `_demand`).
`reference_caratheodory` is the support reduction before it kept a forward
echelon with combinations over the basis only: a reduced echelon whose rows
carry dense combinations over every column (it shares the library's
`_eliminate`).  `recorded_searches` records the packing search's query
stream of a call, so that a differential test can replay it.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import Hashable, Iterable, Optional, Sequence

import networkx as nx

from fairkep.core import Chain, Cycle, FairkepError, Packing
from fairkep.flows import INF, _MaxFlow
from fairkep.lorenz import BlockPartition, ContractedBipartite, Peel, Pseudo, _demand, _tight_lambda
from fairkep.matching import matching_weight, norm_edge
from fairkep.oracle import CARD_FREE, OracleInfeasible, PackingFamily, enumerate_structures
from fairkep.simplexlp import _eliminate, lp_solve_exact

ZERO = Fraction(0)
ONE = Fraction(1)


def all_structures(instance, policy):
    """Every acceptable cycle and chain, by testing every vertex sequence.

    Cycles are the sequences of distinct pairs whose smallest vertex comes
    first (the canonical rotation) and whose arcs, the closing one included,
    all exist; chains are an NDD followed by distinct pairs along existing
    arcs.  Sorted by `sort_key`.
    """
    arcs = instance.arcs
    pairs = sorted(instance.pairs)
    out = []
    if policy.max_cycle_len is not None:
        for k in range(2, min(policy.max_cycle_len, len(pairs)) + 1):
            for seq in permutations(pairs, k):
                if seq[0] == min(seq) and all(
                    (seq[i], seq[(i + 1) % k]) in arcs for i in range(k)
                ):
                    out.append(Cycle(seq))
    if policy.max_chain_len is not None:
        longest = int(min(policy.max_chain_len, len(pairs)))
        for a in sorted(instance.ndds):
            for k in range(max(1, policy.min_chain_len), longest + 1):
                for seq in permutations(pairs, k):
                    path = (a,) + seq
                    if all((path[i], path[i + 1]) in arcs for i in range(k)):
                        out.append(Chain(ndd=a, pairs=seq))
    return sorted(out, key=lambda s: s.sort_key())


def packing_covers(instance, policy, card=CARD_FREE):
    """Covered-pair sets of every packing of `all_structures` that meets `card`.

    One entry per packing, by exhaustive search over subsets of disjoint
    structures (each NDD starting at most one chain).
    """
    structs = all_structures(instance, policy)
    mode, k = card
    out = []

    def rec(i, used, used_ndds):
        if len(used) == k if mode == "exact" else len(used) >= k:
            out.append(used)
        for j in range(i, len(structs)):
            cov = frozenset(structs[j].covered())
            ndd = getattr(structs[j], "ndd", None)
            if cov & used or ndd in used_ndds:
                continue
            rec(j + 1, used | cov, used_ndds | ({ndd} if ndd is not None else set()))

    rec(0, frozenset(), frozenset())
    return out


def brute_best(instance, policy, prices, must=frozenset(), card=CARD_FREE):
    """Best total price over every packing that covers `must` and meets `card`.

    None when no packing qualifies.
    """
    values = [
        sum((prices.get(v, ZERO) for v in cov), ZERO)
        for cov in packing_covers(instance, policy, card)
        if must <= cov
    ]
    return max(values, default=None)


def min_gini(vertices, families):
    """Exact minimum Gini coefficient over lotteries on a finite family.

    families: sets of the vertices, at least one non-empty.  The Gini
    coefficient of marginals q is sum_{u<v} |q_u - q_v| / (n sum q).
    Dinkelbach iterations from the uniform lottery: each inner problem is
    the LP  max mu n sum(q) - sum_{u<v} t_uv  with t_uv >= +-(q_u - q_v) over
    the probabilities of every member at once, solved by
    simplexlp.lp_solve_exact; a zero optimum certifies mu.
    """
    vertices = sorted(vertices)
    n = len(vertices)
    cols = [frozenset(c) for c in families]
    k = len(cols)
    upairs = list(combinations(vertices, 2))
    m = len(upairs)

    def gini(p):
        q = {v: sum((p[j] for j in range(k) if v in cols[j]), ZERO) for v in vertices}
        return sum(abs(q[u] - q[v]) for u, v in upairs) / (n * sum(q.values()))

    A_ub, b_ub = [], []
    for i, (u, v) in enumerate(upairs):
        for sign in (1, -1):
            diff = [sign * ((u in c) - (v in c)) for c in cols]
            A_ub.append(diff + [-ONE if ii == i else ZERO for ii in range(m)])
            b_ub.append(ZERO)
    mu = gini([Fraction(1, k)] * k)
    while True:
        c = [mu * n * len(col) for col in cols] + [-ONE] * m
        res = lp_solve_exact(c, A_ub=A_ub, b_ub=b_ub, A_eq=[[ONE] * k + [ZERO] * m], b_eq=[ONE])
        if res.objective == 0:
            return mu
        mu = gini(res.x[:k])


def enumerate_matchings(edges):
    """All matchings (as frozensets of edges) of an undirected edge list."""
    edges = sorted(edges)
    out = [frozenset()]

    def rec(i, used, cur):
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u in used or v in used:
                continue
            nxt = cur | {edges[j]}
            out.append(frozenset(nxt))
            rec(j + 1, used | {u, v}, nxt)

    rec(0, set(), set())
    return out


def maximum_matchings(edges):
    all_m = enumerate_matchings(edges)
    best = max(len(m) for m in all_m)
    return [m for m in all_m if len(m) == best]


def covered_set(matching):
    return frozenset(x for e in matching for x in e)


def max_matching_size(graph):
    """Size of a maximum matching, by a memoised search over vertex bitmasks:
    the lowest vertex left is either unmatched or matched to a neighbour left."""
    bit = {v: 1 << i for i, v in enumerate(sorted(graph.vertices))}
    neighbours = [0] * len(bit)
    for u, v in graph.edges:
        neighbours[bit[u].bit_length() - 1] |= bit[v]
        neighbours[bit[v].bit_length() - 1] |= bit[u]

    @cache
    def best(left):
        if not left:
            return 0
        low = left & -left
        rest = left ^ low
        size = best(rest)
        options = neighbours[low.bit_length() - 1] & rest
        while options:
            w = options & -options
            size = max(size, 1 + best(rest ^ w))
            options ^= w
        return size

    return best(sum(bit.values()))


def is_factor_critical(graph):
    """Odd order, and deleting any one vertex leaves a perfect matching."""
    n = len(graph.vertices)
    if n % 2 == 0:
        return False
    return all(2 * max_matching_size(graph.without([v])) == n - 1 for v in graph.vertices)


def best_assignments(rows, cols, weights, bonus):
    """(edges, left-out columns) of the row-covering assignments of maximum
    worth, by enumerating every one, or None if there is none.

    An assignment gives each row its own column along a key (row, col) of
    weights; it is worth its edges' weights plus the bonus (default 0) of
    each column it leaves out.
    """
    by_row = {r: [c for (rr, c) in weights if rr == r] for r in rows}
    found = []

    def rec(k, taken, chosen):
        if k == len(rows):
            worth = sum((Fraction(weights[e]) for e in chosen), ZERO)
            worth += sum((Fraction(bonus.get(c, 0)) for c in cols if c not in taken), ZERO)
            found.append((worth, tuple(chosen), frozenset(cols) - taken))
            return
        for c in by_row[rows[k]]:
            if c not in taken:
                rec(k + 1, taken | {c}, chosen + [(rows[k], c)])

    rec(0, frozenset(), [])
    if not found:
        return None
    top = max(worth for worth, _, _ in found)
    best = [(chosen, free) for worth, chosen, free in found if worth == top]
    return {e for chosen, _ in best for e in chosen}, set().union(*(free for _, free in best))


def doubled_graph_admissible(cb, internals):
    """The weighted restriction of a contraction through a doubled graph.

    H holds two copies of A and of the pseudonodes: each contraction edge
    (u, z) becomes A1u-Z2z and Z1z-A2u at z's best attachment weight, and
    Z1z-Z2z weighs twice z's best inner weight.  The admissible edges of H
    (those in some maximum-weight perfect matching) come from one networkx
    matching, dual potentials rebuilt by Bellman-Ford over the exchange
    digraph, and networkx strongly connected components of its tight arcs.
    An attach edge of H keeps its contraction edge; a pseudonode whose
    internal edge is not admissible becomes must-match.
    """
    weights = internals.weights
    inner = {
        (p.pid, x): matching_weight(internals.pm(p, x), weights)
        for p in cb.pseudos
        for x in p.members
    }
    w_best = {p.pid: max(inner[(p.pid, x)] for x in p.members) for p in cb.pseudos}
    hw = {}
    best_attach = {}
    for (u, pid) in cb.edges:
        cands = {
            x: Fraction(weights.get(norm_edge(u, x), 0)) + inner[(pid, x)]
            for x in cb.attach[(u, pid)]
        }
        wuz = max(cands.values())
        best_attach[(u, pid)] = tuple(sorted(x for x, v in cands.items() if v == wuz))
        hw[(("A1", u), ("Z2", pid))] = wuz
        hw[(("Z1", pid), ("A2", u))] = wuz
    for p in cb.pseudos:
        hw[(("Z1", p.pid), ("Z2", p.pid))] = 2 * w_best[p.pid]
    scale = math.lcm(*(w.denominator for w in hw.values()))
    w = {e: int(x * scale) for e, x in hw.items()}
    g = nx.Graph()
    g.add_edges_from((a, b, {"weight": x}) for (a, b), x in w.items())
    m = {frozenset(e) for e in nx.max_weight_matching(g, maxcardinality=True)}
    assert 2 * len(m) == g.number_of_nodes()
    # every edge of H runs from a left vertex (A1, Z1) to a right one (A2, Z2)
    mate = {}
    for e in hw:
        if frozenset(e) in m:
            mate[e[1]] = e[0]
    arcs = [(mate[r], l, w[(l, r)] - w[(mate[r], r)], (l, r))
            for (l, r) in hw if frozenset((l, r)) not in m]
    y = {l: 0 for (l, _) in hw}
    for _ in range(len(y) + 1):
        changed = False
        for (a, b, gain, _) in arcs:
            if y[a] + gain > y[b]:
                y[b] = y[a] + gain
                changed = True
        if not changed:
            break
    else:
        raise AssertionError("exchange digraph has a positive cycle")
    tight = [(a, b, e) for (a, b, gain, e) in arcs if y[b] - y[a] == gain]
    digraph = nx.DiGraph((a, b) for (a, b, _) in tight)
    comp = {v: i for i, scc in enumerate(nx.strongly_connected_components(digraph)) for v in scc}
    adm = {e for e in hw if frozenset(e) in m} | {e for (a, b, e) in tight if comp[a] == comp[b]}
    adm_edges = {(u, pid) for (u, pid) in cb.edges if (("A1", u), ("Z2", pid)) in adm}
    pseudos = tuple(
        Pseudo(p.pid, p.members, tuple(x for x in p.members if inner[(p.pid, x)] == w_best[p.pid])
               if (("Z1", p.pid), ("Z2", p.pid)) in adm else ())
        for p in cb.pseudos
    )
    return ContractedBipartite(
        left=cb.left,
        pseudos=pseudos,
        edges=frozenset(adm_edges),
        attach={e: best_attach[e] for e in adm_edges},
    )


def rank(vectors):
    """Rank of a list of equal-length rational vectors (row reduction)."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def leximin_marginals(vertices, families):
    """Exact leximin-optimal marginal vector over lotteries on a finite family.

    families: list of covered-vertex frozensets. Iterative level fixing with
    one saturation test LP per candidate vertex; all arithmetic rational.
    """
    vertices = sorted(vertices)
    cols = [frozenset(c) for c in families]
    fixed: dict[int, Fraction] = {}
    while len(fixed) < len(vertices):
        t, primal = _maximin_lp(vertices, fixed, cols)
        q = _coverage(vertices, cols, primal)
        newly = []
        for v in vertices:
            if v in fixed or q[v] != t:
                continue
            if _max_cover_lp(v, {u: fixed.get(u, t) for u in vertices}, cols) == t:
                newly.append(v)
        assert newly
        for v in newly:
            fixed[v] = t
    return fixed


def leximin_lottery_oracle(vertices, families):
    """(marginals, probabilities) of a leximin-optimal lottery over the family."""
    levels = leximin_marginals(vertices, families)
    cols = [frozenset(c) for c in families]
    k = len(cols)
    A_ub = [[-(ONE if v in c else ZERO) for c in cols] for v in sorted(vertices)]
    b_ub = [-levels[v] for v in sorted(vertices)]
    res = lp_solve_exact([ZERO] * k, A_ub=A_ub, b_ub=b_ub, A_eq=[[ONE] * k], b_eq=[ONE])
    return levels, res.x


def _coverage(vertices, cols, primal):
    q = {v: ZERO for v in vertices}
    for c, p in zip(cols, primal):
        for v in c:
            if v in q:
                q[v] += p
    return q


def _maximin_lp(vertices, fixed, cols):
    k = len(cols)
    c = [ZERO] * k + [ONE]
    A_ub, b_ub = [], []
    for v in vertices:
        row = [-(ONE if v in cols[j] else ZERO) for j in range(k)]
        row.append(ZERO if v in fixed else ONE)
        A_ub.append(row)
        b_ub.append(-fixed[v] if v in fixed else ZERO)
    res = lp_solve_exact(c, A_ub=A_ub, b_ub=b_ub, A_eq=[[ONE] * k + [ZERO]], b_eq=[ONE])
    return res.objective, res.x[:k]


def _max_cover_lp(target, floors, cols):
    k = len(cols)
    c = [ONE if target in cols[j] else ZERO for j in range(k)]
    A_ub = [[-(ONE if v in cols[j] else ZERO) for j in range(k)] for v in sorted(floors)]
    b_ub = [-floors[v] for v in sorted(floors)]
    res = lp_solve_exact(c, A_ub=A_ub, b_ub=b_ub, A_eq=[[ONE] * k], b_eq=[ONE])
    return res.objective


class EdmondsKarp:
    """Shortest-augmenting-path max flow over node keys, one BFS per path.

    The flow kernel the library used before its blocking-flow one; kept as an
    independent reference.  Arcs are stored in residual pairs (i, i ^ 1).
    """

    def __init__(self):
        self.adj = {}
        self.to = []
        self.cap = []

    def add(self, u, v, cap):
        i = len(self.to)
        self.adj.setdefault(u, []).append(i)
        self.to.append(v)
        self.cap.append(cap)
        self.adj.setdefault(v, []).append(i + 1)
        self.to.append(u)
        self.cap.append(0)
        return i

    def flow_on(self, i):
        return self.cap[i ^ 1]

    def run(self, s, t):
        total = 0
        while True:
            parent = {s: -1}
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
            path = []
            v = t
            while v != s:
                path.append(parent[v])
                v = self.to[parent[v] ^ 1]
            bottleneck = min(self.cap[i] for i in path)
            for i in path:
                self.cap[i] -= bottleneck
                self.cap[i ^ 1] += bottleneck
            total += bottleneck

    def reaches_sink(self, t):
        """Nodes with a residual path to t."""
        rev = {}
        for i, head in enumerate(self.to):
            if self.cap[i] > 0:
                rev.setdefault(head, []).append(self.to[i ^ 1])
        seen = {t}
        stack = [t]
        while stack:
            for u in rev.get(stack.pop(), []):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen


def ek_circulation(arcs):
    """A circulation within each (tail, head, lower, upper) arc's bounds, or None.

    Lower-bound flow is routed through a super source and sink on EdmondsKarp.
    """
    net = EdmondsKarp()
    S, T = ("__source__",), ("__sink__",)
    excess = {}
    ids = []
    for tail, head, lower, upper in arcs:
        ids.append(net.add(tail, head, upper - lower))
        excess[head] = excess.get(head, 0) + lower
        excess[tail] = excess.get(tail, 0) - lower
    need = 0
    for v, e in excess.items():
        if e > 0:
            net.add(S, v, e)
            need += e
        elif e < 0:
            net.add(v, T, -e)
    if net.run(S, T) != need:
        return None
    return [net.flow_on(i) + a[2] for i, a in zip(ids, arcs)]


def circulation_decompose(rows, entries):
    """Write an int matrix with row sums t and column sums <= t as Σ δ_k M_k.

    `entries` maps (row, column) to a positive int; t is the common row sum.
    Each step solves a fresh 0/1 circulation for a matching that covers every
    row and every column at the current t, then removes the largest mass δ
    that keeps every column at most t - δ.  Returns [(matching, δ), ...] or
    None when a step has no matching.
    """
    P = dict(entries)
    t = sum(v for (r, _), v in P.items() if r == rows[0]) if rows else 0
    steps = []
    while t > 0:
        colsum = {}
        for (_, z), v in P.items():
            colsum[z] = colsum.get(z, 0) + v
        edges = sorted(P)
        arcs = [("s", ("u", u), 1, 1) for u in rows]
        arcs += [(("u", u), ("z", z), 0, 1) for (u, z) in edges]
        arcs += [(("z", z), "t", 1 if s == t else 0, 1) for z, s in sorted(colsum.items())]
        arcs.append(("t", "s", 0, len(rows)))
        flows = ek_circulation(arcs)
        if flows is None:
            return None
        M = {u: z for (u, z), f in zip(edges, flows[len(rows):]) if f == 1}
        delta = min([t] + [P[(u, z)] for u, z in M.items()]
                    + [t - s for z, s in colsum.items() if z not in M.values()])
        steps.append((M, delta))
        for u, z in M.items():
            P[(u, z)] -= delta
            if P[(u, z)] == 0:
                del P[(u, z)]
        t -= delta
    return steps


def reference_search(inst, policy, prices, cardinality, value_only):
    """The oracle's branch-and-bound as it was with a value bound only.

    Same structure order and inclusion-first branching as
    `oracle.PackingFamily.search`, but it walks every row in turn, closing
    each row's drop set (the pairs it is the last to cover) as it passes,
    where the search jumps to the next row it can include.  The
    cardinality row prunes only through `count + suffix_size[i] < low`, the
    total size of every remaining structure, conflicting ones included.
    Full queries keep the explicit tie-break key (fewest structures, then
    smallest tuple of `sort_key`s) and visit every optimal leaf to compare
    it.  That is on purpose: it is
    the independent reference for the search's count charge, so it must not
    adopt the charge, or the differential tests would compare the search
    with itself.  Kept as the reference the stronger bound and the charge
    must agree with packing for packing.
    """
    structs = enumerate_structures(inst, policy)
    pairs = sorted(inst.pairs)
    bit = {v: i for i, v in enumerate(pairs + sorted(inst.ndds))}
    members = [tuple(bit[v] for v in s.covered()) for s in structs]
    keys = [s.sort_key() for s in structs]
    sizes = [len(bits) for bits in members]
    masks = []
    for s, bits in zip(structs, members):
        m = 0
        for b in bits:
            m |= 1 << b
        if isinstance(s, Chain):
            m |= 1 << bit[s.ndd]
        masks.append(m)
    n = len(structs)
    cover = [0] * (n + 1)
    suffix_size = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        cover[i] = cover[i + 1] | masks[i]
        suffix_size[i] = suffix_size[i + 1] + sizes[i]
    drop_bits = [
        [b for b in bits if (cover[i] & ~cover[i + 1]) >> b & 1] for i, bits in enumerate(members)
    ]
    price = [Fraction(prices.get(v, 0)) for v in pairs]
    scale = math.lcm(*(p.denominator for p in price))
    price = [p.numerator * (scale // p.denominator) for p in price]
    neg = [min(p, 0) for p in price]
    adj = [sum(neg[b] for b in bits) for bits in members]
    drops = [[(1 << b, price[b]) for b in bits if price[b] > 0] for bits in drop_bits]
    mode, k = cardinality
    low = k
    exact = mode == "exact"
    best_val = -math.inf
    best_key = best_chosen = None
    cut = -math.inf
    chosen = []

    def dfs(i, used, bound, count):
        nonlocal best_val, best_key, best_chosen, cut
        while True:
            if count + suffix_size[i] < low or bound < cut:
                return
            if i == n:
                if value_only:
                    best_val, best_chosen, cut = bound, list(chosen), bound + 1
                    return
                key = (len(chosen), tuple(sorted(keys[j] for j in chosen)))
                if bound > best_val or key < best_key:
                    best_val, best_key, best_chosen, cut = bound, key, list(chosen), bound
                return
            m = masks[i]
            if not m & used and not (exact and count + sizes[i] > k):
                chosen.append(i)
                dfs(i + 1, used | m, bound + adj[i], count + sizes[i])
                chosen.pop()
            for b, g in drops[i]:
                if not used & b:
                    bound -= g
            i += 1

    dfs(0, 0, sum(g for d in drops for _, g in d), 0)
    if best_chosen is None:
        raise OracleInfeasible("no packing satisfies the cardinality constraint")
    return Packing(frozenset(structs[j] for j in best_chosen)), Fraction(best_val, scale)


def recorded_searches(run):
    """`run()`'s result and the (family, prices, cardinality, value_only) of
    every `PackingFamily.search` it made, in order."""
    search = PackingFamily.search
    asked = []

    def recording(family, prices, cardinality, value_only):
        asked.append((family, dict(prices), cardinality, value_only))
        return search(family, prices, cardinality, value_only)

    PackingFamily.search = recording
    try:
        return run(), asked
    finally:
        PackingFamily.search = search


def reference_lambda_star(
    cb: ContractedBipartite,
    rem_left: Optional[frozenset[int]] = None,
    rem_pids: Optional[frozenset[int]] = None,
) -> tuple[Fraction, Peel]:
    """Exact minimum coverage ratio over pseudonode subsets, with the maximal tight block.

    λ = min over sets S of (|N(S)| - #musts(S) + Σ_{z∈S}(σ_z - 1)) / Σ_{z∈S} σ_z,
    capped at 1. Computed by Dinkelbach iteration over exact min-cuts rather
    than by enumerating neighborhood classes, because the minimizing set need
    not share a single neighborhood. Each trial λ costs one max flow; the min
    cut of the last trial is the block, so it is not solved again. At λ = 1
    the block is everything left. The first trial, at λ = 1, checks Hall's
    condition for the must-match pseudonodes, whose demand is 1 at every λ:
    a set of them that fails it stalls the ratio, and this raises.
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

    def peel(left: frozenset[int], pids: frozenset[int], lam: Fraction) -> tuple[Fraction, Peel]:
        musts = frozenset(pid for pid in pids if cb.pseudo(pid).must_match)
        return lam, Peel(left, pids - musts, musts, lam)

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
        return peel(rem_left, rem_pids, ONE)
    # S is the maximal tight set of the last tight_set(lam)
    # pull in boundary pseudonodes (demand exactly 0 at λ) stranded inside the block
    S_A = frozenset().union(*(neigh[pid] for pid in S)) if S else frozenset()
    extra = {
        p.pid
        for p in pseudos
        if p.pid not in S and _demand(p, lam) == 0
        and lam == Fraction(p.sigma - 1, p.sigma) and neigh[p.pid] <= S_A
    }
    musts = {p.pid for p in pseudos if p.must_match and neigh[p.pid] <= S_A}
    return peel(S_A, S | extra | musts, lam)


def reference_peel_blocks(cb: ContractedBipartite) -> BlockPartition:
    """Iteratively remove minimum-ratio blocks; λ values strictly increase."""
    rem_left = frozenset(cb.left)
    rem_pids = frozenset(p.pid for p in cb.pseudos)
    peels: list[Peel] = []
    prev = Fraction(-1)
    while rem_pids:
        _, peel = reference_lambda_star(cb, rem_left, rem_pids)
        rem_left = rem_left - peel.left
        rem_pids = rem_pids - peel.pids - peel.must_pids
        if peel.lam <= prev:
            raise FairkepError(f"peel λ values must strictly increase: {prev} then {peel.lam}")
        prev = peel.lam
        peels.append(peel)
    if rem_left:
        raise FairkepError("left vertices remained after peeling")
    return BlockPartition(cb=cb, peels=tuple(peels))


def reference_caratheodory(
    covers: Sequence[Iterable[Hashable]], weights: Sequence
) -> list[Fraction]:
    """Nonnegative weights with the same coverage and total, on independent columns.

    Column j covers the rows in covers[j] and carries weights[j] >= 0.  The
    returned weights give every row the same total (Σ_j w_j [r in covers[j]])
    and sum to the same value, and the columns left with positive weight are
    linearly independent as coverage vectors extended by the all-ones row, so
    there are at most 1 + (number of distinct rows) of them.

    Exact elimination: the columns enter, in order, an incremental reduced
    echelon basis of integer rows [vector | the same vector as a combination
    of columns].  A column that reduces to zero yields a null combination d;
    mass shifts along -d until a weight hits zero.  If that is the new column
    it is dropped; otherwise the zeroed column is eliminated from every row's
    combination, which exchanges it for the new column and keeps the echelon
    vectors.  Rows equal on every column are multiples of the all-ones row and
    are skipped, as are repeats of another row.
    """
    w = [Fraction(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    cols = [j for j, x in enumerate(w) if x > 0]
    masks: dict[Hashable, int] = {}
    for j in cols:
        for r in set(covers[j]):
            masks[r] = masks.get(r, 0) | (1 << j)
    full = sum(1 << j for j in cols)
    patterns = [full] + sorted({m for m in masks.values() if m != full})
    m = len(patterns)
    basis: list[tuple[int, list[int]]] = []  # (pivot, row); rows are 0 at other pivots
    for j in cols:
        row = [mask >> j & 1 for mask in patterns] + [0] * len(w)
        row[m + j] = 1
        for p, b in basis:
            row = _eliminate(row, b, p)
        pivot = next((i for i in range(m) if row[i]), None)
        if pivot is not None:
            basis = [(p, _eliminate(b, row, pivot)) for p, b in basis]
            basis.append((pivot, row))
            continue
        # Σ_c d_c · column c = 0 with d = row[m:]; shift mass along -d (d_j > 0)
        d = row[m:] if row[m + j] > 0 else [-x for x in row[m:]]
        out = j
        for c in cols:
            if d[c] > 0 and w[c] * d[out] < w[out] * d[c]:
                out = c
        t = w[out] / d[out]
        for c in cols:
            if d[c]:
                w[c] -= t * d[c]
        if out != j:
            basis = [(p, _eliminate(b, row, m + out)) for p, b in basis]
    return w

