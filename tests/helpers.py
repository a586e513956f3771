"""Independent brute-force oracles used across the test suite.

Everything here works by exhaustive enumeration plus direct LP solves over the
full enumerated family — deliberately sharing no logic with the library's
contraction/peeling or column-generation code paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from fairkep.core import Chain, Cycle
from fairkep.matching import has_perfect_matching
from fairkep.simplexlp import lp_solve_exact

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


def brute_best(instance, policy, prices, must=frozenset(), card=("free", None)):
    """Best total price over every packing that covers `must` and meets `card`.

    Exhaustive search over subsets of `all_structures`; None when no packing
    qualifies.
    """
    structs = all_structures(instance, policy)
    best = None

    def rec(i, used, used_ndds, val, cnt):
        nonlocal best
        mode, k = card
        ok = must <= used and (
            mode == "free" or (cnt == k if mode == "exact" else cnt >= k)
        )
        if ok and (best is None or val > best):
            best = val
        for j in range(i, len(structs)):
            cov = set(structs[j].covered())
            ndd = getattr(structs[j], "ndd", None)
            if cov & used or ndd in used_ndds:
                continue
            rec(
                j + 1,
                used | cov,
                used_ndds | ({ndd} if ndd is not None else set()),
                val + sum(prices.get(v, ZERO) for v in cov),
                cnt + len(cov),
            )

    rec(0, set(), set(), ZERO, 0)
    return best


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


def is_factor_critical(graph):
    """Odd order, and deleting any one vertex leaves a perfect matching."""
    n = len(graph.vertices)
    if n % 2 == 0:
        return False
    return all(has_perfect_matching(graph.without([v])) for v in graph.vertices)


def max_weight_perfect_matching_edges(vertices, edges, weights):
    """Union of the maximum-weight perfect matchings, or None if there is none."""
    n = len(vertices)
    perfect = [m for m in enumerate_matchings(edges) if 2 * len(m) == n]
    if not perfect:
        return None
    value = {m: sum((Fraction(weights.get(e, 0)) for e in m), ZERO) for m in perfect}
    best = max(value.values())
    return frozenset(e for m in perfect if value[m] == best for e in m)


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
