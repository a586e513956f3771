"""Leximin matching lotteries: engine vs enumerated-polytope oracle."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from fairkep import gen, lorenz, matching
from fairkep.core import (
    DOMINATES, EMPTY_PACKING, EQUAL, MATCHING_POLICY, Cycle, FairkepError, KepInstance, Lottery, Packing,
    lorenz_compare,
)
from fairkep.fair import RestrictedMaster, leximin_lottery, solve_leximin
from fairkep.lorenz import (
    ContractedBipartite,
    CoverMatrix,
    NotStochastic,
    Peel,
    Pseudo,
    decompose_matrix,
    edge_weight_reduction,
    fixed_cardinality_reduction,
    leximin_lottery_graph,
    leximin_matching_lottery,
    node_weight_leximin,
    peel_blocks,
    sparsify_support,
)
from fairkep.matching import UGraph, gallai_edmonds, matching_number, norm_edge
from fairkep.simplexlp import caratheodory
from helpers import (
    circulation_decompose,
    covered_set,
    doubled_graph_admissible,
    enumerate_matchings,
    leximin_marginals,
    maximum_matchings,
    reference_caratheodory,
    reference_peel_blocks,
)

F = Fraction


def ug(vertices, edges):
    return UGraph.of(vertices, [norm_edge(*e) for e in edges])


def random_graph(rng, n, p):
    vs = list(range(n))
    es = [
        norm_edge(u, v)
        for u in vs
        for v in vs
        if u < v and rng.random() < p
    ]
    return ug(vs, es)


def check_is_max_matching(graph, edges):
    seen = set()
    for (u, v) in edges:
        assert norm_edge(u, v) in graph.edges
        assert u not in seen and v not in seen
        seen.update((u, v))
    assert len(edges) == matching_number(graph)


class TestLeximinLotteryGraph:
    def test_triangle(self):
        sol = leximin_lottery_graph(ug([1, 2, 3], [(1, 2), (2, 3), (1, 3)]))
        assert sol.marginals == {1: F(2, 3), 2: F(2, 3), 3: F(2, 3)}

    def test_perfect_matching_graph(self):
        # a graph with a perfect matching has no pseudonodes: both solvers
        # return one (maximum-weight) perfect matching with probability 1;
        # the 6-cycle with a chord has three perfect matchings
        for vertices, edges in (([], []), ([1, 2], [(1, 2)]),
                                (range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])):
            g = ug(vertices, edges)
            w = {norm_edge(*e): F(i % 3) for i, e in enumerate(edges)}
            best = max((sum((w[e] for e in m), F(0)) for m in maximum_matchings(g.edges)),
                       default=F(0))
            for sol in (leximin_lottery_graph(g), leximin_lottery_graph(g, w)):
                assert not sol.partition.peels and not sol.cb.pseudos
                assert sol.decomposition == [({}, F(1))]
                assert sol.marginals == {v: F(1) for v in g.vertices}
                [(matching, p)] = sol.support
                assert p == 1 and matching == sol.c_matching
                assert 2 * len(matching) == len(g.vertices)
                check_is_max_matching(g, matching)
            assert sum((w[e] for e in matching), F(0)) == best

    def test_random_vs_oracle(self):
        rng = random.Random(31)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.7))
            sol = leximin_lottery_graph(g)
            sol.check()
            fams = [covered_set(m) for m in maximum_matchings(g.edges)] or [frozenset()]
            want = leximin_marginals(g.vertices, fams)
            assert sol.marginals == want
            for edges, p in sol.support:
                assert p > 0
                check_is_max_matching(g, edges)

    def test_lorenz_dominates_random_lotteries(self):
        rng = random.Random(32)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            sol = leximin_lottery_graph(g)
            fams = [covered_set(m) for m in maximum_matchings(g.edges)] or [frozenset()]
            mine = [sol.marginals[v] for v in sorted(g.vertices)]
            for _ in range(20):
                w = [F(rng.randint(0, 5)) for _ in fams]
                tot = sum(w) or F(1)
                q = {v: F(0) for v in g.vertices}
                for fam, wi in zip(fams, w):
                    for v in fam:
                        q[v] += F(wi, tot)
                other = [q[v] for v in sorted(g.vertices)]
                assert lorenz_compare(mine, other) in (DOMINATES, EQUAL)


def draw_matching(sol, seed):
    """One matching of the solution's support, drawn by `Lottery.draw` at seed's uniform."""
    packing = lorenz._support_to_lottery(sol.support).draw(random.Random(seed).random())
    return frozenset(c.vertices for c in packing.structures)


class TestSampling:
    def test_deterministic_and_valid(self):
        rng = random.Random(33)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            sol = leximin_lottery_graph(g)
            for seed in range(5):
                m1 = draw_matching(sol, seed)
                assert m1 == draw_matching(sol, seed)
                check_is_max_matching(g, m1)

    def test_weighted_samples_are_maximum_weight(self):
        # a sample of an edge-weighted solution is a maximum matching of the
        # largest weight, as is every matching of its lottery
        rng = random.Random(5)
        for _ in range(35):
            g = random_graph(rng, rng.randint(5, 9), 0.5)
            w = {e: F(rng.randint(0, 4)) for e in sorted(g.edges)}
            best = max((sum((w[e] for e in m), F(0)) for m in maximum_matchings(g.edges)),
                       default=F(0))
            sol = leximin_lottery_graph(g, w)
            for seed in range(5):
                m = draw_matching(sol, seed)
                check_is_max_matching(g, m)
                assert sum((w[e] for e in m), F(0)) == best

    def test_frequencies_approach_marginals(self):
        g = ug([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        sol = leximin_lottery_graph(g)
        n = 1200
        hits = {v: 0 for v in g.vertices}
        for seed in range(n):
            for (a, b) in draw_matching(sol, seed):
                hits[a] += 1
                hits[b] += 1
        for v in g.vertices:
            assert abs(hits[v] / n - 2 / 3) < 0.05


class TestSparsify:
    def test_bound_and_exact_marginals(self):
        rng = random.Random(34)
        g = random_graph(rng, 8, 0.5)
        matchings = maximum_matchings(g.edges)
        if not matchings:
            pytest.skip("empty family")
        support = [(frozenset(m), F(1, len(matchings))) for m in matchings]
        slim = sparsify_support(support, sorted(g.vertices))
        assert len(slim) <= len(g.vertices) + 1
        assert sum(p for _, p in slim) == 1

        def marg(sup):
            q = {v: F(0) for v in g.vertices}
            for edges, p in sup:
                for (a, b) in edges:
                    q[a] += p
                    q[b] += p
            return q

        assert marg(slim) == marg(support)

    def test_odd_cycles_reduce_to_rank(self):
        # a triangle and a disjoint 5-cycle: 15 slices, rank at most 8
        g = ug(range(8), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])
        support = [(frozenset(m), F(1, 15)) for m in maximum_matchings(g.edges)]
        assert len(support) == 15
        slim = sparsify_support(support, sorted(g.vertices))
        assert 0 < len(slim) <= 8
        assert {e for e, _ in slim} <= {e for e, _ in support}
        q = {v: F(0) for v in g.vertices}
        for edges, p in slim:
            for (a, b) in edges:
                q[a] += p
                q[b] += p
        assert q == {v: F(2, 3) if v < 3 else F(4, 5) for v in g.vertices}


class TestDecomposeMatrix:
    def random_cover(self, rng):
        nr = rng.randint(1, 6)
        nc = rng.randint(nr, nr + 4)
        rows = tuple(range(nr))
        cols = tuple(range(100, 100 + nc))
        k = rng.randint(1, 6)
        weights = [F(rng.randint(1, 5)) for _ in range(k)]
        tot = sum(weights)
        entries: dict[tuple[int, int], F] = {}
        for w in weights:
            assign = rng.sample(cols, nr)  # injective row -> col map
            for r, c in zip(rows, assign):
                entries[(r, c)] = entries.get((r, c), F(0)) + F(w, tot)
        return CoverMatrix(rows=rows, cols=cols, entries=entries, col_demand={})

    def test_random_reconstruction(self):
        rng = random.Random(35)
        for _ in range(60):
            cover = self.random_cover(rng)
            out = decompose_matrix(cover)
            nnz = sum(1 for v in cover.entries.values() if v > 0)
            assert len(out) <= max(nnz, 1)
            recon: dict[tuple[int, int], F] = {}
            total = F(0)
            for M, p in out:
                assert p > 0
                total += p
                assert len(set(M.values())) == len(M)  # a matching
                for r, c in M.items():
                    recon[(r, c)] = recon.get((r, c), F(0)) + p
            assert total == 1
            assert recon == {e: v for e, v in cover.entries.items() if v > 0}

    def test_rejects_nonstochastic(self):
        bad = CoverMatrix(
            rows=(0,), cols=(1,), entries={(0, 1): F(1, 2)}, col_demand={}
        )
        with pytest.raises(NotStochastic):
            decompose_matrix(bad)

    @pytest.mark.parametrize("entries, message", [
        # rows sum to 1, column 5 to 3/2
        ({(0, 5): F(1), (1, 5): F(1, 2), (1, 6): F(1, 2)}, "column 5"),
        ({(0, 5): F(1), (1, 6): F(1), (2, 6): F(1, 2)}, r"entry \(2, 6\)"),
    ])
    def test_rejects_bad_columns_and_rows(self, entries, message):
        bad = CoverMatrix(rows=(0, 1), cols=(5, 6), entries=entries, col_demand={})
        with pytest.raises(NotStochastic, match=message):
            decompose_matrix(bad)

    @staticmethod
    def check_steps(rows, entries, steps):
        """Each step is a matching on the positive entries left that covers
        every row and every column tight at that step, and the steps write the
        matrix exactly; entries are scaled so that rows sum to 1."""
        left = dict(entries)
        t = F(1)
        for M, p in steps:
            assert p > 0 and set(M) == set(rows)
            assert len(set(M.values())) == len(M)
            colsum: dict[int, F] = {}
            for (_, z), v in left.items():
                colsum[z] = colsum.get(z, 0) + v
            assert all(s <= t for s in colsum.values())
            assert {z for z, s in colsum.items() if s == t} <= set(M.values())
            for u, z in M.items():
                assert left.get((u, z), 0) >= p
                left[(u, z)] -= p
            left = {e: v for e, v in left.items() if v}
            t -= p
        assert t == 0 and not left

    def check_against_reference(self, cover):
        entries = {e: v for e, v in cover.entries.items() if v > 0}
        out = decompose_matrix(cover)
        self.check_steps(cover.rows, entries, out)
        D = lcm(*(v.denominator for v in entries.values()))
        ref = circulation_decompose(cover.rows, {e: int(v * D) for e, v in entries.items()})
        assert ref is not None
        self.check_steps(cover.rows, entries, [(M, F(d, D)) for M, d in ref])
        return len(out)

    def test_agrees_with_circulation_reference_on_pinned_covers(self):
        rng = random.Random(43)  # the graphs of TestPinnedSolutions
        steps = nontrivial = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(10, 20), rng.uniform(0.12, 0.25))
            w = {e: F(rng.randint(1, 2), rng.randint(1, 2)) for e in sorted(g.edges)}
            for sol in (leximin_lottery_graph(g), leximin_lottery_graph(g, w)):
                if sol.cover.rows:
                    nontrivial += 1
                    steps += self.check_against_reference(sol.cover)
        assert nontrivial >= 35 and steps > nontrivial

    def test_agrees_with_circulation_reference_on_random_matrices(self):
        # sums of t-weighted injective row -> column maps: rows sum to t and
        # columns to at most t; pinned columns sit in every map and stay tight
        rng = random.Random(36)
        tight = 0
        for _ in range(200):
            nr = rng.randint(1, 7)
            cols = list(range(100, 100 + rng.randint(nr, nr + 4)))
            pinned = rng.sample(cols, rng.randint(0, nr))
            rest = [c for c in cols if c not in pinned]
            parts = [rng.randint(1, 9) for _ in range(rng.randint(1, 7))]
            t = sum(parts)
            entries: dict[tuple[int, int], int] = {}
            for w in parts:
                assign = pinned + rng.sample(rest, nr - len(pinned))
                rng.shuffle(assign)
                for r, c in enumerate(assign):
                    entries[(r, c)] = entries.get((r, c), 0) + w
            cover = CoverMatrix(
                rows=tuple(range(nr)), cols=tuple(cols),
                entries={e: F(v, t) for e, v in entries.items()}, col_demand={},
            )
            self.check_against_reference(cover)
            tight += bool(pinned)
        assert tight >= 100


def make_instance(pairs, arcs):
    return KepInstance(pairs=frozenset(pairs), arcs={a: F(1) for a in arcs})


def mutual(edges):
    out = []
    for (u, v) in edges:
        out += [(u, v), (v, u)]
    return out


class TestInstanceEntryPoints:
    def test_leximin_matching_lottery(self):
        inst = make_instance([1, 2, 3], mutual([(1, 2), (2, 3), (1, 3)]))
        lot = leximin_matching_lottery(inst)
        q = lot.marginals([1, 2, 3])
        assert q == {1: F(2, 3), 2: F(2, 3), 3: F(2, 3)}

    def test_uniform_node_weights_match_unweighted(self):
        rng = random.Random(36)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            arcs = mutual(g.edges)
            if not arcs:
                continue
            inst = make_instance(g.vertices, arcs)
            plain = leximin_matching_lottery(inst)
            weighted = node_weight_leximin(inst, {v: F(3) for v in g.vertices})
            pairs = sorted(inst.pairs)
            assert plain.marginals(pairs) == weighted.marginals(pairs)

    def test_node_weights_match_derived_edge_weights(self, monkeypatch):
        # rational node weights of both signs and zeros: the closed form gives
        # the marginals of the edge weights w_u + w_v, over maximum-node-weight
        # maximum matchings only, and solves no weighted matching
        weighted_calls = []
        for mod in (lorenz, matching):
            solve = mod.max_weight_matching

            def recording(*args, solve=solve, **kwargs):
                weighted_calls.append(1)
                return solve(*args, **kwargs)

            monkeypatch.setattr(mod, "max_weight_matching", recording)
        rng = random.Random(40)
        restricted = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.6))
            if not g.edges:
                continue
            inst = make_instance(g.vertices, mutual(g.edges))
            w = {v: F(rng.randint(-3, 3), rng.randint(1, 3)) for v in g.vertices}
            weighted_calls.clear()
            lot = node_weight_leximin(inst, w)
            assert not weighted_calls
            pairs = sorted(inst.pairs)
            derived = {e: w[e[0]] + w[e[1]] for e in g.edges}
            assert lot.marginals(pairs) == edge_weight_reduction(inst, derived).marginals(pairs)
            maxm = maximum_matchings(g.edges)
            best = max(sum(w[v] for v in covered_set(m)) for m in maxm)
            for packing, _ in lot.support:
                edges = frozenset(norm_edge(*s.vertices) for s in packing.structures)
                assert edges in maxm and sum(w[v] for v in covered_set(edges)) == best
            restricted += lot.marginals(pairs) != leximin_matching_lottery(inst).marginals(pairs)
        assert restricted >= 15, restricted
        with pytest.raises(ValueError):
            leximin_lottery_graph(g, derived, node_weights=w)

    def test_edge_weight_reduction_support(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            if not g.edges:
                continue
            inst = make_instance(g.vertices, mutual(g.edges))
            w = {e: F(rng.randint(0, 4)) for e in g.edges}
            lot = edge_weight_reduction(inst, w)
            # support must consist only of maximum-weight maximum matchings
            maxm = maximum_matchings(g.edges)
            best = max(sum(w[e] for e in m) for m in maxm)
            for packing, p in lot.support:
                edges = frozenset(
                    norm_edge(*s.vertices) for s in packing.structures
                )
                assert edges in [frozenset(m) for m in maxm]
                assert sum(w[e] for e in edges) == best
            # marginals equal the oracle over that family
            fams = [
                covered_set(m) for m in maxm if sum(w[e] for e in m) == best
            ]
            want = leximin_marginals(g.vertices, fams)
            assert lot.marginals(sorted(g.vertices)) == want
            checked += 1
        assert checked >= 25

    def test_fixed_cardinality_reduction(self):
        # each graph runs with unit weights and with random rational weights
        rng = random.Random(38)
        wrng = random.Random(39)
        checked = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 7), 0.6)
            nu = matching_number(g)
            if nu < 1:
                continue
            mu = rng.randint(0, nu)  # admissible range is 0..ν
            inst = make_instance(g.vertices, mutual(g.edges))
            w = {e: F(wrng.randint(0, 6), wrng.randint(1, 3)) for e in g.edges}
            for weights in (None, w):
                lot = fixed_cardinality_reduction(inst, weights, mu=mu)
                value = {
                    m: sum((F(1) if weights is None else weights[e] for e in m), F(0))
                    for m in enumerate_matchings(g.edges)
                    if len(m) == mu
                }
                best = max(value.values())
                fams = [covered_set(m) for m, v in value.items() if v == best]
                want = leximin_marginals(g.vertices, fams)
                assert lot.marginals(sorted(g.vertices)) == want
                assert sum(p for _, p in lot.support) == 1
                for packing, _ in lot.support:
                    edges = frozenset(norm_edge(*s.vertices) for s in packing.structures)
                    assert value.get(edges) == best
            checked += 1
        assert checked >= 25

    @pytest.mark.parametrize("ndds", [frozenset(), frozenset({1, 2})], ids=["empty", "ndd-only"])
    def test_fixed_cardinality_reduction_without_pairs(self, ndds):
        # no pair to fix a level for: the seed packing, the empty matching,
        # with probability 1 after 0 rounds
        inst = KepInstance(pairs=frozenset(), ndds=ndds, arcs={})
        assert fixed_cardinality_reduction(inst, mu=0) == Lottery(((EMPTY_PACKING, F(1)),))
        master = RestrictedMaster([], lambda prices: (EMPTY_PACKING, F(0)), seed=EMPTY_PACKING)
        assert leximin_lottery(master) == (Lottery(((EMPTY_PACKING, F(1)),)), 0, F(0))
        assert master.pricing_calls == 0


class TestChecks:
    """Invariant checks that raise FairkepError rather than assert."""

    def must_match_overload(self):
        # two must-match pseudonodes and one optional one share a single left vertex
        pseudos = (Pseudo(0, (1,), ()), Pseudo(1, (2,), ()), Pseudo(2, (3,), (3,)))
        edges = frozenset({(0, 0), (0, 1), (0, 2)})
        return ContractedBipartite(
            left=(0,), pseudos=pseudos, edges=edges, attach={(0, z): (z + 1,) for z in range(3)}
        )

    def test_lambda_star_rejects_unmatchable_must_match(self):
        with pytest.raises(FairkepError, match="must-match"):
            peel_blocks(self.must_match_overload())

    def test_lambda_star_must_match_only(self):
        # every pseudonode must match, so their own ratio, where the first
        # trial runs, is 1: when Hall's condition holds one peel at 1 takes
        # them all; when it fails, no optional pseudonode can lower λ and the
        # ratio stalls
        pseudos = (Pseudo(0, (2,), ()), Pseudo(1, (3,), ()))

        def contraction(edges):
            left = tuple(sorted({u for u, _ in edges}))
            return ContractedBipartite(left=left, pseudos=pseudos, edges=frozenset(edges),
                                       attach={(u, z): (z + 2,) for u, z in edges})

        matchable = contraction({(0, 0), (0, 1), (1, 1)})
        peel = Peel(frozenset({0, 1}), frozenset(), frozenset({0, 1}), F(1))
        assert peel_blocks(matchable).peels == (peel,)
        overloaded = contraction({(0, 0), (0, 1)})
        with pytest.raises(FairkepError, match="must-match"):
            peel_blocks(overloaded)

    def test_solution_check_rejects_tampering(self):
        g = ug(range(8), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6), (3, 7)])
        sol = leximin_lottery_graph(g)
        sol.check()
        edges, p = sol.support[0]
        sol.support[0] = (edges, p + F(1, 7))
        with pytest.raises(FairkepError, match="sum to"):
            sol.check()
        sol.support[0] = (edges, p)
        sol.check()
        sol.marginals[0] -= F(1, 7)
        with pytest.raises(FairkepError, match="marginals"):
            sol.check()

    def test_engine_checks_its_answer(self, monkeypatch):
        # the engine compares the support's marginals with the formula's
        formula = lorenz._marginals_from_partition

        def wrong(graph, cb, partition):
            q = formula(graph, cb, partition)
            q[min(q)] -= F(1, 7)
            return q

        monkeypatch.setattr(lorenz, "_marginals_from_partition", wrong)
        inst = make_instance([1, 2, 3, 4], mutual([(1, 2), (2, 3), (1, 3), (3, 4)]))
        with pytest.raises(FairkepError, match="marginals"):
            leximin_matching_lottery(inst)

    def test_leximin_cg_rejects_inconsistent_pricing(self):
        # the pricing claims optimality for {1} during the maximin phase, then
        # produces a column covering both pairs, which that certificate excludes
        only_1 = Packing(frozenset({Cycle((1, 10))}))
        both = Packing(frozenset({Cycle((1, 10)), Cycle((2, 20))}))
        calls = []

        def pricing(prices):
            calls.append(prices)
            packing = only_1 if len(calls) == 1 else both
            return packing, sum((prices.get(v, 0) for v in packing.covered), F(0))

        master = RestrictedMaster([1, 2], pricing, seed=only_1)
        with pytest.raises(FairkepError, match="above the certified bound"):
            leximin_lottery(master)
        assert len(calls) >= 2


def random_contraction(rng):
    """A random A(G) × pseudonodes graph: σ of 1–4, some must-match pseudonodes."""
    left = tuple(range(rng.randint(1, 6)))
    pseudos = []
    for pid in range(rng.randint(1, 7)):
        sigma = 0 if rng.random() < 0.2 else rng.randint(1, 4)
        members = tuple(1000 * (pid + 1) + i for i in range(2 * max(sigma, 1) - 1))
        pseudos.append(Pseudo(pid, members, members[:sigma]))
    edges = frozenset(
        (u, p.pid) for u in left for p in pseudos if rng.random() < 0.4
    )
    attach = {(u, pid): (pseudos[pid].members[0],) for (u, pid) in edges}
    return ContractedBipartite(left=left, pseudos=tuple(pseudos), edges=edges, attach=attach)


def brute_lambda(cb):
    """min over pseudonode sets S with Σσ > 0 of (|N(S)| - #musts(S) + Σ_opt(σ - 1)) / Σσ,
    capped at 1; None when the must-match pseudonodes fail Hall's condition (the
    engine's contractions never do, and `_min_ratio_block` raises on them)."""
    neigh = {p.pid: frozenset(u for (u, z) in cb.edges if z == p.pid) for p in cb.pseudos}
    best = F(1)
    for k in range(1, len(cb.pseudos) + 1):
        for S in combinations(cb.pseudos, k):
            n = len(frozenset().union(*(neigh[p.pid] for p in S)))
            musts = sum(1 for p in S if p.must_match)
            sigma = sum(p.sigma for p in S)
            if sigma == 0:
                if n < musts:
                    return None
                continue
            best = min(best, F(n - musts + sum(p.sigma - 1 for p in S if not p.must_match), sigma))
    return best


def min_ratio_block(cb):
    """`lorenz._min_ratio_block` over every pseudonode and left vertex, with
    the neighbourhoods `peel_blocks` builds."""
    neigh = {p.pid: set() for p in cb.pseudos}
    for (u, pid) in cb.edges:
        neigh[pid].add(u)
    return lorenz._min_ratio_block(cb, list(cb.pseudos), neigh, frozenset(cb.left))


class TestLambdaStarBruteForce:
    def test_lambda_matches_subset_ratio(self):
        rng = random.Random(41)
        fractional = musts = unmatchable = musts_only = 0
        for _ in range(300):
            cb = random_contraction(rng)
            want = brute_lambda(cb)
            if want is None:
                # Hall's condition fails for the must-match pseudonodes, also
                # when no optional pseudonode is left to bound the ratio
                with pytest.raises(FairkepError, match="must-match pseudonodes unmatchable"):
                    min_ratio_block(cb)
                unmatchable += 1
                musts_only += all(p.must_match for p in cb.pseudos)
                continue
            lam = min_ratio_block(cb).lam
            assert isinstance(lam, Fraction) and lam == want
            fractional += lam.denominator > 1
            musts += any(p.must_match for p in cb.pseudos)
        assert fractional >= 50 and musts >= 50
        assert unmatchable >= 20 and musts_only >= 1

    def test_cover_rows_and_columns_exact(self):
        # the engine's own contractions: edge weights restrict removal sets and
        # leave some pseudonodes must-match
        rng = random.Random(42)
        musts = fractional = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(5, 14), rng.uniform(0.1, 0.4))
            w = {e: F(rng.randint(0, 4), rng.randint(1, 2)) for e in sorted(g.edges)}
            for sol in (leximin_lottery_graph(g), leximin_lottery_graph(g, w)):
                cover, lam_of = sol.cover, sol.partition.lambda_of()
                for p in sol.cb.pseudos:
                    lam = lam_of[p.pid]
                    want = F(1) if p.must_match else max(F(0), p.sigma * lam - (p.sigma - 1))
                    assert cover.col_demand[p.pid] == want
                    musts += p.must_match
                    fractional += want.denominator > 1
                rows = {u: F(0) for u in cover.rows}
                cols = {z: F(0) for z in cover.cols}
                for (u, z), v in cover.entries.items():
                    assert isinstance(v, Fraction) and v > 0 and (u, z) in sol.cb.edges
                    rows[u] += v
                    cols[z] += v
                assert all(s == 1 for s in rows.values())
                assert cols == dict(cover.col_demand)
        assert musts >= 10 and fractional >= 20


def random_split_contraction(rng):
    """A random contraction whose left vertices and pseudonodes are dealt into
    1–3 groups with no edge between groups: several components, isolated
    pseudonodes and left vertices, and must-match pseudonodes (σ = 0)."""
    groups = rng.randint(1, 3)
    left = tuple(range(rng.randint(0, 9)))
    pseudos = []
    for pid in range(rng.randint(1, 9)):
        sigma = 0 if rng.random() < 0.2 else rng.randint(1, 4)
        members = tuple(1000 * (pid + 1) + i for i in range(2 * max(sigma, 1) - 1))
        pseudos.append(Pseudo(pid, members, members[:sigma]))
    group = {x: rng.randrange(groups) for x in left + tuple(1000 + p.pid for p in pseudos)}
    density = rng.uniform(0.2, 0.7)
    edges = frozenset(
        (u, p.pid) for u in left for p in pseudos
        if group[u] == group[1000 + p.pid] and rng.random() < density
    )
    attach = {(u, pid): (pseudos[pid].members[0],) for (u, pid) in edges}
    return ContractedBipartite(left=left, pseudos=tuple(pseudos), edges=edges, attach=attach)


class TestPeelBlocksReference:
    def test_matches_global_dinkelbach_loop(self):
        # peeling one component at a time gives the peels of the global loop
        # (a Dinkelbach iteration from λ = 1 over everything left per block),
        # or the same error: a must-match set failing Hall's condition, or
        # left vertices stranded with no block at λ = 1
        rng = random.Random(44)
        seen = Counter()
        for _ in range(4000):
            cb = random_split_contraction(rng)
            neigh = {p.pid: frozenset(u for (u, z) in cb.edges if z == p.pid) for p in cb.pseudos}
            try:
                want = reference_peel_blocks(cb).peels
            except FairkepError as e:
                with pytest.raises(FairkepError) as got:
                    peel_blocks(cb)
                if "must-match" in str(e):
                    assert "must-match" in str(got.value)
                    seen["hall fails"] += 1
                else:
                    assert str(got.value) == str(e) == "left vertices remained after peeling"
                    seen["left stranded"] += 1
                continue
            assert peel_blocks(cb).peels == want
            seen["peeled"] += 1
            # components of two or more pseudonodes, and how many peels each spans
            spans, todo = [], set(neigh)
            while todo:
                comp, grow = set(), {todo.pop()}
                while grow:
                    comp |= grow
                    reach = frozenset().union(*(neigh[z] for z in grow))
                    grow = {z for z in todo if neigh[z] & reach}
                    todo -= grow
                if len(comp) > 1:
                    spans.append(sum(bool(comp & (pl.pids | pl.must_pids)) for pl in want))
            seen["several components"] += len(spans) >= 2
            seen["multi-block component"] += any(n >= 2 for n in spans)
            seen["isolated pseudonode"] += any(not n for n in neigh.values())
            seen["isolated left vertex"] += bool(set(cb.left).difference(*neigh.values()))
            musts = [z for z in neigh if cb.pseudo(z).must_match]
            tight = any(len(frozenset().union(*(neigh[z] for z in M))) == k
                        for k in range(1, len(musts) + 1) for M in combinations(musts, k))
            seen["tight musts" if tight else "slack musts"] += bool(musts)
        assert min(seen.values()) >= 100 and len(seen) == 9, seen


SOLUTION_PARTS = ("peels", "cover", "demands", "decomposition", "support", "marginals")


def solution_digest(sol, parts=SOLUTION_PARTS):
    """One line per solution part: peels with λ, cover, column demands,
    decomposition, support, marginals (or the named subset of them)."""
    every = {
        "peels": lambda: [(sorted(pl.left), sorted(pl.pids), sorted(pl.must_pids), str(pl.lam))
                          for pl in sol.partition.peels],
        "cover": lambda: sorted((e, str(v)) for e, v in sol.cover.entries.items()),
        "demands": lambda: sorted((z, str(v)) for z, v in sol.cover.col_demand.items()),
        "decomposition": lambda: [(sorted(M.items()), str(p)) for M, p in sol.decomposition],
        "support": lambda: [(sorted(edges), str(p)) for edges, p in sol.support],
        "marginals": lambda: sorted((v, str(x)) for v, x in sol.marginals.items()),
    }
    return repr([every[name]() for name in parts])


class TestPinnedSolutions:
    # sha256 over the digests of 30 unweighted and 30 edge-weighted solutions.
    # INVARIANT covers the parts fixed by the lottery itself (peels with λ,
    # column demands, marginals), recorded with Edmonds-Karp flows and a
    # circulation per decomposition step; PINNED also pins the flow-dependent
    # parts (cover entries, decomposition, support), recorded with blocking
    # flows and the repaired decomposition.  NODE_INVARIANT covers the same
    # parts of 30 node-weighted solutions.
    INVARIANT = "1578f1bb800bf9900555850b4d24d1b2af7fd581742f586884f3f1aca2c74202"
    PINNED = "82b3684a92112a4251ef0bdf49cb6a450b2df3d439c50e60258d4aef0e465b42"
    NODE_INVARIANT = "47a84f42a1566c7d01e7f59f3468109c02c1ead12c8b71ce58ce6a63863b64f2"

    def digest(self, parts=SOLUTION_PARTS):
        rng = random.Random(43)
        h = hashlib.sha256()
        nontrivial = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(10, 20), rng.uniform(0.12, 0.25))
            w = {e: F(rng.randint(1, 2), rng.randint(1, 2)) for e in sorted(g.edges)}
            for sol in (leximin_lottery_graph(g), leximin_lottery_graph(g, w)):
                sol.check()
                nontrivial += bool(sol.partition.peels)
                h.update(solution_digest(sol, parts).encode())
        assert nontrivial >= 40
        return h.hexdigest()

    def test_invariant_parts_unchanged(self):
        assert self.digest(("peels", "demands", "marginals")) == self.INVARIANT

    def test_full_solutions_unchanged(self):
        assert self.digest() == self.PINNED

    def test_node_weighted_invariant_parts_unchanged(self):
        # 30 node-weighted solves (rational weights of both signs and zeros),
        # recorded when node weights still went through the derived edge
        # weights w_u + w_v and maximum-weight inner matchings
        rng = random.Random(47)
        h = hashlib.sha256()
        nontrivial = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(10, 20), rng.uniform(0.12, 0.25))
            w = {v: F(rng.randint(-2, 4), rng.randint(1, 3)) for v in sorted(g.vertices)}
            sol = leximin_lottery_graph(g, node_weights=w)
            sol.check()
            nontrivial += bool(sol.partition.peels)
            h.update(solution_digest(sol, ("peels", "demands", "marginals")).encode())
        assert nontrivial >= 20
        assert h.hexdigest() == self.NODE_INVARIANT

    def test_sparsify_matches_reference(self, monkeypatch):
        # every support reduction of the 60 solves, against the reduced-echelon
        # kernel that the forward echelon replaced
        sizes = []

        def both(covers, weights):
            out = caratheodory(covers, weights)
            assert out == reference_caratheodory(covers, weights)
            sizes.append(len(weights))
            return out

        monkeypatch.setattr(lorenz, "caratheodory", both)
        assert self.digest() == self.PINNED
        assert len(sizes) == 34 and max(sizes) == 19

    def test_peel_flow_count(self, monkeypatch):
        # every max flow the peeling runs over the 60 solves (170 with a
        # Dinkelbach iteration from λ = 1 over everything left per block); a
        # contraction of lone optional pseudonodes runs none
        flows = []

        class CountingMaxFlow(lorenz._MaxFlow):
            def run(self, *args):
                flows.append(1)
                return super().run(*args)

        monkeypatch.setattr(lorenz, "_MaxFlow", CountingMaxFlow)
        self.digest(("peels",))
        assert len(flows) == 38
        flows.clear()
        pseudos = tuple(Pseudo(z, (10 * z,), (10 * z,)) for z in range(4))
        edges = frozenset({(0, 0), (1, 1), (2, 1), (3, 2)})
        cb = ContractedBipartite(left=(0, 1, 2, 3), pseudos=pseudos, edges=edges,
                                 attach={(u, z): (10 * z,) for u, z in edges})
        assert peel_blocks(cb).peels == reference_peel_blocks(cb).peels
        assert [pl.lam for pl in peel_blocks(cb).peels] == [F(0), F(1)]
        assert flows == []


class TestOneSolveFrame:
    def test_matches_column_generation_leximin(self):
        # an independent exact path: fair's column generation over maximum
        # 2-cycle packings, priced by the packing oracle
        for n in range(12, 24):
            pool = gen.generate_instance(gen.GenConfig(n_pairs=n, seed=7000 + n))
            pairs = sorted(pool.pairs)
            want = solve_leximin(pool, MATCHING_POLICY).lottery.marginals(pairs)
            assert leximin_matching_lottery(pool).marginals(pairs) == want

    def test_inner_matchings_solved_once_per_vertex_set(self, monkeypatch):
        # the admissible restriction and the support's assembly share one
        # cache of maximum-weight inner matchings; sampling solves none
        calls = []
        solve = lorenz.max_weight_matching

        def recording(sub, *args, **kwargs):
            calls.append(sub.vertices)
            return solve(sub, *args, **kwargs)

        monkeypatch.setattr(lorenz, "max_weight_matching", recording)
        rng = random.Random(44)
        shared = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(6, 14), rng.uniform(0.15, 0.4))
            w = {e: F(rng.randint(1, 3)) for e in sorted(g.edges)}
            calls.clear()
            sol = leximin_lottery_graph(g, w)
            assert len(calls) == len(set(calls))
            solved = len(calls)
            for seed in range(3):
                draw_matching(sol, seed)
            assert len(calls) == solved
            shared += any(len(z.members) > 1 for z in sol.cb.pseudos)
        assert shared >= 10


class TestAdmissibleRestriction:
    def test_plain_weights_match_size_tiered_reference(self, monkeypatch):
        """The assignment's admissible edges and left-out pseudonodes under its
        plain weights equal those under the two-tier weights (pseudonode size
        first: s_z on an edge, s_z - 1 on a pseudonode left out), which the
        restriction drops as constant over its assignments."""
        from fairkep.matching import bipartite_admissible_subgraph, lex_weights

        sizes: dict = {}
        contract = lorenz.contract

        def recording_contract(*args, **kwargs):
            cb = contract(*args, **kwargs)
            sizes.clear()
            sizes.update({p.pid: len(p.members) for p in cb.pseudos})
            return cb

        compared = restricted = 0

        def compared_restriction(rows, cols, weights, bonus):
            nonlocal compared, restricted
            tiers = {("edge", e): (sizes[e[1]], w) for e, w in weights.items()}
            tiers.update((("out", z), (sizes[z] - 1, b)) for z, b in bonus.items())
            tiered = lex_weights(tiers, len(cols))
            got = bipartite_admissible_subgraph(rows, cols, weights, bonus)
            assert got == bipartite_admissible_subgraph(
                rows, cols, {e: tiered[("edge", e)] for e in weights},
                {z: tiered[("out", z)] for z in bonus},
            )
            compared += 1
            restricted += got != (set(weights), set(cols))
            return got

        monkeypatch.setattr(lorenz, "contract", recording_contract)
        monkeypatch.setattr(lorenz, "bipartite_admissible_subgraph", compared_restriction)
        rng = random.Random(45)
        for _ in range(60):
            g = random_graph(rng, rng.randint(6, 16), rng.uniform(0.12, 0.35))
            w = {e: F(rng.randint(0, 4), rng.randint(1, 3)) for e in sorted(g.edges)
                 if rng.random() < 0.9}
            leximin_lottery_graph(g, w).check()
        assert compared == 60 and restricted >= 20, (compared, restricted)

    def test_equals_doubled_graph_reference(self):
        """One assignment solve restricts the contraction exactly as the doubled
        graph did (admissible edges, removal tuples, must-match pseudonodes,
        attach vertices), under equal, node-derived, signed and rational
        weights (the equal ones as the case that restricts nothing).  Under
        node-derived weights the closed-form restriction, from the node
        weights over unweighted inner matchings, equals it too."""
        rng = random.Random(46)
        restricted = Counter()
        for k in range(1000):
            n = rng.randint(6, 40)
            g = random_graph(rng, n, rng.uniform(1.0, 3.0) / n)
            regime = k % 4
            if regime == 0:
                w = {e: F(1) for e in g.edges}
            elif regime == 1:
                node = {v: F(rng.randint(1, 5)) for v in g.vertices}
                w = {e: node[e[0]] + node[e[1]] for e in g.edges}
            elif regime == 2:
                w = {e: F(rng.randint(-3, 3)) for e in g.edges if rng.random() < 0.9}
            else:
                w = {e: F(rng.randint(0, 6), rng.randint(1, 4)) for e in g.edges}
            cb = lorenz.contract(g, gallai_edmonds(g))
            internals = lorenz._Internals(g, w)
            want = doubled_graph_admissible(cb, internals)
            got = lorenz._admissible(cb, internals)
            assert got == want, (k, sorted(g.edges), w)
            if regime == 1:
                closed = lorenz._admissible(cb, lorenz._Internals(g, None), node)
                assert closed == want, (k, sorted(g.edges), node)
            restricted[regime] += got.edges != cb.edges or got.pseudos != cb.pseudos
        # equal weights tie every maximum matching, so they restrict nothing
        assert restricted[0] == 0 and min(restricted[r] for r in (1, 2, 3)) >= 50, restricted
