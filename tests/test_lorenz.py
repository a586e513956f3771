"""Leximin matching lotteries: engine vs enumerated-polytope oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fairkep.core import Cycle, KepInstance, FairkepError, Packing, lorenz_compare, DOMINATES, EQUAL
from fairkep.fair import RestrictedMaster, leximin_lottery
from fairkep.lorenz import (
    ContractedBipartite,
    CoverMatrix,
    NotStochastic,
    Pseudo,
    decompose_matrix,
    edge_weight_reduction,
    fixed_cardinality_reduction,
    lambda_star,
    leximin_lottery_graph,
    leximin_matching_lottery,
    node_weight_leximin,
    peel_blocks,
    sample_matching,
    sparsify_support,
)
from fairkep.matching import UGraph, matching_number, norm_edge
from helpers import (
    covered_set,
    enumerate_matchings,
    leximin_marginals,
    maximum_matchings,
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
        sol = leximin_lottery_graph(ug([1, 2], [(1, 2)]))
        assert sol.perfect and sol.marginals == {1: F(1), 2: F(1)}

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


class TestSampling:
    def test_deterministic_and_valid(self):
        rng = random.Random(33)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            sol = leximin_lottery_graph(g)
            for seed in range(5):
                m1 = sample_matching(sol, seed)
                assert m1 == sample_matching(sol, seed)
                check_is_max_matching(g, m1)

    def test_frequencies_approach_marginals(self):
        g = ug([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        sol = leximin_lottery_graph(g)
        n = 1200
        hits = {v: 0 for v in g.vertices}
        for seed in range(n):
            for (a, b) in sample_matching(sol, seed):
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
            mu = rng.randint((nu + 1) // 2, nu)  # admissible range is ν/2..ν
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
            lambda_star(self.must_match_overload())
        with pytest.raises(FairkepError, match="must-match"):
            peel_blocks(self.must_match_overload())

    def test_leximin_cg_rejects_inconsistent_pricing(self):
        # the pricing claims optimality for {1} during the maximin phase, then
        # produces a column covering both pairs: no pair saturates
        only_1 = Packing(frozenset({Cycle((1, 10))}))
        both = Packing(frozenset({Cycle((1, 10)), Cycle((2, 20))}))
        calls = []

        def pricing(prices):
            calls.append(prices)
            packing = only_1 if len(calls) == 1 else both
            return packing, sum((prices.get(v, 0) for v in packing.covered), F(0))

        master = RestrictedMaster([1, 2], pricing, exact=True, seed=only_1)
        with pytest.raises(FairkepError, match="must saturate some pair"):
            leximin_lottery(master)
        assert len(calls) >= 2
