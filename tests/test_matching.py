"""Blossom maximum matching, Gallai-Edmonds structure, weighted matchings."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from fairkep.matching import (
    NoPerfectMatching,
    NotBipartite,
    UGraph,
    bipartite_admissible_subgraph,
    bipartition,
    gallai_edmonds,
    has_perfect_matching,
    lex_weights,
    matching_number,
    matching_weight,
    max_matching,
    max_weight_matching,
    norm_edge,
    perfect_matching,
)
from helpers import enumerate_matchings, is_factor_critical, max_weight_perfect_matching_edges

F = Fraction


def ug(vertices, edges):
    return UGraph.of(vertices, [norm_edge(*e) for e in edges])


def random_graph(rng, n, p):
    vs = list(range(n))
    es = [(u, v) for u, v in combinations(vs, 2) if rng.random() < p]
    return ug(vs, es)


def check_matching(graph, m):
    seen = set()
    for (u, v) in m:
        assert norm_edge(u, v) in graph.edges
        assert u not in seen and v not in seen
        seen.update((u, v))


class TestMaxMatching:
    def test_triangle(self):
        g = ug([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        assert matching_number(g) == 1
        assert not has_perfect_matching(g)

    def test_blossom_needed(self):
        # two triangles joined by an edge: perfect matching exists but a
        # bipartite-style search without blossoms would miss it
        g = ug(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert matching_number(g) == 3
        check_matching(g, perfect_matching(g))

    def test_against_networkx_random(self):
        rng = random.Random(12)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 11), rng.uniform(0.1, 0.6))
            m = max_matching(g)
            check_matching(g, m)
            nxg = nx.Graph(list(g.edges))
            nxg.add_nodes_from(g.vertices)
            assert len(m) == len(nx.max_weight_matching(nxg, maxcardinality=True))

    def test_perfect_matching_raises(self):
        with pytest.raises(NoPerfectMatching):
            perfect_matching(ug([1, 2, 3], [(1, 2)]))


class TestGallaiEdmonds:
    def brute_D(self, g):
        nu = matching_number(g)
        return frozenset(
            v for v in g.vertices if matching_number(g.without([v])) == nu
        )

    def test_structure_random(self):
        rng = random.Random(4)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.6))
            ge = gallai_edmonds(g)
            D = self.brute_D(g)
            assert ge.D == D
            adj = g.adjacency()
            assert ge.A == frozenset(
                u for v in D for u in adj[v] if u not in D
            )
            assert ge.C == g.vertices - ge.D - ge.A
            assert ge.nu == matching_number(g)
            # components of D are factor-critical
            for comp in ge.components_D:
                assert is_factor_critical(g.induced(comp))

    def test_matching_is_maximum(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            ge = gallai_edmonds(g)
            m = {norm_edge(u, v) for u, v in ge.matching.items() if u < v}
            check_matching(g, m)
            assert len(m) == ge.nu


class TestFactorCritical:
    def test_examples(self):
        assert is_factor_critical(ug([1, 2, 3], [(1, 2), (2, 3), (1, 3)]))
        assert not is_factor_critical(ug([1, 2], [(1, 2)]))  # even order
        assert not is_factor_critical(ug([1, 2, 3], [(1, 2)]))


class TestWeighted:
    def brute_best_weight(self, g, w, size=None):
        best = None
        for m in enumerate_matchings(g.edges):
            if size is not None and len(m) != size:
                continue
            val = matching_weight(m, w)
            if best is None or val > best:
                best = val
        return best

    def test_max_weight_exact_random(self):
        rng = random.Random(21)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            w = {e: F(rng.randint(-3, 9), rng.randint(1, 4)) for e in g.edges}
            m = max_weight_matching(g, w)
            check_matching(g, m)
            assert matching_weight(m, w) == self.brute_best_weight(g, w)

    def test_perfect_matching_value(self):
        rng = random.Random(22)
        for _ in range(60):
            g = random_graph(rng, rng.choice([4, 6]), 0.6)
            w = {e: F(rng.randint(0, 9)) for e in g.edges}
            m = max_weight_matching(g, w, maxcardinality=True)
            want = self.brute_best_weight(g, w, size=len(g.vertices) // 2)
            if want is None:
                assert 2 * len(m) < len(g.vertices)
            else:
                check_matching(g, m)
                assert 2 * len(m) == len(g.vertices)
                assert matching_weight(m, w) == want


class TestLexWeights:
    def test_primary_tier_dominates(self):
        tiers = {
            (1, 2): (F(1, 3), F(100)),
            (3, 4): (F(2, 3), F(-100)),
        }
        w = lex_weights(tiers, n_vertices=4)
        # higher primary tier wins despite the secondary gap
        assert w[(3, 4)] > w[(1, 2)]

    def test_secondary_breaks_primary_ties(self):
        tiers = {(1, 2): (F(1), F(2)), (3, 4): (F(1), F(5))}
        w = lex_weights(tiers, n_vertices=4)
        assert w[(3, 4)] > w[(1, 2)]
        # and sums of secondaries never bridge a primary unit
        assert abs(w[(3, 4)] - w[(1, 2)]) < 1


class TestBipartition:
    def test_splits(self):
        left, right = bipartition(ug([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]))
        assert {frozenset(left), frozenset(right)} == {
            frozenset({1, 3}),
            frozenset({2, 4}),
        }

    def test_odd_cycle(self):
        with pytest.raises(NotBipartite):
            bipartition(ug([1, 2, 3], [(1, 2), (2, 3), (1, 3)]))


class TestAdmissibleEdges:
    def random_bipartite(self, rng):
        k = rng.randint(1, 6)
        left = list(range(k))
        right = list(range(10, 10 + k + rng.choice([0, 0, 0, 1])))
        p = rng.uniform(0.3, 0.9)
        edges = [(u, v) for u in left for v in right if rng.random() < p]
        # half-integer weights from a tiny range, so ties and non-unique duals abound
        weights = {e: F(rng.randint(-2, 4), rng.choice([1, 2])) for e in edges}
        return ug(left + right, edges), weights

    def test_against_enumerated_optima(self):
        rng = random.Random(41)
        solved = 0
        for _ in range(400):
            g, w = self.random_bipartite(rng)
            want = max_weight_perfect_matching_edges(g.vertices, g.edges, w)
            if want is None:
                with pytest.raises(NoPerfectMatching):
                    bipartite_admissible_subgraph(g, w)
                continue
            assert bipartite_admissible_subgraph(g, w) == want
            solved += 1
        assert solved >= 150

    def test_tuple_vertices_and_missing_weights(self):
        # a 4-cycle with one heavy edge pair; weights default to 0
        a, b, c, d = ("L", 1), ("L", 2), ("R", 1), ("R", 2)
        g = UGraph.of([a, b, c, d], [norm_edge(a, c), norm_edge(a, d), norm_edge(b, c), norm_edge(b, d)])
        w = {norm_edge(a, c): F(1), norm_edge(b, d): F(1)}
        assert bipartite_admissible_subgraph(g, w) == {norm_edge(a, c), norm_edge(b, d)}
        assert bipartite_admissible_subgraph(g, {}) == set(g.edges)

    def test_errors(self):
        with pytest.raises(NotBipartite):
            bipartite_admissible_subgraph(ug([1, 2, 3], [(1, 2), (2, 3), (1, 3)]), {})
        with pytest.raises(NoPerfectMatching):
            bipartite_admissible_subgraph(ug([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)]), {})
        with pytest.raises(NoPerfectMatching):
            bipartite_admissible_subgraph(ug([1, 2, 3], [(1, 2), (2, 3)]), {})
        assert bipartite_admissible_subgraph(ug([], []), {}) == set()
