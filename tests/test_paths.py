"""Maximum 2-path / 2-cycle+2-path packing with deficiency certificates."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from fairkep import fair, oracle, paths
from fairkep.core import Chain, FairkepError, KepInstance, Packing
from fairkep.gen import GenConfig, generate_instance
from fairkep.paths import (
    build_3dm_gadget,
    max_2path_packing,
    second_arc_matching,
)

F = Fraction


def make_instance(pairs, ndds, arcs):
    return KepInstance(
        pairs=frozenset(pairs), ndds=frozenset(ndds), arcs={a: F(1) for a in arcs}
    )


def all_2paths(inst):
    out = []
    for a in sorted(inst.ndds):
        for (t, h) in inst.arcs:
            if t == a:
                for (t2, h2) in inst.arcs:
                    if t2 == h and h2 != a and h2 != h:
                        out.append((a, h, h2))
    return out


def brute_pure(inst):
    cands = all_2paths(inst)
    best = 0

    def rec(i, used_v, used_n, k):
        nonlocal best
        best = max(best, k)
        for j in range(i, len(cands)):
            a, x, y = cands[j]
            if a in used_n or x in used_v or y in used_v:
                continue
            rec(j + 1, used_v | {x, y}, used_n | {a}, k + 1)

    rec(0, set(), set(), 0)
    return 2 * best


def brute_mixed(inst):
    cands = [("p",) + c for c in all_2paths(inst)] + [
        ("c", None, u, v) for (u, v) in inst.undirected_edges()
    ]
    best = 0

    def rec(i, used_v, used_n, k):
        nonlocal best
        best = max(best, k)
        for j in range(i, len(cands)):
            kind, a, x, y = cands[j]
            if x in used_v or y in used_v or (a is not None and a in used_n):
                continue
            rec(j + 1, used_v | {x, y}, used_n | ({a} if a else set()), k + 1)

    rec(0, set(), set(), 0)
    return 2 * best


def brute_a_perfect(inst):
    cands = all_2paths(inst)
    A = sorted(inst.ndds)

    def rec(i, used_v):
        if i == len(A):
            return True
        for (a, x, y) in cands:
            if a == A[i] and x not in used_v and y not in used_v:
                if rec(i + 1, used_v | {x, y}):
                    return True
        return False

    return rec(0, set())


def random_instance(rng, n_pairs, n_ndds, p_arc):
    pairs = list(range(n_pairs))
    ndds = list(range(100, 100 + n_ndds))
    arcs = [
        (u, v)
        for u in pairs + ndds
        for v in pairs
        if u != v and rng.random() < p_arc
    ]
    return make_instance(pairs, ndds, arcs)


class TestSmallExamples:
    def test_single_chain(self):
        inst = make_instance([1, 2], [100], [(100, 1), (1, 2)])
        pk, cert = max_2path_packing(inst)
        assert pk == Packing.of(Chain(ndd=100, pairs=(1, 2)))
        assert cert.deficiency == 0 == cert.exposed

    def test_two_ndds_one_path(self):
        inst = make_instance([1, 2], [100, 101], [(100, 1), (101, 1), (1, 2)])
        pk, cert = max_2path_packing(inst)
        assert pk.cardinality == 2 and len(inst.ndds) - len(pk.structures) == 1
        assert cert.ndd_set == frozenset({100, 101}) and len(cert.matching) == 1
        assert cert.deficiency == 1 == cert.exposed

    def test_certificate_that_fails_raises(self, monkeypatch):
        # with no second arc matched the deficiency (2) exceeds the exposed NDDs (1)
        inst = make_instance([1, 2], [100, 101], [(100, 1), (101, 1), (1, 2)])
        monkeypatch.setattr(paths, "second_arc_matching", lambda instance, S: frozenset())
        with pytest.raises(FairkepError, match="does not witness optimality"):
            max_2path_packing(inst)

    def test_reassignment_case(self):
        inst = make_instance(
            [1, 2, 3, 4, 5],
            [100, 101],
            [(100, 1), (1, 2), (101, 3), (3, 2), (2, 4)],
        )
        pk, _ = max_2path_packing(inst)
        assert pk.cardinality == brute_pure(inst)


class TestRandomSweeps:
    def test_pure_vs_oracle_on_generated_pools(self):
        # the oracle is an independent exact path; its branch-and-bound slows
        # sharply from about 18 pairs with 6 NDDs, so the pools stay smaller
        for n, k, s in product((10, 12, 14), (2, 3, 4), range(3)):
            cfg = GenConfig(n_pairs=n, n_ndds=k, seed=1000 * n + 10 * k + s)
            inst = generate_instance(cfg)
            pk, cert = max_2path_packing(inst)
            assert pk.cardinality == oracle.PackingFamily(inst, paths.TWO_PATH).maximum()[1], cfg
            assert cert.exposed == len(inst.ndds) - len(pk.structures)

    def test_pure_vs_brute(self):
        rng = random.Random(7)
        for trial in range(250):
            inst = random_instance(rng, rng.randint(2, 9), rng.randint(1, 3), rng.uniform(0.1, 0.5))
            bf = brute_pure(inst)
            pk, cert = max_2path_packing(inst)
            assert pk.cardinality == bf, trial
            assert cert.deficiency == cert.exposed

    def test_mixed_vs_brute(self):
        rng = random.Random(17)
        for trial in range(250):
            inst = random_instance(rng, rng.randint(2, 8), rng.randint(0, 2), rng.uniform(0.15, 0.55))
            packing, _, _ = fair.best_packing(inst, paths.TWO_CYCLE_TWO_PATH)
            assert packing.cardinality == brute_mixed(inst), trial

    def test_hall_condition(self):
        rng = random.Random(27)
        for trial in range(120):
            n, k = rng.randint(2, 7), rng.randint(1, 4)
            inst = random_instance(rng, n, k, rng.uniform(0.15, 0.5))
            hall = all(
                len(second_arc_matching(inst, set(sub))) >= len(sub)
                for r in range(1, k + 1)
                for sub in combinations(sorted(inst.ndds), r)
            )
            assert hall == brute_a_perfect(inst), trial


def coverable_all(inst):
    out = {u: [v for (a, v) in inst.arcs if a == u] for u in inst.pairs | inst.ndds}
    chains = []
    for a in sorted(inst.ndds):
        for v1 in out[a]:
            for v2 in out[v1]:
                for v3 in out[v2]:
                    if len({v1, v2, v3}) == 3:
                        chains.append((a, v1, v2, v3))
    target = inst.pairs

    def rec(cov, used_n, i):
        if cov == target:
            return True
        for j in range(i, len(chains)):
            a, v1, v2, v3 = chains[j]
            if a in used_n or {v1, v2, v3} & cov:
                continue
            if rec(cov | {v1, v2, v3}, used_n | {a}, j + 1):
                return True
        return False

    return rec(frozenset(), set(), 0)


class Test3dmGadget:
    def test_coverability_tracks_perfect_matchings(self):
        assert coverable_all(build_3dm_gadget([(0, 0, 0)], 1))
        assert not coverable_all(build_3dm_gadget([], 1))
        assert coverable_all(build_3dm_gadget([(0, 0, 0), (1, 1, 1)], 2))
        # both triples collide on x = 0: no perfect 3DM
        assert not coverable_all(build_3dm_gadget([(0, 0, 0), (0, 1, 1)], 2))
