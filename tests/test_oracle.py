"""Packing enumeration and max-price oracle vs exhaustive subset search."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fairkep import gen, oracle
from fairkep.core import Cycle, KepInstance, StructurePolicy
from fairkep.oracle import (
    OracleInfeasible,
    OracleQuery,
    _milp_max_price,
    always_covered_count,
    coverage_loss,
    delta_star,
    enumerate_structures,
    max_price_packing,
)

F = Fraction
CYC3 = StructurePolicy(max_cycle_len=3)


def make(pairs, ndds, arcs):
    return KepInstance(
        pairs=frozenset(pairs), ndds=frozenset(ndds), arcs={a: F(1) for a in arcs}
    )


# 4-pair graph with one 2-cycle and one 3-cycle sharing a vertex
SHARED = make([1, 2, 3, 4], [], [(1, 2), (2, 1), (2, 3), (3, 4), (4, 2)])
# three 3-cycles overlapping pairwise on vertices 2 and 3
TRIPLE = make(
    range(1, 8),
    [],
    [(1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 2), (3, 6), (6, 7), (7, 3)],
)


def unit(inst):
    return {v: F(1) for v in inst.pairs}


def brute_best(instance, policy, prices, must=frozenset(), forb=frozenset(), card=("free", None)):
    structs = [
        s for s in enumerate_structures(instance, policy) if not (set(s.covered()) & forb)
    ]
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
                val + sum(prices.get(v, F(0)) for v in cov),
                cnt + len(cov),
            )

    rec(0, set(), set(), F(0), 0)
    return best


def assert_cardinality(packing, card):
    mode, k = card
    n = len(packing.covered)
    assert mode == "free" or (n == k if mode == "exact" else n >= k), (n, card)


def random_instance(rng, n_lo, n_hi, ndd_lo, ndd_hi, density):
    n = rng.randint(n_lo, n_hi)
    pairs = list(range(n))
    ndds = list(range(100, 100 + rng.randint(ndd_lo, ndd_hi)))
    arcs = [(u, v) for u in pairs + ndds for v in pairs if u != v and rng.random() < density]
    return make(pairs, ndds, arcs)


class TestEnumeration:
    def test_shared_vertex_graph(self):
        s = enumerate_structures(SHARED, CYC3)
        assert {repr(x) for x in s} == {repr(Cycle((1, 2))), repr(Cycle((2, 3, 4)))}

    def test_triple_overlap_graph(self):
        s = enumerate_structures(TRIPLE, CYC3)
        assert len(s) == 3 and all(isinstance(x, Cycle) and x.length == 3 for x in s)

    def test_complete_graph_2cycles(self):
        k4 = make([1, 2, 3, 4], [], [(u, v) for u in range(1, 5) for v in range(1, 5) if u != v])
        assert len(enumerate_structures(k4, StructurePolicy(max_cycle_len=2))) == 6


class TestMaxPrice:
    def test_unit_prices(self):
        pk, val = max_price_packing(OracleQuery(instance=SHARED, policy=CYC3, node_prices=unit(SHARED)))
        assert val == 3 and pk.structures == frozenset({Cycle((2, 3, 4))})
        pk, val = max_price_packing(OracleQuery(instance=TRIPLE, policy=CYC3, node_prices=unit(TRIPLE)))
        assert val == 6 and len(pk.structures) == 2

    def test_zero_prices_gives_empty(self):
        pk, val = max_price_packing(OracleQuery(instance=SHARED, policy=CYC3))
        assert val == 0 and pk.structures == frozenset()

    def test_fewest_structures_tiebreak(self):
        inst = make(
            [1, 2, 3, 4], [],
            [(1, 2), (2, 1), (3, 4), (4, 3), (2, 3), (3, 2), (4, 1), (1, 4)],
        )
        pk, val = max_price_packing(
            OracleQuery(instance=inst, policy=StructurePolicy(max_cycle_len=4), node_prices=unit(inst))
        )
        assert val == 4 and len(pk.structures) == 1  # one 4-cycle beats two 2-cycles
        pk, _ = max_price_packing(
            OracleQuery(instance=inst, policy=StructurePolicy(max_cycle_len=2), node_prices=unit(inst))
        )
        assert pk.structures == frozenset({Cycle((1, 2)), Cycle((3, 4))})

    def test_minimize_3cycles_tiebreak(self):
        inst2 = make([1, 2, 3], [], [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)])
        pk, val = max_price_packing(
            OracleQuery(
                instance=inst2,
                policy=CYC3,
                node_prices={1: F(1), 2: F(1), 3: F(0)},
                minimize_3cycles_tiebreak=True,
            )
        )
        assert val == 2 and all(s.length == 2 for s in pk.structures)

    def test_determinism(self):
        q = OracleQuery(instance=TRIPLE, policy=CYC3, node_prices=unit(TRIPLE))
        assert max_price_packing(q) == max_price_packing(q)

    def test_random_vs_brute(self):
        rng = random.Random(11)
        for trial in range(120):
            n = rng.randint(3, 9)
            k = rng.randint(0, 2)
            pairs = list(range(n))
            ndds = list(range(100, 100 + k))
            arcs = [
                (u, v)
                for u in pairs + ndds
                for v in pairs
                if u != v and rng.random() < 0.35
            ]
            inst = make(pairs, ndds, arcs)
            pol = StructurePolicy(
                max_cycle_len=rng.choice([2, 3]), max_chain_len=rng.choice([None, 2, 3])
            )
            for _ in range(4):
                prices = {v: F(rng.randint(-2, 6), rng.randint(1, 4)) for v in pairs}
                must = frozenset(rng.sample(pairs, rng.randint(0, 1)))
                forb = frozenset(
                    x for x in rng.sample(pairs, rng.randint(0, 1)) if x not in must
                )
                card = rng.choice([("free", None), ("atleast", 2), ("exact", 2)])
                bb = brute_best(inst, pol, prices, must, forb, card)
                q = OracleQuery(
                    instance=inst,
                    policy=pol,
                    node_prices=prices,
                    must_cover=must,
                    forbidden=forb,
                    cardinality=card,
                )
                for value_only in (False, True):
                    try:
                        pk, val = max_price_packing(q, value_only=value_only)
                    except OracleInfeasible:
                        assert bb is None, (trial, value_only)
                        continue
                    assert bb is not None and val == bb, (trial, value_only, val, bb)
                    assert val == sum((prices[v] for v in pk.covered), F(0))
                    assert must <= pk.covered and not (pk.covered & forb)
                    assert_cardinality(pk, card)

    def test_milp_agrees_with_exact_on_chains(self):
        rng = random.Random(13)
        for trial in range(40):
            n = rng.randint(4, 9)
            k = rng.randint(1, 2)
            pairs = list(range(n))
            ndds = list(range(100, 100 + k))
            arcs = [
                (u, v)
                for u in pairs + ndds
                for v in pairs
                if u != v and rng.random() < 0.3
            ]
            inst = make(pairs, ndds, arcs)
            pol = StructurePolicy(max_cycle_len=3, max_chain_len=float("inf"))
            prices = {v: F(rng.randint(0, 5)) for v in pairs}
            q = OracleQuery(instance=inst, policy=pol, node_prices=prices)
            _, val_exact = max_price_packing(q, value_only=True)
            _, val_milp = _milp_max_price(q, cap=200000)
            assert val_exact == val_milp, (trial, val_exact, val_milp)

    def test_bb_agrees_with_milp_on_bounded_chains(self):
        """Differential check of the branch-and-bound against the HiGHS MILP.

        Non-integer rational prices, bounded chains, must-cover and
        cardinality side constraints.  The smallest gap between two distinct
        packing values is 1/12 here, far above HiGHS's tolerances, so both
        must land on the same exact optimum.
        """
        rng = random.Random(17)
        checked = 0
        for trial in range(60):
            inst = random_instance(rng, 4, 9, 1, 2, 0.3)
            pairs = sorted(inst.pairs)
            pol = StructurePolicy(max_cycle_len=3, max_chain_len=rng.choice([2, 3]))
            prices = {v: F(rng.randint(-3, 8), rng.choice([1, 2, 3, 4])) for v in pairs}
            must = frozenset(rng.sample(pairs, rng.randint(0, 2)))
            card = rng.choice([("free", None), ("atleast", 3), ("exact", 4)])
            q = OracleQuery(
                instance=inst, policy=pol, node_prices=prices, must_cover=must, cardinality=card
            )
            try:
                pk_bb, val_bb = max_price_packing(q, value_only=True)
            except OracleInfeasible:
                with pytest.raises(OracleInfeasible):
                    _milp_max_price(q, cap=200000)
                continue
            pk_milp, val_milp = _milp_max_price(q, cap=200000)
            assert val_bb == val_milp, (trial, val_bb, val_milp)
            for pk in (pk_bb, pk_milp):
                assert all(pol.allows(s) for s in pk.structures), trial
                assert must <= pk.covered
                assert_cardinality(pk, card)
            checked += 1
        assert checked >= 20

    def test_large_pools_use_set_packing_milp(self, monkeypatch):
        """Integer value-only queries above BB_MAX_PAIRS go to the set-packing
        MILP, which must agree with the branch-and-bound."""
        routed = []
        milp = oracle._set_packing_milp

        def counting(*args):
            routed.append(args)
            return milp(*args)

        monkeypatch.setattr(oracle, "_set_packing_milp", counting)
        rng = random.Random(29)
        for trial in range(12):
            cfg = gen.GenConfig(n_pairs=oracle.BB_MAX_PAIRS + 2, seed=500 + trial)
            inst = gen.generate_instance(cfg)
            pairs = sorted(inst.pairs)
            pol = StructurePolicy(max_cycle_len=2)
            prices = {v: F(rng.randint(-1, 3)) for v in pairs}
            must = frozenset(rng.sample(pairs, rng.randint(0, 1)))
            card = rng.choice([("free", None), ("atleast", 4)])
            q = OracleQuery(
                instance=inst, policy=pol, node_prices=prices, must_cover=must, cardinality=card
            )
            structures = enumerate_structures(inst, pol)
            try:
                want = oracle._BB(q, structures, value_only=True).run()[1]
            except OracleInfeasible:
                with pytest.raises(OracleInfeasible):
                    max_price_packing(q, value_only=True)
                continue
            pk, val = max_price_packing(q, value_only=True)
            assert val == want, trial
            assert val == sum((prices[v] for v in pk.covered), F(0))
            assert must <= pk.covered
            assert_cardinality(pk, card)
        assert len(routed) >= 8

    def test_large_denominators_stay_exact(self):
        """Prices whose common denominator is far beyond 64 bits."""
        rng = random.Random(23)
        for trial in range(25):
            inst = random_instance(rng, 5, 9, 0, 2, 0.35)
            pairs = sorted(inst.pairs)
            pol = StructurePolicy(max_cycle_len=3, max_chain_len=rng.choice([None, 2]))
            prices = {}
            for v in pairs:
                if rng.random() < 0.3:
                    prices[v] = F(rng.randint(-2, 5))
                else:
                    den = rng.randint(2, 10**12)
                    prices[v] = F(rng.randint(-den, 5 * den), den)
            for value_only in (False, True):
                pk, val = max_price_packing(
                    OracleQuery(instance=inst, policy=pol, node_prices=prices),
                    value_only=value_only,
                )
                assert type(val) is F
                assert val == brute_best(inst, pol, prices), (trial, value_only)
                assert val == sum((prices[v] for v in pk.covered), F(0))


class TestCoverageMetrics:
    def test_coverage_loss(self):
        assert coverage_loss(TRIPLE, CYC3, 1) == 3
        assert coverage_loss(SHARED, CYC3, 1) == 1
        assert coverage_loss(SHARED, CYC3, 2) == 0

    def test_delta_star(self):
        assert delta_star(TRIPLE, CYC3) == 3
        assert delta_star(SHARED, CYC3) == 1

    def test_always_covered(self):
        assert always_covered_count(SHARED, CYC3) == (3, frozenset({2, 3, 4}))
        cyc3d1 = replace(CYC3, cardinality_mode="delta", delta=1)
        assert always_covered_count(SHARED, cyc3d1) == (1, frozenset({2}))
        assert always_covered_count(TRIPLE, CYC3) == (6, frozenset({2, 3, 4, 5, 6, 7}))
