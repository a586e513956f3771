"""Packing enumeration and max-price oracle vs exhaustive subset search."""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fairkep import fair, gen, oracle, sim
from fairkep.core import UNBOUNDED, Chain, Cycle, FairkepError, KepInstance, StructurePolicy
from fairkep.oracle import (
    CARD_FREE,
    ExplosionGuard,
    OracleInfeasible,
    PackingFamily,
    Uncoverable,
    _milp_max_price,
    always_covered_count,
    coverage_losses,
    delta_star,
    enumerate_structures,
    max_price_packing,
)
from fairkep.paths import TWO_CYCLE_TWO_PATH
import helpers
from helpers import all_structures, brute_best, packing_covers, reference_search

F = Fraction
CYC3 = StructurePolicy(max_cycle_len=3)
CYC3_CHAIN2 = StructurePolicy(max_cycle_len=3, max_chain_len=2)


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


def assert_cardinality(packing, card):
    mode, k = card
    n = len(packing.covered)
    assert n == k if mode == "exact" else n >= k, (n, card)


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

    def test_matches_independent_enumeration(self):
        """The same structures in the same order as a vertex-sequence test that
        shares no code with the oracle, on 200 random pools with 0-2 NDDs."""
        policies = [
            StructurePolicy(max_cycle_len=2),
            CYC3,
            StructurePolicy(max_cycle_len=4),
            CYC3_CHAIN2,
            StructurePolicy(max_cycle_len=3, max_chain_len=3),
        ]
        rng = random.Random(47)
        for trial in range(200):
            inst = random_instance(rng, 2, 9, 0, 2, rng.choice([0.2, 0.35, 0.5]))
            pol = policies[trial % len(policies)]
            assert enumerate_structures(inst, pol) == all_structures(inst, pol), trial

    def test_emitted_in_sort_key_order(self):
        """The search emits every family already sorted by `sort_key`: on
        generated pools, cycles of length 2-4, bounded chains and chains of
        at least two pairs."""
        policies = [
            StructurePolicy(max_cycle_len=2),
            CYC3,
            StructurePolicy(max_cycle_len=4),
            CYC3_CHAIN2,
            StructurePolicy(max_cycle_len=3, max_chain_len=4, min_chain_len=2),
            StructurePolicy(max_cycle_len=None, max_chain_len=3),
        ]
        for seed in range(12):
            inst = gen.generate_instance(gen.GenConfig(n_pairs=8 + seed, n_ndds=seed % 3, seed=seed))
            for pol in policies:
                s = enumerate_structures(inst, pol)
                assert s == sorted(s, key=lambda x: x.sort_key()), (seed, pol)


class TestFamilyTables:
    """The family reads its tables off its bit rows: the enumerated ones, or
    the same rows in another order (`StructureRows.permuted`)."""

    def test_permuted_rows_match_enumerated(self):
        """A family over shuffled rows holds the enumerated family's members,
        masks (NDD bit included) and sizes in that order, and the same
        coverable count, on random 4-14-pair pools with 0-2 NDDs: 2-, 3- and
        4-cycles, cyc3chain:2, cyc2chain:3, chains of at least 2 pairs, and
        unbounded chains on pools of at most 7 pairs.  Its value-only and
        tie-break searches reach the enumerated family's values, and raise
        OracleInfeasible on the same queries.  The value-only search often
        returns another optimum than the enumerated family's tie-break, so
        the shuffled order is one the search meets first."""
        policies = [
            StructurePolicy(max_cycle_len=2),
            CYC3,
            StructurePolicy(max_cycle_len=4),
            CYC3_CHAIN2,
            StructurePolicy(max_cycle_len=2, max_chain_len=3),
            StructurePolicy(max_cycle_len=3, max_chain_len=3, min_chain_len=2),
            StructurePolicy(max_cycle_len=3, max_chain_len=UNBOUNDED),
        ]
        rng = random.Random(71)
        chains = moved = 0
        for trial in range(70):
            pol = policies[trial % len(policies)]
            n_hi = 7 if pol.max_chain_len == UNBOUNDED else 14
            inst = random_instance(rng, 4, n_hi, 0, 2, rng.choice([0.15, 0.25, 0.35]))
            family = oracle.PackingFamily(inst, pol)
            rows = family.structures
            order = list(range(len(rows)))
            rng.shuffle(order)
            permuted = oracle.PackingFamily(inst, pol, rows.permuted(order))
            assert permuted.structures == [rows[i] for i in order], trial
            for table in ("members", "masks", "sizes"):
                want = [getattr(family, table)[i] for i in order]
                assert getattr(permuted, table) == want, (trial, table)
            assert permuted.coverable == family.coverable, trial
            chains += sum(isinstance(s, Chain) for s in rows)
            pairs = sorted(inst.pairs)
            if trial % 2:
                prices = {v: F(rng.randint(0, 2)) for v in pairs}  # many ties
            else:
                prices = {v: F(rng.randint(-2, 6), rng.randint(1, 3)) for v in pairs}
            k = rng.randint(0, len(pairs) // 2)
            card = rng.choice([CARD_FREE, ("atleast", k), ("exact", k)])
            try:
                want_pk, want_val = family.search(prices, card, value_only=False)
            except OracleInfeasible:
                for value_only in (False, True):
                    with pytest.raises(OracleInfeasible):
                        permuted.search(prices, card, value_only)
                continue
            assert permuted.search(prices, card, value_only=False)[1] == want_val, trial
            pk, val = permuted.search(prices, card, value_only=True)
            assert val == want_val, trial
            moved += pk != want_pk
        assert chains > 0 and moved > 0


    def test_restricted_family_answers_like_a_new_one(self):
        """`family.restrict(sub)` holds the rows, coverable count and drop
        tables that enumerating `sub` gives, and answers every query alike:
        the same packing and value, value-only and tie-break, and
        OracleInfeasible on the same queries, for prices of both signs in all
        three cardinality modes.  Generated 8-14-pair pools with 0-2 NDDs
        under match, cyc3 and cyc3chain:2, restricted to random pair subsets
        and to the pairs `fair.preprocess` keeps.  The maximum comes along
        when its packing lies inside the kept pairs."""
        policies = [StructurePolicy(max_cycle_len=2), CYC3, CYC3_CHAIN2]
        rng = random.Random(29)
        queries = infeasible = carried = 0
        for trial in range(36):
            pol = policies[trial % len(policies)]
            config = gen.GenConfig(n_pairs=rng.randint(8, 14), n_ndds=rng.randint(0, 2),
                                   seed=3000 + trial)
            inst = gen.generate_instance(config)
            family = PackingFamily(inst, pol)
            maximum = family.maximum()
            if trial % 2:
                sub, _ = fair.preprocess(inst, pol)
            else:
                sub = inst.restrict(v for v in sorted(inst.pairs) if rng.random() < 0.8)
            restricted, fresh = family.restrict(sub), PackingFamily(sub, pol)
            rows, want = restricted.structures, fresh.structures
            assert rows == want, trial
            for table in ("ids", "members", "masks", "ndds"):
                assert getattr(rows, table) == getattr(want, table), (trial, table)
            assert restricted.coverable == fresh.coverable, trial
            assert restricted.drop == fresh.drop, trial
            if maximum[0].covered <= sub.pairs:
                assert restricted._maximum is maximum, trial
                carried += 1
            assert restricted.maximum() == fresh.maximum(), trial
            pairs = sorted(sub.pairs)
            for _ in range(4):
                prices = {v: F(rng.randint(-3, 6), rng.randint(1, 4)) for v in pairs}
                k = rng.randint(0, len(pairs))
                card = rng.choice([CARD_FREE, ("atleast", k), ("exact", k)])
                for value_only in (False, True):
                    queries += 1
                    try:
                        got = restricted.search(prices, card, value_only)
                    except OracleInfeasible:
                        infeasible += 1
                        with pytest.raises(OracleInfeasible):
                            fresh.search(prices, card, value_only)
                        continue
                    assert got == fresh.search(prices, card, value_only), (trial, card)
        assert carried > 0 and 0 < infeasible < queries

    def test_restrict_needs_a_subset_of_the_pool(self):
        family = PackingFamily(TRIPLE, CYC3)
        with pytest.raises(ValueError):
            family.restrict(make(range(1, 9), [], []))


class TestLazyObjects:
    """A search builds `Cycle` and `Chain` objects only for the structures of
    the packings it returns; construction is counted through the names the
    oracle looks up."""

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        for name in ("Cycle", "Chain"):
            def build(*args, _make=getattr(oracle, name), **kw):
                s = _make(*args, **kw)
                built.append(s)
                return s

            monkeypatch.setattr(oracle, name, build)
        return built

    def test_leximin_solve(self, monkeypatch):
        returned = []
        search = oracle.PackingFamily.search

        def recording(family, *args):
            packing, value = search(family, *args)
            returned.extend((family, s) for s in packing.structures)
            return packing, value

        monkeypatch.setattr(oracle.PackingFamily, "search", recording)
        pool = gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3))
        assert len(pool.pairs) <= oracle.BB_MAX_PAIRS  # every query runs the search
        built = self.count_builds(monkeypatch)
        fair.solve_leximin(pool, CYC3)
        assert len(built) == len(set(returned))
        assert set(built) == {s for _, s in returned}
        families = {family for family, _ in returned}
        assert sum(len(family.masks) for family in families) > 2 * len(built)

    def test_sim_period(self, monkeypatch):
        """Under the implicit algorithm and under the shuffled row order."""
        batch = gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3))
        built = self.count_builds(monkeypatch)
        for algorithm in (sim.IMPLICIT, sim.HEURISTIC_ILP_SHUFFLE):
            config = sim.SimConfig(policy=CYC3, algorithm=algorithm, weighting=sim.WaitTimeLinear())
            rng = random.Random(0)
            pool = sim._Pool(rng, sim._wait_prices(config, 1))
            pool.arrive(batch, 0)
            built.clear()
            packing = sim._solve_period(pool, config, 0, rng)
            assert len(packing.structures) > 0
            assert sorted(built, key=lambda s: s.sort_key()) == packing.sorted_structures()
            assert len(enumerate_structures(pool.instance(), CYC3)) > 2 * len(built)

    def test_set_packing_milp(self, monkeypatch):
        """A value-only, integer-price query above `BB_MAX_PAIRS` pairs goes to
        the set-packing MILP, which reads the family's rows and builds only
        the chosen columns."""
        routed = []
        milp = oracle._milp_max_price

        def counting(family, prices, cardinality, columns=None):
            routed.append(columns)
            return milp(family, prices, cardinality, columns)

        monkeypatch.setattr(oracle, "_milp_max_price", counting)
        pool = gen.generate_instance(gen.GenConfig(n_pairs=oracle.BB_MAX_PAIRS + 2, seed=500))
        assert len(pool.pairs) > oracle.BB_MAX_PAIRS
        family = oracle.PackingFamily(pool, CYC3)
        rows = family.structures
        rng = random.Random(31)
        prices = {v: F(rng.randint(1, 3)) for v in pool.pairs}
        built = self.count_builds(monkeypatch)
        packing, _ = max_price_packing(family, prices, value_only=True)
        assert len(routed) == 1 and routed[0] is rows
        assert len(packing.structures) > 0
        assert sorted(built, key=lambda s: s.sort_key()) == packing.sorted_structures()
        assert len(rows) > 2 * len(built)


class TestMaxPrice:
    def test_unit_prices(self):
        pk, val = max_price_packing(PackingFamily(SHARED, CYC3), unit(SHARED))
        assert val == 3 and pk.structures == frozenset({Cycle((2, 3, 4))})
        pk, val = max_price_packing(PackingFamily(TRIPLE, CYC3), unit(TRIPLE))
        assert val == 6 and len(pk.structures) == 2

    def test_zero_prices_gives_empty(self):
        pk, val = max_price_packing(PackingFamily(SHARED, CYC3), {})
        assert val == 0 and pk.structures == frozenset()

    def test_fewest_structures_tiebreak(self):
        inst = make(
            [1, 2, 3, 4], [],
            [(1, 2), (2, 1), (3, 4), (4, 3), (2, 3), (3, 2), (4, 1), (1, 4)],
        )
        pk, val = max_price_packing(PackingFamily(inst, StructurePolicy(max_cycle_len=4)), unit(inst))
        assert val == 4 and len(pk.structures) == 1  # one 4-cycle beats two 2-cycles
        pk, _ = max_price_packing(PackingFamily(inst, StructurePolicy(max_cycle_len=2)), unit(inst))
        assert pk.structures == frozenset({Cycle((1, 2)), Cycle((3, 4))})

    def test_determinism(self):
        first = max_price_packing(PackingFamily(TRIPLE, CYC3), unit(TRIPLE))
        assert first == max_price_packing(PackingFamily(TRIPLE, CYC3), unit(TRIPLE))

    def test_cardinality_checked(self):
        """An unknown cardinality mode, or a row without a count >= 0, is a
        ValueError, raised before the family is enumerated."""
        family = PackingFamily(TRIPLE, CYC3)
        bad = [("most", 2), ("exact", -1), ("atleast", -2), ("exact", None), ("atleast", None)]
        for card in bad:
            with pytest.raises(ValueError):
                max_price_packing(family, unit(TRIPLE), card)
        assert max_price_packing(family, unit(TRIPLE), ("exact", 0))[1] == 0

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
                card = rng.choice([CARD_FREE, ("atleast", 2), ("exact", 2)])
                bb = brute_best(inst, pol, prices, card=card)
                for value_only in (False, True):
                    try:
                        pk, val = max_price_packing(PackingFamily(inst, pol), prices, card, value_only)
                    except OracleInfeasible:
                        assert bb is None, (trial, value_only)
                        continue
                    assert bb is not None and val == bb, (trial, value_only, val, bb)
                    assert val == sum((prices[v] for v in pk.covered), F(0))
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
            family = PackingFamily(inst, pol)
            _, val_exact = max_price_packing(family, prices, value_only=True)
            _, val_milp = _milp_max_price(family, prices, CARD_FREE)
            assert val_exact == val_milp, (trial, val_exact, val_milp)

    def test_bb_agrees_with_milp_on_bounded_chains(self):
        """Differential check of the branch-and-bound against the HiGHS MILP.

        Non-integer rational prices, bounded chains and cardinality side
        constraints.  The smallest gap between two distinct packing values is
        1/12 here, far above HiGHS's tolerances, so both must land on the same
        exact optimum.
        """
        rng = random.Random(17)
        checked = 0
        for trial in range(60):
            inst = random_instance(rng, 4, 9, 1, 2, 0.3)
            pairs = sorted(inst.pairs)
            pol = StructurePolicy(max_cycle_len=3, max_chain_len=rng.choice([2, 3]))
            prices = {v: F(rng.randint(-3, 8), rng.choice([1, 2, 3, 4])) for v in pairs}
            card = rng.choice([CARD_FREE, ("atleast", 3), ("exact", 4)])
            family = PackingFamily(inst, pol)
            try:
                pk_bb, val_bb = max_price_packing(family, prices, card, value_only=True)
            except OracleInfeasible:
                with pytest.raises(OracleInfeasible):
                    _milp_max_price(family, prices, card)
                continue
            pk_milp, val_milp = _milp_max_price(family, prices, card)
            assert val_bb == val_milp, (trial, val_bb, val_milp)
            for pk in (pk_bb, pk_milp):
                assert all(pol.allows(s) for s in pk.structures), trial
                assert_cardinality(pk, card)
            checked += 1
        assert checked >= 20

    def test_large_pools_use_set_packing_milp(self, monkeypatch):
        """Integer value-only queries above BB_MAX_PAIRS go to the MILP as a set
        packing over the enumerated family, which must agree with the
        branch-and-bound."""
        routed = []
        milp = oracle._milp_max_price

        def counting(family, prices, cardinality, columns=None):
            if columns is not None:
                routed.append(prices)
            return milp(family, prices, cardinality, columns)

        monkeypatch.setattr(oracle, "_milp_max_price", counting)
        rng = random.Random(29)
        for trial in range(12):
            cfg = gen.GenConfig(n_pairs=oracle.BB_MAX_PAIRS + 2, seed=500 + trial)
            inst = gen.generate_instance(cfg)
            pairs = sorted(inst.pairs)
            pol = StructurePolicy(max_cycle_len=2)
            prices = {v: F(rng.randint(-1, 3)) for v in pairs}
            card = rng.choice([CARD_FREE, ("atleast", 4)])
            try:
                want = PackingFamily(inst, pol).search(prices, card, value_only=True)[1]
            except OracleInfeasible:
                with pytest.raises(OracleInfeasible):
                    max_price_packing(PackingFamily(inst, pol), prices, card, value_only=True)
                continue
            pk, val = max_price_packing(PackingFamily(inst, pol), prices, card, value_only=True)
            assert val == want, trial
            assert val == sum((prices[v] for v in pk.covered), F(0))
            assert_cardinality(pk, card)
        assert len(routed) >= 8

    def test_column_model_agrees_with_search(self):
        """The MILP's set packing over an enumerated family against the
        branch-and-bound on generated 20-22-pair pools with NDDs.

        Unit prices and random integer prices under every cardinality mode.
        The pools are ones the search settles in well under a second; on
        others its unit-price runs take minutes.
        """
        cases = [(TWO_CYCLE_TWO_PATH, seed) for seed in (800, 801, 804, 807)]
        cases += [(CYC3_CHAIN2, seed) for seed in (800, 804, 807)]
        rng = random.Random(53)
        checked = 0
        for pol, seed in cases:
            inst = gen.generate_instance(
                gen.GenConfig(n_pairs=20 + (seed - 800) % 3, n_ndds=2 + seed % 2, seed=seed)
            )
            family = oracle.PackingFamily(inst, pol)
            queries = [(unit(inst), CARD_FREE)]
            for card in (CARD_FREE, ("atleast", 6), ("exact", 8)):
                prices = {v: F(rng.randint(-1, 3)) for v in inst.pairs}
                queries.append((prices, card))
            for prices, card in queries:
                try:
                    pk_bb, val_bb = family.search(prices, card, value_only=True)
                except OracleInfeasible:
                    with pytest.raises(OracleInfeasible):
                        _milp_max_price(family, prices, card, family.structures)
                    continue
                pk, val = _milp_max_price(family, prices, card, family.structures)
                assert val == val_bb, (seed, card)
                assert val == sum((prices[v] for v in pk.covered), F(0))
                assert_cardinality(pk, card)
                assert all(pol.allows(s) for s in pk.structures), seed
                if card == CARD_FREE and set(prices.values()) == {1}:
                    assert len(pk.covered) == len(pk_bb.covered) == val, seed
                checked += 1
        assert checked >= 24

    def test_enumeration_cap_falls_back_to_chain_arcs(self, monkeypatch):
        """A bounded-chain family past `ENUM_CAP` is answered by the MILP with
        chain-arc flows, at the value the search finds over the full family."""
        routed = []
        milp = oracle._milp_max_price

        def counting(family, prices, cardinality, columns=None):
            if columns is None:
                routed.append(prices)
            return milp(family, prices, cardinality, columns)

        rng = random.Random(59)
        checked = 0
        for trial in range(30):
            inst = random_instance(rng, 6, 10, 1, 2, 0.3)
            pol = StructurePolicy(max_cycle_len=3, max_chain_len=rng.choice([2, 3]))
            # the reference family is built before the cap is lowered
            full = oracle.PackingFamily(inst, pol)
            n_cycles = sum(isinstance(s, Cycle) for s in full.structures)
            if n_cycles == len(full.structures):
                continue
            prices = {v: F(rng.randint(-2, 6), rng.choice([1, 2, 3])) for v in inst.pairs}
            card = rng.choice([CARD_FREE, ("atleast", 2)])
            with monkeypatch.context() as m:
                # room for the cycles the arc model enumerates, none for the chains
                m.setattr(oracle, "ENUM_CAP", n_cycles)
                m.setattr(oracle, "_milp_max_price", counting)
                assert oracle.PackingFamily(inst, pol).structures is None
                try:
                    pk, val = max_price_packing(PackingFamily(inst, pol), prices, card)
                except OracleInfeasible:
                    pk = None
            if pk is None:
                with pytest.raises(OracleInfeasible):
                    full.search(prices, card, value_only=False)
                continue
            assert val == full.search(prices, card, value_only=False)[1], trial
            assert val == sum((prices[v] for v in pk.covered), F(0))
            assert_cardinality(pk, card)
            assert all(pol.allows(s) for s in pk.structures), trial
            checked += 1
        assert checked >= 15 and len(routed) >= checked

    def test_milp_status_other_than_infeasible_raises(self, monkeypatch):
        """Only HiGHS status 2 reads as `OracleInfeasible`; a limit or an error
        status is no answer, so it raises `FairkepError` out of the query and
        out of `coverable_pairs`' witness loop instead of ending the loop as
        if no packing covered another pair."""
        import scipy.optimize

        pool = gen.generate_instance(gen.GenConfig(n_pairs=20, seed=3))
        assert len(pool.pairs) > oracle.BB_MAX_PAIRS  # unit-price queries go to HiGHS
        status = None

        def stub(*args, **kwargs):
            return SimpleNamespace(status=status, x=None, message=f"status {status}")

        monkeypatch.setattr(scipy.optimize, "milp", stub)
        for status in (1, 2, 3, 4):
            family = PackingFamily(pool, CYC3)
            error = OracleInfeasible if status == 2 else FairkepError
            with pytest.raises(error) as raised:
                max_price_packing(family, unit(pool), value_only=True)
            assert (raised.type is OracleInfeasible) == (status == 2), status
            if status == 2:
                assert oracle.coverable_pairs(family, CARD_FREE) == frozenset()
            else:
                with pytest.raises(FairkepError) as raised:
                    oracle.coverable_pairs(family, CARD_FREE)
                assert raised.type is FairkepError, status

    def test_chain_free_family_past_cap_enumerates_once(self, monkeypatch):
        """A chain-free family past `ENUM_CAP` has no chain-arc model to fall
        back on: its query raises `ExplosionGuard` from the one enumeration,
        without enumerating the same cycles again for the MILP."""
        enumerations = []
        real = oracle.enumerate_structures

        def counting(*args, **kwargs):
            enumerations.append(1)
            return real(*args, **kwargs)

        pool = gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3))
        assert len(real(pool, CYC3)) > 5
        monkeypatch.setattr(oracle, "enumerate_structures", counting)
        monkeypatch.setattr(oracle, "ENUM_CAP", 5)
        with pytest.raises(ExplosionGuard):
            max_price_packing(PackingFamily(pool, CYC3), unit(pool))
        assert len(enumerations) == 1

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
                pk, val = max_price_packing(PackingFamily(inst, pol), prices, value_only=value_only)
                assert type(val) is F
                assert val == brute_best(inst, pol, prices), (trial, value_only)
                assert val == sum((prices[v] for v in pk.covered), F(0))
                if not value_only:
                    # the tie-break's count charge multiplies the largest integers here
                    assert (pk, val) == reference_search(inst, pol, prices, CARD_FREE, False), trial


def pinned_queries():
    """A fixed set of oracle queries, as (instance, policy, prices,
    cardinality), over every search regime.

    Random graphs with NDDs under cycle-only and bounded-chain policies, and
    generated pools of 10-14 pairs; prices negative, zero and positive with
    denominators 1-6; all three cardinality modes.
    """
    rng = random.Random(41)
    out = []
    for trial in range(150):
        if trial % 3 == 2:
            inst = gen.generate_instance(gen.GenConfig(n_pairs=rng.randint(10, 14), seed=900 + trial))
            pol = CYC3
        else:
            inst = random_instance(rng, 5, 11, 0, 2, 0.3)
            pol = StructurePolicy(
                max_cycle_len=rng.choice([2, 3]), max_chain_len=rng.choice([None, 2, 3])
            )
        pairs = sorted(inst.pairs)
        prices = {v: F(rng.randint(-3, 9), rng.randint(1, 6)) for v in pairs}
        if trial % 4 == 0:
            prices = {v: F(rng.randint(0, 2)) for v in pairs}  # many ties
        k = rng.randint(0, 2 * len(pairs) // 3)
        card = rng.choice([CARD_FREE, ("atleast", k), ("exact", k)])
        out.append((inst, pol, prices, card))
    return out


def answer_key(query, value_only, family=None):
    """The answer to `query` on `family`, or on a family built for it alone."""
    inst, pol, prices, card = query
    if family is None:
        family = PackingFamily(inst, pol)
    try:
        pk, val = max_price_packing(family, prices, card, value_only)
    except OracleInfeasible:
        return ("infeasible",)
    return (tuple(sorted(s.sort_key() for s in pk.structures)), str(val))


class TestPinnedAnswers:
    # sha256 over (sorted structure sort keys, value) of every pinned query in
    # both value_only modes; a change to the search order, the pruning or the
    # tie-break moves it, including which optimum value_only finds first
    PINNED = "66764cbd56108ab3add171bc4d74a4d330f001b7a4eece375c3edecfd7a5b27e"

    def test_answers_unchanged(self):
        h = hashlib.sha256()
        for q in pinned_queries():
            for value_only in (False, True):
                h.update(repr(answer_key(q, value_only)).encode())
        assert h.hexdigest() == self.PINNED


    def test_reused_family_answers_like_fresh_ones(self):
        """One family across 50 queries answers each exactly as a fresh family,
        so no search state carries from one query to the next."""
        rng = random.Random(43)
        for trial in range(4):
            inst = random_instance(rng, 7, 11, 1, 2, 0.3)
            pol = StructurePolicy(max_cycle_len=3, max_chain_len=rng.choice([None, 2, 3]))
            family = oracle.PackingFamily(inst, pol)
            pairs = sorted(inst.pairs)
            for _ in range(50):
                prices = {v: F(rng.randint(-2, 6), rng.randint(1, 3)) for v in pairs}
                k = rng.randint(0, len(pairs) // 2)
                card = rng.choice([CARD_FREE, ("atleast", k), ("exact", k)])
                q = (inst, pol, prices, card)
                value_only = rng.random() < 0.5
                assert answer_key(q, value_only, family) == answer_key(q, value_only)


def dfs_frames(run, module):
    """`run()`'s answer, or "infeasible", and how many frames of a `dfs`
    defined in `module`'s file it opened, counted by a profile hook so the
    library carries no counter."""
    frames = 0

    def hook(frame, event, arg):
        nonlocal frames
        code = frame.f_code
        if event == "call" and code.co_name == "dfs" and code.co_filename == module.__file__:
            frames += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        answer = run()
    except OracleInfeasible:
        answer = "infeasible"
    finally:
        sys.setprofile(previous)
    return answer, frames


def reference_queries():
    """Random 4-14-pair pools with 0-2 NDDs under 2-cycles, 3-cycles, bounded
    chains and chains of 2-3 pairs, prices of both signs with denominators
    1-5, and free, atleast and exact rows around the maximum, as (trial,
    instance, policy, family, prices, cardinality)."""
    rng = random.Random(67)
    policies = [StructurePolicy(max_cycle_len=2), CYC3, CYC3_CHAIN2,
                StructurePolicy(max_cycle_len=2, max_chain_len=3),
                StructurePolicy(max_cycle_len=2, max_chain_len=3, min_chain_len=2)]
    for trial in range(96):
        inst = random_instance(rng, 4, 14, 0, 2, rng.choice([0.15, 0.25, 0.35]))
        pol = policies[trial % len(policies)]
        family = oracle.PackingFamily(inst, pol)
        maxcard = family.maximum()[1]
        pairs = sorted(inst.pairs)
        for _ in range(5):
            prices = {v: F(rng.randint(-4, 8), rng.randint(1, 5)) for v in pairs}
            k = rng.randint(max(maxcard - 3, 0), maxcard + 1)
            card = rng.choice([CARD_FREE, ("atleast", k), ("exact", k)])
            yield trial, inst, pol, family, prices, card


class TestAgainstReferenceSearch:
    """The search prunes on the cardinality row as well as on value, and
    breaks ties by a count charge; the reference in helpers is the search as
    it was, with the value bound only and an explicit tie-break key."""

    def test_same_packing_as_reference(self):
        """The same packing, not only the same value, and OracleInfeasible on
        the same queries of `reference_queries`, full and value-only."""
        infeasible = 0
        for trial, inst, pol, family, prices, card in reference_queries():
            for value_only in (False, True):
                want, _ = dfs_frames(
                    lambda: reference_search(inst, pol, prices, card, value_only), helpers
                )
                got, _ = dfs_frames(lambda: family.search(prices, card, value_only), oracle)
                assert got == want, (trial, card, value_only)
                infeasible += want == "infeasible"
        assert infeasible > 0

    def test_full_queries_visit_no_more_nodes_than_reference(self):
        """On every full (tie-break) query of `reference_queries` the search
        opens no more `dfs` frames than the reference, which visits every
        optimal leaf to compare keys; summed over the queries it opens fewer."""
        totals = [0, 0]
        for trial, inst, pol, family, prices, card in reference_queries():
            _, nodes = dfs_frames(lambda: family.search(prices, card, False), oracle)
            _, ref_nodes = dfs_frames(
                lambda: reference_search(inst, pol, prices, card, False), helpers
            )
            assert nodes <= ref_nodes, (trial, card, nodes, ref_nodes)
            totals[0] += nodes
            totals[1] += ref_nodes
        assert totals[0] < totals[1], totals

    def test_visits_no_more_nodes_than_reference(self, monkeypatch):
        """On every `atleast` query that fair.preprocess and oracle.delta_star
        ask of a fixed 15-pair pool, the search opens no more `dfs` frames
        than the reference: pruning more keeps the order, so its tree is a
        subset of the reference's.  Summed over the queries it opens fewer."""
        search = oracle.PackingFamily.search
        asked = []

        def recording(family, prices, cardinality, value_only):
            asked.append((family, prices, cardinality, value_only))
            return search(family, prices, cardinality, value_only)

        monkeypatch.setattr(oracle.PackingFamily, "search", recording)
        reduced, _ = fair.preprocess(gen.generate_instance(gen.GenConfig(n_pairs=15, seed=2)), CYC3)
        delta_star(reduced, CYC3)
        totals = [0, 0]
        for family, prices, card, value_only in asked:
            if card[0] != "atleast":
                continue
            got, nodes = dfs_frames(lambda: search(family, prices, card, value_only), oracle)
            want, ref_nodes = dfs_frames(
                lambda: reference_search(family.instance, family.policy, prices, card, value_only),
                helpers,
            )
            assert got == want and nodes <= ref_nodes, (card, nodes, ref_nodes)
            totals[0] += nodes
            totals[1] += ref_nodes
        assert totals[0] < totals[1], totals


class TestUnitOptimum:
    def test_atleast_answer_is_the_maximum(self):
        """Under cardinality ≥ k for every k up to the maximum, the value-only
        all-unit-price search returns the family's maximum packing, so the
        witness loops and the master may take it from the memo."""
        rng = random.Random(53)
        policies = [StructurePolicy(max_cycle_len=2), CYC3, CYC3_CHAIN2,
                    StructurePolicy(max_cycle_len=3, max_chain_len=3)]
        for trial in range(40):
            inst = random_instance(rng, 4, oracle.BB_MAX_PAIRS, 0, 2, rng.choice([0.12, 0.2, 0.3]))
            pol = policies[trial % len(policies)]
            family = oracle.PackingFamily(inst, pol)
            packing, maxcard = family.maximum()
            for k in range(maxcard + 1):
                card = ("atleast", k)
                got = max_price_packing(PackingFamily(inst, pol), unit(inst), card, value_only=True)
                assert got[0] == packing, (trial, k)
                assert family.unit_optimum(card) == (packing, maxcard), (trial, k)
            with pytest.raises(OracleInfeasible):
                family.unit_optimum(("atleast", maxcard + 1))


class TestCoverageMetrics:
    def test_coverage_loss(self):
        assert coverage_losses(TRIPLE, CYC3)[1] == 3
        assert coverage_losses(SHARED, CYC3) == {1: 1, 2: 0, 3: 0, 4: 0}

    def test_coverage_agrees_with_brute_force(self):
        """coverage_losses, delta_star and fair.preprocess against exhaustive
        search per pair: the largest packing covering the pair, and whether a
        packing under the acceptable cardinality covers it."""
        rng = random.Random(31)
        saw_delta = saw_uncoverable = False
        for trial in range(80):
            inst = random_instance(rng, 4, 10, 0, 2, 0.3)
            pol = StructurePolicy(
                max_cycle_len=rng.choice([2, 3]), max_chain_len=rng.choice([None, 2, 3])
            )
            prices = unit(inst)
            maxcard = brute_best(inst, pol, prices)
            want = {}
            for v in sorted(inst.pairs):
                best = brute_best(inst, pol, prices, must=frozenset({v}))
                want[v] = None if best is None else maxcard - best
            assert coverage_losses(inst, pol) == want, trial
            losses = [x for x in want.values() if x is not None]
            if len(losses) < len(want):
                saw_uncoverable = True
                with pytest.raises(Uncoverable):
                    delta_star(inst, pol)
            else:
                assert delta_star(inst, pol) == max(losses, default=0), trial
            top = max(losses, default=0)
            saw_delta |= top > 0
            # with a positive loss, a slack one short of it drops the worst pairs
            delta = top - 1 if top else rng.randint(1, 2)
            mu = rng.randint(1, 3)
            for policy, card in (
                (pol, ("atleast", maxcard)),
                (replace(pol, cardinality_mode="delta", delta=delta),
                 ("atleast", max(maxcard - delta, 0))),
                (replace(pol, cardinality_mode="fixed", mu=mu), ("exact", 2 * mu)),
            ):
                kept = {
                    v for v in inst.pairs
                    if brute_best(inst, pol, {}, must=frozenset({v}), card=card) is not None
                }
                reduced, dropped = fair.preprocess(inst, policy)
                assert reduced.pairs == kept, (trial, card)
                assert dropped == sorted(inst.pairs - kept), (trial, card)
        assert saw_delta and saw_uncoverable

    def test_delta_star(self):
        assert delta_star(TRIPLE, CYC3) == 3
        assert delta_star(SHARED, CYC3) == 1

    def test_always_covered(self):
        assert always_covered_count(SHARED, CYC3) == (3, frozenset({2, 3, 4}))
        cyc3d1 = replace(CYC3, cardinality_mode="delta", delta=1)
        assert always_covered_count(SHARED, cyc3d1) == (1, frozenset({2}))
        assert always_covered_count(TRIPLE, CYC3) == (6, frozenset({2, 3, 4, 5, 6, 7}))

    def test_always_covered_agrees_with_brute_force(self):
        """always_covered_count against the intersection of every acceptable
        packing's covered pairs, by exhaustive search, under max and delta."""
        rng = random.Random(59)
        saw_strict = False
        for trial in range(60):
            inst = random_instance(rng, 4, 10, 0, 2, 0.3)
            pol = StructurePolicy(
                max_cycle_len=rng.choice([2, 3]), max_chain_len=rng.choice([None, 2, 3])
            )
            if trial % 2:
                pol = replace(pol, cardinality_mode="delta", delta=rng.randint(1, 3))
            maxcard = brute_best(inst, pol, unit(inst))
            card = ("atleast", max(maxcard - pol.delta, 0))
            always = frozenset(inst.pairs)
            for cov in packing_covers(inst, pol, card):
                always &= cov
            assert always_covered_count(inst, pol) == (len(always), always), trial
            # the first witness is a maximum packing; fewer pairs mean the loop shrank it
            saw_strict |= 0 < len(always) < maxcard
        assert saw_strict
