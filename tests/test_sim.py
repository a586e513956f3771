"""Dynamic-pool simulator: determinism, conservation, interval math."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from scipy.special import betainc

from fairkep.core import StructurePolicy
from fairkep.gen import GenConfig, generate_batches
from fairkep.sim import (
    ALGORITHMS,
    SimConfig,
    WaitTimeLinear,
    compare_heuristics,
    jeffreys_interval,
    run_simulation,
    waiting_weight,
)

F = Fraction
CYC3 = StructurePolicy(max_cycle_len=3)


def small_batches(seed=2, n=4, pairs=8, ndds=1):
    return generate_batches(GenConfig(n_pairs=pairs, n_ndds=ndds, seed=seed), n)


def simulation_digest(trace, stats) -> str:
    """sha256 over every period record, every node record and the stats."""
    h = hashlib.sha256()
    for rec in trace.periods:
        h.update(repr((sorted(rec.arrivals), sorted(rec.matched), rec.pool_size)).encode())
    h.update(repr(sorted(trace.nodes.items())).encode())
    h.update(repr(stats).encode())
    return h.hexdigest()


class TestWeighting:
    def test_linear_weight(self):
        w = WaitTimeLinear(base=F(2), alpha=F(1, 10))
        assert waiting_weight(30, w) == F(5)
        assert waiting_weight(0, w) == F(2)
        assert waiting_weight(30, None) == F(1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            WaitTimeLinear(alpha=F(-1))
        with pytest.raises(ValueError):
            waiting_weight(-1, None)


class TestConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            SimConfig(policy=CYC3, algorithm="nope")

    def test_bad_replications(self):
        with pytest.raises(ValueError):
            SimConfig(policy=CYC3, replications=0)


class TestSimulation:
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_deterministic(self, alg):
        batches = small_batches()
        cfg = SimConfig(policy=CYC3, algorithm=alg, seed=5, replications=2)
        t1, s1 = run_simulation(batches, cfg)
        t2, s2 = run_simulation(batches, cfg)
        assert t1 == t2 and s1 == s2

    def test_seed_changes_outcome(self):
        batches = small_batches(pairs=10, n=5)
        a = run_simulation(batches, SimConfig(policy=CYC3, algorithm="heuristic-ilp-shuffle", seed=1))
        b = run_simulation(batches, SimConfig(policy=CYC3, algorithm="heuristic-ilp-shuffle", seed=2))
        assert a[0] != b[0]

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_conservation(self, alg):
        batches = small_batches(seed=3)
        trace, stats = run_simulation(batches, SimConfig(policy=CYC3, algorithm=alg, seed=7))
        seen_matched: set[int] = set()
        arrived: set[int] = set()
        for rec in trace.periods:
            arrived |= rec.arrivals
            # matched nodes must have arrived and never match twice
            assert rec.matched <= arrived
            assert not (rec.matched & seen_matched)
            seen_matched |= rec.matched
        for v, nr in trace.nodes.items():
            if nr.match_period is not None:
                assert nr.match_period >= nr.arrival_period
                assert v in seen_matched
            else:
                assert v not in seen_matched
        waits = [
            nr.match_period - nr.arrival_period
            for nr in trace.nodes.values()
            if nr.match_period is not None
        ]
        if waits:
            assert stats.max >= stats.p90 >= stats.median >= 0
            assert stats.num_matched > 0

    def test_wait_weighting_runs(self):
        batches = small_batches(seed=9, n=3)
        cfg = SimConfig(policy=CYC3, weighting=WaitTimeLinear(), seed=1)
        trace, _ = run_simulation(batches, cfg)
        assert len(trace.periods) == 3

    def test_empty_batches_rejected(self):
        with pytest.raises(ValueError):
            run_simulation([], SimConfig(policy=CYC3))


class TestPinnedTraces:
    """Digests of whole simulations, recorded before the arrival loop was
    bucketed by blood type.  Every arc draw, tie-break and shuffle feeds the
    trace, so a change to the order of the random draws in `_Pool.arrive`
    (or anywhere else in a period) moves them.  Leximin draws ignore the
    waiting-time prices, so its two digests agree."""

    PINNED = {
        ("implicit", False): "9742d31b8aa3c29dd93990f717740b03ee98badaace969dc4b115f92d5f2e14d",
        ("implicit", True): "b6abac57a4e4e48f68c9dd122933a279a7afd74e401ae398c5b2dd9d9f0898b9",
        ("heuristic-ilp-shuffle", False): "f94a9bd5989d4e32745add03b48ee91a55ccf92a64b10c160240b8aeabf1cc1e",
        ("heuristic-ilp-shuffle", True): "9fc5449c7e093242f514849803c76231689c7447c4ba726a97e23becb1d26fb4",
        ("heuristic-node-shuffle", False): "721d1cbb22fa832a8fa77379cce4d1209d6696d589fef5f1967bf7a785130e28",
        ("heuristic-node-shuffle", True): "6dfc3b2992cd6ab91e53c854d596339e34fd41fd3279488b43fb4ecc10ec682f",
        ("leximin", False): "f54befcb92827de7865bdb7114242c424eea2bc94ea7cea1c1893bbcbfd094fb",
        ("leximin", True): "f54befcb92827de7865bdb7114242c424eea2bc94ea7cea1c1893bbcbfd094fb",
    }
    CHAINS = "8f08fcca07d713ea59e9bbb9a2ce639a489c973a3ec45c8967bec055efef28c7"
    COMPARE = "31e3db0af1de165f47ad8a57691ca3658998d5c92192f9aa9752549a353b6a11"

    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_algorithms(self, alg, weighted):
        cfg = SimConfig(policy=CYC3, algorithm=alg, seed=5, replications=2,
                        weighting=WaitTimeLinear() if weighted else None)
        digest = simulation_digest(*run_simulation(small_batches(n=6, pairs=6), cfg))
        assert digest == self.PINNED[(alg, weighted)]

    def test_bounded_chains(self):
        cfg = SimConfig(policy=StructurePolicy(max_cycle_len=3, max_chain_len=2),
                        weighting=WaitTimeLinear(), seed=3)
        batches = small_batches(seed=4, n=3, pairs=6, ndds=2)
        assert simulation_digest(*run_simulation(batches, cfg)) == self.CHAINS

    def test_compare_heuristics(self):
        # the frequencies only: the intervals are scipy's, not the draws'
        inst = generate_batches(GenConfig(n_pairs=10, n_ndds=1, seed=6), 1)[0]
        r = compare_heuristics(inst, n_runs=30, seed=3)
        key = repr((r.sorted_ilp_shuffle, r.sorted_node_shuffle)).encode()
        assert hashlib.sha256(key).hexdigest() == self.COMPARE


class TestJeffreys:
    def bisect_quantile(self, q, a, b):
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if betainc(a, b, mid) < q:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def test_matches_incomplete_beta_inversion(self):
        for s, n in [(0, 30), (30, 30), (5, 40), (17, 100), (1, 31)]:
            lo, hi = jeffreys_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0
            if 0 < s:
                assert lo == pytest.approx(self.bisect_quantile(0.025, s + 0.5, n - s + 0.5), abs=1e-9)
            else:
                assert lo == 0.0
            if s < n:
                assert hi == pytest.approx(self.bisect_quantile(0.975, s + 0.5, n - s + 0.5), abs=1e-9)
            else:
                assert hi == 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            jeffreys_interval(0, 0)


class TestCompareHeuristics:
    def test_shapes_and_determinism(self):
        inst = generate_batches(GenConfig(n_pairs=12, n_ndds=1, seed=6), 1)[0]
        r1 = compare_heuristics(inst, n_runs=40, seed=3)
        r2 = compare_heuristics(inst, n_runs=40, seed=3)
        assert r1 == r2
        n = len(inst.pairs)
        assert len(r1.sorted_ilp_shuffle) == len(r1.sorted_node_shuffle) == n
        assert list(r1.sorted_ilp_shuffle) == sorted(r1.sorted_ilp_shuffle)
        assert list(r1.sorted_node_shuffle) == sorted(r1.sorted_node_shuffle)
        for f, (lo, hi) in zip(r1.sorted_ilp_shuffle, r1.ci_ilp_shuffle):
            assert lo <= f <= hi
        assert r1.max_abs_difference == max(abs(d) for d in r1.difference)
        assert r1.integral == pytest.approx(sum(abs(d) for d in r1.difference) / n)

    def test_min_runs_enforced(self):
        inst = generate_batches(GenConfig(n_pairs=4, seed=1), 1)[0]
        with pytest.raises(ValueError):
            compare_heuristics(inst, n_runs=10)
