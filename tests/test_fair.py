"""Fairness solvers (maximin/leximin/Nash/Gini/utilitarian) vs enumerated families."""

from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import fairkep
from fairkep import fair, gen
from fairkep.core import Cycle, FairkepError, KepInstance, Lottery, Packing, StructurePolicy
from fairkep.fair import (
    solve_gini,
    solve_leximin,
    solve_maximin,
    solve_nash,
    solve_utilitarian,
    sparsify,
)
from fairkep.oracle import delta_star, enumerate_structures
from helpers import leximin_marginals, min_gini, packing_covers

F = Fraction
CYC3 = StructurePolicy(max_cycle_len=3)
CYC3D1 = replace(CYC3, cardinality_mode="delta", delta=1)
CYC3D3 = replace(CYC3, cardinality_mode="delta", delta=3)
MATCH = StructurePolicy(max_cycle_len=2)


def make(pairs, ndds, arcs):
    return KepInstance(
        pairs=frozenset(pairs), ndds=frozenset(ndds), arcs={a: F(1) for a in arcs}
    )


# one 2-cycle and one 3-cycle sharing vertex 2
SHARED = make([1, 2, 3, 4], [], [(1, 2), (2, 1), (2, 3), (3, 4), (4, 2)])
# a top 3-cycle {1,2,3} overlapping two disjoint bottom 3-cycles
TRIPLE = make(
    range(1, 8),
    [],
    [(1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 2), (3, 6), (6, 7), (7, 3)],
)


def all_packings(inst, pol, min_card=None, exact_card=None):
    structs = enumerate_structures(inst, pol)
    out = []

    def rec(i, used):
        card = len(used)
        if (min_card is None or card >= min_card) and (
            exact_card is None or card == exact_card
        ):
            out.append(frozenset(used))
        for j in range(i, len(structs)):
            cov = set(structs[j].covered())
            if cov & used:
                continue
            rec(j + 1, used | cov)

    rec(0, set())
    return sorted(set(out), key=sorted)


class TestSharedVertexGraph:
    def test_maximin(self):
        r = solve_maximin(SHARED, CYC3D1)
        assert r.objective == F(1, 2)
        assert r.marginals == {1: F(1, 2), 2: F(1), 3: F(1, 2), 4: F(1, 2)}
        probs = {pk.sorted_structures()[0].length: p for pk, p in r.lottery.support}
        assert probs == {2: F(1, 2), 3: F(1, 2)}

    def test_leximin(self):
        r = solve_leximin(SHARED, CYC3D1)
        assert r.marginals == {1: F(1, 2), 2: F(1), 3: F(1, 2), 4: F(1, 2)}
        assert r.objective == (F(1, 2), F(1, 2), F(1, 2), F(1))

    def test_utilitarian(self):
        r = solve_utilitarian(SHARED, CYC3D1)
        assert r.lottery.support == ((Packing.of(Cycle((2, 3, 4))), F(1)),)
        assert r.objective == 3

    def test_nash(self):
        r = solve_nash(SHARED, CYC3D1, tol=1e-6)
        q = {v: float(x) for v, x in r.marginals.items()}
        assert abs(q[1] - 1 / 3) < 1e-6 and abs(q[3] - 2 / 3) < 1e-6 and q[2] == 1.0
        probs = {pk.sorted_structures()[0].length: float(p) for pk, p in r.lottery.support}
        assert abs(probs[2] - 1 / 3) < 1e-6 and abs(probs[3] - 2 / 3) < 1e-6
        assert r.gap <= 1e-6

    def test_gini(self):
        r = solve_gini(SHARED, CYC3D1)
        assert r.objective == F(3, 20)
        probs = {pk.sorted_structures()[0].length: p for pk, p in r.lottery.support}
        assert probs == {2: F(1, 2), 3: F(1, 2)}


def run_under_python_O(inst, body):
    """Run `body` (source that prints a summary of a solve on `inst`) under
    python -O and in this process; both must print the same.

    Exact solvers must not rely on assert statements: python -O strips them,
    and an assert that adds a column would loop forever."""
    code = (
        "from fractions import Fraction as F\n"
        "from fairkep.core import KepInstance\n"
        f"inst = KepInstance(pairs=frozenset({sorted(inst.pairs)!r}), ndds=frozenset(),"
        f" arcs={{a: F(1) for a in {sorted(inst.arcs)!r}}})\n"
    ) + body
    src = str(Path(fairkep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    here = io.StringIO()
    with redirect_stdout(here):
        exec(code, {})
    assert out.stdout == here.getvalue()


FAIR_UNDER_O = (
    "from fairkep.core import StructurePolicy\n"
    "from fairkep.fair import {solver}\n"
    "pol = StructurePolicy(max_cycle_len=3, cardinality_mode='delta', delta=3)\n"
    "r = {solver}(inst, pol)\n"
    "print(r.objective, sorted(r.marginals.items()))\n"
)


def test_matching_lottery_under_python_O():
    # two triangles joined through pair 4, which also serves the pendant pair 8;
    # a tampered solution must still fail its check with asserts stripped
    edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7), (4, 8)]
    inst = make(range(1, 9), [], [a for u, v in edges for a in ((u, v), (v, u))])
    run_under_python_O(inst, (
        "from fractions import Fraction\n"
        "from fairkep.core import FairkepError\n"
        "from fairkep.lorenz import leximin_lottery_graph, leximin_matching_lottery\n"
        "from fairkep.matching import UGraph\n"
        "lot = leximin_matching_lottery(inst)\n"
        "print(sorted(lot.marginals(inst.pairs).items()), [p for _, p in lot.support])\n"
        "sol = leximin_lottery_graph(UGraph.of(inst.pairs, inst.undirected_edges()))\n"
        "sol.marginals[1] += Fraction(1, 7)\n"
        "try:\n"
        "    sol.check()\n"
        "    print('check passed')\n"
        "except FairkepError as e:\n"
        "    print('check raised', type(e).__name__)\n"
    ))


class TestTripleOverlapGraph:
    TOP = Packing.of(Cycle((1, 2, 3)))
    BOTTOM = Packing.of(Cycle((2, 4, 5)), Cycle((3, 6, 7)))

    def test_maximin_and_leximin(self):
        assert solve_maximin(TRIPLE, CYC3D3).objective == F(1, 2)
        r = solve_leximin(TRIPLE, CYC3D3)
        want = {1: F(1, 2), 2: F(1), 3: F(1), 4: F(1, 2),
                5: F(1, 2), 6: F(1, 2), 7: F(1, 2)}
        assert r.marginals == want
        sup = dict(r.lottery.support)
        assert sup.get(self.TOP) == F(1, 2) and sup.get(self.BOTTOM) == F(1, 2)

    def test_maximin_under_python_O(self):
        run_under_python_O(TRIPLE, FAIR_UNDER_O.format(solver="solve_maximin"))

    def test_leximin_under_python_O(self):
        run_under_python_O(TRIPLE, FAIR_UNDER_O.format(solver="solve_leximin"))

    def test_nash(self):
        r = solve_nash(TRIPLE, CYC3D3, tol=1e-6)
        sup = {pk: float(p) for pk, p in r.lottery.support}
        assert abs(sup.get(self.TOP, 0) - 0.2) < 1e-6
        assert abs(sup.get(self.BOTTOM, 0) - 0.8) < 1e-6

    def test_utilitarian_and_gini(self):
        r = solve_utilitarian(TRIPLE, CYC3D3)
        assert r.lottery.support == ((self.BOTTOM, F(1)),)
        r = solve_gini(TRIPLE, CYC3D3)
        assert r.objective == F(1, 7)
        assert r.lottery.support == ((self.BOTTOM, F(1)),)


class TestRandomInstances:
    def test_leximin_vs_enumerated_oracle(self):
        rng = random.Random(5)
        for trial in range(100):
            n = rng.randint(3, 8)
            pairs = list(range(n))
            arcs = [(u, v) for u in pairs for v in pairs if u != v and rng.random() < 0.4]
            inst = make(pairs, [], arcs)
            pol = rng.choice([CYC3, MATCH, CYC3D1])
            if not enumerate_structures(inst, pol):
                continue
            maxcard = max((len(c) for c in all_packings(inst, pol)), default=0)
            mincard = maxcard - (pol.delta if pol.cardinality_mode == "delta" else 0)
            fam = all_packings(inst, pol, min_card=mincard)
            want = leximin_marginals(pairs, fam)
            got = solve_leximin(inst, pol)
            assert got.marginals == want, (trial, got.marginals, want)
            mm = solve_maximin(inst, pol)
            assert mm.objective == min(want.values()), trial

    def test_nash_gini_equal_leximin_on_matchings(self):
        rng = random.Random(6)
        for trial in range(50):
            n = rng.randint(3, 8)
            pairs = list(range(n))
            edges = [(u, v) for u, v in combinations(pairs, 2) if rng.random() < 0.45]
            if not edges:
                continue
            arcs = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
            inst = make(pairs, [], arcs)
            lex = solve_leximin(inst, MATCH)
            cov = {v for v, q in lex.marginals.items() if q > 0}
            sub = inst.restrict(cov)
            if not sub.pairs:
                continue
            lexs = solve_leximin(sub, MATCH)
            nash = solve_nash(sub, MATCH, tol=1e-8)
            gini = solve_gini(sub, MATCH)
            for v in sub.pairs:
                assert abs(float(nash.marginals[v]) - float(lexs.marginals[v])) < 1e-6, (trial, v)
                assert gini.marginals[v] == lexs.marginals[v], (trial, v)


class TestSparsify:
    def test_support_bound_and_marginals(self):
        pairs = list(range(8))
        structs = [Cycle((u, v)) for u, v in combinations(pairs, 2)]
        rng = random.Random(3)
        cols = [Packing.of(*rng.sample(structs, 1)) for _ in range(50)]
        lot = Lottery(tuple(zip(cols, [F(1, 50)] * 50)))
        sp = sparsify(lot)
        assert len(sp.support) <= len(pairs) + 1
        assert sp.marginals(pairs) == lot.marginals(pairs)

    def test_within_bound_returns_merged_lottery(self, monkeypatch):
        a, b = Packing.of(Cycle((0, 1))), Packing.of(Cycle((1, 2)))
        lot = Lottery(((a, F(1, 4)), (b, F(1, 4)), (a, F(1, 2))))

        def fail(*args):
            raise AssertionError("support within bound must not be reduced")

        monkeypatch.setattr(fair, "caratheodory", fail)
        assert sparsify(lot) == lot.merged()
        assert sparsify(lot).support == ((a, F(3, 4)), (b, F(1, 4)))


class TestPreprocess:
    def test_drops_uncoverable_pairs(self):
        inst = make([1, 2, 3], [], [(1, 2), (2, 1)])  # 3 is isolated
        sub, dropped = fair.preprocess(inst, MATCH)
        assert sub.pairs == frozenset({1, 2})
        assert dropped == [3]
        same, none_dropped = fair.preprocess(sub, MATCH)
        assert same is sub and none_dropped == []


class TestChecks:
    """Invariant checks that raise FairkepError rather than assert, triggered
    through stubs of the solvers' inner steps."""

    def test_leximin_levels_must_not_decrease(self, monkeypatch):
        real, calls = fair._maximin_lp, []

        def lower_second_level(master, fixed):
            level, *rest = real(master, fixed)
            calls.append(level)
            return (level if len(calls) == 1 else F(1, 4)), *rest

        monkeypatch.setattr(fair, "_maximin_lp", lower_second_level)
        with pytest.raises(FairkepError, match="levels must not decrease"):
            solve_leximin(SHARED, CYC3D1)

    def test_leximin_duals_must_price_an_unfixed_pair(self, monkeypatch):
        # below level 1, a round whose duals price no unfixed pair fixes nothing
        real = fair._maximin_lp

        def unpriced(master, fixed):
            level, weights, prices, rounds, gap = real(master, fixed)
            return level, weights, {v: 0 * y for v, y in prices.items()}, rounds, gap

        monkeypatch.setattr(fair, "_maximin_lp", unpriced)
        with pytest.raises(FairkepError, match="price no unfixed pair"):
            solve_leximin(SHARED, CYC3D1)

    @pytest.mark.parametrize("exact_limit", [40, 0], ids=["exact", "float"])
    def test_leximin_pairs_end_at_their_levels(self, monkeypatch, exact_limit):
        # levels reported 1/4 below the truth fix pairs that the final lottery
        # covers more often than their levels
        real = fair._maximin_lp

        def low_level(master, fixed):
            level, *rest = real(master, fixed)
            return level - F(1, 4), *rest

        monkeypatch.setattr(fair, "EXACT_PAIR_LIMIT", exact_limit)
        monkeypatch.setattr(fair, "_maximin_lp", low_level)
        with pytest.raises(FairkepError, match="end away from the levels"):
            solve_leximin(SHARED, CYC3D1)

    @pytest.mark.parametrize("inner", ["maximin", "gini"])
    def test_exact_master_rejects_existing_column_priced_above_bound(self, inner):
        seed = Packing.of(Cycle((1, 2)))
        master = fair.RestrictedMaster([1, 2, 3, 4], lambda prices: (seed, F(10)), True, seed)
        with pytest.raises(FairkepError, match="existing column with positive reduced cost"):
            if inner == "maximin":
                fair._maximin_lp(master, {})
            else:
                fair._gini_inner(master, F(1, 4), {})

    def test_gini_inner_must_cover_a_pair(self, monkeypatch):
        monkeypatch.setattr(fair, "_gini_inner", lambda master, mu, cuts: (F(-1), [], [F(0)] * 4))
        with pytest.raises(FairkepError, match="covers no pair"):
            solve_gini(SHARED, CYC3D1)

    def test_gini_ratio_must_decrease(self, monkeypatch):
        # the maximin start has ratio 3/20; marginals (1, 0, 0, 0) have 3/4
        monkeypatch.setattr(
            fair, "_gini_inner", lambda master, mu, cuts: (F(-1), [], [F(1), 0, 0, 0])
        )
        with pytest.raises(FairkepError, match="ratio must decrease"):
            solve_gini(SHARED, CYC3D1)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_gini_cut_violated_in_its_own_lp(self, monkeypatch, exact):
        # an LP that reports T = 0 whatever its cuts violates the cut it was given
        real = fair.lp_solve

        def zero_t(*args, **kwargs):
            # _gini_inner solves the LP's dual, so T is the last dual of its rows
            y, objective, x, duals_eq = real(*args, **kwargs)
            return y, objective, [*x[:-1], 0], duals_eq

        monkeypatch.setattr(fair, "lp_solve", zero_t)
        seed = Packing.of(Cycle((1, 2)))
        master = fair.RestrictedMaster([1, 2, 3, 4], lambda prices: (seed, F(0)), exact, seed)
        with pytest.raises(FairkepError, match="violated in its own LP"):
            fair._gini_inner(master, F(1, 4), {})


class TestGiniReference:
    """solve_gini against helpers.min_gini: Dinkelbach on the quadratic
    t_uv model over every packing of the pool, with no column generation."""

    @staticmethod
    def family(inst, pol):
        free = packing_covers(inst, pol)
        maxcard = max(len(c) for c in free)
        mincard = maxcard - (pol.delta if pol.cardinality_mode == "delta" else 0)
        return [c for c in free if len(c) >= mincard]

    def test_random_small_pools(self):
        rng = random.Random(7)
        for trial in range(60):
            n = rng.randint(3, 7)
            pairs = list(range(n))
            arcs = [(u, v) for u in pairs for v in pairs if u != v and rng.random() < 0.4]
            inst = make(pairs, [], arcs)
            pol = rng.choice([CYC3, MATCH, CYC3D1])
            fam = self.family(inst, pol)
            if not any(fam):
                continue
            r = solve_gini(inst, pol)
            assert r.objective == min_gini(pairs, fam), trial
            assert type(r.gap) is Fraction and r.gap == 0, trial

    # larger generated pools, still small enough to list every packing
    @pytest.mark.parametrize("n_pairs, seed", [(9, 7090), (10, 7102), (11, 7111), (12, 7120)])
    def test_generated_pools(self, n_pairs, seed):
        inst = gen.generate_instance(gen.GenConfig(n_pairs=n_pairs, seed=seed))
        r = solve_gini(inst, CYC3D1)
        assert r.iterations >= 2
        assert type(r.gap) is Fraction and r.gap == 0
        assert r.objective == min_gini(inst.pairs, self.family(inst, CYC3D1))


class TestPinnedMarginals:
    # sha256 over the leximin marginals of 40 generated 12-15-pair cyc3 pools
    # (preprocessed; delta* + 1 on even pools, delta* on odd ones), solved on
    # exact masters and on float masters (rounded to 1e-9); recorded with
    # per-pair saturation tests. Leximin marginals are unique, so every
    # correct level-fixing rule reproduces them.
    PINNED = "bfef45a27cf437aec3b64710e14d60b9f94fdd16a106994e769d35ab0c9f5fb6"

    @staticmethod
    def pools():
        for u in range(40):
            inst = gen.generate_instance(gen.GenConfig(n_pairs=12 + u % 4, seed=0x50000 + u))
            reduced, _ = fair.preprocess(inst, CYC3)
            delta = delta_star(reduced, CYC3) + 1 - u % 2
            yield reduced, replace(CYC3, cardinality_mode="delta", delta=delta)

    def test_marginals_unchanged(self, monkeypatch):
        h = hashlib.sha256()
        for inst, pol in self.pools():
            exact = solve_leximin(inst, pol).marginals
            h.update(repr(sorted(exact.items())).encode())
        monkeypatch.setattr(fair, "EXACT_PAIR_LIMIT", 0)
        for inst, pol in self.pools():
            floats = solve_leximin(inst, pol).marginals
            h.update(repr([(v, round(float(q), 9)) for v, q in sorted(floats.items())]).encode())
        assert h.hexdigest() == self.PINNED
