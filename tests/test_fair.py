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
from fairkep import fair, gen, lorenz, oracle, paths, simplexlp
from fairkep.core import UNBOUNDED, Cycle, FairkepError, KepInstance, Lottery, Packing, StructurePolicy
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


def test_generated_pool_under_python_O():
    """Maximin and leximin on a generated 13-pair cyc3 pool finish under
    python -O, and every packing of both lotteries validates and meets the
    acceptable cardinality."""
    pool = gen.generate_instance(gen.GenConfig(n_pairs=13, seed=9))
    assert len(pool.pairs) == 13 and not pool.ndds
    run_under_python_O(pool, (
        "from fairkep.core import StructurePolicy, validate_packing\n"
        "from fairkep.fair import preprocess, solve_leximin, solve_maximin\n"
        "from fairkep.oracle import acceptable_cardinality\n"
        "pol = StructurePolicy(max_cycle_len=3)\n"
        "reduced, _ = preprocess(inst, pol)\n"
        "_, k = acceptable_cardinality(reduced, pol)\n"
        "for solve in (solve_maximin, solve_leximin):\n"
        "    r = solve(reduced, pol)\n"
        "    for pk, _ in r.lottery.support:\n"
        "        validate_packing(reduced, pk, pol)\n"
        "        if len(pk.covered) < k:\n"
        "            raise SystemExit(f'{solve.__name__}: packing below cardinality {k}')\n"
        "    print(solve.__name__, r.objective, sorted(r.marginals.items()))\n"
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


class TestChainArcMilp:
    # generated pools whose unbounded-chain leximin solves price at least once
    # and whose enumerated families stay small enough to search quickly; the
    # ones at 2 and 12 cut subtours
    SEEDS = (2, 10, 11, 12, 16, 17)

    def test_leximin_equals_enumerated_family(self, monkeypatch):
        """With the enumeration cap at 0 every oracle query of the solve, the
        seed and each pricing call, is the chain-arc MILP with lazy subtour
        cuts; its leximin marginals equal those over the enumerated family.
        The capped solve runs on a copy of the preprocessed pool, which
        carries no family, so its maximum is a MILP query too."""
        import scipy.optimize

        from fairkep import oracle

        pol = StructurePolicy(max_cycle_len=3, max_chain_len=UNBOUNDED)
        milp_calls = milp_solves = 0
        real_call, real_solve = oracle._milp_max_price, scipy.optimize.milp

        def call(*args, **kw):
            nonlocal milp_calls
            milp_calls += 1
            return real_call(*args, **kw)

        def solve(*args, **kw):
            nonlocal milp_solves
            milp_solves += 1
            return real_solve(*args, **kw)

        for seed in self.SEEDS:
            config = gen.GenConfig(n_pairs=10 + seed % 5, n_ndds=1 + seed % 2, seed=seed)
            inst, _ = fair.preprocess(gen.generate_instance(config), pol)
            want = solve_leximin(inst, pol)
            with monkeypatch.context() as m:
                m.setattr(oracle, "ENUM_CAP", 0)
                m.setattr(oracle, "_milp_max_price", call)
                # _milp_max_price imports milp from scipy.optimize when called
                m.setattr(scipy.optimize, "milp", solve)
                got = solve_leximin(inst.restrict(inst.pairs), pol)
            assert got.pricing_calls > 0, seed
            assert (got.objective, got.marginals) == (want.objective, want.marginals), seed
        # a solve per query, plus one more for every round that added cuts
        assert milp_solves > milp_calls > 0


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
        # nothing to drop: an equal copy, carrying its own family
        same, none_dropped = fair.preprocess(sub, MATCH)
        assert same == sub and same is not sub and none_dropped == []
        assert oracle._family_of(same, MATCH) is oracle._family_of(same, MATCH)
        assert oracle._family_of(same, MATCH) is not oracle._family_of(sub, MATCH)


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
            level, weights, prices, rounds = real(master, fixed)
            return level, weights, {v: 0 * y for v, y in prices.items()}, rounds

        monkeypatch.setattr(fair, "_maximin_lp", unpriced)
        with pytest.raises(FairkepError, match="price no unfixed pair"):
            solve_leximin(SHARED, CYC3D1)

    def test_leximin_pairs_end_at_their_levels(self, monkeypatch):
        # levels reported 1/4 below the truth fix pairs that the final lottery
        # covers more often than their levels
        real = fair._maximin_lp

        def low_level(master, fixed):
            level, *rest = real(master, fixed)
            return level - F(1, 4), *rest

        monkeypatch.setattr(fair, "_maximin_lp", low_level)
        with pytest.raises(FairkepError, match="end away from the levels"):
            solve_leximin(SHARED, CYC3D1)

    @pytest.mark.parametrize("inner", ["maximin", "gini"])
    def test_exact_master_rejects_existing_column_priced_above_bound(self, inner):
        seed = Packing.of(Cycle((1, 2)))
        master = fair.RestrictedMaster([1, 2, 3, 4], lambda prices: (seed, F(10)), seed)
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

    def test_gini_cut_violated_in_its_own_lp(self, monkeypatch):
        # an LP that reports T = 0 whatever its cuts violates the cut it was given
        real = fair.lp_solve

        def zero_t(*args, **kwargs):
            # _gini_inner solves the LP's dual, so T is the last dual of its rows
            y, objective, x, duals_eq = real(*args, **kwargs)
            return y, objective, [*x[:-1], 0], duals_eq

        monkeypatch.setattr(fair, "lp_solve", zero_t)
        seed = Packing.of(Cycle((1, 2)))
        master = fair.RestrictedMaster([1, 2, 3, 4], lambda prices: (seed, F(0)), seed)
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


def test_pool_above_40_pairs_is_exact():
    # a sparse random 50-pair pool, 41 pairs after preprocess, with delta* = 0;
    # the expected values are HiGHS float-master answers, independent of the
    # exact simplex
    rng = random.Random(50001)
    arcs = [(u, v) for u in range(50) for v in range(50) if u != v and rng.random() < 0.1]
    pool, _ = fair.preprocess(make(range(50), [], arcs), CYC3)
    assert len(pool.pairs) == 41 and delta_star(pool, CYC3) == 0
    pol = replace(CYC3, cardinality_mode="delta", delta=0)
    reports = {"leximin": solve_leximin(pool, pol), "maximin": solve_maximin(pool, pol),
               "gini": solve_gini(pool, pol)}
    for name, r in reports.items():
        assert type(r.gap) is Fraction and r.gap == 0, name
    leximin = reports["leximin"].objective
    assert all(type(q) is Fraction for q in leximin)
    assert all(abs(q - t) < 1e-6 for q, t in zip(leximin, [0.5] * 4 + [1.0] * 37))
    for name, target in [("maximin", 0.5), ("gini", 0.046278924327704814)]:
        objective = reports[name].objective
        assert type(objective) is Fraction and abs(objective - target) < 1e-6, name


class TestPinnedMarginals:
    # sha256 over the exact leximin marginals of 40 generated 12-15-pair cyc3
    # pools (preprocessed; delta* + 1 on even pools, delta* on odd ones).
    # Leximin marginals are unique, so every correct level-fixing rule
    # reproduces them.
    PINNED = "6b526555b6cede1fee5980370ae6608d7f4dc5743ebfd338048c8e1eb7837a07"

    @staticmethod
    def pools():
        for u in range(40):
            inst = gen.generate_instance(gen.GenConfig(n_pairs=12 + u % 4, seed=0x50000 + u))
            reduced, _ = fair.preprocess(inst, CYC3)
            delta = delta_star(reduced, CYC3) + 1 - u % 2
            yield reduced, replace(CYC3, cardinality_mode="delta", delta=delta)

    def test_marginals_unchanged(self):
        h = hashlib.sha256()
        for inst, pol in self.pools():
            exact = solve_leximin(inst, pol).marginals
            h.update(repr(sorted(exact.items())).encode())
        assert h.hexdigest() == self.PINNED

    # (float objective, iterations, gap, support size) of solve_nash at delta*
    # on preprocessed 14-pair cyc3 pools; each solve takes 2 corrective steps
    NASH_PINNED = {
        47: (0.09329324442896418, 3, 8.30446911237459e-08, 7),
        38: (0.0009765624999999985, 3, 1.5503991868115463e-07, 4),
    }

    @pytest.mark.parametrize("seed", sorted(NASH_PINNED))
    def test_nash_corrective_steps_unchanged(self, seed, monkeypatch):
        steps = []
        step = fair._corrective_step
        monkeypatch.setattr(fair, "_corrective_step", lambda *a: steps.append(1) or step(*a))
        inst, _ = fair.preprocess(gen.generate_instance(gen.GenConfig(n_pairs=14, seed=seed)), CYC3)
        pol = replace(CYC3, cardinality_mode="delta", delta=delta_star(inst, CYC3))
        r = solve_nash(inst, pol)
        got = (float(r.objective), r.iterations, r.gap, len(r.lottery.support))
        assert got == self.NASH_PINNED[seed]
        assert len(steps) == 2



def at_delta_star(n_pairs: int, seed: int):
    """A generated pool, preprocessed under cyc3, and cyc3 at its δ*."""
    pool, _ = fair.preprocess(gen.generate_instance(gen.GenConfig(n_pairs=n_pairs, seed=seed)), CYC3)
    return pool, replace(CYC3, cardinality_mode="delta", delta=delta_star(pool, CYC3))


# (cold solves, resumed solves, simplexlp._pivot calls) of the LPs of
# TestLpWork's solves; GINI_POOL is the Gini solve's pool
GINI_POOL = (12, 3)
LP_WORK = {"leximin": (62, 67, 346), "maximin": (1, 6, 9), "gini": (3, 13, 47)}


class TestLpWork:
    """The exact LP work of column generation.  A master LP that has only
    gained columns since its last solve resumes from that solve's tableau:
    each maximin round solves cold once, then resumes per priced column; a
    Gini pricing round solves cold once, then resumes per sort-order cut.
    Leximin over TestPinnedMarginals' pools, maximin on a 14-pair pool and
    Gini on GINI_POOL, all at δ*."""

    def test_lp_work_pinned(self, monkeypatch):
        work = {}
        solve = fair.lp_solve_exact
        pivot = simplexlp._pivot

        def counting_solve(*args, **kwargs):
            start = kwargs.get("start")
            kind = "resumed" if start is not None and start.tab else "cold"
            work[kind] = work.get(kind, 0) + 1
            return solve(*args, **kwargs)

        def counting_pivot(*args):
            work["pivots"] = work.get("pivots", 0) + 1
            return pivot(*args)

        monkeypatch.setattr(fair, "lp_solve_exact", counting_solve)
        monkeypatch.setattr(simplexlp, "_pivot", counting_pivot)

        def counted(run):
            work.clear()
            run()
            return tuple(work.get(k, 0) for k in ("cold", "resumed", "pivots"))

        got = {
            "leximin": counted(lambda: [solve_leximin(*pool) for pool in TestPinnedMarginals.pools()]),
            "maximin": counted(lambda: solve_maximin(*at_delta_star(14, 47))),
            "gini": counted(lambda: solve_gini(*at_delta_star(*GINI_POOL))),
        }
        assert got == LP_WORK

class TestFrontDoor:
    """`fair.lottery`, `fair.best_packing` and `fair.pool_metric` answer as
    the engine routes they pick, and refuse a request no engine answers
    before any engine runs."""

    @staticmethod
    def pool(n_pairs, seed, n_ndds=0):
        return gen.generate_instance(gen.GenConfig(n_pairs=n_pairs, n_ndds=n_ndds, seed=seed))

    @pytest.mark.parametrize("objective, tol, solve_tol", [
        ("maximin", 1e-6, None), ("leximin", 1e-6, None), ("nash", 1e-3, 1e-3), ("gini", 1e-3, 1e-8),
    ])
    def test_fairness_objectives_run_at_delta_star(self, objective, tol, solve_tol):
        # the pool has pairs no cyc3 packing covers: preprocessing at any
        # cardinality drops them, then the solve runs at δ* of what is left
        inst = self.pool(20, 100)
        any_size = replace(CYC3, cardinality_mode="delta", delta=len(inst.pairs))
        reduced, dropped = fair.preprocess(inst, any_size)
        assert dropped
        policy = replace(any_size, delta=delta_star(reduced, CYC3))
        solve = {"maximin": solve_maximin, "leximin": solve_leximin, "nash": solve_nash, "gini": solve_gini}
        kwargs = {} if solve_tol is None else {"tol": solve_tol}
        assert fair.lottery(inst, CYC3, objective, tol=tol) == solve[objective](reduced, policy, **kwargs)

    def test_utilitarian_and_a_given_relaxation_skip_delta_star(self):
        # a given relaxation still runs over the pool preprocessing keeps
        inst = self.pool(20, 100)
        assert fair.lottery(inst, CYC3, "utilitarian") == solve_utilitarian(inst, CYC3)
        any_size = replace(CYC3, cardinality_mode="delta", delta=len(inst.pairs))
        reduced, _ = fair.preprocess(inst, any_size)
        assert fair.lottery(inst, CYC3D1, "maximin") == solve_maximin(reduced, CYC3D1)

    def test_a_given_relaxation_drops_uncoverable_pairs(self):
        # `generate --pairs 12 --seed 3` has pairs no cyc3 packing covers; under
        # δ = 1 they go as on the δ* route, so Nash answers and maximin is the
        # least marginal over the kept pairs rather than 0
        inst = self.pool(12, 3)
        any_size = replace(CYC3, cardinality_mode="delta", delta=len(inst.pairs))
        kept = fair.preprocess(inst, any_size)[0].pairs
        assert kept < inst.pairs
        maximin = fair.lottery(inst, CYC3D1, "maximin")
        assert maximin.objective == min(maximin.lottery.marginals(kept).values()) > 0
        nash = fair.lottery(inst, CYC3D1, "nash")
        assert nash.gap <= 1e-6 and min(nash.lottery.marginals(kept).values()) > 0

    @pytest.mark.parametrize("route", ["node", "edge", "mu"])
    def test_matching_engines(self, route):
        inst = self.pool(12, 3)
        u, v = min(inst.undirected_edges())
        if route == "node":
            report = fair.lottery(inst, MATCH, node_weights={u: F(2), v: F(1)})
            want = lorenz.node_weight_leximin(inst, {u: F(2), v: F(1)})
        elif route == "edge":
            report = fair.lottery(inst, MATCH, edge_weights={(u, v): F(3)})
            want = lorenz.edge_weight_reduction(inst, {(u, v): F(3)})
        else:
            report = fair.lottery(inst, replace(MATCH, cardinality_mode="fixed", mu=2))
            want = lorenz.fixed_cardinality_reduction(inst, mu=2)
        # the objective covers the pairs on a mutual-compatibility edge, the
        # pairs preprocessing keeps on the column-generation route
        q = want.marginals({w for e in inst.undirected_edges() for w in e})
        assert report == fair.SolveReport(want, tuple(sorted(q.values())), 0, 0, F(0), q)

    @pytest.mark.parametrize("policy, objective, weights", [
        (CYC3, "leximin", "node"),
        (replace(MATCH, cardinality_mode="delta", delta=1), "leximin", "edge"),
        (replace(MATCH, cardinality_mode="fixed", mu=1), "leximin", "node"),
        (MATCH, "leximin", "both"),
        (MATCH, "nash", "node"),
        (replace(MATCH, cardinality_mode="fixed", mu=1), "maximin", None),
        (CYC3, "median", None),
    ], ids=["node-cyc3", "edge-delta", "node-mu", "both-maps", "nash-weights", "maximin-mu", "unknown"])
    def test_lottery_refuses_before_any_engine_runs(self, policy, objective, weights, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("an engine ran")

        for module, name in ((fair, "preprocess"), (fair, "_solve"), (lorenz, "node_weight_leximin"),
                             (lorenz, "edge_weight_reduction"), (lorenz, "fixed_cardinality_reduction")):
            monkeypatch.setattr(module, name, engine)
        maps = {"node_weights": {1: F(1)}, "edge_weights": {(1, 2): F(1)}}
        if weights != "both":
            maps = {k: m for k, m in maps.items() if k.startswith(str(weights))}
        with pytest.raises(ValueError):
            fair.lottery(SHARED, policy, objective, **maps)

    def test_best_packing_routes(self):
        inst = self.pool(10, 3, n_ndds=2)
        packing, certificate = paths.max_2path_packing(inst)
        assert fair.best_packing(inst, paths.TWO_PATH) == (packing, None, certificate)
        mixed = oracle.PackingFamily(inst, paths.TWO_CYCLE_TWO_PATH).maximum()[0]
        assert fair.best_packing(inst, paths.TWO_CYCLE_TWO_PATH) == (mixed, None, None)
        prices = {v: F(v % 3 + 1) for v in inst.pairs}
        match_mu = replace(MATCH, cardinality_mode="fixed", mu=1)
        for policy, given in ((CYC3, None), (CYC3D1, prices), (match_mu, None)):
            family = oracle.PackingFamily(inst, policy)
            card = oracle.acceptable_cardinality(inst, policy, family)
            want = oracle.max_price_packing(family, given or dict.fromkeys(inst.pairs, F(1)), card)
            assert fair.best_packing(inst, policy, given) == (*want, None)

    @pytest.mark.parametrize("policy, prices", [
        (paths.TWO_PATH, {1: F(1)}),
        (replace(paths.TWO_PATH, cardinality_mode="fixed", mu=1), None),
        (replace(paths.TWO_CYCLE_TWO_PATH, cardinality_mode="delta", delta=1), None),
        (paths.TWO_CYCLE_TWO_PATH, {1: F(1)}),
    ], ids=["2path-prices", "2path-mu", "2cyc2path-delta", "2cyc2path-prices"])
    def test_best_packing_refuses_prices_and_relaxations_on_2paths(self, policy, prices):
        with pytest.raises(ValueError):
            fair.best_packing(SHARED, policy, prices)

    def test_pool_metric(self):
        inst = self.pool(20, 100)
        losses = oracle.coverage_losses(inst, CYC3)
        assert None in losses.values()
        assert fair.pool_metric(inst, CYC3, "coverage_loss") == losses
        # the δ* over the pairs some packing covers, which `lottery` relaxes to
        any_size = replace(CYC3, cardinality_mode="delta", delta=len(inst.pairs))
        star = delta_star(fair.preprocess(inst, any_size)[0], CYC3)
        assert fair.pool_metric(inst, CYC3, "delta_star") == star
        assert star == max(x for x in losses.values() if x is not None)
        covered = oracle.always_covered_count(inst, CYC3D1)
        assert fair.pool_metric(inst, CYC3D1, "always_covered") == covered
        assert fair.pool_metric(inst, CYC3, "max_cardinality") == oracle.PackingFamily(inst, CYC3).maximum()[1]
        for policy, metric in ((CYC3D1, "delta_star"), (CYC3D1, "max_cardinality"), (CYC3, "median")):
            with pytest.raises(ValueError):
                fair.pool_metric(inst, policy, metric)
