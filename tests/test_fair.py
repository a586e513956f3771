"""Fairness solvers (maximin/leximin/Nash/Gini/utilitarian) vs enumerated families."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import fairkep
from fairkep.core import Cycle, KepInstance, Lottery, Packing, StructurePolicy
from fairkep.fair import (
    solve_gini,
    solve_leximin,
    solve_maximin,
    solve_nash,
    solve_utilitarian,
    sparsify,
)
from fairkep.oracle import enumerate_structures
from helpers import leximin_marginals

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
        """Column generation must not rely on assert statements: python -O
        strips them, and an assert that adds a column would loop forever."""
        code = (
            "from fractions import Fraction as F\n"
            "from fairkep.core import KepInstance, StructurePolicy\n"
            "from fairkep.fair import solve_maximin\n"
            f"arcs = {sorted(TRIPLE.arcs)!r}\n"
            "inst = KepInstance(pairs=frozenset(range(1, 8)), ndds=frozenset(),"
            " arcs={a: F(1) for a in arcs})\n"
            "pol = StructurePolicy(max_cycle_len=3, cardinality_mode='delta', delta=3)\n"
            "r = solve_maximin(inst, pol)\n"
            "print(r.objective, sorted(r.marginals.items()))\n"
        )
        src = str(Path(fairkep.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        r = solve_maximin(TRIPLE, CYC3D3)
        assert out.stdout.strip() == f"{r.objective} {sorted(r.marginals.items())}"

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
                assert abs(float(gini.marginals[v]) - float(lexs.marginals[v])) < 1e-6, (trial, v)


class TestSparsify:
    def test_support_bound_and_marginals(self):
        pairs = list(range(8))
        structs = [Cycle((u, v)) for u, v in combinations(pairs, 2)]
        rng = random.Random(3)
        cols = [Packing.of(*rng.sample(structs, 1)) for _ in range(50)]
        lot = Lottery(tuple(zip(cols, [F(1, 50)] * 50)))
        sp = sparsify(lot)
        assert len(sp.support) <= len(pairs) + 2
        assert sp.marginals(pairs) == lot.marginals(pairs)
