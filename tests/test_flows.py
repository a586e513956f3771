"""Exact max-flow and feasible circulation with lower bounds."""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import pytest

from fairkep.flows import INF, Arc, Infeasible, _MaxFlow, feasible_circulation
from helpers import EdmondsKarp

F = Fraction


def max_flow(arcs, source, sink):
    """The maximum source→sink flow on `_MaxFlow`, ignoring lower bounds: (value, per-arc flow)."""
    net = _MaxFlow()
    ids = [net.add(a.tail, a.head, a.upper) for a in arcs]
    value = net.run(source, sink)
    return value, [net.flow_on(i) for i in ids]


class TestMaxFlow:
    def test_hand_example(self):
        arcs = [
            Arc("s", "a", upper=F(3)),
            Arc("s", "b", upper=F(2)),
            Arc("a", "b", upper=F(1)),
            Arc("a", "t", upper=F(2)),
            Arc("b", "t", upper=F(3)),
        ]
        value, flows = max_flow(arcs, "s", "t")
        assert value == 5
        # conservation at interior nodes
        into_a = flows[0] - flows[2] - flows[3]
        assert into_a == 0

    def test_rational_capacities(self):
        arcs = [Arc("s", "m", upper=F(7, 3)), Arc("m", "t", upper=F(3, 2))]
        value, _ = max_flow(arcs, "s", "t")
        assert value == F(3, 2)

    def test_against_networkx_random(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(3, 8)
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.35:
                        arcs.append(Arc(u, v, upper=F(rng.randint(1, 9))))
            if not arcs:
                continue
            value, flows = max_flow(arcs, 0, n - 1)
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            for a in arcs:
                cap = g.get_edge_data(a.tail, a.head, {"capacity": 0})["capacity"]
                g.add_edge(a.tail, a.head, capacity=cap + float(a.upper))
            want = nx.maximum_flow_value(g, 0, n - 1) if g.has_node(0) else 0
            assert float(value) == pytest.approx(want)
            for f, a in zip(flows, arcs):
                assert 0 <= f <= a.upper

    def test_against_edmonds_karp(self):
        # the minimal sink side of a min cut is the same for every max flow,
        # so the nodes reaching the sink must match exactly, not just the value
        rng = random.Random(13)
        saturated_inf = 0
        for _ in range(400):
            n = rng.randint(2, 10)
            arcs = [
                (u, v, INF if rng.random() < 0.2 else rng.randint(1, 10 ** rng.randint(0, 12)))
                for u in range(n) for v in range(n) if u != v and rng.random() < 0.3
            ]
            dinic, ek = _MaxFlow(), EdmondsKarp()
            ids = [dinic.add(u, v, c) for u, v, c in arcs]
            for u, v, c in arcs:
                ek.add(u, v, c)
            value = dinic.run(0, n - 1)
            assert value == ek.run(0, n - 1)
            assert dinic.reaches_sink(n - 1) == frozenset(ek.reaches_sink(n - 1))
            net = {v: 0 for v in range(n)}
            for i, (u, v, c) in zip(ids, arcs):
                f = dinic.flow_on(i)
                assert 0 <= f <= c
                net[u] -= f
                net[v] += f
            assert net[n - 1] == value == -net[0]
            assert all(net[v] == 0 for v in range(1, n - 1))
            saturated_inf += value >= INF
        assert saturated_inf >= 5


def check_circulation(arcs, flows):
    excess: dict = {}
    for f, a in zip(flows, arcs):
        assert a.lower <= f <= a.upper
        excess[a.head] = excess.get(a.head, F(0)) + f
        excess[a.tail] = excess.get(a.tail, F(0)) - f
    assert all(e == 0 for e in excess.values())


class TestFeasibleCirculation:
    def test_simple_cycle_with_lower_bounds(self):
        arcs = [
            Arc(1, 2, lower=F(1), upper=F(3)),
            Arc(2, 3, lower=F(0), upper=F(2)),
            Arc(3, 1, lower=F(2), upper=F(2)),
        ]
        flows = feasible_circulation(arcs)
        check_circulation(arcs, flows)
        assert flows[2] == 2

    def test_infeasible_reports_cut(self):
        # mandatory outflow of 1 from node 1 but nothing may return
        arcs = [Arc(1, 2, lower=F(1), upper=F(1)), Arc(2, 1, lower=F(0), upper=F(0))]
        with pytest.raises(Infeasible) as exc:
            feasible_circulation(arcs)
        assert exc.value.cut  # nonempty violating node set

    def test_bad_bounds(self):
        with pytest.raises(Infeasible):
            feasible_circulation([Arc(1, 2, lower=F(2), upper=F(1))])

    def test_random_feasibility_matches_lp(self):
        from scipy.optimize import linprog

        rng = random.Random(5)
        agree = 0
        for _ in range(80):
            n = rng.randint(2, 6)
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.4:
                        lo = F(rng.randint(0, 2))
                        arcs.append(Arc(u, v, lower=lo, upper=lo + F(rng.randint(0, 3))))
            if not arcs:
                continue
            # reference: plain LP feasibility of the circulation polytope
            import numpy as np

            A_eq = np.zeros((n, len(arcs)))
            for j, a in enumerate(arcs):
                A_eq[a.head][j] += 1
                A_eq[a.tail][j] -= 1
            res = linprog(
                c=np.zeros(len(arcs)),
                A_eq=A_eq,
                b_eq=np.zeros(n),
                bounds=[(float(a.lower), float(a.upper)) for a in arcs],
                method="highs",
            )
            try:
                flows = feasible_circulation(arcs)
                assert res.status == 0
                check_circulation(arcs, flows)
            except Infeasible:
                assert res.status != 0
            agree += 1
        assert agree >= 60
