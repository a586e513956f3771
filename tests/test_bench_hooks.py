"""The benchmark's per-layer spans still see the matching pipeline, the exact
LP and the oracle calls of coverage preprocessing.

perfbench/tracing.py wraps library functions where the calling modules look
them up; if a refactor stops calling a wrapped name, its metric silently reads
zero. This runs the two lorenz entry points, an exact leximin solve, and
fair.preprocess with oracle.delta_star under that instrumentation, and checks
the spans the matching-lottery and exact-lottery metrics rest on.
"""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from fairkep import fair, gen, lorenz, oracle
from fairkep.core import KepInstance, StructurePolicy

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_matching_pipeline_spans_recorded(monkeypatch):
    tracing = load_tracing(monkeypatch)
    rec = tracing.Recorder()
    # a triangle and a disjoint 5-cycle: 15 assembled matchings reduce to at most 8
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
    arcs = {a: Fraction(1) for (u, v) in edges for a in ((u, v), (v, u))}
    plain = KepInstance(pairs=frozenset(range(8)), arcs=arcs)
    pools = [gen.generate_instance(gen.GenConfig(n_pairs=10, seed=s)) for s in range(3)]
    with tracing.Instrumentation(rec):
        lottery = lorenz.leximin_matching_lottery(plain)
        for pool in pools:
            weights = {v: 1 + Fraction(pool.attributes[v]["pra"], 100) for v in pool.pairs}
            lorenz.node_weight_leximin(pool, weights)
    assert 0 < len(lottery.support) <= 8
    names = {s.name for s in rec.spans}
    assert "lorenz.sparsify" in names
    assert "matching.bipartite_admissible_subgraph" in names
    metrics = tracing.layer_metrics(rec, 1 + len(pools))
    assert metrics["lorenz.sparsify_s"][0] > 0
    assert metrics["matching.busy_s"][0] > 0


def test_exact_lp_spans_recorded(monkeypatch):
    tracing = load_tracing(monkeypatch)
    rec = tracing.Recorder()
    policy = StructurePolicy(max_cycle_len=3)
    pool, _ = fair.preprocess(gen.generate_instance(gen.GenConfig(n_pairs=8, seed=2)), policy)
    with tracing.Instrumentation(rec):
        report = fair.solve_leximin(pool, policy)
    assert report.pricing_calls > 0
    assert any(s.name == "simplexlp.lp_solve_exact" for s in rec.spans)
    metrics = tracing.layer_metrics(rec, 1)
    assert metrics["simplexlp.busy_s"][0] > 0
    assert metrics["simplexlp.max_cols"][0] > 0
    # the seed and every pricing call reach the oracle through the name
    # fair.max_price_packing, looked up at call time
    assert metrics["oracle.calls"][0] > report.pricing_calls > 0


def test_coverage_oracle_spans_recorded(monkeypatch):
    tracing = load_tracing(monkeypatch)
    rec = tracing.Recorder()
    searches = []
    run = oracle._BB.run

    def counting_run(self):
        searches.append(1)
        return run(self)

    monkeypatch.setattr(oracle._BB, "run", counting_run)
    policy = StructurePolicy(max_cycle_len=3)
    pool = gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3))
    assert len(pool.pairs) <= oracle.BB_MAX_PAIRS  # every query runs the search
    with tracing.Instrumentation(rec):
        reduced, _ = fair.preprocess(pool, policy)
        oracle.delta_star(reduced, policy)
    # the witness loop reaches the oracle through the name
    # oracle.max_price_packing, looked up at call time
    calls = [s for s in rec.spans if s.name == "oracle.max_price_packing"]
    assert len(calls) == len(searches) > 2
