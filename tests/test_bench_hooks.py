"""The benchmark's per-layer spans still see the matching pipeline, the exact
LP and the oracle calls of coverage preprocessing.

perfbench/tracing.py wraps library functions where the calling modules look
them up; if a refactor stops calling a wrapped name, its metric silently reads
zero. This runs the two lorenz entry points, an exact leximin solve,
fair.preprocess with oracle.delta_star and short simulations under that
instrumentation, and checks the spans the matching-lottery, exact-lottery and
pool-sim metrics rest on (the pool-sim period spans read the pool off the
first argument of sim._solve_period), and that the peel's max flows are
recorded inside the peel's span.  It also checks that a solve
enumerates its packing family once, that preprocessing hands its family to
δ* and the solve, and that an enumeration past the cap is counted as a
fallback.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from fairkep import fair, gen, lorenz, oracle, sim
from fairkep.core import Cycle, KepInstance, StructurePolicy
from test_fair import GINI_POOL, LP_WORK, at_delta_star

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
    engine_solves = []
    solve_engine = lorenz._solve_engine

    def counting_engine(*args):
        engine_solves.append(1)
        return solve_engine(*args)

    monkeypatch.setattr(lorenz, "_solve_engine", counting_engine)
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
    # lorenz.feasible_circulation and lorenz._MaxFlow are still the names the
    # engine calls: one circulation (the cover matrix) per engine solve, and
    # the flow and decomposition spans take time
    assert len(engine_solves) >= 2
    assert metrics["flows.circulations"][0] == len(engine_solves) / (1 + len(pools))
    assert metrics["flows.busy_s"][0] > 0
    assert metrics["lorenz.decompose_s"][0] > 0


def test_peel_flows_recorded_inside_peel(monkeypatch):
    # vertex 0 joins two triangles: A(G) = {0} and both triangles are
    # pseudonodes of one component, which only a max flow peels (a lone
    # pseudonode needs none); its flows must reach the tracer's
    # lorenz._MaxFlow, inside the lorenz.peel span
    tracing = load_tracing(monkeypatch)
    rec = tracing.Recorder()
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (0, 1), (0, 4)]
    arcs = {a: Fraction(1) for (u, v) in edges for a in ((u, v), (v, u))}
    with tracing.Instrumentation(rec):
        lorenz.leximin_matching_lottery(KepInstance(pairs=frozenset(range(7)), arcs=arcs))
    flows = [s for s in rec.spans if s.name == "flows.max_flow"]
    assert flows and all(rec.spans[s.parent].name == "lorenz.peel" for s in flows)
    metrics = tracing.layer_metrics(rec, 1)
    assert metrics["lorenz.peel_s"][0] > 0 and metrics["flows.busy_s"][0] > 0


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
    # every master LP goes through the wrapped name fair.lp_solve, exactly
    assert metrics["fair.lp_exact_calls"][0] > 0
    assert metrics["fair.lp_float_calls"][0] == 0
    # every pricing call reaches the oracle through the name
    # fair.max_price_packing, looked up at call time; the seed is the maximum
    # the preprocessed pool carries, so it makes no call
    assert oracle._family_of(pool, policy) is oracle._family_of(pool, policy)
    assert metrics["oracle.calls"][0] == report.pricing_calls > 0


def test_resumed_lp_spans_recorded(monkeypatch):
    """Every LP of a Gini solve, cold or resumed from its last tableau, is one
    simplexlp.lp_solve_exact span inside a fair.lp_solve span, so
    simplexlp.calls counts resumes: as many as test_fair.LP_WORK pins."""
    tracing = load_tracing(monkeypatch)
    rec = tracing.Recorder()
    pool, policy = at_delta_star(*GINI_POOL)
    with tracing.Instrumentation(rec):
        fair.solve_gini(pool, policy)
    simplex = [s for s in rec.spans if s.name == "simplexlp.lp_solve_exact"]
    lps = [i for i, s in enumerate(rec.spans) if s.name == "fair.lp_solve"]
    assert sorted(s.parent for s in simplex) == lps
    cold, resumed, _ = LP_WORK["gini"]
    assert len(simplex) == cold + resumed and resumed > 0
    assert tracing.layer_metrics(rec, 1)["simplexlp.calls"][0] == cold + resumed


def traced_searches(monkeypatch, tracing, run):
    """Oracle spans and branch-and-bound searches while `run()` is traced."""
    rec = tracing.Recorder()
    searches = []
    search = oracle.PackingFamily.search

    def counting_search(self, *args):
        searches.append(1)
        return search(self, *args)

    monkeypatch.setattr(oracle.PackingFamily, "search", counting_search)
    with tracing.Instrumentation(rec):
        run()
    calls = [s for s in rec.spans if s.name == "oracle.max_price_packing"]
    return len(calls), len(searches)


def test_coverage_oracle_spans_recorded(monkeypatch):
    tracing = load_tracing(monkeypatch)
    policy = StructurePolicy(max_cycle_len=3)
    pool = gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3))
    assert len(pool.pairs) <= oracle.BB_MAX_PAIRS  # every query runs the search

    def run():
        reduced, _ = fair.preprocess(pool, policy)
        oracle.delta_star(reduced, policy)

    # the witness loop reaches the oracle through the name
    # oracle.max_price_packing, looked up at call time
    calls, searches = traced_searches(monkeypatch, tracing, run)
    assert calls == searches > 2


def test_solve_and_sim_oracle_spans_recorded(monkeypatch):
    """Every search of a leximin solve and of a short simulation, in both the
    deterministic and the shuffled-order variants, enters through a traced name."""
    tracing = load_tracing(monkeypatch)
    policy = StructurePolicy(max_cycle_len=3)
    pool = gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3))
    batches = gen.generate_batches(gen.GenConfig(n_pairs=6, n_ndds=1, seed=5), 4)

    def run():
        fair.solve_leximin(pool, policy)
        for algorithm in (sim.IMPLICIT, sim.HEURISTIC_ILP_SHUFFLE):
            config = sim.SimConfig(policy=policy, algorithm=algorithm,
                                   weighting=sim.WaitTimeLinear(), seed=1)
            sim.run_simulation(batches, config)

    calls, searches = traced_searches(monkeypatch, tracing, run)
    assert calls == searches > 10


def test_sim_period_metrics_recorded(monkeypatch):
    """The pool-sim layer metrics read one span per simulated period, with the
    pool size taken from the period's pool, and non-zero sim own time."""
    tracing = load_tracing(monkeypatch)
    rec = tracing.Recorder()
    batches = gen.generate_batches(gen.GenConfig(n_pairs=6, n_ndds=1, seed=5), 4)
    config = sim.SimConfig(policy=StructurePolicy(max_cycle_len=3),
                           weighting=sim.WaitTimeLinear(), replications=2, seed=1)
    with tracing.Instrumentation(rec):
        with rec.span("sim.replication", "sim"):
            sim.run_simulation(batches, config)
    metrics = tracing.layer_metrics(rec, 1)
    assert metrics["sim.periods"][0] == len(batches) * config.replications
    assert metrics["sim.pool_size_mean"][0] > 0
    assert metrics["sim.self_s"][0] > 0
    assert metrics["sim.solve_s"][0] > 0


def counting_enumerations(monkeypatch) -> list:
    """One entry per call of the name oracle.enumerate_structures from now on."""
    enumerations = []
    enumerate_structures = oracle.enumerate_structures

    def counting(*args, **kwargs):
        enumerations.append(1)
        return enumerate_structures(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_structures", counting)
    return enumerations


def test_one_enumeration_per_solve(monkeypatch):
    """A leximin solve builds one packing family: the structures are
    enumerated once for its cardinality, seed and every pricing call."""
    enumerations = counting_enumerations(monkeypatch)
    pool = gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3))
    report = fair.solve_leximin(pool, StructurePolicy(max_cycle_len=3))
    assert report.pricing_calls > 1
    assert len(enumerations) == 1


def test_enumeration_fallback_counted(monkeypatch):
    """A bounded-chain family past `ENUM_CAP` raises `ExplosionGuard` out of
    the name oracle.enumerate_structures, which the tracer counts as
    oracle.enum_fallbacks, and the chain-arc MILP still answers the query."""
    tracing = load_tracing(monkeypatch)
    rec = tracing.Recorder()
    policy = StructurePolicy(max_cycle_len=3, max_chain_len=2)
    pool = gen.generate_instance(gen.GenConfig(n_pairs=8, n_ndds=2, seed=4))
    # the reference family is built before the cap is lowered
    full = oracle.PackingFamily(pool, policy)
    n_cycles = sum(isinstance(s, Cycle) for s in full.structures)
    assert 0 < n_cycles < len(full.structures)
    unit = {v: Fraction(1) for v in pool.pairs}
    want = full.search(unit, oracle.CARD_FREE, False)[1]
    # room for the cycles the chain-arc model enumerates, none for the chains
    monkeypatch.setattr(oracle, "ENUM_CAP", n_cycles)
    with tracing.Instrumentation(rec):
        packing, value = oracle.max_price_packing(oracle.PackingFamily(pool, policy), unit)
    assert value == want == len(packing.covered)
    metrics = tracing.layer_metrics(rec, 1)
    assert metrics["oracle.enum_fallbacks"][0] > 0
    assert metrics["oracle.calls"][0] == 1


def test_each_maximum_searched_once(monkeypatch):
    """preprocessing, δ* and a leximin solve enumerate one packing family and
    search its all-unit-price optimum (the family's maximum) once: the reduced
    pool carries the family, restricted, with its maximum, to δ* and the
    solve.  δ* runs no cardinality-free witness loop once loss level 0 has
    reached every pair."""
    searches = []
    search = oracle.PackingFamily.search

    def recording(family, prices, cardinality, value_only):
        searches.append((family, prices, cardinality))
        return search(family, prices, cardinality, value_only)

    monkeypatch.setattr(oracle.PackingFamily, "search", recording)
    policy = StructurePolicy(max_cycle_len=3)
    pool = gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3))
    reduced, dropped = fair.preprocess(pool, policy)
    assert dropped
    # every kept pair lies in a maximum packing, so loss level 0 reaches them all
    assert set(oracle.coverage_losses(reduced, policy).values()) == {0}
    searches.clear()
    enumerations = counting_enumerations(monkeypatch)
    reduced, _ = fair.preprocess(pool, policy)
    first_delta = len(searches)
    delta = oracle.delta_star(reduced, policy)
    first_solve = len(searches)
    fair.solve_leximin(reduced, replace(policy, cardinality_mode="delta", delta=delta))
    assert len(enumerations) == 1
    full, carried = dict.fromkeys(family for family, _, _ in searches)
    assert carried is oracle._family_of(reduced, policy)
    assert {f for f, _, _ in searches[:first_delta]} == {full}
    assert {f for f, _, _ in searches[first_delta:]} == {carried}

    def unit(family, prices):
        return prices == {v: 1 for v in family.instance.pairs}

    assert [unit(f, p) for f, p, _ in searches].count(True) == 1
    assert unit(*searches[0][:2])
    # the carried maximum leaves δ* no search without a cardinality row
    delta_searches = searches[first_delta:first_solve]
    assert delta_searches
    assert oracle.CARD_FREE not in [card for _, _, card in delta_searches]


def test_pool_with_nothing_to_drop_enumerated_once(monkeypatch):
    """Preprocessing a pool that drops nothing still hands δ* and the solve
    its family, on the equal copy it returns."""
    policy = StructurePolicy(max_cycle_len=3)
    reduced, _ = fair.preprocess(gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3)), policy)
    # the same pool, carrying no family
    pool = reduced.restrict(reduced.pairs)
    enumerations = counting_enumerations(monkeypatch)
    again, dropped = fair.preprocess(pool, policy)
    delta = oracle.delta_star(again, policy)
    fair.solve_leximin(again, replace(policy, cardinality_mode="delta", delta=delta))
    assert dropped == [] and len(enumerations) == 1


def test_preprocess_keeps_no_family_between_calls(monkeypatch):
    """No memo outlives a reduced instance: preprocessing one pool twice
    enumerates twice, and a pool with nothing to drop comes back as an equal
    copy that carries the family, the input still carrying none."""
    policy = StructurePolicy(max_cycle_len=3)
    pool = gen.generate_instance(gen.GenConfig(n_pairs=12, seed=3))
    enumerations = counting_enumerations(monkeypatch)
    first, _ = fair.preprocess(pool, policy)
    second, _ = fair.preprocess(pool, policy)
    assert len(enumerations) == 2
    assert first == second and first is not second
    assert oracle._family_of(first, policy) is not oracle._family_of(second, policy)

    def carries(instance):
        return oracle._family_of(instance, policy) is oracle._family_of(instance, policy)

    assert carries(first) and not carries(pool)
    # a copy of a reduced instance carries nothing, and preprocessing it
    # drops nothing, so it comes back as an equal copy that carries a family
    copy = first.restrict(first.pairs)
    again, dropped = fair.preprocess(copy, policy)
    assert again == copy and again is not copy and dropped == []
    assert carries(again) and not carries(copy)
