"""The benchmark's workloads: the item suites, item execution, checks, quality.

Every workload is a fixed suite of items, each fixed by its index ``u`` alone
(sizes, objective, generator seed), so that ``reference/`` can hold the
recording commit's answer for every item.  A run's ``--seed`` picks the order
in which the suite is visited; a run measures whole passes over the suite, so
every run of a workload executes the same multiset of items.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Optional

from fairkep import fair, gen, io, lorenz, oracle, sim
from fairkep.core import (
    MATCHING_POLICY,
    KepInstance,
    Lottery,
    PackingError,
    StructurePolicy,
    validate_packing,
)

CYC3 = StructurePolicy(max_cycle_len=3)
OBJECTIVES = ("leximin", "maximin", "nash", "gini")
SOLVERS: dict[str, Callable] = {
    "leximin": fair.solve_leximin,
    "maximin": fair.solve_maximin,
    "nash": fair.solve_nash,
    "gini": fair.solve_gini,
}
# relative tolerance on objectives computed on float paths (HiGHS masters,
# SLSQP steps); rational-path objectives must match the reference exactly
FLOAT_REL_TOL = 1e-5


class NullSpan:
    def __init__(self):
        self.attrs: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


class NullRecorder:
    """Stands in for tracing.Recorder in untraced runs."""

    def span(self, name, layer, **attrs):
        return NullSpan()


def digest(parts) -> str:
    return hashlib.sha1("|".join(map(str, parts)).encode()).hexdigest()[:16]


def marginal_digest(marginals: dict[int, Fraction]) -> str:
    return digest(f"{v}:{q}" for v, q in sorted(marginals.items()))


def emit_lottery(lottery: Lottery, rec) -> str:
    with rec.span("io.emit", "io") as s:
        text = json.dumps(io.lottery_to_dict(lottery))
        s.attrs["bytes"] = len(text)
    return text


def check_lottery(instance: KepInstance, lottery: Lottery, text: str, policy: StructurePolicy,
                  card: tuple) -> list[str]:
    """Support packings valid and acceptable, and the io round trip exact."""
    problems = []
    mode, k = card
    for packing, _ in lottery.support:
        try:
            validate_packing(instance, packing, policy)
        except PackingError as e:
            problems.append(f"invalid packing: {e}")
        n = packing.cardinality
        if (mode == "exact" and n != k) or (mode == "atleast" and n < k):
            problems.append(f"packing of cardinality {n} outside {card}")
    back = io.lottery_from_dict(json.loads(text))
    if dict(back.merged().support) != dict(lottery.merged().support):
        problems.append("io round trip changed the lottery")
    return problems


def lottery_quality(marginals: dict[int, Fraction], coverable, n_pairs: int) -> dict[str, float]:
    """Fairness and efficiency of one lottery.

    min_marginal is over the pairs some acceptable packing covers; wait is the
    mean number of periods such a pair would wait if the lottery were drawn
    once per period, (1 - q) / q.
    """
    qs = [marginals[v] for v in coverable]
    out = {
        "matched_pairs": float(sum(marginals.values())),
        "coverage": float(sum(marginals.values())) / n_pairs if n_pairs else 0.0,
    }
    if qs:
        out["min_marginal"] = float(min(qs))
        out["wait"] = sum(float((1 - q) / q) for q in qs if q > 0) / len(qs)
    return out


class Workload:
    name = ""
    # items in the suite, per size profile
    suite = {"full": 0, "smoke": 0}

    def __init__(self, profile: str):
        self.profile = profile

    def order(self, seed: int) -> list[int]:
        u = list(range(self.suite[self.profile]))
        random.Random(seed).shuffle(u)
        return u

    def params(self, u: int) -> dict:
        raise NotImplementedError

    def generate(self, params: dict):
        raise NotImplementedError

    def run(self, inputs, params: dict, rec) -> object:
        raise NotImplementedError

    def check(self, inputs, params: dict, result) -> list[str]:
        raise NotImplementedError

    def quality(self, inputs, params: dict, result) -> dict[str, float]:
        raise NotImplementedError

    def reference(self, inputs, params: dict, result) -> dict:
        raise NotImplementedError

    def compare(self, inputs, params: dict, result, ref: Optional[dict]) -> list[str]:
        """Differences between an output and its recorded reference."""
        if ref is None:
            return ["no recorded reference for this item"]
        if "error" in ref:  # the item raised at the recording commit
            return []
        mine = self.reference(inputs, params, result)
        problems = []
        for key, want in ref.items():
            got = mine.get(key)
            if isinstance(want, float) and isinstance(got, float):
                if abs(got - want) > FLOAT_REL_TOL * max(abs(want), 1e-9):
                    problems.append(f"{key} {got!r} differs from reference {want!r}")
            elif got != want:
                problems.append(f"{key} {got!r} differs from reference {want!r}")
        return problems


class ExactLottery(Workload):
    """Exact column generation on small cyc3 pools, objectives rotated."""

    name = "exact-lottery"
    suite = {"full": 40, "smoke": 8}

    def params(self, u):
        sizes = (12, 13, 14, 15) if self.profile == "full" else (7, 8)
        return {"u": u, "seed": 0x20000 + u, "pairs": sizes[u % len(sizes)],
                "objective": OBJECTIVES[(u // len(sizes)) % len(OBJECTIVES)]}

    def generate(self, p):
        return gen.generate_instance(gen.GenConfig(n_pairs=p["pairs"], seed=p["seed"]))

    def run(self, instance, p, rec):
        with rec.span("fair.preprocess", "fair"):
            reduced, _ = fair.preprocess(instance, CYC3)
        with rec.span("oracle.delta_star", "oracle"):
            delta = oracle.delta_star(reduced, CYC3)
        policy = replace(CYC3, cardinality_mode="delta", delta=delta)
        with rec.span("fair.solve", "fair", objective=p["objective"]) as s:
            report = SOLVERS[p["objective"]](reduced, policy)
            s.attrs.update(pricing_calls=report.pricing_calls, iterations=report.iterations,
                           support=len(report.lottery.support))
        return reduced, policy, report, emit_lottery(report.lottery, rec)

    def check(self, instance, p, result):
        reduced, policy, report, text = result
        card = oracle.acceptable_cardinality(reduced, policy)
        problems = check_lottery(reduced, report.lottery, text, policy, card)
        if report.marginals != report.lottery.marginals(reduced.pairs):
            problems.append("SolveReport.marginals differ from lottery.marginals")
        return problems

    def quality(self, instance, p, result):
        reduced, _, report, _ = result
        return lottery_quality(report.marginals, reduced.pairs, instance.n_pairs)

    def reference(self, instance, p, result):
        reduced, policy, report, _ = result
        obj = report.objective
        exact = p["objective"] in ("leximin", "maximin") or (
            p["objective"] == "gini" and reduced.n_pairs <= fair.GINI_EXACT_PAIR_LIMIT)
        if isinstance(obj, tuple):
            value = digest(obj)
        elif exact:
            value = str(obj)
        else:
            value = float(obj)
        return {"kept_pairs": reduced.n_pairs, "delta": policy.delta, "objective": value}


class MatchingLottery(Workload):
    """Polynomial leximin matching lotteries; every fourth item node-weighted."""

    name = "matching-lottery"
    suite = {"full": 40, "smoke": 8}

    def params(self, u):
        weighted = u % 4 == 3
        if self.profile == "full":
            pairs = 22 if weighted else (30, 36, 42)[u % 3]
        else:
            pairs = 8 if weighted else (10, 12)[u % 2]
        return {"u": u, "seed": 0x30000 + u, "pairs": pairs, "weighted": weighted}

    def generate(self, p):
        return gen.generate_instance(gen.GenConfig(n_pairs=p["pairs"], seed=p["seed"]))

    @staticmethod
    def weights(instance):
        # highly sensitized patients get priority: weight 1 + PRA/100
        return {v: 1 + Fraction(instance.attributes[v]["pra"], 100) for v in instance.pairs}

    def run(self, instance, p, rec):
        if p["weighted"]:
            with rec.span("lorenz.node_weight_leximin", "lorenz") as s:
                lottery = lorenz.node_weight_leximin(instance, self.weights(instance))
                s.attrs["support"] = len(lottery.support)
        else:
            with rec.span("lorenz.leximin_matching_lottery", "lorenz") as s:
                lottery = lorenz.leximin_matching_lottery(instance)
                s.attrs["support"] = len(lottery.support)
        return lottery, emit_lottery(lottery, rec)

    def check(self, instance, p, result):
        lottery, text = result
        card = oracle.acceptable_cardinality(instance, MATCHING_POLICY)
        return check_lottery(instance, lottery, text, MATCHING_POLICY, card)

    def quality(self, instance, p, result):
        lottery, _ = result
        # a pair with a mutual-compatibility edge is covered by some maximum matching
        coverable = sorted({v for e in instance.undirected_edges() for v in e})
        return lottery_quality(lottery.marginals(instance.pairs), coverable, instance.n_pairs)

    def reference(self, instance, p, result):
        lottery, _ = result
        return {"marginals": marginal_digest(lottery.marginals(instance.pairs))}


class PoolSim(Workload):
    """Dynamic-pool replications: arrival batches, implicit per-period solves."""

    name = "pool-sim"
    suite = {"full": 100, "smoke": 8}

    def params(self, u):
        batches, pairs = (12, 6) if self.profile == "full" else (3, 5)
        return {"u": u, "seed": 0x10000 + (u << 4), "batches": batches, "pairs": pairs,
                "ndds": 1, "sim_seed": u}

    def generate(self, p):
        config = gen.GenConfig(n_pairs=p["pairs"], n_ndds=p["ndds"], seed=p["seed"])
        return gen.generate_batches(config, p["batches"])

    def run(self, batches, p, rec):
        config = sim.SimConfig(policy=CYC3, algorithm=sim.IMPLICIT,
                               weighting=sim.WaitTimeLinear(), seed=p["sim_seed"])
        with rec.span("sim.replication", "sim"):
            return sim.run_simulation(batches, config)

    @staticmethod
    def arrival_batches(batches, p) -> list[int]:
        # replication 0 visits the batches in the order its seed shuffles them
        order = list(range(len(batches)))
        random.Random(p["sim_seed"]).shuffle(order)
        return order

    def check(self, batches, p, result):
        trace, stats = result
        problems = []
        order = self.arrival_batches(batches, p)
        pool = 0
        seen: set[int] = set()
        for t, rec in enumerate(trace.periods):
            b = batches[order[t]]
            if len(rec.arrivals) != b.n_pairs + len(b.ndds):
                problems.append(f"period {t}: {len(rec.arrivals)} arrivals, batch has "
                                f"{b.n_pairs + len(b.ndds)} nodes")
            if rec.matched & seen:
                problems.append(f"period {t}: node matched twice")
            seen |= rec.matched
            pool += len(rec.arrivals) - len(rec.matched)
            if rec.pool_size != pool:
                problems.append(f"period {t}: pool size {rec.pool_size}, expected {pool}")
        for v, node in trace.nodes.items():
            if node.match_period is not None and node.match_period < node.arrival_period:
                problems.append(f"node {v} matched before it arrived")
        if stats.num_matched != len(seen):
            problems.append(f"num_matched {stats.num_matched} != {len(seen)} matched nodes")
        return problems

    def quality(self, batches, p, result):
        trace, stats = result
        order = self.arrival_batches(batches, p)
        # node ids follow arrival order: each batch's pairs, then its NDDs
        pra: dict[int, int] = {}
        for t, rec in enumerate(trace.periods):
            b = batches[order[t]]
            ids = sorted(rec.arrivals)
            for v, w in zip(ids, sorted(b.pairs)):
                pra[v] = b.attributes[w]["pra"]
        groups: dict[int, list[int]] = {}
        for v, level in pra.items():
            groups.setdefault(level, []).append(v)
        matched = {v for rec in trace.periods for v in rec.matched}
        rates = [sum(v in matched for v in vs) / len(vs) for vs in groups.values()]
        return {
            "matched_pairs": float(stats.num_matched),
            "coverage": len(matched & pra.keys()) / len(pra),
            "min_marginal": min(rates),
            "wait": stats.mean,
        }

    def reference(self, batches, p, result):
        trace, stats = result
        return {"matched_pairs": stats.num_matched,
                "trace": digest(tuple(sorted(rec.matched)) for rec in trace.periods)}


WORKLOADS = {w.name: w for w in (ExactLottery, MatchingLottery, PoolSim)}
