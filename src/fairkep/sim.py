"""Dynamic-pool simulation: batch arrivals, per-period solves, waiting stats.

Nodes arrive in batches every period (default 30 days).  Each period a packing
is computed on the current pool under the configured algorithm and the matched
pairs and used NDDs leave.  Cross-batch compatibility arcs are generated from
the nodes' stored blood-type/PRA attributes with the same test as `gen`;
batch-internal arcs are taken as given.

Algorithms:
- implicit: the deterministic oracle with fixed tie-breaking (a reproducible
  stand-in for ILP-solver nondeterminism).
- heuristic-ilp-shuffle: oracle over a uniformly shuffled structure order, so
  ties land on a random optimal packing.
- heuristic-node-shuffle: random node-id relabeling before the deterministic
  solve.
- leximin: draw a packing from the leximin-optimal lottery each period.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import KepInstance, Packing, StructurePolicy
from .fair import solve_leximin
from .gen import ABO_COMPATIBLE
from .oracle import OracleQuery, enumerate_structures, max_price_over, max_price_packing

IMPLICIT = "implicit"
HEURISTIC_ILP_SHUFFLE = "heuristic-ilp-shuffle"
HEURISTIC_NODE_SHUFFLE = "heuristic-node-shuffle"
LEXIMIN = "leximin"
ALGORITHMS = (IMPLICIT, HEURISTIC_ILP_SHUFFLE, HEURISTIC_NODE_SHUFFLE, LEXIMIN)

# the weight of every cross-batch arc, shared (Fractions are immutable)
ONE = Fraction(1)


@dataclass(frozen=True)
class WaitTimeLinear:
    """Node weight base + alpha * elapsed_days."""

    base: Fraction = ONE
    alpha: Fraction = Fraction(1, 100)

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


def waiting_weight(elapsed_days, weighting: Optional[WaitTimeLinear]) -> Fraction:
    if elapsed_days < 0:
        raise ValueError("elapsed time must be >= 0")
    if weighting is None:
        return ONE
    return weighting.base + weighting.alpha * Fraction(elapsed_days)


@dataclass(frozen=True)
class SimConfig:
    policy: StructurePolicy
    algorithm: str = IMPLICIT
    weighting: Optional[WaitTimeLinear] = None
    period_days: int = 30
    replications: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.period_days < 1:
            raise ValueError("period_days must be >= 1")


@dataclass(frozen=True)
class PeriodRecord:
    arrivals: frozenset[int]
    matched: frozenset[int]
    pool_size: int


@dataclass(frozen=True)
class NodeRecord:
    arrival_period: int
    match_period: Optional[int]  # None = censored (still unmatched at the end)


@dataclass(frozen=True)
class SimTrace:
    periods: tuple[PeriodRecord, ...]
    nodes: dict[int, NodeRecord]


@dataclass(frozen=True)
class WaitStats:
    """Waiting times in periods, matched nodes only, averaged over replications."""

    num_matched: float
    median: float
    p90: float
    max: float
    mean: float


def _wait_prices(config: SimConfig, periods: int) -> list[Fraction]:
    """The waiting-time price of a pair after 0, 1, ..., periods - 1 periods.

    A wait is a whole number of periods, so a replication prices each
    possible wait once instead of every pair in every period.
    """
    return [waiting_weight(t * config.period_days, config.weighting) for t in range(periods)]


class _Pool:
    """Mutable pool state of one replication: nodes, arcs, arrival periods.

    `arcs` and `attributes` hold the live nodes only; `arrival` keeps every
    node ever seen.

    Arrival draw order: a batch's nodes get the next ids, its pairs first,
    each part in the batch's id order.  Its own arcs are kept as given.  Then
    every node already in the pool (pairs and NDDs, in id order) is tested
    against every new pair, and every new node (in id order) against every
    pair already in the pool, each source's targets in id order.  Each test
    of a donor blood type against a compatible patient blood type makes one
    uniform draw in [0, 100); the arc exists when the draw exceeds the
    patient's PRA.  Incompatible or attribute-less pairs make no draw.  The
    draws share the replication's generator with the period solves, so a
    simulation is reproducible only as long as this order holds.
    """

    def __init__(self, rng: random.Random, wait_prices: Sequence[Fraction]):
        self.rng = rng
        # wait_prices[t]: the price of a pair that has waited t periods
        self.wait_prices = wait_prices
        self.pairs: set[int] = set()
        self.ndds: set[int] = set()
        self.arcs: dict[tuple[int, int], Fraction] = {}
        self.attributes: dict[int, dict] = {}
        self.arrival: dict[int, int] = {}
        self.next_id = 0

    def arrive(self, batch: KepInstance, period: int) -> frozenset[int]:
        remap: dict[int, int] = {}
        for v in sorted(batch.pairs) + sorted(batch.ndds):
            remap[v] = self.next_id
            self.next_id += 1
        new_pairs = sorted(remap[v] for v in batch.pairs)
        new_ndds = sorted(remap[a] for a in batch.ndds)
        new_nodes = new_pairs + new_ndds
        for (u, v), w in sorted(batch.arcs.items()):
            self.arcs[(remap[u], remap[v])] = w
        for v, attrs in batch.attributes.items():
            self.attributes[remap[v]] = dict(attrs)
        # cross-batch arcs from blood-type compatibility + PRA test; new ids
        # exceed old ones, so old sources come first
        self._draw_arcs(sorted(self.pairs | self.ndds), new_pairs)
        self._draw_arcs(new_nodes, sorted(self.pairs))
        self.pairs.update(new_pairs)
        self.ndds.update(new_ndds)
        for v in new_nodes:
            self.arrival[v] = period
        return frozenset(new_nodes)

    def _draw_arcs(self, sources: list[int], targets: list[int]) -> None:
        """One draw per blood-compatible (source, target), in list order."""
        attributes, arcs, draw = self.attributes, self.arcs, self.rng.random
        # donor blood type -> the compatible targets with their PRA, in order
        compatible: dict[str, list[tuple[int, int]]] = {}
        for u in sources:
            donor = attributes.get(u, {}).get("blood_donor")
            if donor is None:
                continue
            row = compatible.get(donor)
            if row is None:
                ok = ABO_COMPATIBLE[donor]
                row = compatible[donor] = [
                    (v, attributes[v]["pra"])
                    for v in targets
                    if attributes.get(v, {}).get("blood_patient") in ok
                ]
            for v, pra in row:
                # rng.uniform(0, 100), inlined: the same float from one draw
                if 100 * draw() > pra:
                    arcs[(u, v)] = ONE

    def instance(self) -> KepInstance:
        return KepInstance(
            pairs=frozenset(self.pairs),
            ndds=frozenset(self.ndds),
            arcs=dict(self.arcs),
            attributes=dict(self.attributes),
        )

    def depart(self, packing: Packing) -> frozenset[int]:
        gone = set(packing.covered)
        for s in packing.structures:
            if hasattr(s, "ndd"):
                gone.add(s.ndd)
        self.pairs -= gone
        self.ndds -= gone
        # departed nodes never return: drop their arcs and attributes, keeping
        # the insertion order of the rest
        if gone:
            self.arcs = {a: w for a, w in self.arcs.items() if a[0] not in gone and a[1] not in gone}
            for v in gone:
                self.attributes.pop(v, None)
        return frozenset(gone)


def _solve_period(pool: _Pool, config: SimConfig, period: int, rng: random.Random) -> Packing:
    inst = pool.instance()
    if not inst.pairs:
        return Packing(frozenset())
    wait_prices, arrival = pool.wait_prices, pool.arrival
    prices = {v: wait_prices[period - arrival[v]] for v in sorted(inst.pairs)}
    if config.algorithm == LEXIMIN:
        report = solve_leximin(inst, config.policy)
        x = rng.random()
        acc = Fraction(0)
        for packing, p in report.lottery.support:
            acc += p
            if x < float(acc):
                return packing
        return report.lottery.support[-1][0]
    query = OracleQuery(instance=inst, policy=config.policy, node_prices=prices)
    if config.algorithm == IMPLICIT:
        packing, _ = max_price_packing(query)
        return packing
    if config.algorithm == HEURISTIC_ILP_SHUFFLE:
        structures = enumerate_structures(inst, config.policy)
        rng.shuffle(structures)
        packing, _ = max_price_over(query, structures)
        return packing
    # heuristic-node-shuffle: relabel nodes, deterministic solve, map back
    nodes = sorted(inst.pairs | inst.ndds)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    fwd = dict(zip(nodes, shuffled))
    back = {w: v for v, w in fwd.items()}
    relabeled = KepInstance(
        pairs=frozenset(fwd[v] for v in inst.pairs),
        ndds=frozenset(fwd[a] for a in inst.ndds),
        arcs={(fwd[u], fwd[v]): w for (u, v), w in inst.arcs.items()},
    )
    q2 = OracleQuery(
        instance=relabeled,
        policy=config.policy,
        node_prices={fwd[v]: p for v, p in prices.items()},
    )
    packing, _ = max_price_packing(q2)
    return _relabel_packing(packing, back)


def _relabel_packing(packing: Packing, back: dict[int, int]) -> Packing:
    from .core import Chain, Cycle

    out = []
    for s in packing.structures:
        if isinstance(s, Cycle):
            out.append(Cycle(tuple(back[v] for v in s.vertices)))
        else:
            out.append(Chain(ndd=back[s.ndd], pairs=tuple(back[v] for v in s.pairs)))
    return Packing(frozenset(out))


def _run_one(batches: Sequence[KepInstance], config: SimConfig, replication: int) -> SimTrace:
    rng = random.Random(config.seed ^ (replication * 0x9E3779B97F4A7C15))
    order = list(range(len(batches)))
    rng.shuffle(order)
    pool = _Pool(rng, _wait_prices(config, len(batches)))
    records = []
    for period, bi in enumerate(order):
        arrivals = pool.arrive(batches[bi], period)
        packing = _solve_period(pool, config, period, rng)
        matched = pool.depart(packing)
        records.append(
            PeriodRecord(
                arrivals=arrivals,
                matched=matched,
                pool_size=len(pool.pairs) + len(pool.ndds),
            )
        )
    match_period: dict[int, Optional[int]] = {v: None for v in pool.arrival}
    for t, rec in enumerate(records):
        for v in rec.matched:
            match_period[v] = t
    nodes = {
        v: NodeRecord(arrival_period=pool.arrival[v], match_period=match_period[v])
        for v in sorted(pool.arrival)
    }
    return SimTrace(periods=tuple(records), nodes=nodes)


def run_simulation(batches: Sequence[KepInstance], config: SimConfig) -> tuple[SimTrace, WaitStats]:
    """Simulate the pool over one period per batch; stats average replications.

    Each replication shuffles the batch arrival order with its own derived
    seed.  The returned trace is replication 0's.  Censored (never-matched)
    nodes are excluded from the waiting-time statistics.
    """
    if not batches:
        raise ValueError("batches must be nonempty")
    traces = [_run_one(batches, config, r) for r in range(config.replications)]
    per_rep = []
    for tr in traces:
        waits = sorted(
            rec.match_period - rec.arrival_period
            for rec in tr.nodes.values()
            if rec.match_period is not None
        )
        if not waits:
            per_rep.append((0, 0.0, 0.0, 0.0, 0.0))
            continue
        n = len(waits)
        p90 = waits[min(n - 1, max(0, -(-9 * n // 10) - 1))]
        per_rep.append(
            (n, float(statistics.median(waits)), float(p90), float(waits[-1]), float(statistics.fmean(waits)))
        )
    k = len(per_rep)
    agg = [sum(col) / k for col in zip(*per_rep)]
    return traces[0], WaitStats(
        num_matched=agg[0], median=agg[1], p90=agg[2], max=agg[3], mean=agg[4]
    )


# ---------------------------------------------------------------------------
# heuristic-implementation comparison


def jeffreys_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Jeffreys equal-tailed interval for a binomial proportion."""
    from scipy.stats import beta

    if trials <= 0:
        raise ValueError("trials must be positive")
    tail = (1 - confidence) / 2
    lo = 0.0 if successes == 0 else float(beta.ppf(tail, successes + 0.5, trials - successes + 0.5))
    hi = 1.0 if successes == trials else float(beta.isf(tail, successes + 0.5, trials - successes + 0.5))
    return lo, hi


@dataclass(frozen=True)
class CompareResult:
    """Sorted empirical inclusion frequencies of the two heuristic variants."""

    sorted_ilp_shuffle: tuple[float, ...]
    sorted_node_shuffle: tuple[float, ...]
    difference: tuple[float, ...]
    ci_ilp_shuffle: tuple[tuple[float, float], ...]
    ci_node_shuffle: tuple[tuple[float, float], ...]
    max_abs_difference: float
    integral: float  # mean absolute difference across ranks


def compare_heuristics(instance: KepInstance, n_runs: int, seed: int = 0,
                       policy: Optional[StructurePolicy] = None) -> CompareResult:
    """Empirical coverage distributions of the two heuristic implementations.

    Runs each variant n_runs times on the static instance, sorts the per-pair
    inclusion frequencies, and reports the per-rank difference curve with
    Jeffreys 95% intervals.
    """
    if n_runs < 30:
        raise ValueError("n_runs must be >= 30 for meaningful intervals")
    policy = policy or StructurePolicy(max_cycle_len=3)
    pairs = sorted(instance.pairs)
    counts = {alg: {v: 0 for v in pairs} for alg in (HEURISTIC_ILP_SHUFFLE, HEURISTIC_NODE_SHUFFLE)}
    for alg in (HEURISTIC_ILP_SHUFFLE, HEURISTIC_NODE_SHUFFLE):
        config = SimConfig(policy=policy, algorithm=alg, seed=seed)
        for r in range(n_runs):
            rng = random.Random(seed ^ (r * 0x9E3779B97F4A7C15))
            pool = _Pool(rng, _wait_prices(config, 1))
            pool.arrive(instance, 0)
            remap = dict(zip(sorted(instance.pairs) + sorted(instance.ndds), range(10**9)))
            packing = _solve_period(pool, config, 0, rng)
            covered = packing.covered
            for v in pairs:
                if remap[v] in covered:
                    counts[alg][v] += 1
    freq = {
        alg: sorted(counts[alg][v] / n_runs for v in pairs)
        for alg in (HEURISTIC_ILP_SHUFFLE, HEURISTIC_NODE_SHUFFLE)
    }
    count_sorted = {
        alg: sorted(counts[alg][v] for v in pairs)
        for alg in (HEURISTIC_ILP_SHUFFLE, HEURISTIC_NODE_SHUFFLE)
    }
    diff = tuple(a - b for a, b in zip(freq[HEURISTIC_ILP_SHUFFLE], freq[HEURISTIC_NODE_SHUFFLE]))
    return CompareResult(
        sorted_ilp_shuffle=tuple(freq[HEURISTIC_ILP_SHUFFLE]),
        sorted_node_shuffle=tuple(freq[HEURISTIC_NODE_SHUFFLE]),
        difference=diff,
        ci_ilp_shuffle=tuple(jeffreys_interval(x, n_runs) for x in count_sorted[HEURISTIC_ILP_SHUFFLE]),
        ci_node_shuffle=tuple(jeffreys_interval(x, n_runs) for x in count_sorted[HEURISTIC_NODE_SHUFFLE]),
        max_abs_difference=max((abs(d) for d in diff), default=0.0),
        integral=sum(abs(d) for d in diff) / len(diff) if diff else 0.0,
    )
