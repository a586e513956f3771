"""Exact weighted optimization over packing families, plus pool-level metrics.

`max_price_packing` maximizes the total node price of covered pairs over all
packings a `StructurePolicy` admits.  Enumerable families are solved by an
exact branch-and-bound over bitmask-encoded structures with fully specified
tie-breaking; it runs on integers (prices scaled by their common denominator)
and returns the optimum as a `Fraction`.  HiGHS, through scipy, takes the
integer-priced value-only queries on pools above `BB_MAX_PAIRS` (a set-packing
MILP over the enumerated structures) and families with non-enumerable chains
(cycle columns + arc flows with position variables or subtour cuts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import (
    Chain,
    Cycle,
    FairkepError,
    KepInstance,
    Packing,
    Structure,
    StructurePolicy,
)

DEFAULT_ENUM_CAP = 200_000

# Integer-priced value-only queries on pools of more pairs go to the set-packing
# MILP: past ~20 pairs the branch-and-bound's worst cases take seconds, against
# HiGHS's fixed ~10 ms per query.
BB_MAX_PAIRS = 18

CARD_FREE = ("free", None)


class ExplosionGuard(FairkepError):
    """Structure enumeration exceeded the configured cap."""


class OracleInfeasible(FairkepError):
    """No packing satisfies the side constraints."""


class Uncoverable(FairkepError):
    """The designated pair is covered by no acceptable packing."""


@dataclass(frozen=True)
class OracleQuery:
    """A priced packing optimization with optional side constraints.

    cardinality is ("free", None), ("exact", k) or ("atleast", k), counted in
    covered pairs.
    """

    instance: KepInstance
    policy: StructurePolicy
    node_prices: Mapping[int, Fraction] = field(default_factory=dict)
    must_cover: frozenset[int] = frozenset()
    forbidden: frozenset[int] = frozenset()
    cardinality: tuple[str, Optional[int]] = CARD_FREE
    minimize_3cycles_tiebreak: bool = False

    def __post_init__(self):
        if self.must_cover & self.forbidden:
            raise ValueError("must_cover and forbidden overlap")
        mode, k = self.cardinality
        if mode not in ("free", "exact", "atleast"):
            raise ValueError(f"unknown cardinality mode {mode!r}")
        if mode != "free" and (k is None or k < 0):
            raise ValueError("cardinality constraint needs a count >= 0")

    def price(self, v: int) -> Fraction:
        return Fraction(self.node_prices.get(v, 0))


def enumerate_structures(
    instance: KepInstance, policy: StructurePolicy, cap: int = DEFAULT_ENUM_CAP
) -> list[Structure]:
    """All acceptable simple cycles and chains, sorted deterministically.

    Chains are enumerated up to min(policy.max_chain_len, number of pairs), so
    an unbounded chain policy on a large pool trips the guard rather than
    materializing the family.
    """
    out: list[Structure] = []
    adj: dict[int, list[int]] = {v: [] for v in instance.pairs | instance.ndds}
    for (u, v) in instance.arcs:
        adj[u].append(v)
    for v in adj:
        adj[v].sort()

    def emit(s: Structure) -> None:
        out.append(s)
        if len(out) > cap:
            raise ExplosionGuard(f"more than {cap} structures")

    if policy.max_cycle_len is not None:
        L = policy.max_cycle_len

        def cyc(start: int, path: list[int]) -> None:
            u = path[-1]
            for w in adj[u]:
                if w == start and len(path) >= 2:
                    emit(Cycle(vertices=tuple(path)))
                elif w > start and w not in path and len(path) < L:
                    cyc(start, path + [w])

        for start in sorted(instance.pairs):
            cyc(start, [start])

    if policy.max_chain_len is not None:
        bound = int(min(policy.max_chain_len, len(instance.pairs)))

        def grow(ndd: int, path: list[int]) -> None:
            if len(path) >= policy.min_chain_len:
                emit(Chain(ndd=ndd, pairs=tuple(path)))
            if len(path) == bound:
                return
            for w in adj[path[-1]]:
                if w not in path:
                    grow(ndd, path + [w])

        for a in sorted(instance.ndds):
            for w in adj[a]:
                grow(a, [w])

    return sorted(out, key=lambda s: s.sort_key())


# ---------------------------------------------------------------------------
# exact branch and bound


class _BB:
    def __init__(self, query: OracleQuery, structures: Sequence[Structure], value_only: bool):
        self.query = query
        self.value_only = value_only
        self.pairs = sorted(query.instance.pairs)
        # NDDs get conflict bits too: chains sharing a root are not disjoint
        nodes = self.pairs + sorted(query.instance.ndds)
        self.bit = {v: i for i, v in enumerate(nodes)}
        # search on integers: price * scale is integral for every pair
        prices = [query.price(v) for v in self.pairs]
        self.scale = math.lcm(*(p.denominator for p in prices))
        self.price = {
            v: p.numerator * (self.scale // p.denominator) for v, p in zip(self.pairs, prices)
        }
        # per-bit positive price, for the optimistic bound
        self.gain = [max(self.price[v], 0) for v in self.pairs]

        structs = [
            s for s in structures if not (set(s.covered()) & query.forbidden)
        ]
        self.structs = structs
        self.masks = []
        self.values = []
        self.sizes = []
        for s in structs:
            m = 0
            val = 0
            for v in s.covered():
                m |= 1 << self.bit[v]
                val += self.price[v]
            if isinstance(s, Chain):
                m |= 1 << self.bit[s.ndd]
            self.masks.append(m)
            self.values.append(val)
            self.sizes.append(len(s.covered()))
        n = len(structs)
        # per-suffix union of coverable vertices and total coverable size
        self.suffix_cover = [0] * (n + 1)
        self.suffix_size = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            self.suffix_cover[i] = self.suffix_cover[i + 1] | self.masks[i]
            self.suffix_size[i] = self.suffix_size[i + 1] + self.sizes[i]
        self.must_mask = 0
        for v in query.must_cover:
            if v in query.instance.pairs:
                self.must_mask |= 1 << self.bit[v]
            else:
                raise OracleInfeasible(f"must_cover names unknown pair {v}")
        self.best: Optional[tuple] = None  # (scaled value, aux_key, structures)

    def _bound(self, i: int, used: int, value: int) -> int:
        free = self.suffix_cover[i] & ~used & ((1 << len(self.pairs)) - 1)
        total = value
        while free:
            low = free & -free
            total += self.gain[low.bit_length() - 1]
            free ^= low
        return total

    def _aux_key(self, chosen: list[int]):
        """Tie-break key, smaller is better."""
        three = sum(
            1
            for j in chosen
            if isinstance(self.structs[j], Cycle) and self.structs[j].length == 3
        )
        ids = tuple(sorted(self.structs[j].sort_key() for j in chosen))
        if self.query.minimize_3cycles_tiebreak:
            return (three, len(chosen), ids)
        return (len(chosen), ids)

    def _feasible_leaf(self, used: int, count: int) -> bool:
        if self.must_mask & ~used:
            return False
        mode, k = self.query.cardinality
        if mode == "exact":
            return count == k
        if mode == "atleast":
            return count >= k
        return True

    def run(self) -> tuple[Packing, Fraction]:
        self._dfs(0, 0, 0, 0, [])
        if self.best is None:
            raise OracleInfeasible("no packing satisfies the side constraints")
        value, _, chosen = self.best
        return Packing(frozenset(self.structs[j] for j in chosen)), Fraction(value, self.scale)

    def _dfs(self, i: int, used: int, value: int, count: int, chosen: list[int]):
        # recursion only on inclusion; skipping a structure advances the loop,
        # so the depth is bounded by the packing size rather than the family
        mode, k = self.query.cardinality
        while True:
            # can the remaining structures still reach the targets?
            if self.must_mask & ~used & ~self.suffix_cover[i]:
                return
            if mode in ("exact", "atleast") and count + self.suffix_size[i] < k:
                return
            if self.best is not None:
                bound = self._bound(i, used, value)
                if bound < self.best[0]:
                    return
                if self.value_only and bound == self.best[0]:
                    return
            if i == len(self.structs):
                if not self._feasible_leaf(used, count):
                    return
                key = None if self.value_only else self._aux_key(chosen)
                if (
                    self.best is None
                    or value > self.best[0]
                    or (value == self.best[0] and not self.value_only and key < self.best[1])
                ):
                    self.best = (value, key, list(chosen))
                return
            m = self.masks[i]
            if not m & used and not (mode == "exact" and count + self.sizes[i] > k):
                chosen.append(i)
                self._dfs(i + 1, used | m, value + self.values[i], count + self.sizes[i], chosen)
                chosen.pop()
            i += 1


# ---------------------------------------------------------------------------
# MILP fallback (large pools with chains)


def _milp_max_price(
    query: OracleQuery,
    cap: int,
    cut_pool: Optional[list] = None,
    extra_columns: Optional[list] = None,
) -> tuple[Packing, Fraction]:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    inst, policy = query.instance, query.policy
    if policy.min_chain_len > 1:
        raise ExplosionGuard("MILP path does not support min_chain_len > 1")
    pairs = sorted(inst.pairs)
    idx = {v: i for i, v in enumerate(pairs)}
    n = len(pairs)
    # Bounded chain lengths use position (MTZ-style) variables; unbounded ones
    # drop them (the big-M would be n, a hopelessly weak relaxation) and
    # eliminate directed pair-arc cycles with lazily added subtour cuts.
    unbounded = policy.max_chain_len is not None and policy.max_chain_len == float("inf")
    # With unbounded chains every structure is expressible on arcs alone, so we
    # skip cycle columns entirely: allowed short cycles are decoded from the
    # arc solution and only policy-violating cycles get subtour cuts.  The
    # per-cycle tie-break perturbations need explicit cycle columns, so that
    # rare combination keeps the column model.
    arc_mode = unbounded and not query.minimize_3cycles_tiebreak
    cycles = (
        []
        if arc_mode
        else enumerate_structures(inst, replace(policy, max_chain_len=None), cap=cap)
    )
    L = int(min(policy.max_chain_len, n)) if policy.max_chain_len is not None else 0
    chain_arcs = (
        [
            (u, v)
            for (u, v) in sorted(inst.arcs)
            if v in inst.pairs and (u in inst.ndds or u in inst.pairs)
        ]
        if policy.max_chain_len is not None
        else []
    )
    nz, na = len(cycles), len(chain_arcs)
    # variables: cycles | chain arcs | chain position per pair
    nvar = nz + na + n
    c = np.zeros(nvar)
    eps_count, eps_three = 1e-7, 1e-5
    for j, C in enumerate(cycles):
        c[j] = -sum(float(query.price(v)) for v in C.covered()) + eps_count
        if query.minimize_3cycles_tiebreak and C.length == 3:
            c[j] += eps_three
    arcs_in: dict[int, list[int]] = {v: [] for v in pairs}
    arcs_out: dict[int, list[int]] = {v: [] for v in pairs}
    ndd_out: dict[int, list[int]] = {a: [] for a in inst.ndds}
    for j, (u, v) in enumerate(chain_arcs):
        arcs_in[v].append(j)
        if u in inst.ndds:
            ndd_out[u].append(j)
            c[nz + j] += eps_count  # one chain per used NDD root arc
        else:
            arcs_out[u].append(j)
        c[nz + j] += -float(query.price(v))

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lo: list[float] = []
    hi: list[float] = []

    def add_row(entries, lower, upper):
        r = len(lo)
        for col, coef in entries:
            rows.append(r)
            cols.append(col)
            vals.append(coef)
        lo.append(lower)
        hi.append(upper)

    cover_entries: dict[int, list[tuple[int, float]]] = {v: [] for v in pairs}
    for j, C in enumerate(cycles):
        for v in C.covered():
            cover_entries[v].append((j, 1.0))
    for v in pairs:
        for j in arcs_in[v]:
            cover_entries[v].append((nz + j, 1.0))
    card_mode, card_k = query.cardinality
    for v in pairs:
        lower = 1.0 if v in query.must_cover else 0.0
        upper = 0.0 if v in query.forbidden else 1.0
        add_row(cover_entries[v], lower, upper)
    for v in pairs:
        if arcs_out[v]:
            ent = [(nz + j, 1.0) for j in arcs_out[v]]
            ent += [(nz + j, -1.0) for j in arcs_in[v]]
            add_row(ent, -np.inf, 0.0)
    for a in inst.ndds:
        if ndd_out[a]:
            add_row([(nz + j, 1.0) for j in ndd_out[a]], 0.0, 1.0)
    # position variables keep chains acyclic and bounded by L
    if not unbounded:
        for j, (u, v) in enumerate(chain_arcs):
            if u in inst.ndds:
                add_row([(nz + na + idx[v], -1.0), (nz + j, 1.0)], -np.inf, 0.0)
            else:
                add_row(
                    [(nz + na + idx[v], -1.0), (nz + na + idx[u], 1.0), (nz + j, L + 1.0)],
                    -np.inf,
                    float(L),
                )
    if card_mode != "free":
        agg: dict[int, float] = {}
        for v in pairs:
            for col, coef in cover_entries[v]:
                agg[col] = agg.get(col, 0.0) + coef
        add_row(list(agg.items()), float(card_k), float(card_k) if card_mode == "exact" else np.inf)

    if unbounded:
        arc_idx = {a: j for j, a in enumerate(chain_arcs)}
        # short subtours dominate; on moderate models cut the known 2-/3-cycles
        # upfront so the lazy loop below only handles rare long ones (on large
        # models the row bloat costs more than the saved re-solves)
        if nz <= 5000:
            for C in cycles:
                ent = [(nz + arc_idx[a], 1.0) for a in C.arcs() if a in arc_idx]
                if len(ent) == C.length:
                    add_row(ent, -np.inf, C.length - 1.0)
        # replay cuts discovered by earlier solves over the same instance
        for cut in cut_pool or ():
            add_row([(nz + arc_idx[a], 1.0) for a in cut], -np.inf, len(cut) - 1.0)
    lb = np.zeros(nvar)
    ub = np.ones(nvar)
    ub[nz + na :] = float(max(L, 1))
    integrality = np.zeros(nvar)
    integrality[: nz + na] = 1
    def _solve_loop() -> tuple[Packing, Fraction]:
        for _ in range(10_000):
            A = coo_matrix((vals, (rows, cols)), shape=(len(lo), nvar))
            res = milp(
                c,
                constraints=LinearConstraint(A.tocsr(), np.array(lo), np.array(hi)),
                integrality=integrality,
                bounds=Bounds(lb, ub),
                options={},
            )
            if res.status != 0 or res.x is None:
                raise OracleInfeasible(f"MILP reported status {res.status}: {res.message}")
            x = res.x
            if not unbounded:
                return _decode(x)
            # lazily cut off directed cycles among selected pair-to-pair arcs
            # (in arc mode only the ones the cycle policy disallows)
            succ = {
                u: (j, v)
                for j, (u, v) in enumerate(chain_arcs)
                if u in inst.pairs and x[nz + j] > 0.5
            }
            state: dict[int, int] = {}
            cuts = []
            for start in succ:
                if state.get(start):
                    continue
                trail, node = [], start
                while node in succ and state.get(node) is None:
                    state[node] = 1
                    trail.append(node)
                    node = succ[node][1]
                if state.get(node) == 1:  # closed a new cycle; slice it out of the trail
                    cyc = trail[trail.index(node):]
                    allowed = (
                        arc_mode
                        and policy.max_cycle_len is not None
                        and len(cyc) <= policy.max_cycle_len
                    )
                    if not allowed:
                        cuts.append(cyc)
                for u in trail:
                    state[u] = 2
            for cyc in cuts:
                add_row([(nz + succ[u][0], 1.0) for u in cyc], -np.inf, len(cyc) - 1.0)
                if cut_pool is not None:
                    cut_pool.append(tuple((u, succ[u][1]) for u in cyc))
            if not cuts:
                return _decode(x)
            if extra_columns is not None:
                # the incumbent minus its disallowed cycles is a feasible,
                # near-optimal packing; hand it back as a bonus column
                extra_columns.append(_decode(x, skip_disallowed=True))
        raise FairkepError("subtour elimination failed to converge")

    def _decode(x, skip_disallowed: bool = False) -> tuple[Packing, Fraction]:
        structs: list[Structure] = [C for j, C in enumerate(cycles) if x[j] > 0.5]
        nxt: dict[int, int] = {}
        starts: list[tuple[int, int]] = []
        for j, (u, v) in enumerate(chain_arcs):
            if x[nz + j] > 0.5:
                if u in inst.ndds:
                    starts.append((u, v))
                else:
                    nxt[u] = v
        visited: set[int] = set()
        for (a, v) in starts:
            path = [v]
            visited.add(v)
            while path[-1] in nxt:
                path.append(nxt[path[-1]])
                visited.add(path[-1])
            structs.append(Chain(ndd=a, pairs=tuple(path)))
        # in arc mode allowed cycles survive the cut loop as closed arc walks
        for u in nxt:
            if u in visited:
                continue
            cyc = [u]
            visited.add(u)
            w = nxt[u]
            while w != u:
                cyc.append(w)
                visited.add(w)
                w = nxt[w]
            allowed = policy.max_cycle_len is not None and len(cyc) <= policy.max_cycle_len
            if allowed or not skip_disallowed:
                structs.append(Cycle(tuple(cyc)))
        packing = Packing(frozenset(structs))
        value = sum((query.price(v) for v in packing.covered), Fraction(0))
        return packing, value

    return _solve_loop()


def _set_packing_milp(query: OracleQuery, structures: Sequence[Structure]) -> tuple[Packing, Fraction]:
    """Fast value-oriented solve over enumerated columns (integer prices only).

    The optimum value is an integer, so the float MILP result identifies an
    optimal selection exactly; the reported value is recomputed rationally.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    structs = [s for s in structures if not (set(s.covered()) & query.forbidden)]
    pairs = sorted(query.instance.pairs)
    idx = {v: i for i, v in enumerate(pairs)}
    nvar = len(structs)
    c = np.zeros(nvar)
    rows, cols, vals = [], [], []
    for j, s in enumerate(structs):
        c[j] = -float(sum(query.price(v) for v in s.covered()))
        for v in s.covered():
            rows.append(idx[v])
            cols.append(j)
            vals.append(1.0)
    lo = [1.0 if v in query.must_cover else 0.0 for v in pairs]
    hi = [1.0] * len(pairs)
    # each NDD roots at most one chain
    ndds = sorted(query.instance.ndds)
    ndd_row = {a: len(pairs) + i for i, a in enumerate(ndds)}
    for j, s in enumerate(structs):
        if isinstance(s, Chain):
            rows.append(ndd_row[s.ndd])
            cols.append(j)
            vals.append(1.0)
    lo += [0.0] * len(ndds)
    hi += [1.0] * len(ndds)
    mode, k = query.cardinality
    if mode != "free":
        for j, s in enumerate(structs):
            rows.append(len(lo))
            cols.append(j)
            vals.append(float(len(s.covered())))
        lo.append(float(k))
        hi.append(float(k) if mode == "exact" else np.inf)
    from scipy.sparse import coo_matrix

    A = coo_matrix((vals, (rows, cols)), shape=(len(lo), nvar))
    res = milp(
        c,
        constraints=LinearConstraint(A.tocsr(), np.array(lo), np.array(hi)),
        integrality=np.ones(nvar),
        bounds=Bounds(np.zeros(nvar), np.ones(nvar)),
    )
    if res.status != 0 or res.x is None:
        raise OracleInfeasible(f"MILP reported status {res.status}: {res.message}")
    packing = Packing(frozenset(s for j, s in enumerate(structs) if res.x[j] > 0.5))
    value = sum((query.price(v) for v in packing.covered), Fraction(0))
    return packing, value


def max_price_packing(
    query: OracleQuery,
    cap: int = DEFAULT_ENUM_CAP,
    value_only: bool = False,
    cut_pool: Optional[list] = None,
    extra_columns: Optional[list] = None,
) -> tuple[Packing, Fraction]:
    """Packing maximizing the total price of covered pairs, with its value.

    Exact and deterministic on enumerable families: ties are broken by fewest
    structures then lexicographically smallest structure ids (with fewest
    3-cycles inserted first when requested).  `value_only` skips the tie-break
    layers, returning the first optimal packing found; with integer prices on
    more than `BB_MAX_PAIRS` pairs the set-packing MILP answers it.  Chain
    families that trip the `ExplosionGuard`, or unbounded chains on more than
    2000 arcs, go to the arc MILP.  `cut_pool`, when given, carries subtour
    cuts between repeated solves on one instance.  `extra_columns`, when
    given, collects the feasible near-optimal packings the MILP path
    encounters on the way (useful to enrich a column pool).
    """
    # Unbounded chains on dense instances always blow the enumeration cap;
    # probing it anyway costs seconds per call, so go straight to the MILP.
    if query.policy.max_chain_len == float("inf") and len(query.instance.arcs) > 2000:
        return _milp_max_price(query, cap, cut_pool=cut_pool, extra_columns=extra_columns)
    try:
        structures = enumerate_structures(query.instance, query.policy, cap=cap)
    except ExplosionGuard:
        return _milp_max_price(query, cap, cut_pool=cut_pool, extra_columns=extra_columns)
    if (
        structures
        and value_only
        and len(query.instance.pairs) > BB_MAX_PAIRS
        and all(Fraction(p).denominator == 1 for p in query.node_prices.values())
    ):
        return _set_packing_milp(query, structures)
    return _BB(query, structures, value_only).run()


def max_price_over(
    query: OracleQuery, structures: Sequence[Structure], value_only: bool = True
) -> tuple[Packing, Fraction]:
    """Optimize over an explicitly ordered structure list.

    With value_only the first optimum encountered wins, so the caller's
    ordering decides among ties — the hook used to emulate solver
    nondeterminism by shuffling the structure order.
    """
    return _BB(query, list(structures), value_only).run()


# ---------------------------------------------------------------------------
# pool metrics


def _unit_query(instance: KepInstance, policy: StructurePolicy, **kw) -> OracleQuery:
    return OracleQuery(
        instance=instance,
        policy=policy,
        node_prices={v: Fraction(1) for v in instance.pairs},
        **kw,
    )


def max_cardinality(instance: KepInstance, policy: StructurePolicy) -> int:
    _, val = max_price_packing(_unit_query(instance, policy), value_only=True)
    return int(val)


def is_coverable(
    instance: KepInstance,
    policy: StructurePolicy,
    v: int,
    cardinality: tuple[str, Optional[int]] = CARD_FREE,
) -> bool:
    """Whether some packing under the cardinality side constraint covers v."""
    try:
        max_price_packing(
            OracleQuery(
                instance=instance,
                policy=policy,
                must_cover=frozenset({v}),
                cardinality=cardinality,
            ),
            value_only=True,
        )
    except OracleInfeasible:
        return False
    return True


def _loss_given_max(
    instance: KepInstance, policy: StructurePolicy, v: int, maxcard: int, max_covered: frozenset[int]
) -> int:
    if v in max_covered:
        return 0
    try:
        _, val = max_price_packing(
            _unit_query(instance, policy, must_cover=frozenset({v})), value_only=True
        )
    except OracleInfeasible:
        raise Uncoverable(f"pair {v} is covered by no acceptable packing") from None
    delta = maxcard - int(val)
    if policy.max_chain_len is None and policy.max_cycle_len is not None:
        limit = (policy.max_cycle_len - 1) ** 2 - 1
        if delta > max(limit, 0):
            raise FairkepError(f"coverage loss {delta} exceeds bound {limit}")
    return delta


def coverage_loss(instance: KepInstance, policy: StructurePolicy, v: int) -> int:
    """δ_v: cardinality sacrificed by the best packing that covers v."""
    packing, val = max_price_packing(_unit_query(instance, policy), value_only=True)
    return _loss_given_max(instance, policy, v, int(val), packing.covered)


def delta_star(instance: KepInstance, policy: StructurePolicy) -> int:
    """Smallest δ making the maximin value positive at cardinality ≥ max − δ.

    The maximin LP over packings of cardinality ≥ maxcard − δ is positive
    exactly when every pair is covered by some such packing (mix the per-pair
    witnesses uniformly), so δ* is the largest per-pair coverage loss.
    """
    packing, val = max_price_packing(_unit_query(instance, policy), value_only=True)
    best = 0
    for v in sorted(instance.pairs):
        best = max(best, _loss_given_max(instance, policy, v, int(val), packing.covered))
    return best


def acceptable_cardinality(instance: KepInstance, policy: StructurePolicy) -> tuple[str, int]:
    """The cardinality side constraint implied by the policy's mode."""
    if policy.cardinality_mode == "fixed":
        return ("exact", 2 * policy.mu)
    maxcard = max_cardinality(instance, policy)
    slack = policy.delta if policy.cardinality_mode == "delta" else 0
    return ("atleast", max(maxcard - slack, 0))


def always_covered_count(
    instance: KepInstance, policy: StructurePolicy
) -> tuple[int, frozenset[int]]:
    """Pairs covered by every acceptable packing, with their count.

    "Acceptable" follows the policy's cardinality mode (maximum cardinality by
    default, or within delta of it).  Iterated min-inclusion pricing: price -1
    on the current candidate set and re-optimize under the cardinality
    constraint, shrinking by intersection until no acceptable packing avoids a
    remaining candidate.
    """
    card = acceptable_cardinality(instance, policy)
    packing, _ = max_price_packing(_unit_query(instance, policy, cardinality=card), value_only=True)
    witness = set(packing.covered)
    while witness:
        prices = {v: Fraction(-1) for v in witness}
        packing, _ = max_price_packing(
            OracleQuery(instance=instance, policy=policy, node_prices=prices, cardinality=card),
            value_only=True,
        )
        shrunk = witness & packing.covered
        if shrunk == witness:
            break
        witness = shrunk
    return len(witness), frozenset(witness)
