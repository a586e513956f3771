"""Exact weighted optimization over packing families, plus pool-level metrics.

`max_price_packing` maximizes the total node price of covered pairs over all
packings a `StructurePolicy` admits; it is the one solver for every cycle and
chain family, 2-cycle + 2-path packings included.  Enumerable families are
solved by an exact branch-and-bound over bitmask-encoded structures, on
integers (prices scaled by their common denominator); it returns the optimum
as a `Fraction` and, of equal optima, the packing of fewest structures, then
of smallest tuple of row indices (`sort_key` ranks on an enumerated family).
One HiGHS model, through scipy, takes the rest: the integer-priced
value-only queries on pools above `BB_MAX_PAIRS` as a set packing over the
enumerated structures, and families too large to enumerate as cycle columns
plus chain-arc flows with position variables or subtour cuts.

The branch-and-bound has two halves.  A `PackingFamily` holds what does not
depend on prices: the enumerated structures, their bitmasks, the suffix
unions of their pair bits (`cover`), each row's set of conflict-free rows
(as a bitset over the rows), the number of coverable pairs, and the memoized
maximum cardinality.  `enumerate_structures` emits the
structures as bit rows (`StructureRows`) in `sort_key` order, which the family
reads as its tables, so a row's index is its tie-break rank.  Rows are the
only way into a family and into the set-packing MILP; a `Cycle` or `Chain`
object is built only for the structures of a returned packing.  A family lives
at call scope: a `fair` solve, a witness loop, a CLI command or a simulated
period builds one and asks each of its queries of it.  Only a pool that
`fair.preprocess` reduced carries one, preprocessing's family restricted to it
(`PackingFamily.restrict`), which `_family_of` hands to every call over that
pool with the same structures; no module-level cache keeps a family.  It is
the oracle's only handle on a pool:
`max_price_packing(family, prices, cardinality, value_only)` is the one entry,
prices in and one best packing out.  A query's cardinality has two modes,
("exact", k) and ("atleast", k) in covered pairs; `CARD_FREE` is
("atleast", 0), which every packing meets.  The family's `search` scales one
query's prices and runs the depth-first search, carrying a value bound and a
cardinality bound down the tree incrementally.  It keeps the rows it can still
include as a bitset and jumps to the lowest one, closing the pairs that the
skipped rows were the last to cover in one step (bit-parallel
branch-and-bound, after San Segundo et al., Comput. Oper. Res. 2011).
Neither bound changes an answer: the branching order is fixed, and they cut
only subtrees with no leaf that could replace the incumbent.  Every query
enters through `max_price_packing`, and a family enumerates through
`enumerate_structures`, both looked up in this module at call time.

The pool metrics rest on two witness loops over `max_price_packing`.
`coverable_pairs` (max-inclusion) prices the pairs not yet certified at 1 and
adds each optimum's covered pairs until none is new (under `CARD_FREE` an
enumerated family's rows answer at once); `fair.preprocess`,
`coverage_losses` and `delta_star` use it.  `always_covered_count`
(min-inclusion) prices the remaining candidates at -1 and intersects until no
packing avoids one.  Under cardinality ≥ k both take the family's maximum
packing as their first witness (`PackingFamily.unit_optimum`), as `fair`'s
master takes it as its seed, so no loop searches it again.  `coverable_pairs`
runs on a family its caller holds; the other metrics take (instance, policy)
and ask `_family_of` for the instance's carried family or a new one.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

from .core import (
    Chain,
    Cycle,
    FairkepError,
    KepInstance,
    Packing,
    Structure,
    StructurePolicy,
    integer_scaled,
)

# Most structures `enumerate_structures` emits; read at call time, so a
# test may lower it
ENUM_CAP = 200_000

# Integer-priced value-only queries on pools of more pairs go to the
# set-packing MILP over the enumerated family: past ~20 pairs the
# branch-and-bound's worst cases take seconds, against HiGHS's fixed ~10 ms
# per query.
BB_MAX_PAIRS = 18

# no cardinality constraint: every packing covers at least 0 pairs
CARD_FREE = ("atleast", 0)


class ExplosionGuard(FairkepError):
    """Structure enumeration exceeded `ENUM_CAP`."""


class OracleInfeasible(FairkepError):
    """No packing satisfies the cardinality constraint."""


class Uncoverable(FairkepError):
    """The designated pair is covered by no acceptable packing."""


def _fraction(p) -> Fraction:
    # Fraction(p) on a Fraction costs ~40x this check, once per price per query
    return p if isinstance(p, Fraction) else Fraction(p)


class StructureRows(Sequence):
    """An enumerated family as bit rows, read as a sequence of `Structure`s.

    Bits number the pairs in ascending order, then the NDDs.  Row i holds
    `members[i]`, the bits of the pairs structure i covers in `covered()`
    order; `masks[i]`, those bits plus its NDD's for a chain, so chains
    sharing a root conflict; and `ndds[i]`, a chain's NDD bit or None for a
    cycle.  Item i is the `Cycle` or `Chain` of row i, built through its
    constructor when first read and kept, so a search that reads only the
    returned packing's items builds no other object.  A view compares equal
    to the list of its items.  `permuted(order)` is the same rows in another
    order, which is how `max_price_over` shuffles a family.
    """

    def __init__(self, ids: list[int], members: list[tuple[int, ...]], masks: list[int],
                 ndds: list[Optional[int]]):
        self.ids, self.members, self.masks, self.ndds = ids, members, masks, ndds
        self._objects: list[Optional[Structure]] = [None] * len(masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i: int) -> Structure:
        s = self._objects[i]
        if s is None:
            ids, ndd = self.ids, self.ndds[i]
            vertices = tuple(ids[b] for b in self.members[i])
            s = Cycle(vertices) if ndd is None else Chain(ndd=ids[ndd], pairs=vertices)
            self._objects[i] = s
        return s

    def permuted(self, order: Sequence[int]) -> StructureRows:
        """Row order[i] of this view as row i of a new one."""
        tables = (self.members, self.masks, self.ndds)
        return StructureRows(self.ids, *([t[i] for i in order] for t in tables))

    def __eq__(self, other):
        if isinstance(other, (list, StructureRows)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"StructureRows({list(self)!r})"


def enumerate_structures(instance: KepInstance, policy: StructurePolicy) -> StructureRows:
    """All acceptable simple cycles and chains, in `sort_key` order, as bit rows.

    The search runs on the bits of `StructureRows` and emits rows in that
    order: cycles before chains, starts and NDDs ascending, and each vertex
    sequence before its extensions, which it tries in ascending order (bit
    order is vertex order among pairs and among NDDs).  A cycle grows from
    its smallest vertex through larger ones only, and closes whenever the
    vertex just appended has an arc into the start, so the search never
    descends a level only to look for the closing arc.  Chains are
    enumerated up to min(policy.max_chain_len, number of pairs), so an
    unbounded chain policy on a large pool trips the guard rather than
    materializing the family.  No `Cycle` or `Chain` is built here.
    """
    cap = ENUM_CAP
    members: list[tuple[int, ...]] = []
    masks: list[int] = []
    chains = policy.max_chain_len is not None
    pairs = sorted(instance.pairs)
    ids = pairs + sorted(instance.ndds)
    bit = dict(zip(ids, range(len(ids))))
    n_pairs = len(pairs)
    # a cycle-only enumeration never reads an NDD's arcs
    n_from = len(ids) if chains else n_pairs
    adj: list[list[int]] = [[] for _ in range(n_from)]
    into = [0] * n_pairs  # bitmask of each pair's predecessors among pairs
    for (u, v) in instance.arcs:
        bu = bit[u]
        if bu < n_from:
            bv = bit[v]
            adj[bu].append(bv)
            if bu < n_pairs:
                into[bv] |= 1 << bu
    for succ in adj:
        succ.sort()

    if policy.max_cycle_len is not None:
        L = policy.max_cycle_len

        def cyc(start: int, closes: int, path: list[int], used: int) -> None:
            deeper = len(path) + 1 < L
            for w in adj[path[-1]]:
                if w > start and not used >> w & 1:
                    if closes >> w & 1:
                        members.append((*path, w))
                        masks.append(used | 1 << w)
                        if len(masks) > cap:
                            raise ExplosionGuard(f"more than {cap} structures")
                    if deeper:
                        path.append(w)
                        cyc(start, closes, path, used | 1 << w)
                        path.pop()

        for start in range(n_pairs):
            # the cycles through start as their smallest vertex close from a larger one
            if into[start] >> (start + 1):
                cyc(start, into[start], [start], 1 << start)
    ndds: list[Optional[int]] = [None] * len(masks)

    if chains:
        bound = int(min(policy.max_chain_len, n_pairs))
        shortest = policy.min_chain_len

        def grow(root: int, path: list[int], used: int) -> None:
            if len(path) >= shortest:
                members.append(tuple(path))
                masks.append(used)
                ndds.append(root)
                if len(masks) > cap:
                    raise ExplosionGuard(f"more than {cap} structures")
            if len(path) == bound:
                return
            for w in adj[path[-1]]:
                if not used >> w & 1:
                    path.append(w)
                    grow(root, path, used | 1 << w)
                    path.pop()

        for root in range(n_pairs, len(ids)):
            for w in adj[root]:
                grow(root, [w], 1 << root | 1 << w)

    return StructureRows(ids, members, masks, ndds)


# ---------------------------------------------------------------------------
# exact branch and bound


class PackingFamily:
    """The price-independent half of the packing search over one (instance, policy).

    It holds the structures in search order and the tables every query shares:
    each structure's bitmask (pairs, then NDDs, so chains sharing a root
    conflict), its covered pair bits and size, and `cover`, where `cover[i]`
    is the union of the pair bits of rows i, i + 1, ..., so that
    `cover[i] & ~cover[j]` holds the pairs whose last covering row lies in
    [i, j); `union`, `cover[0]`, holds the coverable pairs' bits.  The search
    also reads `conflict_free`, built on the family's first search: bit r of
    `conflict_free[j]` is set when rows r and j share no pair or NDD bit.
    Its n² bits take 0.5 MB at 2,000 rows; a family that only the MILP
    answers never builds it.
    The rows come from the module's
    `enumerate_structures` on the first query, so that work stays inside the
    oracle call that needs it, or from `rows`, given in another order by
    `StructureRows.permuted`.  They are the bit tables, and a row's index is
    its tie-break rank (its `sort_key` rank when enumerated).  `structures` is
    the `StructureRows` view, which builds an object only for a row that is
    read.  It is None for a chain family too large to enumerate (the
    `ExplosionGuard` trips, or unbounded chains on more than 2000 arcs); its
    queries go to the MILP with chain-arc flows.  A chain-free family past
    `ENUM_CAP` has no such model: reading `structures` raises the
    `ExplosionGuard`, at every query.  `maximum()` solves the
    unit-price query once, and `restrict` carries it to a smaller pool.

    The family is how a caller names its pool to the oracle: every query is
    `max_price_packing(family, prices, ...)`.  A family lives as long as the
    call that builds it (a `fair` solve, a witness loop, one simulated
    period, one CLI command), or, restricted by `fair.preprocess`, as long
    as the reduced instance that carries it; it is never cached globally.  A
    query's search state lives in `search` alone, so one family answers any
    sequence of queries exactly as fresh families would.
    """

    def __init__(
        self,
        instance: KepInstance,
        policy: StructurePolicy,
        rows: Optional[StructureRows] = None,
    ):
        self.instance = instance
        self.policy = policy
        self._given = rows
        self._built = False
        self._maximum: Optional[tuple[Packing, int]] = None

    @property
    def structures(self) -> Optional[StructureRows]:
        if not self._built:
            self._build()
            self._built = True
        return self._structs

    def _build(self) -> None:
        self._structs = None
        inst, policy = self.instance, self.policy
        self.pairs = sorted(inst.pairs)
        rows = self._given
        if rows is None:
            # unbounded chains on dense instances always blow the enumeration
            # cap; probing it anyway costs seconds, so go straight to the MILP
            if policy.max_chain_len == float("inf") and len(inst.arcs) > 2000:
                return
            try:
                rows = enumerate_structures(inst, policy)
            except ExplosionGuard:
                # only a chain family has a smaller model: chain-arc flows
                if policy.max_chain_len is None:
                    raise
                return
        self._structs = rows
        self.members, self.masks = rows.members, rows.masks
        self.sizes = [len(bits) for bits in self.members]
        n = len(self.masks)
        pair_bits = (1 << len(self.pairs)) - 1
        cover = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            cover[i] = cover[i + 1] | self.masks[i] & pair_bits
        self.cover = cover
        self.union = cover[0]
        self.coverable = self.union.bit_count()

    @cached_property
    def conflict_free(self) -> list[int]:
        """Per row, the bitset of the rows that share no pair or NDD bit with it."""
        rows = self.structures
        bits = [m if ndd is None else (*m, ndd) for m, ndd in zip(rows.members, rows.ndds)]
        holders = [0] * len(rows.ids)  # the rows holding each pair or NDD bit
        for i, row in enumerate(bits):
            for b in row:
                holders[b] |= 1 << i
        every = (1 << len(rows)) - 1
        out = []
        for row in bits:
            clash = 0
            for b in row:
                clash |= holders[b]
            out.append(every & ~clash)
        return out

    def maximum(self) -> tuple[Packing, int]:
        """A maximum-cardinality packing (the first one found) and its size."""
        if self._maximum is None:
            unit = dict.fromkeys(self.instance.pairs, Fraction(1))
            packing, value = max_price_packing(self, unit, value_only=True)
            self._maximum = (packing, int(value))
        return self._maximum

    def restrict(self, instance: KepInstance) -> PackingFamily:
        """This family over `instance`, its pool restricted to fewer pairs.

        `instance` must be `self.instance.restrict(kept)`.  The rows whose
        pairs all lie in the kept pool stay, in their order, with their bits
        renumbered: they are the rows `enumerate_structures` emits for
        `instance`, so every query answers as on a new family.  The memoized
        maximum comes along only when its packing lies inside the kept pairs
        (always so when they are coverable at maximum cardinality).  A family
        too large to enumerate gives a new one.
        """
        if not instance.pairs <= self.instance.pairs or instance.ndds != self.instance.ndds:
            raise ValueError("a family restricts only to a subset of its pairs")
        rows = self.structures
        if rows is None:
            return PackingFamily(instance, self.policy)
        ids = sorted(instance.pairs) + sorted(instance.ndds)
        bit = dict(zip(ids, range(len(ids))))
        new = [bit.get(v) for v in rows.ids]
        gone = sum(1 << b for b, nb in enumerate(new) if nb is None)
        single = [0 if nb is None else 1 << nb for nb in new]
        members, masks, ndds = [], [], []
        for bits, mask, ndd in zip(rows.members, rows.masks, rows.ndds):
            if not mask & gone:
                members.append(tuple(map(new.__getitem__, bits)))
                masks.append(sum(map(single.__getitem__, bits)) | (0 if ndd is None else single[ndd]))
                ndds.append(None if ndd is None else new[ndd])
        family = PackingFamily(instance, self.policy, StructureRows(ids, members, masks, ndds))
        if self._maximum is not None and self._maximum[0].covered <= instance.pairs:
            family._maximum = self._maximum
        return family

    def unit_optimum(self, cardinality: tuple[str, Optional[int]]) -> tuple[Packing, Fraction]:
        """The value-only answer to the unit-price query under `cardinality`.

        `cardinality` is ("exact", k) or ("atleast", k).  Under ("atleast", k),
        k up to the maximum, it is `maximum()`'s packing: the search returns
        the first leaf in its order that reaches the optimum, and neither the
        bound nor the row prunes a maximum leaf.
        (Where HiGHS answers, it may pick another maximum packing.)  Other
        cardinalities are searched and may raise `OracleInfeasible`.
        """
        mode, k = cardinality
        if mode != "exact":
            packing, maxcard = self.maximum()
            if k <= maxcard:
                return packing, Fraction(maxcard)
        unit = dict.fromkeys(self.instance.pairs, Fraction(1))
        return max_price_packing(self, unit, cardinality, value_only=True)

    def search(
        self,
        prices: Mapping[int, Fraction],
        cardinality: tuple[str, Optional[int]],
        value_only: bool,
    ) -> tuple[Packing, Fraction]:
        """Branch-and-bound for one query over the enumerated family.

        Pairs missing from `prices` have price 0.  Prices are scaled to
        integers by their common denominator and, for a full query, by n + 1
        (n pairs), and each chosen structure is charged 1: a structure covers
        a pair, so the total charge, at most n, stays below n + 1, the least
        gap between two values, and the highest charged value is the highest
        value, then the fewest structures.
        Structures are visited in order, inclusion first; recursion happens
        only on inclusion, so the depth is bounded by the packing size.  Call
        a pair open when no chosen structure covers it and a remaining one
        does.  A node carries two bounds: `bound`, its charged value plus the
        positive prices of the open pairs, pruned against the incumbent, and
        `room`, its covered count plus the number of open pairs, pruned
        against the cardinality row's k.  Both are carried down, not
        recomputed.  A node also carries `free`, the rows from its position
        on that conflict with no chosen structure, as a bitset over the rows.
        Each turn jumps from position i to j, the lowest row in `free` (or n
        when none is left): the open pairs whose last covering row lies in
        [i, j), `cover[i] & ~cover[j]` less the covered ones, close at once,
        and `room` and `bound` fall by their count and positive prices.  Row
        j is then included, unless an exact k forbids its size, adding its
        value, less its charge and the positive prices of its own pairs, to
        `bound` and leaving `room` as it is (its pairs turn from open to
        covered), with `free` cut to the rows conflict-free with it.  At a
        leaf the bounds are the charged value and the count.

        The jump skips only rows that conflict with the chosen ones, where
        the row-by-row loop would include nothing, and the bounds only fall
        along a loop between inclusions.  So a prune that the row-by-row loop
        made at a skipped row is made at j too, the tree is the same, and
        only the work per node falls.

        One leaf rule: a leaf above the incumbent replaces it, so of equal
        charged values the first leaf met wins.  The inclusion-first order
        meets equal-size packings in ascending tuple of row indices, so this
        is `max_price_packing`'s tie-break; a new branching order must keep
        that invariant or redefine the tie-break.  A `value_only` query has
        no multiplier and no charge and returns the first optimum met.
        Pruning never changes an answer: the order is fixed, and a bound cuts
        only subtrees with no feasible leaf above the incumbent.  Only the
        returned packing's structures are read from `structures`, so only
        they are built as objects.
        """
        structs = self.structures
        n = len(structs)
        price, scale = integer_scaled(_fraction(prices.get(v, 0)) for v in self.pairs)
        multiplier, charge = (1, 0) if value_only else (len(self.pairs) + 1, 1)
        if not value_only:
            price = [p * multiplier for p in price]
        # including a structure moves the value bound by its negative prices and charge
        if min(price, default=0) < 0:
            adj = [sum(min(price[b], 0) for b in bits) - charge for bits in self.members]
        else:
            adj = [-charge] * n
        # the positive price of each pair, keyed by its bit
        gain = {1 << b: p for b, p in enumerate(price) if p > 0}
        positive = sum(gain)  # their bits
        cover, conflict_free = self.cover, self.conflict_free
        masks, sizes = self.masks, self.sizes
        mode, k = cardinality
        exact = mode == "exact"
        best = best_chosen = None
        # a bound below `cut` cannot beat the incumbent: the values are integers
        cut = -math.inf
        chosen: list[int] = []

        def dfs(i: int, free: int, used: int, bound: int, room: int, count: int) -> None:
            nonlocal best, best_chosen, cut
            while True:
                low = free & -free
                j = low.bit_length() - 1 if low else n
                closed = cover[i] & ~(cover[j] | used)
                if closed:
                    room -= closed.bit_count()
                    closed &= positive
                    while closed:
                        bit = closed & -closed
                        bound -= gain[bit]
                        closed ^= bit
                # at a leaf `room` is the count, so this leaves exactly the
                # feasible counts: an inclusion never overshoots an exact k
                if room < k or bound < cut:
                    return
                if j == n:
                    best, best_chosen, cut = bound, list(chosen), bound + 1
                    return
                if not (exact and count + sizes[j] > k):
                    chosen.append(j)
                    dfs(j + 1, free & conflict_free[j], used | masks[j], bound + adj[j], room,
                        count + sizes[j])
                    chosen.pop()
                free ^= low
                i = j

        open_gain = sum(g for b, g in gain.items() if b & self.union)
        dfs(0, (1 << n) - 1, 0, open_gain, self.coverable, 0)
        if best_chosen is None:
            raise OracleInfeasible("no packing satisfies the cardinality constraint")
        packing = Packing(frozenset(structs[j] for j in best_chosen))
        return packing, Fraction(best + charge * len(best_chosen), scale * multiplier)


# ---------------------------------------------------------------------------
# HiGHS model (large pools and non-enumerable chain families)


def _milp_max_price(
    family: PackingFamily,
    prices: Mapping[int, Fraction],
    cardinality: tuple[str, Optional[int]],
    columns: Optional[StructureRows] = None,
) -> tuple[Packing, Fraction]:
    """The one MILP: a set packing over given columns, or cycle columns plus chain-arc flows.

    The model is over `family`'s pool and policy, priced by `prices` (0 for
    a pair missing) under `cardinality`; it reads no table of the family.
    Each column is a binary variable for one structure row (`StructureRows`).
    Every pair is covered at most once, every NDD roots at most one chain,
    and a cardinality constraint counts the covered pairs.  Given `columns`,
    the model is a plain set packing over them, with no arc or position
    variables.  Without them, which only a chain family too large to
    enumerate asks, the columns are the policy's cycle rows, or
    none under unbounded chains, whose arcs carry the cycles too, and the
    policy's chains are arc flows: a binary per arc into a pair, flow
    conservation at each pair, and either position (MTZ-style) variables
    bounding the chain length or, for unbounded chains, subtour cuts added
    lazily to this model, which is re-solved until no disallowed cycle is
    left; the cuts die with the call.  The float optimum picks the packing,
    whose chosen columns alone are built as objects, and its value is
    recomputed rationally, so the answer is exact when the gap between
    distinct packing values exceeds HiGHS's tolerances (always so with
    integer prices).
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    inst, policy = family.instance, family.policy
    chains = columns is None
    if chains and policy.min_chain_len > 1:
        raise ExplosionGuard("chain-arc flows do not support min_chain_len > 1")
    # Bounded chain lengths use position variables; unbounded ones drop them
    # (the big-M would be n, a hopelessly weak relaxation) and eliminate
    # directed pair-arc cycles with lazily added subtour cuts.
    unbounded = chains and policy.max_chain_len == float("inf")
    pairs = sorted(inst.pairs)
    if columns is None:
        columns = (
            StructureRows(pairs, [], [], []) if unbounded
            else enumerate_structures(inst, replace(policy, max_chain_len=None))
        )
    idx = {v: i for i, v in enumerate(pairs)}
    n = len(pairs)
    L = int(min(policy.max_chain_len, n)) if chains else 0
    arcs = sorted(a for a in inst.arcs if a[1] in inst.pairs) if chains else []
    # variables: columns | chain arcs | chain position per pair
    nz, na = len(columns), len(arcs)
    npos = n if chains and not unbounded else 0
    nvar = nz + na + npos
    c = np.zeros(nvar)
    # each structure costs a hair, so equal-priced optima favour fewer structures
    eps_count = 1e-7
    cover: dict[int, list[tuple[int, float]]] = {v: [] for v in pairs}
    roots: dict[int, list[tuple[int, float]]] = {a: [] for a in sorted(inst.ndds)}
    card_entries: list[tuple[int, float]] = []
    # row bits number the pairs in ascending order, then the NDDs
    ids = columns.ids
    price = [float(prices.get(v, 0)) for v in pairs]
    for j, (bits, ndd) in enumerate(zip(columns.members, columns.ndds)):
        c[j] = -sum(price[b] for b in bits) + eps_count
        for b in bits:
            cover[ids[b]].append((j, 1.0))
        if ndd is not None:
            roots[ids[ndd]].append((j, 1.0))
        card_entries.append((j, float(len(bits))))
    arcs_in: dict[int, list[int]] = {v: [] for v in pairs}
    arcs_out: dict[int, list[int]] = {v: [] for v in pairs}
    for j, (u, v) in enumerate(arcs, nz):
        c[j] = -price[idx[v]]
        cover[v].append((j, 1.0))
        arcs_in[v].append(j)
        card_entries.append((j, 1.0))
        if u in inst.ndds:
            roots[u].append((j, 1.0))
            c[j] += eps_count
        else:
            arcs_out[u].append(j)

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

    for v in pairs:
        add_row(cover[v], 0.0, 1.0)
    # a pair passes a chain on only if the chain reaches it
    for v in pairs:
        if arcs_out[v]:
            add_row([(j, 1.0) for j in arcs_out[v]] + [(j, -1.0) for j in arcs_in[v]], -np.inf, 0.0)
    for entries in roots.values():
        if entries:
            add_row(entries, 0.0, 1.0)
    # position variables keep chains acyclic and bounded by L
    pos = nz + na
    if npos:
        for j, (u, v) in enumerate(arcs, nz):
            if u in inst.ndds:
                add_row([(pos + idx[v], -1.0), (j, 1.0)], -np.inf, 0.0)
            else:
                add_row(
                    [(pos + idx[v], -1.0), (pos + idx[u], 1.0), (j, L + 1.0)],
                    -np.inf,
                    float(L),
                )
    card_mode, card_k = cardinality
    # every packing covers at least 0 pairs, so ("atleast", 0) needs no row
    if cardinality != CARD_FREE:
        add_row(card_entries, float(card_k), float(card_k) if card_mode == "exact" else np.inf)
    arc_idx = {a: j for j, a in enumerate(arcs, nz)}
    ub = np.ones(nvar)
    ub[pos:] = float(max(L, 1))
    integrality = np.zeros(nvar)
    integrality[:pos] = 1

    for _ in range(10_000):
        A = coo_matrix((vals, (rows, cols)), shape=(len(lo), nvar))
        res = milp(
            c,
            constraints=LinearConstraint(A.tocsr(), np.array(lo), np.array(hi)),
            integrality=integrality,
            bounds=Bounds(np.zeros(nvar), ub),
        )
        # HiGHS status 2 is infeasible; any other (a limit, an error) is no answer
        if res.status == 2:
            raise OracleInfeasible(f"MILP reported status 2: {res.message}")
        if res.status != 0 or res.x is None:
            raise FairkepError(f"MILP reported status {res.status}: {res.message}")
        x = res.x
        # the chosen arcs split into walks: a chain from each NDD's arc, and
        # closed walks among the pairs, which are cycles
        nxt = {u: v for (u, v), j in arc_idx.items() if x[j] > 0.5}
        walks, seen = [], set()
        for u in [*sorted(inst.ndds), *nxt]:
            if u in nxt and u not in seen:
                walk = [u]
                while nxt.get(walk[-1], u) != u:
                    walk.append(nxt[walk[-1]])
                seen.update(walk)
                walks.append(walk)
        # lazily cut off the cycles the policy disallows; position variables
        # keep bounded chains acyclic, so only unbounded chains meet them
        cuts = [
            w for w in walks
            if w[0] in inst.pairs and (policy.max_cycle_len is None or len(w) > policy.max_cycle_len)
        ]
        if not cuts:
            break
        for w in cuts:
            add_row([(arc_idx[(u, nxt[u])], 1.0) for u in w], -np.inf, len(w) - 1.0)
    else:
        raise FairkepError("subtour elimination failed to converge")

    # no cut is left, so every closed walk is an allowed cycle
    structs: list[Structure] = [columns[j] for j in range(nz) if x[j] > 0.5]
    structs += [
        Chain(ndd=w[0], pairs=tuple(w[1:])) if w[0] in inst.ndds else Cycle(tuple(w)) for w in walks
    ]
    packing = Packing(frozenset(structs))
    return packing, sum((_fraction(prices.get(v, 0)) for v in packing.covered), Fraction(0))


def max_price_packing(
    family: PackingFamily,
    prices: Mapping[int, Fraction],
    cardinality: tuple[str, Optional[int]] = CARD_FREE,
    value_only: bool = False,
) -> tuple[Packing, Fraction]:
    """Packing of `family` maximizing the total price of covered pairs, with its value.

    Pairs missing from `prices` have price 0.  `cardinality` has two modes,
    ("exact", k) and ("atleast", k), k ≥ 0 counted in covered pairs;
    ("atleast", 0), `CARD_FREE`, leaves the count free.  Anything else raises
    ValueError.  Exact and deterministic on enumerable families: the answer
    has the highest value, then the fewest structures, then the smallest
    tuple of row indices (the `sort_key` ranks on an enumerated family).
    `value_only` returns the first optimum the search meets; with integer
    prices on more than `BB_MAX_PAIRS` pairs `_milp_max_price` answers it as
    a set packing over the family's rows.
    Chain families that trip the `ExplosionGuard`, or unbounded chains on
    more than 2000 arcs, go to the same MILP with cycle columns and chain-arc
    flows; chain-free families past `ENUM_CAP` raise the `ExplosionGuard`.
    A caller that asks many queries of one pool passes the same family to
    each; no family outlives the call that built it, or the reduced instance
    that `fair.preprocess` attached it to.  The search itself,
    with its incrementally carried bound, is
    `PackingFamily.search`.  Prices in, one best packing out: no solver state
    (subtour cuts, incumbents) survives the call.  A query no packing
    satisfies raises `OracleInfeasible` on every route; a HiGHS status other
    than optimal or infeasible (a limit, an error) raises `FairkepError`.
    """
    mode, k = cardinality
    if mode not in ("exact", "atleast"):
        raise ValueError(f"unknown cardinality mode {mode!r}")
    if k is None or k < 0:
        raise ValueError("cardinality constraint needs a count >= 0")
    structures = family.structures
    if structures is None:
        return _milp_max_price(family, prices, cardinality)
    if (
        structures
        and value_only
        and len(family.pairs) > BB_MAX_PAIRS
        and all(_fraction(p).denominator == 1 for p in prices.values())
    ):
        return _milp_max_price(family, prices, cardinality, structures)
    return family.search(prices, cardinality, value_only)


def max_price_over(
    instance: KepInstance,
    policy: StructurePolicy,
    prices: Mapping[int, Fraction],
    rng: random.Random,
) -> tuple[Packing, Fraction]:
    """The first optimum the value-only search meets over a shuffled family,
    under `CARD_FREE`, ("atleast", 0): no cardinality constraint.

    `rng` shuffles the enumerated rows, and that order decides among
    equal-priced packings: how `sim` emulates solver nondeterminism.  It
    takes (instance, policy), not a family, because it enumerates through
    `enumerate_structures` itself: past `ENUM_CAP` the `ExplosionGuard`
    propagates, where a family would fall back to the MILP.
    """
    rows = enumerate_structures(instance, policy)
    order = list(range(len(rows)))
    rng.shuffle(order)
    return PackingFamily(instance, policy, rows.permuted(order)).search(prices, CARD_FREE, True)


# ---------------------------------------------------------------------------
# pool metrics


def _family_of(instance: KepInstance, policy: StructurePolicy) -> PackingFamily:
    """The family `fair.preprocess` attached to `instance`, if it holds the
    policy's structures, else a new one.

    The match is on the fields that decide the structures, not on the
    cardinality mode or δ, so δ* and a solve at δ* ask preprocessing's family
    and its maximum.  Only an instance that `fair.preprocess` made carries one.
    """
    family = vars(instance).get("_family")
    if family is not None and family.policy.structure_rules == policy.structure_rules:
        return family
    return PackingFamily(instance, policy)


def acceptable_cardinality(
    instance: KepInstance, policy: StructurePolicy, family: Optional[PackingFamily] = None
) -> tuple[str, int]:
    """The cardinality side constraint implied by the policy's mode.

    `family`, the (instance, policy) family when given, supplies its memoized
    maximum cardinality.
    """
    if policy.cardinality_mode == "fixed":
        return ("exact", 2 * policy.mu)
    maxcard = (family or _family_of(instance, policy)).maximum()[1]
    slack = policy.delta if policy.cardinality_mode == "delta" else 0
    return ("atleast", max(maxcard - slack, 0))


def coverable_pairs(
    family: PackingFamily,
    cardinality: tuple[str, Optional[int]],
    certified: frozenset[int] = frozenset(),
) -> frozenset[int]:
    """Pairs of `family`'s pool covered by some packing under the cardinality constraint.

    Iterated max-inclusion pricing: price 1 on the pairs not yet certified and
    re-optimize under the constraint; every optimum certifies all the pairs it
    covers.  Stops when no such packing covers an uncertified pair.
    `certified` seeds the set and must hold only pairs such a packing covers.
    Every query runs on `family`; an unseeded loop's first query prices every
    pair, so it is `family.unit_optimum`.  Under `CARD_FREE` any one structure
    is a packing, so an enumerated family answers with its rows' union and
    searches nothing; a chain family too large to enumerate runs the loop.
    """
    pairs = family.instance.pairs
    if cardinality == CARD_FREE and certified != pairs and family.structures is not None:
        return certified | frozenset(v for b, v in enumerate(family.pairs) if family.union >> b & 1)
    while certified != pairs:
        prices = dict.fromkeys(pairs - certified, Fraction(1))
        try:
            packing, value = (
                max_price_packing(family, prices, cardinality, value_only=True)
                if certified else family.unit_optimum(cardinality)
            )
        except OracleInfeasible:
            break
        if value == 0:
            break
        certified = certified | packing.covered
    return certified


def coverage_losses(instance: KepInstance, policy: StructurePolicy) -> dict[int, Optional[int]]:
    """δ_v per pair: the cardinality sacrificed by the best packing covering v.

    None for a pair no packing covers.  One witness loop per loss level
    ℓ = 0, 1, … under cardinality ≥ max − ℓ, seeded with the pairs of smaller
    loss (level 0 with the maximum packing), certifies the pairs of loss ℓ.
    The coverable pairs that the levels then run to come from
    `coverable_pairs` without a cardinality constraint, seeded with what
    level 0 reached: the rows' union of an enumerated family, else a loop
    that searches only if level 0 missed a pair.  All of it runs on one
    family.
    """
    family = _family_of(instance, policy)
    packing, maxcard = family.maximum()
    certified = coverable_pairs(family, ("atleast", maxcard), packing.covered)
    coverable = coverable_pairs(family, CARD_FREE, certified)
    limit = None
    if policy.max_chain_len is None and policy.max_cycle_len is not None:
        limit = (policy.max_cycle_len - 1) ** 2 - 1
    losses = {v: (0 if v in certified else None) for v in sorted(instance.pairs)}
    level = 1
    while certified != coverable:
        reached = coverable_pairs(family, ("atleast", maxcard - level), certified)
        if limit is not None and reached != certified and level > max(limit, 0):
            raise FairkepError(f"coverage loss {level} exceeds bound {limit}")
        losses.update(dict.fromkeys(reached - certified, level))
        certified, level = reached, level + 1
    return losses


def delta_star(instance: KepInstance, policy: StructurePolicy) -> int:
    """Smallest δ making the maximin value positive at cardinality ≥ max − δ.

    The maximin LP over packings of cardinality ≥ maxcard − δ is positive
    exactly when every pair is covered by some such packing (mix the per-pair
    witnesses uniformly), so δ* is the largest coverage loss.  Raises
    Uncoverable when a pair is covered by no packing at all; `fair.preprocess`
    drops such pairs.
    """
    losses = coverage_losses(instance, policy)
    uncoverable = [v for v, loss in losses.items() if loss is None]
    if uncoverable:
        raise Uncoverable(f"pair {uncoverable[0]} is covered by no acceptable packing")
    return max(losses.values(), default=0)


def always_covered_count(
    instance: KepInstance, policy: StructurePolicy
) -> tuple[int, frozenset[int]]:
    """Pairs covered by every acceptable packing, with their count.

    "Acceptable" follows the policy's cardinality mode (maximum cardinality by
    default, or within delta of it).  Iterated min-inclusion pricing: price -1
    on the current candidate set and re-optimize under the cardinality
    constraint, shrinking by intersection until no acceptable packing avoids a
    remaining candidate.  All of it runs on one family, and the first witness
    is its unit-price optimum (`PackingFamily.unit_optimum`).
    """
    family = _family_of(instance, policy)
    card = acceptable_cardinality(instance, policy, family)
    witness = set(family.unit_optimum(card)[0].covered)
    while witness:
        prices = dict.fromkeys(witness, Fraction(-1))
        packing, _ = max_price_packing(family, prices, card, value_only=True)
        shrunk = witness & packing.covered
        if shrunk == witness:
            break
        witness = shrunk
    return len(witness), frozenset(witness)
