"""Maximum-cardinality packings of NDD-rooted 2-paths, alone or mixed with 2-cycles.

The solver repeatedly augments: it roots a candidate structure (a 2-path from an
exposed NDD, or a 2-cycle edge in mixed mode) and tries to free the root's
vertices through cascades of remove-one / add-one exchanges ("alternating
trails").  Each exchange removes the structure covering a wanted vertex and adds
a replacement elsewhere, recursing on the replacement's still-covered vertices.
Vertices already claimed by the cascade are banned from reuse, so trails never
revisit a vertex and the search terminates.  The search is exhaustive over these
cascades, so when it fails no augmenting configuration exists and the packing is
maximum; a deficiency certificate over the NDDs witnesses optimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator, Optional, Sequence

from .core import Chain, Cycle, FairkepError, KepInstance, Packing


@dataclass(frozen=True)
class TwoPathPacking:
    """Vertex-disjoint 2-paths (ndd, pair1, pair2), plus 2-cycles in mixed mode."""

    chains: frozenset[tuple[int, int, int]]
    two_cycles: frozenset[tuple[int, int]]
    ndds: frozenset[int]

    def __post_init__(self):
        seen: set[int] = set()
        for struct in list(self.chains) + list(self.two_cycles):
            for v in struct[-2:]:
                if v in seen:
                    raise ValueError(f"vertex {v} covered twice")
                seen.add(v)
        used = [c[0] for c in self.chains]
        if len(set(used)) != len(used):
            raise ValueError("an NDD roots two chains")

    @property
    def covered(self) -> frozenset[int]:
        out: set[int] = set()
        for (_, p, q) in self.chains:
            out.update((p, q))
        for (p, q) in self.two_cycles:
            out.update((p, q))
        return frozenset(out)

    @property
    def cardinality(self) -> int:
        return 2 * (len(self.chains) + len(self.two_cycles))

    @property
    def exposed_ndds(self) -> frozenset[int]:
        return self.ndds - {c[0] for c in self.chains}

    def as_packing(self) -> Packing:
        structs: list = [Chain(ndd=a, pairs=(p, q)) for (a, p, q) in self.chains]
        structs += [Cycle(vertices=e) for e in self.two_cycles]
        return Packing(frozenset(structs))


@dataclass(frozen=True)
class AlternatingTrail:
    """Arc sequence alternating pairs of packed arcs with pairs of new arcs."""

    arcs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AugmentingConfiguration:
    """An NDD `ndd` plus endpoints (u, v); trails free the covered endpoints."""

    type: int
    ndd: int
    u: int
    v: int
    trails: tuple[AlternatingTrail, ...]


@dataclass(frozen=True)
class DeficiencyCertificate:
    """NDD subset S with a maximum matching of its reachable second arcs.

    def(S) = |S| - |M(S)| equals the number of exposed NDDs, certifying that the
    packing is maximum.
    """

    ndd_set: frozenset[int]
    matching: frozenset[tuple[int, int]]
    exposed: int

    @property
    def deficiency(self) -> int:
        return len(self.ndd_set) - len(self.matching)


# state is (chains: dict ndd -> (p, q), cycles: frozenset of sorted pair tuples)
_State = tuple[dict[int, tuple[int, int]], frozenset[tuple[int, int]]]


class _Engine:
    def __init__(self, instance: KepInstance, mixed: bool, ndds=None):
        self.instance = instance
        self.mixed = mixed
        self.ndds = sorted(instance.ndds if ndds is None else ndds)
        out: dict[int, list[int]] = {v: [] for v in instance.pairs | instance.ndds}
        for (t, h) in instance.arcs:
            out[t].append(h)
        for v in out:
            out[v].sort()
        self.cycle_edges: list[tuple[int, int]] = sorted(instance.undirected_edges()) if mixed else []
        cycset = set(self.cycle_edges)
        self.paths: dict[int, list[tuple[int, int]]] = {}
        for a in self.ndds:
            cand = []
            for x in out[a]:
                for y in out[x]:
                    if y == x or y == a:
                        continue
                    # in mixed mode a 2-path whose second arc is mutual is
                    # never needed: the 2-cycle covers the same pairs for free
                    if mixed and (min(x, y), max(x, y)) in cycset:
                        continue
                    cand.append((x, y))
            self.paths[a] = cand

    # -- state helpers ------------------------------------------------------

    def owner(self, v: int, chains, cycles):
        for b, (p, q) in chains.items():
            if v == p or v == q:
                return ("path", b)
        for e in cycles:
            if v in e:
                return ("cycle", e)
        return None

    # -- augmentation search -------------------------------------------------

    def augment(self, chains, cycles):
        """First augmentation found, or None.

        Returns (new_chains, new_cycles, record) where record describes the
        root structure and the exchange moves used to free its endpoints.
        """
        for a in self.ndds:
            if a in chains:
                continue
            for (u, v) in self.paths[a]:
                got = self._root(("path", a, (u, v)), chains, cycles, frozenset({a}))
                if got is not None:
                    return got
        for (u, v) in self.cycle_edges:
            if (u, v) in cycles:
                continue
            got = self._root(("cycle", None, (u, v)), chains, cycles, frozenset())
            if got is not None:
                return got
        return None

    def _root(self, root, chains, cycles, banned_ndds):
        kind, a, (u, v) = root
        banned = frozenset({u, v})
        for first, second in ((u, v), (v, u)):
            for c1, cy1, m1, bv1, bn1 in self._free(first, chains, cycles, banned, banned_ndds):
                for c2, cy2, m2, bv2, bn2 in self._free(second, c1, cy1, bv1, bn1):
                    if kind == "path":
                        nc = dict(c2)
                        nc[a] = (u, v)
                        ncy = cy2
                    else:
                        nc = c2
                        ncy = cy2 | {(u, v)}
                    if first == u:
                        mu, mv = m1, m2
                    else:
                        mu, mv = m2, m1
                    return nc, ncy, (root, mu, mv)
        return None

    def _free(self, v, chains, cycles, bv, bn) -> Iterator:
        """All cascades making v exposed while preserving the structure count.

        Yields (chains, cycles, moves, banned_vertices, banned_ndds).
        """
        own = self.owner(v, chains, cycles)
        if own is None:
            yield chains, cycles, [], bv, bn
            return
        kind, key = own
        if kind == "path":
            b = key
            if b in bn:
                return
            removed = ("path", b, chains[b])
            chains = {n: pq for n, pq in chains.items() if n != b}
            bn = bn | {b}
        else:
            removed = ("cycle", key)
            cycles = cycles - {key}
        for cand in self._replacements(removed, chains, cycles, bv, bn):
            if cand[0] == "path":
                _, c, (x, y) = cand
            else:
                _, (x, y) = cand
            bv_add = bv | {x, y}
            for c1, cy1, m1, bv1, bn1 in self._free(x, chains, cycles, bv_add, bn):
                for c2, cy2, m2, bv2, bn2 in self._free(y, c1, cy1, bv1, bn1):
                    if cand[0] == "path":
                        nc = dict(c2)
                        nc[c] = (x, y)
                        ncy = cy2
                    else:
                        nc, ncy = c2, cy2 | {(x, y)}
                    yield nc, ncy, [(removed, cand)] + m1 + m2, bv2, bn2

    def _replacements(self, removed, chains, cycles, bv, bn):
        """Candidate structures restoring the count after `removed` went out."""
        if removed[0] == "path":
            b, old = removed[1], removed[2]
            for (x, y) in self.paths[b]:
                if x not in bv and y not in bv and (x, y) != old:
                    yield ("path", b, (x, y))
        for c in self.ndds:
            if c in chains or c in bn:
                continue
            for (x, y) in self.paths[c]:
                if x not in bv and y not in bv:
                    yield ("path", c, (x, y))
        for (x, y) in self.cycle_edges:
            if x not in bv and y not in bv and (x, y) not in cycles:
                yield ("cycle", (x, y))


def _run_engine(instance: KepInstance, mixed: bool):
    eng = _Engine(instance, mixed)
    chains: dict[int, tuple[int, int]] = {}
    cycles: frozenset[tuple[int, int]] = frozenset()
    while True:
        got = eng.augment(chains, cycles)
        if got is None:
            return eng, chains, cycles
        chains, cycles, _ = got
        cycles = frozenset(cycles)


def _trail(moves) -> AlternatingTrail:
    arcs: list[tuple[int, int]] = []
    for removed, added in moves:
        if removed[0] == "path":
            b, (p, q) = removed[1], removed[2]
            arcs += [(b, p), (p, q)]
        else:
            p, q = removed[1]
            arcs += [(p, q), (q, p)]
        if added[0] == "path":
            c, (x, y) = added[1], added[2]
            arcs += [(c, x), (x, y)]
        else:
            x, y = added[1]
            arcs += [(x, y), (y, x)]
    return AlternatingTrail(arcs=tuple(arcs))


def _configuration(record, chains_before, cycles_before, engine) -> AugmentingConfiguration:
    (kind, a, (u, v)), mu, mv = record
    trails = []
    n_covered = 0
    for w, moves in ((u, mu), (v, mv)):
        if engine.owner(w, chains_before, cycles_before) is not None:
            n_covered += 1
            trails.append(_trail(moves))
    return AugmentingConfiguration(
        type=1 + n_covered, ndd=a if a is not None else -1, u=u, v=v, trails=tuple(trails)
    )


def second_arc_matching(instance: KepInstance, ndd_subset) -> frozenset[tuple[int, int]]:
    """M(S): a maximum matching of second arcs realizable as disjoint 2-paths.

    The edges come from a largest set of vertex-disjoint 2-paths rooted at
    distinct NDDs of `ndd_subset`.  (A plain maximum matching over the union of
    all second-arc edges can be strictly larger than anything a 2-path packing
    realizes, which would break the deficiency identity.)
    """
    eng = _Engine(instance, mixed=False, ndds=frozenset(ndd_subset) & instance.ndds)
    chains: dict[int, tuple[int, int]] = {}
    cycles: frozenset[tuple[int, int]] = frozenset()
    while True:
        got = eng.augment(chains, cycles)
        if got is None:
            break
        chains, cycles, _ = got
        cycles = frozenset(cycles)
    return frozenset((min(p, q), max(p, q)) for (p, q) in chains.values())


def _trail_closure(engine: _Engine, chains) -> frozenset[int]:
    """NDDs reachable from exposed NDDs along even-length alternating trails."""
    covered_by = {}
    for b, (p, q) in chains.items():
        covered_by[p] = b
        covered_by[q] = b
    reach = {a for a in engine.ndds if a not in chains}
    frontier = list(reach)
    while frontier:
        a = frontier.pop()
        for (x, y) in engine.paths[a]:
            for z in (x, y):
                b = covered_by.get(z)
                if b is not None and b not in reach:
                    reach.add(b)
                    frontier.append(b)
    return frozenset(reach)


def max_2path_packing(instance: KepInstance) -> tuple[TwoPathPacking, DeficiencyCertificate]:
    """Maximum packing of NDD-rooted 2-paths, with an optimality certificate."""
    engine, chains, _ = _run_engine(instance, mixed=False)
    packing = TwoPathPacking(
        chains=frozenset((b, p, q) for b, (p, q) in chains.items()),
        two_cycles=frozenset(),
        ndds=frozenset(instance.ndds),
    )
    S = _trail_closure(engine, chains)
    matching = second_arc_matching(instance, S)
    cert = DeficiencyCertificate(ndd_set=S, matching=matching, exposed=len(packing.exposed_ndds))
    if cert.deficiency != cert.exposed:
        raise FairkepError(
            f"certificate does not witness optimality: deficiency {cert.deficiency},"
            f" {cert.exposed} exposed NDDs"
        )
    return packing, cert


def max_2cycle_2path_packing(instance: KepInstance) -> Packing:
    """Maximum pair coverage over vertex-disjoint 2-cycles and NDD 2-paths."""
    _, chains, cycles = _run_engine(instance, mixed=True)
    structs: list = [Chain(ndd=b, pairs=pq) for b, pq in chains.items()]
    structs += [Cycle(vertices=e) for e in cycles]
    return Packing(frozenset(structs))


def verify_no_augmenting_configuration(
    instance: KepInstance, packing: TwoPathPacking
) -> Optional[AugmentingConfiguration]:
    """None when the 2-path packing admits no augmenting configuration."""
    engine = _Engine(instance, mixed=False)
    chains = {b: (p, q) for (b, p, q) in packing.chains}
    got = engine.augment(chains, frozenset())
    if got is None:
        return None
    _, _, record = got
    return _configuration(record, chains, frozenset(), engine)


def build_3dm_gadget(
    triples: Sequence[tuple[int, int, int]], size: int
) -> KepInstance:
    """Instance whose length-3 chains cover every pair iff the 3DM is perfect.

    Ground sets X, Y, Z each have `size` elements indexed 0..size-1; `triples`
    lists the admissible (x, y, z) combinations.  Only chains of length exactly
    3 participate in the equivalence.  Vertex roles are recorded in the
    instance attributes under the "label" key.
    """
    ids = count()
    pairs: dict[tuple, int] = {}
    ndds: dict[tuple, int] = {}
    attributes: dict[int, dict] = {}

    def pair(label):
        if label not in pairs:
            pairs[label] = next(ids)
            attributes[pairs[label]] = {"label": label}
        return pairs[label]

    def ndd(label):
        ndds[label] = next(ids)
        attributes[ndds[label]] = {"label": label}
        return ndds[label]

    arcs: dict[tuple[int, int], Fraction] = {}

    def arc(u, v):
        arcs[(u, v)] = Fraction(1)

    for axis in "xyz":
        for e in range(size):
            pair((axis, e))
    for i, (xa, yb, zc) in enumerate(triples):
        shared = [pair(("x", xa)), pair(("y", yb)), pair(("z", zc))]
        private = [pair((axis, e, i)) for axis, e in zip("xyz", (xa, yb, zc))]
        hub = ndd(("s", i))
        arc(hub, private[0])
        arc(private[0], private[1])
        arc(private[1], private[2])
        for k, axis in enumerate("xyz"):
            root = ndd(("s", axis, i))
            c1 = pair((axis, e := (xa, yb, zc)[k], i, "c1"))
            c2 = pair((axis, e, i, "c2"))
            arc(root, c1)
            arc(c1, c2)
            arc(c2, shared[k])
            arc(c2, private[k])
    return KepInstance(
        pairs=frozenset(pairs.values()),
        ndds=frozenset(ndds.values()),
        arcs=arcs,
        attributes=attributes,
    )
