"""Maximum-cardinality packings of NDD-rooted 2-paths, and of 2-cycles with them.

2-path packings (the `TWO_PATH` policy) have their own solver, which carries
an optimality certificate.  It repeatedly augments: it roots a candidate 2-path
at an exposed NDD and tries to free the path's pairs through cascades of
remove-one / add-one exchanges.  Each exchange removes the 2-path covering a
wanted pair and adds a replacement elsewhere, recursing on the replacement's
still-covered pairs.  Pairs and NDDs already claimed by the cascade are banned
from reuse, so the search terminates.  It is exhaustive over these cascades;
once no augmentation is found, a deficiency certificate over the NDDs witnesses
that the packing is maximum.  `max_2path_packing` checks that certificate and
returns the packing as plain `Chain`s.

Packings of 2-cycles and 2-paths together, the `TWO_CYCLE_TWO_PATH` policy,
are an ordinary oracle family; `fair.best_packing` picks the engine for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator, Optional, Sequence

from .core import Chain, FairkepError, KepInstance, Packing, StructurePolicy, validate_packing

# NDD-rooted chains of exactly two pairs, alone and with 2-cycles
TWO_PATH = StructurePolicy(max_cycle_len=None, max_chain_len=2, min_chain_len=2)
TWO_CYCLE_TWO_PATH = StructurePolicy(max_cycle_len=2, max_chain_len=2, min_chain_len=2)


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


# the search state: each used NDD's 2-path (p, q)
_Chains = dict[int, tuple[int, int]]


class _Engine:
    def __init__(self, instance: KepInstance, ndds=None):
        self.ndds = sorted(instance.ndds if ndds is None else ndds)
        out: dict[int, list[int]] = {v: [] for v in instance.pairs | instance.ndds}
        for (t, h) in instance.arcs:
            out[t].append(h)
        for v in out:
            out[v].sort()
        self.paths: dict[int, list[tuple[int, int]]] = {
            a: [(x, y) for x in out[a] for y in out[x] if y != x and y != a] for a in self.ndds
        }

    # -- state helpers ------------------------------------------------------

    @staticmethod
    def owner(v: int, chains: _Chains) -> Optional[int]:
        for b, (p, q) in chains.items():
            if v == p or v == q:
                return b
        return None

    # -- augmentation search -------------------------------------------------

    def augment(self, chains: _Chains) -> Optional[_Chains]:
        """The chains after the first augmentation found, or None."""
        for a in self.ndds:
            if a in chains:
                continue
            for root in self.paths[a]:
                got = self._root(a, root, chains)
                if got is not None:
                    return got
        return None

    def _root(self, a, root, chains):
        u, v = root
        banned = frozenset(root)
        for first, second in ((u, v), (v, u)):
            for c1, bv1, bn1 in self._free(first, chains, banned, frozenset({a})):
                for c2, _, _ in self._free(second, c1, bv1, bn1):
                    return {**c2, a: root}
        return None

    def _free(self, v, chains, bv, bn) -> Iterator:
        """All cascades making v exposed while preserving the 2-path count.

        Yields (chains, banned_vertices, banned_ndds).
        """
        b = self.owner(v, chains)
        if b is None:
            yield chains, bv, bn
            return
        if b in bn:
            return
        old = chains[b]
        chains = {n: pq for n, pq in chains.items() if n != b}
        bn = bn | {b}
        for c, (x, y) in self._replacements(b, old, chains, bv, bn):
            for c1, bv1, bn1 in self._free(x, chains, bv | {x, y}, bn):
                for c2, bv2, bn2 in self._free(y, c1, bv1, bn1):
                    yield {**c2, c: (x, y)}, bv2, bn2

    def _replacements(self, b, old, chains, bv, bn):
        """Candidate 2-paths restoring the count after b's 2-path `old` went out."""
        for (x, y) in self.paths[b]:
            if x not in bv and y not in bv and (x, y) != old:
                yield (b, (x, y))
        for c in self.ndds:
            if c in chains or c in bn:
                continue
            for (x, y) in self.paths[c]:
                if x not in bv and y not in bv:
                    yield (c, (x, y))


def _run_engine(instance: KepInstance, ndds=None) -> tuple[_Engine, _Chains]:
    """Augment from the empty packing until no augmentation exists."""
    eng = _Engine(instance, ndds)
    chains: _Chains = {}
    while (got := eng.augment(chains)) is not None:
        chains = got
    return eng, chains


def second_arc_matching(instance: KepInstance, ndd_subset) -> frozenset[tuple[int, int]]:
    """M(S): a maximum matching of second arcs realizable as disjoint 2-paths.

    The edges come from a largest set of vertex-disjoint 2-paths rooted at
    distinct NDDs of `ndd_subset`.  (A plain maximum matching over the union of
    all second-arc edges can be strictly larger than anything a 2-path packing
    realizes, which would break the deficiency identity.)
    """
    _, chains = _run_engine(instance, frozenset(ndd_subset) & instance.ndds)
    return frozenset((min(p, q), max(p, q)) for (p, q) in chains.values())


def _trail_closure(engine: _Engine, chains: _Chains) -> frozenset[int]:
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


def max_2path_packing(instance: KepInstance) -> tuple[Packing, DeficiencyCertificate]:
    """Maximum packing of NDD-rooted 2-paths, with its deficiency certificate.

    The packing's chains are `Chain`s of two pairs, valid under `TWO_PATH`.
    Raises FairkepError unless the certificate's deficiency equals the number
    of NDDs the packing leaves exposed.
    """
    engine, chains = _run_engine(instance)
    packing = Packing(frozenset(Chain(ndd=a, pairs=pq) for a, pq in chains.items()))
    validate_packing(instance, packing, TWO_PATH)
    S = _trail_closure(engine, chains)
    matching = second_arc_matching(instance, S)
    exposed = len(instance.ndds) - len(chains)
    cert = DeficiencyCertificate(ndd_set=S, matching=matching, exposed=exposed)
    if cert.deficiency != cert.exposed:
        raise FairkepError(
            f"certificate does not witness optimality: deficiency {cert.deficiency},"
            f" {cert.exposed} exposed NDDs"
        )
    return packing, cert


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
