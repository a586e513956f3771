"""Domain types, validation, exact integer scaling, fairness metrics and
Lorenz-order utilities."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence

UNBOUNDED = float("inf")


class FairkepError(Exception):
    pass


class PackingError(FairkepError):
    """A packing violates the instance or the structure policy."""


class DisjointnessViolation(PackingError):
    pass


class MissingArc(PackingError):
    pass


class LengthViolation(PackingError):
    pass


class ChainWithoutNdd(PackingError):
    pass


class GiniUndefined(FairkepError):
    pass


class LengthMismatch(FairkepError):
    pass


def integer_scaled(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """(ints, d) with ints[i] / d == values[i], d the lcm of their denominators
    (1 for none): a positive scale, so comparisons, sums and optima stay."""
    values = list(values)
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


@dataclass(frozen=True)
class Cycle:
    """A directed exchange cycle over patient-donor pairs; length = number of arcs."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("cycle needs at least 2 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle vertices must be distinct")
        # canonical rotation: smallest vertex first
        i = self.vertices.index(min(self.vertices))
        object.__setattr__(self, "vertices", self.vertices[i:] + self.vertices[:i])

    @property
    def length(self) -> int:
        return len(self.vertices)

    def arcs(self) -> list[tuple[int, int]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def covered(self) -> tuple[int, ...]:
        return self.vertices

    def sort_key(self):
        return (0, self.vertices)


@dataclass(frozen=True)
class Chain:
    """An NDD-initiated chain; length = number of arcs = number of covered pairs."""

    ndd: int
    pairs: tuple[int, ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("chain must cover at least one pair")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("chain pairs must be distinct")

    @property
    def length(self) -> int:
        return len(self.pairs)

    def arcs(self) -> list[tuple[int, int]]:
        seq = (self.ndd,) + self.pairs
        return [(seq[i], seq[i + 1]) for i in range(len(self.pairs))]

    def covered(self) -> tuple[int, ...]:
        return self.pairs

    def sort_key(self):
        return (1, (self.ndd,) + self.pairs)


Structure = Cycle | Chain


@dataclass(frozen=True)
class KepInstance:
    """Directed compatibility graph over patient-donor pairs and NDDs."""

    pairs: frozenset[int]
    ndds: frozenset[int] = frozenset()
    arcs: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)
    node_weights: Mapping[int, Fraction] = field(default_factory=dict)
    attributes: Mapping[int, dict] = field(default_factory=dict)

    def __post_init__(self):
        if self.pairs & self.ndds:
            raise ValueError("pair and NDD ids overlap")
        nodes = self.pairs | self.ndds
        for (u, v) in self.arcs:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in nodes or v not in nodes:
                raise ValueError(f"arc ({u},{v}) references unknown node")
            if v in self.ndds:
                raise ValueError(f"arc ({u},{v}) points into an NDD")

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def undirected_edges(self) -> set[tuple[int, int]]:
        """Mutual-compatibility (2-cycle) edges between pairs, as (u, v) with u < v."""
        arcs, pairs = self.arcs, self.pairs
        return {(u, v) for (u, v) in arcs if u < v and (v, u) in arcs and u in pairs and v in pairs}

    def restrict(self, keep_pairs: Iterable[int]) -> "KepInstance":
        keep = frozenset(keep_pairs)
        nodes = keep | self.ndds
        return replace(
            self,
            pairs=keep,
            arcs={a: w for a, w in self.arcs.items() if a[0] in nodes and a[1] in nodes},
            node_weights={v: w for v, w in self.node_weights.items() if v in nodes},
            attributes={v: a for v, a in self.attributes.items() if v in nodes},
        )


@dataclass(frozen=True)
class StructurePolicy:
    """Which cycles/chains are allowed and which cardinalities are acceptable.

    max_cycle_len / max_chain_len of None disallow the structure kind entirely;
    max_chain_len may be UNBOUNDED. cardinality_mode is one of "max",
    "delta" (coverage at least max - delta) or "fixed" (exactly 2·mu covered
    pairs under any policy: mu edges of a matching, or for example
    `lottery --policy cyc3 --mu k` over cyc3 packings covering 2k pairs).
    """

    max_cycle_len: Optional[int] = 2
    max_chain_len: Optional[float] = None
    min_chain_len: int = 1
    cardinality_mode: str = "max"
    delta: int = 0
    mu: Optional[int] = None

    def __post_init__(self):
        if self.max_cycle_len is not None and self.max_cycle_len < 2:
            raise ValueError("max_cycle_len must be >= 2")
        if self.max_chain_len is not None and self.max_chain_len < 1:
            raise ValueError("max_chain_len must be >= 1")
        if self.cardinality_mode not in ("max", "delta", "fixed"):
            raise ValueError(f"unknown cardinality mode {self.cardinality_mode!r}")
        if self.cardinality_mode == "delta" and self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.cardinality_mode == "fixed" and self.mu is None:
            raise ValueError("fixed cardinality requires mu")
        if self.cardinality_mode == "fixed" and self.mu < 0:
            raise ValueError("mu must be >= 0")

    @property
    def structure_rules(self) -> tuple:
        """The fields that decide which structures are allowed, without the cardinality ones."""
        return (self.max_cycle_len, self.max_chain_len, self.min_chain_len)

    def allows(self, s: Structure) -> bool:
        if isinstance(s, Cycle):
            return self.max_cycle_len is not None and s.length <= self.max_cycle_len
        return (
            self.max_chain_len is not None
            and self.min_chain_len <= s.length <= self.max_chain_len
        )


MATCHING_POLICY = StructurePolicy(max_cycle_len=2, max_chain_len=None)


@dataclass(frozen=True)
class Packing:
    """A vertex-disjoint set of cycles and chains; cardinality counts pairs only."""

    structures: frozenset[Structure]

    @staticmethod
    def of(*structures: Structure) -> "Packing":
        return Packing(frozenset(structures))

    @property
    def covered(self) -> frozenset[int]:
        out: set[int] = set()
        for s in self.structures:
            out.update(s.covered())
        return frozenset(out)

    @property
    def cardinality(self) -> int:
        return sum(s.length for s in self.structures)

    def sorted_structures(self) -> list[Structure]:
        return sorted(self.structures, key=lambda s: s.sort_key())


EMPTY_PACKING = Packing(frozenset())


@dataclass(frozen=True)
class Lottery:
    """Finite-support distribution over packings, probabilities exact rationals."""

    support: tuple[tuple[Packing, Fraction], ...]

    def __post_init__(self):
        total = sum((p for _, p in self.support), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for _, p in self.support):
            raise ValueError("negative probability in lottery")

    def marginals(self, pairs: Iterable[int]) -> dict[int, Fraction]:
        q = {v: Fraction(0) for v in pairs}
        for packing, p in self.support:
            for v in packing.covered:
                if v in q:
                    q[v] += p
        return q

    def draw(self, x) -> Packing:
        """The first packing whose running total exceeds x, compared exactly
        (the last past 1): a uniform x in [0, 1) draws each by its probability."""
        acc = Fraction(0)
        for packing, p in self.support:
            acc += p
            if x < acc:
                return packing
        return self.support[-1][0]

    def merged(self) -> "Lottery":
        """Sum probabilities of duplicate packings and drop zero entries."""
        acc: dict[Packing, Fraction] = {}
        for packing, p in self.support:
            acc[packing] = acc.get(packing, Fraction(0)) + p
        return Lottery(tuple((c, p) for c, p in acc.items() if p > 0))


def validate_packing(instance: KepInstance, packing: Packing, policy: StructurePolicy) -> None:
    """Raise a PackingError naming the offending structure if invalid."""
    seen: set[int] = set()
    seen_ndds: set[int] = set()
    for s in packing.sorted_structures():
        if isinstance(s, Chain):
            if s.ndd not in instance.ndds:
                raise ChainWithoutNdd(f"chain {s} does not start at an NDD")
            if s.ndd in seen_ndds:
                raise DisjointnessViolation(f"NDD {s.ndd} used twice (at {s})")
            seen_ndds.add(s.ndd)
        for v in s.covered():
            if v not in instance.pairs:
                raise MissingArc(f"structure {s} uses unknown pair {v}")
            if v in seen:
                raise DisjointnessViolation(f"vertex {v} shared (at {s})")
            seen.add(v)
        for (u, v) in s.arcs():
            if not instance.has_arc(u, v):
                raise MissingArc(f"structure {s} needs missing arc ({u},{v})")
        if not policy.allows(s):
            raise LengthViolation(f"structure {s} violates the length policy")


def as_sorted(q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sorted(q))


def eval_utilitarian(q: Sequence[Fraction]) -> Fraction:
    return sum(q, Fraction(0))


def eval_maximin(q: Sequence[Fraction]) -> Fraction:
    return min(q)


def eval_leximin(q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return as_sorted(q)


def eval_nash(q: Sequence[Fraction]) -> Fraction:
    prod = Fraction(1)
    for x in q:
        prod *= x
    return prod


def eval_gini(q: Sequence[Fraction]) -> Fraction:
    """Gini coefficient over ordered pairs; raises GiniUndefined on the zero vector."""
    total = sum(q, Fraction(0))
    if total == 0:
        raise GiniUndefined("Gini coefficient undefined for the all-zero vector")
    n = len(q)
    s = sorted(q)
    # sum over ordered pairs |q_u - q_v| = 2 * sum_i (2i - n + 1) * s_i
    num = 2 * sum(Fraction(2 * i - n + 1) * x for i, x in enumerate(s))
    return num / (2 * n * total)


def eval_neg_gini(q: Sequence[Fraction]) -> Fraction:
    try:
        return 1 - eval_gini(q)
    except GiniUndefined:
        warnings.warn("all-zero marginal vector: returning neg-Gini = 1 by convention")
        return Fraction(1)


_METRICS: dict[str, Callable] = {
    "utilitarian": eval_utilitarian,
    "maximin": eval_maximin,
    "leximin": eval_leximin,
    "nash": eval_nash,
    "gini": eval_gini,
    "neggini": eval_neg_gini,
}

def eval_metric(objective: str, q: Sequence[Fraction]):
    """Evaluate a fairness metric on a marginal vector (exact rationals)."""
    try:
        fn = _METRICS[objective]
    except KeyError:
        raise ValueError(f"unknown objective {objective!r}") from None
    return fn([Fraction(x) for x in q])


# Lorenz / weak-majorization comparison verdicts
DOMINATES = "dominates"
DOMINATED_BY = "dominated_by"
INCOMPARABLE = "incomparable"
EQUAL = "equal"


def lorenz_compare(x: Sequence[Fraction], y: Sequence[Fraction]) -> str:
    """Compare prefix sums of the nondecreasing sorts of x and y."""
    if len(x) != len(y):
        raise LengthMismatch(f"vectors of length {len(x)} and {len(y)}")
    xs, ys = sorted(x), sorted(y)
    ge = le = True
    px = py = Fraction(0)
    for a, b in zip(xs, ys):
        px += a
        py += b
        if px < py:
            ge = False
        if px > py:
            le = False
    if ge and le:
        return EQUAL
    if ge:
        return DOMINATES
    if le:
        return DOMINATED_BY
    return INCOMPARABLE
