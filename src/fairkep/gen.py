"""Seeded synthetic instance generation.

Each pair draws a (patient, donor) blood-type pairing and then a patient PRA
(panel reactive antibody) level conditional on that pairing; NDD donors draw a
blood type from the population distribution.  An arc u -> v exists when u's
donor is ABO-compatible with v's patient and an independent uniform draw in
0..100 exceeds v's PRA (`draw_arcs`, which `sim` draws its cross-batch arcs
with too).  Generation is a pure function of (config, seed).

The shipped default distributions (US census ABO frequencies, uniform PRA
buckets) are placeholders, not calibrated to any registry; override them via
GenConfig or a JSON distribution file.
"""

from __future__ import annotations

import copy
import random
from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .core import FairkepError, KepInstance

BLOOD_TYPES = ("O", "A", "B", "AB")

# donor type -> patient types it can give to
ABO_COMPATIBLE = {
    "O": frozenset({"O", "A", "B", "AB"}),
    "A": frozenset({"A", "AB"}),
    "B": frozenset({"B", "AB"}),
    "AB": frozenset({"AB"}),
}

# US census ABO frequencies (placeholder population model)
DEFAULT_BLOOD_DIST = {"O": 0.45, "A": 0.40, "B": 0.11, "AB": 0.04}

DEFAULT_PRA_BUCKETS = {0: 0.2, 25: 0.2, 50: 0.2, 75: 0.2, 95: 0.2}


class InvalidDistribution(FairkepError):
    pass


def _default_pairings() -> dict[tuple[str, str], float]:
    return {
        (p, d): DEFAULT_BLOOD_DIST[p] * DEFAULT_BLOOD_DIST[d]
        for p in BLOOD_TYPES
        for d in BLOOD_TYPES
    }


def _default_pra() -> dict[tuple[str, str], dict[int, float]]:
    return {(p, d): dict(DEFAULT_PRA_BUCKETS) for p in BLOOD_TYPES for d in BLOOD_TYPES}


@dataclass(frozen=True)
class GenConfig:
    """What to generate.  Construction validates the distributions and reads
    them into draw tables, once; later changes to the mappings are not seen."""

    n_pairs: int
    n_ndds: int = 0
    blood_pair_distribution: Mapping[tuple[str, str], float] = field(
        default_factory=_default_pairings
    )
    pra_conditional: Mapping[tuple[str, str], Mapping[int, float]] = field(
        default_factory=_default_pra
    )
    donor_bt_distribution: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BLOOD_DIST)
    )
    seed: int = 0

    def __post_init__(self):
        if self.n_pairs < 0 or self.n_ndds < 0:
            raise ValueError("n_pairs and n_ndds must be >= 0")
        _check_dist("blood_pair_distribution", self.blood_pair_distribution)
        _check_dist("donor_bt_distribution", self.donor_bt_distribution)
        for pairing, dist in self.pra_conditional.items():
            _check_dist(f"pra_conditional[{pairing}]", dist)
            # io reads a PRA as an int in 0..100, so generate writes no other
            if any(isinstance(b, bool) or not isinstance(b, int) or not 0 <= b <= 100 for b in dist):
                raise InvalidDistribution(f"pra_conditional[{pairing}] has a PRA level outside 0..100")
        types = {*self.donor_bt_distribution, *(t for k in self.blood_pair_distribution for t in k)}
        if not types <= set(BLOOD_TYPES):
            raise InvalidDistribution(f"unknown blood types {sorted(types - set(BLOOD_TYPES))}")
        missing = sorted(set(self.blood_pair_distribution) - set(self.pra_conditional))
        if missing:
            raise InvalidDistribution(f"pairings {missing} have no pra_conditional distribution")
        # draw tables of the pairing, the per-pairing PRA and the NDD donor draws
        object.__setattr__(self, "_tables", (
            _table(self.blood_pair_distribution),
            {k: _table(d) for k, d in self.pra_conditional.items()},
            _table(self.donor_bt_distribution),
        ))


def _check_dist(name: str, dist: Mapping) -> None:
    total = sum(dist.values())
    # negated, so that a NaN fails
    if not abs(total - 1) <= 1e-12:
        raise InvalidDistribution(f"{name} sums to {total!r}, not 1")
    if not all(p >= 0 for p in dist.values()):
        raise InvalidDistribution(f"{name} has a negative probability")


def _table(dist: Mapping) -> tuple[list, list[float]]:
    """The keys of dist in repr order and the running sums of their probabilities."""
    items = sorted(dist.items(), key=lambda kv: repr(kv[0]))
    return [k for k, _ in items], list(accumulate((p for _, p in items), initial=0.0))[1:]


def _draw(rng: random.Random, table: tuple[list, list[float]]):
    """The first key whose running sum exceeds a uniform draw, else the last."""
    keys, sums = table
    return keys[min(bisect_right(sums, rng.random()), len(keys) - 1)]


# the weight of every drawn arc, shared (Fractions are immutable)
ONE = Fraction(1)


def draw_arcs(rng: random.Random, attributes: Mapping[int, Mapping], sources: Sequence[int],
              targets: Sequence[int], arcs: dict[tuple[int, int], Fraction]) -> None:
    """The arc draw of generated instances and of `sim`'s cross-batch arcs.

    Each source, in order, tests its targets other than itself, in order: a
    donor blood type compatible with the target's patient blood type makes
    one uniform draw in [0, 100), and the arc goes into `arcs` when the draw
    exceeds the target's PRA.  Incompatible or attribute-less nodes make no
    draw."""
    draw = rng.random
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
            if v != u and 100 * draw() > pra:
                arcs[(u, v)] = ONE


def generate_instance(config: GenConfig) -> KepInstance:
    """Deterministic instance for (config, config.seed).

    Node ids: pairs 0..n_pairs-1, NDDs n_pairs..n_pairs+n_ndds-1.  Blood types
    and PRA levels are recorded in instance.attributes.  All node attributes
    are drawn before any compatibility test, so two configs differing only in
    PRA values share their test uniforms (coupled draws).
    """
    rng = random.Random(config.seed)
    pairing_table, pra_tables, donor_table = config._tables
    pairs = list(range(config.n_pairs))
    ndds = list(range(config.n_pairs, config.n_pairs + config.n_ndds))
    attributes: dict[int, dict] = {}
    for v in pairs:
        p_bt, d_bt = _draw(rng, pairing_table)
        pra = _draw(rng, pra_tables[(p_bt, d_bt)])
        attributes[v] = {"blood_patient": p_bt, "blood_donor": d_bt, "pra": pra}
    for a in ndds:
        attributes[a] = {"blood_donor": _draw(rng, donor_table)}
    arcs: dict[tuple[int, int], Fraction] = {}
    draw_arcs(rng, attributes, pairs + ndds, pairs, arcs)
    return KepInstance(
        pairs=frozenset(pairs), ndds=frozenset(ndds), arcs=arcs, attributes=attributes
    )


def generate_batches(config: GenConfig, n_batches: int) -> list[KepInstance]:
    """n_batches independent instances; batch i uses sub-seed (config.seed xor i).

    Batch i's config is a copy of config with its seed set, so all of them
    share one validation and one set of draw tables.
    """
    batches = [copy.copy(config) for _ in range(n_batches)]
    for i, batch in enumerate(batches):
        object.__setattr__(batch, "seed", config.seed ^ i)
    return [generate_instance(batch) for batch in batches]
