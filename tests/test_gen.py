"""Synthetic instance generation: determinism, validation, coupling."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import pytest

from fairkep.gen import (
    ABO_COMPATIBLE,
    GenConfig,
    InvalidDistribution,
    generate_batches,
    generate_instance,
)


class TestDeterminism:
    def test_same_seed_same_instance(self):
        cfg = GenConfig(n_pairs=30, n_ndds=3, seed=7)
        a, b = generate_instance(cfg), generate_instance(cfg)
        assert a == b

    def test_different_seed_different_arcs(self):
        a = generate_instance(GenConfig(n_pairs=40, seed=1))
        b = generate_instance(GenConfig(n_pairs=40, seed=2))
        assert a.arcs != b.arcs

    def test_batches_use_xor_subseeds(self):
        cfg = GenConfig(n_pairs=12, n_ndds=1, seed=8)
        batches = generate_batches(cfg, 4)
        for i, inst in enumerate(batches):
            assert inst == generate_instance(replace(cfg, seed=8 ^ i))
        assert generate_batches(replace(cfg, seed=100), 4) == [
            generate_instance(replace(cfg, seed=100 ^ i)) for i in range(4)
        ]


class TestStructure:
    def test_node_ids_and_attributes(self):
        inst = generate_instance(GenConfig(n_pairs=10, n_ndds=2, seed=3))
        assert inst.pairs == frozenset(range(10))
        assert inst.ndds == frozenset({10, 11})
        for v in inst.pairs:
            at = inst.attributes[v]
            assert set(at) == {"blood_patient", "blood_donor", "pra"}
        for a in inst.ndds:
            assert set(inst.attributes[a]) == {"blood_donor"}

    def test_arcs_respect_abo_compatibility(self):
        inst = generate_instance(GenConfig(n_pairs=60, n_ndds=4, seed=5))
        for (u, v) in inst.arcs:
            assert v in inst.pairs and u != v
            donor = inst.attributes[u]["blood_donor"]
            assert inst.attributes[v]["blood_patient"] in ABO_COMPATIBLE[donor]

    def test_high_pra_reduces_in_degree(self):
        base = GenConfig(n_pairs=150, seed=9)
        bts = ("O", "A", "B", "AB")
        low = replace(base, pra_conditional={(p, d): {0: 1.0} for p in bts for d in bts})
        high = replace(base, pra_conditional={(p, d): {95: 1.0} for p in bts for d in bts})
        assert len(generate_instance(high).arcs) < len(generate_instance(low).arcs)

    def test_coupled_draws_share_compatibility_tests(self):
        # with identical PRA the arc set depends only on blood types, so two
        # configs differing in an unused bucket probability agree exactly
        bts = ("O", "A", "B", "AB")
        c1 = GenConfig(
            n_pairs=50, seed=4,
            pra_conditional={(p, d): {0: 0.5, 50: 0.5} for p in bts for d in bts},
        )
        c2 = GenConfig(
            n_pairs=50, seed=4,
            pra_conditional={(p, d): {0: 0.5, 50: 0.25, 75: 0.25} for p in bts for d in bts},
        )
        a, b = generate_instance(c1), generate_instance(c2)
        # nodes whose PRA draws coincide keep identical incident arcs
        same = {v for v in a.pairs if a.attributes[v] == b.attributes[v]}
        assert len(same) > 10
        for (u, v), w in a.arcs.items():
            if u in same and v in same:
                assert b.arcs.get((u, v)) == w


class TestValidation:
    def test_negative_counts(self):
        with pytest.raises(ValueError):
            GenConfig(n_pairs=-1)

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(InvalidDistribution):
            GenConfig(n_pairs=1, donor_bt_distribution={"O": 0.5, "A": 0.4})

    def test_negative_probability(self):
        with pytest.raises(InvalidDistribution):
            GenConfig(n_pairs=1, donor_bt_distribution={"O": 1.5, "A": -0.5})

    @pytest.mark.parametrize("kwargs", [
        {"pra_conditional": {("O", "A"): {101: 1.0}}},
        {"pra_conditional": {("O", "A"): {-5: 0.5, 10: 0.5}}},
        {"pra_conditional": {("O", "A"): {True: 1.0}}},
        {"donor_bt_distribution": {"Z": 1.0}},
        {"blood_pair_distribution": {("O", "Z"): 1.0}},
    ], ids=["pra-high", "pra-low", "pra-bool", "donor-type", "pair-type"])
    def test_levels_and_types_the_reader_rejects(self, kwargs):
        # io.instance_from_dict rejects these, so generate must not write them
        with pytest.raises(InvalidDistribution):
            GenConfig(n_pairs=1, **kwargs)

    def test_every_pairing_needs_a_pra_distribution(self):
        with pytest.raises(InvalidDistribution, match="no pra_conditional"):
            GenConfig(
                n_pairs=1,
                blood_pair_distribution={("O", "A"): 1.0},
                pra_conditional={("A", "A"): {0: 1.0}},
            )


class TestMarginals:
    def test_blood_type_frequencies_roughly_match(self):
        inst = generate_instance(GenConfig(n_pairs=3000, seed=13))
        freq = {"O": 0, "A": 0, "B": 0, "AB": 0}
        for v in inst.pairs:
            freq[inst.attributes[v]["blood_patient"]] += 1
        for bt, want in {"O": 0.45, "A": 0.40, "B": 0.11, "AB": 0.04}.items():
            got = freq[bt] / 3000
            assert math.isclose(got, want, abs_tol=0.03), (bt, got)


def instance_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(repr((
            sorted(inst.pairs),
            sorted(inst.ndds),
            sorted(inst.arcs.items()),
            sorted((v, sorted(at.items())) for v, at in inst.attributes.items()),
        )).encode())
    return h.hexdigest()


class TestPinnedGeneration:
    def test_instances_unchanged(self):
        # a change to the draw order, the running sums or the fallback to the
        # last key moves this digest; recorded with the loop that re-sorted
        # each distribution on every draw
        bts = ("O", "A", "B", "AB")
        skewed = GenConfig(
            n_pairs=25, n_ndds=2, seed=11,
            blood_pair_distribution={("O", "A"): 0.5, ("A", "O"): 0.3, ("AB", "B"): 0.2},
            pra_conditional={(p, d): {0: 0.1, 30: 0.6, 90: 0.3} for p in bts for d in bts},
            donor_bt_distribution={"O": 0.25, "B": 0.75},
        )
        instances = [generate_instance(GenConfig(n_pairs=30, n_ndds=3, seed=7)), generate_instance(skewed)]
        for u in range(5):
            instances += generate_batches(GenConfig(n_pairs=6, n_ndds=1, seed=0x10000 + (u << 4)), 12)
        instances += generate_batches(replace(skewed, seed=3), 4)
        assert instance_digest(instances) == "0a58e686138aea9aba6294c6594a2ac8059b76e06da02bf3b8275a7ff92bcf51"
