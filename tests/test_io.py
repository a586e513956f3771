"""JSON serialization of instances and lotteries."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairkep.core import Chain, Cycle, KepInstance, Lottery, Packing, EMPTY_PACKING
from fairkep.io import (
    ParseError,
    format_rational,
    instance_from_dict,
    instance_to_dict,
    lottery_from_dict,
    lottery_to_dict,
    parse_rational,
    read_instance,
    read_json,
    read_lottery,
    write_instance,
)

F = Fraction


class TestRationals:
    def test_format(self):
        assert format_rational(F(3, 20)) == "3/20"
        assert format_rational(F(2)) == "2"

    def test_parse_forms(self):
        assert parse_rational("3/20") == F(3, 20)
        assert parse_rational("7") == F(7)
        assert parse_rational(5) == F(5)
        assert parse_rational("-1/3") == F(-1, 3)

    @given(st.fractions())
    def test_roundtrip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_bad_input(self):
        for bad in ("1/0", "a/b", None, "1.5.2", [1], True, False):
            with pytest.raises(ParseError):
                parse_rational(bad, "here")


def sample_instance():
    return KepInstance(
        pairs=frozenset({1, 2, 3}),
        ndds=frozenset({100}),
        arcs={(1, 2): F(1), (2, 1): F(3, 2), (100, 3): F(1)},
        node_weights={1: F(5, 2)},
        attributes={
            1: {"blood_patient": "O", "blood_donor": "A", "pra": 50},
            100: {"blood_donor": "AB"},
        },
    )


class TestInstanceIO:
    def test_dict_roundtrip(self):
        inst = sample_instance()
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_file_roundtrip(self, tmp_path):
        inst = sample_instance()
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_schema_fields(self):
        d = instance_to_dict(sample_instance())
        assert set(d) == {"pairs", "ndds", "arcs"}
        assert d["pairs"][0]["id"] == 1
        assert d["pairs"][0]["blood_patient"] == "O"
        assert {"from", "to", "weight"} <= set(d["arcs"][0])

    def test_default_arc_weight_is_one(self):
        inst = instance_from_dict(
            {"pairs": [{"id": 1}, {"id": 2}], "arcs": [{"from": 1, "to": 2}]}
        )
        assert inst.arcs[(1, 2)] == F(1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParseError):
            instance_from_dict({"pairs": [{"id": 1}, {"id": 1}]})
        with pytest.raises(ParseError):
            instance_from_dict(
                {
                    "pairs": [{"id": 1}, {"id": 2}],
                    "arcs": [{"from": 1, "to": 2}, {"from": 1, "to": 2}],
                }
            )

    def test_structural_errors_become_parse_errors(self):
        with pytest.raises(ParseError):
            instance_from_dict(
                {"pairs": [{"id": 1}], "arcs": [{"from": 1, "to": 9}]}
            )
        with pytest.raises(ParseError):
            instance_from_dict({"no_pairs": []})

    @pytest.mark.parametrize(
        "data",
        [
            {"pairs": [{"x": 1}]},
            {"pairs": [1]},
            {"pairs": [{"id": "one"}]},
            {"pairs": [{"id": 1}], "ndds": [{"blood_donor": "O"}]},
            {"pairs": 5},
            {"pairs": [{"id": 1}], "ndds": [{"id": 2, "blood_donor": "Z"}]},
        ],
    )
    def test_malformed_records_become_parse_errors(self, data):
        with pytest.raises(ParseError):
            instance_from_dict(data)

    @pytest.mark.parametrize("pair", [
        {"blood_patient": "O", "blood_donor": "A"},
        {"blood_patient": "O", "blood_donor": "A", "pra": "high"},
        {"blood_patient": "O", "blood_donor": "A", "pra": 50.0},
        {"blood_patient": "O", "blood_donor": "A", "pra": True},
        {"blood_patient": "O", "blood_donor": "A", "pra": 101},
        {"blood_patient": "O", "blood_donor": "A", "pra": -1},
        {"blood_patient": "O", "blood_donor": "Z", "pra": 10},
        {"blood_patient": "o", "blood_donor": "A", "pra": 10},
    ], ids=["no-pra", "pra-string", "pra-float", "pra-bool", "pra-high", "pra-low",
            "donor-type", "patient-type"])
    def test_bad_attributes_become_parse_errors(self, pair):
        # the simulator reads these attributes to draw arcs between batches
        with pytest.raises(ParseError):
            instance_from_dict({"pairs": [{"id": 1, **pair}]})

    def test_partial_attributes_accepted(self):
        inst = instance_from_dict({"pairs": [{"id": 1, "pra": 0}, {"id": 2, "blood_donor": "AB"}],
                                   "ndds": [{"id": 3}]})
        assert inst.attributes == {1: {"pra": 0}, 2: {"blood_donor": "AB"}}


def sample_lottery():
    return Lottery(
        (
            (Packing.of(Cycle((1, 2))), F(1, 3)),
            (Packing.of(Cycle((3, 4, 5)), Chain(ndd=100, pairs=(6, 7))), F(2, 3)),
        )
    )


class TestLotteryIO:
    def test_dict_roundtrip(self):
        lot = sample_lottery()
        assert lottery_from_dict(lottery_to_dict(lot)) == lot

    def test_file_roundtrip(self, tmp_path):
        lot = sample_lottery()
        path = tmp_path / "lot.json"
        path.write_text(json.dumps(lottery_to_dict(lot), indent=2) + "\n")
        assert read_lottery(path) == lot

    def test_full_lottery_report(self, tmp_path):
        # the report the `lottery` verb writes holds the lottery under "lottery"
        lot = sample_lottery()
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"objective": ["1/3"], "marginals": {"1": "1/3"},
                                    "lottery": lottery_to_dict(lot)}))
        assert read_lottery(path) == lot

    def test_schema(self):
        d = lottery_to_dict(sample_lottery())
        assert set(d) == {"support"}
        entry = d["support"][0]
        assert set(entry) == {"packing", "prob"}
        kinds = {item[0] for e in d["support"] for item in e["packing"]}
        assert kinds <= {"cycle", "chain"}

    def test_empty_packing_allowed(self):
        lot = Lottery(((EMPTY_PACKING, F(1)),))
        assert lottery_from_dict(lottery_to_dict(lot)) == lot

    def test_bad_probabilities_rejected(self):
        d = lottery_to_dict(sample_lottery())
        d["support"][0]["prob"] = "1/2"  # sums to 7/6 now
        with pytest.raises(ParseError, match="sum"):
            lottery_from_dict(d)
        d["support"][0]["prob"], d["support"][1]["prob"] = "-1/3", "4/3"  # sums to 1, one negative
        with pytest.raises(ParseError, match="negative"):
            lottery_from_dict(d)

    def test_malformed_structure(self):
        with pytest.raises(ParseError):
            lottery_from_dict(
                {"support": [{"packing": [["triangle", 1, 2, 3]], "prob": "1/1"}]}
            )

    @pytest.mark.parametrize(
        "data",
        [{"support": [1]}, {"support": ["packing"]}, {"support": 5}, {"support": [{"packing": 5}]}],
    )
    def test_malformed_entries_become_parse_errors(self, data):
        with pytest.raises(ParseError):
            lottery_from_dict(data)


class TestReadJson:
    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"1": "\xe9"}')
        with pytest.raises(ParseError, match="bad.json"):
            read_json(path)

    def test_bad_json_and_missing_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ParseError, match="bad.json"):
            read_json(path)
        with pytest.raises(OSError):
            read_json(tmp_path / "missing.json")

    @pytest.mark.parametrize("content", ["5", "[]", '{"pairs": 5}'], ids=["number", "list", "pairs"])
    def test_readers_name_the_file(self, content, tmp_path):
        path = tmp_path / "file.json"
        path.write_text(content)
        with pytest.raises(ParseError, match="file.json"):
            read_instance(path)
        with pytest.raises(ParseError, match="file.json"):
            read_lottery(path)
