"""JSON serialization of instances and lotteries; rationals as "num/den" strings.

read_json and the readers on it raise ParseError, naming the file, for content
that is not UTF-8 JSON of the expected shape, and OSError for a bad path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import Chain, Cycle, FairkepError, KepInstance, Lottery, Packing
from .gen import BLOOD_TYPES


class ParseError(FairkepError):
    pass


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: Any, where: str = "") -> Fraction:
    try:
        if isinstance(s, str):
            return Fraction(s)
        if isinstance(s, int) and not isinstance(s, bool):
            return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {s!r} {where}: {e}") from None
    raise ParseError(f"bad rational {s!r} {where}: expected \"num/den\" string or int")


def instance_to_dict(instance: KepInstance) -> dict:
    pairs = []
    for v in sorted(instance.pairs):
        rec: dict[str, Any] = {"id": v}
        rec.update(instance.attributes.get(v, {}))
        if v in instance.node_weights:
            rec["weight"] = format_rational(instance.node_weights[v])
        pairs.append(rec)
    ndds = []
    for v in sorted(instance.ndds):
        rec = {"id": v}
        rec.update(instance.attributes.get(v, {}))
        ndds.append(rec)
    arcs = [
        {"from": u, "to": v, "weight": format_rational(w)}
        for (u, v), w in sorted(instance.arcs.items())
    ]
    return {"pairs": pairs, "ndds": ndds, "arcs": arcs}


def _records(recs: Any, where: str) -> list[dict]:
    if not isinstance(recs, list) or not all(isinstance(rec, dict) for rec in recs):
        raise ParseError(f"{where} must be a list of objects")
    return recs


def _node_id(rec: dict, where: str) -> int:
    try:
        return int(rec["id"])
    except KeyError:
        raise ParseError(f"{where} has no 'id'") from None
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad id in {where}: {e}") from None


def _attributes(rec: dict, keys: tuple[str, ...], where: str) -> dict:
    """The record's generator attributes; blood types must be gen.BLOOD_TYPES,
    a PRA an int in 0..100, and a pair with a patient blood type needs a PRA."""
    attrs = {k: rec[k] for k in keys if k in rec}
    for k in ("blood_patient", "blood_donor"):
        if k in attrs and attrs[k] not in BLOOD_TYPES:
            raise ParseError(f"{where}: {k} {attrs[k]!r} is not one of {', '.join(BLOOD_TYPES)}")
    pra = attrs.get("pra")
    if "pra" in attrs and (isinstance(pra, bool) or not isinstance(pra, int) or not 0 <= pra <= 100):
        raise ParseError(f"{where}: pra {pra!r} is not an int in 0..100")
    if "blood_patient" in attrs and "pra" not in attrs:
        raise ParseError(f"{where} has a blood_patient but no pra")
    return attrs


def instance_from_dict(data: dict) -> KepInstance:
    try:
        pair_recs = _records(data["pairs"], "pairs")
        ndd_recs = _records(data.get("ndds", []), "ndds")
        arc_recs = _records(data.get("arcs", []), "arcs")
    except (TypeError, KeyError) as e:
        raise ParseError(f"malformed instance object: {e}") from None
    pairs, ndds = set(), set()
    attributes: dict[int, dict] = {}
    node_weights: dict[int, Fraction] = {}
    for i, rec in enumerate(pair_recs):
        v = _node_id(rec, f"pair #{i}")
        if v in pairs:
            raise ParseError(f"duplicate pair id {v}")
        pairs.add(v)
        attrs = _attributes(rec, ("blood_patient", "blood_donor", "pra"), f"pair {v}")
        if attrs:
            attributes[v] = attrs
        if "weight" in rec:
            node_weights[v] = parse_rational(rec["weight"], f"in pair {v}")
    for i, rec in enumerate(ndd_recs):
        v = _node_id(rec, f"ndd #{i}")
        if v in pairs or v in ndds:
            raise ParseError(f"duplicate node id {v}")
        ndds.add(v)
        attrs = _attributes(rec, ("blood_donor",), f"ndd {v}")
        if attrs:
            attributes[v] = attrs
    arcs: dict[tuple[int, int], Fraction] = {}
    for i, rec in enumerate(arc_recs):
        try:
            u, v = int(rec["from"]), int(rec["to"])
        except (TypeError, KeyError, ValueError) as e:
            raise ParseError(f"malformed arc #{i}: {e}") from None
        w = parse_rational(rec.get("weight", 1), f"in arc #{i}")
        if (u, v) in arcs:
            raise ParseError(f"duplicate arc ({u},{v})")
        arcs[(u, v)] = w
    try:
        return KepInstance(
            pairs=frozenset(pairs),
            ndds=frozenset(ndds),
            arcs=arcs,
            node_weights=node_weights,
            attributes=attributes,
        )
    except ValueError as e:
        raise ParseError(str(e)) from None


def packing_to_list(packing: Packing) -> list[list]:
    """The packing's structures in sort order: ["cycle", *vertices] or ["chain", ndd, *pairs]."""
    return [["cycle", *s.vertices] if isinstance(s, Cycle) else ["chain", s.ndd, *s.pairs]
            for s in packing.sorted_structures()]


def _structure_from_list(item: list):
    try:
        kind = item[0]
        if kind == "cycle":
            return Cycle(tuple(int(v) for v in item[1:]))
        if kind == "chain":
            return Chain(int(item[1]), tuple(int(v) for v in item[2:]))
    except (IndexError, ValueError, TypeError) as e:
        raise ParseError(f"malformed structure {item!r}: {e}") from None
    raise ParseError(f"unknown structure kind {kind!r}")


def lottery_to_dict(lottery: Lottery) -> dict:
    return {
        "support": [
            {
                "packing": packing_to_list(packing),
                "prob": format_rational(p),
            }
            for packing, p in lottery.support
        ]
    }


def lottery_from_dict(data: dict) -> Lottery:
    try:
        entries = _records(data["support"], "support")
    except (TypeError, KeyError):
        raise ParseError("lottery object must have a 'support' list") from None
    support = []
    for i, rec in enumerate(entries):
        items = rec.get("packing", [])
        if not isinstance(items, list):
            raise ParseError(f"support entry #{i}: 'packing' must be a list")
        structures = frozenset(_structure_from_list(s) for s in items)
        p = parse_rational(rec.get("prob"), f"in support entry #{i}")
        support.append((Packing(structures), p))
    try:
        return Lottery(tuple(support))
    except ValueError as e:  # Lottery's own check of the probabilities
        raise ParseError(str(e)) from None


def read_json(path) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise ParseError(f"{path}: {e}") from None


def _named(path, parse, data):
    """parse(data), its ParseError naming the file."""
    try:
        return parse(data)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def read_instance(path) -> KepInstance:
    return _named(path, instance_from_dict, read_json(path))


def write_instance(instance: KepInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")


def read_lottery(path) -> Lottery:
    """A lottery file, or the full report the `lottery` verb writes."""
    data = read_json(path)
    if isinstance(data, dict) and "lottery" in data and "support" not in data:
        data = data["lottery"]
    return _named(path, lottery_from_dict, data)

