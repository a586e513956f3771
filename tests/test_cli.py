"""End-to-end command-line interface tests (in-process, no subprocesses)."""

from __future__ import annotations

import csv
import json
from fractions import Fraction

import pytest

from fairkep import io
from fairkep.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    UsageError,
    parse_policy,
    run,
)
from fairkep.core import UNBOUNDED, KepInstance, StructurePolicy
from fairkep.oracle import is_coverable
from helpers import covered_set, enumerate_matchings, leximin_marginals

F = Fraction


class TestParsePolicy:
    def test_names(self):
        assert parse_policy("match") == StructurePolicy(max_cycle_len=2)
        assert parse_policy("cyc3") == StructurePolicy(max_cycle_len=3)
        assert parse_policy("cyc3chain") == StructurePolicy(max_cycle_len=3, max_chain_len=UNBOUNDED)
        assert parse_policy("cyc3chain:4") == StructurePolicy(max_cycle_len=3, max_chain_len=4)
        assert parse_policy("cyc3chain:inf").max_chain_len == UNBOUNDED
        assert parse_policy("2path") == StructurePolicy(max_cycle_len=None, max_chain_len=2, min_chain_len=2)

    def test_delta_and_mu(self):
        p = parse_policy("cyc3", delta=2)
        assert p.cardinality_mode == "delta" and p.delta == 2
        p = parse_policy("match", mu=3)
        assert p.cardinality_mode == "fixed" and p.mu == 3
        with pytest.raises(UsageError):
            parse_policy("cyc3", delta=1, mu=1)

    def test_unknown(self):
        with pytest.raises(UsageError):
            parse_policy("cycles9")
        with pytest.raises(UsageError):
            parse_policy("cyc3chain:x")


@pytest.fixture
def fig1a(tmp_path):
    out = tmp_path / "fig1a.json"
    assert run(["fixtures", "fig1a", "-o", str(out)]) == EXIT_OK
    return out


@pytest.fixture
def fig1b(tmp_path):
    out = tmp_path / "fig1b.json"
    assert run(["fixtures", "fig1b", "-o", str(out)]) == EXIT_OK
    return out


class TestFixtures:
    def test_fig1a_contents(self, fig1a):
        inst = io.read_instance(fig1a)
        assert inst.pairs == frozenset(range(1, 5))
        assert (2, 3) in inst.arcs and (1, 2) in inst.arcs

    def test_3dm(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["fixtures", "3dm", "--size", "2", "--triples", "0,0,0;1,1,1", "-o", str(out)])
        assert code == EXIT_OK
        assert io.read_instance(out).pairs

    def test_3dm_needs_flags(self, tmp_path):
        assert run(["fixtures", "3dm", "-o", str(tmp_path / "x.json")]) == EXIT_VALIDATION


class TestLottery:
    def test_leximin_fig1a(self, fig1a, tmp_path):
        out = tmp_path / "lot.json"
        assert run(["lottery", str(fig1a), "-o", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["marginals"] == {"1": "1/2", "2": "1", "3": "1/2", "4": "1/2"}
        probs = sorted(e["prob"] for e in rep["lottery"]["support"])
        assert probs == ["1/2", "1/2"]

    def test_nash_fig1a(self, fig1a, tmp_path):
        out = tmp_path / "lot.json"
        assert run(["lottery", str(fig1a), "--objective", "nash", "-o", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert abs(float(F(rep["marginals"]["1"])) - 1 / 3) < 1e-6
        assert abs(float(F(rep["marginals"]["3"])) - 2 / 3) < 1e-6

    def test_utilitarian_fig1b(self, fig1b, tmp_path):
        out = tmp_path / "lot.json"
        assert run(["lottery", str(fig1b), "--objective", "utilitarian", "-o", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert len(rep["lottery"]["support"]) == 1
        assert rep["lottery"]["support"][0]["prob"] == "1"
        assert rep["marginals"]["1"] == "0"

    def test_default_delta_drops_uncoverable_pairs(self, tmp_path):
        """The default δ* relaxation is taken after dropping the pairs that no
        packing covers; those pairs report marginal 0."""
        inst_path = tmp_path / "g.json"
        assert run(["generate", "--pairs", "20", "--seed", "100", "-o", str(inst_path)]) == EXIT_OK
        out = tmp_path / "lot.json"
        assert run(["lottery", str(inst_path), "--objective", "maximin", "-o", str(out)]) == EXIT_OK
        marginals = {int(v): F(q) for v, q in json.loads(out.read_text())["marginals"].items()}
        inst = io.read_instance(inst_path)
        policy = parse_policy("cyc3")
        uncoverable = {v for v in inst.pairs if not is_coverable(inst, policy, v)}
        assert uncoverable and len(marginals) == len(inst.pairs)
        for v, q in marginals.items():
            assert (q == 0) == (v in uncoverable), v

    def test_fixed_cardinality_match(self, tmp_path):
        # a 5-cycle 1..5 with a pendant pair 6 on 1: ν = 3, every 2-edge matching
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6)]
        arcs = {a: F(1) for (u, v) in edges for a in ((u, v), (v, u))}
        inst_path = tmp_path / "c5.json"
        io.write_instance(KepInstance(pairs=frozenset(range(1, 7)), arcs=arcs), inst_path)
        out = tmp_path / "lot.json"
        code = run(["lottery", str(inst_path), "--policy", "match", "--mu", "2", "-o", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        support = rep["lottery"]["support"]
        for entry in support:
            assert len(entry["packing"]) == 2
            assert all(s[0] == "cycle" and len(s) == 3 for s in entry["packing"])
        assert sum(F(e["prob"]) for e in support) == 1
        fams = [covered_set(m) for m in enumerate_matchings(edges) if len(m) == 2]
        want = leximin_marginals(range(1, 7), fams)
        assert {int(v): F(q) for v, q in rep["marginals"].items()} == want

    def test_weighted_requires_leximin(self, fig1a, tmp_path):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"1": "2", "2": "1", "3": "1", "4": "1"}))
        code = run(["lottery", str(fig1a), "--policy", "match",
                    "--objective", "nash", "--node-weights", str(w)])
        assert code == EXIT_VALIDATION

    def test_missing_instance(self, tmp_path):
        assert run(["lottery", str(tmp_path / "nope.json")]) == EXIT_VALIDATION


class TestSolveAndStats:
    def test_solve_default(self, fig1a, tmp_path):
        out = tmp_path / "p.json"
        assert run(["solve", str(fig1a), "-o", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["value"] == "3" and rep["covered"] == [2, 3, 4]

    def test_solve_2path(self, tmp_path):
        inst = tmp_path / "i.json"
        io.write_instance(
            __import__("fairkep.core", fromlist=["KepInstance"]).KepInstance(
                pairs=frozenset([1, 2]),
                ndds=frozenset([5]),
                arcs={(5, 1): F(1), (1, 2): F(1)},
            ),
            inst,
        )
        out = tmp_path / "p.json"
        assert run(["solve", str(inst), "--policy", "2path", "-o", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["covered"] == [1, 2]
        assert rep["deficiency"]["deficiency"] == 0

    def test_stats_delta_star(self, fig1b, tmp_path):
        out = tmp_path / "s.json"
        assert run(["stats", str(fig1b), "--metric", "delta_star", "-o", str(out)]) == EXIT_OK
        assert json.loads(out.read_text()) == 3

    def test_stats_coverage_loss_node(self, fig1b, tmp_path):
        out = tmp_path / "s.json"
        code = run(["stats", str(fig1b), "--metric", "coverage_loss", "--node", "1", "-o", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text()) == 3

    def test_stats_always_covered(self, fig1a, tmp_path):
        out = tmp_path / "s.json"
        assert run(["stats", str(fig1a), "--metric", "always_covered", "-o", str(out)]) == EXIT_OK
        assert json.loads(out.read_text()) == {"count": 3, "pairs": [2, 3, 4]}


class TestSample:
    def test_sample_from_report(self, fig1a, tmp_path):
        lot = tmp_path / "lot.json"
        run(["lottery", str(fig1a), "-o", str(lot)])
        out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
        assert run(["sample", str(lot), "-n", "6", "--seed", "4", "-o", str(out1)]) == EXIT_OK
        assert run(["sample", str(lot), "-n", "6", "--seed", "4", "-o", str(out2)]) == EXIT_OK
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert d1 == d2 and len(d1["draws"]) == 6
        for draw in d1["draws"]:
            assert draw["covered"] in ([1, 2], [2, 3, 4])


class TestGenerateSimulateCompare:
    def test_generate_single(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["generate", "--pairs", "10", "--ndds", "1", "--seed", "5", "-o", str(out)]) == EXIT_OK
        inst = io.read_instance(out)
        assert len(inst.pairs) == 10 and len(inst.ndds) == 1

    def test_generate_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["generate", "--pairs", "8", "--seed", "3", "-o", str(a)])
        run(["generate", "--pairs", "8", "--seed", "3", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_generate_bad_dist(self, tmp_path):
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps({"donor_bt_distribution": {"O": 0.7, "A": 0.6}}))
        assert run(["generate", "--pairs", "4", "--dist", str(dist)]) == EXIT_VALIDATION

    def test_batches_and_simulate(self, tmp_path):
        bdir = tmp_path / "batches"
        assert run(["generate", "--pairs", "8", "--ndds", "1", "--batches", "3",
                    "--seed", "2", "-o", str(bdir)]) == EXIT_OK
        assert len(list(bdir.glob("batch_*.json"))) == 3
        out = tmp_path / "stats.csv"
        trace = tmp_path / "trace.json"
        code = run(["simulate", "--batches", str(bdir), "--algorithm", "implicit",
                    "--trace", str(trace), "-o", str(out)])
        assert code == EXIT_OK
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["algorithm", "num_matched", "median_wait", "p90_wait", "max_wait", "mean_wait"]
        assert rows[1][0] == "implicit"
        assert len(json.loads(trace.read_text())["periods"]) == 3

    def test_simulate_rejects_period_count(self, tmp_path):
        bdir = tmp_path / "batches"
        run(["generate", "--pairs", "4", "--batches", "1", "-o", str(bdir)])
        assert run(["simulate", "--batches", str(bdir), "--periods", "5"]) == EXIT_VALIDATION

    def test_compare_csv(self, tmp_path):
        inst = tmp_path / "i.json"
        run(["generate", "--pairs", "10", "--seed", "4", "-o", str(inst)])
        out = tmp_path / "cmp.csv"
        assert run(["compare", str(inst), "--runs", "30", "-o", str(out)]) == EXIT_OK
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["rank", "q", "ci_lo", "ci_hi", "algorithm"]
        algs = {r[4] for r in rows[1:]}
        assert algs == {"heuristic-ilp-shuffle", "heuristic-node-shuffle"}
        for r in rows[1:]:
            assert float(r[2]) <= float(r[1]) <= float(r[3])


class TestExitCodes:
    def test_unknown_verb(self):
        assert run(["frobnicate"]) == EXIT_VALIDATION

    def test_help_ok(self):
        assert run(["--help"]) == EXIT_OK
