"""End-to-end command-line interface tests (in-process, no subprocesses)."""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction

import pytest

from fairkep import io, oracle, sim
from fairkep.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    UsageError,
    parse_policy,
    run,
)
from fairkep.core import UNBOUNDED, KepInstance, StructurePolicy
from helpers import brute_best, covered_set, enumerate_matchings, leximin_marginals

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


@pytest.fixture
def pool20(tmp_path):
    """A generated 20-pair pool in which cyc3 packings leave some pairs uncoverable."""
    out = tmp_path / "g.json"
    assert run(["generate", "--pairs", "20", "--seed", "100", "-o", str(out)]) == EXIT_OK
    return out


def brute_losses(inst, policy):
    """Per pair: the cardinality the largest packing covering it gives up, or None."""
    unit = {v: F(1) for v in inst.pairs}
    maxcard = brute_best(inst, policy, unit)
    out = {}
    for v in sorted(inst.pairs):
        best = brute_best(inst, policy, unit, must=frozenset({v}))
        out[v] = None if best is None else maxcard - best
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

    def test_default_delta_drops_uncoverable_pairs(self, pool20, tmp_path):
        """The default δ* relaxation is taken after dropping the pairs that no
        packing covers; those pairs report marginal 0."""
        out = tmp_path / "lot.json"
        assert run(["lottery", str(pool20), "--objective", "maximin", "-o", str(out)]) == EXIT_OK
        marginals = {int(v): F(q) for v, q in json.loads(out.read_text())["marginals"].items()}
        inst = io.read_instance(pool20)
        losses = brute_losses(inst, parse_policy("cyc3"))
        uncoverable = {v for v, loss in losses.items() if loss is None}
        assert uncoverable and len(marginals) == len(inst.pairs)
        for v, q in marginals.items():
            assert (q == 0) == (v in uncoverable), v

    @pytest.mark.parametrize("pool", ["pool20", "fig1b"])
    def test_default_delta_enumerates_once(self, pool, request, monkeypatch, tmp_path):
        """Preprocessing, δ* and the solve of one `lottery` command share one
        packing family, whether pairs are dropped (pool20) or not (fig1b)."""
        enumerations = []
        enumerate_structures = oracle.enumerate_structures

        def counting(*args):
            enumerations.append(1)
            return enumerate_structures(*args)

        monkeypatch.setattr(oracle, "enumerate_structures", counting)
        path = request.getfixturevalue(pool)
        assert run(["lottery", str(path), "-o", str(tmp_path / "lot.json")]) == EXIT_OK
        assert len(enumerations) == 1

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

    def test_fixed_cardinality_mu_checks(self, tmp_path):
        # a negative --mu is a bad flag value, as for every other policy; one
        # above ν depends on the instance and stays a solver error
        inst = tmp_path / "g.json"
        assert run(["generate", "--pairs", "16", "--seed", "7", "-o", str(inst)]) == EXIT_OK
        assert run(["lottery", str(inst), "--mu", "-1"]) == EXIT_VALIDATION
        assert run(["lottery", str(inst), "--policy", "match", "--mu", "-1"]) == EXIT_VALIDATION
        assert run(["lottery", str(inst), "--policy", "match", "--mu", "1", "--delta", "1"]) == EXIT_VALIDATION
        assert run(["lottery", str(inst), "--policy", "match", "--mu", "99"]) == EXIT_SOLVER

    @pytest.mark.parametrize("ndds", [[], [{"id": 1}, {"id": 2}]], ids=["empty", "ndd-only"])
    def test_fixed_cardinality_without_pairs(self, ndds, tmp_path):
        # no pair to cover: --mu 0 asks for the empty matching, surely
        inst, out = tmp_path / "pool.json", tmp_path / "lot.json"
        inst.write_text(json.dumps({"pairs": [], "ndds": ndds, "arcs": []}))
        assert run(["lottery", str(inst), "--policy", "match", "--mu", "0", "-o", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["lottery"] == {"support": [{"packing": [], "prob": "1"}]}
        assert (rep["objective"], rep["marginals"]) == ([], {})

    def test_weighted_requires_leximin(self, fig1a, tmp_path):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"1": "2", "2": "1", "3": "1", "4": "1"}))
        code = run(["lottery", str(fig1a), "--policy", "match",
                    "--objective", "nash", "--node-weights", str(w)])
        assert code == EXIT_VALIDATION

    def test_missing_instance(self, tmp_path):
        assert run(["lottery", str(tmp_path / "nope.json")]) == EXIT_VALIDATION

    def test_edge_weights_may_omit_edges(self, tmp_path):
        # a 5-cycle 1..5 with pendant pairs 6 and 7 on 1; the file weighs two of
        # its seven mutual edges (one key reversed), the others weigh 0
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (1, 7)]
        arcs = {a: F(1) for (u, v) in edges for a in ((u, v), (v, u))}
        inst, w, out = tmp_path / "c5.json", tmp_path / "w.json", tmp_path / "lot.json"
        io.write_instance(KepInstance(pairs=frozenset(range(1, 8)), arcs=arcs), inst)
        w.write_text(json.dumps({"1,2": "3", "6,1": "5/2"}))
        code = run(["lottery", str(inst), "--policy", "match", "--edge-weights", str(w), "-o", str(out)])
        assert code == EXIT_OK
        weight = {(1, 2): F(3), (1, 6): F(5, 2)}
        value = {m: sum((weight.get(e, F(0)) for e in m), F(0))
                 for m in enumerate_matchings(edges) if len(m) == 3}
        best = max(value.values())
        want = leximin_marginals(range(1, 8), [covered_set(m) for m, x in value.items() if x == best])
        rep = json.loads(out.read_text())
        assert {int(v): F(q) for v, q in rep["marginals"].items()} == want

    @staticmethod
    def weighted_pool(tmp_path):
        """A generated 12-pair pool with a node-weight and an edge-weight file on it."""
        inst = tmp_path / "g.json"
        assert run(["generate", "--pairs", "12", "--seed", "3", "-o", str(inst)]) == EXIT_OK
        pool = io.read_instance(inst)
        u, v = min(pool.undirected_edges())
        nw, ew = tmp_path / "nw.json", tmp_path / "ew.json"
        nw.write_text(json.dumps({str(u): "2", str(v): "1"}))
        ew.write_text(json.dumps({f"{u},{v}": "3"}))
        return {"instance": str(inst), "nw": str(nw), "ew": str(ew)}

    @pytest.mark.parametrize("argv", [
        ["--node-weights", "{nw}"],
        ["--edge-weights", "{ew}"],
        ["--policy", "bogus", "--node-weights", "{nw}"],
        ["--policy", "cyc3chain:3", "--delta", "2", "--node-weights", "{nw}"],
        ["--policy", "match", "--node-weights", "{nw}", "--edge-weights", "{ew}"],
        ["--policy", "match", "--node-weights", "{nw}", "--delta", "1"],
        ["--policy", "match", "--edge-weights", "{ew}", "--delta", "1"],
        ["--policy", "match", "--node-weights", "{nw}", "--mu", "1"],
        ["--policy", "match", "--edge-weights", "{ew}", "--mu", "1"],
    ], ids=["node-default-policy", "edge-default-policy", "node-bogus-policy", "node-cyc3chain-delta",
            "node-and-edge", "node-delta", "edge-delta", "node-mu", "edge-mu"])
    def test_weights_need_match_policy_alone(self, argv, tmp_path):
        """Node and edge weights weigh matchings: without --policy match, or
        beside each other, --delta or --mu, they would be read as something
        else or ignored, so the run is refused."""
        files = self.weighted_pool(tmp_path)
        assert run(["lottery", files["instance"], *(a.format(**files) for a in argv)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [
        ["--node-weights", "{nw}"], ["--edge-weights", "{ew}"], ["--mu", "2"],
    ], ids=["node", "edge", "mu"])
    def test_matching_engine_report(self, argv, tmp_path):
        """The matching engines report the exact sorted marginal vector as the
        leximin objective, and no pricing calls, as column generation does."""
        files = self.weighted_pool(tmp_path)
        out = tmp_path / "lot.json"
        argv = ["lottery", files["instance"], "--policy", "match", *(a.format(**files) for a in argv)]
        assert run([*argv, "-o", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        # the objective covers the pairs on a mutual-compatibility edge, the
        # ones column generation keeps after preprocessing
        matchable = {str(v) for e in io.read_instance(files["instance"]).undirected_edges() for v in e}
        want = sorted((q for v, q in rep["marginals"].items() if v in matchable), key=F)
        assert rep["objective"] == want
        assert (rep["iterations"], rep["pricing_calls"], rep["gap"]) == (0, 0, "0")

    def test_matching_engine_reports_like_column_generation(self, tmp_path):
        # ν = 3 on this pool, so --mu 3 asks the matching engine for the
        # lottery that column generation finds at δ* = 0
        inst = self.weighted_pool(tmp_path)["instance"]
        reports = []
        for extra in ([], ["--mu", "3"]):
            out = tmp_path / "lot.json"
            assert run(["lottery", inst, "--policy", "match", *extra, "-o", str(out)]) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        cg, engine = reports
        assert len(engine["objective"]) == 8
        for key in ("objective", "gap", "marginals"):
            assert engine[key] == cg[key], key


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

    def test_solve_2path_pinned(self, tmp_path):
        # seven 2-paths; the exposed NDD 37 alone is the deficiency certificate
        inst, out = tmp_path / "g.json", tmp_path / "p.json"
        assert run(["generate", "--pairs", "30", "--ndds", "8", "--seed", "8", "-o", str(inst)]) == EXIT_OK
        assert run(["solve", str(inst), "--policy", "2path", "-o", str(out)]) == EXIT_OK
        chains = [[30, 5, 12], [31, 4, 17], [32, 13, 0], [33, 14, 1], [34, 10, 3], [35, 7, 8], [36, 2, 6]]
        want = {
            "covered": [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14, 17],
            "deficiency": {"deficiency": 1, "ndd_set": [37]},
            "structures": [["chain", *c] for c in chains],
        }
        assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_solve_2path_families_reject_prices_and_relaxations(self, fig1a, tmp_path):
        prices = tmp_path / "prices.json"
        prices.write_text(json.dumps({"1": "2"}))
        for pol in ("2path", "2cyc2path"):
            for extra in (["--prices", str(prices)], ["--delta", "1"], ["--mu", "1"]):
                assert run(["solve", str(fig1a), "--policy", pol, *extra]) == EXIT_VALIDATION
            assert run(["solve", str(fig1a), "--policy", pol, "-o", str(tmp_path / "p.json")]) == EXIT_OK

    @pytest.mark.parametrize("verb", [["solve"], ["lottery"], ["stats", "--metric", "coverage_loss"]],
                             ids=["solve", "lottery", "stats"])
    @pytest.mark.parametrize("spelling,name", [
        (" 2path", "2path"), ("2path ", "2path"), ("2cyc2path ", "2cyc2path"),
        (" match", "match"), ("matching", "match"), ("cyc3chain:inf", "cyc3chain"),
    ], ids=["lead-2path", "trail-2path", "trail-2cyc2path", "lead-match", "matching", "cyc3chain-inf"])
    def test_policy_spellings_write_identical_files(self, verb, spelling, name, tmp_path):
        # every verb reads --policy through one parse, so a spelling of a
        # policy name takes the route the name takes
        inst = tmp_path / "g.json"
        assert run(["generate", "--pairs", "10", "--ndds", "2", "--seed", "3", "-o", str(inst)]) == EXIT_OK
        files = []
        for policy in (spelling, name):
            out = tmp_path / f"out{len(files)}.json"
            assert run([*verb, str(inst), "--policy", policy, "-o", str(out)]) == EXIT_OK
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_spelled_2path_rejects_a_relaxation(self, fig1a):
        assert run(["solve", str(fig1a), "--policy", "2path ", "--delta", "1"]) == EXIT_VALIDATION

    def test_solve_honours_mu_without_prices(self, tmp_path):
        # the unit-price query keeps the policy's cardinality, with or without --prices
        inst, prices = tmp_path / "g.json", tmp_path / "prices.json"
        assert run(["generate", "--pairs", "16", "--seed", "7", "-o", str(inst)]) == EXIT_OK
        pairs = io.read_instance(inst).pairs
        prices.write_text(json.dumps({str(v): "1" for v in pairs}))
        for extra in ([], ["--prices", str(prices)]):
            out = tmp_path / "p.json"
            argv = ["solve", str(inst), "--policy", "match", "--mu", "1", *extra, "-o", str(out)]
            assert run(argv) == EXIT_OK
            assert len(json.loads(out.read_text())["covered"]) == 2

    def test_stats_delta_star(self, fig1b, tmp_path):
        out = tmp_path / "s.json"
        assert run(["stats", str(fig1b), "--metric", "delta_star", "-o", str(out)]) == EXIT_OK
        assert json.loads(out.read_text()) == 3

    def test_stats_delta_star_drops_uncoverable_pairs(self, pool20, tmp_path):
        """δ* is the largest loss over the pairs some packing covers, the δ that
        `lottery` defaults to."""
        out = tmp_path / "s.json"
        assert run(["stats", str(pool20), "--metric", "delta_star", "-o", str(out)]) == EXIT_OK
        losses = brute_losses(io.read_instance(pool20), parse_policy("cyc3"))
        assert None in losses.values()
        assert json.loads(out.read_text()) == max(x for x in losses.values() if x is not None)

    def test_stats_coverage_loss_node(self, fig1b, tmp_path):
        out = tmp_path / "s.json"
        code = run(["stats", str(fig1b), "--metric", "coverage_loss", "--node", "1", "-o", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text()) == 3

    def test_stats_coverage_loss_null_when_uncoverable(self, pool20, tmp_path):
        out = tmp_path / "s.json"
        assert run(["stats", str(pool20), "--metric", "coverage_loss", "-o", str(out)]) == EXIT_OK
        want = brute_losses(io.read_instance(pool20), parse_policy("cyc3"))
        assert None in want.values()
        assert json.loads(out.read_text()) == {str(v): loss for v, loss in want.items()}

    def test_stats_coverage_loss_unknown_node(self, pool20):
        code = run(["stats", str(pool20), "--metric", "coverage_loss", "--node", "999"])
        assert code == EXIT_VALIDATION

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

    @pytest.mark.parametrize("probs", [("1/2", "2/3"), ("-1/3", "4/3")], ids=["sum", "negative"])
    def test_sample_of_bad_probabilities_exits_2(self, probs, tmp_path, capsys):
        lottery = tmp_path / "lottery.json"
        lottery.write_text(json.dumps({"support": [
            {"packing": [["cycle", 1, 2]], "prob": probs[0]},
            {"packing": [["cycle", 3, 4]], "prob": probs[1]},
        ]}))
        assert run(["sample", str(lottery)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {lottery}: ")


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

    @pytest.mark.parametrize("content", [
        {"pra_conditional": {"O,A": {"x": 1.0}}},
        {"donor_bt_distribution": {"O": "x"}},
        {"donor_bt_distribution": [1.0]},
        {"pra_conditional": {"O,A": [1.0]}},
        {"blood_pair_distribution": {"O,A": 1.0}, "pra_conditional": {"A,A": {"0": 1.0}}},
        [{"donor_bt_distribution": {"O": 0.7, "A": 0.6}}],
        {"donor_bt_distribution": {"O": float("nan")}},
        {"donor_bt_distribution": {"O": None}},
    ], ids=["pra-key", "probability", "section-list", "pra-list", "pairing-without-pra",
            "top-level-list", "nan", "null"])
    def test_generate_malformed_dist_exit_2(self, content, tmp_path):
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps(content))
        out = tmp_path / "x.json"
        assert run(["generate", "--pairs", "3", "--dist", str(dist), "-o", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

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
            lo, hi = sim.jeffreys_interval(round(float(r[1]) * 30), 30)
            assert [r[2], r[3]] == [f"{lo:.10g}", f"{hi:.10g}"]

    @pytest.mark.parametrize("ndds", [[], [{"id": 1}, {"id": 2}]], ids=["empty", "ndd-only"])
    def test_compare_without_pairs(self, ndds, tmp_path, capsys):
        # a pool without pairs is valid input: no ranks to write, no differences
        inst, out = tmp_path / "pool.json", tmp_path / "cmp.csv"
        inst.write_text(json.dumps({"pairs": [], "ndds": ndds, "arcs": []}))
        assert run(["compare", str(inst), "-o", str(out)]) == EXIT_OK
        assert list(csv.reader(out.open())) == [["rank", "q", "ci_lo", "ci_hi", "algorithm"]]
        assert json.loads(capsys.readouterr().out) == {"max_abs_difference": 0.0, "mean_abs_difference": 0.0}


class TestExitCodes:
    def test_unknown_verb(self):
        assert run(["frobnicate"]) == EXIT_VALIDATION

    def test_help_ok(self):
        assert run(["--help"]) == EXIT_OK

    def test_malformed_records_exit_2(self, tmp_path):
        inst, lot = tmp_path / "inst.json", tmp_path / "lot.json"
        for record in ({"x": 1}, 1):
            inst.write_text(json.dumps({"pairs": [record]}))
            assert run(["solve", str(inst)]) == EXIT_VALIDATION
        lot.write_text(json.dumps({"support": [1]}))
        assert run(["sample", str(lot)]) == EXIT_VALIDATION

    def test_verbs_reject_flags_they_do_not_read(self, tmp_path):
        out = str(tmp_path / "x.json")
        assert run(["generate", "--pairs", "4", "--policy", "cyc3", "-o", out]) == EXIT_VALIDATION
        assert run(["generate", "--pairs", "4", "--format", "csv", "-o", out]) == EXIT_VALIDATION
        assert run(["fixtures", "fig1a", "--tol", "0.1", "-o", out]) == EXIT_VALIDATION
        assert run(["fixtures", "fig1a", "-o", out]) == EXIT_OK
        assert run(["solve", out, "--seed", "3"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("flag, content", [
        ("--prices", {"x": "1"}),
        ("--prices", ["1"]),
        ("--prices", {"9": "1"}),
        ("--prices", {"1": "one"}),
        ("--node-weights", {"x": "1"}),
        ("--node-weights", [1, 2]),
        ("--node-weights", {"1,2": "1"}),
        ("--edge-weights", {"1,2,3": "1"}),
        ("--edge-weights", {"x,2": "1"}),
        ("--edge-weights", {"1": "1"}),
        ("--edge-weights", {"2,3": "1"}),
        ("--edge-weights", [["1,2", "1"]]),
    ], ids=["price-key", "price-list", "price-not-pair", "price-value", "node-key", "node-list",
            "node-edge-key", "edge-triple", "edge-key", "edge-single", "edge-one-way", "edge-list"])
    def test_bad_map_files_exit_2(self, flag, content, fig1a, tmp_path):
        # fig1a's only mutual-compatibility edge is 1-2; 2 -> 3 is one-way
        path = tmp_path / "map.json"
        path.write_text(json.dumps(content))
        verb = ["solve"] if flag == "--prices" else ["lottery", "--policy", "match"]
        assert run([*verb, str(fig1a), flag, str(path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("attrs", [
        {"blood_patient": "O", "blood_donor": "A"},
        {"blood_patient": "O", "blood_donor": "A", "pra": "high"},
        {"blood_patient": "O", "blood_donor": "Z", "pra": 10},
    ], ids=["no-pra", "pra-string", "donor-type"])
    def test_simulate_bad_attributes_exit_2(self, attrs, tmp_path):
        bdir = tmp_path / "batches"
        assert run(["generate", "--pairs", "4", "--batches", "2", "-o", str(bdir)]) == EXIT_OK
        batch = bdir / "batch_001.json"
        data = json.loads(batch.read_text())
        data["pairs"][0] = {"id": data["pairs"][0]["id"], **attrs}
        batch.write_text(json.dumps(data))
        assert run(["simulate", "--batches", str(bdir), "-o", str(tmp_path / "s.csv")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [
        ["simulate", "--batches", "{batches}", "--replications", "0"],
        ["compare", "{instance}", "--runs", "5"],
        ["lottery", "{instance}", "--delta", "-1"],
        ["stats", "{instance}", "--metric", "delta_star", "--delta", "-2"],
        ["lottery", "{instance}", "--mu", "-1"],
        ["lottery", "{instance}", "--policy", "cyc3chain:0"],
        ["stats", "{instance}", "--metric", "max_cardinality", "--policy", "cyc3chain:-2"],
        ["fixtures", "3dm", "--size", "2", "--triples", "a,b,c", "-o", "{out}"],
        ["generate", "--pairs", "5", "--batches", "2", "-o", "{instance}"],
        ["lottery", "{instance}", "--objective", "nash", "--tol", "0"],
        ["generate", "--pairs", "5", "--batches", "-2", "-o", "{out}"],
        ["sample", "-n", "-3", "{lottery}"],
        ["fixtures", "3dm", "--size", "-1", "--triples", "1,2,3", "-o", "{out}"],
        ["stats", "{instance}", "--metric", "delta_star", "--node", "1", "-o", "{out}"],
        ["stats", "{instance}", "--metric", "always_covered", "--node", "1", "-o", "{out}"],
        ["stats", "{instance}", "--metric", "max_cardinality", "--node", "1", "-o", "{out}"],
        ["fixtures", "fig1a", "--size", "2", "-o", "{out}"],
        ["fixtures", "fig1b", "--triples", "1,2,3", "-o", "{out}"],
        ["stats", "{instance}", "--metric", "delta_star", "--delta", "1", "-o", "{out}"],
        ["stats", "{instance}", "--metric", "coverage_loss", "--mu", "1", "-o", "{out}"],
        ["stats", "{instance}", "--metric", "max_cardinality", "--delta", "1", "-o", "{out}"],
    ], ids=["replications", "runs", "lottery-delta", "stats-delta", "mu", "chain-zero",
            "chain-negative", "triple-letters", "batches-onto-file", "tol-zero",
            "batches-negative", "draws-negative", "size-negative", "node-delta-star",
            "node-always-covered", "node-max-cardinality", "fig1a-size", "fig1b-triples",
            "delta-star-delta", "coverage-loss-mu", "max-cardinality-delta"])
    def test_bad_flag_values_exit_2(self, argv, fig1a, tmp_path):
        batches = tmp_path / "batches"
        assert run(["generate", "--pairs", "4", "--batches", "1", "-o", str(batches)]) == EXIT_OK
        lottery = tmp_path / "lottery.json"
        lottery.write_text(json.dumps({"support": [{"packing": [], "prob": "1"}]}))
        assert run(["sample", str(lottery), "-o", str(tmp_path / "draws.json")]) == EXIT_OK
        paths = {"batches": str(batches), "instance": str(fig1a), "lottery": str(lottery),
                 "out": str(tmp_path / "out")}
        assert run([arg.format(**paths) for arg in argv]) == EXIT_VALIDATION
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--pairs", "4", "-o", "{missing}"],
        ["solve", "{instance}", "-o", "{missing}"],
        ["lottery", "{instance}", "-o", "{missing}"],
        ["sample", "{lottery}", "-o", "{missing}"],
        ["simulate", "--batches", "{batches}", "-o", "{missing}"],
        ["simulate", "--batches", "{batches}", "--trace", "{missing}"],
        ["simulate", "--batches", "{batches}", "-o", "{out}", "--trace", "{missing}"],
        ["simulate", "--batches", "{batches}", "-o", "{missing}", "--trace", "{out}"],
        ["stats", "{instance}", "--metric", "max_cardinality", "-o", "{missing}"],
        ["compare", "{instance}", "--runs", "30", "-o", "{missing}"],
        ["fixtures", "fig1a", "-o", "{missing}"],
    ], ids=["generate", "solve", "lottery", "sample", "simulate", "simulate-trace",
            "simulate-table-and-trace", "simulate-trace-and-table", "stats", "compare",
            "fixtures"])
    def test_output_into_missing_directory_exits_2(self, argv, fig1a, tmp_path, capsys):
        batches = tmp_path / "batches"
        assert run(["generate", "--pairs", "4", "--batches", "1", "-o", str(batches)]) == EXIT_OK
        lottery = tmp_path / "lottery.json"
        lottery.write_text(json.dumps({"support": [{"packing": [], "prob": "1"}]}))
        capsys.readouterr()
        paths = {"batches": str(batches), "instance": str(fig1a), "lottery": str(lottery),
                 "missing": str(tmp_path / "missing" / "out"), "out": str(tmp_path / "out")}
        assert run([arg.format(**paths) for arg in argv]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        # nothing is written, neither at the bad path nor at a good -o path
        assert not (tmp_path / "missing").exists() and not (tmp_path / "out").exists()

    def test_failed_run_keeps_a_file_it_did_not_create(self, tmp_path, capsys):
        """A failed `simulate` removes the trace file it created, but not one
        that was there before it ran."""
        batches = tmp_path / "batches"
        assert run(["generate", "--pairs", "4", "--batches", "1", "-o", str(batches)]) == EXIT_OK
        trace = tmp_path / "t.json"
        trace.write_text("old")
        argv = ["simulate", "--batches", str(batches), "-o", str(tmp_path / "missing" / "s.csv"),
                "--trace", str(trace)]
        assert run(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert trace.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "{bad}"],
        ["solve", "{instance}", "--prices", "{bad}"],
        ["lottery", "{instance}", "--policy", "match", "--node-weights", "{bad}"],
        ["lottery", "{instance}", "--policy", "match", "--edge-weights", "{bad}"],
        ["sample", "{bad}"],
        ["generate", "--pairs", "3", "--dist", "{bad}", "-o", "{out}"],
    ], ids=["instance", "prices", "node-weights", "edge-weights", "sample", "dist"])
    def test_non_utf8_files_exit_2(self, argv, fig1a, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"1": "\xe9"}')
        paths = {"bad": str(bad), "instance": str(fig1a), "out": str(tmp_path / "out")}
        assert run([arg.format(**paths) for arg in argv]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "{instance}", "--prices", ""],
        ["generate", "--pairs", "3", "--dist", "", "-o", "x.json"],
        ["simulate", "--batches", "{batches}", "--trace", "", "-o", "x.csv"],
        ["solve", "{instance}", "-o", ""],
        ["generate", "--pairs", "3", "-o", ""],
        ["generate", "--pairs", "3", "--batches", "2", "-o", ""],
        ["fixtures", "fig1a", "-o", ""],
        ["simulate", "--batches", ""],
        ["lottery", "{instance}", "--policy", "match", "--node-weights", ""],
    ], ids=["prices", "dist", "trace", "solve-output", "generate-output", "batches-output",
            "fixtures-output", "simulate-batches", "node-weights"])
    def test_empty_path_exits_2(self, argv, fig1a, tmp_path, monkeypatch, capsys):
        # an empty path names no file: it is neither the flag left out (unit
        # prices, stdout, a default file name) nor the working directory
        batches = tmp_path / "batches"
        assert run(["generate", "--pairs", "4", "--batches", "1", "-o", str(batches)]) == EXIT_OK
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        assert run([arg.format(instance=fig1a, batches=batches) for arg in argv]) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("content", ["5", '"support"', "null"], ids=["number", "string", "null"])
    def test_sample_of_a_non_object_exits_2(self, content, tmp_path, capsys):
        lottery = tmp_path / "lottery.json"
        lottery.write_text(content)
        assert run(["sample", str(lottery)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {lottery}: ")


class TestPinnedCli:
    """One sha256 over an in-process sweep of `run`: each command's argv, exit
    code and stdout, then every file the sweep leaves.  The sweep covers
    every verb, every policy spelling, the five objectives, --delta, --mu,
    --prices and node and edge weights, on fig1a, fig1b and two generated
    pools, one with NDDs.  A change to the CLI or to the engines behind it
    that moves one byte of an answer, or one exit code, moves the digest."""

    DIGEST = "94912eada198ae4a7580ca4e9efa33002d6ebd0ec6d3c6b5c1123b45349051b1"
    POOLS = ("fig1a.json", "fig1b.json", "g12.json", "g10.json")
    OBJECTIVES = ("utilitarian", "maximin", "leximin", "nash", "gini")
    POLICIES = ("match", "matching", " match", "cyc3", "cyc3chain", "cyc3chain:2", "cyc3chain:inf",
                "2path", " 2path", "2path ", "2cyc2path", "2cyc2path ")
    METRICS = ("delta_star", "always_covered", "coverage_loss", "max_cardinality")

    def sweep(self):
        """The commands, in order; each writes -o to a file of its own."""
        outs = iter(range(1000))

        def to_file(*argv):
            return [*argv, "-o", f"out{next(outs):03d}.json"]

        yield ["fixtures", "fig1a", "-o", "fig1a.json"]
        yield ["fixtures", "fig1b", "-o", "fig1b.json"]
        yield ["fixtures", "3dm", "--size", "2", "--triples", "0,0,0;1,1,1", "-o", "3dm.json"]
        yield ["generate", "--pairs", "12", "--seed", "3", "-o", "g12.json"]
        yield ["generate", "--pairs", "10", "--ndds", "2", "--seed", "3", "-o", "g10.json"]
        yield ["generate", "--pairs", "6", "--ndds", "1", "--seed", "2", "--batches", "3", "-o", "batches"]
        pool = io.read_instance("g12.json")
        (u, v), (x, y) = sorted(pool.undirected_edges())[:2]
        with open("prices.json", "w") as f:
            json.dump({str(w): str(w % 3 + 1) for w in sorted(pool.pairs)}, f)
        with open("nw.json", "w") as f:
            json.dump({str(u): "2", str(v): "1", str(y): "5/2"}, f)
        with open("ew.json", "w") as f:
            json.dump({f"{u},{v}": "3", f"{y},{x}": "1/2"}, f)
        for inst in self.POOLS:
            for objective in self.OBJECTIVES:
                yield to_file("lottery", inst, "--objective", objective)
            for policy in self.POLICIES:
                yield to_file("lottery", inst, "--policy", policy)
                yield to_file("solve", inst, "--policy", policy)
            for metric in self.METRICS:
                yield to_file("stats", inst, "--metric", metric)
        for objective in self.OBJECTIVES:
            yield to_file("lottery", "g12.json", "--delta", "1", "--objective", objective)
        yield to_file("lottery", "g10.json", "--policy", "cyc3chain:2", "--delta", "2")
        yield to_file("lottery", "g12.json", "--policy", "match", "--mu", "2")
        yield to_file("lottery", "g12.json", "--policy", "cyc3", "--mu", "2")
        yield to_file("lottery", "g12.json", "--policy", "matching", "--mu", "99")
        yield to_file("lottery", "g12.json", "--policy", "match", "--node-weights", "nw.json")
        yield to_file("lottery", "g12.json", "--policy", "match", "--edge-weights", "ew.json")
        yield to_file("lottery", "g12.json", "--node-weights", "nw.json")
        yield to_file("lottery", "g12.json", "--policy", "match", "--objective", "nash",
                      "--node-weights", "nw.json")
        yield to_file("lottery", "g12.json", "--policy", "match", "--objective", "maximin", "--mu", "2")
        yield to_file("lottery", "g12.json", "--policy", "match", "--node-weights", "nw.json",
                      "--edge-weights", "ew.json")
        yield to_file("lottery", "g12.json", "--policy", "match", "--delta", "1", "--edge-weights", "ew.json")
        for policy in ("cyc3", "match", "cyc3chain:2"):
            yield to_file("solve", "g12.json", "--policy", policy, "--prices", "prices.json")
        yield to_file("solve", "g12.json", "--delta", "1", "--prices", "prices.json")
        yield to_file("solve", "g12.json", "--policy", "match", "--mu", "1")
        yield to_file("solve", "g10.json", "--policy", "2path", "--prices", "prices.json")
        yield to_file("solve", "g10.json", "--policy", "2cyc2path", "--delta", "1")
        yield to_file("solve", "g10.json", "--policy", "2path ", "--mu", "1")
        yield to_file("stats", "g10.json", "--metric", "always_covered", "--delta", "1")
        yield to_file("stats", "g10.json", "--metric", "coverage_loss", "--node", "3")
        yield to_file("stats", "g10.json", "--metric", "max_cardinality", "--policy", "2path")
        yield to_file("stats", "g10.json", "--metric", "delta_star", "--mu", "1")
        yield to_file("sample", "out002.json", "-n", "5", "--seed", "4")
        yield ["sample", "out068.json", "-n", "3"]
        for algorithm in sim.ALGORITHMS:
            yield ["simulate", "--batches", "batches", "--algorithm", algorithm, "--seed", "1",
                   "-o", f"sim-{algorithm}.csv"]
        yield ["simulate", "--batches", "batches", "--policy", "match", "--wait-weighting",
               "--trace", "trace.json", "-o", "sim-match.csv"]
        yield ["compare", "g10.json", "--runs", "30", "--seed", "2", "-o", "compare.csv"]
        yield ["compare", "fig1a.json", "--runs", "30"]
        yield ["solve", "fig1a.json"]
        yield ["lottery", "fig1b.json", "--objective", "gini"]
        yield ["stats", "fig1b.json", "--metric", "coverage_loss"]

    def test_sweep_digest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for argv in self.sweep():
            code = run(argv)
            digest.update(json.dumps([argv, code, capsys.readouterr().out]).encode())
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(json.dumps(str(path.relative_to(tmp_path))).encode() + path.read_bytes())
        assert digest.hexdigest() == self.DIGEST
