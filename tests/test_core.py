"""Domain types, packing validation, and fairness metric evaluation."""

from __future__ import annotations

import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import fairkep
from fairkep import gen
from fairkep.core import (
    Chain,
    ChainWithoutNdd,
    Cycle,
    DisjointnessViolation,
    EMPTY_PACKING,
    GiniUndefined,
    KepInstance,
    LengthMismatch,
    LengthViolation,
    Lottery,
    MissingArc,
    Packing,
    StructurePolicy,
    as_sorted,
    eval_gini,
    eval_leximin,
    eval_maximin,
    eval_metric,
    eval_nash,
    eval_neg_gini,
    eval_utilitarian,
    integer_scaled,
    lorenz_compare,
    validate_packing,
    DOMINATES,
    DOMINATED_BY,
    EQUAL,
    INCOMPARABLE,
)

F = Fraction


def make(pairs, ndds=(), arcs=()):
    return KepInstance(
        pairs=frozenset(pairs), ndds=frozenset(ndds), arcs={a: F(1) for a in arcs}
    )


class TestStructures:
    def test_cycle_canonical_rotation(self):
        assert Cycle((3, 1, 2)) == Cycle((1, 2, 3))
        assert Cycle((2, 3, 1)).vertices == (1, 2, 3)

    def test_cycle_rotation_is_not_reversal(self):
        assert Cycle((1, 3, 2)) != Cycle((1, 2, 3))

    def test_cycle_rejects_repeats(self):
        with pytest.raises(ValueError):
            Cycle((1, 2, 1))

    def test_chain_covered_excludes_ndd(self):
        c = Chain(ndd=100, pairs=(1, 2, 3))
        assert set(c.covered()) == {1, 2, 3}
        assert c.length == 3

    def test_packing_disjointness(self):
        inst = make([1, 2, 3], arcs=[(1, 2), (2, 1), (2, 3), (3, 2)])
        bad = Packing(frozenset({Cycle((1, 2)), Cycle((2, 3))}))
        with pytest.raises(DisjointnessViolation):
            validate_packing(inst, bad, StructurePolicy())

    def test_packing_covered_and_cardinality(self):
        p = Packing.of(Cycle((1, 2)), Chain(ndd=9, pairs=(3,)))
        assert p.covered == frozenset({1, 2, 3})
        assert p.cardinality == 3
        assert EMPTY_PACKING.cardinality == 0


class TestUndirectedEdges:
    @staticmethod
    def definition(inst):
        return {(min(u, v), max(u, v)) for (u, v) in inst.arcs
                if u in inst.pairs and v in inst.pairs and (v, u) in inst.arcs}

    def test_matches_definition_on_random_pools(self):
        # pairs in shuffled ids, NDDs with out-arcs, arcs one-way or both ways
        rng = random.Random(17)
        mutual = 0
        for _ in range(200):
            nodes = rng.sample(range(60), rng.randint(2, 25))
            n_ndds = rng.randint(0, min(3, len(nodes) - 1))
            ndds, pairs = nodes[:n_ndds], nodes[n_ndds:]
            arcs = set()
            for u in nodes:
                for v in pairs:
                    if u != v and rng.random() < 0.3:
                        arcs.add((u, v))
                        if u in pairs and rng.random() < 0.5:
                            arcs.add((v, u))
            inst = make(pairs, ndds, arcs)
            edges = inst.undirected_edges()
            assert edges == self.definition(inst)
            mutual += len(edges)
        assert mutual > 500

    def test_matches_definition_on_generated_pools(self):
        for seed in range(20):
            inst = gen.generate_instance(gen.GenConfig(n_pairs=30, n_ndds=seed % 4, seed=seed))
            assert inst.undirected_edges() == self.definition(inst)


class TestValidatePacking:
    INST = make([1, 2, 3, 4], [100], [(1, 2), (2, 1), (2, 3), (3, 4), (4, 2), (100, 1)])

    def test_valid(self):
        policy = StructurePolicy(max_cycle_len=3, max_chain_len=1)
        validate_packing(self.INST, Packing.of(Cycle((2, 3, 4)), Chain(100, (1,))), policy)

    def test_missing_arc(self):
        with pytest.raises(MissingArc):
            validate_packing(self.INST, Packing.of(Cycle((1, 3))), StructurePolicy())

    def test_length_violation(self):
        with pytest.raises(LengthViolation):
            validate_packing(self.INST, Packing.of(Cycle((2, 3, 4))), StructurePolicy(max_cycle_len=2))

    def test_chain_needs_known_ndd(self):
        with pytest.raises(ChainWithoutNdd):
            validate_packing(
                self.INST,
                Packing.of(Chain(ndd=999, pairs=(1,))),
                StructurePolicy(max_chain_len=2),
            )

    def test_chain_disallowed_by_policy(self):
        with pytest.raises(LengthViolation):
            validate_packing(
                self.INST, Packing.of(Chain(ndd=100, pairs=(1,))), StructurePolicy()
            )


class TestPolicies:
    def test_bad_modes(self):
        with pytest.raises(ValueError):
            StructurePolicy(max_cycle_len=1)
        with pytest.raises(ValueError):
            StructurePolicy(cardinality_mode="nope")
        with pytest.raises(ValueError):
            StructurePolicy(cardinality_mode="fixed")  # needs mu
        with pytest.raises(ValueError, match="mu must be >= 0"):
            StructurePolicy(cardinality_mode="fixed", mu=-1)

    def test_allows(self):
        pol = StructurePolicy(max_cycle_len=3, max_chain_len=2)
        assert pol.allows(Cycle((1, 2, 3)))
        assert not pol.allows(Cycle((1, 2, 3, 4)))
        assert pol.allows(Chain(9, (1, 2)))
        assert not pol.allows(Chain(9, (1, 2, 3)))
        assert StructurePolicy(max_chain_len=float("inf")).allows(Chain(9, tuple(range(50))))


class TestMetrics:
    Q = [F(1, 2), F(1), F(1, 4), F(1, 4)]

    def test_utilitarian_maximin(self):
        assert eval_utilitarian(self.Q) == F(2)
        assert eval_maximin(self.Q) == F(1, 4)

    def test_leximin_sorted(self):
        assert eval_leximin(self.Q) == (F(1, 4), F(1, 4), F(1, 2), F(1))
        assert as_sorted(self.Q) == (F(1, 4), F(1, 4), F(1, 2), F(1))

    def test_nash_product(self):
        assert eval_nash(self.Q) == F(1, 32)
        assert eval_nash([F(0), F(1)]) == F(0)

    def test_gini_hand_value(self):
        # pairwise |q_u - q_v| sums over {1/2, 1}: |1/2 - 1| doubled = 1;
        # mean 3/4, n = 2 -> G = 1 / (2*2*2*(3/4)) = 1/6
        assert eval_gini([F(1, 2), F(1)]) == F(1, 6)
        assert eval_gini([F(1, 3), F(1, 3)]) == 0
        assert eval_neg_gini([F(1, 2), F(1)]) == 1 - F(1, 6)

    def test_gini_undefined_on_zero_sum(self):
        with pytest.raises(GiniUndefined):
            eval_gini([F(0), F(0)])

    def test_eval_metric_dispatch(self):
        assert eval_metric("utilitarian", self.Q) == F(2)
        assert eval_metric("neggini", [F(1, 2), F(1)]) == 1 - F(1, 6)
        with pytest.raises(ValueError):
            eval_metric("unknown", self.Q)


class TestLorenzCompare:
    def test_equal_and_dominance(self):
        a = [F(1, 2), F(1, 2)]
        b = [F(1, 4), F(3, 4)]
        assert lorenz_compare(a, a) == EQUAL
        assert lorenz_compare(a, b) == DOMINATES
        assert lorenz_compare(b, a) == DOMINATED_BY

    def test_incomparable(self):
        # equal sums, crossing partial-sum curves
        a = [F(1, 4), F(2, 4), F(2, 4), F(3, 4)]
        b = [F(2, 4), F(2, 4), F(2, 4), F(2, 4)]
        assert lorenz_compare(b, a) == DOMINATES
        assert lorenz_compare([F(0), F(1), F(1)], [F(1, 4), F(1, 4), F(3, 2)]) == INCOMPARABLE

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            lorenz_compare([F(1)], [F(1), F(0)])


class TestLottery:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Lottery(((EMPTY_PACKING, F(1, 2)),))

    def test_marginals_and_merge(self):
        p = Packing.of(Cycle((1, 2)))
        lot = Lottery(((p, F(1, 4)), (p, F(1, 4)), (EMPTY_PACKING, F(1, 2))))
        assert lot.marginals([1, 2, 3]) == {1: F(1, 2), 2: F(1, 2), 3: F(0)}
        merged = lot.merged()
        assert len(merged.support) == 2
        assert dict(merged.support)[p] == F(1, 2)

    def test_draw_boundaries(self):
        a, b, c = (Packing.of(Cycle((v, v + 1))) for v in (1, 3, 5))
        lot = Lottery(((a, F(1, 4)), (b, F(1, 2)), (c, F(1, 4))))
        assert lot.draw(0.0) == a
        # an x equal to a running total goes to the next packing
        assert lot.draw(0.25) == b
        assert lot.draw(0.75) == c
        assert lot.draw(math.nextafter(1.0, 0.0)) == c
        # exact comparison: the double nearest 1/3 lies below 1/3, so it
        # draws the first packing, where a float running total would not
        third = Lottery(((a, F(1, 3)), (b, F(2, 3))))
        assert 1 / 3 < F(1, 3) and not 1 / 3 < float(F(1, 3))
        assert third.draw(1 / 3) == a


class TestIntegerScaled:
    @given(st.lists(st.fractions(max_denominator=10**6)))
    def test_exact_over_the_lcm(self, values):
        ints, d = integer_scaled(values)
        assert [F(i, d) for i in ints] == values
        assert d == math.lcm(*(v.denominator for v in values))

    def test_empty(self):
        assert integer_scaled([]) == ([], 1)
        assert integer_scaled(iter(())) == ([], 1)


def test_library_has_no_assert():
    # `python -O` strips assert statements, so the library must not rely on them
    found = []
    for path in sorted(Path(fairkep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_cli_reads_and_writes_files_only_through_io():
    # one JSON reader: cli.py parses no JSON itself and opens a file only in
    # _output, its -o/--trace stream; every input goes through fairkep.io
    tree = ast.parse((Path(fairkep.__file__).parent / "cli.py").read_text())
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call):
                f = child.func
                reads = (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                         and f.value.id == "json" and f.attr in ("load", "loads"))
                opens = isinstance(f, ast.Name) and f.id == "open" and where != "_output"
                if reads or opens:
                    found.append(f"cli.py:{child.lineno}")
            visit(child, inner)

    visit(tree, None)
    assert not found, found


def test_cli_parses_the_policy_once_in_run():
    # --policy/--delta/--mu are read by one parse_policy call, in cli.run;
    # every verb decides on the StructurePolicy it leaves on args
    calls = []
    for path in sorted(Path(fairkep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
                if isinstance(child, ast.Call):
                    f = child.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name == "parse_policy":
                        calls.append(f"{path.stem}.{owner}")
                visit(child, inner)

        visit(tree, None)
    assert calls == ["cli.run"], calls


def test_cli_calls_no_engine():
    # the library picks the engine: cli names neither `lorenz` nor `oracle`,
    # and of `fair` and `paths` only the front door, the policy constants
    # parse_policy returns and the 3DM fixture
    allowed = {"fair": {"lottery", "best_packing", "pool_metric", "OBJECTIVES", "METRICS"},
               "paths": {"TWO_PATH", "TWO_CYCLE_TWO_PATH", "build_3dm_gadget"}}
    tree = ast.parse((Path(fairkep.__file__).parent / "cli.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = {alias.name for alias in node.names}
            if node.module is None and names & {"lorenz", "oracle"} or node.module not in (None, "core"):
                found.append(f"cli.py:{node.lineno} import from .{node.module or ''}")
        elif isinstance(node, ast.Name) and node.id in ("lorenz", "oracle"):
            found.append(f"cli.py:{node.lineno} {node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.attr not in allowed.get(node.value.id, {node.attr}):
            found.append(f"cli.py:{node.lineno} {node.value.id}.{node.attr}")
    assert not found, found


def test_library_imports_only_what_it_uses():
    # no linter runs on the library, so an import left behind by a refactor
    # would go unseen; a line marked `# noqa: F401` imports a name on purpose
    # (a name that perfbench's tracer replaces on the module)
    unused = []
    for path in sorted(Path(fairkep.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            # names a module re-exports through __all__ count as used
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


# the functions allowed to import each third-party package: every other route
# through the library runs without it, and a module-level import would load it
# on `import fairkep`
THIRD_PARTY_IMPORTERS = {
    "networkx": {"matching.max_weight_matching"},
    "numpy": {"oracle._milp_max_price", "fair._corrective_step"},
    "scipy": {"oracle._milp_max_price", "fair._corrective_step"},
    "scipy.stats": {"sim.jeffreys_interval"},
}


def test_third_party_imports_stay_in_their_functions():
    misplaced = []
    for path in sorted(Path(fairkep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{owner}.{child.name}")
                    continue
                if isinstance(child, ast.Import):
                    modules = [alias.name for alias in child.names]
                elif isinstance(child, ast.ImportFrom) and not child.level:
                    modules = [child.module]
                else:
                    modules = []
                for module in modules:
                    if module.split(".")[0] in sys.stdlib_module_names:
                        continue
                    # the most specific listed package that holds the module
                    package = max((k for k in THIRD_PARTY_IMPORTERS
                                   if module == k or module.startswith(k + ".")), key=len, default=None)
                    if owner not in THIRD_PARTY_IMPORTERS.get(package, ()):
                        misplaced.append(f"{path.name}:{child.lineno} {module} in {owner}")
                visit(child, owner)

        visit(tree, path.stem)
    assert not misplaced, misplaced


def test_every_private_helper_is_referenced():
    # a deletion can orphan a private helper that only the deleted code
    # called: a private module-level function or class that no module of the
    # library names outside its own body is dead code.  A name counts for its
    # own module, `module.name` and `from .module import name` for that module.
    # A private method of a module-level class (`_Pool._draw`) is dead unless
    # some attribute of that name appears outside its own body.
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(Path(fairkep.__file__).parent.glob("*.py"))}
    private, used, methods = [], set(), []
    for module, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and owner.startswith("_") \
                    and not owner.startswith("__"):
                private.append((module, owner))
            if isinstance(top, ast.ClassDef):
                methods += [(f"{module}.{owner}", m) for m in top.body
                            if isinstance(m, ast.FunctionDef) and m.name.startswith("_")
                            and not m.name.startswith("__")]
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    targets = [(module, node.id)]
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    targets = [(node.value.id, node.attr)]
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    targets = [(node.module, alias.name) for alias in node.names]
                else:
                    continue
                used.update(t for t in targets if t != (module, owner))
    orphans = [f"{module}.{name}" for module, name in private if (module, name) not in used]

    def attributes(node, name):
        return sum(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))

    orphans += [f"{cls}.{m.name}" for cls, m in methods
                if sum(attributes(tree, m.name) for tree in trees.values()) == attributes(m, m.name)]
    assert not orphans, orphans


def test_every_public_function_has_a_caller():
    # a public module-level function is an entry point only if the library or
    # perfbench reaches it, by name or attribute outside its own body, or
    # `fairkep.__all__` exports it; one that only the tests call is dead code
    package = Path(fairkep.__file__).parent
    paths = [*sorted(package.glob("*.py")), *sorted((package.parents[1] / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    public = [(path, top) for path, tree in trees.items() if path.parent == package for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) and not top.name.startswith("_")]

    def references(node, name):
        return sum(isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name
                   for n in ast.walk(node))

    uncalled = [f"{path.stem}.{top.name}" for path, top in public if top.name not in fairkep.__all__
                and sum(references(tree, top.name) for tree in trees.values()) == references(top, top.name)]
    assert not uncalled, uncalled


ROUTES_WITHOUT_THIRD_PARTY = """
import sys
from fractions import Fraction as F
import fairkep.cli
from fairkep import fair, gen, lorenz, sim
from fairkep.core import KepInstance, StructurePolicy
cyc3 = StructurePolicy(max_cycle_len=3)
batches = gen.generate_batches(gen.GenConfig(n_pairs=6, n_ndds=1, seed=5), 3)
sim.run_simulation(batches, sim.SimConfig(policy=cyc3))
pool, _ = fair.preprocess(gen.generate_instance(gen.GenConfig(n_pairs=14, seed=47)), cyc3)
assert len(pool.pairs) <= 18
fair.solve_leximin(pool, cyc3)
# on a triangle of 2-cycles the maximin lottery (1/3 on each edge) is Nash-optimal
triangle = KepInstance(pairs=frozenset({1, 2, 3}), ndds=frozenset(),
                       arcs={(u, v): F(1) for u in (1, 2, 3) for v in (1, 2, 3) if u != v})
assert fair.solve_nash(triangle, StructurePolicy(max_cycle_len=2)).iterations == 1
lorenz.leximin_matching_lottery(gen.generate_instance(gen.GenConfig(n_pairs=30, seed=3)))
print(sorted(m for m in ("numpy", "scipy", "networkx") if m in sys.modules))
"""


def test_routes_load_no_third_party_module():
    # numpy, scipy and networkx load inside the functions that use them; the
    # simulator, small exact leximin, a Nash solve with no corrective step and
    # an unweighted Lorenz lottery reach none of them, so none is loaded
    src = str(Path(fairkep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", ROUTES_WITHOUT_THIRD_PARTY],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
