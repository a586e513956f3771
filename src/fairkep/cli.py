"""Command-line entry point wiring all modules together.

Verbs: generate, solve, lottery, sample, simulate, stats, compare, fixtures.
Every run is reproducible from (command line, input files, --seed).  Exit
codes: 0 success, 2 validation/usage error, 3 solver failure.

Outputs are machine-readable JSON or CSV; plotting is left to external
tooling.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO

from . import fair, gen, io, lorenz, oracle, paths, sim
from .core import (
    FairkepError,
    KepInstance,
    Packing,
    StructurePolicy,
    UNBOUNDED,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

POLICY_NAMES = "match|cyc3|cyc3chain[:L]|2path|2cyc2path"


class UsageError(FairkepError):
    """Bad flags or malformed input files (exit code 2)."""


# ---------------------------------------------------------------------------
# flag parsing helpers


def parse_policy(spec: str, delta: Optional[int] = None, mu: Optional[int] = None) -> StructurePolicy:
    """Translate a --policy string (plus --delta/--mu) into a StructurePolicy.

    `2path` has a dedicated solver with a deficiency certificate
    (`paths.max_2path_packing`), reached from the `solve` verb; elsewhere it
    parses to the policy that validates its outputs.  `2cyc2path` is
    `paths.TWO_CYCLE_TWO_PATH`, an ordinary oracle family for every verb;
    `solve` answers it with one value-only maximum-cardinality query.  Both
    `solve` branches refuse `--prices`, `--delta` and `--mu`.
    """
    name = spec.strip()
    if name in ("match", "matching"):
        policy = StructurePolicy(max_cycle_len=2)
    elif name == "cyc3":
        policy = StructurePolicy(max_cycle_len=3)
    elif name == "cyc3chain" or name.startswith("cyc3chain:"):
        length: float = UNBOUNDED
        if ":" in name:
            tail = name.split(":", 1)[1]
            if tail not in ("inf", "unbounded", "∞"):
                try:
                    length = int(tail)
                except ValueError:
                    raise UsageError(f"bad chain length {tail!r} in --policy {spec!r}")
        policy = StructurePolicy(max_cycle_len=3, max_chain_len=length)
    elif name == "2path":
        policy = StructurePolicy(max_cycle_len=None, max_chain_len=2, min_chain_len=2)
    elif name == "2cyc2path":
        policy = paths.TWO_CYCLE_TWO_PATH
    else:
        raise UsageError(f"unknown policy {spec!r} (expected {POLICY_NAMES})")
    if delta is not None and mu is not None:
        raise UsageError("--delta and --mu are mutually exclusive")
    try:
        if delta is not None:
            policy = replace(policy, cardinality_mode="delta", delta=delta)
        if mu is not None:
            policy = replace(policy, cardinality_mode="fixed", mu=mu)
    except ValueError as exc:
        raise UsageError(str(exc))
    return policy


def _read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _load_instance(path) -> KepInstance:
    try:
        return io.read_instance(path)
    except (OSError, io.ParseError, ValueError) as exc:
        raise UsageError(f"bad instance file {path}: {exc}")


def _out_stream(path: Optional[str]):
    return open(path, "w") if path else sys.stdout


def _emit(obj, out: Optional[str]) -> None:
    stream = _out_stream(out)
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")
    if stream is not sys.stdout:
        stream.close()


def _num(x) -> object:
    """JSON-friendly number: exact rationals as strings, floats as floats."""
    if isinstance(x, Fraction):
        return io.format_rational(x)
    if isinstance(x, tuple):
        return [_num(v) for v in x]
    if isinstance(x, int):
        return x
    return float(x)


def _packing_dict(packing: Packing) -> dict:
    return {
        "structures": [io._structure_to_list(s) for s in packing.sorted_structures()],
        "covered": sorted(packing.covered),
    }


# ---------------------------------------------------------------------------
# distribution files (generate verb)


def _split_pairing(key: str) -> tuple[str, str]:
    parts = key.split(",")
    if len(parts) != 2 or not all(p in gen.BLOOD_TYPES for p in parts):
        raise UsageError(f"bad blood pairing key {key!r} (expected 'PATIENT,DONOR')")
    return parts[0], parts[1]


def load_gen_config(n_pairs: int, n_ndds: int, seed: int, dist_path: Optional[str]) -> gen.GenConfig:
    """GenConfig from flags plus an optional JSON distribution file.

    The file mirrors GenConfig: blood_pair_distribution keyed by
    "PATIENT,DONOR", pra_conditional mapping the same keys to {pra: prob},
    donor_bt_distribution keyed by blood type.  Missing sections keep the
    defaults.
    """
    kwargs: dict = {}
    if dist_path:
        data = _read_json(dist_path)
        if "blood_pair_distribution" in data:
            kwargs["blood_pair_distribution"] = {
                _split_pairing(k): float(p)
                for k, p in data["blood_pair_distribution"].items()
            }
        if "pra_conditional" in data:
            kwargs["pra_conditional"] = {
                _split_pairing(k): {int(b): float(p) for b, p in dist.items()}
                for k, dist in data["pra_conditional"].items()
            }
        if "donor_bt_distribution" in data:
            kwargs["donor_bt_distribution"] = {
                k: float(p) for k, p in data["donor_bt_distribution"].items()
            }
    try:
        return gen.GenConfig(n_pairs=n_pairs, n_ndds=n_ndds, seed=seed, **kwargs)
    except (ValueError, gen.InvalidDistribution) as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# coverage-distribution CSV export


def export_coverage_distribution(entries: Iterable[tuple], out: TextIO) -> None:
    """CSV of sorted inclusion probabilities with Jeffreys 95% CI columns.

    Each entry is (label, (counts_by_pair, n_runs)) of empirical inclusion
    counts.  Rows are sorted nondecreasing within each label block.
    """
    writer = csv.writer(out)
    writer.writerow(["rank", "q", "ci_lo", "ci_hi", "algorithm"])
    wrote = False
    for label, (counts, n_runs) in entries:
        rows = []
        for v in sorted(counts):
            lo, hi = sim.jeffreys_interval(counts[v], n_runs)
            rows.append((counts[v] / n_runs, lo, hi))
        rows.sort()
        for rank, (q_hat, lo, hi) in enumerate(rows):
            writer.writerow([rank, f"{q_hat:.10g}", f"{lo:.10g}", f"{hi:.10g}", label])
            wrote = True
    if not wrote:
        raise UsageError("export_coverage_distribution needs at least one result")


# ---------------------------------------------------------------------------
# verbs


def _cmd_generate(args) -> int:
    config = load_gen_config(args.pairs, args.ndds, args.seed, args.dist)
    if args.batches is None:
        io.write_instance(gen.generate_instance(config), args.output or "instance.json")
        return EXIT_OK
    batches = gen.generate_batches(config, args.batches)
    outdir = Path(args.output or "batches")
    outdir.mkdir(parents=True, exist_ok=True)
    for i, inst in enumerate(batches):
        io.write_instance(inst, outdir / f"batch_{i:03d}.json")
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    if args.policy in ("2path", "2cyc2path"):
        given = {"--prices": args.prices, "--delta": args.delta, "--mu": args.mu}
        unread = [flag for flag, value in given.items() if value is not None]
        if unread:
            raise UsageError(
                f"solve --policy {args.policy} finds a maximum packing; it takes no {', '.join(unread)}"
            )
    if args.policy == "2path":
        packing2, cert = paths.max_2path_packing(instance)
        result = _packing_dict(packing2.as_packing())
        result["deficiency"] = {
            "ndd_set": sorted(cert.ndd_set),
            "deficiency": cert.deficiency,
        }
        _emit(result, args.output)
        return EXIT_OK
    if args.policy == "2cyc2path":
        packing = paths.max_2cycle_2path_packing(instance)
        _emit(_packing_dict(packing), args.output)
        return EXIT_OK
    policy = parse_policy(args.policy, args.delta, args.mu)
    if args.prices:
        raw = _read_json(args.prices)
        prices = {int(v): io.parse_rational(p, f"price[{v}]") for v, p in raw.items()}
    else:
        prices = {v: Fraction(1) for v in instance.pairs}
    family = oracle.PackingFamily(instance, policy)
    card = oracle.acceptable_cardinality(instance, policy, family)
    query = oracle.OracleQuery(
        instance=instance, policy=policy, node_prices=prices, cardinality=card
    )
    packing, value = oracle.max_price_packing(query, family=family)
    result = _packing_dict(packing)
    result["value"] = _num(value)
    _emit(result, args.output)
    return EXIT_OK


def _coverable_losses(instance: KepInstance, policy) -> dict[int, int]:
    """Coverage loss of each pair some packing covers (δ* is the largest); the rest are dropped."""
    return {v: x for v, x in oracle.coverage_losses(instance, policy).items() if x is not None}


def _solve_lottery(instance: KepInstance, args) -> fair.SolveReport:
    policy = parse_policy(args.policy, args.delta, args.mu)
    if args.delta is None and args.mu is None and args.objective != "utilitarian":
        # fairness objectives are only interesting on the family that trades a
        # little cardinality for coverage; default to the smallest sufficient
        # relaxation, δ* over the coverable pairs.
        kept = _coverable_losses(instance, policy)
        instance = instance.restrict(kept)
        policy = replace(policy, cardinality_mode="delta", delta=max(kept.values(), default=0))
    if args.objective == "utilitarian":
        return fair.solve_utilitarian(instance, policy)
    if args.objective == "maximin":
        return fair.solve_maximin(instance, policy)
    if args.objective == "leximin":
        return fair.solve_leximin(instance, policy)
    if args.objective == "nash":
        return fair.solve_nash(instance, policy, tol=args.tol)
    return fair.solve_gini(instance, policy, tol=min(args.tol, 1e-8))


def _cmd_lottery(args) -> int:
    instance = _load_instance(args.instance)
    weighted = args.node_weights or args.edge_weights
    if weighted or (args.mu is not None and args.policy in ("match", "matching")):
        # matching-engine reductions (exact, leximin only)
        if args.objective != "leximin":
            raise UsageError("weighted/fixed-cardinality lotteries support --objective leximin only")
        if args.node_weights:
            raw = _read_json(args.node_weights)
            w = {int(v): io.parse_rational(x, f"weight[{v}]") for v, x in raw.items()}
            lottery = lorenz.node_weight_leximin(instance, w)
        elif args.edge_weights:
            raw = _read_json(args.edge_weights)
            ew = {}
            for k, x in raw.items():
                u, v = (int(t) for t in k.split(","))
                ew[(min(u, v), max(u, v))] = io.parse_rational(x, f"weight[{k}]")
            lottery = lorenz.edge_weight_reduction(instance, ew)
        else:
            policy = parse_policy(args.policy, args.delta, args.mu)
            lottery = lorenz.fixed_cardinality_reduction(instance, mu=policy.mu)
        report_dict = {"objective": "leximin", "iterations": 0, "gap": 0}
    else:
        report = _solve_lottery(instance, args)
        lottery = report.lottery
        report_dict = {
            "objective": _num(report.objective),
            "iterations": report.iterations,
            "pricing_calls": report.pricing_calls,
            "gap": _num(report.gap),
        }
    pairs = sorted(instance.pairs)
    q = lottery.marginals(pairs)
    report_dict["marginals"] = {str(v): _num(q[v]) for v in pairs}
    report_dict["lottery"] = io.lottery_to_dict(lottery)
    _emit(report_dict, args.output)
    return EXIT_OK


def _cmd_sample(args) -> int:
    data = _read_json(args.lottery)
    if "lottery" in data and "support" not in data:  # full `lottery` verb report
        data = data["lottery"]
    try:
        lottery = io.lottery_from_dict(data)
    except (io.ParseError, ValueError) as exc:
        raise UsageError(f"bad lottery file {args.lottery}: {exc}")
    rng = random.Random(args.seed)
    support = lottery.merged().support
    draws = []
    for _ in range(args.n):
        x = rng.random()
        acc = Fraction(0)
        chosen = support[-1][0]
        for packing, p in support:
            acc += p
            if x < acc:
                chosen = packing
                break
        draws.append(_packing_dict(chosen))
    _emit({"seed": args.seed, "draws": draws}, args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    batch_dir = Path(args.batches)
    files = sorted(batch_dir.glob("*.json"))
    if not files:
        raise UsageError(f"no *.json batch files in {batch_dir}")
    batches = [_load_instance(f) for f in files]
    policy = parse_policy(args.policy, args.delta, args.mu)
    weighting = sim.WaitTimeLinear() if args.wait_weighting else None
    try:
        config = sim.SimConfig(
            policy=policy,
            algorithm=args.algorithm,
            weighting=weighting,
            replications=args.replications,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    trace, stats = sim.run_simulation(batches, config)
    stream = _out_stream(args.output)
    writer = csv.writer(stream)
    writer.writerow(["algorithm", "num_matched", "median_wait", "p90_wait", "max_wait", "mean_wait"])
    writer.writerow(
        [args.algorithm]
        + [f"{x:.10g}" for x in (stats.num_matched, stats.median, stats.p90, stats.max, stats.mean)]
    )
    if stream is not sys.stdout:
        stream.close()
    if args.trace:
        _emit(
            {
                "periods": [
                    {
                        "arrivals": sorted(p.arrivals),
                        "matched": sorted(p.matched),
                        "pool_size": p.pool_size,
                    }
                    for p in trace.periods
                ]
            },
            args.trace,
        )
    return EXIT_OK


def _cmd_stats(args) -> int:
    instance = _load_instance(args.instance)
    policy = parse_policy(args.policy, args.delta, args.mu)
    if args.metric == "delta_star":
        value: object = max(_coverable_losses(instance, policy).values(), default=0)
    elif args.metric == "always_covered":
        count, members = oracle.always_covered_count(instance, policy)
        value = {"count": count, "pairs": sorted(members)}
    elif args.metric == "coverage_loss":
        if args.node is not None and args.node not in instance.pairs:
            raise UsageError(f"--node {args.node} is not a pair of the instance")
        # a pair no packing covers has no loss: null
        losses = oracle.coverage_losses(instance, policy)
        if args.node is not None:
            value = losses[args.node]
        else:
            value = {str(v): loss for v, loss in losses.items()}
    else:  # max_cardinality
        value = oracle.max_cardinality(instance, policy)
    _emit(value, args.output)
    return EXIT_OK


def _cmd_compare(args) -> int:
    instance = _load_instance(args.instance)
    policy = parse_policy(args.policy, args.delta, args.mu)
    try:
        result = sim.compare_heuristics(instance, args.runs, seed=args.seed, policy=policy)
    except ValueError as exc:  # too few --runs
        raise UsageError(str(exc))
    counts_a = {i: round(f * args.runs) for i, f in enumerate(result.sorted_ilp_shuffle)}
    counts_b = {i: round(f * args.runs) for i, f in enumerate(result.sorted_node_shuffle)}
    stream = _out_stream(args.output)
    export_coverage_distribution(
        [
            (sim.HEURISTIC_ILP_SHUFFLE, (counts_a, args.runs)),
            (sim.HEURISTIC_NODE_SHUFFLE, (counts_b, args.runs)),
        ],
        stream,
    )
    if stream is not sys.stdout:
        stream.close()
        _emit(
            {
                "max_abs_difference": result.max_abs_difference,
                "mean_abs_difference": result.integral,
            },
            None,
        )
    return EXIT_OK


def _fixture_fig1a() -> KepInstance:
    arcs = [(1, 2), (2, 1), (2, 3), (3, 4), (4, 2)]
    return KepInstance(
        pairs=frozenset(range(1, 5)), arcs={a: Fraction(1) for a in arcs}
    )


def _fixture_fig1b() -> KepInstance:
    arcs = [(1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 2), (3, 6), (6, 7), (7, 3)]
    return KepInstance(
        pairs=frozenset(range(1, 8)), arcs={a: Fraction(1) for a in arcs}
    )


def _cmd_fixtures(args) -> int:
    if args.name == "fig1a":
        instance = _fixture_fig1a()
    elif args.name == "fig1b":
        instance = _fixture_fig1b()
    else:  # 3dm gadget
        if args.size is None or args.triples is None:
            raise UsageError("fixtures 3dm requires --size and --triples 'x,y,z;x,y,z;...'")
        triples = []
        for part in args.triples.split(";"):
            xs = [int(t) for t in part.split(",")]
            if len(xs) != 3:
                raise UsageError(f"bad triple {part!r}")
            triples.append((xs[0], xs[1], xs[2]))
        instance = paths.build_3dm_gadget(triples, args.size)
    io.write_instance(instance, args.output or f"{args.name}.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, seed: bool = False, policy: bool = False) -> None:
    """-o/--output, plus --seed and --policy/--delta/--mu for the verbs that read them."""
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if policy:
        sub.add_argument("--policy", default="cyc3", help=POLICY_NAMES)
        sub.add_argument("--delta", type=int, default=None)
        sub.add_argument("--mu", type=int, default=None)
    sub.add_argument("-o", "--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairkep", description="Fair lotteries over kidney-exchange packings."
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("generate", help="generate synthetic instances")
    _add_common(p, seed=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--ndds", type=int, default=0)
    p.add_argument("--dist", default=None, help="JSON distribution file")
    p.add_argument("--batches", type=int, default=None, help="write N batch files instead of one instance")
    p.set_defaults(func=_cmd_generate)

    p = subs.add_parser("solve", help="one optimal packing under a policy")
    _add_common(p, policy=True)
    p.add_argument("--prices", default=None, help="JSON {node: price}")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("lottery", help="fair lottery over acceptable packings")
    _add_common(p, policy=True)
    p.add_argument("--tol", type=float, default=1e-6, help="nash/gini convergence tolerance")
    p.add_argument(
        "--objective",
        choices=("utilitarian", "maximin", "leximin", "nash", "gini"),
        default="leximin",
    )
    p.add_argument("--node-weights", default=None, help="JSON {node: weight} (matching policies)")
    p.add_argument("--edge-weights", default=None, help="JSON {'u,v': weight} (matching policies)")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_lottery)

    p = subs.add_parser("sample", help="draw packings from a lottery file")
    _add_common(p, seed=True)
    p.add_argument("-n", type=int, default=1)
    p.add_argument("lottery")
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("simulate", help="dynamic pool simulation over batches")
    _add_common(p, seed=True, policy=True)
    p.add_argument("--batches", required=True, help="directory of batch_*.json files")
    p.add_argument("--algorithm", choices=sim.ALGORITHMS, default=sim.IMPLICIT)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--wait-weighting", action="store_true", help="linear waiting-time prices")
    p.add_argument("--trace", default=None, help="also write the period trace JSON here")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("stats", help="structural metrics of an instance")
    _add_common(p, policy=True)
    p.add_argument(
        "--metric",
        choices=("delta_star", "always_covered", "coverage_loss", "max_cardinality"),
        required=True,
    )
    p.add_argument("--node", type=int, default=None)
    p.add_argument("instance")
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("compare", help="empirical comparison of heuristic variants")
    _add_common(p, seed=True, policy=True)
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("instance")
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("fixtures", help="write benchmark fixture instances")
    _add_common(p)
    p.add_argument("name", choices=("fig1a", "fig1b", "3dm"))
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--triples", default=None, help="'x,y,z;x,y,z;...'")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FairkepError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
