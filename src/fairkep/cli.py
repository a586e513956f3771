"""Command-line entry point: it reads flags and files, calls the library, and writes files.

Verbs: generate, solve, lottery, sample, simulate, stats, compare, fixtures.
Every run is reproducible from (command line, input files, --seed).  Exit
codes: 0 success, 2 validation/usage error, 3 solver failure.  Exit 2 covers
input and output files that cannot be read, decoded or written: every file
goes through `io` or `_output`, and `run` alone maps errors to exit codes.
No path flag may be empty.  `run` also parses the --policy/--delta/--mu
triple, once, into the StructurePolicy that the verbs taking it (solve,
lottery, simulate, stats, compare) find as `args.policy`.  The verbs pick no
engine: `solve`, `lottery` and `stats` hand that policy to
`fair.best_packing`, `fair.lottery` and `fair.pool_metric`.  A request the
library refuses with ValueError exits 2, like a bad flag.

Outputs are machine-readable JSON or CSV; plotting is left to external
tooling.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO

from . import fair, gen, io, paths, sim
from .core import FairkepError, KepInstance, Packing, StructurePolicy, UNBOUNDED

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

    `run` calls it once per command; no verb reads the three flags again.
    `2path` is `paths.TWO_PATH` and `2cyc2path` `paths.TWO_CYCLE_TWO_PATH`;
    `fair.best_packing` says how `solve` answers them.
    """
    name = spec.strip()
    try:
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
            policy = paths.TWO_PATH
        elif name == "2cyc2path":
            policy = paths.TWO_CYCLE_TWO_PATH
        else:
            raise UsageError(f"unknown policy {spec!r} (expected {POLICY_NAMES})")
        if delta is not None and mu is not None:
            raise UsageError("--delta and --mu are mutually exclusive")
        if delta is not None:
            policy = replace(policy, cardinality_mode="delta", delta=delta)
        if mu is not None:
            policy = replace(policy, cardinality_mode="fixed", mu=mu)
    except ValueError as exc:
        raise UsageError(str(exc))
    return policy


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise UsageError(f"{what} must hold a JSON object")
    return value


def _read_map(path, instance: KepInstance, what: str, edges: bool = False) -> Optional[dict]:
    """{pair: rational} from a JSON object keyed by pair ids, or with edges
    {(u, v): rational} keyed by "u,v" mutual-compatibility edges (u < v);
    None for no path."""
    if path is None:
        return None
    raw = _json_object(io.read_json(path), f"{what} file {path}")
    valid = instance.undirected_edges() if edges else instance.pairs
    out: dict = {}
    for k, x in raw.items():
        try:
            ids = [int(t) for t in k.split(",")]
        except ValueError:
            ids = []
        key = (min(ids), max(ids)) if edges and len(ids) == 2 else ids[0] if len(ids) == 1 else None
        if key not in valid:
            kind = "mutual-compatibility edge 'u,v'" if edges else "pair"
            raise UsageError(f"{what} key {k!r} in {path} names no {kind} of the instance")
        out[key] = io.parse_rational(x, f"{what}[{k}] in {path}")
    return out


@contextmanager
def _output(path: Optional[str]):
    """A context holding the file at path, closed on exit, or stdout if no path is given.

    A file it created is removed again if the command fails inside it; a
    path that was there before (a file it truncated, /dev/null) stays.
    """
    if path is None:
        yield sys.stdout
        return
    created = not os.path.lexists(path)
    try:
        with open(path, "w") as stream:
            yield stream
    except BaseException:
        if created:
            Path(path).unlink(missing_ok=True)
        raise


def _dump(obj, stream: TextIO) -> None:
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _emit(obj, out: Optional[str]) -> None:
    with _output(out) as stream:
        _dump(obj, stream)


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
    return {"structures": io.packing_to_list(packing), "covered": sorted(packing.covered)}


# ---------------------------------------------------------------------------
# distribution files (generate verb)


def _split_pairing(key: str) -> tuple[str, str]:
    parts = key.split(",")
    if len(parts) != 2 or not all(p in gen.BLOOD_TYPES for p in parts):
        raise UsageError(f"bad blood pairing key {key!r} (expected 'PATIENT,DONOR')")
    return parts[0], parts[1]


def load_gen_config(n_pairs: int, n_ndds: int, seed: int, dist_path: Optional[str]) -> gen.GenConfig:
    """GenConfig from flags plus an optional JSON distribution file.

    The file holds one JSON object mirroring GenConfig: blood_pair_distribution
    keyed by "PATIENT,DONOR", pra_conditional mapping the same keys to
    {pra: prob}, donor_bt_distribution keyed by blood type.  Missing sections
    keep the defaults.  A file io.read_json cannot read or decode raises its
    OSError or io.ParseError; anything malformed in its content, or in the
    config it describes, is a UsageError.
    """
    kwargs: dict = {}
    try:
        if dist_path is not None:
            data = _json_object(io.read_json(dist_path), f"distribution file {dist_path}")

            def section(name: str):
                return _json_object(data[name], f"{name} in {dist_path}").items()

            if "blood_pair_distribution" in data:
                kwargs["blood_pair_distribution"] = {
                    _split_pairing(k): float(p) for k, p in section("blood_pair_distribution")
                }
            if "pra_conditional" in data:
                kwargs["pra_conditional"] = {
                    _split_pairing(k): {
                        int(b): float(p)
                        for b, p in _json_object(dist, f"pra_conditional[{k}]").items()
                    }
                    for k, dist in section("pra_conditional")
                }
            if "donor_bt_distribution" in data:
                kwargs["donor_bt_distribution"] = {
                    k: float(p) for k, p in section("donor_bt_distribution")
                }
        return gen.GenConfig(n_pairs=n_pairs, n_ndds=n_ndds, seed=seed, **kwargs)
    except (TypeError, ValueError, gen.InvalidDistribution) as exc:
        raise UsageError(f"bad distribution file {dist_path}: {exc}" if dist_path is not None else str(exc))


# ---------------------------------------------------------------------------
# coverage-distribution CSV export


def export_coverage_distribution(entries: Iterable[tuple], out: TextIO) -> None:
    """CSV of sorted inclusion frequencies with Jeffreys 95% CI columns.

    Each entry is (label, frequencies, intervals): the nondecreasing
    empirical inclusion frequencies of one algorithm and the (lo, hi)
    interval of each, as `sim.CompareResult` holds them.
    An entry without pairs (a pool with none) writes no rows.
    """
    entries = list(entries)
    if not entries:
        raise UsageError("export_coverage_distribution needs at least one entry")
    writer = csv.writer(out)
    writer.writerow(["rank", "q", "ci_lo", "ci_hi", "algorithm"])
    for label, freqs, intervals in entries:
        for rank, (q_hat, (lo, hi)) in enumerate(zip(freqs, intervals)):
            writer.writerow([rank, f"{q_hat:.10g}", f"{lo:.10g}", f"{hi:.10g}", label])


# ---------------------------------------------------------------------------
# verbs


def _cmd_generate(args) -> int:
    config = load_gen_config(args.pairs, args.ndds, args.seed, args.dist)
    if args.batches is None:
        io.write_instance(gen.generate_instance(config),
                          "instance.json" if args.output is None else args.output)
        return EXIT_OK
    batches = gen.generate_batches(config, args.batches)
    outdir = Path("batches" if args.output is None else args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, inst in enumerate(batches):
        io.write_instance(inst, outdir / f"batch_{i:03d}.json")
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = io.read_instance(args.instance)
    prices = _read_map(args.prices, instance, "price")
    packing, value, certificate = fair.best_packing(instance, args.policy, prices)
    result = _packing_dict(packing)
    if value is not None:
        result["value"] = _num(value)
    if certificate is not None:
        result["deficiency"] = {"ndd_set": sorted(certificate.ndd_set),
                                "deficiency": certificate.deficiency}
    _emit(result, args.output)
    return EXIT_OK


def _cmd_lottery(args) -> int:
    instance = io.read_instance(args.instance)
    report = fair.lottery(instance, args.policy, args.objective, tol=args.tol,
                          node_weights=_read_map(args.node_weights, instance, "weight"),
                          edge_weights=_read_map(args.edge_weights, instance, "weight", edges=True))
    pairs = sorted(instance.pairs)
    q = report.lottery.marginals(pairs)
    _emit({
        "objective": _num(report.objective),
        "iterations": report.iterations,
        "pricing_calls": report.pricing_calls,
        "gap": _num(report.gap),
        "marginals": {str(v): _num(q[v]) for v in pairs},
        "lottery": io.lottery_to_dict(report.lottery),
    }, args.output)
    return EXIT_OK


def _cmd_sample(args) -> int:
    lottery = io.read_lottery(args.lottery).merged()
    rng = random.Random(args.seed)
    draws = [_packing_dict(lottery.draw(rng.random())) for _ in range(args.n)]
    _emit({"seed": args.seed, "draws": draws}, args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    batch_dir = Path(args.batches)
    files = sorted(batch_dir.glob("*.json"))
    if not files:
        raise UsageError(f"no *.json batch files in {batch_dir}")
    batches = [io.read_instance(f) for f in files]
    weighting = sim.WaitTimeLinear() if args.wait_weighting else None
    config = sim.SimConfig(policy=args.policy, algorithm=args.algorithm, weighting=weighting,
                           replications=args.replications, seed=args.seed)
    trace, stats = sim.run_simulation(batches, config)
    # both outputs open before either is written, the trace first: a bad
    # --trace path fails before the -o file is created, and a bad -o path
    # removes the trace file the run created
    with (_output(args.trace) if args.trace is not None else nullcontext()) as periods, \
            _output(args.output) as stream:
        writer = csv.writer(stream)
        writer.writerow(["algorithm", "num_matched", "median_wait", "p90_wait", "max_wait", "mean_wait"])
        writer.writerow(
            [args.algorithm]
            + [f"{x:.10g}" for x in (stats.num_matched, stats.median, stats.p90, stats.max, stats.mean)]
        )
        if periods:
            _dump({"periods": [
                {"arrivals": sorted(p.arrivals), "matched": sorted(p.matched), "pool_size": p.pool_size}
                for p in trace.periods
            ]}, periods)
    return EXIT_OK


def _cmd_stats(args) -> int:
    instance = io.read_instance(args.instance)
    if args.node is not None and args.metric != "coverage_loss":
        raise UsageError(f"--node reads only --metric coverage_loss, not {args.metric}")
    if args.node is not None and args.node not in instance.pairs:
        raise UsageError(f"--node {args.node} is not a pair of the instance")
    value = fair.pool_metric(instance, args.policy, args.metric)
    if args.metric == "always_covered":
        value = {"count": value[0], "pairs": sorted(value[1])}
    elif args.metric == "coverage_loss":
        # a pair no packing covers has no loss: null
        value = value[args.node] if args.node is not None else {str(v): x for v, x in value.items()}
    _emit(value, args.output)
    return EXIT_OK


def _cmd_compare(args) -> int:
    instance = io.read_instance(args.instance)
    result = sim.compare_heuristics(instance, args.runs, seed=args.seed, policy=args.policy)
    with _output(args.output) as stream:
        export_coverage_distribution(
            [
                (sim.HEURISTIC_ILP_SHUFFLE, result.sorted_ilp_shuffle, result.ci_ilp_shuffle),
                (sim.HEURISTIC_NODE_SHUFFLE, result.sorted_node_shuffle, result.ci_node_shuffle),
            ],
            stream,
        )
    if args.output is not None:  # the summary goes to stdout beside a CSV file
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
    if args.name != "3dm" and (args.size is not None or args.triples is not None):
        raise UsageError(f"fixtures {args.name} takes no --size or --triples")
    if args.name == "fig1a":
        instance = _fixture_fig1a()
    elif args.name == "fig1b":
        instance = _fixture_fig1b()
    else:  # 3dm gadget
        if args.size is None or args.triples is None:
            raise UsageError("fixtures 3dm requires --size and --triples 'x,y,z;x,y,z;...'")
        triples = []
        for part in args.triples.split(";"):
            try:
                x, y, z = (int(t) for t in part.split(","))
            except ValueError:
                raise UsageError(f"bad triple {part!r}")
            triples.append((x, y, z))
        instance = paths.build_3dm_gadget(triples, args.size)
    io.write_instance(instance, f"{args.name}.json" if args.output is None else args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _checked(cast, ok, what: str):
    """An argparse type: cast the flag's text, refusing a value that fails ok."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_positive_float = _checked(float, lambda x: x > 0, "a positive number")
_positive_int = _checked(int, lambda x: x > 0, "a positive integer")
_nonnegative_int = _checked(int, lambda x: x >= 0, "a non-negative integer")
# an empty path would name no file, or the working directory as a directory
_path = _checked(str, bool, "a path")


def _add_common(sub, seed: bool = False, policy: bool = False) -> None:
    """-o/--output, plus --seed and --policy/--delta/--mu for the verbs that read them."""
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if policy:
        sub.add_argument("--policy", default="cyc3", help=POLICY_NAMES)
        sub.add_argument("--delta", type=int, default=None)
        sub.add_argument("--mu", type=int, default=None)
    sub.add_argument("-o", "--output", type=_path, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairkep", description="Fair lotteries over kidney-exchange packings."
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("generate", help="generate synthetic instances")
    _add_common(p, seed=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--ndds", type=int, default=0)
    p.add_argument("--dist", type=_path, default=None, help="JSON distribution file")
    p.add_argument("--batches", type=_positive_int, default=None, help="write N batch files instead of one instance")
    p.set_defaults(func=_cmd_generate)

    p = subs.add_parser("solve", help="one optimal packing under a policy")
    _add_common(p, policy=True)
    p.add_argument("--prices", type=_path, default=None, help="JSON {node: price}")
    p.add_argument("instance", type=_path)
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("lottery", help="fair lottery over acceptable packings")
    _add_common(p, policy=True)
    p.add_argument("--tol", type=_positive_float, default=1e-6, help="nash convergence tolerance")
    p.add_argument("--objective", choices=fair.OBJECTIVES, default="leximin")
    p.add_argument("--node-weights", type=_path, default=None,
                   help="JSON {node: weight} (--policy match only)")
    p.add_argument("--edge-weights", type=_path, default=None,
                   help="JSON {'u,v': weight} (--policy match only)")
    p.add_argument("instance", type=_path)
    p.set_defaults(func=_cmd_lottery)

    p = subs.add_parser("sample", help="draw packings from a lottery file")
    _add_common(p, seed=True)
    p.add_argument("-n", type=_nonnegative_int, default=1)
    p.add_argument("lottery", type=_path)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("simulate", help="dynamic pool simulation over batches")
    _add_common(p, seed=True, policy=True)
    p.add_argument("--batches", type=_path, required=True, help="directory of batch_*.json files")
    p.add_argument("--algorithm", choices=sim.ALGORITHMS, default=sim.IMPLICIT)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--wait-weighting", action="store_true", help="linear waiting-time prices")
    p.add_argument("--trace", type=_path, default=None, help="also write the period trace JSON here")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("stats", help="structural metrics of an instance")
    _add_common(p, policy=True)
    p.add_argument("--metric", choices=fair.METRICS, required=True)
    p.add_argument("--node", type=int, default=None)
    p.add_argument("instance", type=_path)
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("compare", help="empirical comparison of heuristic variants")
    _add_common(p, seed=True, policy=True)
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("instance", type=_path)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("fixtures", help="write benchmark fixture instances")
    _add_common(p)
    p.add_argument("name", choices=("fig1a", "fig1b", "3dm"))
    p.add_argument("--size", type=_positive_int, default=None)
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
        if hasattr(args, "policy"):  # the verbs that take --policy/--delta/--mu
            args.policy = parse_policy(args.policy, args.delta, args.mu)
        return args.func(args)
    except (UsageError, ValueError, io.ParseError, OSError) as exc:  # flags, files, refused requests
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FairkepError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
