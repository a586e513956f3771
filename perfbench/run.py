#!/usr/bin/env python3
"""Benchmark of the fairkep library: one closed-loop client, one item at a time.

Run from the repository root:

    python3 perfbench/run.py --workload exact-lottery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are the per-layer metrics of a
separate traced run, whose spans are also written to .bench_out/.  See
perfbench/README.md for what every metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LIBRARY = ("fairkep.fair", "fairkep.gen", "fairkep.io", "fairkep.lorenz", "fairkep.oracle",
           "fairkep.sim")
SETUP_REPEATS = 5
GIVE_UP = 5  # stop starting items after this many times --seconds
TAIL_BEYOND = 10
# The machines this runs on change speed by up to 40%, in spells of seconds to
# minutes.  A frozen calibration kernel (calibrate.py) is timed before the
# measured loop and at least every PROBE_EVERY_S of it.  Each execution is
# reported at nominal speed, the speed at which the kernel takes
# NOMINAL_PROBE_S, judged by the probes within LOCAL_WINDOW_S of it, so that a
# change in the program moves the item timing metrics and a change in the
# machine's load mostly does not.
NOMINAL_PROBE_S = 0.045
PROBE_EVERY_S = 0.5
LOCAL_WINDOW_S = 1.5
# The library's import is mostly that of the third-party modules it loads, and
# it does not follow the kernel's speed.  Each import, in a fresh interpreter,
# is timed between two imports of those modules alone, and reported at the
# speed at which that reference import takes NOMINAL_REFERENCE_IMPORT_S.  The
# suite's generation, timed before the loop's probes, is reported as measured:
# scaling it by the loop's kernel speed made it spread more across runs.
REFERENCE_IMPORT = ("numpy", "scipy.optimize", "networkx")
NOMINAL_REFERENCE_IMPORT_S = 0.8


def import_library() -> None:
    """Import fairkep from this checkout's src/ (never an installed copy)."""
    if not (SRC / "fairkep" / "__init__.py").is_file():
        sys.exit(f"error: no fairkep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    for name in LIBRARY:
        importlib.import_module(name)
    import fairkep

    if Path(fairkep.__file__).resolve().parent != SRC / "fairkep":
        sys.exit(f"error: imported fairkep from {fairkep.__file__}, not {SRC}")


def fresh_import_seconds(modules: tuple[str, ...]) -> float:
    """Time to import `modules` in a new interpreter, measured inside it."""
    code = (f"import time; t = time.perf_counter(); import {', '.join(modules)}; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def load_reference(profile: str, workload: str) -> dict:
    path = BENCH / "reference" / f"{profile}-{workload}.json"
    with open(path) as fh:
        return {int(u): ref for u, ref in json.load(fh).items()}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, items beyond): the highest percentile with at
    least TAIL_BEYOND items beyond it, or the maximum on shorter runs."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def execute(wl, inputs, p, rec):
    """Run one item; returns (seconds, result, error text)."""
    t0 = time.perf_counter()
    try:
        result, error = wl.run(inputs, p, rec), None
    except Exception as e:  # an item that raises counts as failed, the run goes on
        result, error = None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, result, error


def verify(wl, inputs, p, result, ref) -> list[str]:
    try:
        return wl.check(inputs, p, result) + wl.compare(inputs, p, result, ref)
    except Exception as e:  # a check that cannot complete is a failed check
        return [f"check raised {type(e).__name__}: {e}"]


def benchmark(workload: str, seed: int, seconds: float, trace: bool, profile: str = "full",
              log=print) -> dict:
    from tracing import Instrumentation, Recorder, layer_metrics, self_by_layer
    from workloads import WORKLOADS, NullRecorder

    wl = WORKLOADS[workload](profile)
    params = [wl.params(u) for u in wl.order(seed)]
    reference = load_reference(profile, workload)
    null = NullRecorder()

    rec = Recorder() if trace else None
    if trace:
        instrumentation = Instrumentation(rec)
        with instrumentation:
            inputs = [wl.generate(p) for p in params]
    else:
        reference_imports = [fresh_import_seconds(REFERENCE_IMPORT)]
        imports, gens = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(fresh_import_seconds(LIBRARY))
            reference_imports.append(fresh_import_seconds(REFERENCE_IMPORT))
            t0 = time.perf_counter()
            inputs = [wl.generate(p) for p in params]
            gens.append(time.perf_counter() - t0)

    # lazy imports inside the library (scipy's MILP, for one) happen on first
    # use; a tiny item of the same kind pays for them before timing starts
    warm = WORKLOADS[workload]("smoke")
    for u in range(2):
        warm_p = warm.params(u)
        execute(warm, warm.generate(warm_p), warm_p, null)

    failures = []  # (params, problems): items that raised or failed a check
    quality: dict[str, list[float]] = {}

    def check(n: int, k: int, pass_no: int, result, error) -> None:
        """Verify item n as soon as it ends, outside its timing; only the
        verdict is kept, so the heap does not grow over the run."""
        p = params[k]
        if error is not None:
            failures.append((p, [error]))
            return
        if trace:
            rec.item = n
            with rec.span("core.verify", "core"):
                problems = verify(wl, inputs[k], p, result, reference.get(p["u"]))
            rec.item = None
        else:
            problems = verify(wl, inputs[k], p, result, reference.get(p["u"]))
        if problems:
            failures.append((p, problems))
        elif pass_no == 0:
            for key, value in wl.quality(inputs[k], p, result).items():
                quality.setdefault(key, []).append(value)

    # the suite's inputs live for the whole run: keep the collector off them
    gc.collect()
    gc.freeze()
    probes = []  # (midpoint, kernel seconds)

    def probe() -> None:
        t0 = time.perf_counter()
        took = calibrate.probe()
        probes.append((t0 + took / 2, took))

    probe()

    # closed loop, one client: the next item starts when the previous one has
    # finished.  Whole passes over the suite until `seconds` have elapsed, so
    # every run executes the same multiset of items; a pass is abandoned only
    # when the run has overrun its length many times over.
    runs = []  # (suite position, midpoint, measured s, traced s)
    start = last_probe = time.perf_counter()
    give_up = start + GIVE_UP * seconds
    passes = 0
    while time.perf_counter() - start < seconds and time.perf_counter() < give_up:
        for k in range(len(params)):
            if time.perf_counter() > give_up:
                break
            t0 = time.perf_counter()
            dt, result, error = execute(wl, inputs[k], params[k], null)
            traced_dt = None
            if trace:
                rec.item = len(runs)
                with instrumentation:
                    with rec.span("item", "item", u=params[k]["u"]):
                        traced_dt, result, error = execute(wl, inputs[k], params[k], rec)
                rec.item = None
            check(len(runs), k, passes, result, error)
            runs.append((k, t0 + dt / 2, dt, traced_dt))
            if time.perf_counter() - last_probe > PROBE_EVERY_S:
                probe()
                last_probe = time.perf_counter()
        passes += 1
    wall = time.perf_counter() - start
    gc.unfreeze()

    def nominal(mid: float, dt: float) -> float:
        """dt at nominal speed, judged by the probes near the execution."""
        near = [took for t, took in probes if abs(t - mid) <= LOCAL_WINDOW_S]
        if not near:
            near = [min(probes, key=lambda pr: abs(pr[0] - mid))[1]]
        return dt * NOMINAL_PROBE_S / statistics.median(near)

    speed = NOMINAL_PROBE_S / statistics.median(took for _, took in probes)
    attempted = len(runs)
    ok = attempted - len(failures)
    latencies = [dt for _, _, dt, _ in runs]
    # latency statistics are taken over suite items, each at the median of its
    # executions, so that runs making two or three passes rank items alike
    executions: dict[int, list[float]] = {}
    nominal_executions: dict[int, list[float]] = {}
    for k, mid, dt, _ in runs:
        executions.setdefault(k, []).append(dt)
        nominal_executions.setdefault(k, []).append(nominal(mid, dt))
    per_item = [statistics.median(v) for v in executions.values()]
    nominal_per_item = [statistics.median(v) for v in nominal_executions.values()]
    tail_s, tail_pct, beyond = tail(per_item)
    slowest = max(range(attempted), key=lambda n: latencies[n])
    log(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
        f"profile {profile}")
    log(f"items {attempted} in {passes} passes over {len(params)} suite items, "
        f"{wall:.3f} s wall, closed loop, 1 client")
    log(f"machine at {speed:.4f} of nominal speed (median of {len(probes)} probes)")
    log(f"failed_frac {len(failures) / attempted:.4f}  ({len(failures)}/{attempted})")
    log(f"item_s_tail p{tail_pct:.1f} over {len(per_item)} suite items (median of each "
        f"item's executions), {beyond} beyond it")
    log(f"slowest item u={params[runs[slowest][0]]['u']} {latencies[slowest]:.4f} s, "
        f"{latencies[slowest] / sum(latencies):.1%} of the run's item time")
    for p, problems in failures:
        log(f"FAILED item u={p['u']} {json.dumps(p)}: {'; '.join(problems)}")
    correct = not failures
    log(f"verification: {'PASS' if correct else 'FAIL'}  "
        f"({ok} verified, {len(failures)} failed)")

    if trace:
        traced = sum(t for *_, t in runs)
        metrics = layer_metrics(rec, attempted)
        metrics["trace.overhead_frac"] = (traced / sum(latencies) - 1, "frac")
        metrics["tail.slowest_share"] = (latencies[slowest] / sum(latencies), "frac")
        metrics["tail.percentile"] = (tail_pct, "%")
        metrics["tail.samples"] = (float(len(per_item)), "count")
        for layer, seconds_self in self_by_layer(rec).items():
            log(f"self time {layer} {seconds_self:.4f} s")
        path = OUT / f"trace-{workload}-seed{seed}.jsonl"
        rec.write(path)
        log(f"spans written to {path.relative_to(ROOT)}")
    else:
        def mean(key):
            return statistics.fmean(quality[key]) if quality.get(key) else 0.0

        import_s = statistics.median(imports)
        gen_s = statistics.median(gens)
        # each library import against the reference imports on either side of it
        import_ratio = statistics.median(
            lib / ((a + b) / 2) for lib, a, b in zip(imports, reference_imports, reference_imports[1:]))
        log(f"setup as measured: import {import_s:.4f} s + generation {gen_s:.4f} s, "
            f"medians of {SETUP_REPEATS}; import {import_ratio:.4f} of the reference import")
        measured = {
            "setup_s": import_s + gen_s,
            "reference_import_s": statistics.median(reference_imports),
            "items_per_s": ok / attempted * len(per_item) / sum(per_item),
            "item_s_p50": statistics.median(per_item),
            "item_s_tail": tail_s,
        }
        metrics = {
            "setup_s": (import_ratio * NOMINAL_REFERENCE_IMPORT_S + gen_s, "s"),
            "items_per_s": (ok / attempted * len(per_item) / sum(nominal_per_item), "1/s"),
            "item_s_p50": (statistics.median(nominal_per_item), "s"),
            "item_s_tail": (tail(nominal_per_item)[0], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "min_marginal_mean": (mean("min_marginal"), "prob"),
            "expected_coverage_mean": (mean("coverage"), "frac"),
            "matched_pairs": (mean("matched_pairs"), "pairs"),
            "mean_wait_periods": (mean("wait"), "periods"),
        }
    for name, (value, unit) in metrics.items():
        log(f"{name} {value:.6g} {unit}")
    if not trace:
        # the item timing metrics before scaling to nominal speed, so that a reader
        # can tell a move of the calibration kernel from a move of the library
        log(json.dumps({"as_measured": measured, "speed": speed}))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """Tiny sizes, every workload, both modes: every named metric is emitted
    with its unit and every item verifies."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = benchmark(w["name"], 0, 0.5, bool(trace), profile="smoke",
                            log=lambda line: None)
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            if got != wanted[trace]:
                bad.append(f"{w['name']} trace {trace}: metrics {sorted(got.items())} "
                           f"!= {sorted(wanted[trace].items())}")
            if not out["correct"] or out["failed"]:
                bad.append(f"{w['name']} trace {trace}: {out['failed']} of "
                           f"{out['attempted']} items failed")
            print(f"smoke {w['name']} trace {trace}: {out['attempted']} items, "
                  f"{out['failed']} failed, {len(got)} metrics")
    for line in bad:
        print("SMOKE FAILURE:", line)
    print("smoke:", "FAIL" if bad else "PASS")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, checks every metric")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    import_library()
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} (expected one of {sorted(WORKLOADS)})")
    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
