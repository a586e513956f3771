#!/usr/bin/env python3
"""Record the reference answer of every item in a workload's suite.

Run from the repository root at the commit whose answers are the reference:

    python3 perfbench/record.py --workload exact-lottery --profile full

Writes perfbench/reference/<profile>-<workload>.json.  An item that raises is
recorded with the exception's name; the benchmark counts it as failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, NullRecorder  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--profile", default="full", choices=("full", "smoke"))
    args = ap.parse_args()
    wl = WORKLOADS[args.workload](args.profile)
    refs, times = {}, {}
    for u in range(wl.suite[args.profile]):
        p = wl.params(u)
        inputs = wl.generate(p)
        t0 = time.perf_counter()
        try:
            result = wl.run(inputs, p, NullRecorder())
        except Exception as e:  # recorded, and listed by the benchmark as failed
            refs[u] = {"error": type(e).__name__}
            print(f"u={u} {json.dumps(p)} raised {type(e).__name__}: {e}", flush=True)
            continue
        finally:
            times[u] = time.perf_counter() - t0
        problems = wl.check(inputs, p, result)
        if problems:
            print(f"u={u} {json.dumps(p)} fails its checks: {problems}", flush=True)
        refs[u] = wl.reference(inputs, p, result)
    out = BENCH / "reference" / f"{args.profile}-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    total = sum(times.values())
    print(f"{args.workload} {args.profile}: {len(refs)} items, {total:.1f} s, "
          f"max {max(times.values()):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
