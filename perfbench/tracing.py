"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from the benchmark's own files only: each wrapper replaces
a library function at the place where the calling module looks it up (for
example ``fair.max_price_packing``), so no library source changes.  A span is
(name, layer, start, end, parent, item); self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional[int]
    item: Optional[int]
    end: float = 0.0
    error: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.item: Optional[int] = None

    def open(self, name: str, layer: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self.item, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: Optional[str] = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def span(self, name: str, layer: str, **attrs) -> "_SpanContext":
        return _SpanContext(self, name, layer, attrs)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str, layer: str, attrs_of: Optional[Callable] = None):
        """A function that records a span around every call of fn."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            index = rec.open(name, layer, **attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec.close(index, type(e).__name__)
                raise
            rec.close(index)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent, "item": s.item,
                    "error": s.error, **s.attrs,
                }) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")


class _SpanContext:
    def __init__(self, rec: Recorder, name: str, layer: str, attrs: dict):
        self.rec, self.name, self.layer, self.attrs = rec, name, layer, attrs

    def __enter__(self) -> Span:
        self.index = self.rec.open(self.name, self.layer, **self.attrs)
        return self.rec.spans[self.index]

    def __exit__(self, exc_type, exc, tb) -> None:
        self.rec.close(self.index, exc_type.__name__ if exc_type else None)


class Instrumentation:
    """Installs and removes the wrappers around the library's entry points."""

    def __init__(self, rec: Recorder):
        from fairkep import fair, flows, gen, lorenz, matching, oracle, sim
        from fairkep.oracle import ExplosionGuard, OracleInfeasible

        self._saved: list[tuple[object, str, object]] = []
        self._plan: list[tuple[object, str, object]] = []

        def ncols(c, *args, **kwargs):
            return {"cols": len(c)}

        def lp_mode(c, *args, exact=True, **kwargs):
            return {"exact": bool(exact)}

        def pool_size(pool, *args, **kwargs):
            return {"pool": len(pool.pairs) + len(pool.ndds)}

        def oracle_entry(fn):
            wrapped = rec.wrap(fn, "oracle.max_price_packing", "oracle")

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                try:
                    return wrapped(*args, **kwargs)
                except OracleInfeasible:
                    rec.count("oracle.infeasible")
                    raise

            return counting

        def enum_entry(fn):
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except ExplosionGuard:
                    rec.count("oracle.enum_fallbacks")
                    raise

            return counting

        class TimedMaxFlow(flows._MaxFlow):
            def run(self, *args, **kwargs):
                with rec.span("flows.max_flow", "flows"):
                    return super().run(*args, **kwargs)

        for mod in (fair, oracle, sim):
            self._plan.append((mod, "max_price_packing", oracle_entry(mod.max_price_packing)))
        self._plan.append((sim, "max_price_over", oracle_entry(sim.max_price_over)))
        self._plan.append((oracle, "enumerate_structures", enum_entry(oracle.enumerate_structures)))
        self._plan.append((fair, "lp_solve", rec.wrap(fair.lp_solve, "fair.lp_solve", "fair.lp", lp_mode)))
        for mod in (fair, lorenz, matching):
            self._plan.append((mod, "lp_solve_exact", rec.wrap(
                mod.lp_solve_exact, "simplexlp.lp_solve_exact", "simplexlp", ncols)))
        for attr, name in (("peel_blocks", "lorenz.peel"), ("decompose_matrix", "lorenz.decompose"),
                           ("sparsify_support", "lorenz.sparsify")):
            self._plan.append((lorenz, attr, rec.wrap(getattr(lorenz, attr), name, "lorenz")))
        for attr in ("gallai_edmonds", "perfect_matching", "max_weight_matching",
                     "bipartite_admissible_subgraph"):
            self._plan.append((lorenz, attr, rec.wrap(getattr(lorenz, attr), f"matching.{attr}", "matching")))
        self._plan.append((lorenz, "feasible_circulation", rec.wrap(
            lorenz.feasible_circulation, "flows.feasible_circulation", "flows")))
        self._plan.append((lorenz, "_MaxFlow", TimedMaxFlow))
        self._plan.append((sim, "_solve_period", rec.wrap(sim._solve_period, "sim.period", "sim", pool_size)))
        self._plan.append((gen, "generate_instance", rec.wrap(gen.generate_instance, "gen.generate_instance", "gen")))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for mod, attr, replacement in self._plan:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, replacement)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def self_by_layer(rec: Recorder) -> dict[str, float]:
    """Total self time of each layer, largest first."""
    out: dict[str, float] = {}
    for s, t in zip(rec.spans, self_times(rec.spans)):
        out[s.layer] = out.get(s.layer, 0.0) + t
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def layer_metrics(rec: Recorder, n_items: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per traced item unless stated."""
    spans = rec.spans
    own = self_times(spans)
    per = max(n_items, 1)

    def outermost(layer: str) -> list[Span]:
        return [s for s in spans if s.layer == layer
                and (s.parent is None or spans[s.parent].layer != layer)]

    def busy(layer: str) -> float:
        return sum(s.duration for s in outermost(layer))

    def self_of(layer: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.layer == layer)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def under(span: Span, ancestor_name: str) -> bool:
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == ancestor_name:
                return True
        return False

    oracle_calls = named("oracle.max_price_packing")
    lp_calls = named("fair.lp_solve")
    simplex_calls = named("simplexlp.lp_solve_exact")
    solves = named("fair.solve")
    pricing = sum(s.attrs.get("pricing_calls", 0) for s in solves)
    fair_support = sum(s.attrs.get("support", 0) for s in solves)
    periods = named("sim.period")
    lorenz_entries = [s for s in spans if s.layer == "lorenz" and s.parent is not None
                      and spans[s.parent].name == "item"]
    c = rec.counters
    m = {
        "oracle.calls": (len(oracle_calls) / per, "1/item"),
        "oracle.busy_s": (busy("oracle") / per, "s/item"),
        "oracle.call_s_p50": (statistics.median([s.duration for s in oracle_calls])
                              if oracle_calls else 0.0, "s"),
        "oracle.enum_fallbacks": (c.get("oracle.enum_fallbacks", 0) / per, "1/item"),
        "oracle.infeasible": (c.get("oracle.infeasible", 0) / per, "1/item"),
        "fair.solves": (len(solves) / per, "1/item"),
        "fair.pricing_calls": (pricing / per, "1/item"),
        "fair.iterations": (sum(s.attrs.get("iterations", 0) for s in solves) / per, "1/item"),
        "fair.self_s": (self_of("fair") / per, "s/item"),
        "fair.support_per_pricing": (fair_support / pricing if pricing else 0.0, "cols/call"),
        "fair.lp_exact_calls": (sum(1 for s in lp_calls if s.attrs["exact"]) / per, "1/item"),
        "fair.lp_float_calls": (sum(1 for s in lp_calls if not s.attrs["exact"]) / per, "1/item"),
        "fair.lp_busy_s": (busy("fair.lp") / per, "s/item"),
        "simplexlp.calls": (len(simplex_calls) / per, "1/item"),
        "simplexlp.busy_s": (busy("simplexlp") / per, "s/item"),
        "simplexlp.max_cols": (max((s.attrs["cols"] for s in simplex_calls), default=0), "cols"),
        "lorenz.peel_s": (sum(s.duration for s in named("lorenz.peel")) / per, "s/item"),
        "lorenz.decompose_s": (sum(s.duration for s in named("lorenz.decompose")) / per, "s/item"),
        "lorenz.sparsify_s": (sum(s.duration for s in named("lorenz.sparsify")) / per, "s/item"),
        "lorenz.self_s": (self_of("lorenz") / per, "s/item"),
        "lorenz.support_size": (statistics.fmean([s.attrs["support"] for s in lorenz_entries])
                                if lorenz_entries else 0.0, "packings"),
        "matching.gallai_edmonds_calls": (len(named("matching.gallai_edmonds")) / per, "1/item"),
        "matching.busy_s": (busy("matching") / per, "s/item"),
        "flows.circulations": (len(named("flows.feasible_circulation")) / per, "1/item"),
        "flows.busy_s": (busy("flows") / per, "s/item"),
        "sim.periods": (len(periods) / per, "1/item"),
        "sim.pool_size_mean": (statistics.fmean([s.attrs["pool"] for s in periods])
                               if periods else 0.0, "nodes"),
        "sim.solve_s": (sum(s.duration for s in outermost("oracle")
                            if under(s, "sim.replication")) / per, "s/item"),
        "sim.self_s": (self_of("sim") / per, "s/item"),
        "gen.instances": (float(len(named("gen.generate_instance"))), "count"),
        "gen.busy_s": (busy("gen"), "s"),
        "io.busy_s": (busy("io") / per, "s/item"),
        "io.bytes": (sum(s.attrs.get("bytes", 0) for s in named("io.emit")) / per, "bytes/item"),
        "core.verify_s": (busy("core") / per, "s/item"),
    }
    return m
