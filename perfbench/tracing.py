"""Layer tracer that times specent from outside, by wrapping its functions.

``from .x import f`` binds ``f`` in the importing module at import time, so
every public function of a layer module is replaced in every specent module
namespace that holds it (``specent.entropy.log_bin``,
``specent.cli.sieve_up_to``, ...).  The callable handed to ``ordered_map`` is
wrapped as well: ``ThreadPoolExecutor`` does not copy contextvars, so each
item span gets the map span as its parent explicitly and records its thread.
Spans stay in memory until :meth:`Tracer.write` at the end of a run.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "primes", "distances", "binning", "spectrum", "entropy", "rng",
    "nullmodel", "cramer", "parallel", "experiments", "cli",
)

# Unit of every per-layer metric, in report order.  Times and counts are per
# traced CLI job, so runs that complete different numbers of jobs compare.
PER_LAYER_UNITS = {
    "primes.self_s": "s/job",
    "primes.calls": "count/job",
    "primes.ints_sieved": "count/job",
    "primes.used_ratio": "ratio",
    "distances.self_s": "s/job",
    "distances.calls": "count/job",
    "distances.values_out": "count/job",
    "binning.self_s": "s/job",
    "binning.values_binned": "count/job",
    "binning.ns_per_value": "ns",
    "spectrum.self_s": "s/job",
    "spectrum.calls": "count/job",
    "spectrum.phase_terms": "count/job",
    "entropy.self_s": "s/job",
    "entropy.calls": "count/job",
    "rng.self_s": "s/job",
    "rng.streams": "count/job",
    "rng.uniforms_drawn": "count/job",
    "nullmodel.self_s": "s/job",
    "nullmodel.points_simulated": "count/job",
    "nullmodel.degenerate_ratio": "ratio",
    "cramer.self_s": "s/job",
    "cramer.ints_tested": "count/job",
    "cramer.used_ratio": "ratio",
    "parallel.wall_s": "s/job",
    "parallel.items": "count/job",
    "parallel.item_s.p50": "s",
    "parallel.busy_ratio": "ratio",
    "experiments.self_s": "s/job",
    "cli.self_s": "s/job",
    "cli.bytes_written": "B/job",
    "trace.overhead_ratio": "ratio",
}


class Span:
    __slots__ = ("layer", "name", "parent", "job", "thread", "t0", "t1", "item", "attrs")

    def __init__(self, layer, name, parent, job, item=False):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.job = job
        self.thread = threading.get_ident()
        self.item = item
        self.attrs = None
        self.t0 = self.t1 = 0.0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _ints_in_window(args, kwargs):
    config, lo, hi = args[0], _arg(args, kwargs, 1, "lo"), _arg(args, kwargs, 2, "hi")
    return max(0, min(int(config.N), int(hi)) - max(3, int(lo)) + 1)


# Work counts taken at layer boundaries: (layer, function) -> attrs of one call.
_COUNTERS = {
    ("primes", "sieve_up_to"): lambda a, k, r: {
        "ints": int(_arg(a, k, 0, "limit")), "primes": len(r)},
    ("distances", "truncated_distances"): lambda a, k, r: {
        "values": len(r),
        "prime_values": len(r) if type(_arg(a, k, 1, "table")).__name__ == "PrimeTable" else 0},
    ("distances", "aggregate_distances"): lambda a, k, r: {"values": len(r)},
    ("binning", "log_bin"): lambda a, k, r: {"values": len(_arg(a, k, 0, "distances"))},
    ("spectrum", "log_spectrum"): lambda a, k, r: {"phase_terms": len(r) ** 2},
    ("rng", "indexed_uniforms"): lambda a, k, r: {"uniforms": len(r)},
    ("nullmodel", "simulate_poisson_distances"): lambda a, k, r: {"points": len(r)},
    ("nullmodel", "estimate_null_entropy"): lambda a, k, r: {
        "degenerate": r.degenerate_count, "attempted": r.replicates + r.degenerate_count},
    ("cramer", "members_in_window"): lambda a, k, r: {"ints": _ints_in_window(a, k)},
}


class Tracer:
    """Wraps specent's layer functions and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0  # number of the traced job, recorded in its spans
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._patched: list[tuple] = []

    def _call(self, layer, name, fn, args, kwargs, parent, item=False):
        span = Span(layer, name, parent, self.job, item)
        token = self._current.set(span)
        span.t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.t1 = perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(span)
        counter = _COUNTERS.get((layer, name))
        if counter is not None:
            span.attrs = counter(args, kwargs, result)
        return result

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, fn.__name__, fn, args, kwargs, self._current.get())
        return traced

    def _wrap_map(self, ordered_map):
        @functools.wraps(ordered_map)
        def traced_map(fn, items, workers=None):
            items = list(items)
            serial = workers is None or workers <= 1 or len(items) <= 1
            span = Span("parallel", "ordered_map", self._current.get(), self.job)
            span.attrs = {"items": len(items), "workers": 1 if serial else min(workers, len(items))}
            item_layer = _layer_of(fn)

            def item(x):
                return self._call(item_layer, fn.__name__, fn, (x,), {}, span, item=True)

            token = self._current.set(span)
            span.t0 = perf_counter()
            try:
                return ordered_map(item, items, workers)
            finally:
                span.t1 = perf_counter()
                self._current.reset(token)
                with self._lock:
                    self.spans.append(span)
        return traced_map

    def install(self) -> None:
        """Replace every public layer function in every specent namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "specent" or n.startswith("specent.")]
        replacement = {}
        for layer in LAYERS:
            module = sys.modules[f"specent.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrap = self._wrap_map if (layer, name) == ("parallel", "ordered_map") \
                        else functools.partial(self._wrap, layer)
                    replacement[obj] = wrap(obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(module, name, replacement[obj])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in self._patched:
            setattr(module, name, obj)
        self._patched.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        index = {span: i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "parent": index.get(s.parent), "job": s.job,
                    "layer": s.layer, "name": s.name, "item": s.item,
                    "thread": s.thread, "t0": s.t0, "t1": s.t1, "attrs": s.attrs,
                }) + "\n")


def _layer_of(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    layer = module.rpartition(".")[2]
    return layer if layer in LAYERS else "parallel"


def self_times(spans) -> dict:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.t0
        for a, b in sorted(children.get(s, ())):
            a, b = max(a, reach), min(b, s.t1)
            if b > a:
                covered += b - a
                reach = b
        out[s] = (s.t1 - s.t0) - covered
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, own: dict, jobs: int, bytes_written: int,
                  overhead_ratio: float) -> dict:
    """Per-layer metrics from the spans of ``jobs`` traced CLI jobs and their
    :func:`self_times`."""
    self_s = defaultdict(float)
    calls = defaultdict(int)  # layer -> outermost spans of that layer
    total = defaultdict(float)  # (layer, function, attr) -> summed attr
    n_calls = defaultdict(int)  # (layer, function) -> call count
    values_out = final_window_ints = 0
    items = []
    wall_map = map_capacity = 0.0
    for s in spans:
        self_s[s.layer] += own[s]
        if s.item:
            items.append(s.t1 - s.t0)
            continue
        n_calls[(s.layer, s.name)] += 1
        outermost = s.parent is None or s.parent.layer != s.layer
        calls[s.layer] += outermost
        for key, value in (s.attrs or {}).items():
            total[(s.layer, s.name, key)] += value
        if s.layer == "distances" and outermost and s.attrs:
            values_out += s.attrs["values"]
        if s.name == "ordered_map":
            wall_map += s.t1 - s.t0
            map_capacity += s.attrs["workers"] * (s.t1 - s.t0)
        if s.name == "members_in_window" and s.parent and s.parent.name == "cramer_distances":
            final_window_ints += s.attrs["ints"]

    sieved = total[("primes", "sieve_up_to", "primes")]
    binned = total[("binning", "log_bin", "values")]
    ints_tested = total[("cramer", "members_in_window", "ints")]
    per_job = 1.0 / max(jobs, 1)
    values = {
        "primes.self_s": self_s["primes"] * per_job,
        "primes.calls": calls["primes"] * per_job,
        "primes.ints_sieved": total[("primes", "sieve_up_to", "ints")] * per_job,
        "primes.used_ratio": _ratio(
            total[("distances", "truncated_distances", "prime_values")], sieved),
        "distances.self_s": self_s["distances"] * per_job,
        "distances.calls": calls["distances"] * per_job,
        "distances.values_out": values_out * per_job,
        "binning.self_s": self_s["binning"] * per_job,
        "binning.values_binned": binned * per_job,
        "binning.ns_per_value": _ratio(self_s["binning"] * 1e9, binned),
        "spectrum.self_s": self_s["spectrum"] * per_job,
        "spectrum.calls": calls["spectrum"] * per_job,
        "spectrum.phase_terms": total[("spectrum", "log_spectrum", "phase_terms")] * per_job,
        "entropy.self_s": self_s["entropy"] * per_job,
        "entropy.calls": calls["entropy"] * per_job,
        "rng.self_s": self_s["rng"] * per_job,
        "rng.streams": n_calls[("rng", "generator")] * per_job,
        "rng.uniforms_drawn": total[("rng", "indexed_uniforms", "uniforms")] * per_job,
        "nullmodel.self_s": self_s["nullmodel"] * per_job,
        "nullmodel.points_simulated":
            total[("nullmodel", "simulate_poisson_distances", "points")] * per_job,
        "nullmodel.degenerate_ratio": _ratio(
            total[("nullmodel", "estimate_null_entropy", "degenerate")],
            total[("nullmodel", "estimate_null_entropy", "attempted")]),
        "cramer.self_s": self_s["cramer"] * per_job,
        "cramer.ints_tested": ints_tested * per_job,
        "cramer.used_ratio": _ratio(final_window_ints, ints_tested),
        "parallel.wall_s": wall_map * per_job,
        "parallel.items": total[("parallel", "ordered_map", "items")] * per_job,
        "parallel.item_s.p50": statistics.median(items) if items else 0.0,
        "parallel.busy_ratio": _ratio(sum(items), map_capacity),
        "experiments.self_s": self_s["experiments"] * per_job,
        "cli.self_s": self_s["cli"] * per_job,
        "cli.bytes_written": bytes_written * per_job,
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": float(v), "unit": PER_LAYER_UNITS[name]} for name, v in values.items()}


def picture(spans, own: dict) -> dict:
    """Shares that say which layer dominates each workload."""
    by_layer = defaultdict(float)
    for s in spans:
        by_layer[s.layer] += own[s]
    main_wall = sum(s.t1 - s.t0 for s in spans if s.layer == "cli" and s.name == "main")
    item_time = sum(s.t1 - s.t0 for s in spans if s.item)
    return {
        "primes_share_of_job_time": _ratio(by_layer["primes"], main_wall),
        "nullmodel_binning_share_of_item_time":
            _ratio(by_layer["nullmodel"] + by_layer["binning"], item_time),
        "self_s_by_layer": dict(by_layer),
    }
