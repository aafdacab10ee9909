"""Span tracer that times netreg's public functions from outside the package.

A traced pass replaces every name binding of each target function with a
timing wrapper: the attribute in every loaded ``netreg`` module (so
``simharness``'s by-name imports of ``fit_full``/``predict`` and
``regression``'s own global ``predict`` are both covered) and every value of a
module-level dict (``simharness._FITTERS``, ``cli._STRUCTURE_FITTERS``). The
bindings are restored on exit, so nothing under ``src/`` changes and untraced
runs execute the plain functions.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written out
once, when the benchmark ends. A span's self time is its duration minus the
part of its interval covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc

PACKAGE = "netreg"
HOOK = "trace.hook"  # bookkeeping after a call; excluded from its parent's self time
OP = "op"  # root span of one benchmark operation

MB = 1024.0 * 1024.0


def _edges_hook(tracer, args, kwargs, result):
    n = result.shape[0]
    tracer.add("graph.sample_sbm.edges", (int((result != 0.0).sum()) - n) // 2)


def _path_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _load_bytes_hook(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    tracer.add("graph.load_edge_list.bytes", _path_bytes(path))


def _save_bytes_hook(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.add("graph.save_edge_list.bytes", _path_bytes(path))


def _restarts_hook(tracer, args, kwargs, result):
    # kmeans(embedding, n_clusters, seed, restarts=10)
    restarts = kwargs["restarts"] if "restarts" in kwargs else (args[3] if len(args) > 3 else 10)
    tracer.add("community.kmeans.restarts", int(restarts))


def _min_norm_hook(tracer, args, kwargs, result):
    tracer.add("regression.min_norm.flagged", sum(bool(f) for f in result.min_norm))
    tracer.add("regression.min_norm.solves", len(result.min_norm))


def _grid_hook(tracer, args, kwargs, result):
    notes = result.notes
    tracer.add("baseline.cv_select_lambda.grid_evals", notes["n_folds"] * notes["grid_size"])


def _flagged_hook(tracer, args, kwargs, result):
    tracer.add("inference.wald.flagged", sum(1 for c in result.cells if c.flag))
    tracer.add("inference.wald.cells", len(result.cells))


# (module, attribute, span name, hook). The span name is the metric prefix;
# CLI handlers are named after the subcommand they implement.
TARGETS = [
    ("graph", "sample_sbm", "graph.sample_sbm", _edges_hook),
    ("graph", "load_edge_list", "graph.load_edge_list", _load_bytes_hook),
    ("graph", "save_edge_list", "graph.save_edge_list", _save_bytes_hook),
    ("community", "detect_communities", "community.detect_communities", None),
    ("community", "spectral_embed", "community.spectral_embed", None),
    ("community", "estimate_k", "community.estimate_k", None),
    ("community", "kmeans", "community.kmeans", _restarts_hook),
    ("community", "align_permutation", "community.align_permutation", None),
    ("community", "perturb_membership", "community.perturb_membership", None),
    ("regression", "fit_full", "regression.fit_full", _min_norm_hook),
    ("regression", "predict", "regression.predict", None),
    ("regression", "solve_normal_equations", "regression.solve_normal_equations", None),
    ("regression", "fit_ols", "regression.fit_ols", None),
    ("inference", "wald_table", "inference.wald_table", _flagged_hook),
    ("inference", "community_covariance", "inference.community_covariance", None),
    ("baseline", "cv_select_lambda", "baseline.cv_select_lambda", _grid_hook),
    ("baseline", "fit_netcoh", "baseline.fit_netcoh", None),
    ("baseline", "laplacian", "baseline.laplacian", None),
    ("baseline", "ablation_network", "baseline.ablation_network", None),
    ("metrics", "estimation_error", "metrics.estimation_error", None),
    ("metrics", "prediction_error", "metrics.prediction_error", None),
    ("metrics", "network_adjusted_r2", "metrics.network_adjusted_r2", None),
    ("simharness", "run_experiment", "simharness.run_experiment", None),
    ("simharness", "gen_instance", "simharness.gen_instance", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_simulate_sbm", "cli.simulate-sbm", None),
    ("cli", "_cmd_detect", "cli.detect", None),
    ("cli", "_cmd_fit", "cli.fit", None),
    ("cli", "_cmd_infer", "cli.infer", None),
    ("cli", "_cmd_netcoh", "cli.netcoh", None),
]

LAYERS = ["graph", "community", "regression", "inference", "baseline", "metrics", "simharness", "cli"]

# Functions whose peak traced allocation is measured in the tracemalloc pass.
ALLOC_TARGETS = [
    ("graph", "sample_sbm", "graph.sample_sbm"),
    ("regression", "fit_full", "regression.fit_full"),
    ("regression", "predict", "regression.predict"),
    ("baseline", "cv_select_lambda", "baseline.cv_select_lambda"),
]

# Per-op counts gathered by hooks, reported under their own names.
COUNT_METRICS = [
    ("graph.sample_sbm.edges", "count"),
    ("graph.load_edge_list.bytes", "B"),
    ("graph.save_edge_list.bytes", "B"),
    ("community.kmeans.restarts", "count"),
    ("baseline.cv_select_lambda.grid_evals", "count"),
]


def metric_specs() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for _, _, name, _ in TARGETS:
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.total_s", "s", "lower"),
        ]
    specs += [(name, unit, "lower") for name, unit in COUNT_METRICS]
    specs += [
        ("regression.min_norm_frac", "frac", "lower"),
        ("inference.wald_table.flagged_frac", "frac", "lower"),
    ]
    specs += [(f"{name}.peak_alloc_mb", "MB", "lower") for _, _, name in ALLOC_TARGETS]
    for layer in LAYERS:
        specs += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.share", "frac", "lower")]
    specs += [("trace.ops", "count", "higher"), ("trace.overhead_frac", "frac", "lower")]
    return specs


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx][2] = time.perf_counter()

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str, hook=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                h = self.begin(HOOK)
                try:
                    hook(self, args, kwargs, result)
                finally:
                    self.end(h)
            return result

        return _mark(traced, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )


class AllocTracker:
    """Peak traced allocation per function, nested calls included.

    tracemalloc runs only while a tracked call is open, so Python-heavy code
    outside the tracked functions is not slowed down.
    """

    def __init__(self):
        self.peak_mb = {}
        self._stack = []  # [start_bytes, peak_bytes] per open call

    def _fold_peak(self) -> None:
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], tracemalloc.get_traced_memory()[1])

    def wrap(self, fn, name: str):
        def tracked(*args, **kwargs):
            if not self._stack:
                tracemalloc.start()
            self._fold_peak()
            tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
            frame = [current, current]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold_peak()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], frame[1])
                else:
                    tracemalloc.stop()
                used = (frame[1] - frame[0]) / MB
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), used)

        return _mark(tracked, fn)


def _mark(wrapper, fn):
    functools.update_wrapper(wrapper, fn)
    wrapper.bench_wrapper = True
    return wrapper


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patch:
    """Context manager: rebind every reference to each original to its wrapper.

    ``replacements`` maps original function -> wrapper. Module globals of every
    loaded netreg module and values of module-level dicts are covered; all are
    restored, in reverse order, on exit.
    """

    def __init__(self, replacements: dict):
        self._by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
        self._undo = []

    def _lookup(self, value):
        hit = self._by_id.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    def __enter__(self):
        for mod in _package_modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                new = self._lookup(value)
                if new is not None:
                    self._undo.append((namespace, key, value))
                    namespace[key] = new
                elif type(value) is dict:
                    for k2, v2 in list(value.items()):
                        new = self._lookup(v2)
                        if new is not None:
                            self._undo.append((value, k2, v2))
                            value[k2] = new
        return self

    def __exit__(self, *exc):
        while self._undo:
            container, key, original = self._undo.pop()
            container[key] = original
        return False


def _resolve(module: str, attr: str):
    return getattr(sys.modules[f"{PACKAGE}.{module}"], attr)


def tracing(tracer: Tracer) -> Patch:
    """Patch every TARGETS binding with ``tracer``'s span wrappers."""
    return Patch(
        {
            _resolve(mod, attr): tracer.wrap(_resolve(mod, attr), name, hook)
            for mod, attr, name, hook in TARGETS
        }
    )


def alloc_tracking(tracker: AllocTracker) -> Patch:
    """Patch every ALLOC_TARGETS binding with ``tracker``'s wrappers."""
    return Patch(
        {_resolve(mod, attr): tracker.wrap(_resolve(mod, attr), name) for mod, attr, name in ALLOC_TARGETS}
    )


def leftover_wrappers() -> list:
    """Names still bound to a benchmark wrapper (empty after every pass)."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            values = value.items() if type(value) is dict else [(None, value)]
            for k2, v in values:
                if getattr(v, "bench_wrapper", False) is True:
                    found.append(f"{mod.__name__}.{key}" + ("" if k2 is None else f"[{k2!r}]"))
    return found


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans: list) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    children = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    stats = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        duration = end - start
        own = duration - _covered(children.get(idx, []), start, end)
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += own
    return stats


def layer_metrics(tracer: Tracer, peak_mb: dict, n_ops: int, overhead_frac: float) -> dict:
    """Per-layer metric values, per op, keyed as in ``metric_specs``."""
    stats = span_stats(tracer.spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for _, _, name, _ in TARGETS:
        s = stats.get(name, zero)
        values[f"{name}.calls"] = s["calls"] / n_ops
        values[f"{name}.self_s"] = s["self_s"] / n_ops
        values[f"{name}.total_s"] = s["total_s"] / n_ops
        layer_self[name.split(".", 1)[0]] += s["self_s"] / n_ops
    for name, _ in COUNT_METRICS:
        values[name] = tracer.counts.get(name, 0) / n_ops
    c = tracer.counts
    solves = c.get("regression.min_norm.solves", 0)
    values["regression.min_norm_frac"] = c.get("regression.min_norm.flagged", 0) / solves if solves else 0.0
    cells = c.get("inference.wald.cells", 0)
    values["inference.wald_table.flagged_frac"] = c.get("inference.wald.flagged", 0) / cells if cells else 0.0
    for _, _, name in ALLOC_TARGETS:
        values[f"{name}.peak_alloc_mb"] = peak_mb.get(name, 0.0)
    op_wall = stats.get(OP, zero)["total_s"] / n_ops
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
        values[f"{layer}.share"] = layer_self[layer] / op_wall if op_wall > 0 else 0.0
    values["trace.ops"] = n_ops
    values["trace.overhead_frac"] = overhead_frac
    return values
