"""Spans and counters recorded around unionsub's module boundaries.

The library is not instrumented.  Instead the benchmark replaces each
function at the name its callers look it up by (a module global or a class
attribute) with a wrapper that records a span, and puts the original back
afterwards.  A site that no longer exists is skipped, so its metrics read 0
rather than failing: deleting a module or renaming a private helper never
forces an edit here.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

# layers whose self time a pass can hold; datasets runs only in set-up, and
# its cost is in the datasets.* metrics
LAYERS = ("graphs", "substructure", "descriptors", "linalg", "transport", "wl", "neural")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _table_edges(args, kwargs, result):
    return _first_arg(args, kwargs, "g").num_edges


def _union_nodes(args, kwargs, result):
    return result.num_nodes


def _dim_cubed(args, kwargs, result):
    return len(_first_arg(args, kwargs, "matrix")) ** 3


def _support_cells(args, kwargs, result):
    distances = args[2] if len(args) > 2 else kwargs["distances"]
    rows, cols = len(distances), len(distances[0])
    return rows * cols


# (span name, module, attribute path at the call site, value recorded per call)
SITES = (
    ("graphs.has_edge", "unionsub.graphs", "Graph.has_edge", None),
    ("graphs.bfs_distances", "unionsub.descriptors", "bfs_distances", None),
    ("graphs.induced_subgraph", "unionsub.substructure", "induced_subgraph", None),
    ("graphs.count_simple_cycles", "unionsub.descriptors", "count_simple_cycles", None),
    ("graphs.count_simple_cycles", "unionsub.graphs", "count_simple_cycles", None),
    ("graphs.random_graph_with_degrees", "unionsub.graphs",
     "random_graph_with_degrees", None),
    ("graphs.parse_graph", "unionsub.datasets", "parse_graph", None),
    ("substructure.union_subgraph", "unionsub.descriptors", "union_subgraph",
     _union_nodes),
    ("descriptors.coefficient_table", "unionsub.descriptors", "coefficient_table",
     _table_edges),
    ("descriptors.coefficient_table", "unionsub.neural", "coefficient_table",
     _table_edges),
    ("descriptors.path_matrix", "unionsub.descriptors", "path_matrix", None),
    ("descriptors.encode_matrix", "unionsub.descriptors", "encode_matrix", None),
    ("descriptors.edge_betweenness", "unionsub.descriptors",
     "edge_betweenness_descriptor", None),
    ("descriptors.ricci_curvature", "unionsub.descriptors", "ricci_curvature", None),
    ("linalg.eigen", "unionsub.descriptors", "nuclear_norm_symmetric", _dim_cubed),
    ("linalg.eigen", "unionsub.descriptors", "max_abs_eigenvalue", _dim_cubed),
    ("transport.wasserstein", "unionsub.descriptors", "wasserstein_discrete",
     _support_cells),
    ("wl.refine", "unionsub.wl", "wl_refine", None),
    ("wl.refine", "unionsub.wl", "augmented_refine", None),
    ("neural.train_classifier", "unionsub.neural", "train_classifier", None),
    ("neural.forward", "unionsub.neural", "_batched_forward", None),
    ("neural.backward", "unionsub.neural", "_batched_backward", None),
    ("neural.adam_step", "unionsub.neural", "Adam.step", None),
    ("datasets.build_cycle_dataset", "unionsub.datasets", "build_cycle_dataset", None),
    ("datasets.write_dataset", "unionsub.datasets", "write_dataset", None),
    ("datasets.read", "unionsub.datasets", "read_dataset", None),
    ("datasets.read", "unionsub.datasets", "read_corpus", None),
)

TABLE_SITES = tuple(s for s in SITES if s[0] == "descriptors.coefficient_table")
# sites called often enough, but not too often, to run the speed kernel in
# between (speed.py); a long call such as one training or one large table
# then still has kernel runs inside it
TICK_SITES = tuple(s for s in SITES if s[0] in (
    "graphs.bfs_distances", "graphs.random_graph_with_degrees", "graphs.parse_graph",
    "substructure.union_subgraph", "linalg.eigen", "transport.wasserstein",
    "neural.forward", "neural.backward", "neural.adam_step",
))

# name of the per-call value -> (metric name, how calls are combined)
VALUE_METRICS = {
    "descriptors.coefficient_table": ("descriptors.coefficient_table.edges", "sum"),
    "substructure.union_subgraph": ("substructure.union_nodes", "hist"),
    "linalg.eigen": ("linalg.eigen.dim3_sum", "sum"),
    "transport.wasserstein": ("transport.cells_sum", "sum"),
}


def patch(sites, wrap):
    """Replace every site that exists by ``wrap(name, fn, value_fn)``.

    Returns the undo list for :func:`unpatch`.
    """
    undo = []
    for name, module_name, path, value_fn in sites:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            continue
        setattr(owner, attr, wrap(name, fn, value_fn))
        undo.append((owner, attr, fn))
    return undo


def unpatch(undo):
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


class TableProbe:
    """Untraced timing aids: the raw start and end stamps and the edge count
    of every coefficient_table call, and a ``clock.tick()`` before every
    call at a table or tick site.
    """

    def __init__(self, clock):
        self.samples = []  # (start, end, edges)
        self.clock = clock
        self._undo = []

    def _wrap_table(self, name, fn, value_fn):
        samples, tick = self.samples, self.clock.tick

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tick()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            samples.append((start, end, value_fn(args, kwargs, result)))
            return result

        return timed

    def _wrap_tick(self, name, fn, value_fn):
        tick = self.clock.tick

        @functools.wraps(fn)
        def ticked(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return ticked

    def __enter__(self):
        self._undo = (patch(TICK_SITES, self._wrap_tick)
                      + patch(TABLE_SITES, self._wrap_table))
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)


class Tracer:
    """In-memory spans: (name, start, end, parent id, operation id, value).

    A span's id is its index in ``spans``; the parent is the span open when
    the call began (-1 at top level).  ``op`` is set by the caller to the id
    of the operation in progress, so all spans of one operation share it.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, value_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, clock(), parent, self.op, None)
                raise
            finally:
                stack.pop()
            end = clock()
            value = value_fn(args, kwargs, result) if value_fn else None
            spans[sid] = (name, start, end, parent, self.op, value)
            return result

        return traced

    def __enter__(self):
        self._undo = patch(SITES, self._wrap)
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "op", "value")
        with open(path, "w", encoding="ascii") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **dict(zip(keys, span))}) + "\n")


def summarize(spans, first, last):
    """Per-name calls, self seconds and values over ``spans[first:last]``.

    Self time is a span's duration minus the durations of its direct
    children.  Returns (by_name, top_level_seconds).
    """
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans[first:last]:
        if parent >= first:
            child[parent] += end - start
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "values": []})
    top = 0.0
    for sid in range(first, last):
        name, start, end, parent, _, value = spans[sid]
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child[sid]
        if value is not None:
            entry["values"].append(value)
        if parent < first:
            top += end - start
    return by_name, top


def per_layer_metrics(spans, setup_end, traced_passes, untraced_pass_s, fallbacks):
    """Per-layer metrics: one traced set-up plus the mean of the traced passes.

    ``spans[:setup_end]`` belong to the set-up and the rest to the whole
    passes timed in ``traced_passes``; ``fallbacks`` holds each pass's
    normalization fallbacks.  Names that never ran read 0.
    """
    passes = len(traced_passes)
    setup, _ = summarize(spans, 0, setup_end)
    timed, top = summarize(spans, setup_end, len(spans))
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    names = sorted({s[0] for s in SITES})
    for name in names:
        a, b = setup.get(name), timed.get(name)
        calls = (a["calls"] if a else 0) + (b["calls"] if b else 0) / passes
        self_s = (a["self_s"] if a else 0.0) + (b["self_s"] if b else 0.0) / passes
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_s, "s")
    for name, (metric, how) in VALUE_METRICS.items():
        values = timed[name]["values"] if name in timed else []
        if how == "sum":
            put(metric, sum(values) / passes, "count")
        else:
            put(f"{metric}.p50", statistics.median(values) if values else 0, "nodes")
            put(f"{metric}.max", max(values, default=0), "nodes")
    for layer in LAYERS:
        put(f"layer.{layer}.self_s",
            sum(e["self_s"] for n, e in timed.items() if n.split(".")[0] == layer)
            / passes, "s")
    put("layer.other.self_s", (sum(traced_passes) - top) / passes, "s")
    put("descriptors.norm_fallbacks", sum(fallbacks) / passes, "count")
    put("trace.spans", (len(spans) - setup_end) / passes, "count")
    overhead = statistics.median(traced_passes) / untraced_pass_s - 1.0
    put("trace.overhead_pct", overhead * 100.0, "%")
    return metrics
