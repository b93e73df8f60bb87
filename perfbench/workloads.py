"""The benchmark's workloads: seeded set-up and one closed-loop pass each.

Every workload makes its inputs from the seed alone, writes them with
``datasets.write_dataset`` and reads them back through the parser, so the
timed pass sees exactly what a user's files would give.  A pass is a fixed
amount of work; the runner repeats passes until its time is up.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from unionsub import datasets, descriptors, graphs, neural, wl

UNION_PATH = descriptors.Descriptor.parse("union-path")
RIVAL_KINDS = tuple(
    descriptors.Descriptor.parse(k) for k in ("count-ne", "betweenness", "curvature")
)
CYCLE_LEN = 6

# the sizes and average degree of the ROADMAP's default corpus family
# er:20-50:3.7; node counts step through the range by this stride
CORPUS_NODES = (20, 50)
AVG_DEGREE = 3.7
NODE_STRIDE = 7
# edges per pass: the corpus is the first graphs of the seeded stream whose
# edges reach this total, so a pass does the same amount of work on any seed
UNION_EDGES = 2600
RIVAL_EDGES = 6000
# node counts of the large sparse graphs, each G(n, m) with average degree 3.7
LARGE_NODES = (500, 600)
# four-cycle-pair:4 dataset; enough epochs that training outweighs the tables
CYCLE_K = 4
CYCLE_GRAPHS = 80
EPOCHS = 600
MODEL = neural.ModelSpec.parse("union-gcn")


class Ops:
    """Counts operations attempted and failed; one library call is one op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.tracer = None
        self.clock = None  # a speed.ReferenceClock ticked before every call

    def call(self, fn, *args, **kwargs):
        if self.clock is not None:
            self.clock.tick()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            return fn(*args, **kwargs)
        except (ValueError, RuntimeError) as exc:
            self._fail(f"{fn.__name__}: {exc}")
            return None

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self._fail(f"oracle {name}")

    def _fail(self, message):
        self.failed += 1
        self.errors.append(message)


def er_corpus(rng, edge_target):
    """Sparse ER graphs of 20 to 50 nodes until their edges reach the target.

    Unlike `unionsub gen`, which draws n and then G(n, p), the node counts
    follow a fixed order and each graph is G(n, m): only the edges are
    random, so the cost of a pass, its median table and its slow tables
    vary little from seed to seed.
    """
    lo, hi = CORPUS_NODES
    graphs_out, edges = [], 0
    while edges < edge_target:
        g = sparse_er(rng, lo + len(graphs_out) * NODE_STRIDE % (hi - lo + 1))
        graphs_out.append(g)
        edges += g.num_edges
    return graphs_out


def sparse_er(rng, n):
    """G(n, m) with m fixed by the average degree, so sizes do not vary."""
    pairs = list(itertools.combinations(range(n), 2))
    return graphs.Graph(n, rng.sample(pairs, round(AVG_DEGREE * n / 2)))


def _round_trip(graph_list, directory):
    datasets.write_dataset(directory, graph_list, [0] * len(graph_list))
    return datasets.read_corpus(directory)


def union_setup(seed, directory):
    return _round_trip(er_corpus(random.Random(seed), UNION_EDGES), directory)


def rivals_setup(seed, directory):
    return _round_trip(er_corpus(random.Random(seed), RIVAL_EDGES), directory)


def large_setup(seed, directory):
    rng = random.Random(seed)
    return _round_trip([sparse_er(rng, n) for n in LARGE_NODES], directory)


def train_setup(seed, directory):
    graph_list, labels = datasets.build_cycle_dataset(CYCLE_K, CYCLE_GRAPHS, seed)
    datasets.write_dataset(directory, graph_list, labels)
    return seed, datasets.split_dataset(datasets.read_dataset(directory))


def union_pass(corpus, ops):
    """union-path/svd-sum table, then plain and augmented 1-WL, per graph."""
    tables = []
    for g in corpus:
        table = ops.call(descriptors.coefficient_table, g, UNION_PATH)
        ops.call(wl.wl_refine, g)
        if table is not None:
            ops.call(wl.augmented_refine, g, table)
        tables.append(table)
    return tables


def rivals_pass(corpus, ops, cycle_len=CYCLE_LEN):
    """The rival tables per graph, plus a k-cycle count when cycle_len is set."""
    rows = []
    for g in corpus:
        row = {k.kind: ops.call(descriptors.coefficient_table, g, k) for k in RIVAL_KINDS}
        if cycle_len:
            row["cycles"] = ops.call(descriptors.cycle_count, g, cycle_len)
        rows.append(row)
    return rows


def large_pass(corpus, ops):
    return rivals_pass(corpus, ops, cycle_len=None)


def train_pass(inputs, ops):
    seed, (train, val, test) = inputs
    return ops.call(
        neural.train_classifier, train, val, test, MODEL, epochs=EPOCHS, seed=seed
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (seed, directory) -> inputs
    run_pass: Callable  # (inputs, ops) -> outputs checked by the oracles
    min_tables: int  # a run holds at least this many tables (for table_ms_p90)


WORKLOADS = {
    "corpus-union": Workload(union_setup, union_pass, 100),
    "corpus-rivals": Workload(rivals_setup, rivals_pass, 100),
    "large-sparse": Workload(large_setup, large_pass, 0),
    "train-cycle": Workload(train_setup, train_pass, 0),
}
