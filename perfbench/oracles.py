"""Independent checks of the workloads' outputs, run outside the timed region.

Each check is one operation; a mismatch counts as a failed operation.  The
references are networkx (shortest paths, betweenness, simple cycles),
``numpy.linalg.eigvalsh`` and ``scipy.optimize.linprog``, none of which the
library uses.  Edges and graphs are sampled with a seeded generator.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
from scipy.optimize import linprog

from workloads import CYCLE_K, CYCLE_LEN

TOL = 1e-9
EDGE_SAMPLE = 16
GRAPH_SAMPLE = 6
CURVATURE_ALPHA = 0.5  # the library's default


def _close(value, reference):
    return value is not None and abs(value - reference) <= TOL * max(1.0, abs(reference))


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.num_nodes))
    h.add_edges_from(g.edges)
    return h


def _union(h, v, u):
    nodes = sorted({v, u} | set(h[v]) | set(h[u]))
    return nodes, h.subgraph(nodes)


def union_path(h, v, u):
    nodes, sub = _union(h, v, u)
    dist = dict(nx.all_pairs_shortest_path_length(sub))
    d = np.array([[dist[a][b] for b in nodes] for a in nodes], dtype=float)
    return float(np.abs(np.linalg.eigvalsh(d)).sum())


def betweenness(h, v, u):
    _, sub = _union(h, v, u)
    scores = nx.edge_betweenness_centrality(sub, normalized=False)
    return scores[(v, u)] if (v, u) in scores else scores[(u, v)]


def count_ne(h, v, u, lam=2):
    nodes, sub = _union(h, v, u)
    n = len(nodes)
    return sub.number_of_edges() / (n * (n - 1)) * n ** lam


def curvature(h, v, u, alpha=CURVATURE_ALPHA):
    """1 - W1(mu_v, mu_u) with the transport plan from a linear program."""
    def measure(center):
        support = sorted({center} | set(h[center]))
        spread = (1.0 - alpha) / h.degree(center)
        return support, np.array([alpha if x == center else spread for x in support])

    sv, mu = measure(v)
    su, nu = measure(u)
    cost = np.empty((len(sv), len(su)))
    for i, x in enumerate(sv):
        dist = nx.single_source_shortest_path_length(h, x)
        cost[i] = [dist[y] for y in su]
    rows, cols = cost.shape
    a_eq = np.vstack([
        np.kron(np.eye(rows), np.ones(cols)),
        np.kron(np.ones(rows), np.eye(cols)),
    ])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs")
    return 1.0 - res.fun


def cycles(h, k):
    return sum(1 for c in nx.simple_cycles(h, length_bound=k) if len(c) == k)


def _normalized_ok(g, table):
    for v in range(g.num_nodes):
        nbrs = g.neighbors(v)
        total = sum(table.normalized.get((v, u), math.nan) for u in nbrs)
        if nbrs and not abs(total - 1.0) <= TOL:
            return False
    return True


def _sample_edges(corpus, rows, rng):
    edges = [(i, e) for i, g in enumerate(corpus) if rows[i] is not None for e in g.edges]
    return rng.sample(edges, min(EDGE_SAMPLE, len(edges)))


def check_union(corpus, tables, rng, ops):
    for g, table in zip(corpus, tables):
        if table is not None:
            ops.check("normalized", _normalized_ok(g, table))
    nx_graphs = {}
    for i, (v, u) in _sample_edges(corpus, tables, rng):
        h = nx_graphs.setdefault(i, to_nx(corpus[i]))
        ops.check("union-path", _close(tables[i].raw.get((v, u)), union_path(h, v, u)))


RIVAL_ORACLES = {"count-ne": count_ne, "betweenness": betweenness, "curvature": curvature}


def check_rivals(corpus, rows, rng, ops):
    nx_graphs = {}
    for kind, oracle in RIVAL_ORACLES.items():
        tables = [row[kind] for row in rows]
        for g, table in zip(corpus, tables):
            if table is not None:
                ops.check("normalized", _normalized_ok(g, table))
        for i, (v, u) in _sample_edges(corpus, tables, rng):
            h = nx_graphs.setdefault(i, to_nx(corpus[i]))
            ops.check(kind, _close(tables[i].raw.get((v, u)), oracle(h, v, u)))
    counted = [i for i, row in enumerate(rows) if row.get("cycles") is not None]
    for i in rng.sample(counted, min(GRAPH_SAMPLE, len(counted))):
        h = nx_graphs.setdefault(i, to_nx(corpus[i]))
        ops.check("cycle-count", rows[i]["cycles"] == cycles(h, CYCLE_LEN))


def check_train(inputs, report, rng, ops):
    _, splits = inputs
    if report is not None:
        losses = [loss for _, loss, _ in report.loss_curve]
        ops.check("finite-loss", bool(losses) and all(math.isfinite(x) for x in losses))
    labelled = [pair for split in splits for pair in split]
    for g, label in rng.sample(labelled, min(GRAPH_SAMPLE, len(labelled))):
        ops.check("cycle-label", (cycles(to_nx(g), CYCLE_K) > 0) == bool(label))


CHECKS = {
    "corpus-union": check_union,
    "corpus-rivals": check_rivals,
    "large-sparse": check_rivals,
    "train-cycle": check_train,
}
