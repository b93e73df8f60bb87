"""Single-edge lookups, subgraph positions, and the reference local-value and
normalization loops that only the tests need."""

import warnings

import numpy as np

from unionsub import descriptors
from unionsub.descriptors import (
    Encoding, curvature_values, local_descriptor_values, ricci_curvature,
)
from unionsub.graphs import GraphError


def edge_descriptor_value(g, v, u, kind, encoding=Encoding.SVD_SUM):
    """Raw descriptor value of one edge, computed as coefficient_table does."""
    if kind.kind == "curvature":
        return ricci_curvature(g, v, u, kind.alpha)
    if not g.has_edge(v, u):
        raise GraphError(f"({v}, {u}) is not an edge")
    return float(local_descriptor_values(g, [(v, u)], kind, encoding)[0])


def local_index(sub, parent_id):
    """Position of a parent node id among a Subgraph's local nodes."""
    return sub.parent_ids.index(parent_id)


def reference_local_values(g, edges, kind, encoding):
    """local_descriptor_values by a per-edge loop over Python sets and dicts.

    Each edge's members are sorted and indexed one by one, and its local
    edges found by a dict probe per neighbour of each member; matrices of
    one size are stacked until BATCH_ENTRIES entries are pending.
    """
    adj = g.adjacency
    minus = kind.kind == "minus-path"
    values = np.empty(len(edges))
    # size k -> (positions in edges, flat indices of local edges, local (v, u))
    groups = {}
    pending = 0
    for pos, (v, u) in enumerate(edges):
        nv, nu = {v, *adj[v]}, {u, *adj[u]}
        nodes = sorted(nv & nu if kind.kind == "overlap-path" else nv | nu)
        k = len(nodes)
        index = {p: i for i, p in enumerate(nodes)}
        members, flat, ends = groups.setdefault(k, ([], [], []))
        offset = len(members) * k * k
        members.append(pos)
        ends.append((index[v], index[u]))
        for i, p in enumerate(nodes):
            for q in adj[p]:
                j = index.get(q)
                if j is None:
                    continue
                if minus and not (p in nv and q in nv or p in nu and q in nu):
                    continue  # joins an exclusive neighbour of v to one of u
                flat.append(offset + i * k + j)
        pending += k * k
        if pending >= descriptors.BATCH_ENTRIES or pos == len(edges) - 1:
            for size, (at, cells, local_ends) in groups.items():
                a = np.zeros((len(at), size, size))
                a.reshape(-1)[cells] = 1.0
                if kind.kind == "count-ne":
                    arcs = a.sum(axis=(1, 2))
                    values[at] = arcs / 2 / (size * (size - 1)) * size ** kind.lam
                else:
                    values[at] = descriptors._stack_values(
                        a, np.array(local_ends), kind, encoding)
            groups.clear()
            pending = 0
    return values


def reference_table(g, kind, encoding):
    """coefficient_table's ``raw`` and ``normalized`` as dicts of tuple keys,
    normalized by a loop over each node's neighbours that warns per node
    whose sum is near 0 and weighs that node's pairs uniformly."""
    if kind.kind == "curvature":
        values = curvature_values(g, g.edges, kind.alpha)
    else:
        values = local_descriptor_values(g, g.edges, kind, encoding).tolist()
    raw = dict(zip(g.edges, values))
    normalized = {}
    for v, neighbors in enumerate(g.adjacency):
        if not neighbors:
            continue
        denom = sum(raw[(v, u) if v < u else (u, v)] for u in neighbors)
        if abs(denom) < descriptors.NORMALIZATION_ZERO_TOL:
            warnings.warn(
                f"coefficients around node {v} sum to ~0; falling back to uniform weights",
                RuntimeWarning,
            )
            for u in neighbors:
                normalized[(v, u)] = 1.0 / len(neighbors)
        else:
            for u in neighbors:
                normalized[(v, u)] = raw[(v, u) if v < u else (u, v)] / denom
    return raw, normalized
