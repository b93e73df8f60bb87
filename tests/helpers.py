"""Relabelling, single-edge lookups, a table's edge ends, subgraph positions, local
subgraphs and exact edge tags built by networkx, the reference curvature,
local-value, normalization and refinement loops, and the graph families that only the
tests need."""

import itertools
import operator
import random
import warnings

import networkx as nx
import numpy as np

from unionsub import descriptors, wl
from unionsub.descriptors import coefficient_table, curvature_values, local_descriptor_values
from unionsub.graphs import Graph, GraphError, Subgraph, double_edge_swap
from unionsub.transport import wasserstein_discrete


def relabel(g, perm):
    """g with node v renamed perm[v]; perm must be a permutation of its nodes."""
    if sorted(perm) != list(range(g.num_nodes)):
        raise GraphError("perm is not a permutation of the node ids")
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    # row perm[v] of the new feature matrix is row v of g's
    return Graph(g.num_nodes, edges, g.features[np.argsort(perm)])


def edge_descriptor_value(g, v, u, kind):
    """Raw descriptor value of one edge, read off its graph's whole table."""
    if not g.has_edge(v, u):
        raise GraphError(f"({v}, {u}) is not an edge")
    return coefficient_table(g, kind).raw_value(v, u)


def table_ends(g):
    """The (E, 2) array of g.edges that coefficient_table builds from g.csr."""
    indptr, nbr = g.csr
    center = np.arange(g.num_nodes).repeat(np.diff(indptr))
    return np.column_stack((center, nbr))[center < nbr]


def local_index(sub, parent_id):
    """Position of a parent node id among a Subgraph's local nodes."""
    return sub.parent_ids.index(parent_id)


def nx_graph(g):
    """g as a networkx graph on the same node ids."""
    h = nx.empty_graph(g.num_nodes)
    h.add_edges_from(g.edges)
    return h


def is_connected(g):
    """Whether g is connected, by networkx; True with no nodes, where
    networkx declines to answer."""
    return g.num_nodes == 0 or nx.is_connected(nx_graph(g))


def nx_local_graph(h, v, u, kind="union-path"):
    """The local subgraph of the edge (v, u) of the networkx graph h that a
    table of ``kind`` reads, built from N[v] and N[u]: induced on their union
    (their intersection for overlap-path), or for minus-path the graph union
    of the subgraphs induced on each."""
    nv, nu = {v, *h[v]}, {u, *h[u]}
    if kind == "overlap-path":
        return h.subgraph(nv & nu)
    if kind == "minus-path":
        return nx.compose(h.subgraph(nv), h.subgraph(nu))
    return h.subgraph(nv | nu)


def nx_local_subgraph(g, v, u, kind="union-path"):
    """nx_local_graph of g as a Subgraph: parent ids ascending, the parent's
    feature rows."""
    s = nx_local_graph(nx_graph(g), v, u, kind)
    ids = sorted(s)
    index = {p: i for i, p in enumerate(ids)}
    edges = [(index[a], index[b]) for a, b in s.edges()]
    return Subgraph(Graph(len(ids), edges, g.features[ids]), ids)


def exact_tagger():
    """A function from a graph g to its exact edge tags, a dict (v, u) -> tag
    over both orders of each edge: the tag numbers the ``nx.is_isomorphic``
    class of the edge's union subgraph, built by networkx with v and u
    marked, in one id space for every graph the function tags."""
    kept = {}  # (nodes, edges, marked degrees) -> [(tag, marked networkx graph)]
    fresh = itertools.count()

    def tags(g):
        h = nx_graph(g)
        out = {}
        for v, u in g.edges:
            s = nx.Graph(nx_local_graph(h, v, u))
            nx.set_node_attributes(s, {x: x in (v, u) for x in s}, "end")
            marked = tuple(sorted((d, x in (v, u)) for x, d in s.degree()))
            same = kept.setdefault((len(s), s.number_of_edges(), marked), [])
            tag = next((t for t, other in same
                        if nx.is_isomorphic(s, other, node_match=operator.eq)), None)
            if tag is None:
                tag = next(fresh)
                same.append((tag, s))
            out[v, u] = out[u, v] = tag
        return out

    return tags


def weight_tags(table):
    """A table's tags for reference_refine: (v, u) -> round(w * 1e9), w the
    pair's normalized weight; the tags augmented refinement uses."""
    return {pair: round(w * wl.COEFF_QUANT_SCALE) for pair, w in table.normalized.items()}


def raw_tags(table):
    """A table's raw tags for reference_refine: (v, u) -> round(x * 1e9), x
    the edge's raw value, in both orders."""
    return {pair: round(table.raw_value(*pair) * wl.COEFF_QUANT_SCALE)
            for pair in table.normalized}


def reference_curvature_values(g, ends, alpha):
    """curvature_values by a loop over the edges: each endpoint's points that
    keep mass after cancelling, from neighbour sets, and one
    wasserstein_discrete call per edge that keeps mass on both sides."""
    near = [set(row) for row in g.adjacency]
    spread = [(1.0 - alpha) / max(len(row), 1) for row in g.adjacency]

    def left(center, other):
        points, mass = [], []
        for x in sorted((center, *near[center])):
            m = alpha if x == center else spread[center]
            shared = alpha if x == other else spread[other] if x in near[other] else 0.0
            if m > shared:
                points.append(x)
                mass.append(m - shared)
        return points, mass

    values = []
    for v, u in ends.tolist():
        (rows, mu), (cols, nu) = left(v, u), left(u, v)
        w1 = 0.0
        if rows and cols:
            distances = [[1.0 if y in near[x] else 2.0 if near[x] & near[y] else 3.0
                          for y in cols] for x in rows]
            w1 = wasserstein_discrete(mu, nu, distances)
        values.append(1.0 - w1)
    return values


def reference_local_values(g, kind):
    """local_descriptor_values of g.edges by a per-edge loop over Python sets
    and dicts.

    Each edge's members are sorted and indexed one by one, and its local
    edges found by a dict probe per neighbour of each member; matrices of
    one size are stacked until BATCH_ENTRIES entries are pending.
    """
    adj, edges = g.adjacency, g.edges
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
                    values[at] = reference_stack_values(a, np.array(local_ends), kind)
            groups.clear()
            pending = 0
    return values


def reference_stack_values(a, ends, kind):
    """One value per matrix of a (B, k, k) local adjacency stack, each kind's
    matrix built per stack: row i of the (B, 2) array ``ends`` holds the local
    indices of matrix i's edge endpoints.  Path lengths are 1 on edges, 2
    where A^2 > 0, else 3, and shortest-path counts the entries of A, A^2 or
    A^3 at the same length."""
    batch, k, _ = a.shape
    diag = np.arange(k)
    if kind.kind == "laplacian":
        m = -a
        m[:, diag, diag] = a.sum(axis=2)
        return descriptors._encode_stack(m, kind.encoding)
    a2 = a @ a
    d = np.where(a > 0, a, np.where(a2 > 0, 2, 3))
    d[:, diag, diag] = 0.0
    if kind.kind != "betweenness":
        return descriptors._encode_stack(d, kind.encoding)
    sigma = np.where(a > 0, a, np.where(a2 > 0, a2, a2 @ a))
    sigma[:, diag, diag] = 1.0
    rows = np.arange(batch)
    da, db = d[rows, ends[:, 0]], d[rows, ends[:, 1]]
    sa, sb = sigma[rows, ends[:, 0]], sigma[rows, ends[:, 1]]
    on_path = da[:, :, None] + 1.0 + db[:, None, :] == d
    return (on_path * sa[:, :, None] * sb[:, None, :] / sigma).sum(axis=(1, 2))


def reference_table(g, kind):
    """coefficient_table's ``raw`` and ``normalized`` as dicts of tuple keys,
    normalized by a loop over each node's neighbours that adds the values
    left to right, weighs the pairs of a node whose sum is near 0 uniformly,
    and warns once if any did."""
    if kind.kind == "curvature":
        values = curvature_values(g, table_ends(g), kind.alpha).tolist()
    else:
        values = local_descriptor_values(g, table_ends(g), kind).tolist()
    raw = dict(zip(g.edges, values))
    normalized, fallback = {}, []
    for v, neighbors in enumerate(g.adjacency):
        if not neighbors:
            continue
        denom = 0.0
        for u in neighbors:
            denom += raw[(v, u) if v < u else (u, v)]
        if abs(denom) < descriptors.NORMALIZATION_ZERO_TOL:
            fallback.append(v)
            for u in neighbors:
                normalized[(v, u)] = 1.0 / len(neighbors)
        else:
            for u in neighbors:
                normalized[(v, u)] = raw[(v, u) if v < u else (u, v)] / denom
    if fallback:
        warnings.warn(
            f"coefficients around {len(fallback)} node(s) sum to ~0 (first: node "
            f"{fallback[0]}); falling back to uniform weights",
            RuntimeWarning,
        )
    return raw, normalized


def reference_refine(graphs, tags=None):
    """wl._refine's colors and rounds by a plain loop: one ColorAssignment per
    graph.  A message is the neighbour's color, or with ``tags``, one dict
    per graph from pairs (v, u) to ints, the tuple (color, tag of (v, u)):
    weight_tags gives the tags of wl._refine's tables.  Signatures are
    ranked over all graphs, and every round runs, the one that confirms a
    discrete partition too, until a round leaves the number of colors
    unchanged; a partition discrete from the features runs none."""
    def number(keys):
        rank = {key: i for i, key in enumerate(sorted({key for ks in keys for key in ks}))}
        return [[rank[key] for key in ks] for ks in keys], len(rank)

    colors, count = number([[tuple(row) for row in g.features.tolist()] for g in graphs])
    rounds = 0
    stable = count == sum(g.num_nodes for g in graphs)
    while not stable:
        signatures = []
        for i, g in enumerate(graphs):
            cs = colors[i]
            signature = []
            for v, neighbors in enumerate(g.adjacency):
                if tags is None:
                    messages = [cs[u] for u in neighbors]
                else:
                    messages = [(cs[u], tags[i][v, u]) for u in neighbors]
                signature.append((cs[v], tuple(sorted(messages))))
            signatures.append(signature)
        colors, new_count = number(signatures)
        rounds += 1
        stable = new_count == count
        count = new_count
    return [wl.ColorAssignment(tuple(cs), rounds) for cs in colors]


def fwl2_separates(g1, g2):
    """Whether 2-FWL, as strong as 3-WL, tells g1 and g2 apart.

    The ordered pairs of both graphs share one colouring, first by type
    (diagonal, edge, non-edge).  Each round a pair (x, y) keeps its colour
    and adds the multiset of (c(x, z), c(z, y)) over all z, a sorted row of
    n codes.  The graphs are told apart once their colour histograms differ,
    and not when the number of colours holds with equal histograms.
    """
    if g1.num_nodes != g2.num_nodes:
        return True
    n = g1.num_nodes
    colors = np.full((2, n, n), 2)
    for c, g in zip(colors, (g1, g2)):
        for v, u in g.edges:
            c[v, u] = c[u, v] = 1
        np.fill_diagonal(c, 0)
    count = None
    while True:
        rows = colors.reshape(2 * n * n, -1)
        order = np.lexsort(rows.T)  # both graphs' distinct rows numbered from 0
        colors = np.empty(len(rows), dtype=int)
        step = np.any(rows[order[1:]] != rows[order[:-1]], axis=1)
        colors[order] = np.concatenate(([0], step.cumsum()))
        colors = colors.reshape(2, n, n)
        histograms = [np.bincount(c.reshape(-1), minlength=colors.max(initial=0) + 1)
                      for c in colors]
        if not np.array_equal(*histograms):
            return True  # refining keeps histograms apart
        if len(histograms[0]) == count:
            return False
        count = len(histograms[0])
        # [graph, x, y, z]: the code of (c(x, z), c(z, y)), sorted over z
        codes = np.sort(colors[:, :, None, :] * count + colors.transpose(0, 2, 1)[:, None], axis=3)
        colors = np.concatenate((colors[..., None], codes), axis=3)


def latin_square_graph(square):
    """The graph on the n^2 cells of an n x n Latin square (rows of symbols):
    cell (r, c) is node r n + c, and two cells are adjacent when they share a
    row, a column or a symbol."""
    n = len(square)
    if any(sorted(line) != list(range(n)) for line in (*square, *zip(*square))):
        raise ValueError("not a Latin square of the symbols 0..n-1")
    cells = [(r, c, square[r][c]) for r in range(n) for c in range(n)]
    return Graph(n * n, [(i, j) for i, j in itertools.combinations(range(n * n), 2)
                         if any(a == b for a, b in zip(cells[i], cells[j]))])


def product_group_table(*orders):
    """The table of the direct product Z_orders[0] x Z_orders[1] x ...: element
    i is the tuple of its mixed-radix digits, most significant first, and the
    product adds the digits modulo their orders."""
    elements = list(itertools.product(*map(range, orders)))
    index = {x: i for i, x in enumerate(elements)}
    return [[index[tuple((a + b) % n for a, b, n in zip(x, y, orders))] for y in elements]
            for x in elements]


def latin_square_pairs():
    """Pairs of non-isomorphic Latin square graphs of equal order: Z4 vs
    Z2 x Z2, Z5 vs a square that is no group's table, and Z6 vs S3.  Each
    graph is strongly regular, so 1-WL separates no pair."""
    non_group = [[int(x) for x in row] for row in ("01234", "10342", "24013", "32401", "43120")]
    perms = list(itertools.permutations(range(3)))
    s3 = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return [(latin_square_graph(a), latin_square_graph(b)) for a, b in (
        (product_group_table(4), product_group_table(2, 2)),
        (product_group_table(5), non_group), (product_group_table(6), s3))]


def order_eight_latin_pairs():
    """The three pairs of Latin square graphs of the abelian groups of order
    8, Z8, Z2 x Z4 and Z2 x Z2 x Z2, in that order: 64 nodes and 672 edges
    each, strongly regular with equal parameters, so 1-WL separates no pair."""
    graphs = [latin_square_graph(product_group_table(*orders))
              for orders in ((8,), (2, 4), (2, 2, 2))]
    return list(itertools.combinations(graphs, 2))


def csl_graph(r):
    """The circular skip link graph CSL(41, r): the cycle C41 plus the chords
    i ~ i + r (mod 41), 4-regular for 1 < r < 20."""
    return Graph(41, [(i, (i + step) % 41) for step in (1, r) for i in range(41)])


def cubic_graphs_on_ten_nodes():
    """The 21 cubic graphs on 10 nodes, connected or not, in order of discovery.

    Double-edge swaps keep every degree and connect all simple graphs with a
    given degree sequence, so a swap walk from the 5-prism reaches each
    class.  A sample is kept unless ``nx.is_isomorphic`` matches it to a kept
    graph with the same closed-walk counts tr(A^k), k = 3..10: graphs whose
    counts differ are not isomorphic, so the counts only spare calls.  The
    walk stops at the 21st class; seeded with 4 it takes 565 samples, with 0
    it takes 6,313, since classes with many automorphisms are rarely visited.
    """
    ring = [(i, (i + 1) % 5) for i in range(5)]
    edges = ring + [(a + 5, b + 5) for a, b in ring] + [(i, i + 5) for i in range(5)]
    adjacency = [set(a) for a in Graph(10, edges).adjacency]
    kept = {}  # closed-walk counts -> kept networkx graphs with them
    found = []
    rng = random.Random(4)
    while len(found) < 21:
        h = nx.Graph(edges)
        a = nx.to_numpy_array(h, nodelist=range(10), dtype=np.int64)
        walks = tuple(int(np.trace(np.linalg.matrix_power(a, k))) for k in range(3, 11))
        same = kept.setdefault(walks, [])
        if not any(nx.is_isomorphic(h, other) for other in same):
            same.append(h)
            found.append(Graph(10, edges))
        while not double_edge_swap(edges, adjacency, rng):
            pass
    return found
