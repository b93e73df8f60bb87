"""Immutable simple undirected graphs: construction, parsing, generators, isomorphism.

Node ids are always 0..num_nodes-1.  Edges are unordered pairs stored as
sorted tuples.  Everything here is a pure function over immutable data.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field

import numpy as np

ISO_NODE_LIMIT = 12  # brute-force isomorphism bound


class GraphError(ValueError):
    """Invalid graph data or operation."""


class GraphParseError(GraphError):
    """Malformed graph file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _normalize_edge(u, v):
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph with optional per-node real feature vectors.

    Immutable after construction: edges are a frozen sorted tuple, adjacency
    lists are sorted tuples, and the feature matrix (if any) is read-only.
    """

    __slots__ = ("num_nodes", "edges", "adjacency", "features")

    def __init__(self, num_nodes, edges, features=None):
        if num_nodes < 0:
            raise GraphError("num_nodes must be non-negative")
        seen = set()
        adjacency = [[] for _ in range(num_nodes)]
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise GraphError(f"node id out of range in edge ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            e = _normalize_edge(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
            adjacency[u].append(v)
            adjacency[v].append(u)
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adjacency))
        if features is not None:
            try:
                features = np.array(features, dtype=float)
            except (TypeError, ValueError):
                raise GraphError("features must be a matrix of numbers") from None
            if features.ndim != 2 or features.shape[0] != num_nodes or features.shape[1] < 1:
                raise GraphError("features must be a (num_nodes, d) matrix with d >= 1")
            if not np.isfinite(features).all():
                raise GraphError("features must be finite")
            features.setflags(write=False)
        object.__setattr__(self, "features", features)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def num_edges(self):
        return len(self.edges)

    def neighbors(self, v):
        self._check_node(v)
        return self.adjacency[v]

    def degree(self, v):
        self._check_node(v)
        return len(self.adjacency[v])

    def degree_sequence(self):
        return tuple(sorted(len(a) for a in self.adjacency))

    def has_edge(self, u, v):
        if not 0 <= u < self.num_nodes:
            return False
        row = self.adjacency[u]
        i = bisect.bisect_left(row, v)
        return i < len(row) and row[i] == v

    def _check_node(self, v):
        if not (0 <= v < self.num_nodes):
            raise GraphError(f"node id {v} out of range (num_nodes={self.num_nodes})")

    def feature_matrix(self):
        """Feature matrix, defaulting to a constant 1.0 column when absent."""
        if self.features is not None:
            return self.features
        return np.ones((self.num_nodes, 1))

    def relabel(self, perm):
        """Relabel nodes: node v becomes perm[v].  perm must be a permutation."""
        if sorted(perm) != list(range(self.num_nodes)):
            raise GraphError("perm is not a permutation of the node ids")
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        features = None
        if self.features is not None:
            features = np.empty_like(self.features)
            for v in range(self.num_nodes):
                features[perm[v]] = self.features[v]
        return Graph(self.num_nodes, edges, features)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        if self.num_nodes != other.num_nodes or self.edges != other.edges:
            return False
        if (self.features is None) != (other.features is None):
            return False
        return self.features is None or np.array_equal(self.features, other.features)

    def __hash__(self):
        return hash((self.num_nodes, self.edges))

    def __repr__(self):
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def to_edge_list_text(self):
        lines = [f"{self.num_nodes} {self.num_edges}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def to_json_obj(self):
        obj = {"num_nodes": self.num_nodes, "edges": [[u, v] for u, v in self.edges]}
        if self.features is not None:
            obj["features"] = self.features.tolist()
        return obj


class Subgraph:
    """A local graph plus the mapping from local indices to parent node ids.

    ``parent_ids[i]`` is the parent id of local node ``i``.  Induced
    subgraphs satisfy the local-edge-iff-parent-edge property; union-minus
    subgraphs deliberately drop some parent edges, so inducedness is not
    enforced here.
    """

    __slots__ = ("local", "parent_ids")

    def __init__(self, local, parent_ids):
        parent_ids = tuple(parent_ids)
        if len(parent_ids) != local.num_nodes:
            raise GraphError("parent_ids length must equal local.num_nodes")
        if len(set(parent_ids)) != len(parent_ids):
            raise GraphError("parent_ids must not contain duplicates")
        object.__setattr__(self, "local", local)
        object.__setattr__(self, "parent_ids", parent_ids)

    def __setattr__(self, name, value):
        raise AttributeError("Subgraph is immutable")

    @property
    def num_nodes(self):
        return self.local.num_nodes

    @property
    def num_edges(self):
        return self.local.num_edges

    def local_index(self, parent_id):
        try:
            return self.parent_ids.index(parent_id)
        except ValueError:
            raise GraphError(f"parent id {parent_id} not in subgraph") from None

    def parent_edges(self):
        return tuple(
            _normalize_edge(self.parent_ids[i], self.parent_ids[j])
            for i, j in self.local.edges
        )

    def __eq__(self, other):
        if not isinstance(other, Subgraph):
            return NotImplemented
        return self.parent_ids == other.parent_ids and self.local == other.local

    def __repr__(self):
        return f"Subgraph(parent_ids={self.parent_ids}, num_edges={self.num_edges})"


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def parse_graph(text):
    """Parse a graph from edge-list or JSON text (ASCII bytes or str).

    Edge-list format: first line "n m", then m lines "u v" with 0-based ids.
    JSON format: {"num_nodes": n, "edges": [[u, v], ...], "features": [[...], ...]}.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise GraphParseError(
                f"not ASCII text: byte 0x{text[exc.start]:02x} at offset {exc.start}"
            ) from None
    if not text.isascii():
        # int() would read any Unicode digit, such as a full-width 3
        offset = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise GraphParseError(
            f"not ASCII text: U+{ord(text[offset]):04X} at offset {offset}"
        )
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_edge_list(text)


def _parse_edge_list(text):
    lines = text.split("\n")
    # ignore trailing blank lines only; blank lines inside the body are errors
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise GraphParseError("empty input", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise GraphParseError("malformed header, expected 'n m'", line=1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError("malformed header, expected two integers", line=1) from None
    if n < 0 or m < 0:
        raise GraphParseError("malformed header, counts must be non-negative", line=1)
    if len(lines) - 1 != m:
        raise GraphParseError(
            f"expected {m} edge lines, found {len(lines) - 1}", line=len(lines)
        )
    edges = []
    seen = set()
    for idx, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError("malformed edge, expected 'u v'", line=idx)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("malformed edge, expected two integers", line=idx) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"node id out of range in edge ({u}, {v})", line=idx)
        if u == v:
            raise GraphParseError(f"self-loop at node {u}", line=idx)
        e = _normalize_edge(u, v)
        if e in seen:
            raise GraphParseError(f"duplicate edge ({e[0]}, {e[1]})", line=idx)
        seen.add(e)
        edges.append(e)
    return Graph(n, edges)


def _is_json_int(x):
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(obj, dict) or "num_nodes" not in obj or "edges" not in obj:
        raise GraphParseError("JSON graph must contain 'num_nodes' and 'edges'")
    n = obj["num_nodes"]
    if not _is_json_int(n) or n < 0:
        raise GraphParseError("'num_nodes' must be a non-negative integer")
    if not isinstance(obj["edges"], list):
        raise GraphParseError("'edges' must be a list of pairs")
    edges = []
    for k, pair in enumerate(obj["edges"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphParseError(f"edge #{k} is not a pair")
        if not (_is_json_int(pair[0]) and _is_json_int(pair[1])):
            raise GraphParseError(f"edge #{k} node ids must be integers")
        edges.append((pair[0], pair[1]))
    features = obj.get("features")
    try:
        return Graph(n, edges, features)
    except GraphError as exc:
        raise GraphParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Basic operations
# ---------------------------------------------------------------------------

def closed_neighborhood(g, v):
    """N(v) ∪ {v} as a set of node ids."""
    return set(g.neighbors(v)) | {v}


def induced_subgraph(g, nodes):
    """Induced subgraph on a node set, with parent ids sorted ascending."""
    parent_ids = sorted(nodes)
    for v in parent_ids:
        g._check_node(v)
    index = {p: i for i, p in enumerate(parent_ids)}
    local_edges = [
        (i, index[q])
        for i, p in enumerate(parent_ids)
        for q in g.adjacency[p]
        if q > p and q in index
    ]
    features = None
    if g.features is not None and parent_ids:
        features = g.features[parent_ids]
    local = Graph(len(parent_ids), local_edges, features)
    return Subgraph(local, parent_ids)


def bfs_distances(g, source):
    """BFS distances from source; unreachable nodes get -1."""
    dist = [-1] * g.num_nodes
    dist[source] = 0
    queue = [source]
    while queue:
        nxt = []
        for x in queue:
            for y in g.neighbors(x):
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        queue = nxt
    return dist


def is_connected(g):
    if g.num_nodes == 0:
        return True
    return all(d >= 0 for d in bfs_distances(g, 0))


# ---------------------------------------------------------------------------
# Brute-force isomorphism (small graphs only)
# ---------------------------------------------------------------------------

def _as_graph(g):
    return g.local if isinstance(g, Subgraph) else g


def is_isomorphic_small(a, b):
    """Exact isomorphism test by degree-pruned permutation search (≤ 12 nodes)."""
    ga, gb = _as_graph(a), _as_graph(b)
    if ga.num_nodes > ISO_NODE_LIMIT or gb.num_nodes > ISO_NODE_LIMIT:
        raise GraphError(f"isomorphism brute-force bound is {ISO_NODE_LIMIT} nodes")
    if ga.num_nodes != gb.num_nodes or ga.num_edges != gb.num_edges:
        return False
    if ga.degree_sequence() != gb.degree_sequence():
        return False
    n = ga.num_nodes
    if n == 0:
        return True
    adj_a = [set(ga.neighbors(v)) for v in range(n)]
    adj_b = [set(gb.neighbors(v)) for v in range(n)]
    # map nodes of a in decreasing-degree order to prune early
    order = sorted(range(n), key=lambda v: -len(adj_a[v]))
    mapping = [-1] * n
    used = [False] * n

    def extend(k):
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used[w] or len(adj_a[v]) != len(adj_b[w]):
                continue
            ok = True
            for prev in order[:k]:
                if (prev in adj_a[v]) != (mapping[prev] in adj_b[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(k + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Simple-cycle counting (DFS with canonical starts)
# ---------------------------------------------------------------------------

def count_simple_cycles(g, k):
    """Number of simple cycles of length exactly k, each counted once.

    Paths are rooted at their smallest node; intermediate nodes must exceed
    the root, and each cycle's two traversal directions are deduplicated by
    requiring path[1] < path[-1].  The last node is counted, not visited:
    at depth k - 1 every neighbour off the path that exceeds path[1] and is
    a neighbour of the root closes one cycle.
    """
    if k < 3:
        raise GraphError("cycle length must be at least 3")
    adj = g.adjacency
    count = 0
    path = []

    def dfs(root, current, depth, on_path):
        nonlocal count
        if depth == k - 1:
            first = path[1]
            for nxt in adj[current]:
                if nxt > first and nxt in closing and nxt not in on_path:
                    count += 1
            return
        for nxt in adj[current]:
            if nxt > root and nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                dfs(root, nxt, depth + 1, on_path)
                on_path.discard(nxt)
                path.pop()

    for root in range(g.num_nodes):
        path = [root]
        closing = set(adj[root])
        dfs(root, root, 1, {root})
    return count


# ---------------------------------------------------------------------------
# Named generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedGraphSpec:
    """A named generator with optional integer parameter (e.g. cycle length)."""

    kind: str
    param: int | None = None

    KNOWN = (
        "cycle", "complete", "path",
        "rook4x4", "shrikhande", "two-triangles-vs-c6", "four-cycle-pair",
    )

    def __post_init__(self):
        if self.kind not in self.KNOWN:
            raise GraphError(f"unknown named graph kind {self.kind!r}")
        if self.kind in ("cycle", "complete", "path"):
            if self.param is None or self.param <= 0:
                raise GraphError(f"{self.kind} requires a positive size parameter")
            if self.kind == "cycle" and self.param < 3:
                raise GraphError("cycle needs at least 3 nodes")
        if self.kind == "four-cycle-pair":
            if self.param is None or not (3 <= self.param <= 8):
                raise GraphError("four-cycle-pair requires cycle length in 3..8")

    @classmethod
    def parse(cls, text):
        """Parse strings like "cycle:6", "rook4x4", "four-cycle-pair:4"."""
        kind, _, param = text.partition(":")
        if param:
            try:
                return cls(kind, int(param))
            except ValueError:
                raise GraphError(f"invalid parameter in spec {text!r}") from None
        if kind == "four-cycle-pair":
            return cls(kind, 4)
        return cls(kind)


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves):
    """Center node 0 with the given number of leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def two_triangles_graph():
    """Disjoint union of two triangles (6 nodes, 2-regular)."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def rook_graph_4x4():
    """4×4 rook's graph: cells adjacent iff same row or same column."""
    def nid(i, j):
        return 4 * i + j

    edges = []
    for i in range(4):
        for j1 in range(4):
            for j2 in range(j1 + 1, 4):
                edges.append((nid(i, j1), nid(i, j2)))  # same row
                edges.append((nid(j1, i), nid(j2, i)))  # same column
    return Graph(16, edges)


def shrikhande_graph():
    """Cayley graph of Z4×Z4 with connection set {±(1,0), ±(0,1), ±(1,1)}."""
    def nid(i, j):
        return 4 * i + j

    edges = set()
    for i in range(4):
        for j in range(4):
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                e = _normalize_edge(nid(i, j), nid((i + di) % 4, (j + dj) % 4))
                edges.add(e)
    return Graph(16, sorted(edges))


def random_graph(n, p, rng):
    """Erdős–Rényi G(n, p) from a random.Random instance."""
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


# four_cycle_pair: graph size, G(n, m) bases drawn before giving up, graphs
# sampled from one base, and swap attempts between samples (about 43% are
# accepted on these graphs, so about PAIR_EDGES swaps are made)
PAIR_NODES = 14
PAIR_EDGES = 18
PAIR_BASES = 200
PAIR_SAMPLES = 120
PAIR_SWAP_ATTEMPTS = 42


def double_edge_swap(edges, adjacency, rng):
    """Try one double-edge swap in place; True if it was made.

    Picks edges (a, b) and (c, d), flips the second at random, and rewires
    them to (a, d) and (c, b) unless that makes a self-loop or an existing
    edge.  ``edges`` is a list of pairs and ``adjacency`` a list of
    neighbour sets; degrees are kept either way.
    """
    m = len(edges)
    i, j = int(rng.random() * m), int(rng.random() * m)
    (a, b), (c, d) = edges[i], edges[j]
    if rng.random() < 0.5:
        c, d = d, c
    if i == j or a == d or c == b or d in adjacency[a] or b in adjacency[c]:
        return False
    adjacency[a].remove(b)
    adjacency[b].remove(a)
    adjacency[c].remove(d)
    adjacency[d].remove(c)
    adjacency[a].add(d)
    adjacency[d].add(a)
    adjacency[c].add(b)
    adjacency[b].add(c)
    edges[i], edges[j] = (a, d), (c, b)
    return True


def has_four_cycle(adjacency):
    """True iff a graph has a 4-cycle: some off-diagonal entry of A² is >= 2.

    ``adjacency`` holds each node's neighbours (``Graph.adjacency`` or
    sets).  Such an entry is a pair of nodes that is the neighbour pair of
    two distinct centres.
    """
    seen = set()
    for neighbours in adjacency:
        for pair in itertools.combinations(sorted(neighbours), 2):
            if pair in seen:
                return True
            seen.add(pair)
    return False


def four_cycle_pair(k, rng):
    """One positive/negative pair for k-cycle detection.

    Walks a double-edge-swap chain from a G(n, m) base graph, sampling the
    base and then every ``PAIR_SWAP_ATTEMPTS`` attempted swaps, and returns
    the first sample with a simple k-cycle and the first with none; a new
    base is drawn after ``PAIR_SAMPLES`` samples.  Sharing node count, edge
    count and degree sequence strips the class signal out of degree
    statistics.  The base is uniform over the simple graphs with its degree
    sequence, and so is every sample: a rejected swap stays put and each
    swap is undone by one equally likely swap (counting accepted swaps
    instead would favour graphs that accept more of them).
    """
    if not 3 <= k <= 8:
        raise GraphError("cycle length must lie in 3..8")
    population = list(itertools.combinations(range(PAIR_NODES), 2))
    for _ in range(PAIR_BASES):
        edges = rng.sample(population, PAIR_EDGES)
        adjacency = [set(a) for a in Graph(PAIR_NODES, edges).adjacency]
        positive = negative = None
        for sample in range(PAIR_SAMPLES):
            if sample:
                for _ in range(PAIR_SWAP_ATTEMPTS):
                    double_edge_swap(edges, adjacency, rng)
            if k == 4:
                found = has_four_cycle(adjacency)
            else:
                found = count_simple_cycles(Graph(PAIR_NODES, edges), k) > 0
            if found and positive is None:
                positive = Graph(PAIR_NODES, edges)
            elif not found and negative is None:
                negative = Graph(PAIR_NODES, edges)
            if positive is not None and negative is not None:
                return positive, negative
    raise GraphError(f"could not sample a {k}-cycle pair (k may be too easy/hard)")


def generate_named(spec, seed=0):
    """Instantiate a NamedGraphSpec; pair kinds yield exactly two graphs."""
    if spec.kind == "cycle":
        return [cycle_graph(spec.param)]
    if spec.kind == "complete":
        return [complete_graph(spec.param)]
    if spec.kind == "path":
        return [path_graph(spec.param)]
    if spec.kind == "rook4x4":
        return [rook_graph_4x4()]
    if spec.kind == "shrikhande":
        return [shrikhande_graph()]
    if spec.kind == "two-triangles-vs-c6":
        return [two_triangles_graph(), cycle_graph(6)]
    if spec.kind == "four-cycle-pair":
        pos, neg = four_cycle_pair(spec.param, random.Random(seed))
        return [pos, neg]
    raise GraphError(f"unknown named graph kind {spec.kind!r}")
