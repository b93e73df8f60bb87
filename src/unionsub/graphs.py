"""Immutable simple undirected graphs: construction, parsing, generators, isomorphism.

Node ids are always 0..num_nodes-1.  Edges are unordered pairs stored as
sorted tuples.  Everything here is a pure function over immutable data.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass

import numpy as np

ISO_NODE_LIMIT = 12  # brute-force isomorphism bound
MAX_PARSED_NODES = 1 << 20  # so a 12-byte file cannot claim 10^8 adjacency lists


class GraphError(ValueError):
    """Invalid graph data or operation; ``edge`` is the failing edge's position."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


class GraphParseError(GraphError):
    """Malformed graph file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _node_ids(u, v, k):
    """Edge k's ids as Python ints; numpy integers pass, bools and floats do not."""
    if all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (u, v)):
        return int(u), int(v)
    raise GraphError(f"node ids must be integers in edge ({u!r}, {v!r})", edge=k)


def _normalize_edge(u, v):
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph with a real feature vector on every node.

    Immutable after construction: edges are a frozen sorted tuple, adjacency
    lists are sorted tuples, and the feature matrix is read-only.  Given no
    features, a graph carries a constant 1.0 column.  Only this constructor
    checks edges: integer ids in range, no self-loops, no duplicates.
    """

    __slots__ = ("num_nodes", "edges", "adjacency", "features", "_csr")

    def __init__(self, num_nodes, edges, features=None):
        if num_nodes < 0:
            raise GraphError("num_nodes must be non-negative")
        seen = set()
        adjacency = [[] for _ in range(num_nodes)]
        for k, (u, v) in enumerate(edges):
            if type(u) is not int or type(v) is not int:
                u, v = _node_ids(u, v, k)
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise GraphError(f"node id out of range in edge ({u}, {v})", edge=k)
            if u == v:
                raise GraphError(f"self-loop at node {u}", edge=k)
            e = _normalize_edge(u, v)
            if e in seen:
                raise GraphError(f"duplicate edge ({e[0]}, {e[1]})", edge=k)
            seen.add(e)
            adjacency[u].append(v)
            adjacency[v].append(u)
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in adjacency))
        if features is None:
            features = np.ones((num_nodes, 1))
        else:
            try:
                features = np.array(features, dtype=float)
            except (TypeError, ValueError, OverflowError):
                raise GraphError("features must be a matrix of numbers") from None
            if num_nodes == 0 and features.size == 0:
                features = np.ones((0, 1))  # JSON's [] has no width, and no row differs
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

    @property
    def csr(self):
        """Read-only (indptr, nbr) arrays: v's neighbours, ascending, are
        nbr[indptr[v]:indptr[v + 1]].  Built on first use and kept."""
        if not hasattr(self, "_csr"):
            lengths = itertools.accumulate(map(len, self.adjacency), initial=0)
            indptr = np.fromiter(lengths, np.intp, self.num_nodes + 1)
            nbr = np.fromiter(itertools.chain.from_iterable(self.adjacency), np.intp, indptr[-1])
            for a in (indptr, nbr):
                a.setflags(write=False)
            object.__setattr__(self, "_csr", (indptr, nbr))
        return self._csr

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

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.num_nodes == other.num_nodes and self.edges == other.edges
                and np.array_equal(self.features, other.features))

    def __hash__(self):
        return hash((self.num_nodes, self.edges))

    def __repr__(self):
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def to_json_obj(self):
        return {"num_nodes": self.num_nodes, "edges": [[u, v] for u, v in self.edges],
                "features": self.features.tolist()}

    def to_text(self):
        """Edge-list text if the features are the ones column an edge list
        implies, else JSON text; parse_graph reads either back as this graph."""
        if self.features.tolist() != [[1.0]] * self.num_nodes:
            return json.dumps(self.to_json_obj()) + "\n"
        lines = [f"{self.num_nodes} {self.num_edges}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Subgraph:
    """A local graph plus the mapping from local indices to parent node ids.

    ``parent_ids[i]`` is the parent id of local node ``i``.  Induced
    subgraphs satisfy the local-edge-iff-parent-edge property; union-minus
    subgraphs deliberately drop some parent edges, so inducedness is not
    enforced here.
    """

    local: Graph
    parent_ids: tuple

    def __post_init__(self):
        parent_ids = tuple(self.parent_ids)
        if len(parent_ids) != self.local.num_nodes:
            raise GraphError("parent_ids length must equal local.num_nodes")
        if len(set(parent_ids)) != len(parent_ids):
            raise GraphError("parent_ids must not contain duplicates")
        object.__setattr__(self, "parent_ids", parent_ids)

    @property
    def num_nodes(self):
        return self.local.num_nodes

    @property
    def num_edges(self):
        return self.local.num_edges

    def parent_edges(self):
        return tuple(
            _normalize_edge(self.parent_ids[i], self.parent_ids[j])
            for i, j in self.local.edges
        )


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
    if n > MAX_PARSED_NODES:
        raise GraphParseError(f"{n} nodes exceed the bound of {MAX_PARSED_NODES}", line=1)
    if len(lines) - 1 != m:
        raise GraphParseError(
            f"expected {m} edge lines, found {len(lines) - 1}", line=len(lines)
        )
    edges = []
    for idx, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError("malformed edge, expected 'u v'", line=idx)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphParseError("malformed edge, expected two integers", line=idx) from None
    try:
        return Graph(n, edges)
    except GraphError as exc:  # edge k is on line k + 2
        raise GraphParseError(str(exc), line=exc.edge + 2) from None


def _is_json_int(x):
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_json_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except ValueError:  # an integer literal past Python's digit limit
        raise GraphParseError("invalid JSON: integer literal too long") from None
    except RecursionError:
        raise GraphParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict) or "num_nodes" not in obj or "edges" not in obj:
        raise GraphParseError("JSON graph must contain 'num_nodes' and 'edges'")
    n = obj["num_nodes"]
    if not _is_json_int(n) or not 0 <= n <= MAX_PARSED_NODES:
        raise GraphParseError(f"'num_nodes' must be an integer in 0..{MAX_PARSED_NODES}")
    if not isinstance(obj["edges"], list):
        raise GraphParseError("'edges' must be a list of pairs")
    edges = []
    for k, pair in enumerate(obj["edges"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphParseError(f"edge #{k} is not a pair")
        edges.append((pair[0], pair[1]))
    features = obj.get("features")
    if features is not None and not (
        isinstance(features, list)
        and all(isinstance(row, list) and all(map(_is_json_number, row)) for row in features)
    ):
        raise GraphParseError("'features' must be a list of rows of numbers")
    try:
        return Graph(n, edges, features)
    except GraphError as exc:
        where = "" if exc.edge is None else f"edge #{exc.edge}: "
        raise GraphParseError(where + str(exc)) from None


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
    adj_a = [set(a) for a in ga.adjacency]
    adj_b = [set(b) for b in gb.adjacency]
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

# bound on the work of one cycle search: the adjacency entries it reads, plus
# one per read.  A step took 60 to 260 ns on a 2-vCPU host, so an accepted
# search takes about 2.5 s at most
MAX_CYCLE_STEPS = 10**7


def count_simple_cycles(g, k):
    """Number of simple cycles of length exactly k, each counted once.

    Paths are rooted at their smallest node, so later nodes must exceed the
    root, and each cycle is found once in each direction.  The last node is
    counted, not visited: the neighbours of each path end of k - 1 nodes are
    read in its parent's loop, and each one off the path that neighbours the
    root closes a cycle.  A search that would read more than MAX_CYCLE_STEPS
    adjacency entries plus reads raises GraphError.
    """
    if k < 3:
        raise GraphError("cycle length must be at least 3")
    adj = g.adjacency
    count = steps = 0
    on_path = set()  # the path's nodes after the root

    def read(node):
        nonlocal steps
        steps += len(adj[node]) + 1
        if steps > MAX_CYCLE_STEPS:
            raise GraphError(f"{k}-cycle search: more than {MAX_CYCLE_STEPS} steps "
                             f"(adjacency entries read, plus one per read)")
        return adj[node]

    def extend(current, depth):
        # current ends a path of depth nodes
        nonlocal count
        for nxt in read(current):
            if nxt > root and nxt not in on_path:
                if depth < k - 2:
                    on_path.add(nxt)
                    extend(nxt, depth + 1)
                    on_path.discard(nxt)
                else:
                    for last in read(nxt):
                        if last in closing and last not in on_path:
                            count += 1

    for root, row in enumerate(adj):
        closing = set(row[bisect.bisect(row, root):])  # the root's larger neighbours
        extend(root, 1)
    return count // 2


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

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


def _z4_cayley_graph(steps):
    """Cayley graph of Z4×Z4: cell (i, j) is node 4i + j, joined to cell
    (i + di, j + dj) mod 4 for every step (di, dj)."""
    return Graph(16, {
        _normalize_edge(4 * i + j, 4 * ((i + di) % 4) + (j + dj) % 4)
        for i in range(4) for j in range(4) for di, dj in steps
    })


def rook_graph_4x4():
    """4×4 rook's graph: cells adjacent iff same row or same column."""
    return _z4_cayley_graph([(0, 1), (0, 2), (1, 0), (2, 0)])


def shrikhande_graph():
    """Cayley graph of Z4×Z4 with connection set {±(1,0), ±(0,1), ±(1,1)}."""
    return _z4_cayley_graph([(1, 0), (0, 1), (1, 1)])


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
