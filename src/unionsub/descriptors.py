"""Per-edge structural descriptors, matrix encodings, and coefficient tables.

A Descriptor is one value, a kind with that kind's one parameter.  The
flagship, union-path, turns an edge's union subgraph into its shortest-path
matrix and encodes it, by default as the singular-value sum (nuclear norm).
The rivals are node/edge count, edge betweenness, Laplacian spectrum and
Ollivier-Ricci curvature with exact optimal transport; `bench` also times a
whole-graph cycle count.  Every kind fills one table format: ``values``, the
raw coefficient of each edge of ``g.edges``, and ``weights``, the normalized
coefficient of each directed pair (v, u) in ``g.csr`` order (v ascending,
then u ascending), which the 1-WL verdict and the layer engine read as they
are.  Its dict views ``raw`` and ``normalized`` are built only when read.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .graphs import Graph, GraphError, Subgraph, count_simple_cycles
from .transport import cell_indices, least_cost_starts, wasserstein_discrete

NORMALIZATION_ZERO_TOL = 1e-12
# bound on the matrix entries plus member-neighbour pairs of one chunk of a
# table's edges, and at 8 bytes an entry on its dense member index (_indexed);
# bounds the memory of a table on a large graph: count-ne and union-path
# tables peaked at 1.7 MB on G(600, 1110), the index 0.8 MB of it
BATCH_ENTRIES = 1 << 17
# bound on the (deg v + 1)(deg u + 1) transport cells of one chunk of a curvature
# table's edges, on the neighbours one common-neighbour search reads, and at 8
# bytes a cell on the table's arc bitmap; a chunk's arrays peaked at 2.1 MB on
# two G(n, m) graphs of about 1,000 edges (perfbench large-sparse), 4.1 MB at 1 << 15
CURVATURE_ENTRIES = 1 << 14
# bound on a table's summed per-edge work estimates; a unit took up to 96 ns
# (path graphs) on a 2-vCPU host, so an accepted table takes about 2.5 s at most
MAX_TABLE_WORK = 25 * 10**6
# bound on the rows x cols of a curvature transport problem, whose time grows faster
# than its size: 128 x 128 between two hubs, with distances 1, 2 and 3 and a start
# that needs pivots, took up to 0.27 s on a 2-vCPU host
MAX_TRANSPORT_CELLS = 1 << 14
# bound on a curvature table's summed (deg v + 1)(deg u + 1), each edge's transport
# cells before cancelling; a cell took up to 2.2 us (random bipartite graphs, whose
# starts mostly need pivots; 0.14 us on paths) on a 2-vCPU host, so an accepted
# table takes about 1.3 s at most
MAX_CURVATURE_CELLS = 6 * 10**5


class DescriptorError(ValueError):
    """A descriptor could not be evaluated; carries edge identity when known."""


class Encoding(enum.Enum):
    """How a symmetric descriptor matrix is reduced to a scalar."""

    MATRIX_SUM = "matrix-sum"
    EIGEN_MAX = "eigen-max"
    SVD_SUM = "svd-sum"


@dataclass(frozen=True)
class Descriptor:
    """A per-edge descriptor kind, each a coefficient table, with its one parameter.

    lam is count-ne's (1 for node-level, 2 for graph-level use), alpha
    curvature's (laziness of the random walk), and encoding that of the four
    matrix kinds (how their matrix becomes a scalar); betweenness takes none.
    A kind refuses every field not its own that is off its default, so equal
    descriptors build equal tables.
    """

    kind: str
    lam: int = 2
    alpha: float = 0.5
    encoding: Encoding = Encoding.SVD_SUM

    PARAMETERS = {  # each kind's one parameter: its field, and the type its text converts with
        "union-path": ("encoding", Encoding), "overlap-path": ("encoding", Encoding),
        "minus-path": ("encoding", Encoding), "laplacian": ("encoding", Encoding),
        "betweenness": (None, None), "count-ne": ("lam", int), "curvature": ("alpha", float),
    }
    KINDS = tuple(PARAMETERS)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DescriptorError(f"unknown descriptor kind {self.kind!r}")
        own = self.PARAMETERS[self.kind][0]
        for field in fields(self)[1:]:
            if field.name != own and getattr(self, field.name) != field.default:
                raise DescriptorError(f"descriptor {self.kind!r} takes no {field.name}")
        if own == "lam" and (isinstance(self.lam, bool) or self.lam not in (1, 2)
                             or not isinstance(self.lam, (int, np.integer))):
            raise DescriptorError("count-ne lambda must be 1 or 2")
        if own == "alpha" and (isinstance(self.alpha, bool) or not isinstance(
                self.alpha, (int, float, np.integer, np.floating)) or not 0 <= self.alpha < 1):
            raise DescriptorError("curvature alpha must lie in [0, 1)")
        if own == "encoding" and not isinstance(self.encoding, Encoding):
            raise DescriptorError(f"unknown encoding {self.encoding!r}")

    @classmethod
    def parse(cls, text):
        """Parse strings like "union-path", "union-path:eigen-max", "count-ne:1",
        "curvature:0.3"."""
        kind, sep, _ = text.partition(":")
        if not sep or kind not in cls.KINDS:
            return cls(kind)  # an unknown kind is named as such
        name, convert = cls.PARAMETERS[kind]
        if name is None:
            raise DescriptorError(f"descriptor {kind!r} takes no parameter")
        return cls(kind, **{name: convert_parameter(text, convert)})


def convert_parameter(text, convert):
    """``convert`` of the parameter of the kind text ``text``, the part after
    its colon; surrounding whitespace, which int and float would strip, or a
    failed conversion makes it an invalid parameter."""
    param = text.partition(":")[2]
    if param == param.strip():
        try:
            return convert(param)
        except ValueError:
            pass
    raise DescriptorError(f"invalid parameter in {text!r}")


# ---------------------------------------------------------------------------
# Path matrices
# ---------------------------------------------------------------------------

def path_matrix(s):
    """Shortest-path matrix of a connected subgraph; rows follow s.parent_ids.

    One breadth-first search per node over the local adjacency; a node left
    unreached raises DescriptorError.
    """
    adj = s.local.adjacency
    rows = []
    for source in range(len(adj)):
        row, queue = [-1] * len(adj), [source]
        row[source] = 0
        for x in queue:  # visits the nodes appended while it runs, in order
            for y in adj[x]:
                if row[y] < 0:
                    row[y] = row[x] + 1
                    queue.append(y)
        if len(queue) < len(adj):
            raise DescriptorError("subgraph is disconnected; path matrix undefined")
        rows.append(row)
    return np.array(rows, dtype=int).reshape(len(adj), len(adj))


def reconstruct_subgraph(entries, order):
    """Invert path_matrix: the subgraph on parent ids ``order`` whose path
    matrix is ``entries``, which must be that of the graph of its 1 entries."""
    entries = np.asarray(entries)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DescriptorError("path matrix must be square")
    if (entries < 0).any():
        raise DescriptorError("path matrix entries must be non-negative")
    if not np.array_equal(entries, entries.T):
        raise DescriptorError("path matrix must be symmetric")
    if np.diag(entries).any():
        raise DescriptorError("path matrix diagonal must be zero")
    s = Subgraph(Graph(len(entries), np.argwhere(np.triu(entries == 1)).tolist()), order)
    if not np.array_equal(path_matrix(s), entries):
        raise DescriptorError("entries are not the shortest-path lengths of their graph")
    return s


def encode_matrix(matrix, encoding):
    """Reduce a square matrix to a scalar per the chosen encoding."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DescriptorError("encoding requires a square matrix")
    if not np.isfinite(m).all():
        raise DescriptorError("matrix entries must be finite")
    if encoding is Encoding.MATRIX_SUM:
        return float(m.sum())
    if not np.allclose(m, m.T, atol=1e-9):
        raise DescriptorError("matrix must be symmetric")
    return float(_encode_stack(((m + m.T) / 2.0)[None], encoding)[0])


def _encode_stack(stack, encoding):
    """Encode a (B, k, k) stack of symmetric matrices, one value per matrix.

    Singular values of a symmetric matrix are its absolute eigenvalues, so
    both spectral encodings need only ``eigvalsh``.
    """
    if encoding is Encoding.MATRIX_SUM:
        return stack.sum(axis=(1, 2))
    if encoding is Encoding.SVD_SUM:
        return np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)
    if encoding is Encoding.EIGEN_MAX:
        return np.abs(np.linalg.eigvalsh(stack)).max(axis=1, initial=0.0)
    raise DescriptorError(f"unknown encoding {encoding!r}")


def local_descriptor_values(g, ends, kind):
    """Values of every per-edge kind but curvature for g's (E, 2) edge ends, in order.

    local_members gives each edge's local nodes and edges with array ops;
    edges sorted by size fill one flat array sliced into (B, k, k) stacks.
    An edge's work is bounded by a per-endpoint sum, 2 (deg x + 1)^2 for
    matrix entries plus the degrees summed over N[x] for member-neighbour
    pairs; each chunk of edges holds at most BATCH_ENTRIES of it, and edges
    summing past MAX_TABLE_WORK are refused before any work.  A node of
    degree d adds at least 2 (d + 1)^2 to each of its d edges, so an
    accepted table has d <= 231 and every k <= 464.
    """
    indptr, nbr = g.csr
    degree = indptr[1:] - indptr[:-1]
    walks = np.concatenate(([0], degree[nbr].cumsum()))
    bound = 2 * (degree + 1) ** 2 + degree + walks[indptr[1:]] - walks[indptr[:-1]]
    total = _table_work(ends, bound[ends].sum(axis=1), MAX_TABLE_WORK)
    values = np.empty(len(ends))
    for lo, hi in _chunks(total, BATCH_ENTRIES):
        values[lo:hi] = _chunk_values(indptr, degree, nbr, ends[lo:hi], kind)
    return values


def _chunks(total, bound):
    """(lo, hi) of each chunk of items, given the work summed over the items
    before each item and over all of them: as many items as fit in ``bound``,
    or one item alone."""
    lo = 0
    while lo < len(total) - 1:
        hi = max(lo + 1, total.searchsorted(total[lo] + bound, "right") - 1)
        yield lo, hi
        lo = hi


def _table_work(ends, work, limit):
    """The work summed over the edges before each edge and over all of them,
    given each edge's estimate ``work``; past ``limit`` the edge at which the
    sum passes it is refused."""
    total = np.concatenate(([0], work.cumsum()))
    if total[-1] > limit:
        v, u = ends[total.searchsorted(limit, "right") - 1].tolist()
        raise DescriptorError(f"edge ({v}, {u}): the table's work estimate passes the bound "
                              f"of {limit} at this edge")
    return total


def _chunk_values(indptr, degree, nbr, ends, kind):
    """local_descriptor_values of the (B, 2) array ``ends``, from g's CSR arrays.

    The edges' matrices lie in one flat array, sorted by size k, each
    row-major from its start.  Every local node is v, u or adjacent to one of
    them, and v ~ u, so the diameter is at most 3 and the path lengths are
    read off A and A^2: 1 on edges, 2 where A^2 > 0, else 3.  A^2 is one
    matmul per size group into a flat array of the same layout; the lengths
    and the zero diagonal (member i of an edge at its start + i (k + 1)) are
    then set once for the whole chunk.  Only the encoding and betweenness's
    per-row gathers run per size group.
    """
    batch, n = len(ends), len(degree)
    members, edge, k, at, pos = local_members(indptr, degree, nbr, ends, kind)
    offset = k.cumsum() - k
    if kind.kind == "count-ne":
        return np.bincount(edge[at], minlength=batch) / 2 / (k * (k - 1)) * k ** kind.lam
    order = k.argsort(kind="stable")
    rank, size = order.argsort(), k[order]
    cells = (size * size).cumsum()
    # members i, j of edge e meet at (i - offset[e]) k[e] + j - offset[e] in its matrix
    row = (cells[rank] - k * k - offset * (k + 1))[edge] + np.arange(len(members)) * k[edge]
    local = row[at] + pos
    a = np.zeros(cells[-1])
    a[local] = 1.0
    diag = row + np.arange(len(members))
    cuts = [0, *((size[1:] != size[:-1]).nonzero()[0] + 1).tolist(), batch]
    starts = np.append(cells - size * size, cells[-1])[cuts].tolist()
    # (edges lo:hi, their matrices' cells, their size) of each size group
    groups = [(lo, hi, slice(c0, c1), s) for lo, hi, c0, c1, s
              in zip(cuts, cuts[1:], starts, starts[1:], size[cuts[:-1]].tolist())]
    if kind.kind == "laplacian":
        m = -a
        m[diag] = np.bincount(at, minlength=len(members))  # each member's local degree
    else:  # the path lengths, in place of A^2; arithmetic on a mask beats np.where
        a2 = _group_products(a, a, groups)
        far = a2 == 0
        if kind.kind == "betweenness":
            # the shortest-path counts are the entries of A, A^2 or A^3 at the
            # same length (shortest walks are paths)
            sigma = _group_products(a2, a, groups)
            sigma *= far
            sigma += a2
            sigma[local] = 1.0
            sigma[diag] = 1.0
            own = ends + np.arange(0, batch * n, n)[:, None]  # the endpoints' keys
            local_ends = (members.searchsorted(own) - offset[:, None])[order]
        m = np.add(far, 2.0, out=a2)
        m[local] = 1.0
        m[diag] = 0.0
    values = np.empty(batch)
    for lo, hi, cut, s in groups:
        stack = m[cut].reshape(-1, s, s)
        if kind.kind != "betweenness":
            values[lo:hi] = _encode_stack(stack, kind.encoding)
            continue
        count = sigma[cut].reshape(-1, s, s)
        # the ordered pair (x, y) counts its shortest paths x ... v - u ... y and
        # (y, x) those through u - v, so each unordered pair sees both directions
        rows, (v, u) = np.arange(hi - lo), local_ends[lo:hi].T
        da, db, sa, sb = stack[rows, v], stack[rows, u], count[rows, v], count[rows, u]
        on_path = da[:, :, None] + 1.0 + db[:, None, :] == stack
        values[lo:hi] = (on_path * sa[:, :, None] * sb[:, None, :] / count).sum(axis=(1, 2))
    return values[rank]


def local_members(indptr, degree, nbr, ends, kind):
    """The local nodes and local edges of the (B, 2) array ``ends`` for a
    kind, from g's CSR arrays: (members, edge, k, at, pos).

    The i-th edge's local nodes are N[v] | N[u] (N[v] & N[u] for overlap) as
    sorted member keys i n + x; ``edge`` is each member's edge and ``k``
    counts each edge's members.  Member at[j] is adjacent to member pos[j]
    in its edge's local subgraph, every local edge appearing as both arcs
    and the arcs ordered by at; union-minus drops the arcs that join an
    exclusive neighbour of v to one of u.  A member's neighbours are found
    by a gather from every key's uint16 rank among its edge's members when
    _indexed allows its 2 B n bytes and every k < 0xFFFF (a table's k <= 464;
    a view's may not be), else by a binary search of the member keys.
    """
    batch, n = len(ends), len(degree)
    tagged = _closed_sides(indptr, degree, nbr, ends)
    keys = tagged >> 1
    new = keys[1:] != keys[:-1]
    members = keys[1:][~new if kind.kind == "overlap-path" else new]
    edge = members // n
    k = np.bincount(edge, minlength=batch)
    at, target = _rows(indptr, degree, nbr, members % n, edge * n)
    if k.max() < 0xFFFF and _indexed(2 * batch * n, BATCH_ENTRIES):
        start = (k.cumsum() - k)[edge]  # the first member of each member's edge
        rank = np.full(batch * n, 0xFFFF, np.uint16)
        rank[members] = np.arange(len(members)) - start
        pos = rank[target]
        del rank, target  # freed before the positions' int64 array
        hit = pos != 0xFFFF
        pos = start[at] + pos
    else:
        pos = members.searchsorted(target)
        hit = members.take(pos, mode="clip") == target
    if kind.kind == "minus-path":  # a member's sides: 1 for N[v] only, 2 for N[u] only, 3 both
        sides = np.where(np.append(~new[1:], False), 3, 1 + (tagged[1:] & 1))[new]
        hit &= (sides[at] & sides.take(pos, mode="clip")) != 0
    hit = hit.nonzero()[0]  # gathering the hits beats a boolean mask on both arrays
    return members, edge, k, at[hit], pos[hit]


def _closed_sides(indptr, degree, nbr, ends):
    """The sorted keys i n + x of N[v] and of N[u] for the i-th edge (v, u) of
    ``ends``, shifted left, bit 0 naming the side (1 for u), after a leading -2."""
    n = len(degree)
    own = ends + np.arange(0, len(ends) * n, n)[:, None]  # the endpoints' keys
    at, x = _rows(indptr, degree, nbr, ends.reshape(-1), (own - ends).reshape(-1))
    tagged = np.concatenate(([-2], (2 * own + [0, 1]).reshape(-1), 2 * x + (at & 1)))
    tagged.sort()
    return tagged


def _indexed(index_bytes, entries):
    """Whether a lookup gathers from a dense index of ``index_bytes`` rather
    than binary-searching sorted keys: when the index takes at most 8 bytes,
    one float, per entry of a chunk holding ``entries``, so the chunk bounds
    bound it too."""
    return index_bytes <= 8 * entries


def _group_products(a, b, groups):
    """The matrix products a @ b of two flat arrays of matrices laid out as
    ``groups``, one matmul per size group, in the same layout."""
    out = np.empty_like(a)
    for _, _, cut, s in groups:
        np.matmul(a[cut].reshape(-1, s, s), b[cut].reshape(-1, s, s),
                  out=out[cut].reshape(-1, s, s))
    return out


def _rows(indptr, degree, nbr, nodes, start):
    """(i, start[i] + y) for every neighbour y of every nodes[i], row by row."""
    counts = degree[nodes]
    at = np.arange(len(nodes)).repeat(counts)
    index = (indptr[nodes] - counts.cumsum() + counts)[at]
    index += np.arange(len(at))
    index = nbr[index]
    index += start[at]
    return at, index


# ---------------------------------------------------------------------------
# Rival descriptors
# ---------------------------------------------------------------------------

def curvature_values(g, ends, alpha):
    """Ollivier-Ricci curvature 1 - W1(mu_v, mu_u) of g's (E, 2) edge ends, in order.

    Each endpoint keeps mass alpha and spreads 1 - alpha evenly over its
    neighbours.  W1 depends only on mu_v - mu_u, so the mass both measures
    put on v, u and their common neighbours cancels before transport.  The
    points left (x of v, y of u, x != y) lie at distance 1 (x ~ y), 2 (a
    common neighbour anywhere in g, not only in the union subgraph) or 3.
    A chunk of edges builds its instances in arrays from g's CSR arrays and
    settles their least-cost starts together (least_cost_starts); only an
    instance whose start is not optimal reaches wasserstein_discrete.  Each
    chunk holds at most CURVATURE_ENTRIES of its edges' (deg v + 1)(deg u + 1)
    cells, and each common-neighbour search at most that many neighbours.
    """
    indptr, nbr = g.csr
    degree = indptr[1:] - indptr[:-1]
    cells = (degree[ends] + 1).prod(axis=1)
    is_arc = _arc_test(degree, nbr)
    values = np.empty(len(ends))
    for lo, hi in _chunks(np.concatenate(([0], cells.cumsum())), CURVATURE_ENTRIES):
        values[lo:hi] = _curvature_chunk(indptr, degree, nbr, is_arc, ends[lo:hi], alpha)
    return values


def _arc_test(degree, nbr):
    """The test of which keys x n + y of node pairs are arcs of g, from its
    CSR arrays: a gather from a bitmap of all n^2 keys when _indexed lets it
    sit beside a chunk of CURVATURE_ENTRIES cells, else a binary search of
    the sorted arc keys."""
    n = len(degree)
    arcs = np.arange(n).repeat(degree) * n + nbr  # sorted arc keys
    size = -(-n * n // 8)
    if not _indexed(size, CURVATURE_ENTRIES):
        return lambda keys: arcs.take(arcs.searchsorted(keys), mode="clip") == keys
    bits = np.zeros(size, np.uint8)
    np.bitwise_or.at(bits, arcs >> 3, (1 << (arcs & 7)).astype(np.uint8))
    return lambda keys: (bits[keys >> 3] >> (keys & 7).astype(np.uint8) & 1).view(bool)


def _curvature_chunk(indptr, degree, nbr, is_arc, ends, alpha):
    """curvature_values of the (B, 2) array ``ends``, from g's CSR arrays and
    its arc test.  An edge whose instance the array start does not settle
    reaches the solver, in edge order, as the loop over edges did."""
    batch, nodes = len(ends), len(degree)
    tagged = _closed_sides(indptr, degree, nbr, ends)
    keys = tagged >> 1
    repeat = keys[1:] == keys[:-1]
    both = repeat | np.append(repeat[1:], False)  # x lies in N[v] and in N[u]
    keys, on_u = keys[1:], tagged[1:] & 1
    edge, x = keys // nodes, keys % nodes
    center, other = ends[edge, on_u], ends[edge, 1 - on_u]
    # the points of each side's measure that keep mass after cancelling, and that mass
    mass = np.where(x == center, alpha, (1.0 - alpha) / degree[center])
    shared = np.where(both, np.where(x == other, alpha, (1.0 - alpha) / degree[other]), 0.0)
    kept = mass > shared
    mass -= shared
    rows, cols = (kept & (on_u == 0)).nonzero()[0], (kept & (on_u == 1)).nonzero()[0]
    sizes = np.bincount(edge[rows], minlength=batch), np.bincount(edge[cols], minlength=batch)
    big = sizes[0] * sizes[1] > MAX_TRANSPORT_CELLS
    # if one side keeps no mass, the other holds only rounding residue and W1 = 0
    solve = (sizes[0] * sizes[1] > 0) & ~big
    rows, cols = rows[solve[edge[rows]]], cols[solve[edge[cols]]]
    m, n = sizes[0][solve], sizes[1][solve]
    cost = _cell_distances(indptr, degree, nbr, is_arc, x[rows], x[cols], m, n)
    values, late = np.ones(batch), big.copy()
    instances = solve.nonzero()[0]
    mu, nu = mass[rows], mass[cols]
    if len(instances):
        _, w1, settled = least_cost_starts(mu, nu, cost, m, n)
        values[instances[settled]] = 1.0 - w1[settled]
        late[instances[~settled]] = True
    row_at, col_at, cell_at = (np.concatenate(([0], a.cumsum())) for a in (m, n, m * n))
    for e in late.nonzero()[0].tolist():
        v, u = ends[e].tolist()
        if big[e]:
            raise DescriptorError(f"edge ({v}, {u}): {sizes[0][e]} x {sizes[1][e]} transport "
                                  f"cells, above the bound of {MAX_TRANSPORT_CELLS}")
        b = instances.searchsorted(e)
        distances = cost[cell_at[b]:cell_at[b + 1]].reshape(m[b], n[b]).tolist()
        try:
            w1_e = wasserstein_discrete(mu[row_at[b]:row_at[b + 1]].tolist(),
                                        nu[col_at[b]:col_at[b + 1]].tolist(), distances)
        except (DescriptorError, RuntimeError) as exc:
            raise DescriptorError(f"edge ({v}, {u}): {exc}") from exc
        values[e] = 1.0 - w1_e
    return values


def _cell_distances(indptr, degree, nbr, is_arc, row_x, col_x, m, n):
    """The distance in g, 1, 2 or 3, of every cell of instances with m[b]
    row nodes and n[b] column nodes, laid end to end in row_x and col_x; the
    cells row-major, instance by instance.  Two distinct nodes of a cell must
    lie within distance 3.  Each search for a common neighbour runs over the
    neighbours of the end of lower degree, at most CURVATURE_ENTRIES at once."""
    row, col = cell_indices(m, n)
    xs, ys = row_x[row], col_x[col]
    near = is_arc(xs * len(degree) + ys)
    cost = np.where(near, 1.0, 3.0)
    far = (~near).nonzero()[0]
    xs, ys = xs[far], ys[far]
    low = degree[xs] <= degree[ys]
    s, t = np.where(low, xs, ys), np.where(low, ys, xs) * len(degree)
    for lo, hi in _chunks(np.concatenate(([0], degree[s].cumsum())), CURVATURE_ENTRIES):
        at, key = _rows(indptr, degree, nbr, s[lo:hi], t[lo:hi])
        cost[far[lo:hi][at[is_arc(key)]]] = 2.0
    return cost


def cycle_count(g, k):
    """Number of simple k-cycles in the whole graph, 3 <= k <= 8; a search
    past graphs.MAX_CYCLE_STEPS is refused as a one-line DescriptorError.
    Not a Descriptor: `bench` times it as its own kind cycle-count[:K]."""
    check_cycle_length(k)
    try:
        return count_simple_cycles(g, k)
    except GraphError as exc:
        raise DescriptorError(str(exc)) from None


def check_cycle_length(k):
    """Refuse, as a one-line DescriptorError, a length cycle_count does not take."""
    if not 3 <= k <= 8:
        raise DescriptorError("cycle length must lie in 3..8")


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CoefficientTable:
    """One graph's coefficients as two read-only arrays.

    ``values[i]`` is the raw coefficient of ``graph.edges[i]``; ``weights``
    holds the normalized coefficient of each directed pair (v, u) in the
    order of ``graph.csr``, and each non-isolated v's pairs sum to 1.  The
    dict views ``raw`` (keys (min, max)) and ``normalized`` (keys (v, u)) are
    built on first read and kept; editing one changes no array.
    """

    graph: Graph
    values: np.ndarray
    weights: np.ndarray

    @cached_property
    def raw(self):
        return dict(zip(self.graph.edges, self.values.tolist()))

    @cached_property
    def normalized(self):
        pairs = ((v, u) for v, row in enumerate(self.graph.adjacency) for u in row)
        return dict(zip(pairs, self.weights.tolist()))

    def raw_value(self, v, u):
        return self.raw[(v, u) if v < u else (u, v)]

    def to_json_obj(self):
        return {"raw": [[v, u, val] for (v, u), val in self.raw.items()],
                "normalized": [[v, u, val] for (v, u), val in self.normalized.items()]}

    def to_csv_text(self):
        norm = self.normalized
        lines = ["v,u,raw,norm_vu,norm_uv"]
        for (v, u), val in self.raw.items():
            lines.append(f"{v},{u},{val:.12g},{norm[(v, u)]:.12g},{norm[(u, v)]:.12g}")
        return "\n".join(lines) + "\n"


def coefficient_table(g, kind=Descriptor("union-path")):
    """Raw and normalized structural coefficients for every edge of g.

    A pair's weight is its edge's value over the sum of the values around its
    center, added left to right in adjacency order; a node whose sum is
    within NORMALIZATION_ZERO_TOL of 0 weighs its pairs uniformly, and a
    table with such nodes warns once, with their count and the first one.
    Deterministic regardless of node labeling.  Curvature comes from
    curvature_values, once its edges' (deg v + 1)(deg u + 1) transport cells
    sum to at most MAX_CURVATURE_CELLS; every other kind comes from
    local_descriptor_values.
    """
    indptr, nbr = g.csr
    degree = indptr[1:] - indptr[:-1]
    center = np.arange(g.num_nodes).repeat(degree)
    # the pairs (v, u) with v < u, in pair order, are the edges of g.edges
    ends = np.column_stack((center, nbr))[center < nbr]
    if kind.kind == "curvature":
        _table_work(ends, (degree[ends] + 1).prod(axis=1), MAX_CURVATURE_CELLS)
        values = np.asarray(curvature_values(g, ends, kind.alpha), dtype=float)
    else:
        values = local_descriptor_values(g, ends, kind)
    key = np.minimum(center, nbr) * g.num_nodes + np.maximum(center, nbr)
    raw = values[(ends[:, 0] * g.num_nodes + ends[:, 1]).searchsorted(key)]
    # bincount adds in input order; np.add.reduceat may pair the terms and
    # Python 3.12's sum() compensates them, either of which moves the last bit
    sums = np.bincount(center, weights=raw, minlength=g.num_nodes)
    fallback = (np.abs(sums) < NORMALIZATION_ZERO_TOL) & (degree > 0)
    if fallback.any():
        nodes = fallback.nonzero()[0]
        warnings.warn(f"coefficients around {len(nodes)} node(s) sum to ~0 (first: node "
                      f"{nodes[0]}); falling back to uniform weights", RuntimeWarning, stacklevel=2)
    # a fallback node's pairs get 1 / degree; no pair divides by a sum near 0
    weights = np.where(fallback[center], 1.0, raw) / np.where(fallback, degree, sums)[center]
    for a in (values, weights):
        a.setflags(write=False)
    return CoefficientTable(g, values, weights)
