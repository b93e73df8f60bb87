"""Exact solver for small balanced transportation problems.

Classic transportation simplex: least-cost start, most-negative reduced
cost entering, stepping-stone pivot.  The basis is a spanning tree on the
m + n nodes rows 0..m-1 and columns m..m+n-1, one edge per basic cell.  The
start builds the tree's adjacency lists and each pivot edits them, dropping
the leaving cell and adding the entering one.  Each pass walks the tree once
from row 0; the walk gives every node its potential (u_i + v_j = c_ij on
basic cells, u_0 = 0), its parent and its depth.  The potentials price the
cells, a cell is basic exactly when it joins a node to its parent, and the
parent pointers give the pivot cycle: the tree path from the entering cell's
row to its column.  A basis has one tree, so the order of the adjacency
lists changes no potential, parent or cycle.  Instances here are tiny:
curvature cancels the mass its two measures share before it transports the
rest, which leaves a few points a side.

Curvature does not call the solver first.  least_cost_starts runs the same
start for a whole chunk of instances in numpy arrays, one basic cell per
instance a step, and prices every cell with integer potentials; an instance
whose start is optimal takes its objective from there, and only the rest
reach wasserstein_discrete.  The Python start serves solve_transport,
wasserstein_discrete and those instances: for one instance a batch of one
costs more than the whole Python solve.

One check reads supply, demand and the chained cost rows into Python float
lists, one ``map(float, ...)`` each; the simplex then holds the costs and
the plan as flat row-major lists, cell (i, j) at i * n + j, so cells order
as their (i, j) pairs do.  Only solve_transport's returned plan is an
array.  The objective stays numpy's sum of the cells' products: a Python
sum adds in another order, and on curvature's instances that moves the last
bit of about one objective in five and of some printed curvature values.
numpy reduces a contiguous (m, n) array over all its axes as the one run of
its m * n elements, so the flat product list sums to the bits of
``(plan * cost).sum()`` on the 2-D arrays, and float64 products are the
same IEEE products in numpy and in Python.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import add, mul

import numpy as np

PIVOT_TOL = 1e-12


class TransportError(RuntimeError):
    """Solver failed to terminate; impossible for valid balanced instances."""


def solve_transport(supply, demand, cost):
    """Minimize sum(cost * plan) over nonnegative plans with given marginals.

    Inputs may be plain sequences or arrays.  Returns (plan, objective) with
    plan an (m, n) array.  Supply and demand must be non-empty, finite and
    balance to within 1e-9, and costs finite; the residual is folded into
    the last demand entry so the simplex sees an exactly balanced instance.
    """
    a, b, c = _checked(supply, demand, cost)
    plan = _simplex(a, b, c)
    return np.array(plan).reshape(len(a), len(b)), _objective(plan, c)


def wasserstein_discrete(mu, nu, distances):
    """Exact 1-Wasserstein distance between small discrete distributions.

    ``distances[i][j]`` is the ground metric between support point i of mu
    and support point j of nu; plain lists and arrays are both read.
    """
    a, b, c = _checked(mu, nu, distances)
    return _objective(_simplex(a, b, c), c)


def least_cost_starts(supply, demand, cost, m, n):
    """The least-cost starts of many instances at once, and which are optimal.

    Instance b has m[b] supplies and n[b] demands, laid end to end in
    ``supply`` and ``demand``, and m[b] x n[b] costs, row-major, laid end to
    end in ``cost``.  There must be an instance, every m[b] and n[b] at
    least 1 and every mass non-negative; costs must be small non-negative
    integers, as curvature's 1, 2 and 3 are, so that every potential is
    exact.  Each instance's residual is summed and folded as _checked does,
    and each step of the start takes one basic cell of every unfinished
    instance, the cell _simplex's start takes.  Integer potentials over each
    basis tree then price every cell.  Returns (plan, w1, settled): the flat
    plans in the layout of ``cost``; each instance's objective, with the bits
    of wasserstein_discrete's where settled and 0 elsewhere; and whether the
    instance balances within 1e-9 and no cell prices below -PIVOT_TOL, so
    that _simplex would return its start unchanged.
    """
    count, size = len(m), m * n
    supply, demand = np.array(supply, dtype=float), np.array(demand, dtype=float)
    first_row, last_col = m.cumsum() - m, n.cumsum() - 1
    # bincount adds each instance's masses left to right from 0, as _checked does
    ids = np.arange(count)
    imbalance = (np.bincount(ids.repeat(m), supply, count)
                 - np.bincount(ids.repeat(n), demand, count))
    demand[last_col] += imbalance
    left = np.concatenate((supply, demand))  # row nodes first, then column nodes
    row, col = cell_indices(m, n)
    col += len(supply)
    inst = ids.repeat(size)

    # the start: each step, every instance's first live cell by (cost, i, j)
    # becomes basic and crosses out its row or column as _simplex's does
    plan = np.zeros(len(cost))
    out = np.zeros(len(left), dtype=bool)  # crossed-out rows and columns
    rows_left, cols_left = m.copy(), n.copy()
    pending = np.argsort(inst * (cost.max() + 1) + cost, kind="stable")
    basic = []
    while True:
        pending = pending[~(out[row[pending]] | out[col[pending]])]
        if not len(pending):
            break
        e = inst[pending]
        cell = pending[np.flatnonzero(np.concatenate(([True], e[1:] != e[:-1])))]
        e, r, c = inst[cell], row[cell], col[cell]
        a_r, b_c = left[r], left[c]
        fills_row = a_r <= b_c
        amount = plan[cell] = np.where(fills_row, a_r, b_c)
        left[r], left[c] = a_r - amount, b_c - amount
        cross_row = (rows_left[e] > 1) & (fills_row | (cols_left[e] == 1))
        # a finished instance's last column goes out, and with it its last live cell
        out[r], out[c] = cross_row, ~cross_row
        rows_left[e] -= cross_row
        cols_left[e] -= ~cross_row
        basic.append(cell)

    # potentials, u + v = cost on basic cells, spread from each first row
    # along the basis tree one level a round
    potential = np.zeros(len(left))
    known = np.zeros(len(left), dtype=bool)
    known[first_row] = True
    tree = np.concatenate(basic)
    while len(tree):
        r, c = row[tree], col[tree]
        kr, kc = known[r], known[c]
        one = kr != kc
        src, dst = np.where(kr, r, c)[one], np.where(kr, c, r)[one]
        potential[dst] = cost[tree[one]] - potential[src]
        known[dst] = True
        tree = tree[~(kr | kc)]
    reduced = cost - potential[row] - potential[col]
    pivots = np.zeros(count, dtype=bool)
    pivots[inst[reduced < -PIVOT_TOL]] = True
    settled = ~pivots & (np.abs(imbalance) <= 1e-9)  # False on a nan or inf too

    # numpy sums each settled plan's products over its m x n cells in one run,
    # as _objective does; the runs of one length are summed as one matrix
    which = np.flatnonzero(settled)
    which = which[np.argsort(size[which], kind="stable")]
    length = size[which]
    offset = np.concatenate(([0], length.cumsum()))
    first_cell = size.cumsum() - size
    product = (plan * cost)[np.arange(offset[-1])
                            + (first_cell[which] - offset[:-1]).repeat(length)]
    w1 = np.zeros(count)
    cuts = np.flatnonzero(np.diff(length, prepend=-1, append=-1))
    for lo, hi in zip(cuts.tolist(), cuts[1:].tolist()):
        runs = product[offset[lo]:offset[hi]].reshape(hi - lo, -1)
        w1[which[lo:hi]] = runs.sum(axis=1)
    return plan, w1, settled


def cell_indices(m, n):
    """(row, col): the supply and the demand index of every cell of instances
    with m[b] supplies and n[b] demands, laid end to end; the cells row-major,
    instance by instance."""
    per_row = n.repeat(m)
    row = np.arange(len(per_row)).repeat(per_row)
    col = ((n.cumsum() - n).repeat(m) - per_row.cumsum() + per_row)[row]
    col += np.arange(len(row))
    return row, col


def _checked(supply, demand, cost):
    """Supply, demand and row-major costs as float lists, with the residual
    imbalance folded into the last demand; ValueError on a malformed instance."""
    try:
        a = list(map(float, supply))
        b = list(map(float, demand))
        rows = list(cost)
        if len(rows) != len(a) or any(len(row) != len(b) for row in rows):
            raise TypeError
        c = list(map(float, itertools.chain.from_iterable(rows)))
    except TypeError:  # a number where a sequence belongs, or the reverse
        raise ValueError("cost shape must be (len(supply), len(demand))") from None
    if not a or not b:
        raise ValueError("supply and demand must be non-empty")
    if min(a) < -1e-12 or min(b) < -1e-12:
        raise ValueError("supplies and demands must be non-negative")
    # left to right; Python 3.12's sum() compensates, which moves the residual's last bit
    imbalance = reduce(add, a, 0.0) - reduce(add, b, 0.0)
    if not math.isfinite(imbalance + sum(c)):  # a nan or inf makes its sum non-finite
        raise ValueError("masses and costs must be finite")
    if abs(imbalance) > 1e-9:
        raise ValueError(f"unbalanced instance (residual {imbalance:.3e})")
    b[-1] += imbalance
    return a, b, c


def _objective(plan, c):
    """numpy's sum of the cells' products, as a Python float."""
    return float(np.array(list(map(mul, plan, c))).sum())


def _simplex(a, b, c):
    """Optimal plan, flat row-major, of the exactly balanced instance (a, b, c).

    Spends a and b: they end as what the start left to place.
    """
    m, n = len(a), len(b)
    plan = [0.0] * (m * n)
    tree = [[] for _ in range(m + n)]  # the basis tree's adjacency lists
    # least-cost initial basic feasible solution.  Cells are visited by
    # (cost, i, j); each one in a live row and column becomes basic, takes
    # min(a[i], b[j]) and crosses out one line: its row if a[i] <= b[j], else
    # its column, but never the last row or column left.  The final cell
    # crosses out both, so exactly m+n-1 cells form a spanning tree.
    rows_left, cols_left = m, n
    row_out, col_out = [False] * m, [False] * n
    for k in sorted(range(m * n), key=c.__getitem__):  # stable: ties row-major
        i, j = divmod(k, n)
        if row_out[i] or col_out[j]:
            continue
        tree[i].append(m + j)
        tree[m + j].append(i)
        a_i, b_j = a[i], b[j]
        fills_row = a_i <= b_j
        amount = plan[k] = a_i if fills_row else b_j
        cross_row = rows_left > 1 and (fills_row or cols_left == 1)
        a[i] = a_i - amount
        b[j] = b_j - amount
        if rows_left == cols_left == 1:
            break
        if cross_row:
            row_out[i] = True
            rows_left -= 1
        else:
            col_out[j] = True
            cols_left -= 1

    max_iter = 200 * (m + n) * max(m, n)
    for _ in range(max_iter):
        potential = [0.0] * (m + n)
        parent = [-1] * (m + n)
        depth = [0] * (m + n)
        order = [0]
        for x in order:  # breadth-first; the list grows while it is read
            up, u_x, below = parent[x], potential[x], depth[x] + 1
            for y in tree[x]:
                if y != up:
                    parent[y], depth[y] = x, below
                    potential[y] = c[x * n + y - m if x < m else y * n + x - m] - u_x
                    order.append(y)

        entering = None
        best = -PIVOT_TOL
        for r in range(m):
            u_r, up, k = potential[r], parent[r], r * n
            for s in range(n):
                reduced = c[k + s] - u_r - potential[m + s]
                if reduced < best and up != m + s and parent[m + s] != r:
                    best = reduced
                    entering = k + s
        if entering is None:
            return plan

        # tree path from row r to column s: step the deeper end up until the
        # ends meet.  Counted from either end, the cells alternate between
        # losing and gaining flow, starting with a losing one.
        r, s = divmod(entering, n)
        x, y = r, m + s
        from_row, from_col = [], []
        while x != y:  # each step takes the cell joining a node to its parent
            if depth[x] >= depth[y]:
                from_row.append(x * n + parent[x] - m if x < m else parent[x] * n + x - m)
                x = parent[x]
            else:
                from_col.append(y * n + parent[y] - m if y < m else parent[y] * n + y - m)
                y = parent[y]
        losing = from_row[::2] + from_col[::2]
        theta = min(plan[k] for k in losing)
        # of the cells tied at theta the smallest leaves; this fixes which
        # optimal plan a degenerate instance returns
        leaving = min(k for k in losing if plan[k] <= theta + 1e-15)
        for k in losing:
            plan[k] -= theta
        for k in from_row[1::2] + from_col[1::2]:
            plan[k] += theta
        plan[entering] += theta
        plan[leaving] = 0.0
        i, j = divmod(leaving, n)
        tree[i].remove(m + j)
        tree[m + j].remove(i)
        tree[r].append(m + s)
        tree[m + s].append(r)
    raise TransportError("transportation simplex exceeded its iteration cap")
