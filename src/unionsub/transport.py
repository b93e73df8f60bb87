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
