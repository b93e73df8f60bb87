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
rest, which leaves a few points a side.  Inputs are read as plain sequences
and solved on Python lists; only the returned plan is an array.  The
objective stays numpy's sum of plan * cost: a Python sum over the cells adds
in another order, and on curvature's instances that moves the last bit of
about one objective in five and of some printed curvature values.
"""

from __future__ import annotations

import math

import numpy as np

PIVOT_TOL = 1e-12


class TransportError(RuntimeError):
    """Solver failed to terminate; impossible for valid balanced instances."""


def solve_transport(supply, demand, cost):
    """Minimize sum(cost * plan) over nonnegative plans with given marginals.

    Inputs may be plain sequences or arrays.  Returns (plan, objective) with
    plan an array.  Supply and demand must be non-empty, finite and balance
    to within 1e-9, and costs finite; the residual is folded into the last
    demand entry so the simplex sees an exactly balanced instance.
    """
    try:
        a = list(map(float, supply))
        b = list(map(float, demand))
        c = [list(map(float, row)) for row in cost]
        shaped = len(c) == len(a) and all(len(row) == len(b) for row in c)
    except TypeError:  # a number where a sequence belongs, or the reverse
        shaped = False
    if not shaped:
        raise ValueError("cost shape must be (len(supply), len(demand))")
    m, n = len(a), len(b)
    if not m or not n:
        raise ValueError("supply and demand must be non-empty")
    if min(a) < -1e-12 or min(b) < -1e-12:
        raise ValueError("supplies and demands must be non-negative")
    flat = [x for row in c for x in row]
    imbalance = sum(a) - sum(b)
    if not math.isfinite(imbalance + sum(flat)):  # a nan or inf makes its sum non-finite
        raise ValueError("masses and costs must be finite")
    if abs(imbalance) > 1e-9:
        raise ValueError(f"unbalanced instance (residual {imbalance:.3e})")
    b[-1] += imbalance

    plan = [[0.0] * n for _ in range(m)]
    tree = [[] for _ in range(m + n)]  # the basis tree's adjacency lists
    # least-cost initial basic feasible solution.  Cells are visited by
    # (cost, i, j); each one in a live row and column becomes basic, takes
    # min(a[i], b[j]) and crosses out one line: its row if a[i] <= b[j], else
    # its column, but never the last row or column left.  The final cell
    # crosses out both, so exactly m+n-1 cells form a spanning tree; a and b
    # become what is left to place.
    rows_left, cols_left = m, n
    row_out, col_out = [False] * m, [False] * n
    for k in sorted(range(m * n), key=flat.__getitem__):  # stable: ties row-major
        i, j = divmod(k, n)
        if row_out[i] or col_out[j]:
            continue
        tree[i].append(m + j)
        tree[m + j].append(i)
        a_i, b_j = a[i], b[j]
        fills_row = a_i <= b_j
        amount = plan[i][j] = a_i if fills_row else b_j
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
                    potential[y] = (c[x][y - m] if x < m else c[y][x - m]) - u_x
                    order.append(y)

        entering = None
        best = -PIVOT_TOL
        for r in range(m):
            u_r = potential[r]
            c_r, up = c[r], parent[r]
            for s in range(n):
                reduced = c_r[s] - u_r - potential[m + s]
                if reduced < best and up != m + s and parent[m + s] != r:
                    best = reduced
                    entering = (r, s)
        if entering is None:
            plan = np.array(plan)
            return plan, float((plan * np.array(c)).sum())

        # tree path from row r to column s: step the deeper end up until the
        # ends meet.  Counted from either end, the cells alternate between
        # losing and gaining flow, starting with a losing one.
        r, s = entering
        x, y = r, m + s
        from_row, from_col = [], []
        while x != y:  # each step takes the cell joining a node to its parent
            if depth[x] >= depth[y]:
                from_row.append((x, parent[x] - m) if x < m else (parent[x], x - m))
                x = parent[x]
            else:
                from_col.append((y, parent[y] - m) if y < m else (parent[y], y - m))
                y = parent[y]
        losing = from_row[::2] + from_col[::2]
        theta = min(plan[i][j] for i, j in losing)
        # of the cells tied at theta the smallest leaves; this fixes which
        # optimal plan a degenerate instance returns
        leaving = min(cell for cell in losing if plan[cell[0]][cell[1]] <= theta + 1e-15)
        for i, j in losing:
            plan[i][j] -= theta
        for i, j in from_row[1::2] + from_col[1::2]:
            plan[i][j] += theta
        plan[r][s] += theta
        i, j = leaving
        plan[i][j] = 0.0
        tree[i].remove(m + j)
        tree[m + j].remove(i)
        tree[r].append(m + s)
        tree[m + s].append(r)
    raise TransportError("transportation simplex exceeded its iteration cap")


def wasserstein_discrete(mu, nu, distances):
    """Exact 1-Wasserstein distance between small discrete distributions.

    ``distances[i][j]`` is the ground metric between support point i of mu
    and support point j of nu; plain lists and arrays are both read.
    """
    return solve_transport(mu, nu, distances)[1]
