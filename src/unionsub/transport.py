"""Exact solver for small balanced transportation problems.

Classic transportation simplex: least-cost start, most-negative reduced
cost entering, stepping-stone pivot.  The basis is a spanning tree on the
m + n nodes rows 0..m-1 and columns m..m+n-1, one edge per basic cell.  Each
pivot walks that tree once from row 0; the walk gives every node its
potential (u_i + v_j = c_ij on basic cells, u_0 = 0), its parent and its
depth.  The potentials price the non-basic cells, and the parent pointers
give the pivot cycle: the tree path from the entering cell's row to its
column.  Instances here are tiny: curvature cancels the mass its two
measures share before it transports the rest, which leaves a few points a
side.  Inputs are read as plain sequences and solved on Python lists; only
the returned plan is an array.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-12


class TransportError(RuntimeError):
    """Solver failed to terminate; impossible for valid balanced instances."""


def solve_transport(supply, demand, cost):
    """Minimize sum(cost * plan) over nonnegative plans with given marginals.

    Inputs may be plain sequences or arrays.  Returns (plan, objective) with
    plan an array.  Supply and demand must be non-empty and balance to within
    1e-9; the residual is folded into the last demand entry so the simplex
    sees an exactly balanced instance.
    """
    try:
        a = [float(x) for x in supply]
        b = [float(x) for x in demand]
        c = [[float(x) for x in row] for row in cost]
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
    imbalance = sum(a) - sum(b)
    if abs(imbalance) > 1e-9:
        raise ValueError(f"unbalanced instance (residual {imbalance:.3e})")
    b[-1] += imbalance

    plan = [[0.0] * n for _ in range(m)]
    basis = set()
    # least-cost initial basic feasible solution.  Cells are visited by
    # (cost, i, j); each one in a live row and column becomes basic, takes
    # min(a[i], b[j]) and crosses out one line: its row if a[i] <= b[j], else
    # its column, but never the last row or column left.  The final cell
    # crosses out both, so exactly m+n-1 cells form a spanning tree; a and b
    # become what is left to place.
    flat = [x for row in c for x in row]
    rows_left, cols_left = m, n
    row_out, col_out = [False] * m, [False] * n
    for k in sorted(range(m * n), key=flat.__getitem__):  # stable: ties row-major
        i, j = divmod(k, n)
        if row_out[i] or col_out[j]:
            continue
        basis.add((i, j))
        amount = min(a[i], b[j])
        plan[i][j] = amount
        cross_row = rows_left > 1 and (a[i] <= b[j] or cols_left == 1)
        a[i] -= amount
        b[j] -= amount
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
        tree = [[] for _ in range(m + n)]
        for i, j in basis:
            tree[i].append(m + j)
            tree[m + j].append(i)
        potential = [0.0] * (m + n)
        parent = [-1] * (m + n)
        link = [None] * (m + n)  # the basic cell joining a node to its parent
        depth = [0] * (m + n)
        order = [0]
        for x in order:  # breadth-first; the list grows while it is read
            for y in tree[x]:
                if y != parent[x]:
                    parent[y] = x
                    i, j = link[y] = (x, y - m) if x < m else (y, x - m)
                    depth[y] = depth[x] + 1
                    potential[y] = c[i][j] - potential[x]
                    order.append(y)

        entering = None
        best = -PIVOT_TOL
        for r in range(m):
            u_r = potential[r]
            c_r = c[r]
            for s in range(n):
                reduced = c_r[s] - u_r - potential[m + s]
                if reduced < best and (r, s) not in basis:
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
        while x != y:
            if depth[x] >= depth[y]:
                from_row.append(link[x])
                x = parent[x]
            else:
                from_col.append(link[y])
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
        plan[leaving[0]][leaving[1]] = 0.0
        basis.remove(leaving)
        basis.add(entering)
    raise TransportError("transportation simplex exceeded its iteration cap")


def wasserstein_discrete(mu, nu, distances):
    """Exact 1-Wasserstein distance between small discrete distributions.

    ``distances[i][j]`` is the ground metric between support point i of mu
    and support point j of nu; plain lists and arrays are both read.
    Zero-mass support points are dropped first.
    """
    keep_i = [i for i, x in enumerate(mu) if x > 0]
    keep_j = [j for j, x in enumerate(nu) if x > 0]
    if not keep_i or not keep_j:
        raise ValueError("distributions must carry positive mass")
    _, objective = solve_transport(
        [mu[i] for i in keep_i],
        [nu[j] for j in keep_j],
        [[distances[i][j] for j in keep_j] for i in keep_i],
    )
    return objective
