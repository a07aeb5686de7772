"""Exact rectangular linear sum assignment.

A pure-Python port of the shortest augmenting path solver that
scipy.optimize.linear_sum_assignment runs (D. F. Crouse, "On implementing
2D rectangular assignment algorithms", IEEE TAES 52(4), 2016).  Ties decide
which of several optimal assignments comes out, so the port makes scipy's
choices step by step and returns scipy's assignment: columns are scanned
from a list filled in reverse order that shrinks by swap-remove, a tied
column wins when no row holds it yet, and every reduced cost and dual
update is evaluated in scipy's operation order.
"""

import math

import numpy as np


def min_cost_assignment(cost: np.ndarray) -> list:
    """Column of each row in a minimum-cost assignment of the rows of an
    n x m cost matrix to distinct columns.

    Precondition, which callers guarantee: n <= m and every entry is
    finite.  OSPA transposes its distances to at most as many rows as
    columns, and the ranked association fills infeasible cells with a
    large finite cost.
    """
    n, m = cost.shape
    rows = cost.tolist()
    u, v = [0.0] * n, [0.0] * m
    path, col4row, row4col = [-1] * m, [-1] * n, [-1] * m
    for cur in range(n):
        # shortest augmenting path from row cur to a free column
        remaining = list(range(m - 1, -1, -1))
        shortest = [math.inf] * m
        seen_rows, seen_cols = [], []
        min_val = 0.0
        i = cur
        while True:
            seen_rows.append(i)
            row, u_i = rows[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        # dual update, then augment along the path back to row cur
        u[cur] += min_val
        for i in seen_rows:
            if i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for c in seen_cols:
            v[c] -= min_val - shortest[c]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row
