"""Exact linear assignment: the optimal one-to-one matching of the rows of
a cost table to its columns.

Tracking's association, eval's truth matching and the cluster-to-action
map solve tables of a few rows and columns, thousands of times per
procedure, so the solver works on Python lists.  It is Kuhn-Munkres with
row and column potentials (Kuhn 1955; Munkres 1957), in the shortest
augmenting path form for rectangular tables (Crouse 2016, "On
implementing 2D rectangular assignment algorithms"): O(r^2 c) for r <= c
rows, exact and polynomial at any size.

Tie rule.  A table with more rows than columns is solved as its
transpose, and a maximisation as the minimisation of the negated table.
Rows are then added in order, and each one grows a shortest path tree
until it reaches a free column.  A search scans the columns not yet in
the tree starting from the last, and after each step moves the last
unscanned column into the place the chosen one left.  A column replaces
the best so far when its path cost is strictly lower, or equal and the
column is free.  Arithmetic is float64, in the order the code gives.
These are SciPy's choices in ``linear_sum_assignment``, so among tied
optima this solver returns the assignment SciPy returns, and a constant
table gives the identity.

Most tables of the pipeline need no search: while no search has run, a
row whose least entry lies in a free column takes the first such column,
which is the search's first step and its result.  ``assign_blocks`` takes
that step for many tables of one shape in one numpy pass, and hands the
tables where it does not apply to ``linear_assignment``.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np


def linear_assignment(cost: Sequence[Sequence[float]],
                      maximize: bool = False,
                      ) -> tuple[list[int], list[int]]:
    """The assignment of least (or, with ``maximize``, greatest) total
    cost of an r x c table, given as a sequence of lists or tuples.

    Returns (rows, cols): min(r, c) pairs, rows ascending, as lists of
    ints.  Ties follow the module's tie rule.  Raises ValueError if an
    entry is not finite.
    """
    r = len(cost)
    c = len(cost[0]) if r else 0
    if r == 0 or c == 0:
        return [], []
    flip = r > c
    work = cost
    if flip or maximize:
        sign = -1.0 if maximize else 1.0
        work = [[sign * x for x in row]
                for row in (zip(*cost) if flip else cost)]
    if not all(map(math.isfinite, itertools.chain.from_iterable(work))):
        raise ValueError("cost table has a non-finite entry")
    cols = _shortest_augmenting_paths(work)
    if not flip:
        return list(range(r)), cols
    order = sorted(range(len(cols)), key=cols.__getitem__)
    return [cols[i] for i in order], order


def _shortest_augmenting_paths(work: Sequence[Sequence[float]]) -> list[int]:
    """The column of each row of an r <= c table in its least-cost
    assignment, by the module's tie rule."""
    r, c = len(work), len(work[0])
    col4row = [-1] * r
    row4col = [-1] * c
    # while v is zero, a row with a least entry in a free column takes the
    # first such column in one step of its search, which leaves v at zero
    for start, row in enumerate(work):
        least = min(row)
        j = row.index(least)
        try:
            while row4col[j] >= 0:
                j = row.index(least, j + 1)
        except ValueError:
            break
        col4row[start] = j
        row4col[j] = start
    else:
        return col4row
    u = [0.0 + min(row) for row in work[:start]] + [0.0] * (r - start)
    v = [0.0] * c
    path = [-1] * c
    for cur in range(start, r):
        dist = [math.inf] * c
        remaining = list(range(c - 1, -1, -1))
        tree_rows, tree_cols = [], []
        i, sink, min_val = cur, -1, 0.0
        while sink < 0:
            tree_rows.append(i)
            row, ui = work[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                dj = min_val + row[j] - ui - v[j]
                if dj < dist[j]:
                    path[j] = i
                    dist[j] = dj
                else:
                    dj = dist[j]
                if dj < lowest or (dj == lowest and row4col[j] < 0):
                    lowest, index = dj, it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            tree_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in tree_rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in tree_cols:
            v[j] -= min_val - dist[j]
        j = sink
        while True:  # flip the path's matched and unmatched edges
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def assign_blocks(blocks: np.ndarray, maximize: bool = False,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``linear_assignment`` of each table in a (k, r, c) array.

    Returns (rows, cols), two (k, min(r, c)) intp arrays, rows ascending
    within each table.  Every row of every table first tries the
    free-least-entry step in one pass per row; the tables where some row
    cannot take it are solved one by one.
    """
    k, r, c = blocks.shape
    m = min(r, c)
    rows = np.broadcast_to(np.arange(m), (k, m)).copy()
    cols = np.zeros((k, m), dtype=np.intp)
    if k == 0 or m == 0:
        return rows, cols
    work = np.asarray(blocks, dtype=np.float64)
    if not np.isfinite(work).all():
        raise ValueError("cost table has a non-finite entry")
    flip = r > c
    if flip:
        work = work.transpose(0, 2, 1)
    if maximize:
        work = -work
    at = np.arange(k)
    taken = np.zeros((k, max(r, c)), dtype=bool)
    stepped = np.ones(k, dtype=bool)
    for i in range(m):
        row = work[:, i]
        free_least = (row == row.min(1, keepdims=True)) & ~taken
        j = free_least.argmax(1)  # the first, if there is one
        stepped &= free_least[at, j]
        cols[:, i] = j
        taken[at, j] = True
    if flip:
        order = np.argsort(cols, axis=1)
        rows, cols = np.take_along_axis(cols, order, 1), order
    for q in np.flatnonzero(~stepped).tolist():
        rows[q], cols[q] = linear_assignment(blocks[q].tolist(), maximize)
    return rows, cols
