"""Dense phase-1 simplex for small feasibility problems.

Decides whether   A x = b,  x >= 0   has a solution by minimizing the sum
of artificial variables with a tableau simplex using Bland's anti-cycling
rule, so the pivot sequence (and hence the returned vertex) is
deterministic.  Problems here have a few dozen rows and up to
about a thousand columns (the 720-point classical-6 orbit), so every step
is a whole-array operation on the dense tableau: the entering column is
the first index with a negative reduced cost, the ratio test and its Bland
tie-break are vectorized over the rows, and a pivot updates every row with
a nonzero pivot-column entry in one rank-one step.  Each tableau entry sees
the same multiply-then-subtract as in a row-by-row update, so the pivots
and the returned vertex do not depend on the vectorization.

``phase1`` is the one entry point: it answers the convex-combination
feasibility questions of ``mixedness``, with a Farkas certificate when the
answer is no.
"""

from __future__ import annotations

import numpy as np

from .tolerances import FEASIBILITY_TOL, PIVOT_TOL

MAX_ITER = 20000


class SimplexError(RuntimeError):
    """Iteration cap exceeded or an internally inconsistent tableau."""


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    rows = np.flatnonzero(np.abs(tableau[:, col]) > 0.0)
    rows = rows[rows != row]
    tableau[rows] -= tableau[rows, col][:, None] * tableau[row]
    basis[row] = col


def _run(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    """Drive the tableau to optimality in place (Bland's rule).

    ``tableau`` is m x (n+1) with the right-hand side in the last column and
    a feasible basis installed (identity columns).  The phase-1 objective is
    bounded below by zero, so an entering column always has a leaving row;
    finding none means the tableau is inconsistent.
    """
    m = tableau.shape[0]
    for _ in range(MAX_ITER):
        # reduced costs r = c - c_B . B^-1 A, using the current tableau rows
        cb = cost[basis]
        reduced = cost[:-1] - cb @ tableau[:, :-1]
        admissible = np.flatnonzero(reduced < -PIVOT_TOL)
        if admissible.size == 0:
            return
        entering = admissible[0]                 # Bland: smallest admissible index
        ratios = np.full(m, np.inf)
        col = tableau[:, entering]
        ok = col > PIVOT_TOL
        ratios[ok] = tableau[ok, -1] / col[ok]
        best = np.min(ratios)
        if not np.isfinite(best):
            raise SimplexError("no leaving row for the entering column")
        # Bland tie-break: among minimizing rows, leave the smallest basis index
        rows = np.flatnonzero(np.abs(ratios - best) <= PIVOT_TOL)
        leave = rows[np.argmin(np.asarray(basis)[rows])]
        _pivot(tableau, basis, int(leave), int(entering))
    raise SimplexError("simplex iteration cap exceeded")


def phase1(a: np.ndarray, b: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
    """Find x >= 0 with A x = b, or certify that none exists.

    Returns ``(feasible, x, y)``.  When infeasible, ``y`` is a Farkas
    certificate for the original system: y.A <= 0 componentwise while
    y.b > 0, built from the simplex multipliers at the phase-1 optimum.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = a.shape
    sign = np.where(b < 0, -1.0, 1.0)
    tableau = np.empty((m, n + m + 1))
    tableau[:, :n] = a * sign[:, None]
    tableau[:, n:n + m] = np.eye(m)
    tableau[:, -1] = b * sign
    cost = np.zeros(n + m + 1)
    cost[n:n + m] = 1.0
    basis = list(range(n, n + m))
    _run(tableau, basis, cost)
    x = np.zeros(n + m)
    x[basis] = tableau[:, -1]
    objective = float(np.sum(x[n:]))
    # simplex multipliers: the artificial block of the tableau is B^-1
    y = (cost[basis] @ tableau[:, n:n + m]) * sign
    return objective <= FEASIBILITY_TOL, x[:n], y
