"""Phase-1 simplex feasibility for small dense equality systems.

Solves "does Ax = b, x >= 0 have a solution" by minimizing the sum of
artificial variables with Bland's anti-cycling rule on a dense tableau.
Feasible outcomes return a vertex solution; infeasible ones return a Farkas
vector y with A^T y <= 0 and b^T y > 0.  The dimensions here are tiny
(hundreds of columns), so exactness and determinism beat speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericallyAmbiguous

FEASIBLE_TOL = 1e-9
INFEASIBLE_TOL = 1e-7
PIVOT_TOL = 1e-11


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: np.ndarray | None          # a solution when feasible
    farkas: np.ndarray | None     # separating dual when infeasible
    objective: float              # residual infeasibility mass


def solve_equality_feasibility(a: np.ndarray, b: np.ndarray) -> FeasibilityResult:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    m, n = a.shape
    signs = np.where(b < 0, -1.0, 1.0)
    a = a * signs[:, None]
    b = b * signs

    # tableau columns: n originals, m artificials, rhs
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b
    # reduced-cost row for minimizing the artificial sum (c_j - c_B B^-1 A_j)
    tab[m, :n] = -a.sum(axis=0)
    tab[m, -1] = -b.sum()
    basis = np.arange(n, n + m)

    while True:
        costs = tab[m, :n + m]
        entering = -1
        for j in range(n + m):        # Bland: lowest index with negative reduced cost
            if costs[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            break
        col = tab[:m, entering]
        ratios = np.full(m, np.inf)
        positive = col > PIVOT_TOL
        ratios[positive] = tab[:m, -1][positive] / col[positive]
        if not positive.any():        # unbounded cannot happen for a phase-1 objective
            break
        best = float(ratios.min())
        tied = [r for r in range(m) if ratios[r] <= best + 1e-12]
        leaving = min(tied, key=lambda r: basis[r])   # Bland: lowest basis index
        _pivot(tab, leaving, entering)
        basis[leaving] = entering

    objective = -float(tab[m, -1])
    if objective <= FEASIBLE_TOL:
        x = np.zeros(n)
        for r, j in enumerate(basis):
            if j < n:
                x[j] = tab[r, -1]
        np.clip(x, 0.0, None, out=x)
        return FeasibilityResult(True, x, None, objective)
    if objective < INFEASIBLE_TOL:
        raise NumericallyAmbiguous(
            f"phase-1 objective {objective:.3e} inside ({FEASIBLE_TOL:.0e}, {INFEASIBLE_TOL:.0e})")
    # duals: reduced cost of artificial j is 1 - y_j
    y = 1.0 - tab[m, n:n + m]
    return FeasibilityResult(False, None, signs * y, objective)


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
