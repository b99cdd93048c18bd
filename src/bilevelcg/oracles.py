"""The checked entry points through which the solvers call a region's
oracles, and a dense two-phase simplex LP solver.

Each region class in :mod:`core` carries its own linear minimization oracle
(plain and restricted to a halfspace cut) and projection; the functions
here validate the input vector and call them.  An LMO answer is a
:class:`~bilevelcg.core.Answer`: the point and its support.  No region
reaches the simplex: every cut LMO solves its one-dimensional dual
directly.  The simplex is the independent LP reference of
:mod:`bilevelcg.checks`.  Its tie-breaking is lowest-index deterministic
(Bland's rule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Answer, CutAnswer

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8


# ---------------------------------------------------------------------------
# Dense two-phase simplex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LpProblem:
    """min <c, x>  s.t.  A x <= b,  x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A.shape != (b.shape[0], c.shape[0]):
            raise ValueError(f"inconsistent LP shapes: A {A.shape}, b {b.shape}, c {c.shape}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class LpSolution:
    point: np.ndarray
    value: float
    status: str  # "optimal" | "infeasible" | "unbounded"


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 0.0:
            T[r] -= T[r, col] * T[row]


def _bland_iterate(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Run simplex pivots on tableau T (last row = reduced costs, last column
    = rhs) until optimal or unbounded.  Bland's rule on both choices."""
    m = T.shape[0] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if T[-1, j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave, best_ratio, best_var = -1, np.inf, None
        for i in range(m):
            a = T[i, enter]
            if a > PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best_ratio - PIVOT_TOL or (
                    ratio < best_ratio + PIVOT_TOL
                    and (best_var is None or basis[i] < best_var)
                ):
                    leave, best_ratio, best_var = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter


def simplex_solve(lp: LpProblem) -> LpSolution:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    Returns a basic feasible solution (a vertex) when optimal; status
    "infeasible" / "unbounded" is reported rather than raised.
    """
    m, n = lp.A.shape
    A = lp.A.copy()
    b = lp.b.copy()
    # Slack form A x + s = b; rows with negative rhs are negated, turning the
    # slack coefficient to -1 and requiring an artificial variable.
    neg = b < 0
    A[neg] *= -1.0
    b = np.abs(b)
    slack_sign = np.where(neg, -1.0, 1.0)
    art_rows = np.where(neg)[0]
    n_art = len(art_rows)

    total = n + m + n_art
    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    for i in range(m):
        T[i, n + i] = slack_sign[i]
    for j, i in enumerate(art_rows):
        T[i, n + m + j] = 1.0
    T[:m, -1] = b

    basis = []
    art_of_row = {int(i): n + m + j for j, i in enumerate(art_rows)}
    for i in range(m):
        basis.append(art_of_row.get(i, n + i))

    if n_art:
        # Phase 1: minimize the sum of artificials.
        T[-1, n + m :] = 0.0
        for i in art_rows:
            T[-1, : total] -= T[i, : total]
            T[-1, -1] -= T[i, -1]
        T[-1, n + m : total] = 0.0
        status = _bland_iterate(T, basis, total)
        if status != "optimal" or -T[-1, -1] > FEAS_TOL:
            return LpSolution(np.full(n, np.nan), np.nan, "infeasible")
        # Drive remaining artificials out of the basis where possible.
        for i in range(m):
            if basis[i] >= n + m:
                for j in range(n + m):
                    if abs(T[i, j]) > PIVOT_TOL:
                        _pivot(T, i, j)
                        basis[i] = j
                        break
        # Forbid artificials from re-entering.
        T[:, n + m : total] = 0.0

    # Phase 2 with the original objective.
    T[-1, :] = 0.0
    T[-1, :n] = lp.c
    for i, bi in enumerate(basis):
        if bi < n + m and abs(T[-1, bi]) > 0.0:
            T[-1] -= T[-1, bi] * T[i]
    status = _bland_iterate(T, basis, n + m)
    if status == "unbounded":
        return LpSolution(np.full(n, np.nan), np.nan, "unbounded")

    x = np.zeros(n + m)
    for i, bi in enumerate(basis):
        if bi < n + m:
            x[bi] = T[i, -1]
    point = x[:n]
    return LpSolution(point, float(lp.c @ point), "optimal")


# ---------------------------------------------------------------------------
# Checked entry points
# ---------------------------------------------------------------------------

def _checked(region, v: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (region.dimension,):
        raise ValueError(f"{what} has shape {v.shape}, expected ({region.dimension},)")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite")
    return v


def lmo(region, c: np.ndarray) -> Answer:
    """argmin_{s in region} <c, s>, with its support."""
    return region.lmo(_checked(region, c, "objective"))


def halfspace_lmo(region, h, c: np.ndarray, start: float = 0.0) -> Answer:
    """argmin_{s in region, <h.normal, s> <= h.offset} <c, s>, with its support,
    and an active cut's multiplier (a :class:`CutAnswer`; its search starts at ``start``)."""
    c = np.asarray(c, dtype=float)
    # When the plain LMO point already satisfies the halfspace it solves the
    # constrained problem too, and its answer is returned itself: an
    # inactive cut follows the exact same tie-break path as lmo().
    plain = lmo(region, c)
    if h.admits(plain):
        return plain
    return CutAnswer(*region.cut_lmo(h, c, plain, start))


def project(region, v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto ``region`` (used by the projection-based
    baseline solvers)."""
    return region.project(_checked(region, v, "point"))
