"""Problem model shared by every solver: smooth oracles, the exact QP over
halfspaces, feasible regions with their oracles, bilevel instances,
stepsize schedules, cutting planes, and run traces."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Union

import numpy as np

from . import oracles

DEFAULT_MEMBERSHIP_TOL = 1e-9


class OracleError(RuntimeError):
    """A subproblem oracle failed (infeasible LP, a cut excluding the region, ...)."""


class ConfigurationError(ValueError):
    """Solver was configured inconsistently with the instance it was given."""


# ---------------------------------------------------------------------------
# Smooth objectives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticForm:
    """Explicit representation f(x) = 0.5 x'Qx + q'x + c for solvers that
    need to minimize f over small polyhedra in closed form.

    The Hessian is given either densely as ``Q`` or as a factor ``F`` with
    Q = F'F (then ``Q`` is None).  A least-squares objective
    0.5 |Ax - b|^2 is tagged with F = A: an n x d matrix instead of a d x d
    Gram, so that value and gradient cost O(nd).  :meth:`hessian` forms the
    dense matrix for the callers that need one."""

    Q: Optional[np.ndarray]
    q: np.ndarray
    c: float = 0.0
    F: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.Q is None) == (self.F is None):
            raise ValueError("give exactly one of the Hessian Q and its factor F")

    def value(self, x: np.ndarray) -> float:
        if self.F is None:
            return 0.5 * float(x @ self.Q @ x) + float(self.q @ x) + self.c
        Fx = self.F @ x
        return 0.5 * float(Fx @ Fx) + float(self.q @ x) + self.c

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.F is None:
            return self.Q @ x + self.q
        return self.F.T @ (self.F @ x) + self.q

    def hessian(self) -> np.ndarray:
        """The dense d x d Hessian: ``Q``, or F'F formed on every call."""
        return self.Q if self.F is None else self.F.T @ self.F


def minimize_quadratic_over_halfspaces(quad: QuadraticForm, constraints) -> np.ndarray:
    """Minimize the convex 0.5 x'Qx + q'x + c over an intersection of
    halfspaces {<n_i, x> >= o_i}, given as a list ``constraints`` of
    (normal, offset) pairs.

    Active sets are visited in order of size, and each one's KKT system is
    solved by least squares.  The first candidate that is feasible and has
    nonnegative multipliers (up to rounding) is a KKT point, hence a global
    minimizer, and is returned at once.  When no candidate qualifies (a
    singular KKT system can give multipliers of the wrong sign), the
    feasible candidate of least value is returned.  Raises OracleError when
    no active set yields a feasible point.  The worst case visits all 2^m
    active sets.  The dense Hessian is formed once per call.
    """
    d = quad.q.shape[0]
    hessian = quad.hessian()
    best, best_val = None, np.inf
    for size in range(len(constraints) + 1):
        for active in combinations(range(len(constraints)), size):
            K = np.zeros((d + size, d + size))
            K[:d, :d] = hessian
            rhs = np.concatenate([-quad.q, [constraints[i][1] for i in active]])
            for j, i in enumerate(active):
                K[:d, d + j] = constraints[i][0]
                K[d + j, :d] = constraints[i][0]
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            scale = max(1.0, float(np.linalg.norm(rhs)))
            if np.linalg.norm(K @ sol - rhs) > 1e-8 * scale:
                continue  # singular and inconsistent: skip this case
            x = sol[:d]
            if not all(float(normal @ x) >= offset - 1e-9 for normal, offset in constraints):
                continue
            # The KKT rows read Qx + q = sum_j -sol[d + j] n_active[j]: the
            # multipliers are -sol[d:].
            if np.all(sol[d:] <= 1e-12 * scale):
                return x
            val = quad.value(x)
            if val < best_val - 1e-12:
                best, best_val = x, val
    if best is None:
        raise OracleError("all active-set cases of the quadratic subproblem failed")
    return best


@dataclass(frozen=True)
class SmoothOracle:
    """Black-box value + gradient evaluator.

    ``lipschitz_grad`` is a Lipschitz constant of the gradient in the l2
    norm, or None when unknown.  ``quadratic`` is set when the function is an
    explicit convex quadratic (enables closed-form subproblems and exact
    line search); a factored tag (``QuadraticForm`` with ``F``) keeps an
    O(nd) least-squares oracle free of d x d arrays on every path but the
    exact QPs, which form the Hessian.
    """

    dimension: int
    eval: Callable[[np.ndarray], tuple[float, np.ndarray]]
    lipschitz_grad: Optional[float] = None
    quadratic: Optional[QuadraticForm] = None

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dimension},)")
        val, grad = self.eval(x)
        grad = np.asarray(grad, dtype=float)
        if grad.shape != (self.dimension,):
            raise OracleError(
                f"gradient has shape {grad.shape}, expected ({self.dimension},)"
            )
        return float(val), grad

    def value(self, x: np.ndarray) -> float:
        return self(x)[0]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self(x)[1]


# ---------------------------------------------------------------------------
# Feasible regions
# ---------------------------------------------------------------------------

# Cut residual at which the ball-product Newton iteration stops, and its
# step cap; column norm under which an LMO column counts as zero.
NEWTON_TOL = 1e-12
NEWTON_MAX_STEPS = 200
ZERO_COLUMN_NORM = 1e-10


class Region:
    """Operations every feasible region carries, on float vectors of length
    ``dimension`` (the checked entry points live in :mod:`oracles`):

    - ``lmo(c)``: argmin of <c, s> over the region;
    - ``cut_lmo(h, c, plain)``: the same over the region cut by the
      halfspace ``h``, given ``plain = lmo(c)``, which violates ``h``.  It
      returns ``(s, mu)``: the minimizer and a multiplier mu >= 0 of the cut
      with <c, s> = min_{s' in region} <c + mu a, s'> - mu beta up to
      rounding, a certificate of optimality that
      :func:`bilevelcg.checks.cut_certificate_gap` verifies; it raises
      :class:`OracleError` when the cut excludes the whole region;
    - ``project(v)``: Euclidean projection;
    - ``feasible_point()``: a deterministic feasible point.

    All tie-breaking is lowest-index deterministic so that traces are
    reproducible across platforms.
    """


@dataclass(frozen=True)
class L1Ball(Region):
    """{x : ||x_j||_1 <= radius for every column x_j}, where the
    ``dimension`` variables split into ``num_cols`` equal, consecutive
    columns (a matrix stored column-major, as the dictionary family's
    coefficients).  One column, the default, is the plain l1 ball."""

    radius: float
    dimension: int
    num_cols: int = 1

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("l1 ball radius must be positive")
        if self.num_cols < 1 or self.dimension % self.num_cols:
            raise ValueError("dimension must split into num_cols >= 1 equal columns")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius * float(np.sqrt(self.num_cols))

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The columns as the rows of a (num_cols, dimension / num_cols)
        view.  A row is contiguous, so its sum, sort, cumsum and argmax run
        in the order of a one-vector operation on that column, and give its
        bits."""
        return np.asarray(x, dtype=float).reshape(self.num_cols, -1)

    def contains(self, x: np.ndarray, tol: Optional[float] = None) -> bool:
        tol = DEFAULT_MEMBERSHIP_TOL if tol is None else tol
        return bool(np.all(np.abs(self.rows(x)).sum(axis=1) <= self.radius + tol))

    def lmo(self, c: np.ndarray) -> np.ndarray:
        rows = self.rows(c)
        # The flat index of each column's first largest |c_i|.
        at = np.argmax(np.abs(rows), axis=1) + np.arange(0, self.dimension, rows.shape[1])
        s = np.zeros(self.dimension)
        s[at] = np.where(rows.reshape(-1)[at] >= 0, -self.radius, self.radius)
        return s

    def cut_lmo(self, h: Halfspace, c: np.ndarray, plain: np.ndarray) -> tuple[np.ndarray, float]:
        """The envelope walk of :func:`_l1_cut_walk` on the one column the
        cut's normal lives in; the other columns keep their plain LMO
        columns.  A normal on several columns raises OracleError: no caller
        builds one, as the dictionary's lower-level gradient is zero on the
        whole coefficient block."""
        active = np.flatnonzero(self.rows(h.normal).any(axis=1))
        if active.size > 1:
            raise OracleError("halfspace couples several columns")
        # A zero normal goes to column 0, whose walk reports the empty cut.
        width = self.dimension // self.num_cols
        lo = int(active[0]) * width if active.size else 0
        hi = lo + width
        s = plain.copy()
        s[lo:hi], mu = _l1_cut_walk(self.radius, h.normal[lo:hi], h.offset, c[lo:hi])
        return s, mu

    def project(self, v: np.ndarray) -> np.ndarray:
        """Sort-based soft-thresholding (Duchi et al. 2008; Condat 2016) of
        every column outside the ball; the others are returned unchanged
        (threshold 0)."""
        rows = self.rows(v)
        mags = np.abs(rows)
        over = mags.sum(axis=1) > self.radius
        if not over.any():
            return rows.reshape(-1).copy()
        u = np.sort(mags, axis=1)[:, ::-1]
        cumsum = np.cumsum(u, axis=1)
        ks = np.arange(1, rows.shape[1] + 1)
        positive = u - (cumsum - self.radius) / ks > 0
        rho = rows.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)  # last positive index
        theta = np.where(over, (cumsum[np.arange(self.num_cols), rho] - self.radius) / (rho + 1.0), 0.0)
        return (np.sign(rows) * np.maximum(mags - theta[:, None], 0.0)).reshape(-1)

    def feasible_point(self) -> np.ndarray:
        return np.zeros(self.dimension)


def _l1_cut_walk(r: float, a: np.ndarray, beta: float, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize <c, s> over the l1 ball of radius r cut by <a, s> <= beta,
    whose plain LMO point violates the cut: maximize the dual
    -r * max_k line_k(mu) - mu * beta over mu >= 0 by walking the upper
    envelope of the 2d lines sigma * (c_i + mu a_i) from mu = 0.  The signed
    vertex of line (i, sigma) is -sigma * r * e_i, with <a, vertex> =
    -r * slope; the walk stops at the first line whose vertex satisfies the
    cut and mixes that vertex with the one before it onto the cut.  Returns
    the minimizer and the multiplier mu."""
    # Line 2i + (sigma < 0), so the lowest line index is the lowest
    # coordinate, + before -, as in L1Ball.lmo().
    icpt = np.stack([c, -c], axis=1).ravel()
    slope = np.stack([a, -a], axis=1).ravel()
    i = int(np.argmax(np.abs(c)))
    k = 2 * i + int(c[i] < 0)  # the line of the plain LMO vertex
    prev, mu = k, 0.0
    while -r * slope[k] > beta:
        steeper = slope > slope[k]
        if not steeper.any():
            raise OracleError("the cut excludes the whole l1 ball")
        cross = np.divide(icpt[k] - icpt, slope - slope[k], out=np.full(icpt.shape, np.inf), where=steeper)
        # Rounding can put a crossing a hair before mu; the envelope only
        # moves right.  Of the lines crossing first, the steepest continues
        # the envelope (argmax keeps the lowest index on ties).
        cross = np.maximum(cross, mu)
        mu = float(cross.min())
        first = np.flatnonzero(cross == mu)
        prev, k = k, int(first[np.argmax(slope[first])])
    s = np.zeros_like(c)
    a_left, a_right = -r * slope[prev], -r * slope[k]
    theta = (beta - a_right) / (a_left - a_right) if prev != k else 0.0
    s[prev // 2] += theta * (r if prev % 2 else -r)
    s[k // 2] += (1.0 - theta) * (r if k % 2 else -r)
    return s, mu


@dataclass(frozen=True)
class BallProduct(Region):
    """Product of per-column Euclidean balls for a matrix variable stored
    column-major as a flat vector of length col_dim * num_cols."""

    num_cols: int
    col_dim: int
    radii: np.ndarray

    def __post_init__(self):
        radii = np.broadcast_to(np.asarray(self.radii, dtype=float), (self.num_cols,))
        object.__setattr__(self, "radii", radii.copy())
        if np.any(self.radii <= 0):
            raise ValueError("ball radii must be positive")

    @property
    def dimension(self) -> int:
        return self.num_cols * self.col_dim

    @property
    def diameter(self) -> float:
        return 2.0 * float(np.sqrt(np.sum(self.radii**2)))

    def columns(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.col_dim, self.num_cols, order="F")

    def flatten(self, cols: np.ndarray) -> np.ndarray:
        return cols.reshape(-1, order="F")

    def contains(self, x: np.ndarray, tol: Optional[float] = None) -> bool:
        tol = DEFAULT_MEMBERSHIP_TOL if tol is None else tol
        norms = np.linalg.norm(self.columns(x), axis=0)
        return bool(np.all(norms <= self.radii + tol))

    def _column_lmo(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """LMO point of the objective columns ``cols`` (as columns) and the
        column norms."""
        # One BLAS dot per column, summed as np.linalg.norm sums a vector: a
        # reduction over axis 0 sums in another order, and that last bit,
        # carried through the default dictionary set-up's 5,000 pretraining
        # steps, moved its start by 3e-7 and cg_bio's final f and g by 2e-6
        # and 9e-6 relative.
        norms = np.sqrt([col @ col for col in cols.T])
        zero = norms <= ZERO_COLUMN_NORM
        out = -self.radii * cols / np.where(zero, 1.0, norms)
        # Zero objective column: any feasible point is optimal; fix the first
        # axis direction for determinism.
        out[:, zero] = 0.0
        out[0, zero] = -self.radii[zero]
        return out, norms

    def lmo(self, c: np.ndarray) -> np.ndarray:
        return self.flatten(self._column_lmo(self.columns(c))[0])

    def cut_lmo(self, h: Halfspace, c: np.ndarray, plain: np.ndarray) -> tuple[np.ndarray, float]:
        """Root of the derivative of the smooth concave dual, which is the
        cut residual res(mu) = <a, lmo(c + mu a)> - beta and falls from
        res(0) > 0: Newton steps inside a bracket [lo, hi] with
        res(lo) > 0 >= res(hi), and a bisection step whenever a Newton step
        leaves it."""
        if h.contains(plain, tol=0.0):
            return plain, 0.0
        a_cols, c_cols = self.columns(h.normal), self.columns(c)
        a_norms = np.linalg.norm(a_cols, axis=0)
        # beta - min_s <a, s>: negative when the cut misses the region.
        slack = h.offset + float(self.radii @ a_norms)
        if slack < 0.0:
            raise OracleError("the cut excludes the whole ball product")
        pinned = a_norms > 0.0
        if slack == 0.0:
            # The cut touches the region in one face, and no finite multiplier
            # attains the dual: columns with a_j != 0 are pinned to
            # -r_j a_j / |a_j|, the others keep their plain LMO columns.
            cols = self.columns(plain).copy()
            cols[:, pinned] = -self.radii[pinned] * a_cols[:, pinned] / a_norms[pinned]
            return self.flatten(cols), np.inf

        def evaluate(mu):
            u = c_cols + mu * a_cols
            s_cols, norms = self._column_lmo(u)
            return u, norms, s_cols, h.violation(self.flatten(s_cols))

        # For mu >= |c_j| / |a_j| + 2 ZERO_COLUMN_NORM / |a_j| no column with
        # a_j != 0 is a zero column, and res(mu) <= 2 sum_j r_j |c_j| / mu - slack.
        c_norms = np.linalg.norm(c_cols, axis=0)
        lo, hi = 0.0, max(
            2.0 * float(self.radii @ c_norms) / slack,
            float(np.max((c_norms[pinned] + 2.0 * ZERO_COLUMN_NORM) / a_norms[pinned])),
        )
        mu, right = 0.0, None
        for _ in range(NEWTON_MAX_STEPS):
            u, norms, s_cols, res = evaluate(mu)
            if abs(res) <= NEWTON_TOL:
                return self.flatten(s_cols), mu
            if res > 0.0:
                lo, left = mu, (s_cols, res)
            else:
                hi, right = mu, (s_cols, res)
            # res'(mu) = -sum_j r_j (|a_j|^2 - <a_j, u_j>^2 / |u_j|^2) / |u_j|.
            live = norms > ZERO_COLUMN_NORM
            along = np.sum(a_cols[:, live] * u[:, live], axis=0) / norms[live]
            slope = -float(np.sum(self.radii[live] * (a_norms[live] ** 2 - along**2) / norms[live]))
            newton = mu - res / slope if slope < 0.0 else hi
            mu = newton if lo < newton < hi else 0.5 * (lo + hi)
            if not lo < mu < hi:
                break
        if right is None:
            right = evaluate(hi)[2:]
        # The bracket closed on a jump of res, where a column of c + mu a
        # passes through zero, or at rounding level: the two ends solve the
        # dual at mu = hi, and their mix on the cut solves the primal.
        (lo_cols, lo_res), (hi_cols, hi_res) = left, right
        theta = lo_res / (lo_res - hi_res)
        return self.flatten((1.0 - theta) * lo_cols + theta * hi_cols), hi

    def project(self, v: np.ndarray) -> np.ndarray:
        cols = self.columns(v).copy()
        norms = np.linalg.norm(cols, axis=0)
        over = norms > self.radii
        cols[:, over] *= self.radii[over] / norms[over]
        return self.flatten(cols)

    def feasible_point(self) -> np.ndarray:
        return np.zeros(self.dimension)


@dataclass(frozen=True)
class Polytope(Region):
    """{x : Ax <= b, x >= 0}.  Must be bounded (it backs an LMO).  The
    LMOs solve LPs with the dense simplex; the projection is the exact QP
    :func:`minimize_quadratic_over_halfspaces`."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A.shape[0] != b.shape[0]:
            raise ValueError("row count of A must match length of b")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return self.A.shape[1]

    def contains(self, x: np.ndarray, tol: Optional[float] = None) -> bool:
        tol = DEFAULT_MEMBERSHIP_TOL if tol is None else tol
        x = np.asarray(x, dtype=float)
        if np.any(x < -tol):
            return False
        return bool(np.all(self.A @ x <= self.b + tol))

    def halfspaces(self) -> list[tuple[np.ndarray, float]]:
        """All defining halfspaces (a, beta) with semantics <a, x> <= beta,
        the sign constraints last."""
        rows = [(self.A[i], float(self.b[i])) for i in range(self.A.shape[0])]
        eye = np.eye(self.dimension)
        return rows + [(-eye[i], 0.0) for i in range(self.dimension)]

    def vertices(self) -> np.ndarray:
        """Enumerate vertices by intersecting d-subsets of the defining
        halfspaces.  Intended for desk-scale instances (dimension <= ~4)."""
        d = self.dimension
        planes = self.halfspaces()
        seen: list[np.ndarray] = []
        for idx in combinations(range(len(planes)), d):
            M = np.array([planes[i][0] for i in idx])
            rhs = np.array([planes[i][1] for i in idx])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            v = np.linalg.solve(M, rhs)
            if not self.contains(v, tol=1e-9):
                continue
            if not any(np.linalg.norm(v - w) < 1e-9 for w in seen):
                seen.append(v)
        if not seen:
            raise OracleError("polytope has no vertices (empty or degenerate)")
        return np.array(seen)

    @property
    def diameter(self) -> float:
        verts = self.vertices()
        best = 0.0
        for i in range(len(verts)):
            d = np.linalg.norm(verts[i + 1 :] - verts[i], axis=1)
            if d.size:
                best = max(best, float(d.max()))
        return best

    def _lp_point(self, c: np.ndarray, cut: Optional[Halfspace] = None) -> tuple[np.ndarray, np.ndarray]:
        """A vertex minimizing <c, x> over the polytope, cut by ``cut`` when
        given, and the row multipliers, from the dense simplex."""
        A, b = self.A, self.b
        if cut is not None:
            A = np.vstack([A, cut.normal[None, :]])
            b = np.append(b, cut.offset)
        sol = oracles.simplex_solve(oracles.LpProblem(c, A, b))
        if sol.status == "infeasible":
            raise OracleError("LP subproblem infeasible")
        if sol.status == "unbounded":
            raise OracleError("LP subproblem unbounded (region not compact)")
        return sol.point, sol.duals

    def lmo(self, c: np.ndarray) -> np.ndarray:
        return self._lp_point(c)[0]

    def cut_lmo(self, h: Halfspace, c: np.ndarray, plain: np.ndarray) -> tuple[np.ndarray, float]:
        point, duals = self._lp_point(c, h)
        return point, float(duals[-1])

    def project(self, v: np.ndarray) -> np.ndarray:
        """The exact QP min 0.5 |x - v|^2 over the defining halfspaces, each
        written <-a, x> >= -beta."""
        quad = QuadraticForm(np.eye(v.size), -v, 0.5 * float(v @ v))
        return minimize_quadratic_over_halfspaces(quad, [(-a, -beta) for a, beta in self.halfspaces()])

    def feasible_point(self) -> np.ndarray:
        origin = np.zeros(self.dimension)
        if self.contains(origin):
            return origin
        # Phase-1 style: any vertex of the feasible set.
        return self._lp_point(origin)[0]


@dataclass(frozen=True)
class ProductRegion(Region):
    """Cartesian product of regions over consecutive blocks of the variable
    vector.  Used by the dictionary-learning family (dictionary columns in
    l2 balls times coefficient columns in l1 balls)."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("product region needs at least one block")
        bounds, start = [], 0
        for b in self.blocks:
            bounds.append((start, start + b.dimension))
            start += b.dimension
        object.__setattr__(self, "_offsets", tuple(bounds))

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    @property
    def diameter(self) -> float:
        return float(np.sqrt(sum(b.diameter**2 for b in self.blocks)))

    def offsets(self) -> list[tuple[int, int]]:
        """The (lo, hi) bounds of each block, computed once per region."""
        return list(self._offsets)

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        x = np.asarray(x, dtype=float)
        return [x[lo:hi] for lo, hi in self._offsets]

    def contains(self, x: np.ndarray, tol: Optional[float] = None) -> bool:
        return all(b.contains(part, tol) for b, part in zip(self.blocks, self.split(x)))

    def lmo(self, c: np.ndarray) -> np.ndarray:
        return np.concatenate([b.lmo(part) for b, part in zip(self.blocks, self.split(c))])

    def cut_lmo(self, h: Halfspace, c: np.ndarray, plain: np.ndarray) -> tuple[np.ndarray, float]:
        normals = self.split(h.normal)
        active = [i for i, n in enumerate(normals) if np.any(n != 0.0)]
        # ``plain`` violates the cut, so a zero normal excludes every point.
        if not active:
            raise OracleError("the cut excludes the whole product region")
        if len(active) > 1:
            raise OracleError("halfspace couples several product blocks")
        i = active[0]
        lo, hi = self._offsets[i]
        # The halfspace offset is absorbed into the active block: the other
        # blocks contribute zero to it, and keep their slices of ``plain``.
        cut, part, mu = Halfspace(normals[i], h.offset), plain[lo:hi], 0.0
        if not cut.contains(part, tol=0.0):
            part, mu = self.blocks[i].cut_lmo(cut, c[lo:hi], part)
        return np.concatenate([plain[:lo], part, plain[hi:]]), mu

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate([b.project(part) for b, part in zip(self.blocks, self.split(v))])

    def feasible_point(self) -> np.ndarray:
        return np.concatenate([b.feasible_point() for b in self.blocks])


# ---------------------------------------------------------------------------
# Bilevel instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceData:
    """Optional ground-truth information attached to an instance.

    ``lower_solution_set`` is a vertex list (rows) of the optimal face of
    the lower-level problem, when it is polyhedral and known.
    """

    g_star: Optional[float] = None
    f_star: Optional[float] = None
    lower_solution_set: Optional[np.ndarray] = None


@dataclass(frozen=True)
class BilevelInstance:
    upper: SmoothOracle
    lower: SmoothOracle
    region: Region
    reference: Optional[ReferenceData] = None
    name: str = "instance"

    def __post_init__(self):
        dims = {self.upper.dimension, self.lower.dimension, self.region.dimension}
        if len(dims) != 1:
            raise ValueError(f"inconsistent dimensions: {dims}")

    @property
    def dimension(self) -> int:
        return self.region.dimension


# ---------------------------------------------------------------------------
# Halfspaces and cutting planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Halfspace:
    """{s : <normal, s> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        object.__setattr__(self, "offset", float(self.offset))

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        return float(self.normal @ x) <= self.offset + tol

    def violation(self, x: np.ndarray) -> float:
        return float(self.normal @ x) - self.offset


def cutting_plane(grad: np.ndarray, xk: np.ndarray, g0: float, gk: float) -> Halfspace:
    """Halfspace {s : gk + <grad, s - xk> <= g0} from the lower-level values
    g0 = g(x0), gk = g(xk) and gradient grad = grad g(xk): it keeps every
    point whose linearized value at ``xk`` does not exceed g(x0), so by
    convexity of g it contains the whole lower-level solution set whenever
    g(x0) >= min g."""
    return Halfspace(normal=grad, offset=float(grad @ xk) + (g0 - gk))


# ---------------------------------------------------------------------------
# Stepsize schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Harmonic:
    """gamma_k = 2 / (k + shift); shift >= 2 keeps gamma_0 <= 1."""

    shift: int = 2

    def __post_init__(self):
        if self.shift < 2:
            raise ValueError("harmonic shift must be >= 2")

    def step(self, k: int) -> float:
        return 2.0 / (k + self.shift)

    def __str__(self) -> str:
        return f"harmonic:{self.shift}"


@dataclass(frozen=True)
class ConstantStep:
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("constant stepsize must lie in (0, 1]")

    def step(self, k: int) -> float:
        return self.gamma

    def __str__(self) -> str:
        return f"constant:{self.gamma!r}"


@dataclass(frozen=True)
class InvSqrt:
    """gamma_k = min(1, scale / sqrt(k + 1))."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("inv-sqrt scale must be positive")

    def step(self, k: int) -> float:
        return min(1.0, self.scale / np.sqrt(k + 1.0))

    def __str__(self) -> str:
        return f"inv-sqrt:{self.scale!r}"


Schedule = Union[Harmonic, ConstantStep, InvSqrt]


def step_size(schedule: Schedule, k: int) -> float:
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    return schedule.step(k)


# ---------------------------------------------------------------------------
# Solver configuration and outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    eps_f: float = 1e-5
    eps_g: float = 1e-5
    max_iters: int = 1000
    schedule: Schedule = Harmonic(2)
    keep_iterates: bool = False

    def __post_init__(self):
        # Suite files are JSON, where true is not a number and 10.5 is not
        # an iteration count; bool is excluded because it subclasses int.
        for eps in (self.eps_f, self.eps_g):
            if isinstance(eps, bool) or not isinstance(eps, numbers.Real):
                raise TypeError(f"tolerances must be real numbers, got {eps!r}")
        if not (self.eps_f > 0 and self.eps_g > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise TypeError(f"max_iters must be an int, got {self.max_iters!r}")
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class TraceRow:
    k: int
    f_val: float
    g_val: float
    surrogate_f_gap: float
    surrogate_g_gap: float
    wall_nanos: int
    iterate: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SolveOutcome:
    """A solver's result.  ``trace`` holds one row per evaluated iterate,
    k = 0, ..., at most max_iters, and ``stop_reason`` is decided at its last
    row: "criterion_met" when that row passed the solver's stop test (at
    k = max_iters too), "budget_exhausted" when row max_iters did not, and
    "oracle_failure: ..." when an oracle raised while evaluating it.

    Every :func:`bilevelcg.solvers.cg_bio` run also records its start:
    ``init_certificate`` bounds g(x0) - g*, and ``certified`` says whether
    that bound is at most eps_g / 2; other solvers leave both None.  From an
    uncertified start a row that passes the stop test reports
    "uncertified_start", not "criterion_met": the test's guarantee needs a
    certified start."""

    final_point: np.ndarray
    stop_reason: str
    trace: tuple[TraceRow, ...]
    init_certificate: Optional[float] = None
    certified: Optional[bool] = None

    def __post_init__(self):
        if not self.trace:
            raise ValueError("trace must be nonempty")
        ks = [row.k for row in self.trace]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("trace rows must be strictly increasing in k")

    @property
    def best_index(self) -> int:
        """Trace position of the minimum surrogate upper-level gap (the k* of
        the non-convex guarantee).  Falls back to the last row when no
        surrogate gaps were recorded."""
        gaps = np.array([row.surrogate_f_gap for row in self.trace])
        if np.all(np.isnan(gaps)):
            return len(self.trace) - 1
        return int(np.nanargmin(gaps))

    @property
    def iterations(self) -> int:
        return self.trace[-1].k

    @property
    def wall_nanos_total(self) -> int:
        return int(sum(row.wall_nanos for row in self.trace))
