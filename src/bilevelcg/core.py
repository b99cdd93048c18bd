"""Problem model shared by every solver: smooth oracles, the exact QP over
halfspaces, feasible regions with their oracles, bilevel instances,
stepsize schedules, cutting planes, and run traces."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Optional, Union

import numpy as np

DEFAULT_MEMBERSHIP_TOL = 1e-9


class OracleError(RuntimeError):
    """A subproblem oracle failed (an empty or unbounded polytope, a cut
    excluding the whole region, ...)."""


class ConfigurationError(ValueError):
    """Solver was configured inconsistently with the instance it was given."""


# ---------------------------------------------------------------------------
# Smooth objectives
# ---------------------------------------------------------------------------

def lambda_max_gram(A: np.ndarray) -> float:
    """Largest eigenvalue of A'A, i.e. |A|_2^2: the Lipschitz constant of
    the gradient of 0.5 |Ax - b|^2.  A'A and AA' share their nonzero
    eigenvalues, so the symmetric eigensolver runs on the smaller of the
    two (60 x 60 for a 60 x 5000 training block).  Exact up to rounding; a
    power iteration's Rayleigh quotient would approach it from below and
    give a Lipschitz constant that is too small."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    gram = A @ A.T if A.shape[0] < A.shape[1] else A.T @ A
    return float(np.linalg.eigvalsh(gram)[-1])


@dataclass(frozen=True)
class QuadraticForm:
    """Explicit representation f(x) = 0.5 x'Qx + q'x + c, or factored as
    f(x) = 0.5 |Fx - h|^2, for solvers that minimize f over small polyhedra
    in closed form or follow it along their steps.  Calling it gives f's
    value and gradient: it is the ``eval`` of the oracle it tags.

    A least-squares objective 0.5 |Ax - b|^2 is tagged with F = A and h = b:
    an n x d matrix instead of a d x d Gram, so value and gradient cost O(nd)
    and the value is not taken by cancellation against 0.5 |b|^2.
    :meth:`hessian` and :meth:`linear` form F'F and -F'h on every call."""

    Q: Optional[np.ndarray]
    q: Optional[np.ndarray] = None
    c: float = 0.0
    F: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.Q is None) == (self.F is None):
            raise ValueError("give exactly one of the Hessian Q and its factor F")
        if (self.q is None) != (self.Q is None) or (self.h is None) != (self.F is None):
            raise ValueError("a Hessian Q takes a linear term q, a factor F a shift h")

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)); a factored form reads F for r = Fx - h and F'r."""
        if self.F is None:
            return 0.5 * float(x @ self.Q @ x) + float(self.q @ x) + self.c, self.Q @ x + self.q
        return self.at_residual(self.F @ x - self.h)

    def at_residual(self, r: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)) of a factored form at an x with Fx - h = r."""
        return 0.5 * float(r @ r), self.F.T @ r

    def lipschitz(self) -> float:
        """The gradient's Lipschitz constant: Q's largest eigenvalue, or |F|_2^2."""
        return float(np.linalg.eigvalsh(self.Q).max()) if self.F is None else lambda_max_gram(self.F)

    def hessian(self) -> np.ndarray:
        """The dense d x d Hessian: ``Q``, or F'F."""
        return self.Q if self.F is None else self.F.T @ self.F

    def linear(self) -> np.ndarray:
        """The linear term: ``q``, or -F'h."""
        return self.q if self.F is None else -(self.F.T @ self.h)


def minimize_quadratic_over_halfspaces(quad: QuadraticForm, constraints: list[Halfspace]) -> np.ndarray:
    """Minimize the convex 0.5 x'Qx + q'x + c over the intersection of the
    :class:`Halfspace` list ``constraints``.

    Active sets are visited in order of size, and each one's KKT system is
    solved by least squares.  The first candidate that is feasible and has
    nonnegative multipliers (up to rounding) is a KKT point, hence a global
    minimizer, and is returned at once.  When no candidate qualifies (a
    singular KKT system can give multipliers of the wrong sign), the
    feasible candidate of least value is returned.  Raises OracleError when
    no active set yields a feasible point.  The worst case visits all 2^m
    active sets.  The dense Hessian and linear term are formed once per call.

    Every caller has few halfspaces, where this enumeration is the simplest
    exact method: MNG's step (at most 2), :meth:`Polytope.project` (the
    polytope's rows plus its d sign constraints) and
    ``harness._least_upper_excess`` (the same plus one).
    """
    q = quad.linear()
    d = q.shape[0]
    hessian = quad.hessian()
    best, best_val = None, np.inf
    for size in range(len(constraints) + 1):
        for active in combinations(range(len(constraints)), size):
            K = np.zeros((d + size, d + size))
            K[:d, :d] = hessian
            # An active halfspace <a, x> <= beta enters negated, as the row
            # <-a, x> = -beta and the column -a.
            rhs = np.concatenate([-q, [-constraints[i].offset for i in active]])
            for j, i in enumerate(active):
                K[:d, d + j] = K[d + j, :d] = -constraints[i].normal
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            scale = max(1.0, float(np.linalg.norm(rhs)))
            if np.linalg.norm(K @ sol - rhs) > 1e-8 * scale:
                continue  # singular and inconsistent: skip this case
            x = sol[:d]
            if not all(h.contains(x, tol=1e-9) for h in constraints):
                continue
            # The KKT rows read Qx + q = sum_j sol[d + j] a_active[j]: the
            # multipliers are -sol[d:].
            if np.all(sol[d:] <= 1e-12 * scale):
                return x
            val = quad(x)[0]
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
    line search); the tag is then the ``eval`` and gives the constant,
    unless given (a given ``eval`` must agree with it).  A factored tag
    (``QuadraticForm`` with ``F``) keeps an O(nd) least-squares oracle free
    of d x d arrays on every path but the exact QP, which forms the Hessian;
    standard_cg's exact steps and cg_bio carry its residual instead.
    """

    dimension: int
    eval: Optional[Callable[[np.ndarray], tuple[float, np.ndarray]]] = None
    lipschitz_grad: Optional[float] = None
    quadratic: Optional[QuadraticForm] = None

    def __post_init__(self):
        quad = self.quadratic
        if self.eval is None:
            if quad is None:
                raise ValueError("give an eval or a quadratic tag")
            object.__setattr__(self, "eval", quad)
        if self.lipschitz_grad is None and quad is not None:
            object.__setattr__(self, "lipschitz_grad", quad.lipschitz())

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
# step cap; and the norm of a column c_j + mu a_j of the ball-product cut,
# over |c_j| + mu |a_j|, under which its direction comes from the column
# itself.
NEWTON_TOL = 1e-12
NEWTON_MAX_STEPS = 200
NEAR_ZERO_RTOL = 1e-8


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

    All tie-breaking is deterministic (lowest index; the polytope LMO takes
    its last minimizing vertex) so that traces are reproducible across
    platforms.
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
        if not 0.0 < self.radius < np.inf:
            raise ValueError("l1 ball radius must be positive and finite")
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
    whose plain LMO point violates the cut: :func:`_envelope_walk` over the
    generated lines sigma * (-c_i, -a_i) of the signed vertices
    -sigma * r * e_i.  Returns the minimizer and the multiplier mu."""
    # Line 2i + (sigma < 0), so the lowest line index is the lowest
    # coordinate, + before -, as in L1Ball.lmo().
    values = np.stack([-c, c], axis=1).ravel()
    slopes = np.stack([-a, a], axis=1).ravel()
    i = int(np.argmax(np.abs(c)))
    j, k, theta, mu = _envelope_walk(values, slopes, r, beta, 2 * i + int(c[i] < 0), "l1 ball")
    s = np.zeros_like(c)
    s[j // 2] += theta * (r if j % 2 else -r)
    s[k // 2] += (1.0 - theta) * (r if k % 2 else -r)
    return s, mu


def _envelope_walk(values: np.ndarray, slopes: np.ndarray, r: float, beta: float, k: int,
                   what: str) -> tuple[int, int, float, float]:
    """Minimize <c, s> over the hull of vertices v_k cut by <a, s> <= beta,
    given their lines (values_k, slopes_k) = (<c, v_k>, <a, v_k>) / r, r > 0,
    and a vertex k minimizing <c, .> that violates the cut: maximize the dual
    r * min_k (values_k + mu * slopes_k) - mu * beta over mu >= 0 by walking
    the lower envelope from line k at mu = 0 to the first line whose vertex
    satisfies the cut.  Returns (j, k, theta, mu): theta * v_j +
    (1 - theta) * v_k is the minimizer, on the cut, and mu the multiplier."""
    j, mu = k, 0.0
    while r * slopes[k] > beta:
        # Only a flatter line can undercut line k as mu grows.
        flatter = np.flatnonzero(slopes < slopes[k])
        if not flatter.size:
            raise OracleError(f"the cut excludes the whole {what}")
        cross = (values[flatter] - values[k]) / (slopes[k] - slopes[flatter])
        # Rounding can put a crossing a hair before mu; the envelope only
        # moves right.  Of the lines crossing first, the flattest continues
        # the envelope (argmin keeps the lowest index on ties).
        cross = np.maximum(cross, mu)
        mu = float(cross.min())
        first = flatter[cross == mu]
        j, k = k, int(first[np.argmin(slopes[first])])
    cut_j, cut_k = r * slopes[j], r * slopes[k]
    theta = (beta - cut_k) / (cut_j - cut_k) if j != k else 0.0
    return j, k, theta, mu


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
        if not np.all((0.0 < self.radii) & (self.radii < np.inf)):
            raise ValueError("ball radii must be positive and finite")

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
        column norms.  Only an all-zero column counts as zero, so the point
        does not depend on the objective's scale."""
        # Each 1 x m @ m x 1 product of the stacked matmul runs the dot
        # kernel that ``col @ col`` runs on one column, so every norm keeps
        # that one-vector sum's order and bits.  A reduction over axis 0 sums
        # in another order, and that last bit, carried through the default
        # dictionary set-up's 5,000 pretraining steps, moved its start by
        # 3e-7 and cg_bio's final f and g by 2e-6 and 9e-6 relative.
        norms = np.sqrt((cols.T[:, None, :] @ cols.T[:, :, None]).ravel())
        zero = norms == 0.0
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
        leaves it.

        The steps run on per-column scalars computed once per call: the
        component t_j = <a_j, c_j> / |a_j| of c_j along a_j and the norm p_j
        of the rest.  Column j of u = c + mu a has the component
        x_j = |a_j| mu + t_j along a_j, so |u_j| = hypot(x_j, p_j) and
        <a_j, u_j> = |a_j| x_j: a step costs O(num_cols), and the LMO runs on
        the full columns only at the answer, or at both ends of a bracket
        that closes without one."""
        if h.contains(plain, tol=0.0):
            return plain, 0.0
        a_cols = self.columns(h.normal)
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

        # The steps run on c scaled by a power of two to a largest entry in
        # [0.5, 1), and mu is scaled back: exact, where at tiny objective
        # scales the slope's |u_j|^3 would underflow.
        exponent = int(np.frexp(np.max(np.abs(c)))[1])
        c_cols = self.columns(np.ldexp(c, -exponent))
        inv = np.divide(1.0, a_norms, out=np.zeros(self.num_cols), where=pinned)
        t = np.sum(a_cols * c_cols, axis=0) * inv
        p = np.linalg.norm(c_cols - (t * inv) * a_cols, axis=0)
        # For mu >= 2 |c_j| / |a_j| no column with a_j != 0 is near zero, and
        # res(mu) <= 2 sum_j r_j |c_j| / mu - slack; when c is 0, every
        # mu > 0 has res(mu) = -slack.
        c_norms = np.hypot(t, p)
        lo, hi = 0.0, max(2.0 * float(self.radii @ c_norms) / slack, 2.0 * float(np.max(c_norms * inv))) or 1.0
        near_c, near_a = NEAR_ZERO_RTOL * c_norms, NEAR_ZERO_RTOL * a_norms
        bend = self.radii * (a_norms * p) ** 2  # r_j |a_j|^2 p_j^2, for the slope
        mu = 0.0
        for _ in range(NEWTON_MAX_STEPS):
            # Not |c_j|^2 + 2 mu <a_j, c_j> + mu^2 |a_j|^2, which cancels to
            # about 1e-8, not 0, where a column crosses zero.
            x = a_norms * mu + t
            norms = np.hypot(x, p)
            # Where column j of u = c + mu a crosses zero, x_j and p_j keep
            # too few good bits of its direction, and rounding makes it differ
            # from the one _column_lmo computes.  So a column near zero adds
            # no slope and takes its term from its own entries, as
            # _column_lmo does (-r_j e_1 when they are all 0), and the LMO
            # point at any mu has the sign of res(mu).  The test, and the
            # direction's error, scale with |c_j| + mu |a_j|.
            near = norms <= near_c + mu * near_a
            norms[near] = np.inf
            along = a_norms * x / norms  # <a_j, u_j> / |u_j|
            for j in near.nonzero()[0]:
                u = c_cols[:, j] + mu * a_cols[:, j]
                size = np.sqrt(u @ u)
                along[j] = a_cols[:, j] @ u / size if size > 0.0 else a_cols[0, j]
            res = float((-self.radii * along).sum()) - h.offset
            if abs(res) <= NEWTON_TOL:
                return self.flatten(self._column_lmo(c_cols + mu * a_cols)[0]), math.ldexp(mu, exponent)
            if res > 0.0:
                lo = mu
            else:
                hi = mu
            # res'(mu) = -sum_j r_j (|a_j|^2 - <a_j, u_j>^2 / |u_j|^2) / |u_j|,
            # which is -sum_j r_j |a_j|^2 p_j^2 / |u_j|^3 over the columns not
            # near zero.
            slope = -float((bend / norms**3).sum())
            newton = mu - res / slope if slope < 0.0 else hi
            # A Newton step moves at most half the bracket: longer ones can
            # cycle between two points near its ends, closing it too slowly.
            mu = newton if lo < newton < hi and abs(newton - mu) <= 0.5 * (hi - lo) else 0.5 * (lo + hi)
            if not lo < mu < hi:
                break
        # The bracket closed on a jump of res, where a column of c + mu a
        # passes through zero, or at rounding level: the LMO points at its
        # two ends solve the dual at mu = hi, and their mix onto the cut, by
        # their own violations, solves the primal.
        lo_cols, hi_cols = (self._column_lmo(c_cols + end * a_cols)[0] for end in (lo, hi))
        lo_res, hi_res = (h.violation(self.flatten(cols)) for cols in (lo_cols, hi_cols))
        theta = lo_res / (lo_res - hi_res)
        return self.flatten((1.0 - theta) * lo_cols + theta * hi_cols), math.ldexp(hi, exponent)

    def project(self, v: np.ndarray) -> np.ndarray:
        cols = self.columns(v).copy()
        norms = np.linalg.norm(cols, axis=0)
        over = norms > self.radii
        cols[:, over] *= self.radii[over] / norms[over]
        return self.flatten(cols)

    def feasible_point(self) -> np.ndarray:
        return np.zeros(self.dimension)


def _vertex_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The vertices of {x : Ax <= b, x >= 0}, desk-scale (d <= ~4): the
    feasible intersections of d-subsets of its hyperplanes, sign constraints
    last, in order; a coordinate whose sign constraint is in the subset is 0."""
    m, d = A.shape
    normals = np.vstack([A, -np.eye(d)])
    offsets = np.concatenate([b, np.zeros(d)])
    seen: list[np.ndarray] = []
    for idx in combinations(range(m + d), d):
        M = normals[list(idx)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, offsets[list(idx)])
        v[[i - m for i in idx if i >= m]] = 0.0
        if np.any(v < -1e-9) or not np.all(A @ v <= b + 1e-9):
            continue
        if not any(np.linalg.norm(v - w) < 1e-9 for w in seen):
            seen.append(v)
    return np.array(seen).reshape(-1, d)


def _last_argmin(values: np.ndarray) -> int:
    """The last minimizing index: on ties, the vertex Bland's simplex reaches."""
    return values.size - 1 - int(np.argmin(values[::-1]))


@dataclass(frozen=True)
class Polytope(Region):
    """{x : Ax <= b, x >= 0}.  The LMOs run on the vertices, enumerated at
    the first call, which raises OracleError for an empty or unbounded
    polytope; the projection is :func:`minimize_quadratic_over_halfspaces`."""

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

    def halfspaces(self) -> list[Halfspace]:
        """All defining halfspaces, the sign constraints last."""
        rows = [Halfspace(self.A[i], self.b[i]) for i in range(self.A.shape[0])]
        eye = np.eye(self.dimension)
        return rows + [Halfspace(-eye[i], 0.0) for i in range(self.dimension)]

    @cached_property
    def _vertices(self) -> np.ndarray:
        verts = _vertex_rows(self.A, self.b)
        if not verts.size:
            raise OracleError("polytope has no vertices (empty or degenerate)")
        # Bounded iff the recession cone {d >= 0, Ad <= 0} is {0}, iff the
        # cone cut by 1'd <= 1 has no vertex but 0.
        cone = _vertex_rows(np.vstack([self.A, np.ones(self.dimension)]), np.append(np.zeros(self.b.size), 1.0))
        if np.any(cone != 0.0):
            raise OracleError("polytope is unbounded")
        verts.setflags(write=False)
        return verts

    def vertices(self) -> np.ndarray:
        """The rows of a read-only array, in :func:`_vertex_rows` order."""
        return self._vertices

    @property
    def diameter(self) -> float:
        verts = self.vertices()
        return float(np.linalg.norm(verts[:, None] - verts[None], axis=-1).max())

    def lmo(self, c: np.ndarray) -> np.ndarray:
        verts = self.vertices()
        return verts[_last_argmin(verts @ c)].copy()

    def cut_lmo(self, h: Halfspace, c: np.ndarray, plain: np.ndarray) -> tuple[np.ndarray, float]:
        verts = self.vertices()
        values = verts @ c
        j, k, theta, mu = _envelope_walk(values, verts @ h.normal, 1.0, h.offset, _last_argmin(values), "polytope")
        return theta * verts[j] + (1.0 - theta) * verts[k], mu

    def project(self, v: np.ndarray) -> np.ndarray:
        """The exact QP min 0.5 |x - v|^2 over the defining halfspaces."""
        quad = QuadraticForm(np.eye(v.size), -v, 0.5 * float(v @ v))
        return minimize_quadratic_over_halfspaces(quad, self.halfspaces())

    def feasible_point(self) -> np.ndarray:
        origin = np.zeros(self.dimension)
        return origin if self.contains(origin) else self.lmo(origin)


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
    reference: ReferenceData = ReferenceData()
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
        if not 0.0 < self.scale < np.inf:
            raise ValueError("inv-sqrt scale must be positive and finite")

    def step(self, k: int) -> float:
        return min(1.0, self.scale / np.sqrt(k + 1.0))

    def __str__(self) -> str:
        return f"inv-sqrt:{self.scale!r}"


Schedule = Union[Harmonic, ConstantStep, InvSqrt]


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
        if not (0.0 < self.eps_f < np.inf and 0.0 < self.eps_g < np.inf):  # NaN fails too
            raise ValueError("tolerances must be positive and finite")
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
    certified start.  ``init_iterations`` counts the CG steps of a start
    that :func:`bilevelcg.harness.run_solver` made, else it is None."""

    final_point: np.ndarray
    stop_reason: str
    trace: tuple[TraceRow, ...]
    init_certificate: Optional[float] = None
    certified: Optional[bool] = None
    init_iterations: Optional[int] = None

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
