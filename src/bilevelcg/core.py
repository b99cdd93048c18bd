"""Problem model shared by every solver: smooth oracles, the exact QP over
halfspaces, feasible regions with their oracles, bilevel instances,
stepsize schedules, cutting planes, and run traces."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Union

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
    if not A.size:
        return 0.0  # no rows (a linear tag's factor) or no columns
    gram = A @ A.T if A.shape[0] < A.shape[1] else A.T @ A
    return float(np.linalg.eigvalsh(gram)[-1])


@dataclass(frozen=True)
class QuadraticForm:
    """f(x) = 0.5 |Fx - h|^2 + q'x, where q None means no linear term and a
    linear f has an F with no rows, for solvers that minimize f over small
    polyhedra in closed form or follow it along their steps.  Calling it
    gives f's value and gradient: it is the ``eval`` of the oracle it tags.

    A least-squares objective 0.5 |Ax - b|^2 is tagged with F = A and h = b:
    an n x d matrix instead of a d x d Hessian, so value and gradient cost
    O(nd) and the value is not taken by cancellation against 0.5 |b|^2."""

    F: np.ndarray
    h: np.ndarray
    q: Optional[np.ndarray] = None

    def __post_init__(self):
        # Arrays, as the methods need; a float array is kept, not copied.
        for name in ("F", "h") if self.q is None else ("F", "h", "q"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        F, h = np.shape(self.F), np.shape(self.h)
        if len(F) != 2 or h != F[:1]:
            raise ValueError(f"F must be a matrix and h a vector of its rows, got shapes {F} and {h}")
        if self.q is not None and np.shape(self.q) != F[1:]:
            raise ValueError(f"q must be a vector of F's columns, got shape {np.shape(self.q)} for F {F}")

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)), reading F for r = Fx - h and F'r."""
        return self.at_residual(self.F @ x - self.h, x)

    def at_residual(self, r: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)) at an x with Fx - h = r."""
        value, grad = 0.5 * float(r @ r), self.F.T @ r
        if self.q is None:
            return value, grad
        return value + float(self.q @ x), grad + self.q


class FactoredQP:
    """The convex quadratic ``quad`` = 0.5 |F x - h|^2 + q'x, to be minimized
    over intersections of a few :class:`Halfspace` constraints: the repo's
    one exact QP.  The eigendecomposition of the Hessian F'F is taken once,
    as the SVD of F: its squared singular values are the eigenvalues,
    and its d right singular vectors split into a basis of the range and
    one of the null space, where an eigenvalue of at most d eps times the
    largest counts as 0.  So a caller that solves many QPs of one
    objective, as MNG does on every step, factors it once.

    :meth:`minimize` visits the active sets of its constraints in order of
    size and solves each one's KKT system

        F'F x + (q - F'h) = sum_j nu_j a_j,   <a_j, x> = beta_j  (j active)

    by least squares in reduced coordinates: the range of F'F, where the
    Hessian is its eigenvalues, plus the span of the active normals'
    components in its null space, at most rank + 2m unknowns with the
    multipliers.  The rest of the null space enters no equation, so the
    minimum-norm solution has no component there and is the minimum-norm
    solution of the full (d + m) system; its part of q - F'h is a residual
    that no x removes.  The first candidate that passes the residual test,
    is feasible and has nonnegative multipliers -nu (up to rounding) is a
    KKT point, hence a global minimizer, and is returned at once.  When no
    candidate qualifies (a singular KKT system can give multipliers of the
    wrong sign), the feasible candidate of least value is returned.  Raises
    OracleError when no active set yields a feasible point.  The worst case
    visits all 2^m active sets; every caller has few halfspaces: MNG's step
    (at most 2), :meth:`Polytope.project` (the polytope's rows plus its d
    sign constraints) and ``harness._least_upper_excess`` (the same plus
    one).
    """

    def __init__(self, quad: QuadraticForm):
        F = quad.F
        self.quad = quad
        self.linear = -(F.T @ quad.h) if quad.q is None else quad.q - F.T @ quad.h
        # Right singular vectors: the eigenvectors, the range's first.  All d
        # of them come with the reduced SVD when n >= d; for n < d the full
        # one adds the null basis and an n x n left factor.
        _, s, vt = np.linalg.svd(F, full_matrices=F.shape[0] < F.shape[1])
        eig = s * s
        rank = int(np.count_nonzero(eig > np.finfo(float).eps * F.shape[1] * (eig[0] if eig.size else 0.0)))
        self.eig, self.range, self.null = eig[:rank], vt[:rank].T, vt[rank:].T
        self.linear_range = self.range.T @ self.linear
        self.linear_null = self.null.T @ self.linear  # in the null basis's coordinates
        self.linear_sq = float(self.linear @ self.linear)

    def minimize(self, constraints: list[Halfspace]) -> np.ndarray:
        d, rank = self.range.shape
        normals = np.array([h.normal for h in constraints]).reshape(len(constraints), d)
        offsets = np.array([h.offset for h in constraints])
        on_range, on_null = normals @ self.range, normals @ self.null
        floor = np.finfo(float).eps * d * float(np.abs(normals).max(initial=0.0))
        best, best_val = None, np.inf
        for size in range(len(constraints) + 1):
            for active in combinations(range(len(constraints)), size):
                active = list(active)
                # The active normals' null-space parts span the null
                # directions that enter the system.
                span = _span(on_null[active].T, floor)
                n = rank + span.shape[1]
                coords = np.hstack([on_range[active], on_null[active] @ span])
                # An active halfspace <a, x> <= beta enters negated, as the
                # row <-a, x> = -beta and the column -a.
                K = np.zeros((n + size, n + size))
                K[np.arange(rank), np.arange(rank)] = self.eig
                K[:n, n:] = -coords.T
                K[n:, :n] = -coords
                linear_span = span.T @ self.linear_null
                rhs = np.concatenate([-self.linear_range, -linear_span, -offsets[active]])
                sol = np.linalg.lstsq(K, rhs, rcond=None)[0] if K.size else rhs
                scale = max(1.0, math.sqrt(self.linear_sq + float(offsets[active] @ offsets[active])))
                unmet = self.linear_null - span @ linear_span
                if math.hypot(np.linalg.norm(K @ sol - rhs), np.linalg.norm(unmet)) > 1e-8 * scale:
                    continue  # singular and inconsistent: skip this case
                x = self.range @ sol[:rank] + self.null @ (span @ sol[rank:n])
                if not all(h.contains(x, tol=1e-9) for h in constraints):
                    continue
                # The KKT rows read F'F x + q - F'h = sum_j sol[n + j] a_j:
                # the multipliers are -sol[n:].
                if np.all(sol[n:] <= 1e-12 * scale):
                    return x
                val = self.quad(x)[0]
                if val < best_val - 1e-12:
                    best, best_val = x, val
        if best is None:
            raise OracleError("all active-set cases of the quadratic subproblem failed")
        return best


def _span(P: np.ndarray, floor: float) -> np.ndarray:
    """An orthonormal basis of the column space of P, leaving out the
    directions of singular value at most ``floor``: rounding, as in the
    null-space part of a normal that lies in the Hessian's range."""
    if not P.shape[1] or not P.shape[0]:
        return np.zeros((P.shape[0], 0))
    u, s, _ = np.linalg.svd(P, full_matrices=False)
    return u[:, s > floor]


def minimize_quadratic_over_halfspaces(quad: QuadraticForm, constraints: list[Halfspace]) -> np.ndarray:
    """One :meth:`FactoredQP.minimize` of ``quad`` over ``constraints``."""
    return FactoredQP(quad).minimize(constraints)


@dataclass(frozen=True)
class SmoothOracle:
    """Black-box value + gradient evaluator.

    ``lipschitz_grad`` is a Lipschitz constant of the gradient in the l2
    norm, or None when unknown.  ``quadratic`` is set when the function is an
    explicit convex quadratic (enables closed-form subproblems and exact
    line search); the tag is then the ``eval`` and gives the constant
    |F|_2^2, unless given (a given ``eval`` must agree with it).  A tag
    keeps an O(nd) least-squares oracle free of d x d arrays on every path
    but the exact QP, which holds the d x d eigenvectors of F'F;
    standard_cg's exact steps, cg_bio and, for n < d, the projection
    baselines carry its residual Fx - h instead of calling it.
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
            object.__setattr__(self, "lipschitz_grad", lambda_max_gram(quad.F))

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

# The support of an answer whose point is taken as dense: indexing with it
# gives the whole vector, as a view.
DENSE = slice(None)


class Answer(NamedTuple):
    """An LMO answer: the point, and its support.  The support is the
    increasing indices of the point's nonzeros, for the l1 regions, whose
    answers have one or two nonzeros per column; or ``DENSE`` for the
    regions whose vertices are dense (ball product, polytope, a product
    holding one of them).  ``point[support]`` is then the whole point, and
    ``mu`` is 0: a :class:`CutAnswer` carries its cut's multiplier."""

    point: np.ndarray
    support: Union[np.ndarray, slice]
    mu = 0.0


class CutAnswer(Answer):
    """``cut_lmo``'s (answer, mu) as one answer, with the cut's ``mu``."""

    def __new__(cls, answer: Answer, mu: float):
        self = super().__new__(cls, *answer)
        self.mu = mu
        return self


class Region:
    """Operations every feasible region carries, on float vectors of length
    ``dimension`` (the checked entry points live in :mod:`oracles`):

    - ``lmo(c)``: the :class:`Answer` argmin of <c, s> over the region;
    - ``cut_lmo(h, c, plain, start=0.0)``: the same over the region cut by
      the halfspace ``h``, given the answer ``plain = lmo(c)``, which
      violates ``h``.  It returns ``(s, mu)``: the minimizer's
      :class:`Answer` and a multiplier mu >= 0 of the cut with <c, s> =
      min_{s' in region} <c + mu a, s'> - mu beta up to rounding, a
      certificate that :func:`bilevelcg.checks.cut_certificate_gap`
      verifies (the ball product's search for it starts at ``start``); it
      raises :class:`OracleError` when the cut excludes the whole region;
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

    def lmo(self, c: np.ndarray) -> Answer:
        rows = self.rows(c)
        # The flat index of each column's first largest |c_i|: the support.
        at = np.abs(rows).argmax(axis=1)
        if self.num_cols > 1:
            at += np.arange(0, self.dimension, rows.shape[1])
        s = np.zeros(self.dimension)
        s[at] = -self.radius
        s[at[rows.reshape(-1)[at] < 0]] = self.radius  # -0.0 takes -radius, as 0.0 does
        return Answer(s, at)

    def cut_lmo(self, h: Halfspace, c: np.ndarray, plain: Answer, start: float = 0.0) -> tuple[Answer, float]:
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
        part, mu = _l1_cut_walk(self.radius, h.normal[lo:hi], h.offset, c[lo:hi])
        return _spliced(plain, lo, hi, part), mu

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


def _l1_cut_walk(r: float, a: np.ndarray, beta: float, c: np.ndarray) -> tuple[Answer, float]:
    """Minimize <c, s> over the l1 ball of radius r cut by <a, s> <= beta,
    whose plain LMO point violates the cut: :func:`_envelope_walk` over the
    generated lines sigma * (-c_i, -a_i) of the signed vertices
    -sigma * r * e_i.  Returns the minimizer, on at most two coordinates,
    and the multiplier mu."""
    # Line 2i + (sigma < 0), so the lowest line index is the lowest
    # coordinate, + before -, as in L1Ball.lmo().
    i = int(np.argmax(np.abs(c)))
    j, k, theta, mu = _envelope_walk(((-c, -a), (c, a)), r, beta, 2 * i + int(c[i] < 0), "l1 ball")
    s = np.zeros_like(c)
    s[j // 2] += theta * (r if j % 2 else -r)
    s[k // 2] += (1.0 - theta) * (r if k % 2 else -r)
    # A vertex of weight 0, or a +-r e_i pair that cancels, leaves an exact 0.
    return Answer(s, np.array([i for i in sorted({j // 2, k // 2}) if s[i] != 0.0], dtype=np.intp)), mu


def _envelope_walk(lines: tuple, r: float, beta: float, k: int, what: str) -> tuple[int, int, float, float]:
    """Minimize <c, s> over the hull of vertices v_k cut by <a, s> <= beta,
    given their lines (values_k, slopes_k) = (<c, v_k>, <a, v_k>) / r, r > 0,
    and a vertex k minimizing <c, .> that violates the cut: maximize the dual
    r * min_k (values_k + mu * slopes_k) - mu * beta over mu >= 0 by walking
    the lower envelope from line k at mu = 0 to the first line whose vertex
    satisfies the cut.  Returns (j, k, theta, mu): theta * v_j +
    (1 - theta) * v_k is the minimizer, on the cut, and mu the multiplier.

    ``lines`` holds families (values, slopes) of equal length, read in
    place: line k is entry k // f of family k % f, for f families."""
    f = len(lines)

    def line(k: int) -> tuple[float, float]:
        values, slopes = lines[k % f]
        return values[k // f], slopes[k // f]

    j, mu = k, 0.0
    value, slope = line(k)
    while r * slope > beta:
        # Line i crosses line k at (values_i - value) / (slope - slopes_i),
        # and only a flatter one, with slope - slopes_i > 0, can undercut it
        # as mu grows.  Rounding can put a crossing a hair before mu, and
        # the envelope only moves right, so the crossings up to mu tie
        # there.  Both differences are clamped at 0, without a branch per
        # line: a crossing before 0 reads 0, and a line that is not flatter
        # crosses at inf, or at NaN (0 / 0), which the minimum skips.  The
        # slope gets +0.0, so that no difference is -0.0.
        crosses = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for values, slopes in lines:
                steeper = np.maximum(np.subtract(slope + 0.0, slopes), 0.0)
                cross = np.maximum(np.subtract(values, value), 0.0)
                crosses.append(np.divide(cross, steeper, out=cross))
        firsts = [float(np.fmin.reduce(cross, initial=np.inf)) for cross in crosses]
        if not min(firsts) < np.inf and not any((slopes < slope).any() for _, slopes in lines):
            raise OracleError(f"the cut excludes the whole {what}")
        mu = max(mu, min(firsts))
        # Of the lines crossing first, the flattest continues the envelope,
        # and the lowest line index on ties.
        best = (np.inf, 0)
        for family, ((_, slopes), cross, first) in enumerate(zip(lines, crosses, firsts)):
            if first <= mu:
                i = int(np.where(cross <= mu, slopes, np.inf).argmin())
                best = min(best, (slopes[i], i * f + family))
        j, k = k, best[1]
        value, slope = line(k)
    cut_j, cut_k = r * line(j)[1], r * slope
    theta = (beta - cut_k) / (cut_j - cut_k) if j != k else 0.0
    return j, k, theta, mu


def _block(answer: Answer, lo: int, hi: int) -> Answer:
    """The answer's entries lo..hi-1, as an answer of their own."""
    on = answer.support
    if on is not DENSE:
        on = on[(lo <= on) & (on < hi)] - lo
    return Answer(answer.point[lo:hi], on)


def _spliced(answer: Answer, lo: int, hi: int, part: Answer) -> Answer:
    """The answer with its entries lo..hi-1 replaced by the answer ``part``."""
    if hi - lo == answer.point.size:
        return part
    on = answer.support
    if on is not DENSE:
        on = np.concatenate([on[on < lo], part.support + lo, on[on >= hi]])
    return Answer(np.concatenate([answer.point[:lo], part.point, answer.point[hi:]]), on)


def _column_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u_j, v_j> for each column j, with the bits of the one-vector ``u_j @ v_j``."""
    return (u.T[:, None, :] @ v.T[:, :, None]).ravel()


class _BallCut:
    """A ball-product cut's Newton steps run on per-column scalars: the
    component t_j = <a_j, c_j> / |a_j| of c_j along a_j and the norm p_j of
    the rest.  Column j of u = c + mu a has the component x_j = |a_j| mu +
    t_j along a_j, so |u_j| = hypot(x_j, p_j) and <a_j, u_j> = |a_j| x_j."""

    def __init__(self, radii, a_cols, a_norms, c_cols, offset: float, slack: float):
        self.radii, self.a_cols, self.a_norms, self.c_cols, self.offset = radii, a_cols, a_norms, c_cols, offset
        inv = np.divide(1.0, a_norms, out=np.zeros(a_norms.size), where=a_norms > 0.0)
        self.t = _column_dots(a_cols, c_cols) * inv
        rest = c_cols - (self.t * inv) * a_cols
        self.p = np.sqrt(_column_dots(rest, rest))
        self.bend = radii * (a_norms * self.p) ** 2  # r_j |a_j|^2 p_j^2, for the slope
        c_norms = np.hypot(self.t, self.p)
        # The bracket's top: for mu >= 2 |c_j| / |a_j| no column with a_j != 0 is
        # near zero, and res(mu) <= 2 sum_j r_j |c_j| / mu - slack (-slack for c = 0).
        self.top = max(2.0 * float(radii @ c_norms) / slack, 2.0 * float((c_norms * inv).max())) or 1.0
        self.near_c, self.near_a = NEAR_ZERO_RTOL * c_norms, NEAR_ZERO_RTOL * a_norms
        # |u_j| >= p_j: a p_j above its near-zero test at the top passes it.
        self.crossing = bool((self.p <= self.near_c + self.top * self.near_a).any())

    def residual(self, mu: float) -> tuple[float, float]:
        """res(mu) and its slope: res'(mu) = -sum_j r_j (|a_j|^2 -
        <a_j, u_j>^2 / |u_j|^2) / |u_j|, which is -sum_j r_j |a_j|^2 p_j^2 /
        |u_j|^3 over the columns not near zero."""
        # Not |c_j|^2 + 2 mu <a_j, c_j> + mu^2 |a_j|^2, which cancels to
        # about 1e-8, not 0, where a column crosses zero.
        x = self.a_norms * mu + self.t
        norms = np.hypot(x, self.p)
        # Where column j of u crosses zero, x_j and p_j lose its direction:
        # a column near zero adds no slope and takes its term from its own
        # entries, as _column_lmo does (-r_j e_1 when all are 0), so that the
        # LMO point at any mu has the sign of res(mu).  The test scales with
        # |c_j| + mu |a_j|, as the direction's error does.
        near = ()
        if self.crossing:
            near = (norms <= self.near_c + mu * self.near_a).nonzero()[0]
            norms[near] = np.inf
        inv = 1.0 / norms
        along = self.a_norms * x * inv  # <a_j, u_j> / |u_j|
        for j in near:
            u = self.c_cols[:, j] + mu * self.a_cols[:, j]
            size = np.sqrt(u @ u)
            along[j] = self.a_cols[:, j] @ u / size if size > 0.0 else self.a_cols[0, j]
        return -float(self.radii @ along) - self.offset, -float(self.bend @ inv**3)


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
        # A sum over axis 0 has another order, and its last bit moved the
        # default dictionary set-up's start by 3e-7 over 5,000 steps.
        norms = np.sqrt(_column_dots(cols, cols))
        zero = norms == 0.0
        if not zero.any():
            return -self.radii * cols / norms, norms
        out = -self.radii * cols / np.where(zero, 1.0, norms)
        # Zero objective column: any feasible point is optimal; fix the first
        # axis direction for determinism.
        out[:, zero] = 0.0
        out[0, zero] = -self.radii[zero]
        return out, norms

    def lmo(self, c: np.ndarray) -> Answer:
        return Answer(self.flatten(self._column_lmo(self.columns(c))[0]), DENSE)

    def cut_lmo(self, h: Halfspace, c: np.ndarray, plain: Answer, start: float = 0.0) -> tuple[Answer, float]:
        """Root of the derivative of the smooth concave dual, the cut residual
        res(mu) = <a, lmo(c + mu a)> - beta, which falls from res(0) > 0
        towards -slack, slack = beta - min_s <a, s>: safeguarded Newton steps
        on phi(mu) = (res(mu) + slack)^(-1/2) - slack^(-1/2), nearly linear
        as res + slack falls like 1 / mu^2 once no column of c + mu a is near
        zero (the transform of Moré & Sorensen 1983), from ``start`` when it
        lies in the bracket, else from 0.  Each step costs O(num_cols) on
        :class:`_BallCut`'s scalars; the LMO runs on the full columns only at
        the answer, or at both ends of a bracket that closes without one."""
        if h.admits(plain):
            return plain, 0.0
        a_cols = self.columns(h.normal)
        a_norms = np.sqrt(_column_dots(a_cols, a_cols))
        # beta - min_s <a, s>: negative when the cut misses the region.
        slack = h.offset + float(self.radii @ a_norms)
        if slack < 0.0:
            raise OracleError("the cut excludes the whole ball product")
        if slack == 0.0:
            # The cut touches the region in one face, and no finite multiplier
            # attains the dual: columns with a_j != 0 are pinned to
            # -r_j a_j / |a_j|, the others keep their plain LMO columns.
            pinned = a_norms > 0.0
            cols = self.columns(plain.point).copy()
            cols[:, pinned] = -self.radii[pinned] * a_cols[:, pinned] / a_norms[pinned]
            return Answer(self.flatten(cols), DENSE), np.inf

        # The steps run on c scaled by a power of two to a largest entry in
        # [0.5, 1), and mu is scaled back: exact, where at tiny objective
        # scales the slope's |u_j|^3 would underflow.
        exponent = math.frexp(max(c.max(), -c.min()))[1]
        c_cols = self.columns(np.ldexp(c, -exponent))
        cut = _BallCut(self.radii, a_cols, a_norms, c_cols, h.offset, slack)
        lo, hi, mu = 0.0, cut.top, 0.5 * start / math.ldexp(0.5, exponent)  # 2^(exponent - 1) never overflows
        mu = mu if lo < mu < hi else 0.0
        for _ in range(NEWTON_MAX_STEPS):
            res, slope = cut.residual(mu)
            if abs(res) <= NEWTON_TOL:
                return Answer(self.flatten(self._column_lmo(c_cols + mu * a_cols)[0]), DENSE), math.ldexp(mu, exponent)
            lo, hi = (mu, hi) if res > 0.0 else (lo, mu)  # res(lo) > 0 >= res(hi)
            # phi' = -0.5 (res + slack)^(-3/2) res', so the Newton step on phi
            # is 2 w (1 - sqrt(w / slack)) / res' for w = res + slack > 0.
            w = res + slack
            newton = mu + 2.0 * w * (1.0 - math.sqrt(w / slack)) / slope if slope < 0.0 and w > 0.0 else hi
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
        return Answer(self.flatten((1.0 - theta) * lo_cols + theta * hi_cols), DENSE), math.ldexp(hi, exponent)

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

    def lmo(self, c: np.ndarray) -> Answer:
        verts = self.vertices()
        return Answer(verts[_last_argmin(verts @ c)].copy(), DENSE)

    def cut_lmo(self, h: Halfspace, c: np.ndarray, plain: Answer, start: float = 0.0) -> tuple[Answer, float]:
        verts = self.vertices()
        values = verts @ c
        j, k, theta, mu = _envelope_walk(((values, verts @ h.normal),), 1.0, h.offset, _last_argmin(values), "polytope")
        return Answer(theta * verts[j] + (1.0 - theta) * verts[k], DENSE), mu

    def project(self, v: np.ndarray) -> np.ndarray:
        """The exact QP min 0.5 |x - v|^2 over the defining halfspaces."""
        return minimize_quadratic_over_halfspaces(QuadraticForm(np.eye(v.size), v), self.halfspaces())

    def feasible_point(self) -> np.ndarray:
        origin = np.zeros(self.dimension)
        return origin if self.contains(origin) else self.lmo(origin).point


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

    def lmo(self, c: np.ndarray) -> Answer:
        answers = [b.lmo(part) for b, part in zip(self.blocks, self.split(c))]
        point = np.concatenate([answer.point for answer in answers])
        if any(answer.support is DENSE for answer in answers):
            return Answer(point, DENSE)
        return Answer(point, np.concatenate([answer.support + lo for answer, (lo, _) in zip(answers, self._offsets)]))

    def cut_lmo(self, h: Halfspace, c: np.ndarray, plain: Answer, start: float = 0.0) -> tuple[Answer, float]:
        normals = self.split(h.normal)
        active = [i for i, n in enumerate(normals) if n.any()]
        # ``plain`` violates the cut, so a zero normal excludes every point.
        if not active:
            raise OracleError("the cut excludes the whole product region")
        if len(active) > 1:
            raise OracleError("halfspace couples several product blocks")
        i = active[0]
        lo, hi = self._offsets[i]
        # The halfspace offset is absorbed into the active block: the other
        # blocks contribute zero to it, and keep their slices of ``plain``.
        cut, part, mu = Halfspace(normals[i], h.offset), _block(plain, lo, hi), 0.0
        if not cut.admits(part):
            part, mu = self.blocks[i].cut_lmo(cut, c[lo:hi], part, start)
        return _spliced(plain, lo, hi, part), mu

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

    def admits(self, answer: Answer) -> bool:
        """``contains(s, tol=0.0)`` for the answer's point s, read on its
        support."""
        s, on = answer
        return float(self.normal[on] @ s[on]) <= self.offset


def cutting_plane(grad: np.ndarray, grad_xk: float, g0: float, gk: float) -> Halfspace:
    """Halfspace {s : gk + <grad, s - xk> <= g0} from the lower-level values
    g0 = g(x0), gk = g(xk), gradient grad = grad g(xk) and its product
    ``grad_xk`` = <grad, xk>, which a carried residual gives in O(n): it
    keeps every point whose linearized value at xk does not exceed g(x0),
    so by convexity of g it contains the whole lower-level solution set
    whenever g(x0) >= min g."""
    return Halfspace(normal=grad, offset=grad_xk + (g0 - gk))


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
