"""Iterative methods: lower-level initialization, the cutting-plane
conditional-gradient bilevel solver (cg_bio), plain conditional gradient,
and the projection-based baselines BiG-SAM, a-IRG, DBGD, and MNG."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    DENSE,
    Answer,
    BilevelInstance,
    ConfigurationError,
    FactoredQP,
    Halfspace,
    OracleError,
    Region,
    SmoothOracle,
    SolveOutcome,
    SolverConfig,
    TraceRow,
    cutting_plane,
)
from .oracles import halfspace_lmo, lmo, project


class _Tracer:
    """Accumulates trace rows with per-iteration wall time."""

    def __init__(self, keep_iterates: bool):
        self.rows: list[TraceRow] = []
        self.keep = keep_iterates
        self._t = time.perf_counter_ns()

    def add(self, k, f_val, g_val, f_gap=np.nan, g_gap=np.nan, iterate=None):
        now = time.perf_counter_ns()
        self.rows.append(
            TraceRow(
                k=k,
                f_val=float(f_val),
                g_val=float(g_val),
                surrogate_f_gap=float(f_gap),
                surrogate_g_gap=float(g_gap),
                wall_nanos=now - self._t,
                iterate=np.array(iterate) if (self.keep and iterate is not None) else None,
            )
        )
        self._t = now

    def outcome(self, x: np.ndarray, reason: str, **start) -> SolveOutcome:
        return SolveOutcome(final_point=np.array(x), stop_reason=reason, trace=tuple(self.rows), **start)


# ---------------------------------------------------------------------------
# Conditional-gradient methods
# ---------------------------------------------------------------------------

LINE_SEARCHES = ("exact", "backtracking")


def _moved(x: np.ndarray, d: tuple, gamma: float) -> np.ndarray:
    """x + gamma * d as a new array, for a direction d = (on, values)."""
    on, values = d
    y = x.copy()
    y[on] += gamma * values
    return y


def _cg_step_length(oracle, x, fx, grad, d, mode, state, gamma_max, image=None):
    """Stepsize in [0, gamma_max] along the pairwise direction d = s - v_away
    of standard CG, where gamma_max is the away atom's weight, and the
    point x + gamma * d with the oracle's (value, gradient) there when the
    step evaluated it, else None.  The direction is the pair (on, values) of
    :meth:`_Atoms.away`, and ``image`` is F d for a carried
    :class:`_Residual`."""
    on, values = d
    gap = float(-(grad[on] @ values))  # <grad, v_away - s>
    if mode == "exact":
        # f(x + t d) = fx - t gap + t^2 curv for a quadratic: a tag's F d
        # gives curv in closed form.  Otherwise f is fitted by a parabola
        # through t = 0 and t = 1; fitting over [0, gamma_max] instead
        # would divide the rounding error of f1 - fx by gamma_max**2.
        if image is not None:
            curv = 0.5 * float(image @ image)
        else:
            curv = oracle.value(_moved(x, d, 1.0)) - fx + gap
        if curv <= 0.0:
            return gamma_max, None
        return min(max(gap / (2.0 * curv), 0.0), gamma_max), None
    dd = float(values @ values)
    if dd == 0.0:
        return 0.0, None
    L = state.setdefault("L", oracle.lipschitz_grad or 1.0)
    tried = None
    for _ in range(60):
        gamma = min(max(gap / (L * dd), 0.0), gamma_max)
        if gamma == 0.0:
            return 0.0, None
        # Clipped to gamma_max, gamma repeats as L doubles: so does the
        # trial point, whose evaluation is kept.
        if gamma != tried:
            point = _moved(x, d, gamma)
            trial, tried = (point, oracle(point)), gamma
        # No absolute slack: near the optimum the predicted decrease is
        # below 1e-14, and a slack there accepts steps that raise f.
        if trial[1][0] <= fx - gamma * gap + 0.5 * L * gamma**2 * dd:
            state["L"] = max(L / 2.0, 1e-12)
            return gamma, trial
        L *= 2.0
    state["L"] = L
    return gamma, trial  # the last trial is where the step goes


def _gap(grad: np.ndarray, x: np.ndarray, answer: Answer, residual, grad_x: Optional[float] = None) -> float:
    """The FW gap <grad, x - s> at the LMO answer s: for a dense answer the
    dense product, else <grad, x> - <grad, s>, the latter read on s's
    support.  <grad, x> is ``grad_x`` when given, else :func:`_inner`'s."""
    s, on = answer
    if on is DENSE:
        return float(grad @ (x - s))
    if grad_x is None:
        grad_x = _inner(grad, x, residual)
    return grad_x - float(grad[on] @ s[on])


def _inner(grad: np.ndarray, x: np.ndarray, residual) -> float:
    """<grad, x>: O(n) from a carried :class:`_Residual`, O(d) otherwise."""
    return float(grad @ x) if residual is None else residual.inner(x)


def _toward(x: np.ndarray, answer: Answer, gamma: float) -> None:
    """x <- (1 - gamma) x + gamma s in place, s written on its support."""
    s, on = answer
    x *= 1.0 - gamma
    x[on] += gamma * s[on]


class _Residual:
    """The residual r = F x - h of a tag, carried along the iterates so that
    a row reads F once, for the tag's value 0.5 |r|^2 + q'x and gradient
    F'r + q.  A step's image F v is formed from the columns of F on v's
    support: at most 2 for the pairwise directions and cut answers of an
    l1 ball."""

    def __init__(self, quad, x: np.ndarray):
        self.quad, self.F, self.h, self.r = quad, quad.F, quad.h, quad.F @ x - quad.h

    def image(self, on, values: np.ndarray) -> np.ndarray:
        """F v for the vector v with ``values`` on its support ``on`` (an
        index array or ``DENSE``)."""
        return self.F[:, on] @ values

    def inner(self, x: np.ndarray) -> float:
        """<grad, x> for the gradient F'r + q at x: <r, F x> = <r, r + h>
        costs O(n), and a linear term q'x adds O(d)."""
        value = float(self.r @ (self.r + self.h))
        return value if self.quad.q is None else value + float(self.quad.q @ x)

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self.quad.at_residual(self.r, x)


def _carried(oracle: SmoothOracle, x: np.ndarray) -> Optional[_Residual]:
    return None if oracle.quadratic is None else _Residual(oracle.quadratic, x)


class _Atoms:
    """The active atoms of pairwise CG with their weights, stored on their
    support.

    Atom i is row i of ``V``, in insertion order, with weight ``w[i]``.
    V's columns are the support: every coordinate on which some atom or LMO
    answer has been nonzero, in the order each first appeared (``column``
    maps a coordinate to its column), so an atom is zero off them and the
    store takes O(atoms x support) memory.  The +-r e_i vertices of an l1
    ball give about as many columns as atoms; dense vertices give the
    coordinates 0..d-1 in index order.

    Two vertices are one atom when they are equal as numbers on every
    coordinate, so a vertex that differs from an atom only in the sign of
    its zeros (-0.0 against 0.0) adds its weight to that atom.
    """

    def __init__(self, x: np.ndarray):
        self.V = np.zeros((16, 0))
        self.w: list[float] = []
        self.support = np.zeros(0, dtype=np.intp)
        self.covered = np.zeros(x.size, dtype=bool)  # coordinates in the support
        self.column = np.zeros(x.size, dtype=np.intp)  # their columns
        self.add(self.row(Answer(x, DENSE)), 1.0)

    def row(self, s: Answer) -> np.ndarray:
        """The answer s on V's columns, which are first made to cover its
        nonzeros."""
        point, on = s
        if on is DENSE:
            on = point.nonzero()[0]
        if np.count_nonzero(self.covered[on]) < on.size:
            self._cover(on[~self.covered[on]])
        if s.support is DENSE:
            return point[self.support]
        row = np.zeros(self.support.size)
        row[self.column[on]] = point[on]
        return row

    def _cover(self, fresh: np.ndarray) -> None:
        """Append the coordinates ``fresh`` as columns, 0 in every atom."""
        m, (rows, cols) = self.support.size, self.V.shape
        self.covered[fresh] = True
        self.column[fresh] = np.arange(m, m + fresh.size)
        self.support = np.concatenate([self.support, fresh])
        if self.support.size > cols:
            # New entries are 0: an atom is 0 on the columns added after it.
            grown = np.zeros((rows, max(self.support.size, min(2 * cols, self.column.size))))
            grown[: len(self.w), :cols] = self.V[: len(self.w)]
            self.V = grown

    def away(self, grad: np.ndarray, s: Answer) -> tuple[int, tuple, np.ndarray]:
        """The away atom i, maximizing <grad, v> (first inserted on ties);
        the pairwise direction d = s - v_i from it to the answer s, as
        (on, values): (DENSE, d) for a dense s, else d's nonzeros in
        increasing coordinates; and s as a :meth:`row`, for :meth:`move`."""
        row = self.row(s)
        # Each 1 x m @ m x 1 product of the stacked matmul runs the dot
        # kernel of ``grad @ v`` on the atom's entries, so the scores keep
        # the bits of the dense products: exactly for one-nonzero atoms, and
        # for dense atoms, whose support is 0..d-1 in index order.
        m = row.size
        i = int((self.V[: len(self.w), None, :m] @ grad[self.support]).argmax())
        if s.support is DENSE:
            d = s.point.copy()
            d[self.support] -= self.V[i, :m]
            return i, (DENSE, d), row
        d = row - self.V[i, :m]
        on = d.nonzero()[0]
        on = on[self.support[on].argsort()]  # in increasing coordinates
        return i, (self.support[on], d[on]), row

    def move(self, i: int, row: np.ndarray, gamma: float) -> None:
        """Move weight ``gamma`` from atom i to the vertex ``row``.  Atom i
        is dropped when that is all of its weight, and the later rows shift
        up, so a vertex added again goes last."""
        self.w[i] -= gamma
        if self.w[i] == 0.0:
            del self.w[i]
            # As one flat block: numpy moves an overlapping 1-D block in
            # place, where it would copy a 2-D one whole first.
            flat, cols = self.V.reshape(-1), self.V.shape[1]
            flat[i * cols : len(self.w) * cols] = flat[(i + 1) * cols : (len(self.w) + 1) * cols]
        self.add(row, gamma)

    def add(self, row: np.ndarray, weight: float) -> None:
        """Add ``weight`` to the atom equal to the vertex ``row``, a
        :meth:`row` of this store, or append it as an atom."""
        n, m = len(self.w), row.size
        # An atom equal to the row holds the row's first nonzero in its
        # column; the zero vertex is compared with every atom.
        first = row.nonzero()[0][:1]
        candidates = (self.V[:n, first[0]] == row[first[0]]).nonzero()[0] if first.size else range(n)
        for i in candidates:
            if not np.count_nonzero(self.V[i, :m] != row):
                self.w[i] += weight
                return
        if n == self.V.shape[0]:
            # In place, so a large V is moved by the allocator, not copied,
            # and by a quarter, as resize writes zeros to the new rows.
            self.V.resize((n + n // 4, self.V.shape[1]), refcheck=False)
        self.V[n, :m] = row
        self.w.append(weight)


def standard_cg(
    oracle: SmoothOracle,
    region: Region,
    config: SolverConfig,
    line_search: Optional[str] = None,
    start: Optional[np.ndarray] = None,
) -> SolveOutcome:
    """Classic Frank-Wolfe on a single smooth objective over ``region``.

    Stops when the FW duality gap <grad, x - s> drops to ``config.eps_f``.
    ``line_search`` may be None (use the schedule) or one of
    ``LINE_SEARCHES``: "backtracking", or "exact" (exact for quadratics);
    any other value raises ValueError before the first row.  The FW gap is
    recorded in the ``surrogate_f_gap`` trace column.

    A row costs one oracle call, and none when the exact step carries a
    tag's :class:`_Residual`.  A backtracking step hands on its
    evaluation at the point it moves to, so only rejected backtracking
    trials, and the parabola fit of the exact step on an untagged
    objective, add calls.  On a sparse LMO answer the rest of a row costs
    O(support): the gap (see :func:`_gap`), the direction, its image and
    the move of x in place.

    With a line search the steps are pairwise (Lacoste-Julien & Jaggi
    2015): x is kept as a convex combination of active atoms, the start and
    the LMO's vertices, and each step moves weight from the away atom (the
    active atom maximizing <grad, v>, first-inserted on ties) to the LMO
    vertex, at most all of the away atom's weight.  A schedule step can
    exceed that weight, so schedule runs take vanilla steps toward s.  The
    atoms live on their support (see :class:`_Atoms`): memory is
    O(atoms x support), not O(atoms x d).
    """
    if line_search is not None and line_search not in LINE_SEARCHES:
        raise ValueError(f"unknown line search mode {line_search!r}")
    x = np.array(region.feasible_point() if start is None else start, dtype=float)
    atoms = _Atoms(x)
    tracer = _Tracer(config.keep_iterates)
    ls_state: dict = {}
    residual = _carried(oracle, x) if line_search == "exact" else None
    evaluation = None  # the line search's (value, gradient) at x
    for k in range(config.max_iters + 1):
        fx, grad = residual(x) if residual is not None else evaluation or oracle(x)
        try:
            s = lmo(region, grad)
        except OracleError as exc:
            tracer.add(k, fx, np.nan, iterate=x)
            return tracer.outcome(x, f"oracle_failure: {exc}")
        gap = _gap(grad, x, s, residual)
        tracer.add(k, fx, np.nan, f_gap=gap, iterate=x)
        if gap <= config.eps_f:
            return tracer.outcome(x, "criterion_met")
        if k == config.max_iters:
            return tracer.outcome(x, "budget_exhausted")
        if line_search is None:
            gamma = config.schedule.step(k)
            if s.support is DENSE:  # the dense steps' bits, which the dictionary set-up rests on
                x += gamma * (s.point - x)
            else:
                _toward(x, s, gamma)
            continue
        away, d, row = atoms.away(grad, s)
        image = None if residual is None else residual.image(*d)
        gamma, trial = _cg_step_length(oracle, x, fx, grad, d, line_search, ls_state, atoms.w[away], image)
        evaluation = None
        if gamma > 0.0:
            atoms.move(away, row, gamma)
            if trial is None:
                on, values = d
                x[on] += gamma * values
            else:
                x, evaluation = trial
            if residual is not None:
                residual.r += gamma * image


def _line_search(oracle: SmoothOracle) -> str:
    """Exact line search for a tagged quadratic, backtracking otherwise."""
    return "exact" if oracle.quadratic is not None else "backtracking"


def initialize_lower(
    instance: BilevelInstance,
    eps_g: float,
    max_iters: int = 10_000,
    line_search: Optional[str] = None,
) -> tuple[np.ndarray, float, bool]:
    """Run standard CG on the lower-level objective until its FW duality gap
    certifies g(x0) - g* <= eps_g / 2.  ``line_search`` None picks the
    exact line search for a tagged quadratic and backtracking otherwise.

    Returns (x0, certificate, certified) where ``certificate`` is the
    achieved FW gap (an upper bound on the lower-level suboptimality by
    convexity).
    """
    out = _start_run(instance, eps_g, max_iters, line_search)
    tail = out.trace[-1]
    certificate, certified = _start_certificate(instance, tail.f_val, tail.surrogate_f_gap, eps_g)
    return out.final_point, certificate, certified


def _start_run(instance, eps_g, max_iters=10_000, line_search=None) -> SolveOutcome:
    """The standard CG run behind :func:`initialize_lower`."""
    cfg = SolverConfig(eps_f=eps_g / 2.0, eps_g=eps_g, max_iters=max_iters)
    return standard_cg(instance.lower, instance.region, cfg, line_search=line_search or _line_search(instance.lower))


def _start_certificate(instance, g_val, fw_gap, eps_g) -> tuple[float, bool]:
    """The FW gap bounds g(x0) - g* by convexity.  When it does not certify
    x0, a known optimal value gives the exact excess instead."""
    certificate, certified = float(fw_gap), fw_gap <= eps_g / 2.0
    g_star = instance.reference.g_star
    if not certified and g_star is not None:
        certificate = g_val - g_star
        certified = certificate <= eps_g / 2.0
    return certificate, certified


def cg_bio(instance: BilevelInstance, x0: np.ndarray, config: SolverConfig) -> SolveOutcome:
    """Cutting-plane conditional gradient for the simple bilevel problem.

    Each iteration intersects the feasible set with the halfspace built
    from the lower-level gradient at the current iterate, takes the linear
    minimization step for the upper-level gradient over that intersection,
    and stops once both surrogate gaps pass the (eps_f, eps_g/2) test.

    The test's guarantee needs g(x0) - g* <= eps_g / 2, e.g. a start from
    :func:`initialize_lower`.  The outcome records the start's
    ``init_certificate`` and ``certified``, computed from row 0 as
    :func:`initialize_lower` computes them for its own point, and a row
    that passes the test from an uncertified start reports
    "uncertified_start" instead of "criterion_met".  An infeasible ``x0``
    raises ConfigurationError.  A tagged level's :class:`_Residual` is
    carried in place of its oracle, and gives its <grad, x> in O(n), for
    the gaps and the cut.  On a sparse cut answer the gaps read <grad, s>
    on its support and x moves in place on it, so an l1 row costs one pass
    over F per tagged level, the cut walk, and O(support).
    """
    x = np.asarray(x0, dtype=float).copy()
    region = instance.region
    if not region.contains(x, tol=1e-8):
        raise ConfigurationError("x0 is not feasible")
    upper, lower = _carried(instance.upper, x), _carried(instance.lower, x)
    carried = [residual for residual in (upper, lower) if residual is not None]

    tracer = _Tracer(config.keep_iterates)
    for k in range(config.max_iters + 1):
        f_val, f_grad = instance.upper(x) if upper is None else upper(x)
        g_val, g_grad = instance.lower(x) if lower is None else lower(x)
        g_x = _inner(g_grad, x, lower)
        if k == 0:  # row 0 gives g(x0) and, with one plain LMO, the start's certificate
            g0_val = g_val
            plain = lmo(region, g_grad)
            certificate, certified = _start_certificate(instance, g_val, _gap(g_grad, x, plain, lower, g_x),
                                                        config.eps_g)
            start = {"init_certificate": certificate, "certified": certified}
            passed = "criterion_met" if certified else "uncertified_start"
        cut = cutting_plane(g_grad, g_x, g0_val, g_val)
        try:
            # The previous row's multiplier starts the cut's search.
            s = halfspace_lmo(region, cut, f_grad, s.mu if k else 0.0)
        except OracleError as exc:
            tracer.add(k, f_val, g_val, iterate=x)
            return tracer.outcome(x, f"oracle_failure: {exc}", **start)
        f_gap = _gap(f_grad, x, s, upper)
        g_gap = _gap(g_grad, x, s, lower, g_x)
        tracer.add(k, f_val, g_val, f_gap=f_gap, g_gap=g_gap, iterate=x)
        if f_gap <= config.eps_f and g_gap <= config.eps_g / 2.0:
            return tracer.outcome(x, passed, **start)
        if k == config.max_iters:
            return tracer.outcome(x, "budget_exhausted", **start)
        gamma = config.schedule.step(k)
        _toward(x, s, gamma)
        for residual in carried:
            image = residual.image(s.support, s.point[s.support])
            residual.r = (1.0 - gamma) * residual.r + gamma * (image - residual.h)


# ---------------------------------------------------------------------------
# Baseline configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BigSamConfig:
    """Sequential-averaging baseline; alpha_k = min(gamma / k, 1)."""

    eta_f: Optional[float] = None
    eta_g: Optional[float] = None
    gamma: float = 10.0

    def __post_init__(self):
        # Given steps are checked here; derived ones in resolve().
        for value in (self.eta_f, self.eta_g, self.gamma):
            if value is not None and not 0.0 < value < np.inf:
                raise ConfigurationError("BiG-SAM steps must be positive and finite")

    def resolve(self, instance: BilevelInstance) -> tuple[float, float]:
        eta_f, eta_g = self.eta_f, self.eta_g
        if eta_f is None:
            if not instance.upper.lipschitz_grad:
                raise ConfigurationError(
                    "eta_f not given and not derivable from the upper Lipschitz constant"
                )
            eta_f = 2.0 / instance.upper.lipschitz_grad
        if eta_g is None:
            if not instance.lower.lipschitz_grad:
                raise ConfigurationError(
                    "eta_g not given and not derivable from the lower Lipschitz constant"
                )
            eta_g = 1.0 / instance.lower.lipschitz_grad
        if not (0.0 < eta_f < np.inf and 0.0 < eta_g < np.inf):
            raise ConfigurationError("BiG-SAM steps must be positive and finite")
        return eta_f, eta_g


@dataclass(frozen=True)
class AIrgConfig:
    """Averaging iteratively-regularized gradient baseline;
    gamma_k = gamma0 / sqrt(k+1), eta_k = eta0 / (k+1)^(1/4)."""

    gamma0: float = 0.01
    eta0: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.gamma0 < np.inf and 0.0 <= self.eta0 < np.inf):
            raise ConfigurationError("a-IRG rates must be positive and finite")


@dataclass(frozen=True)
class DbgdConfig:
    """Dynamic-barrier gradient descent baseline (projected variant)."""

    alpha: float = 1.0
    beta: float = 1.0
    g_hat: float = 0.0  # lower bound on the lower-level optimal value
    step: float = 0.1
    grad_floor: float = 1e-12

    def __post_init__(self):
        positive = (self.alpha, self.beta, self.step, self.grad_floor)
        if not all(0.0 < value < np.inf for value in positive) or not np.isfinite(self.g_hat):
            raise ConfigurationError("DBGD parameters must be finite, and all but g_hat positive")


@dataclass(frozen=True)
class MngConfig:
    """Minimal-norm-gradient baseline; M must dominate the lower-level
    gradient Lipschitz constant L_g, which it defaults to."""

    M: Optional[float] = None

    def __post_init__(self):
        if self.M is not None and not 0.0 < self.M < np.inf:
            raise ConfigurationError("MNG smoothing constant must be positive and finite")


# ---------------------------------------------------------------------------
# Projection-based baselines
# ---------------------------------------------------------------------------

class _Levels:
    """Both tagged levels' residuals r_i = F_i x - h_i, carried along a
    projection baseline's steps, so that a row reads each F_i once, for its
    gradient F_i'r_i + q_i.  A step x+ = x - c_f grad f - c_g grad g moves
    them in sample space: r_i+ = r_i - sum_j c_j (F_i F_j'r_j + F_i q_j),
    through the Gram blocks F_i F_j' (n_i x n_j) and the images F_i q_j,
    formed at the first such step.  After any other step, :meth:`reset`
    drops them and the next row recomputes F_i x - h_i.  The residuals are
    held stacked, upper first, so a step is one product with the stacked
    Gram matrix.  That product costs O((n_f + n_g)^2) against the
    O((n_f + n_g) d) of the F_i x it replaces, and the matrix holds
    (n_f + n_g)^2 numbers against the F_i's (n_f + n_g) d, so
    :func:`_baseline_loop` carries only levels with n_f + n_g < d."""

    def __init__(self, upper, lower):
        self.quads = (upper, lower)
        self.split = upper.F.shape[0]
        self.r: Optional[np.ndarray] = None

    def rows(self, x: np.ndarray) -> list[tuple[float, np.ndarray]]:
        """(value, gradient) of the upper and the lower level at x."""
        if self.r is None:
            # Each level's F_i x just before its F_i'r_i, as its oracle reads
            # them, so that the second pass finds a small F_i still in cache.
            residuals, rows = [], []
            for quad in self.quads:
                residuals.append(quad.F @ x - quad.h)
                rows.append(quad.at_residual(residuals[-1], x))
            self.r = np.concatenate(residuals)
            return rows
        upper, lower = self.quads
        return [upper.at_residual(self.r[: self.split], x), lower.at_residual(self.r[self.split :], x)]

    def reset(self) -> None:
        self.r = None

    @cached_property
    def blocks(self) -> tuple[np.ndarray, list[Optional[np.ndarray]]]:
        """The stacked Gram matrix [[F_f F_f', F_f F_g'], [F_g F_f', F_g F_g']]
        and, for each level j, the stacked images F_i q_j (None for q_j
        None)."""
        gram = np.block([[qi.F @ qj.F.T for qj in self.quads] for qi in self.quads])
        images = [None if qj.q is None else np.concatenate([qi.F @ qj.q for qi in self.quads]) for qj in self.quads]
        return gram, images

    def carry(self, step: tuple[float, float]) -> None:
        """The residuals after the step x - c_f grad f - c_g grad g, for
        ``step`` = (c_f, c_g)."""
        gram, images = self.blocks
        weighted = self.r.copy()
        weighted[: self.split] *= step[0]
        weighted[self.split :] *= step[1]
        moved = self.r - gram @ weighted
        for c, image in zip(step, images):
            if image is not None:
                moved -= c * image
        self.r = moved


def _unprojected(point: np.ndarray, v: np.ndarray, c_f: float, c_g: float) -> Optional[tuple[float, float]]:
    """(c_f, c_g) when the projection returned its point v = x - c_f grad f -
    c_g grad g unchanged, so the step is carried, else None."""
    return (c_f, c_g) if np.array_equal(point, v) else None


def _baseline_loop(instance, max_iters, keep_iterates, update, start=None):
    """One row per iterate; ``update(k, x, f_grad, g_grad, g_val)`` returns
    the next iterate and, for a step x - c_f grad f - c_g grad g that its
    projection left unchanged, (c_f, c_g), else None.  When both levels are
    tagged and have fewer rows together than d columns, their
    :class:`_Levels` residuals stand in for the oracles.  An infeasible
    ``start`` raises ConfigurationError."""
    region = instance.region
    x = np.array(region.feasible_point() if start is None else start, dtype=float)
    if not region.contains(x, tol=1e-8):
        raise ConfigurationError("start is not feasible")
    upper, lower = instance.upper.quadratic, instance.lower.quadratic
    wide = upper is not None and lower is not None and upper.F.shape[0] + lower.F.shape[0] < x.size
    levels = _Levels(upper, lower) if wide else None
    tracer = _Tracer(keep_iterates)
    for k in range(max_iters + 1):
        (f_val, f_grad), (g_val, g_grad) = (instance.upper(x), instance.lower(x)) if levels is None else levels.rows(x)
        tracer.add(k, f_val, g_val, iterate=x)
        if k == max_iters:
            return tracer.outcome(x, "budget_exhausted")
        try:
            x, step = update(k, x, f_grad, g_grad, g_val)
        except OracleError as exc:
            return tracer.outcome(x, f"oracle_failure: {exc}")
        if levels is None:
            continue
        if step is None:
            levels.reset()
        else:
            levels.carry(step)


def big_sam(
    instance: BilevelInstance,
    config: BigSamConfig = BigSamConfig(),
    max_iters: int = 1000,
    keep_iterates: bool = False,
    start: Optional[np.ndarray] = None,
) -> SolveOutcome:
    eta_f, eta_g = config.resolve(instance)
    region = instance.region

    def update(k, x, f_grad, g_grad, g_val):
        v = x - eta_g * g_grad
        y = project(region, v)
        z = x - eta_f * f_grad
        alpha = min(config.gamma / (k + 1.0), 1.0)
        return alpha * z + (1.0 - alpha) * y, _unprojected(y, v, alpha * eta_f, (1.0 - alpha) * eta_g)

    return _baseline_loop(instance, max_iters, keep_iterates, update, start=start)


def a_irg(
    instance: BilevelInstance,
    config: AIrgConfig = AIrgConfig(),
    max_iters: int = 1000,
    keep_iterates: bool = False,
    start: Optional[np.ndarray] = None,
) -> SolveOutcome:
    region = instance.region

    def update(k, x, f_grad, g_grad, g_val):
        gamma = config.gamma0 / np.sqrt(k + 1.0)
        eta = config.eta0 / (k + 1.0) ** 0.25
        v = x - gamma * (g_grad + eta * f_grad)
        point = project(region, v)
        return point, _unprojected(point, v, gamma * eta, gamma)

    return _baseline_loop(instance, max_iters, keep_iterates, update, start=start)


def dbgd(
    instance: BilevelInstance,
    config: DbgdConfig = DbgdConfig(),
    max_iters: int = 1000,
    keep_iterates: bool = False,
    start: Optional[np.ndarray] = None,
) -> SolveOutcome:
    region = instance.region

    def update(k, x, f_grad, g_grad, g_val):
        sq = float(g_grad @ g_grad)
        if sq < config.grad_floor:
            lam = 0.0
        else:
            phi = min(config.alpha * (g_val - config.g_hat), config.beta * sq)
            lam = max((phi - float(f_grad @ g_grad)) / sq, 0.0)
        v = x - config.step * (f_grad + lam * g_grad)
        point = project(region, v)
        return point, _unprojected(point, v, config.step, config.step * lam)

    return _baseline_loop(instance, max_iters, keep_iterates, update, start=start)


# ---------------------------------------------------------------------------
# MNG (quadratic upper level only)
# ---------------------------------------------------------------------------

def mng(
    instance: BilevelInstance,
    config: MngConfig = MngConfig(),
    max_iters: int = 1000,
    keep_iterates: bool = False,
    start: Optional[np.ndarray] = None,
) -> SolveOutcome:
    """Minimal-norm-gradient baseline.

    Requires the upper-level objective to be an explicitly tagged quadratic;
    each step minimizes it over the gradient-mapping halfspace and the
    upper-gradient halfspace, through one :class:`FactoredQP` of it per run.
    """
    quad = instance.upper.quadratic
    if quad is None:
        raise ConfigurationError("MNG needs an explicit quadratic upper-level objective")
    L_g = instance.lower.lipschitz_grad
    M = config.M
    if M is None:
        if not L_g:
            raise ConfigurationError("MNG needs solver_options.M: the lower Lipschitz constant is 0 or unknown")
        M = L_g
    elif L_g is not None and M < L_g:
        raise ConfigurationError("MNG smoothing constant must satisfy M >= L_g")
    region = instance.region
    qp = FactoredQP(quad)

    def update(k, x, f_grad, g_grad, g_val):
        gm = M * (x - project(region, x - g_grad / M))
        constraints = []
        gm_sq = float(gm @ gm)
        if gm_sq > 1e-24:
            # <gm, x_k - z> >= 3/(4M) |gm|^2
            constraints.append(Halfspace(gm, float(gm @ x) - 0.75 / M * gm_sq))
        if float(f_grad @ f_grad) > 1e-24:
            constraints.append(Halfspace(-f_grad, -float(f_grad @ x)))
        return qp.minimize(constraints), None

    return _baseline_loop(instance, max_iters, keep_iterates, update, start=start)
