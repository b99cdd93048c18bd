"""Iterative methods: lower-level initialization, the cutting-plane
conditional-gradient bilevel solver (cg_bio), plain conditional gradient,
and the projection-based baselines BiG-SAM, a-IRG, DBGD, and MNG."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BilevelInstance,
    ConfigurationError,
    OracleError,
    Region,
    SmoothOracle,
    SolveOutcome,
    SolverConfig,
    TraceRow,
    cutting_plane,
    minimize_quadratic_over_halfspaces,
    step_size,
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

def _cg_step_length(oracle, x, fx, grad, d, mode, state, gamma_max):
    """Stepsize in [0, gamma_max] along the pairwise direction d = s - v_away
    of standard CG, where gamma_max is the away atom's weight."""
    gap = float(-(grad @ d))  # <grad, v_away - s>
    dd = float(d @ d)
    if mode == "exact":
        # The objective along x + t d is fitted by a parabola through t = 0
        # and t = 1 (exact for quadratic objectives), then the step is
        # clipped.  Fitting over [0, gamma_max] instead would divide the
        # rounding error of f1 - fx by gamma_max**2.
        f1 = oracle.value(x + d)
        curv = f1 - fx + gap
        if curv <= 0.0:
            return gamma_max
        return float(np.clip(gap / (2.0 * curv), 0.0, gamma_max))
    if mode == "backtracking":
        if dd == 0.0:
            return 0.0
        L = state.setdefault("L", oracle.lipschitz_grad or 1.0)
        for _ in range(60):
            gamma = float(np.clip(gap / (L * dd), 0.0, gamma_max))
            if gamma == 0.0:
                return 0.0
            # No absolute slack: near the optimum the predicted decrease is
            # below 1e-14, and a slack there accepts steps that raise f.
            if oracle.value(x + gamma * d) <= fx - gamma * gap + 0.5 * L * gamma**2 * dd:
                state["L"] = max(L / 2.0, 1e-12)
                return gamma
            L *= 2.0
        state["L"] = L
        return gamma
    raise ValueError(f"unknown line search mode {mode!r}")


def standard_cg(
    oracle: SmoothOracle,
    region: Region,
    config: SolverConfig,
    line_search: Optional[str] = None,
    start: Optional[np.ndarray] = None,
) -> SolveOutcome:
    """Classic Frank-Wolfe on a single smooth objective over ``region``.

    Stops when the FW duality gap <grad, x - s> drops to ``config.eps_f``.
    ``line_search`` may be None (use the schedule), "backtracking", or
    "exact" (exact for quadratics).  The FW gap is recorded in the
    ``surrogate_f_gap`` trace column.

    With a line search the steps are pairwise (Lacoste-Julien & Jaggi
    2015): x is kept as a convex combination of active atoms, the start and
    the LMO's vertices, and each step moves weight from the away atom (the
    active atom maximizing <grad, v>, first-inserted on ties) to the LMO
    vertex, at most all of the away atom's weight.  A schedule step can
    exceed that weight, so schedule runs take vanilla steps toward s.
    """
    x = np.array(region.feasible_point() if start is None else start, dtype=float)
    # atom key -> [vertex, weight], in insertion order
    active = {x.tobytes(): [x, 1.0]}
    tracer = _Tracer(config.keep_iterates)
    ls_state: dict = {}
    for k in range(config.max_iters + 1):
        fx, grad = oracle(x)
        try:
            s = lmo(region, grad)
        except OracleError as exc:
            tracer.add(k, fx, np.nan, iterate=x)
            return tracer.outcome(x, f"oracle_failure: {exc}")
        gap = float(grad @ (x - s))
        tracer.add(k, fx, np.nan, f_gap=gap, iterate=x)
        if gap <= config.eps_f:
            return tracer.outcome(x, "criterion_met")
        if k == config.max_iters:
            return tracer.outcome(x, "budget_exhausted")
        if line_search is None:
            d = s - x
            gamma = step_size(config.schedule, k)
        else:
            away = max(active.values(), key=lambda atom: float(grad @ atom[0]))
            d = s - away[0]
            gamma = _cg_step_length(oracle, x, fx, grad, d, line_search, ls_state, away[1])
            if gamma > 0.0:
                away[1] -= gamma
                if away[1] == 0.0:  # drop step: gamma was all of its weight
                    del active[away[0].tobytes()]
                active.setdefault(s.tobytes(), [s, 0.0])[1] += gamma
        x = x + gamma * d


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
    cfg = SolverConfig(eps_f=eps_g / 2.0, eps_g=eps_g, max_iters=max_iters)
    if line_search is None:
        line_search = _line_search(instance.lower)
    out = standard_cg(instance.lower, instance.region, cfg, line_search=line_search)
    tail = out.trace[-1]
    certificate, certified = _start_certificate(instance, tail.f_val, tail.surrogate_f_gap, eps_g)
    return out.final_point, certificate, certified


def _start_certificate(instance, g_val, fw_gap, eps_g) -> tuple[float, bool]:
    """The FW gap bounds g(x0) - g* by convexity.  When it does not certify
    x0, a known optimal value gives the exact excess instead."""
    certificate, certified = float(fw_gap), fw_gap <= eps_g / 2.0
    ref = instance.reference
    if not certified and ref is not None and ref.g_star is not None:
        certificate = g_val - ref.g_star
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
    ``init_certificate`` and ``certified``, computed as
    :func:`initialize_lower` computes them for its own point, and a row
    that passes the test from an uncertified start reports
    "uncertified_start" instead of "criterion_met".  An infeasible ``x0``
    raises ConfigurationError.
    """
    x = np.asarray(x0, dtype=float).copy()
    region = instance.region
    if not region.contains(x, tol=1e-8):
        raise ConfigurationError("x0 is not feasible")
    g0_val, g0_grad = instance.lower(x)
    certificate, certified = _start_certificate(
        instance, g0_val, float(g0_grad @ (x - lmo(region, g0_grad))), config.eps_g
    )
    start = {"init_certificate": certificate, "certified": certified}
    passed = "criterion_met" if certified else "uncertified_start"

    tracer = _Tracer(config.keep_iterates)
    for k in range(config.max_iters + 1):
        f_val, f_grad = instance.upper(x)
        g_val, g_grad = instance.lower(x)
        cut = cutting_plane(g_grad, x, g0_val, g_val)
        try:
            s = halfspace_lmo(region, cut, f_grad)
        except OracleError as exc:
            tracer.add(k, f_val, g_val, iterate=x)
            return tracer.outcome(x, f"oracle_failure: {exc}", **start)
        f_gap = float(f_grad @ (x - s))
        g_gap = float(g_grad @ (x - s))
        tracer.add(k, f_val, g_val, f_gap=f_gap, g_gap=g_gap, iterate=x)
        if f_gap <= config.eps_f and g_gap <= config.eps_g / 2.0:
            return tracer.outcome(x, passed, **start)
        if k == config.max_iters:
            return tracer.outcome(x, "budget_exhausted", **start)
        gamma = step_size(config.schedule, k)
        x = (1.0 - gamma) * x + gamma * s


# ---------------------------------------------------------------------------
# Baseline configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BigSamConfig:
    """Sequential-averaging baseline; alpha_k = min(gamma / k, 1)."""

    eta_f: Optional[float] = None
    eta_g: Optional[float] = None
    gamma: float = 10.0

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
        if eta_f <= 0 or eta_g <= 0 or self.gamma <= 0:
            raise ConfigurationError("BiG-SAM steps must be positive")
        return eta_f, eta_g


@dataclass(frozen=True)
class AIrgConfig:
    """Averaging iteratively-regularized gradient baseline;
    gamma_k = gamma0 / sqrt(k+1), eta_k = eta0 / (k+1)^(1/4)."""

    gamma0: float = 0.01
    eta0: float = 1.0

    def __post_init__(self):
        if self.gamma0 <= 0 or self.eta0 < 0:
            raise ConfigurationError("a-IRG rates must be positive")


@dataclass(frozen=True)
class DbgdConfig:
    """Dynamic-barrier gradient descent baseline (projected variant)."""

    alpha: float = 1.0
    beta: float = 1.0
    g_hat: float = 0.0  # lower bound on the lower-level optimal value
    step: float = 0.1
    grad_floor: float = 1e-12

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.step <= 0 or self.grad_floor <= 0:
            raise ConfigurationError("DBGD parameters must be positive")


@dataclass(frozen=True)
class MngConfig:
    """Minimal-norm-gradient baseline; M must dominate the lower-level
    gradient Lipschitz constant."""

    M: float

    def __post_init__(self):
        if self.M <= 0:
            raise ConfigurationError("MNG smoothing constant must be positive")


# ---------------------------------------------------------------------------
# Projection-based baselines
# ---------------------------------------------------------------------------

def _baseline_loop(instance, max_iters, keep_iterates, update, start=None):
    x = np.array(instance.region.feasible_point() if start is None else start, dtype=float)
    tracer = _Tracer(keep_iterates)
    for k in range(max_iters + 1):
        f_val, f_grad = instance.upper(x)
        g_val, g_grad = instance.lower(x)
        tracer.add(k, f_val, g_val, iterate=x)
        if k == max_iters:
            return tracer.outcome(x, "budget_exhausted")
        try:
            x = update(k, x, f_grad, g_grad, g_val)
        except OracleError as exc:
            return tracer.outcome(x, f"oracle_failure: {exc}")


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
        y = project(region, x - eta_g * g_grad)
        z = x - eta_f * f_grad
        alpha = min(config.gamma / (k + 1.0), 1.0)
        return alpha * z + (1.0 - alpha) * y

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
        return project(region, x - gamma * (g_grad + eta * f_grad))

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
        return project(region, x - config.step * (f_grad + lam * g_grad))

    return _baseline_loop(instance, max_iters, keep_iterates, update, start=start)


# ---------------------------------------------------------------------------
# MNG (quadratic upper level only)
# ---------------------------------------------------------------------------

def mng(
    instance: BilevelInstance,
    config: MngConfig,
    max_iters: int = 1000,
    keep_iterates: bool = False,
    start: Optional[np.ndarray] = None,
) -> SolveOutcome:
    """Minimal-norm-gradient baseline.

    Requires the upper-level objective to be an explicitly tagged quadratic;
    each step minimizes it over the gradient-mapping halfspace and the
    upper-gradient halfspace.
    """
    quad = instance.upper.quadratic
    if quad is None:
        raise ConfigurationError("MNG needs an explicit quadratic upper-level objective")
    L_g = instance.lower.lipschitz_grad
    if L_g is not None and config.M < L_g:
        raise ConfigurationError("MNG smoothing constant must satisfy M >= L_g")
    M = config.M
    region = instance.region

    def update(k, x, f_grad, g_grad, g_val):
        gm = M * (x - project(region, x - g_grad / M))
        constraints = []
        gm_sq = float(gm @ gm)
        if gm_sq > 1e-24:
            # <gm, x_k - z> >= 3/(4M) |gm|^2  rewritten as <-gm, z> >= o.
            constraints.append((-gm, 0.75 / M * gm_sq - float(gm @ x)))
        if float(f_grad @ f_grad) > 1e-24:
            constraints.append((f_grad, float(f_grad @ x)))
        return minimize_quadratic_over_halfspaces(quad, constraints)

    return _baseline_loop(instance, max_iters, keep_iterates, update, start=start)
