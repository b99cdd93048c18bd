"""Executable invariant suites: per-step and convergence-rate inequalities
of the cutting-plane conditional-gradient method, lower-bound guarantees,
oracle checks by exact duality-gap certificates and vertex enumeration,
and finite-difference gradient checks.

Each ``check_*`` function returns a list of (label, passed, detail) tuples;
``verify`` aggregates the requested groups.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .core import (
    Answer,
    BilevelInstance,
    ConstantStep,
    Halfspace,
    L1Ball,
    Polytope,
    ProductRegion,
    BallProduct,
    QuadraticForm,
    ReferenceData,
    SmoothOracle,
    SolverConfig,
    cutting_plane,
)
from .harness import (
    _least_upper_excess,
    _solution_face,
    hoelder_estimate,
    value_transfer_check,
    reference_bilevel,
    reference_lower,
)
from .oracles import LpProblem, halfspace_lmo, lmo, project, simplex_solve
from .problems import (
    DictLearnSpec,
    dictionary_problem,
    fair_classification_problem,
    regression_problem,
    toy_problem,
)
from .solvers import cg_bio, initialize_lower


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------

def random_convex_instance(seed: int, dim: int) -> BilevelInstance:
    """Random convex bilevel instance over the unit box: linear lower level
    whose optimal face is an edge, convex quadratic upper whose minimum over
    that edge is strictly interior (so the bilevel run takes many steps)."""
    for attempt in range(50):
        inst = _random_convex_candidate(seed + 1000 * attempt, dim)
        face = inst.reference.lower_solution_set
        endpoint_best = min(inst.upper.value(v) for v in face)
        if inst.reference.f_star < endpoint_best - 1e-10:
            return inst
    raise RuntimeError("failed to sample an instance with an interior face optimum")


def _random_convex_candidate(seed: int, dim: int) -> BilevelInstance:
    rng = np.random.default_rng(seed)
    region = Polytope(A=np.eye(dim), b=np.ones(dim))  # the unit box
    c = rng.standard_normal(dim)
    # Zero one coefficient so the optimal face is an edge, not a vertex;
    # singleton faces make the bilevel run converge in one step.
    c[int(rng.integers(dim))] = 0.0
    lower = SmoothOracle(dim, quadratic=QuadraticForm(np.zeros((0, dim)), np.zeros(0), c))
    # Hessian B'B + 0.1 I, factored as [B; sqrt(0.1) I].
    F = np.vstack([rng.standard_normal((dim, dim)), np.sqrt(0.1) * np.eye(dim)])
    upper = SmoothOracle(dim, quadratic=QuadraticForm(F, np.zeros(2 * dim), rng.standard_normal(dim)))
    verts = region.vertices()
    vals = np.array([lower.value(v) for v in verts])
    g_star = float(vals.min())
    face = verts[vals <= g_star + 1e-9]
    inst = BilevelInstance(
        upper, lower, region,
        ReferenceData(g_star=g_star, lower_solution_set=face),
        name=f"random-{dim}d-{seed}",
    )
    f_star = reference_bilevel(inst, tol=1e-10)
    return replace(inst, reference=replace(inst.reference, f_star=f_star))


def _cg_bio_trajectory(instance, eps_f, eps_g, max_iters):
    x0, _, _ = initialize_lower(instance, eps_g)
    cfg = SolverConfig(eps_f=eps_f, eps_g=eps_g, max_iters=max_iters, keep_iterates=True)
    return x0, cfg, cg_bio(instance, x0, cfg)


def _cuts_from_trace(instance, x0, trace) -> list[Halfspace]:
    g0 = instance.lower.value(x0)
    cuts = []
    for row in trace:
        if row.iterate is None:
            continue
        g_val, g_grad = instance.lower(row.iterate)
        cuts.append(cutting_plane(g_grad, float(g_grad @ row.iterate), g0, g_val))
    return cuts


# ---------------------------------------------------------------------------
# Cutting-plane validity (every lower-level optimum satisfies every cut)
# ---------------------------------------------------------------------------

def check_cut_retention(slack: float = 1e-10) -> list:
    """A cut's violation is affine, so its largest value over the solution
    face is attained at one of the face's vertices."""
    results = []
    instances = [toy_problem()] + [random_convex_instance(100 + i, 2 + i % 2) for i in range(4)]
    for inst in instances:
        x0, _, out = _cg_bio_trajectory(inst, 1e-7, 1e-7, 200)
        cuts = _cuts_from_trace(inst, x0, out.trace)
        face = _solution_face(inst)
        worst = max(
            (cut.violation(p) for cut in cuts for p in face), default=-np.inf
        )
        results.append(
            (f"cut-validity {inst.name}", worst <= slack, f"worst violation {worst:.3e}")
        )
    return results


# ---------------------------------------------------------------------------
# Per-step descent inequalities
# ---------------------------------------------------------------------------

def check_descent_steps(slack: float = 1e-8) -> list:
    results = []
    instances = [toy_problem()] + [random_convex_instance(200 + i, 2 + i % 2) for i in range(4)]
    for inst in instances:
        x0, cfg, out = _cg_bio_trajectory(inst, 1e-13, 1e-13, 300)
        L_f = inst.upper.lipschitz_grad
        L_g = inst.lower.lipschitz_grad
        D = inst.region.diameter
        g0 = inst.lower.value(x0)
        worst = -np.inf
        pairs = 0
        rows = [r for r in out.trace if r.iterate is not None]
        for a, b in zip(rows, rows[1:]):
            if b.k != a.k + 1 or np.isnan(a.surrogate_f_gap):
                continue
            pairs += 1
            gamma = cfg.schedule.step(a.k)
            f_excess = b.f_val - (
                a.f_val - gamma * a.surrogate_f_gap + 0.5 * gamma**2 * L_f * D**2
            )
            g_excess = b.g_val - (
                (1.0 - gamma) * a.g_val + gamma * g0 + 0.5 * gamma**2 * L_g * D**2
            )
            worst = max(worst, f_excess, g_excess)
        ok = pairs > 0 and worst <= slack
        results.append(
            (f"per-step bounds {inst.name}", ok, f"{pairs} steps, worst excess {worst:.3e}")
        )
    return results


# ---------------------------------------------------------------------------
# Convergence rates, convex upper level
# ---------------------------------------------------------------------------

def check_convex_rates(max_k: int = 500, slack: float = 1e-8) -> list:
    results = []
    instances = [toy_problem()] + [
        random_convex_instance(300 + i, 2 + i % 2) for i in range(20)
    ]
    eps_g = 1e-9
    for inst in instances:
        x0, cfg, out = _cg_bio_trajectory(inst, 1e-13, eps_g, max_k)
        if not out.certified:
            results.append((f"rate bounds {inst.name}", False, "initialization not certified"))
            continue
        L_f = inst.upper.lipschitz_grad
        L_g = inst.lower.lipschitz_grad
        D = inst.region.diameter
        f_star = inst.reference.f_star
        g_star = inst.reference.g_star
        worst = -np.inf
        for row in out.trace:
            if row.k == 0:
                continue
            f_bound = 2.0 * L_f * D**2 / (row.k + 1.0)
            g_bound = 2.0 * L_g * D**2 / (row.k + 1.0) + eps_g / 2.0
            worst = max(
                worst,
                (row.f_val - f_star) - f_bound,
                (row.g_val - g_star) - g_bound,
            )
        results.append(
            (f"rate bounds {inst.name}", worst <= slack, f"worst excess {worst:.3e}")
        )
    return results


# ---------------------------------------------------------------------------
# Convergence rates, non-convex upper level
# ---------------------------------------------------------------------------

def check_nonconvex_rates(eps_values=(1e-1, 1e-2), seed: int = 7, k_cap: int = 200_000) -> list:
    results = []
    inst, _ = fair_classification_problem(n=40, d=3, seed=seed, l1_radius=2.0)
    # The reference tolerance is folded into the bound slack below; it is
    # four orders of magnitude below the smallest eps checked.
    ref_tol = 1e-6
    g_star = reference_lower(inst, tol=ref_tol, max_iters=500_000)
    L_f = inst.upper.lipschitz_grad
    L_g = inst.lower.lipschitz_grad
    D = inst.region.diameter
    f_floor = 0.0  # min f: a squared centred covariance is >= 0, and f(0) = 0
    for eps in eps_values:
        gamma = min(eps / (L_f * D**2), eps / (L_g * D**2), 1.0)
        x0, _, _ = initialize_lower(inst, eps)
        f0 = inst.upper.value(x0)
        K = int(np.ceil(2.0 * (f0 - f_floor) * max(L_f * D**2 / eps**2, L_g * D**2 / (eps * eps))))
        K = min(max(K, 1), k_cap)
        cfg = SolverConfig(eps_f=eps, eps_g=eps, max_iters=K, schedule=ConstantStep(gamma))
        out = cg_bio(inst, x0, cfg)

        def passes(row):
            return row.surrogate_f_gap <= eps + 1e-12 and row.g_val - g_star <= eps + 2.0 * ref_tol

        best = out.trace[out.best_index]
        ok = out.certified and passes(best)
        first = next((row.k for row in out.trace if passes(row)), None)
        results.append(
            (
                f"stationarity at eps={eps:g}",
                ok,
                f"K={K}, min f-gap {best.surrogate_f_gap:.3e}, g-gap {best.g_val - g_star:.3e}, "
                f"first passing k={first}",
            )
        )
    return results


# ---------------------------------------------------------------------------
# Value lower bound and matched-tolerance schedule
# ---------------------------------------------------------------------------

def check_value_transfer(slack: float = 1e-8) -> list:
    results = []
    inst = toy_problem()
    params = hoelder_estimate(inst)
    ok_m = abs(params.M - np.hypot(0.5, 0.1)) <= 1e-6
    results.append(("gradient bound over the optimal face", ok_m, f"M={params.M:.6f}"))
    ok_p = value_transfer_check(inst, params, eps_g=1e-3, slack=slack)
    detail = (
        f"alpha={params.alpha:.4f}, min f - f* {_least_upper_excess(inst, 1e-3):.3e} "
        f">= bound {-params.value_drop(1e-3):.3e}"
    )
    results.append(("value lower bound on near-optimal points", ok_p, detail))

    # Matched tolerances: eps_g = (alpha/r) (eps_f / M)^r gives |f - f*| <= eps_f.
    eps_f = 1e-3
    eps_g = params.alpha / params.order * (eps_f / params.M) ** params.order
    x0, _, _ = initialize_lower(inst, eps_g)
    cfg = SolverConfig(eps_f=eps_f, eps_g=eps_g, max_iters=10_000)
    out = cg_bio(inst, x0, cfg)
    dev = abs(inst.upper.value(out.final_point) - inst.reference.f_star)
    ok_c = out.stop_reason == "criterion_met" and dev <= eps_f + slack
    results.append(("matched-tolerance schedule", ok_c, f"|f - f*| = {dev:.3e}"))
    return results


# ---------------------------------------------------------------------------
# Oracle certificates
# ---------------------------------------------------------------------------

def brute_lmo_l1(radius: float, c: np.ndarray) -> np.ndarray:
    """l1-ball LMO by enumerating the 2d signed vertices: lowest index wins,
    and -r before +r, so a zero objective gives -r * e_0 as the LMO does."""
    d = c.shape[0]
    best, best_val = None, np.inf
    for i in range(d):
        for sign in (-1.0, 1.0):
            v = np.zeros(d)
            v[i] = sign * radius
            val = float(c @ v)
            if val < best_val - 1e-15:
                best, best_val = v, val
    return best


def cut_certificate_gap(
    region, h: Optional[Halfspace], c: np.ndarray, s: np.ndarray, mu: float = 0.0, tol: float = 1e-9
) -> float:
    """Duality gap <c, s> - (min_{s' in region} <c + mu a, s'> - mu beta) of
    an answer (s, mu) of ``region.cut_lmo(h, c, plain)``, s given as its
    point; inf when s leaves the region or the halfspace by more than
    ``tol`` or mu is not a finite nonnegative number.  By weak duality the gap of a feasible s is at least
    the gap of s to the cut-restricted minimum, so gap <= tol certifies
    that s is tol-optimal without any search.

    ``h=None`` means no cut, and mu must be 0: the gap is then the
    Frank-Wolfe gap <c, s - lmo(c)>.  With c = p - y and s = p it certifies
    a projection p of y, as the gap is at least |p - proj(y)|^2 (Jaggi 2013,
    ICML)."""
    if h is None:
        if mu != 0.0:
            return np.inf
        h = Halfspace(np.zeros_like(c), 0.0)
    if not (0.0 <= mu < np.inf and region.contains(s, tol) and h.contains(s, tol)):
        return np.inf
    shifted = c + mu * h.normal
    return float(c @ s) - (float(shifted @ lmo(region, shifted).point) - mu * h.offset)


def l1_cut_lp_value(region: L1Ball, h: Halfspace, c: np.ndarray) -> float:
    """min <c, s> over the l1 region cut by ``h`` from the dense simplex on
    the split LP s = s+ - s-: one row sum(s+ + s-) <= r per column, and
    <a, s+ - s-> <= beta."""
    ones = np.kron(np.eye(region.num_cols), np.ones(region.dimension // region.num_cols))
    A = np.vstack([np.hstack([ones, ones]), np.concatenate([h.normal, -h.normal])])
    b = np.append(np.full(region.num_cols, region.radius), h.offset)
    return simplex_solve(LpProblem(np.concatenate([c, -c]), A, b)).value


def check_oracles(count: int = 100, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    # The multi-column l1 regions draw from their own stream, so the other
    # inputs keep theirs.
    cols_rng = np.random.default_rng([seed, 1])
    results = []

    def l1_columns() -> L1Ball:
        num_cols, col_dim = int(cols_rng.integers(1, 6)), int(cols_rng.integers(2, 7))
        return L1Ball(float(cols_rng.uniform(0.5, 2.0)), num_cols * col_dim, num_cols)

    # l1 LMO against signed-vertex enumeration, column by column.  The
    # multi-column regions get integer objectives, which tie often, with one
    # zero column.
    differ = 0
    for _ in range(count):
        d = int(rng.integers(2, 7))
        ball = L1Ball(float(rng.uniform(0.5, 3.0)), d)
        reg = l1_columns()
        tied = cols_rng.integers(-2, 3, size=reg.dimension).astype(float)
        reg.rows(tied)[int(cols_rng.integers(reg.num_cols))] = 0.0
        for region, c in ((ball, rng.standard_normal(d)), (reg, tied)):
            exact = np.concatenate([brute_lmo_l1(region.radius, col) for col in region.rows(c)])
            differ += not np.array_equal(lmo(region, c).point, exact)
    results.append(("l1 LMO vs vertex enumeration", differ == 0, f"{differ} of {2 * count} differ"))

    # Ball-product LMO against the support function: s lies in the region
    # and <c, s> reaches min_region <c, .> = -sum_j r_j |c_j|.
    worst = 0.0
    for _ in range(count):
        reg = BallProduct(int(rng.integers(1, 4)), int(rng.integers(2, 4)), float(rng.uniform(0.5, 2.0)))
        c = rng.standard_normal(reg.dimension)
        s = lmo(reg, c).point
        support = float(reg.radii @ np.linalg.norm(reg.columns(c), axis=0))
        worst = max(worst, float(c @ s) + support if reg.contains(s, tol=1e-9) else np.inf)
    results.append(("ball-product LMO support certificate", worst <= 1e-8, f"worst gap {worst:.2e}"))

    # Polytope LMO against the simplex's vertex, on Gaussian objectives and
    # on integer ones in {-1, 0, 1}, which tie often: on ties both must
    # return the last minimizing vertex.
    worst = 0.0
    for _ in range(count):
        reg = _random_polytope(rng)
        for c in (rng.standard_normal(reg.dimension), rng.integers(-1, 2, size=reg.dimension).astype(float)):
            point = simplex_solve(LpProblem(c, reg.A, reg.b)).point
            worst = max(worst, float(np.abs(lmo(reg, c).point - point).max()))
    results.append(("polytope LMO vs simplex", worst <= 1e-9, f"worst {worst:.2e}"))

    # Every certificate below minimizes with these plain LMOs, and the cuts
    # are drawn with them: a wrong one makes the rest meaningless.
    if not all(ok for _, ok, _ in results):
        return results

    worst = 0.0
    for _ in range(count):
        reg = _random_polytope(rng)
        c = rng.standard_normal(reg.dimension)
        verts = reg.vertices()
        anchor = verts.mean(axis=0)
        normal = rng.standard_normal(reg.dimension)
        h = Halfspace(normal, float(normal @ anchor))
        s = halfspace_lmo(reg, h, c).point
        cut_poly = Polytope(
            A=np.vstack([reg.A, h.normal]), b=np.append(reg.b, h.offset),
        )
        ref = float(np.min(cut_poly.vertices() @ c))
        ok_feas = reg.contains(s, tol=1e-7) and h.contains(s, tol=1e-7)
        worst = max(worst, (float(s @ c) - ref) if ok_feas else np.inf)
    results.append(("restricted polytope LMO vs vertex enumeration", worst <= 1e-8, f"worst {worst:.2e}"))

    # Projections by their Frank-Wolfe gap at c = p - y: gap <= 1e-12 bounds
    # |p - proj(y)| by 1e-6.  Each draw gives one or more (region, y) pairs;
    # the multi-column l1 points have columns of mixed scale, so that some
    # lie inside the ball.
    def gaussian(reg):
        return reg, rng.standard_normal(reg.dimension) * 2.0

    def mixed_columns():
        reg = l1_columns()
        y = cols_rng.standard_normal(reg.dimension)
        reg.rows(y)[:] *= cols_rng.uniform(0.1, 2.0, size=(reg.num_cols, 1))
        return reg, y

    projections = {
        "l1": lambda: [gaussian(L1Ball(float(rng.uniform(0.5, 2.0)), int(rng.integers(2, 7)))), mixed_columns()],
        "ball": lambda: [gaussian(BallProduct(2, 2, float(rng.uniform(0.5, 2.0))))],
        "product region": lambda: [gaussian(ProductRegion(
            (L1Ball(float(rng.uniform(0.5, 2.0)), int(rng.integers(2, 7))), _random_ball_product(rng))
        ))],
        "polytope": lambda: [gaussian(_random_polytope(rng))],
    }
    for label, draw in projections.items():
        worst = 0.0
        for _ in range(count):
            for reg, y in draw():
                p = project(reg, y)
                worst = max(worst, cut_certificate_gap(reg, None, p - y, p))
        results.append((f"{label} projection certificate", worst <= 1e-12, f"worst gap {worst:.2e}"))

    # Cut LMO certificates: each answer (s, mu) closes the duality gap, and
    # the l1 walk matches the dense simplex on the split LP.  Each draw gives
    # cut problems (region, c, h, plain), each drawn from one stream: for
    # an l1 region and a product region the cut's normal lives in one
    # block, a column of the former or a block of the latter.  The
    # zero-column ball products draw from their own streams, so the other
    # inputs keep theirs.  The second stream draws two per count with radii
    # up to 10: an LMO that takes a column near zero as zero misses the dual
    # by up to 2 r_j times its zero test's floor.
    jump_rng, wide_jump_rng = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 3])

    def cut(reg, stream, blocks=None):
        c = stream.standard_normal(reg.dimension)
        return (reg, c, *_active_cut(reg, c, stream, blocks))

    def l1_cut(reg, stream):
        width = reg.dimension // reg.num_cols
        return cut(reg, stream, [(lo, lo + width) for lo in range(0, reg.dimension, width)])

    def product_cut(reg):
        return cut(reg, rng, reg.offsets())

    makers = {
        "l1 ball": lambda: [l1_cut(L1Ball(float(rng.uniform(0.5, 3.0)), int(rng.integers(2, 51))), rng),
                            l1_cut(l1_columns(), cols_rng)],
        "ball product": lambda: [cut(_random_ball_product(rng), rng), _zero_column_cut(jump_rng),
                                 *(_zero_column_cut(wide_jump_rng, top_radius=10.0) for _ in range(2))],
        "polytope": lambda: [cut(_random_polytope(rng), rng)],
        "product region": lambda: [product_cut(ProductRegion(
            (L1Ball(float(rng.uniform(0.5, 2.0)), int(rng.integers(2, 6))), _random_ball_product(rng),
             _random_polytope(rng))
        ))],
    }
    lp_worst = 0.0
    for label, draw in makers.items():
        worst = 0.0
        for _ in range(count):
            for reg, c, h, plain in draw():
                (s, _), mu = reg.cut_lmo(h, c, plain)
                worst = max(worst, cut_certificate_gap(reg, h, c, s, mu))
                if isinstance(reg, L1Ball):
                    lp_worst = max(lp_worst, abs(float(c @ s) - l1_cut_lp_value(reg, h, c)))
        results.append((f"{label} cut LMO certificate", worst <= 1e-9, f"worst gap {worst:.2e}"))
    results.append(("l1 cut LMO vs split-LP simplex", lp_worst <= 1e-9, f"worst {lp_worst:.2e}"))
    return results


def _random_ball_product(rng, top_radius: float = 2.0) -> BallProduct:
    """1-4 columns of 2-4 entries, radii uniform in [top_radius / 4, top_radius]."""
    num_cols = int(rng.integers(1, 5))
    return BallProduct(num_cols, int(rng.integers(2, 5)), rng.uniform(0.25, 1.0, size=num_cols) * top_radius)


def _zero_column_cut(rng, top_radius: float = 2.0) -> tuple:
    """A ball-product cut problem (region, c, h, plain) whose multiplier
    sits where a column of c + mu a passes through zero: c_j = -tau a_j for
    one random column j, where tau is the multiplier of a Gaussian draw.
    At tau column j's term of the residual jumps from r_j |a_j|, its
    largest value, to -r_j |a_j|, its least, and the other terms are the
    Gaussian draw's, whose residual is 0 there.  So the new residual
    changes sign at tau, the new multiplier, and the cut oracle's bracket
    closes on that jump."""
    reg = _random_ball_product(rng, top_radius)
    c = rng.standard_normal(reg.dimension)
    h, plain = _active_cut(reg, c, rng)
    _, tau = reg.cut_lmo(h, c, plain)
    cols = reg.columns(c).copy()
    j = int(rng.integers(reg.num_cols))
    cols[:, j] = -tau * reg.columns(h.normal)[:, j]
    c = reg.flatten(cols)
    return reg, c, h, lmo(reg, c)


def _active_cut(region, c: np.ndarray, rng, blocks=None) -> tuple[Halfspace, Answer]:
    """A random halfspace that cuts off the plain LMO point of ``c`` yet
    meets the region, and that point's answer.  Given ``blocks``, a list of (lo, hi)
    bounds, the normal lives in one random block of it."""
    plain = lmo(region, c)
    while True:
        normal = rng.standard_normal(region.dimension)
        if blocks is not None:
            keep = np.zeros(region.dimension)
            lo, hi = blocks[int(rng.integers(len(blocks)))]
            keep[lo:hi] = 1.0
            normal *= keep
        low, high = float(normal @ lmo(region, normal).point), float(normal @ plain.point)
        if high > low + 1e-6:
            return Halfspace(normal, low + float(rng.uniform(0.05, 0.95)) * (high - low)), plain


def _random_polytope(rng) -> Polytope:
    """Random bounded polytope: the unit box in 2-3 dims plus extra cuts."""
    d = int(rng.integers(2, 4))
    rows = [np.eye(d)]
    rhs = [np.ones(d)]
    for _ in range(int(rng.integers(0, 3))):
        a = rng.uniform(0.2, 1.0, size=d)
        rows.append(a[None, :])
        rhs.append(np.array([float(rng.uniform(0.4 * a.sum(), a.sum()))]))
    return Polytope(A=np.vstack(rows), b=np.concatenate(rhs))


# ---------------------------------------------------------------------------
# Gradient checks
# ---------------------------------------------------------------------------

def finite_difference_gradient(oracle: SmoothOracle, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    g = np.empty(oracle.dimension)
    for i in range(oracle.dimension):
        e = np.zeros(oracle.dimension)
        e[i] = step
        g[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * step)
    return g


def _gradient_check(oracle: SmoothOracle, points: np.ndarray, rel_tol: float = 1e-4) -> tuple[bool, float]:
    worst = 0.0
    for x in points:
        analytic = oracle.gradient(x)
        numeric = finite_difference_gradient(oracle, x)
        denom = max(float(np.linalg.norm(analytic)), 1.0)
        worst = max(worst, float(np.linalg.norm(analytic - numeric)) / denom)
    return worst <= rel_tol, worst


SMALL_DICT_SPEC = DictLearnSpec(
    signal_dim=4, true_dict_size=6, old_dict_size=5, new_dict_size=3, shared=2,
    n_old=8, n_new=6, sparsity=2, seed=3,
)


def check_gradients(points_per_family: int = 100, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    results = []
    toy = toy_problem()
    reg, _ = regression_problem(n=30, d=20, seed=1)
    fair, _ = fair_classification_problem(n=40, d=4, seed=2, l1_radius=3.0)
    bundle = dictionary_problem(SMALL_DICT_SPEC, pretrain_iters=50, pretrain_polish_iters=50)
    cases = [
        ("toy", toy.upper, 2), ("toy lower", toy.lower, 2),
        ("regression", reg.upper, reg.dimension), ("regression lower", reg.lower, reg.dimension),
        ("fair", fair.upper, fair.dimension), ("fair lower", fair.lower, fair.dimension),
        ("dictionary", bundle.bilevel.upper, bundle.bilevel.dimension),
        ("dictionary lower", bundle.bilevel.lower, bundle.bilevel.dimension),
        ("pretraining", bundle.pretrain_oracle, bundle.pretrain_oracle.dimension),
    ]
    for label, oracle, dim in cases:
        n_pts = points_per_family if dim <= 50 else max(points_per_family // 10, 5)
        pts = rng.standard_normal((n_pts, dim))
        ok, worst = _gradient_check(oracle, pts)
        results.append((f"gradient {label}", ok, f"worst relative error {worst:.2e}"))
    return results


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

GROUPS = {
    "cuts": check_cut_retention,
    "descent": check_descent_steps,
    "convex-rates": check_convex_rates,
    "nonconvex-rates": check_nonconvex_rates,
    "transfer": check_value_transfer,
    "oracles": check_oracles,
    "gradients": check_gradients,
}


def verify(groups: Optional[list[str]] = None) -> tuple[bool, list]:
    """Run the named verification groups (all by default).  Returns overall
    success plus the flat (label, passed, detail) list."""
    names = groups or list(GROUPS)
    results = []
    for name in names:
        if name not in GROUPS:
            raise ValueError(f"unknown verification group {name!r}")
        for label, ok, detail in GROUPS[name]():
            results.append((f"{name}: {label}", ok, detail))
    return all(ok for _, ok, _ in results), results
