"""Reference-solution oracles, evaluation metrics, experiment orchestration,
and run persistence (trace CSV + summary JSON)."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    BilevelInstance,
    ConstantStep,
    Harmonic,
    InvSqrt,
    Polytope,
    QuadraticForm,
    Region,
    Schedule,
    SmoothOracle,
    SolveOutcome,
    SolverConfig,
    TraceRow,
    minimize_quadratic_over_halfspaces,
)
from .solvers import (
    AIrgConfig,
    BigSamConfig,
    DbgdConfig,
    MngConfig,
    _line_search,
    a_irg,
    big_sam,
    cg_bio,
    dbgd,
    initialize_lower,
    mng,
    standard_cg,
)


# ---------------------------------------------------------------------------
# Reference solutions
# ---------------------------------------------------------------------------

def _is_linear(oracle: SmoothOracle) -> bool:
    q = oracle.quadratic
    # A factored tag is tested by its factor: F = 0 iff F'F = 0.
    return q is not None and not np.any(q.Q if q.F is None else q.F)


def reference_lower(instance: BilevelInstance, tol: float = 1e-9, max_iters: int = 200_000) -> float:
    """High-accuracy estimate of the lower-level optimal value: a pairwise
    conditional-gradient run with line search certifies g(x) - g* <= tol
    through the duality gap.  On a linear objective the exact line search
    steps onto an optimal vertex at once."""
    cfg = SolverConfig(eps_f=tol, eps_g=tol, max_iters=max_iters)
    out = standard_cg(instance.lower, instance.region, cfg, line_search=_line_search(instance.lower))
    if out.stop_reason != "criterion_met":
        raise RuntimeError(
            f"lower-level reference budget exhausted; achieved gap {out.trace[-1].surrogate_f_gap:.3e}"
        )
    return out.trace[-1].f_val


# Lower-level gap under which a vertex of a polytope counts as optimal.
_FACE_TOL = 1e-9


def _solution_face(instance: BilevelInstance) -> np.ndarray:
    ref = instance.reference
    if ref is not None and ref.lower_solution_set is not None:
        return np.atleast_2d(np.asarray(ref.lower_solution_set, dtype=float))
    # Derivable case: linear lower level over a small polytope.
    region = instance.region
    if _is_linear(instance.lower) and isinstance(region, Polytope) and region.dimension <= 4:
        verts = region.vertices()
        vals = np.array([instance.lower.value(v) for v in verts])
        return verts[vals <= vals.min() + _FACE_TOL]
    raise ValueError("instance carries no lower-level solution-set description")


@dataclass(frozen=True)
class _Hull(Region):
    """The convex hull of the vertex rows, as a region for standard_cg."""

    verts: np.ndarray

    @property
    def dimension(self) -> int:
        return self.verts.shape[1]

    def lmo(self, c: np.ndarray) -> np.ndarray:
        return self.verts[int(np.argmin(self.verts @ c))]  # lowest index on ties


def _minimize_over_hull(oracle: SmoothOracle, verts: np.ndarray, tol: float, max_iters: int):
    """Minimize a convex objective over the hull of the vertex rows.  Returns
    (point, certified): certified means the point is exact or its FW gap is
    at most ``tol``.  A tagged quadratic over at most 16 vertices is solved
    exactly by the active-set QP in barycentric weights; otherwise pairwise
    conditional gradient runs from the barycenter over the vertex rows."""
    quad = oracle.quadratic
    if quad is not None and verts.shape[0] <= 16:
        # Weights w = e_n + P u with P = [I; -1'], so the point is
        # v_n + B'u for B = P'V, and w >= 0 reads u >= 0, -1'u >= -1.
        last, B = verts[-1], verts[:-1] - verts[-1]
        m = B.shape[0]
        sub = QuadraticForm(B @ quad.hessian() @ B.T, B @ quad.gradient(last))
        halfspaces = [(e, 0.0) for e in np.eye(m)] + [(-np.ones(m), -1.0)]
        return last + B.T @ minimize_quadratic_over_halfspaces(sub, halfspaces), True
    cfg = SolverConfig(eps_f=tol, eps_g=tol, max_iters=max_iters)
    out = standard_cg(oracle, _Hull(verts), cfg, line_search=_line_search(oracle), start=verts.mean(axis=0))
    return out.final_point, out.stop_reason == "criterion_met"


def reference_bilevel(instance: BilevelInstance, tol: float = 1e-9, max_iters: int = 200_000) -> float:
    """Estimate of the optimal upper-level value over the lower-level
    solution set, which must be available as a vertex list (or derivable
    for a linear lower level over a small polytope)."""
    point, certified = _minimize_over_hull(instance.upper, _solution_face(instance), tol, max_iters)
    if not certified:
        raise RuntimeError("upper-level reference budget exhausted over the solution face")
    return instance.upper.value(point)


def true_fw_gap(instance: BilevelInstance, x: np.ndarray) -> float:
    """max over the lower-level solution face of <grad f(x), x - s>.  The
    inner objective is linear in s, so the max is attained at a vertex."""
    verts = _solution_face(instance)
    grad = instance.upper.gradient(np.asarray(x, dtype=float))
    return float(max(grad @ (x - s) for s in verts))


# ---------------------------------------------------------------------------
# Hoelder error-bound constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoelderParams:
    """Error-bound parameters: (alpha / order) * dist(x, solution set)^order
    <= g(x) - g*; M bounds the upper-level gradient norm over the face."""

    alpha: float
    order: float
    M: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.M < 0:
            raise ValueError("M must be nonnegative")

    def value_drop(self, eps_g: float) -> float:
        """The bound M (r eps_g / alpha)^(1/r) on f* - f over the points
        whose lower-level gap is at most eps_g."""
        return self.M * (self.order * eps_g / self.alpha) ** (1.0 / self.order)


def dist_to_hull(x: np.ndarray, verts: np.ndarray, iters: int = 500) -> float:
    """Euclidean distance from x to the convex hull of the vertex rows.  When
    conditional gradient stops uncertified after ``iters`` steps, the
    distance to its last iterate over-estimates the true one."""
    x = np.asarray(x, dtype=float)
    half_sq = SmoothOracle(
        x.size, lambda p: (0.5 * float((p - x) @ (p - x)), p - x),
        quadratic=QuadraticForm(np.eye(x.size), -x, 0.5 * float(x @ x)),
    )
    point, _ = _minimize_over_hull(half_sq, verts, 1e-16, iters)
    return float(np.linalg.norm(point - x))


def _closed_form_case(instance: BilevelInstance) -> Polytope:
    """The region of a linear lower level over a polytope with a quadratic
    upper level, the case with closed-form Hoelder constants."""
    if not isinstance(instance.region, Polytope):
        raise ValueError("closed-form Hoelder constants need a polytope region")
    if not _is_linear(instance.lower):
        raise ValueError("closed-form Hoelder constants need a linear lower level")
    if instance.upper.quadratic is None:
        raise ValueError("closed-form Hoelder constants need a quadratic upper level")
    return instance.region


def _g_star(instance: BilevelInstance) -> float:
    ref = instance.reference
    return ref.g_star if (ref is not None and ref.g_star is not None) else reference_lower(instance)


def hoelder_estimate(instance: BilevelInstance) -> HoelderParams:
    """The exact error-bound constants of a linear lower level g over a
    polytope P with a quadratic upper level f; the order is 1.  Raises
    ValueError for any other instance.

    The solution set S is the face of P where g = g*.  Every x in P outside
    S is x = (1 - lam) s + lam v with s in S, lam in (0, 1] and v in the
    hull V of the vertices of P outside S.  Then g(x) - g* = lam (g(v) - g*)
    and dist(x, S) <= lam dist(v, S), so the ratio (g - g*) / dist(., S) at
    x is at least its value at v.  On V, g - g* is linear and positive and
    dist(., S) is convex, so the ratio is quasi-concave and its minimum is
    at a vertex: alpha = min over vertices v of P outside S of
    (g(v) - g*) / dist(v, S), a sharp bound of Hoffman type (Hoffman 1952).
    M, the largest |grad f| over S, is attained at a vertex of S because
    |grad f| is convex when grad f is affine."""
    region = _closed_form_case(instance)
    face = _solution_face(instance)
    g_star = _g_star(instance)
    verts = region.vertices()
    excess = np.array([instance.lower.value(v) for v in verts]) - g_star
    outside = excess > _FACE_TOL
    if not np.any(outside):
        raise ValueError("no vertex of the region lies outside the solution face")
    alpha = min(e / dist_to_hull(v, face) for v, e in zip(verts[outside], excess[outside]))
    M = max(float(np.linalg.norm(instance.upper.gradient(v))) for v in face)
    return HoelderParams(alpha=float(alpha), order=1.0, M=M)


# ---------------------------------------------------------------------------
# Bound checks and metrics
# ---------------------------------------------------------------------------

def _least_upper_excess(instance: BilevelInstance, eps_g: float) -> float:
    """min f - f* over the eps_g-optimal points of the lower level, exact:
    one QP of f over P and the halfspace g <= g* + eps_g, for the instances
    :func:`hoelder_estimate` accepts."""
    region = _closed_form_case(instance)
    g = instance.lower.quadratic
    ref = instance.reference
    f_star = ref.f_star if (ref is not None and ref.f_star is not None) else reference_bilevel(instance)
    # Each halfspace <a, x> <= beta is written <-a, x> >= -beta.
    halfspaces = region.halfspaces() + [(g.q, _g_star(instance) + eps_g - g.c)]
    x = minimize_quadratic_over_halfspaces(instance.upper.quadratic, [(-a, -beta) for a, beta in halfspaces])
    return instance.upper.value(x) - f_star


def value_transfer_check(
    instance: BilevelInstance,
    params: HoelderParams,
    eps_g: float,
    slack: float = 1e-8,
) -> bool:
    """Check the guaranteed lower bound f(x) - f* >= -M (r eps_g / alpha)^(1/r)
    at the worst eps_g-optimal point of the lower level, found exactly by
    :func:`_least_upper_excess`."""
    return _least_upper_excess(instance, eps_g) >= -params.value_drop(eps_g) - slack


def fairness_metrics(beta: np.ndarray, dataset, subset: str = "test") -> dict:
    """p%-rule and accuracy of the linear logistic model on a dataset split
    carrying a binary sensitive attribute."""
    if dataset.sensitive is None:
        raise ValueError("dataset carries no sensitive attribute")
    idx = {"train": dataset.train_idx, "val": dataset.val_idx, "test": dataset.test_idx}[subset]
    X = dataset.features[idx]
    y = dataset.targets[idx]
    v = dataset.sensitive[idx]
    groups = np.unique(v)
    if groups.size != 2:
        raise ValueError("sensitive attribute must take exactly two values on the subset")
    preds = (X @ beta) > 0.0  # sigmoid(t) > 1/2 iff t > 0
    rate_a = float(np.mean(preds[v == groups[0]]))
    rate_b = float(np.mean(preds[v == groups[1]]))
    if rate_a == 0.0 and rate_b == 0.0:
        p_rule = 100.0
    elif rate_a == 0.0 or rate_b == 0.0:
        p_rule = 0.0
    else:
        p_rule = 100.0 * min(rate_a / rate_b, rate_b / rate_a)
    accuracy = float(np.mean(preds == (y > 0.5)))
    return {"p_rule": p_rule, "accuracy": accuracy}


def recovery_rate(learned: np.ndarray, truth: np.ndarray, threshold: float = 0.9) -> float:
    """Fraction of ground-truth dictionary columns matched (absolute inner
    product above threshold) by some learned column, after normalization."""

    def normalize(D):
        D = np.asarray(D, dtype=float)
        nrm = np.linalg.norm(D, axis=0)
        nrm[nrm == 0.0] = 1.0
        return D / nrm

    G = np.abs(normalize(truth).T @ normalize(learned))
    return float(np.mean(G.max(axis=1) > threshold))


# ---------------------------------------------------------------------------
# Experiment orchestration and persistence
# ---------------------------------------------------------------------------

TRACE_HEADER = "k,f_val,g_val,surrogate_f_gap,surrogate_g_gap,wall_nanos"


@dataclass(frozen=True)
class RunRecord:
    instance: str
    solver: str
    config: dict
    seed: int
    outcome: SolveOutcome

    @property
    def summary(self) -> dict:
        tail = self.outcome.trace[-1]
        summary = {
            "instance": self.instance,
            "solver": self.solver,
            "config": self.config,
            "stop_reason": self.outcome.stop_reason,
            "iterations": self.outcome.iterations,
            "final_f_gap": _none_if_nan(tail.surrogate_f_gap),
            "final_g_gap": _none_if_nan(tail.surrogate_g_gap),
            "wall_nanos_total": self.outcome.wall_nanos_total,
            "seed": self.seed,
        }
        if self.outcome.certified is not None:  # a cg-bio run's start
            summary["certified"] = self.outcome.certified
            summary["init_certificate"] = _none_if_nan(self.outcome.init_certificate)
        return summary


def _none_if_nan(x: float):
    return None if (x != x) else x


# The text name of each schedule and the type of its one argument; a
# missing argument takes the class default.
_SCHEDULES = {"harmonic": (Harmonic, int), "constant": (ConstantStep, float), "inv-sqrt": (InvSqrt, float)}


def parse_schedule(text: str) -> Schedule:
    """The schedule of a text form ``name:argument``, as ``str`` writes it."""
    kind, _, arg = text.partition(":")
    if kind not in _SCHEDULES:
        raise ValueError(f"unknown schedule {text!r}")
    cls, convert = _SCHEDULES[kind]
    return cls(convert(arg)) if arg else cls()


def config_to_dict(config: SolverConfig) -> dict:
    return {
        "eps_f": config.eps_f,
        "eps_g": config.eps_g,
        "max_iters": config.max_iters,
        "schedule": str(config.schedule),
    }


def config_from_dict(data: dict) -> SolverConfig:
    cfg = SolverConfig()
    fields = {}
    for key in ("eps_f", "eps_g", "max_iters"):
        if key in data:
            fields[key] = data[key]
    if "schedule" in data:
        fields["schedule"] = parse_schedule(data["schedule"])
    return replace(cfg, **fields)


def _strip_timing(outcome: SolveOutcome) -> SolveOutcome:
    return replace(outcome, trace=tuple(replace(r, wall_nanos=0) for r in outcome.trace))


def write_trace_csv(path, trace) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in trace:
            fh.write(
                f"{row.k},{row.f_val!r},{row.g_val!r},"
                f"{row.surrogate_f_gap!r},{row.surrogate_g_gap!r},{row.wall_nanos}\n"
            )


def read_trace_csv(path) -> tuple[TraceRow, ...]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        for line in fh:
            k, f_val, g_val, fg, gg, nanos = line.strip().split(",")
            rows.append(
                TraceRow(
                    k=int(k),
                    f_val=float(f_val),
                    g_val=float(g_val),
                    surrogate_f_gap=float(fg),
                    surrogate_g_gap=float(gg),
                    wall_nanos=int(nanos),
                )
            )
    return tuple(rows)


def build_instance(name: str, seed: int = 0, options: Optional[dict] = None):
    """Construct a named experiment instance.  Returns (instance, start)
    where ``start`` is a mandated initial point or None."""
    from . import problems

    opts = dict(options or {})
    # Only the sizes the cell gives: each constructor holds its own defaults.
    sizes = {key: kind(opts[key]) for key, kind in (("n", int), ("d", int), ("l1_radius", float))
             if key in opts}
    if name == "toy":
        return problems.toy_problem(), None
    if name == "regression":
        data = None
        if opts.get("csv"):
            data = problems.load_csv(opts["csv"], opts["target"], seed=seed)
        inst, _ = problems.regression_problem(data=data, seed=seed, **sizes)
        return inst, None
    if name == "fair":
        data = None
        if opts.get("csv"):
            data = problems.load_csv(
                opts["csv"], opts["target"], sensitive_column=opts.get("sensitive"), seed=seed
            )
        inst, _ = problems.fair_classification_problem(data=data, seed=seed, **sizes)
        return inst, None
    if name == "dict":
        spec_kwargs = {k: opts[k] for k in opts if k in problems.DictLearnSpec.__dataclass_fields__}
        bundle = problems.dictionary_problem(problems.DictLearnSpec(seed=seed, **spec_kwargs))
        return bundle.bilevel, bundle.initial_point
    raise ValueError(f"unknown instance {name!r}")


def run_solver(
    instance: BilevelInstance,
    solver: str,
    config: SolverConfig,
    start: Optional[np.ndarray] = None,
    options: Optional[dict] = None,
) -> SolveOutcome:
    """Dispatch a named solver on an instance.  ``options`` holds
    ``init_iters`` for cg-bio, ``line_search`` for cg, and the fields of
    the config dataclass for a baseline; an unknown option raises
    ValueError (TypeError for a baseline).

    cg-bio starts from ``start`` or else from :func:`initialize_lower`'s
    point, and :func:`cg_bio` records that start's certificate."""
    opts = dict(options or {})
    allowed = {"cg-bio": {"init_iters"}, "cg": {"line_search"}}.get(solver)
    if allowed is not None and not set(opts) <= allowed:
        raise ValueError(f"unknown {solver} options {sorted(set(opts) - allowed)}")
    if solver == "cg-bio":
        if start is None:
            init_iters = int(opts.get("init_iters", 10_000))
            start, _, _ = initialize_lower(instance, config.eps_g, max_iters=init_iters)
        return cg_bio(instance, start, config)
    if solver == "cg":
        return standard_cg(
            instance.upper, instance.region, config,
            line_search=opts.get("line_search"), start=start,
        )
    # Built per call so that the module-level solver names are the ones run.
    baselines = {
        "big-sam": (BigSamConfig, big_sam),
        "a-irg": (AIrgConfig, a_irg),
        "dbgd": (DbgdConfig, dbgd),
        "mng": (MngConfig, mng),
    }
    if solver not in baselines:
        raise ValueError(f"unknown solver {solver!r}")
    if solver == "mng" and "M" not in opts:
        if not instance.lower.lipschitz_grad:
            raise ValueError("MNG needs solver_options.M: the lower Lipschitz constant is 0 or unknown")
        opts["M"] = instance.lower.lipschitz_grad
    make_config, run = baselines[solver]
    return run(instance, make_config(**opts), max_iters=config.max_iters,
               keep_iterates=config.keep_iterates, start=start)


class SuiteError(ValueError):
    """A suite cell is malformed; raised before any cell runs."""


def _cell_settings(cell) -> tuple[SolverConfig, int]:
    """The solver config and seed of a suite cell; raises TypeError or
    ValueError when the cell is malformed."""
    if not isinstance(cell, dict):
        raise TypeError("a cell must be a JSON object")
    for key in ("instance", "solver"):
        if key not in cell:
            raise ValueError(f"missing {key!r}")
    seed = cell.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {seed!r}")
    # build_instance would truncate 10.5 to 10 and read true as 1.
    options = cell.get("options") or {}
    if not isinstance(options, dict):
        raise TypeError("options must be a JSON object")
    # run_solver would read a list of pairs as a dict and fail on a string
    # only when the cell runs.
    if not isinstance(cell.get("solver_options", {}), dict):
        raise TypeError("solver_options must be a JSON object")
    for key, kind in (("n", numbers.Integral), ("d", numbers.Integral), ("l1_radius", numbers.Real)):
        value = options.get(key)
        if key in options and (isinstance(value, bool) or not isinstance(value, kind)):
            noun = "an int" if kind is numbers.Integral else "a real number"
            raise TypeError(f"options.{key} must be {noun}, got {value!r}")
    # config_from_dict skips unknown keys, and parse_schedule needs a string.
    config = cell.get("config", {})
    if not isinstance(config, dict):
        raise TypeError("config must be a JSON object")
    unknown = set(config) - {"eps_f", "eps_g", "max_iters", "schedule"}
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    if not isinstance(config.get("schedule", ""), str):
        raise TypeError(f"config.schedule must be a string, got {config['schedule']!r}")
    return config_from_dict(config), seed


def _cell_stem(cell: dict, index: int) -> str:
    return f"{index:03d}_{cell['instance']}_{cell['solver']}_seed{cell.get('seed', 0)}"


def _run_cell(cell: dict, index: int, out_dir: str, record_timing: bool) -> dict:
    stem = _cell_stem(cell, index)
    trace_path = os.path.join(out_dir, stem + ".csv")
    summary_path = os.path.join(out_dir, stem + ".json")
    cell_hash = hashlib.sha256(json.dumps(cell, sort_keys=True).encode("utf-8")).hexdigest()
    if os.path.exists(trace_path) and os.path.exists(summary_path):
        with open(summary_path, encoding="utf-8") as fh:
            stored = json.load(fh)
        # A summary written for another cell config is stale: rerun the cell.
        if stored.get("cell_sha256") == cell_hash:
            return stored
    config, seed = _cell_settings(cell)
    try:
        instance, start = build_instance(cell["instance"], seed=seed, options=cell.get("options"))
        outcome = run_solver(instance, cell["solver"], config, start=start, options=cell.get("solver_options"))
        if not record_timing:
            outcome = _strip_timing(outcome)
        record = RunRecord(
            instance=cell["instance"], solver=cell["solver"],
            config=config_to_dict(config), seed=seed, outcome=outcome,
        )
        summary = record.summary
        write_trace_csv(trace_path, outcome.trace)
    except Exception as exc:  # record the failure, keep the suite going
        if os.path.exists(trace_path):  # an earlier config's trace is stale
            os.remove(trace_path)
        summary = {
            "instance": cell.get("instance"), "solver": cell.get("solver"),
            "config": config_to_dict(config), "stop_reason": f"error: {exc}",
            "iterations": 0, "final_f_gap": None, "final_g_gap": None,
            "wall_nanos_total": 0, "seed": seed,
        }
    summary["cell_sha256"] = cell_hash
    tmp = summary_path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, summary_path)
    return summary


def run_experiment(
    suite: list[dict],
    out_dir: str,
    jobs: int = 1,
    record_timing: bool = False,
) -> list[dict]:
    """Execute a suite of cells {instance, solver, config, seed, ...},
    persisting one trace CSV and one summary JSON per cell.  Completed
    cells (both files present, the summary's ``cell_sha256`` matching the
    cell) are skipped, making reruns resumable, and
    fixed seeds reproduce output files byte-for-byte.  Every cell is
    validated before the first one runs (SuiteError names a malformed
    one); ``jobs`` > 1 runs the independent cells in worker processes."""
    for index, cell in enumerate(suite):
        try:
            _cell_settings(cell)
        except (TypeError, ValueError) as exc:
            raise SuiteError(f"cell {index}: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    if jobs <= 1 or len(suite) <= 1:
        return [_run_cell(c, i, out_dir, record_timing) for i, c in enumerate(suite)]
    # Spawned workers: forking a process that may hold BLAS threads is unsafe.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(jobs, len(suite)), mp_context=spawn) as pool:
        futs = [pool.submit(_run_cell, c, i, out_dir, record_timing) for i, c in enumerate(suite)]
        return [f.result() for f in futs]
