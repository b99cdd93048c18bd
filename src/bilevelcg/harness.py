"""Reference-solution oracles, evaluation metrics, experiment orchestration,
and run persistence (trace CSV + summary JSON)."""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import multiprocessing
import numbers
import os
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import problems
from .core import (
    BilevelInstance,
    ConstantStep,
    Halfspace,
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
    _start_run,
    a_irg,
    big_sam,
    cg_bio,
    dbgd,
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


# Lower-level gap under which a vertex of a polytope counts as optimal, and
# the budget of dist_to_hull's pairwise conditional-gradient steps.
_FACE_TOL = 1e-9
_HULL_ITERS = 500


def _solution_face(instance: BilevelInstance) -> np.ndarray:
    face = instance.reference.lower_solution_set
    if face is not None:
        return np.atleast_2d(np.asarray(face, dtype=float))
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
    """Minimize a convex objective over the hull of the vertex rows by
    pairwise conditional gradient from the barycenter (Lacoste-Julien &
    Jaggi 2015), for every objective and every vertex count.  Returns
    (point, certified): certified means its FW gap is at most ``tol``."""
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


def dist_to_hull(x: np.ndarray, verts: np.ndarray) -> float:
    """Euclidean distance from x to the convex hull of the vertex rows.  When
    conditional gradient stops uncertified after ``_HULL_ITERS`` steps, the
    distance to its last iterate over-estimates the true one."""
    x = np.asarray(x, dtype=float)
    half_sq = SmoothOracle(x.size, quadratic=QuadraticForm(np.eye(x.size), -x, 0.5 * float(x @ x)))
    point, _ = _minimize_over_hull(half_sq, verts, 1e-16, _HULL_ITERS)
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
    g_star = instance.reference.g_star
    return g_star if g_star is not None else reference_lower(instance)


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
    f_star = instance.reference.f_star
    if f_star is None:
        f_star = reference_bilevel(instance)
    near_optimal = Halfspace(g.q, _g_star(instance) + eps_g - g.c)
    x = minimize_quadratic_over_halfspaces(instance.upper.quadratic, region.halfspaces() + [near_optimal])
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
    """One run of a suite cell.  ``g_star`` is the instance's recorded
    lower-level optimal value, if any; the summary reports the last row's
    g - g_star against it."""

    instance: str
    solver: str
    config: dict
    seed: int
    outcome: SolveOutcome
    g_star: Optional[float] = None

    @property
    def summary(self) -> dict:
        tail = self.outcome.trace[-1]
        summary = {
            "instance": self.instance,
            "solver": self.solver,
            "config": self.config,
            "stop_reason": self.outcome.stop_reason,
            "iterations": self.outcome.iterations,
            "final_f": _none_if_nan(tail.f_val),
            "final_g": _none_if_nan(tail.g_val),
            "final_g_excess": None if self.g_star is None else _none_if_nan(tail.g_val - self.g_star),
            "final_f_gap": _none_if_nan(tail.surrogate_f_gap),
            "final_g_gap": _none_if_nan(tail.surrogate_g_gap),
            "wall_nanos_total": self.outcome.wall_nanos_total,
            "seed": self.seed,
        }
        if self.outcome.certified is not None:  # a cg-bio run's start
            summary["certified"] = self.outcome.certified
            summary["init_certificate"] = _none_if_nan(self.outcome.init_certificate)
            summary["init_iterations"] = self.outcome.init_iterations
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
    values = {key: data[key] for key in ("eps_f", "eps_g", "max_iters") if key in data}
    if "schedule" in data:
        values["schedule"] = parse_schedule(data["schedule"])
    return SolverConfig(**values)


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


# The options each instance family accepts, with their kinds.  A dict cell
# takes the DictLearnSpec fields but the seed, which is the cell's own.
_SIZES = {"n": int, "d": int, "l1_radius": float}
_CSV = {"csv": str, "target": str}
INSTANCE_OPTIONS = {
    "toy": {},
    "regression": {**_SIZES, **_CSV},
    "fair": {**_SIZES, **_CSV, "sensitive": str},
    "dict": {f.name: type(f.default) for f in fields(problems.DictLearnSpec) if f.name != "seed"},
}
# The values each kind accepts (JSON's true is not a number), and its name.
_KINDS = {int: (numbers.Integral, "an int"), float: (numbers.Real, "a real number"), str: (str, "a string")}


def _checked(kinds: dict, options: dict, owner: str, prefix: str) -> dict:
    """``options`` checked against their declared ``kinds`` and converted to
    them; raises TypeError or ValueError, naming a key as ``prefix.key``."""
    unknown = set(options) - set(kinds)
    if unknown:
        raise ValueError(f"unknown options {sorted(unknown)} for {owner}")
    for key, value in options.items():
        accepted, noun = _KINDS[kinds[key]]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise TypeError(f"{prefix}.{key} must be {noun}, got {value!r}")
    return {key: kinds[key](value) for key, value in options.items()}


def _instance_options(name: str, options: dict) -> dict:
    """The options of a named instance, checked against ``INSTANCE_OPTIONS``
    and converted to their kinds; raises TypeError or ValueError."""
    if name not in INSTANCE_OPTIONS:
        raise ValueError(f"unknown instance {name!r}")
    converted = _checked(INSTANCE_OPTIONS[name], options, f"instance {name!r}", "options")
    for key, value in converted.items():
        if key in _SIZES and not 0 < value < np.inf:
            raise ValueError(f"options.{key} must be positive and finite, got {options[key]!r}")
    if "csv" in options and "target" not in options:
        raise ValueError("options.csv needs options.target, the target column")
    if name == "dict":
        problems.DictLearnSpec(**converted)  # its own checks of the sizes
    return converted


def build_instance(name: str, seed: int = 0, options: Optional[dict] = None):
    """Construct a named experiment instance.  Returns (instance, start)
    where ``start`` is a mandated initial point or None."""
    opts = _instance_options(name, dict(options or {}))
    # Only the sizes the cell gives: each constructor holds its own defaults.
    sizes = {key: opts[key] for key in _SIZES if key in opts}
    if name == "toy":
        return problems.toy_problem(), None
    if name in ("regression", "fair"):
        data = None
        if opts.get("csv"):
            data = problems.load_csv(
                opts["csv"], opts.get("target"), sensitive_column=opts.get("sensitive"), seed=seed
            )
        make = problems.regression_problem if name == "regression" else problems.fair_classification_problem
        inst, _ = make(data=data, seed=seed, **sizes)
        return inst, None
    bundle = problems.dictionary_problem(problems.DictLearnSpec(seed=seed, **opts))
    return bundle.bilevel, bundle.initial_point


# The options each solver accepts, with their kinds: cg-bio's start budget,
# cg's line search, and a baseline's config fields, all real numbers.
_BASELINE_CONFIGS = {"big-sam": BigSamConfig, "a-irg": AIrgConfig, "dbgd": DbgdConfig, "mng": MngConfig}
SOLVER_OPTIONS = {
    "cg-bio": {"init_iters": int},
    "cg": {"line_search": str},
    **{name: {f.name: float for f in fields(config)} for name, config in _BASELINE_CONFIGS.items()},
}
# The solver names run_solver dispatches; a suite cell must name one.
SOLVERS = tuple(SOLVER_OPTIONS)
_LINE_SEARCHES = ("exact", "backtracking")


def _solver_options(solver: str, options: dict) -> dict:
    """The options of a named solver, checked against ``SOLVER_OPTIONS`` and
    converted to their kinds; raises TypeError or ValueError."""
    if solver not in SOLVER_OPTIONS:
        raise ValueError(f"unknown solver {solver!r}")
    converted = _checked(SOLVER_OPTIONS[solver], options, f"solver {solver!r}", "solver_options")
    if converted.get("init_iters", 1) < 1:
        raise ValueError(f"solver_options.init_iters must be positive, got {options['init_iters']!r}")
    if converted.get("line_search", "exact") not in _LINE_SEARCHES:
        got = options["line_search"]
        raise ValueError(f"solver_options.line_search must be one of {_LINE_SEARCHES}, got {got!r}")
    if solver in _BASELINE_CONFIGS and (solver != "mng" or "M" in converted):
        _BASELINE_CONFIGS[solver](**converted)  # its own checks of the values
    return converted


def run_solver(
    instance: BilevelInstance,
    solver: str,
    config: SolverConfig,
    start: Optional[np.ndarray] = None,
    options: Optional[dict] = None,
) -> SolveOutcome:
    """Dispatch a named solver on an instance.  ``options`` are the solver's
    ``SOLVER_OPTIONS``: ``init_iters`` for cg-bio, ``line_search`` for cg,
    and the fields of the config dataclass for a baseline; a malformed one
    raises TypeError or ValueError.

    cg-bio starts from ``start`` or else from :func:`initialize_lower`'s
    point, whose CG steps and certificate the outcome records."""
    opts = _solver_options(solver, dict(options or {}))
    if solver == "cg-bio":
        if start is not None:
            return cg_bio(instance, start, config)
        init = _start_run(instance, config.eps_g, max_iters=opts.get("init_iters", 10_000))
        return replace(cg_bio(instance, init.final_point, config), init_iterations=init.iterations)
    if solver == "cg":
        return standard_cg(
            instance.upper, instance.region, config,
            line_search=opts.get("line_search"), start=start,
        )
    if solver == "mng" and "M" not in opts:
        if not instance.lower.lipschitz_grad:
            raise ValueError("MNG needs solver_options.M: the lower Lipschitz constant is 0 or unknown")
        opts["M"] = instance.lower.lipschitz_grad
    # Looked up per call, so that the module-level solver names are the ones run.
    run = {"big-sam": big_sam, "a-irg": a_irg, "dbgd": dbgd, "mng": mng}[solver]
    return run(instance, _BASELINE_CONFIGS[solver](**opts), max_iters=config.max_iters,
               keep_iterates=config.keep_iterates, start=start)


class SuiteError(ValueError):
    """A suite cell or the worker count is malformed; raised before any
    cell runs."""


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
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    options = cell.get("options") or {}
    if not isinstance(options, dict):
        raise TypeError("options must be a JSON object")
    _instance_options(cell["instance"], options)
    solver_options = cell.get("solver_options", {})
    if not isinstance(solver_options, dict):
        raise TypeError("solver_options must be a JSON object")
    _solver_options(cell["solver"], solver_options)
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


def _cell_paths(cell: dict, index: int, out_dir: str) -> tuple[str, str]:
    """The trace CSV and summary JSON paths of a cell."""
    stem = os.path.join(out_dir, f"{index:03d}_{cell['instance']}_{cell['solver']}_seed{cell.get('seed', 0)}")
    return stem + ".csv", stem + ".json"


def _cell_hash(cell: dict) -> str:
    return hashlib.sha256(json.dumps(cell, sort_keys=True).encode("utf-8")).hexdigest()


def _read_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _stored_summary(cell: dict, index: int, out_dir: str) -> Optional[dict]:
    """The summary of a completed cell, else None.  A cell is completed when
    its trace and summary exist and the summary's ``cell_sha256`` matches
    the cell: one written for another cell config is stale."""
    trace_path, summary_path = _cell_paths(cell, index, out_dir)
    if not (os.path.exists(trace_path) and os.path.exists(summary_path)):
        return None
    stored = _read_summary(summary_path)
    return stored if stored.get("cell_sha256") == _cell_hash(cell) else None


def _run_cell(cell: dict, index: int, out_dir: str, record_timing: bool) -> None:
    """Run a cell and write its trace and summary; a failed run writes an
    error summary and no trace."""
    trace_path, summary_path = _cell_paths(cell, index, out_dir)
    config, seed = _cell_settings(cell)
    g_star = None
    try:
        instance, start = build_instance(cell["instance"], seed=seed, options=cell.get("options"))
        g_star = instance.reference.g_star
        outcome = run_solver(instance, cell["solver"], config, start=start, options=cell.get("solver_options"))
        if not record_timing:
            outcome = _strip_timing(outcome)
        write_trace_csv(trace_path, outcome.trace)
    except Exception as exc:  # record the failure, keep the suite going
        if os.path.exists(trace_path):  # an earlier config's trace is stale
            os.remove(trace_path)
        # No iterations, and every final value None.
        outcome = SolveOutcome(np.zeros(0), f"error: {exc}", (TraceRow(0, np.nan, np.nan, np.nan, np.nan, 0),))
    summary = RunRecord(cell["instance"], cell["solver"], config_to_dict(config), seed, outcome, g_star).summary
    summary["cell_sha256"] = _cell_hash(cell)
    tmp = summary_path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, summary_path)


def _claim(pending: list[int], claims, slot: int) -> Optional[int]:
    """Take the next pending cell index from the shared counter, or None when
    every one is taken.  Claim slot ``slot`` holds the index until the
    claimant's next call and -1 once nothing is left."""
    counter, lock, slots = claims
    with lock:
        taken = counter.value
        if taken == len(pending):
            slots[slot] = -1
            return None
        counter.value = taken + 1
        slots[slot] = pending[taken]
        return pending[taken]


def _claim_cells(suite: list[dict], pending: list[int], out_dir: str, record_timing: bool,
                 claims, slot: int) -> None:
    """The loop of the caller and of every worker: claim a pending cell, run
    it, and repeat until every one is taken."""
    while (index := _claim(pending, claims, slot)) is not None:
        _run_cell(suite[index], index, out_dir, record_timing)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(
    suite: list[dict],
    out_dir: str,
    jobs: Optional[int] = None,
    record_timing: bool = False,
) -> list[dict]:
    """Execute a suite of cells {instance, solver, config, seed, ...},
    persisting one trace CSV and one summary JSON per cell, and return each
    cell's summary as its file holds it.  Completed cells (both files
    present, the summary's ``cell_sha256`` matching the cell) are read
    back, not run, making reruns resumable, and fixed seeds reproduce
    output files byte-for-byte.  Every cell and ``jobs`` are validated
    before the first cell runs (SuiteError names a malformed cell).

    ``jobs`` counts the processes that run cells, the calling one included;
    None means the usable CPUs.  The caller starts on the pending cells at
    once and spawns ``min(jobs, pending) - 1`` workers that claim the rest,
    so a suite with one pending cell starts no process.  A spawned worker
    imports the caller's main module: a script that calls this needs an
    ``if __name__ == "__main__":`` guard, or ``jobs=1``.  Several processes
    share the cores, so set ``OPENBLAS_NUM_THREADS=1``, and recorded wall
    times (``record_timing``) include the contention."""
    if jobs is None:
        jobs = _usable_cpus()
    elif isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise SuiteError(f"jobs must be an int >= 1 or None, got {jobs!r}")
    for index, cell in enumerate(suite):
        try:
            _cell_settings(cell)
        except (TypeError, ValueError) as exc:
            raise SuiteError(f"cell {index}: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    summaries = [_stored_summary(cell, index, out_dir) for index, cell in enumerate(suite)]
    pending = [index for index, summary in enumerate(summaries) if summary is None]
    workers = min(jobs, len(pending)) - 1
    if workers > 0:
        # Spawned workers: forking a process that may hold BLAS threads is unsafe.
        spawn = multiprocessing.get_context("spawn")
        claims = (spawn.RawValue("i", 0), spawn.Lock(), spawn.RawArray("i", [-1] * (workers + 1)))
    else:
        claims = (ctypes.c_int(0), contextlib.nullcontext(), [-1])
    _, lock, slots = claims
    procs = []
    try:
        for slot in range(1, workers + 1):
            proc = spawn.Process(target=_claim_cells,
                                 args=(suite, pending, out_dir, record_timing, claims, slot))
            proc.start()
            procs.append(proc)
        _claim_cells(suite, pending, out_dir, record_timing, claims, 0)
        # Every cell is taken: a worker that holds no claim has nothing to do.
        # Under the lock, so that none is stopped while it holds the lock.
        with lock:
            for slot, proc in enumerate(procs, 1):
                if slots[slot] < 0:
                    proc.terminate()
        for proc in procs:
            proc.join()
    except BaseException:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        raise
    # A worker that died holding a claim left its cell unfinished: run it
    # here, where an error of the cell's own comes up as it does serially.
    for index in sorted(index for index in slots[1:] if index >= 0):
        _run_cell(suite[index], index, out_dir, record_timing)
    for index in pending:
        summaries[index] = _read_summary(_cell_paths(suite[index], index, out_dir)[1])
    return summaries
