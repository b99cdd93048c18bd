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
    a_irg,
    big_sam,
    cg_bio,
    dbgd,
    initialize_lower,
    mng,
    standard_cg,
)

FACE_EXCLUSION_DIST = 1e-6


# ---------------------------------------------------------------------------
# Reference solutions
# ---------------------------------------------------------------------------

def _is_linear(oracle: SmoothOracle) -> bool:
    q = oracle.quadratic
    return q is not None and not np.any(q.Q)


def _line_search(oracle: SmoothOracle) -> str:
    """Exact line search for a tagged quadratic, backtracking otherwise."""
    return "exact" if oracle.quadratic is not None else "backtracking"


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


def _solution_face(instance: BilevelInstance) -> np.ndarray:
    ref = instance.reference
    if ref is not None and ref.lower_solution_set is not None:
        return np.atleast_2d(np.asarray(ref.lower_solution_set, dtype=float))
    # Derivable case: linear lower level over a small polytope.
    region = instance.region
    if _is_linear(instance.lower) and isinstance(region, Polytope) and region.dimension <= 4:
        verts = region.vertices()
        vals = np.array([instance.lower.value(v) for v in verts])
        return verts[vals <= vals.min() + 1e-9]
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
        sub = QuadraticForm(B @ quad.Q @ B.T, B @ (quad.Q @ last + quad.q))
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
# Hoelder error-bound estimation
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


def _face_points(verts: np.ndarray, count: int, seed: int = 0) -> np.ndarray:
    if verts.shape[0] == 1:
        return verts
    if verts.shape[0] == 2:
        t = np.linspace(0.0, 1.0, count)[:, None]
        return (1.0 - t) * verts[0] + t * verts[1]
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(verts.shape[0]), size=count)
    return np.vstack([verts, w @ verts])


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


def hoelder_estimate(
    instance: BilevelInstance,
    order: float = 1.0,
    grid_per_axis: int = 60,
) -> HoelderParams:
    """Grid estimates of the error-bound modulus alpha and of M, the largest
    upper-level gradient norm over the lower-level solution face."""
    if instance.dimension > 3:
        raise ValueError("grid estimation is limited to dimension <= 3")
    verts = _solution_face(instance)
    ref = instance.reference
    g_star = ref.g_star if (ref is not None and ref.g_star is not None) else reference_lower(instance)

    M = max(
        float(np.linalg.norm(instance.upper.gradient(p)))
        for p in _face_points(verts, 2000)
    )

    lo, hi = instance.region.grid_box()
    axes = [np.linspace(lo[i], hi[i], grid_per_axis) for i in range(instance.dimension)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, instance.dimension)
    alpha = np.inf
    found = False
    for x in mesh:
        if not instance.region.contains(x, tol=1e-12):
            continue
        dist = dist_to_hull(x, verts)
        if dist <= FACE_EXCLUSION_DIST:
            continue
        found = True
        ratio = order * (instance.lower.value(x) - g_star) / dist**order
        alpha = min(alpha, ratio)
    if not found:
        raise ValueError("no feasible grid points outside the solution face")
    if alpha <= 0:
        raise ValueError("estimated error-bound modulus is not positive")
    return HoelderParams(alpha=float(alpha), order=order, M=M)


# ---------------------------------------------------------------------------
# Bound checks and metrics
# ---------------------------------------------------------------------------

def value_transfer_check(
    instance: BilevelInstance,
    params: HoelderParams,
    eps_g: float,
    samples: int = 1000,
    seed: int = 0,
    slack: float = 1e-8,
) -> bool:
    """Verify the guaranteed lower bound f(x) - f* >= -M (r eps_g / alpha)^(1/r)
    on a convex upper level over sampled points that are eps_g-optimal for
    the lower level."""
    ref = instance.reference
    g_star = ref.g_star if (ref is not None and ref.g_star is not None) else reference_lower(instance)
    f_star = ref.f_star if (ref is not None and ref.f_star is not None) else reference_bilevel(instance)

    verts = _solution_face(instance)
    rng = np.random.default_rng(seed)
    face = _face_points(verts, samples, seed=seed)
    jittered = face + 0.01 * rng.standard_normal(face.shape)
    pool = np.vstack([instance.region.sample(samples, rng), face, jittered])
    kept = [x for x in pool if instance.region.contains(x) and instance.lower.value(x) - g_star <= eps_g]
    if not kept:
        raise RuntimeError("no sampled points were eps_g-optimal for the lower level")

    r, alpha, M = params.order, params.alpha, params.M
    drift = (r * eps_g / alpha) ** (1.0 / r)
    return all(instance.upper.value(x) - f_star >= -M * drift - slack for x in kept[:samples])


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
        return {
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


def _none_if_nan(x: float):
    return None if (x != x) else x


def schedule_to_string(schedule: Schedule) -> str:
    if isinstance(schedule, Harmonic):
        return f"harmonic:{schedule.shift}"
    if isinstance(schedule, ConstantStep):
        return f"constant:{schedule.gamma!r}"
    if isinstance(schedule, InvSqrt):
        return f"inv-sqrt:{schedule.scale!r}"
    raise TypeError(f"unknown schedule {schedule!r}")


def parse_schedule(text: str) -> Schedule:
    kind, _, arg = text.partition(":")
    if kind == "harmonic":
        return Harmonic(int(arg) if arg else 2)
    if kind == "constant":
        return ConstantStep(float(arg))
    if kind == "inv-sqrt":
        return InvSqrt(float(arg) if arg else 1.0)
    raise ValueError(f"unknown schedule {text!r}")


def config_to_dict(config: SolverConfig) -> dict:
    return {
        "eps_f": config.eps_f,
        "eps_g": config.eps_g,
        "max_iters": config.max_iters,
        "schedule": schedule_to_string(config.schedule),
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
    rows = tuple(replace(r, wall_nanos=0) for r in outcome.trace)
    return SolveOutcome(final_point=outcome.final_point, stop_reason=outcome.stop_reason, trace=rows)


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
    if name == "toy":
        return problems.toy_problem(), None
    if name == "regression":
        data = None
        if opts.get("csv"):
            data = problems.load_csv(opts["csv"], opts["target"], seed=seed)
        inst, _ = problems.regression_problem(
            data=data,
            n=int(opts.get("n", 60)), d=int(opts.get("d", 100)), seed=seed,
            l1_radius=float(opts.get("l1_radius", 1.0)),
        )
        return inst, None
    if name == "fair":
        data = None
        if opts.get("csv"):
            data = problems.load_csv(
                opts["csv"], opts["target"], sensitive_column=opts.get("sensitive"), seed=seed
            )
        inst, _ = problems.fair_classification_problem(
            data=data,
            n=int(opts.get("n", 200)), d=int(opts.get("d", 5)), seed=seed,
            l1_radius=float(opts.get("l1_radius", 100.0)),
        )
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
    ValueError (TypeError for a baseline)."""
    opts = dict(options or {})
    allowed = {"cg-bio": {"init_iters"}, "cg": {"line_search"}}.get(solver)
    if allowed is not None and not set(opts) <= allowed:
        raise ValueError(f"unknown {solver} options {sorted(set(opts) - allowed)}")
    if solver == "cg-bio":
        x0 = start
        if x0 is None:
            x0, _, _ = initialize_lower(instance, config.eps_g, max_iters=int(opts.get("init_iters", 10_000)))
        return cg_bio(instance, x0, config)
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
