"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed (``setup``), runs the
solver calls a user would make on them (``solve``), and checks the outputs
(``check``, never timed).  ``solve`` calls the package through module
attributes (``solvers.cg_bio``, ``harness.run_experiment``, ...) so that the
traced run, which rebinds those names, sees the same calls.

Seeds: seed 0 gives the instances of the ROADMAP Baseline block and of
acceptance criterion 3.  On ``dictionary`` and ``baselines-suite`` the seed is
the instance seed; their work is fixed by iteration budgets.  On
``regression-cut`` and ``reference`` the seed permutes the order of the
samples of the seed-0 instance, so the problem and its work stay fixed while
the input arrays change: across regression instances the certified start
alone took 0.47 s to 0.82 s, and fair instances drawn from other seeds often
do not certify within the reference solver's iteration cap.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import tempfile

import numpy as np

from bilevelcg import core, harness, problems, solvers

OK_REASONS = ("criterion_met", "budget_exhausted")

# g* of the reference instance (every seed: the seed only reorders samples),
# from 400k accelerated projected-gradient steps; FW gap there below 1e-16.
REFERENCE_G_STAR = 0.5834508808330577


@dataclasses.dataclass
class Verdict:
    """The checks on one solve: failed (operation, reason) pairs and the
    values the report carries (final gaps, persisted bytes)."""

    failures: list
    values: dict

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.failures})


def _finite_trace(rows) -> bool:
    return all(math.isfinite(v) for r in rows for v in (r.f_val, r.g_val))


def _check_outcome(op, outcome, region, failures) -> None:
    if outcome.stop_reason not in OK_REASONS:
        failures.append((op, f"stop reason {outcome.stop_reason!r}"))
    if not region.contains(outcome.final_point):
        failures.append((op, "final point outside the region"))
    if not _finite_trace(outcome.trace):
        failures.append((op, "non-finite objective value in the trace"))


def _gaps(outcome) -> dict:
    tail = outcome.trace[-1]
    return {"final_f_gap": tail.surrogate_f_gap, "final_g_gap": tail.surrogate_g_gap}


class RegressionCut:
    """l1-constrained over-parameterized regression: certified start, then
    cg_bio, whose l1 cut-restricted LMO solves a dense simplex LP."""

    name = "regression-cut"
    setup_reps = 5
    ops = 2  # initialize_lower, cg_bio
    setup_in_wall = True

    def __init__(self, seed: int, n=100, d=5000, eps=1e-5, cg_iters=100):
        self.seed, self.n, self.d, self.eps, self.cg_iters = seed, n, d, eps, cg_iters

    def setup(self):
        data, _ = problems.synthetic_regression_data(n=self.n, d=self.d, seed=0)
        if self.seed:
            rng = np.random.default_rng(self.seed)
            data = dataclasses.replace(
                data, train_idx=rng.permutation(data.train_idx), val_idx=rng.permutation(data.val_idx)
            )
        instance, _ = problems.regression_problem(data=data)
        # Noise-free training targets from a planted point in the ball: g* = 0,
        # as regression_problem records for the synthetic data it draws itself.
        return dataclasses.replace(instance, reference=core.ReferenceData(g_star=0.0))

    def solve(self, instance):
        # Exact line search: the default schedule leaves this instance
        # uncertified within the iteration cap (ROADMAP item 4).
        x0, certificate, certified = solvers.initialize_lower(instance, self.eps, line_search="exact")
        config = core.SolverConfig(eps_f=self.eps, eps_g=self.eps, max_iters=self.cg_iters)
        outcome = solvers.cg_bio(instance, x0, config)
        return {"x0": x0, "certificate": certificate, "certified": certified, "outcome": outcome}

    def check(self, instance, out):
        failures = []
        if not out["certified"]:
            failures.append(("initialize_lower", f"start not certified (gap {out['certificate']:.3e})"))
        if not instance.region.contains(out["x0"]):
            failures.append(("initialize_lower", "start outside the region"))
        outcome = out["outcome"]
        _check_outcome("cg_bio", outcome, instance.region, failures)
        if not math.isfinite(instance.lower.value(outcome.final_point) - instance.reference.g_star):
            failures.append(("cg_bio", "g(x_K) - g* is not finite"))
        return Verdict(failures, _gaps(outcome))


class Dictionary:
    """Dictionary learning: pretraining over a 251-block product region is
    the set-up, then cg_bio from the bundle's start over 201 blocks."""

    name = "dictionary"
    setup_reps = 1  # pretraining takes about 15 s
    ops = 1
    setup_in_wall = True

    def __init__(self, seed: int, pretrain_iters=3000, polish_iters=2000, eps_f=1e-5, eps_g=1e-3,
                 cg_iters=100):
        self.seed = seed
        self.pretrain_iters, self.polish_iters = pretrain_iters, polish_iters
        self.eps_f, self.eps_g, self.cg_iters = eps_f, eps_g, cg_iters

    def setup(self):
        return problems.dictionary_problem(
            problems.DictLearnSpec(seed=self.seed),
            pretrain_iters=self.pretrain_iters,
            pretrain_polish_iters=self.polish_iters,
        )

    def solve(self, bundle):
        config = core.SolverConfig(eps_f=self.eps_f, eps_g=self.eps_g, max_iters=self.cg_iters)
        return {"outcome": solvers.cg_bio(bundle.bilevel, bundle.initial_point, config)}

    def check(self, bundle, out):
        failures = []
        instance, outcome = bundle.bilevel, out["outcome"]
        if not instance.region.contains(bundle.initial_point):
            failures.append(("cg_bio", "start outside the region"))
        _check_outcome("cg_bio", outcome, instance.region, failures)
        if not math.isfinite(instance.lower.value(outcome.final_point)):
            failures.append(("cg_bio", "g(x_K) is not finite"))
        return Verdict(failures, _gaps(outcome))


class Reference:
    """Certified lower-level optimum of criterion 3's fair instance by the
    backtracking FW reference solver: per-iteration overhead only.

    Criterion 3 asks for tol=1e-6: about 178k iterations, 18-43 s for one
    solve on a shared 2-vCPU Xeon VM.  tol=1e-5 (about 18k iterations) fits
    several solves in a run, so their median is steadier, with the same
    per-iteration work."""

    name = "reference"
    setup_reps = 25  # under a millisecond each
    ops = 1
    setup_in_wall = True

    def __init__(self, seed: int, tol=1e-5, max_iters=500_000):
        self.seed, self.tol, self.max_iters = seed, tol, max_iters

    def data(self):
        data = problems.synthetic_fair_data(n=40, d=3, seed=7)
        if self.seed:
            order = np.random.default_rng(self.seed).permutation(data.train_idx)
            data = dataclasses.replace(data, train_idx=order)
        return data

    def setup(self):
        instance, _ = problems.fair_classification_problem(data=self.data(), l1_radius=2.0)
        return instance

    def solve(self, instance):
        return {"value": harness.reference_lower(instance, tol=self.tol, max_iters=self.max_iters)}

    def check(self, instance, out):
        failures = []
        excess = out["value"] - REFERENCE_G_STAR
        # The FW certificate bounds g(x) - g* by tol; g(x) >= g* up to the
        # rounding of the recorded optimum.
        if not -1e-12 <= excess <= self.tol + 1e-12:
            failures.append(("reference_lower", f"g - g* = {excess:.3e} outside [0, tol]"))
        return Verdict(failures, {})


class BaselinesSuite:
    """One resumable-suite call: BiG-SAM, a-IRG and DBGD on the
    regression-cut instance and MNG at d=150, persisted to a fresh
    directory, so projections and the runner's persistence do the work."""

    name = "baselines-suite"
    setup_reps = 3
    setup_in_wall = False  # the suite builds its instances again inside the timed call

    def __init__(self, seed: int, workdir: str, baseline_iters=3000, mng_iters=60, n=100, d=5000,
                 mng_d=150):
        self.seed, self.workdir = seed, workdir
        big = {"n": n, "d": d}
        config = {"eps_f": 1e-5, "eps_g": 1e-5}
        self.cells = [
            {"instance": "regression", "solver": solver, "seed": seed, "options": big,
             "config": dict(config, max_iters=baseline_iters), "solver_options": opts}
            for solver, opts in (("big-sam", {}), ("a-irg", {}), ("dbgd", {"step": 1e-4}))
        ]
        self.cells.append(
            {"instance": "regression", "solver": "mng", "seed": seed, "options": {"n": n, "d": mng_d},
             "config": dict(config, max_iters=mng_iters)}
        )
        self.ops = len(self.cells)

    def setup(self):
        # The suite builds its own instances per cell; set-up builds each
        # distinct one once, which also validates the cell options.
        built = {}
        for cell in self.cells:
            key = repr(sorted(cell["options"].items()))
            if key not in built:
                built[key] = harness.build_instance(cell["instance"], seed=cell["seed"], options=cell["options"])
        return self.cells

    def solve(self, cells):
        # A fresh directory every time: run_experiment skips cells whose
        # files exist, so a reused one would time resume hits, not solves.
        out_dir = tempfile.mkdtemp(prefix="suite-", dir=self.workdir)
        summaries = harness.run_experiment(cells, out_dir)
        return {"out_dir": out_dir, "summaries": summaries}

    def check(self, cells, out):
        failures = []
        out_dir, summaries = out["out_dir"], out["summaries"]
        try:
            if len(summaries) != len(cells):
                failures.append(("suite", f"{len(summaries)} summaries for {len(cells)} cells"))
            for index, (cell, summary) in enumerate(zip(cells, summaries)):
                op = f"{cell['solver']} cell"
                reason = str(summary.get("stop_reason"))
                if reason not in OK_REASONS:
                    failures.append((op, f"stop reason {reason!r}"))
                elif reason == "budget_exhausted" and summary.get("iterations") != cell["config"]["max_iters"]:
                    failures.append((op, f"ran {summary.get('iterations')} iterations"))
                stem = os.path.join(out_dir, f"{index:03d}_{cell['instance']}_{cell['solver']}_seed{cell['seed']}")
                if not (os.path.isfile(stem + ".csv") and os.path.isfile(stem + ".json")):
                    failures.append((op, "trace or summary file missing"))
                elif not _finite_trace(harness.read_trace_csv(stem + ".csv")):
                    failures.append((op, "non-finite value in the persisted trace"))
            persisted = sum(entry.stat().st_size for entry in os.scandir(out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return Verdict(failures, {"persist_bytes": persisted})


WORKLOADS = {
    "regression-cut": RegressionCut,
    "dictionary": Dictionary,
    "reference": Reference,
    "baselines-suite": BaselinesSuite,
}
