"""Measurement loop, metrics and environment record for one workload run.

A run sets the workload up ``setup_reps`` times, then repeats its solve on
the last set-up's inputs until ``seconds`` have passed (at least once),
checking every solve outside the timed region.

* ``trace=False``: package functions only (checked by identity), and the
  end-to-end metrics: medians of the set-up and solve times, their sum as
  the wall time (the suite's wall time is its solve, which builds its own
  instances), and the process's peak resident memory.
* ``trace=True``: one untraced and one traced set-up, then untraced and
  traced solves in turn.  The per-layer metrics are span totals over what
  the wall time covers (one set-up plus one solve); ``trace.overhead_s`` is
  the traced wall time less the untraced one, and ``trace.uncovered_s`` the
  traced wall time that no span covers.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import spans
import workloads

# Budgets small enough for the smoke test to run every workload in seconds.
SMOKE = {
    "regression-cut": {"d": 300, "cg_iters": 5},
    "dictionary": {"pretrain_iters": 20, "polish_iters": 20, "cg_iters": 3},
    "reference": {"tol": 1e-3},
    "baselines-suite": {"d": 300, "baseline_iters": 5, "mng_iters": 3, "mng_d": 80},
}

def make_workload(name: str, seed: int, workdir: str, smoke: bool = False):
    kwargs = dict(SMOKE[name]) if smoke else {}
    if name == "baselines-suite":
        kwargs["workdir"] = workdir
    return workloads.WORKLOADS[name](seed, **kwargs)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas() -> tuple[str, int, str]:
    """(library name and version, thread count, where the count came from)."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if os.path.isdir(libs):
        import ctypes

        for lib in sorted(os.listdir(libs)):
            if "openblas" not in lib:
                continue
            handle = ctypes.CDLL(os.path.join(libs, lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return name, int(fn()), "library"
    return name, int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0), "environment"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    blas, threads, source = _blas()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_source": source,
        "nproc": nproc,
        "cpu": _cpu_model(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class _Tally:
    """Attempted and failed operations, and the values the checks report."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.values: dict = {}

    def judge(self, inputs, out, error=None) -> None:
        self.attempted += self.workload.ops
        if error is not None:
            self.failed += self.workload.ops
            self.failures.append(("solve", error))
            return
        verdict = self.workload.check(inputs, out)
        self.failed += verdict.failed
        self.failures.extend(verdict.failures)
        for key, value in verdict.values.items():
            self.values.setdefault(key, []).append(value)


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception:  # a failed solve is counted, reported and survived
        result, error = None, traceback.format_exc()
        print(error, file=sys.stderr)
    return time.perf_counter() - start, result, error


def _setups(workload, reps: int):
    times, inputs = [], None
    for _ in range(reps):
        inputs = None  # drop the previous inputs before building the next
        start = time.perf_counter()
        inputs = workload.setup()
        times.append(time.perf_counter() - start)
    return times, inputs


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> tuple[dict, _Tally]:
    """End-to-end metrics, tracing off."""
    spans.check_untraced()
    setup_times, inputs = _setups(workload, workload.setup_reps)
    tally, solve_times = _Tally(workload), []
    deadline = time.perf_counter() + seconds
    while not solve_times or time.perf_counter() < deadline:
        spans.check_untraced(inputs)
        elapsed, out, error = _timed(workload.solve, inputs)
        solve_times.append(elapsed)
        tally.judge(inputs, out, error)
    setup_s = statistics.median(setup_times)
    solve_s = statistics.median(solve_times)
    metrics = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "wall_s": setup_s + solve_s if workload.setup_in_wall else solve_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    tally.values["setup_times"] = setup_times
    tally.values["solve_times"] = solve_times
    return metrics, tally


def _raw(rec: spans.Recorder) -> dict:
    """Additive span totals; ratios are formed after summing."""
    calls, incl, self_s, counts = rec.calls, rec.inclusive_s, rec.self_s, rec.counts.get
    raw = {
        "problems.build_s": incl("problems.build"),
        "problems.internal.calls": calls("problems.internal"),
        "problems.internal.s": incl("problems.internal"),
        "core.oracle_call.calls": calls("core.oracle_call"),
        "core.oracle_call.overhead_s": self_s("core.oracle_call"),
        "oracles.lmo.calls": calls("oracles.lmo"),
        "oracles.lmo.block_calls": calls("oracles.lmo.block"),
        "oracles.lmo.s": incl("oracles.lmo"),
        "oracles.halfspace_lmo.self_s": self_s("oracles.halfspace_lmo"),
        "oracles.halfspace_lmo.plain": counts("oracles.halfspace_lmo.plain", 0),
        "oracles.simplex.tableau_bytes": counts("oracles.simplex.tableau_bytes", 0),
        "solvers.initialize_lower.iterations": counts("solvers.initialize_lower.iterations", 0),
        "solvers.initialize_lower.lower_calls": counts("solvers.initialize_lower.lower_calls", 0),
        "harness.reference_lower.iterations": counts("harness.reference_lower.iterations", 0),
        "harness.persist.s": self_s("harness.run_experiment"),
        "root_s": rec.root_ns * 1e-9,
    }
    for layer in ("problems.upper", "problems.lower", "oracles.halfspace_lmo", "oracles.simplex",
                  "oracles.project"):
        raw[layer + ".calls"] = calls(layer)
        raw[layer + ".s"] = incl(layer)
    for solver in ("cg_bio", "standard_cg"):
        raw[f"solvers.{solver}.s"] = incl(f"solvers.{solver}")
        raw[f"solvers.{solver}.iterations"] = counts(f"solvers.{solver}.iterations", 0)
        raw[f"solvers.{solver}.self_s"] = self_s(f"solvers.{solver}")
    for name in ("solvers.initialize_lower", "solvers.big_sam", "solvers.a_irg", "solvers.dbgd",
                 "solvers.mng", "harness.reference_lower", "harness.run_experiment"):
        raw[name + ".s"] = incl(name)
    raw["solvers.mng.self_s"] = self_s("solvers.mng")
    return raw


def measure_traced(workload, seconds: float) -> tuple[dict, _Tally]:
    """Per-layer metrics from spans, for one set-up plus one solve."""
    rec = spans.Recorder()
    (plain_setup,), inputs = _setups(workload, 1)
    with spans.traced(rec):
        traced_setup = _setups(workload, 1)[0][0]
    after_setup = _raw(rec)
    # Traced solves run on the untraced inputs rebuilt with span-recording
    # evals; they share the arrays, so no second copy is built.
    traced_inputs = spans.wrap_inputs(rec, inputs)

    tally, plain_times, traced_times = _Tally(workload), [], []
    deadline = time.perf_counter() + seconds
    while not traced_times or time.perf_counter() < deadline:
        spans.check_untraced(inputs)
        elapsed, out, error = _timed(workload.solve, inputs)
        plain_times.append(elapsed)
        tally.judge(inputs, out, error)
        with spans.traced(rec):
            elapsed, out, error = _timed(workload.solve, traced_inputs)
        traced_times.append(elapsed)
        tally.judge(inputs, out, error)  # checks read the untraced instance

    # Per pass, over what wall_s covers: the set-up (unless the suite's,
    # which the timed call repeats) plus the mean traced solve.
    n = len(traced_times)
    in_wall = 1.0 if workload.setup_in_wall else 0.0
    solved = _raw(rec)
    per_pass = {k: in_wall * after_setup[k] + (solved[k] - after_setup[k]) / n for k in solved}
    persisted = tally.values.get("persist_bytes", [])
    per_pass["harness.persist.bytes"] = statistics.mean(persisted) if persisted else 0
    per_pass["trace.overhead_s"] = (
        in_wall * (traced_setup - plain_setup)
        + statistics.median(traced_times) - statistics.median(plain_times)
    )
    traced_wall = in_wall * traced_setup + statistics.mean(traced_times)
    per_pass["trace.uncovered_s"] = traced_wall - per_pass.pop("root_s")

    hs_calls = per_pass["oracles.halfspace_lmo.calls"]
    per_pass["oracles.halfspace_lmo.plain_share"] = (
        per_pass.pop("oracles.halfspace_lmo.plain") / hs_calls if hs_calls else 0.0
    )
    per_pass["oracles.simplex.tableau_mb"] = per_pass.pop("oracles.simplex.tableau_bytes") / 1e6
    return per_pass, tally
