"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line on the real terminal (bypassing
capture) and then asserts, so a full run shows ten verdict lines.
"""

import functools
import multiprocessing
import os
import time

import numpy as np
import pytest

from bilevelcg.checks import (
    check_gradients,
    check_cut_retention,
    check_descent_steps,
    check_oracles,
    check_value_transfer,
    check_convex_rates,
    check_nonconvex_rates,
)
from bilevelcg import harness
from bilevelcg.core import Harmonic, SolverConfig
from bilevelcg.harness import run_experiment
from bilevelcg.problems import (
    dictionary_problem,
    regression_problem,
    toy_problem,
)
from bilevelcg.solvers import (
    AIrgConfig,
    BigSamConfig,
    DbgdConfig,
    a_irg,
    big_sam,
    cg_bio,
    dbgd,
    initialize_lower,
    standard_cg,
)

SMALL_DICT_OPTS = dict(
    signal_dim=4, true_dict_size=6, old_dict_size=5, new_dict_size=3, shared=2,
    n_old=8, n_new=6, sparsity=2,
)


def report(capsys, number, title, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"{verdict}  criterion {number}: {title}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


def summarize(results):
    ok = all(r[1] for r in results)
    bad = [f"{label}: {detail}" for label, good, detail in results if not good]
    return ok, "; ".join(bad) if bad else f"{len(results)} checks"


@functools.lru_cache(maxsize=1)
def toy_run():
    """The canonical toy run, shared between criteria 1 and 4."""
    inst = toy_problem()
    start = time.perf_counter()
    x0, _, certified = initialize_lower(inst, 1e-5)
    cfg = SolverConfig(eps_f=1e-5, eps_g=1e-5, max_iters=200, keep_iterates=True)
    out = cg_bio(inst, x0, cfg)
    elapsed = time.perf_counter() - start
    return inst, x0, cfg, out, elapsed, certified


def test_criterion_01_toy_reproduction(capsys):
    inst, _, _, out, elapsed, certified = toy_run()
    x = out.final_point
    g_gap = inst.lower.value(x) - inst.reference.g_star
    f_dev = abs(inst.upper.value(x) - inst.reference.f_star)
    checks = [
        ("start certified", certified),
        ("criterion stop", out.stop_reason == "criterion_met"),
        ("within 40 iterations", out.iterations <= 40),
        ("near (0.6, 0.4)", float(np.linalg.norm(x - [0.6, 0.4])) <= 1e-2),
        ("lower-level gap", g_gap <= 1e-5),
        ("upper-level value", f_dev <= 1e-4),
        ("under one second", elapsed < 1.0),
    ]
    ok = all(c[1] for c in checks)
    bad = ", ".join(name for name, good in checks if not good)
    report(capsys, 1, "toy reproduction", ok,
           bad or f"{out.iterations} iterations, {elapsed:.3f}s")


def test_criterion_02_convex_rate_bounds(capsys):
    start = time.perf_counter()
    ok, detail = summarize(check_convex_rates(max_k=500, slack=1e-8))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(capsys, 2, "convex-case rate bounds", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_03_nonconvex_rate_bounds(capsys):
    start = time.perf_counter()
    ok, detail = summarize(check_nonconvex_rates(eps_values=(1e-1, 1e-2)))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(capsys, 3, "non-convex-case rate bounds", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_04_per_step_descent_inequalities(capsys):
    ok, detail = summarize(check_descent_steps(slack=1e-8))

    # The same per-step inequalities must hold along the criterion-1 run.
    inst, x0, cfg, out, _, _ = toy_run()
    L_f = inst.upper.lipschitz_grad
    L_g = inst.lower.lipschitz_grad
    D = inst.region.diameter
    g0 = inst.lower.value(x0)
    rows = out.trace
    pairs = 0
    worst = 0.0
    for prev, nxt in zip(rows, rows[1:]):
        gamma = cfg.schedule.step(prev.k)
        f_bound = prev.f_val - gamma * prev.surrogate_f_gap + 0.5 * gamma**2 * L_f * D**2
        g_bound = (1 - gamma) * prev.g_val + gamma * g0 + 0.5 * gamma**2 * L_g * D**2
        worst = max(worst, nxt.f_val - f_bound, nxt.g_val - g_bound)
        pairs += 1
    ok = ok and pairs > 0 and worst <= 1e-8
    report(capsys, 4, "per-step descent inequalities", ok,
           f"{detail}; toy run worst excess {worst:.1e} over {pairs} steps")


def test_criterion_05_cutting_planes_retain_optimal_faces(capsys):
    ok, detail = summarize(check_cut_retention(slack=1e-10))
    report(capsys, 5, "cutting planes retain optimal faces", ok, detail)


def test_criterion_06_oracle_equivalence(capsys):
    ok, detail = summarize(check_oracles(count=100))
    report(capsys, 6, "oracle equivalence against brute force", ok, detail)


def test_criterion_07_gradient_checks(capsys):
    ok, detail = summarize(check_gradients(points_per_family=100))
    report(capsys, 7, "analytic gradients match finite differences", ok, detail)


def test_criterion_08_near_optimality_transfer(capsys):
    ok, detail = summarize(check_value_transfer())
    report(capsys, 8, "lower-level accuracy transfers to the upper level", ok, detail)


def _regression_ordering():
    inst, _ = regression_problem(n=100, d=150, seed=0)
    x0, _, certified = initialize_lower(inst, 1e-4)
    cfg = SolverConfig(eps_f=1e-12, eps_g=1e-4, max_iters=1000, schedule=Harmonic(12))
    out = cg_bio(inst, x0, cfg)
    bs = big_sam(inst, max_iters=1000)
    ai = a_irg(inst, AIrgConfig(gamma0=0.01, eta0=1.0), max_iters=1000)
    db = dbgd(inst, DbgdConfig(step=1e-4), max_iters=1000)
    f = {n: inst.upper.value(o.final_point) for n, o in
         [("cg-bio", out), ("big-sam", bs), ("a-irg", ai), ("dbgd", db)]}
    g = {n: inst.lower.value(o.final_point) - inst.reference.g_star for n, o in
         [("cg-bio", out), ("big-sam", bs), ("a-irg", ai), ("dbgd", db)]}
    return [
        ("regression start certified", certified),
        ("regression f: cg-bio < big-sam", f["cg-bio"] < f["big-sam"]),
        ("regression f: cg-bio < a-irg", f["cg-bio"] < f["a-irg"]),
        ("regression g: cg-bio < dbgd", g["cg-bio"] < g["dbgd"]),
    ]


def _dictionary_g_star(bundle):
    """Lower-level optimal value via accelerated projected gradient on the
    dictionary block (the coefficient block does not enter the lower level)."""
    spec = bundle.spec
    m, q, n_old = spec.signal_dim, spec.true_dict_size, spec.n_old
    Xpad = np.vstack([bundle.x_hat, np.zeros((q - spec.old_dict_size, n_old))])
    A = bundle.old_data
    L = np.linalg.eigvalsh(Xpad @ Xpad.T).max() / n_old

    def proj(D):
        norms = np.maximum(np.linalg.norm(D, axis=0), 1e-30)
        return D * np.minimum(1.0, 1.0 / norms)

    D = np.hstack([bundle.d_hat, np.zeros((m, q - spec.old_dict_size))])
    Y, tk = D.copy(), 1.0
    for _ in range(3000):
        grad = (Y @ Xpad - A) @ Xpad.T / n_old
        Dn = proj(Y - grad / L)
        tn = (1 + np.sqrt(1 + 4 * tk * tk)) / 2
        Y = Dn + ((tk - 1) / tn) * (Dn - D)
        D, tk = Dn, tn
    return 0.5 * np.sum((D @ Xpad - A) ** 2) / n_old


def _dictionary_ordering():
    bundle = dictionary_problem()
    inst, x0 = bundle.bilevel, bundle.initial_point
    g_star = _dictionary_g_star(bundle)
    out = cg_bio(inst, x0, SolverConfig(eps_f=1e-12, eps_g=1e-3, max_iters=1000))
    cg = standard_cg(
        inst.upper, inst.region,
        SolverConfig(eps_f=1e-12, max_iters=1000), start=x0,
    )
    bs = big_sam(
        inst, BigSamConfig(eta_f=0.1, eta_g=1.0 / inst.lower.lipschitz_grad, gamma=10),
        max_iters=1000, start=x0,
    )
    ai = a_irg(inst, AIrgConfig(gamma0=0.01, eta0=1.0), max_iters=1000, start=x0)
    db = dbgd(inst, DbgdConfig(step=0.1), max_iters=1000, start=x0)
    f = {n: inst.upper.value(o.final_point) for n, o in
         [("cg-bio", out), ("big-sam", bs), ("a-irg", ai)]}
    g = {n: inst.lower.value(o.final_point) - g_star for n, o in
         [("cg-bio", out), ("cg-upper", cg), ("dbgd", db)]}
    return [
        ("dictionary f: cg-bio < big-sam", f["cg-bio"] < f["big-sam"]),
        ("dictionary f: cg-bio < a-irg", f["cg-bio"] < f["a-irg"]),
        ("dictionary g: cg-bio < dbgd", g["cg-bio"] < g["dbgd"]),
        ("upper-level-only CG g-gap at least 10x worse",
         g["cg-upper"] >= 10.0 * g["cg-bio"]),
    ]


def test_criterion_09_baseline_orderings(capsys):
    start = time.perf_counter()
    checks = _regression_ordering() + _dictionary_ordering()
    elapsed = time.perf_counter() - start
    checks.append(("under five minutes", elapsed < 300.0))
    ok = all(c[1] for c in checks)
    bad = ", ".join(name for name, good in checks if not good)
    report(capsys, 9, "qualitative baseline orderings", ok,
           bad or f"{len(checks)} orderings, {elapsed:.0f}s")


def _hold_first_cell(monkeypatch, others: int) -> list:
    """Patch this process's ``harness._run_cell`` (spawned workers import
    their own) so that its first cell waits, up to a minute, until the
    workers have written ``others`` summaries.  Returns a list whose one
    entry says whether they did."""
    run_cell, wrote, calls = harness._run_cell, [False], []

    def held(cell, index, out_dir, record_timing):
        calls.append(index)
        if len(calls) == 1 and multiprocessing.active_children():
            deadline = time.monotonic() + 60.0
            while not wrote[0] and time.monotonic() < deadline:
                time.sleep(0.01)
                wrote[0] = sum(name.endswith(".json") for name in os.listdir(out_dir)) == others
        run_cell(cell, index, out_dir, record_timing)

    monkeypatch.setattr(harness, "_run_cell", held)
    return wrote


def test_criterion_10_byte_identical_reruns(capsys, tmp_path, monkeypatch):
    suite = [
        # The calling process's cell in the run at the default worker count.
        {"instance": "toy", "solver": "dbgd", "config": {"max_iters": 30}, "seed": 4},
        {"instance": "toy", "solver": "cg-bio",
         "config": {"eps_f": 1e-5, "eps_g": 1e-5, "max_iters": 200}, "seed": 0},
        {"instance": "regression", "solver": "big-sam",
         "config": {"max_iters": 60}, "seed": 1, "options": {"n": 30, "d": 40}},
        {"instance": "fair", "solver": "dbgd",
         "config": {"max_iters": 60}, "seed": 2, "options": {"n": 40, "d": 3}},
        {"instance": "dict", "solver": "cg-bio",
         "config": {"eps_f": 1e-12, "eps_g": 1e-2, "max_iters": 40},
         "seed": 3, "options": SMALL_DICT_OPTS},
    ]
    # One serial run and one at the default worker count, where spawned
    # workers run every cell but the first: the bytes must not depend on
    # which process ran a cell.
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(suite, str(dir_a), jobs=1)
    worker_wrote = _hold_first_cell(monkeypatch, len(suite) - 1)
    run_experiment(suite, str(dir_b))
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    checks = [
        # One usable CPU: the default runs serially, and no worker exists.
        ("workers wrote every cell but the first",
         worker_wrote[0] == (harness._usable_cpus() > 1)),
        ("same file set", names_a == names_b and len(names_a) == 2 * len(suite)),
        ("no failed cells", all("error" not in (dir_a / n).read_text()[:200]
                                for n in names_a if n.endswith(".json"))),
    ]
    mismatched = [
        n for n in names_a
        if (dir_a / n).read_bytes() != (dir_b / n).read_bytes()
    ]
    checks.append(("byte-identical files", not mismatched))
    ok = all(c[1] for c in checks)
    bad = ", ".join(name for name, good in checks if not good)
    if mismatched:
        bad += ": " + ", ".join(mismatched)
    report(capsys, 10, "byte-identical reruns under fixed seeds", ok,
           bad or f"{len(names_a)} files compared")
