import numpy as np
import pytest

from bilevelcg.core import (
    ConfigurationError,
    ConstantStep,
    L1Ball,
    OracleError,
    QuadraticForm,
    ReferenceData,
    SmoothOracle,
    SolverConfig,
)
from bilevelcg import solvers
from bilevelcg.problems import toy_problem
from bilevelcg.solvers import (
    AIrgConfig,
    BigSamConfig,
    DbgdConfig,
    MngConfig,
    a_irg,
    big_sam,
    cg_bio,
    dbgd,
    initialize_lower,
    minimize_quadratic_over_halfspaces,
    mng,
    standard_cg,
)


def quad_oracle(Q, q, L=None):
    form = QuadraticForm(np.asarray(Q, float), np.asarray(q, float), 0.0)
    return SmoothOracle(
        form.q.shape[0],
        lambda x: (form.value(x), form.gradient(x)),
        lipschitz_grad=L,
        quadratic=form,
    )


class TestStandardCg:
    def test_converges_on_quadratic_over_l1_ball(self):
        # minimizer at a vertex: one step lands exactly on it
        oracle = quad_oracle(np.eye(2), np.array([-5.0, 0.0]), L=1.0)
        out = standard_cg(oracle, L1Ball(1.0, 2), SolverConfig(eps_f=1e-8, max_iters=100))
        assert out.stop_reason == "criterion_met"
        np.testing.assert_allclose(out.final_point, [1.0, 0.0], atol=1e-9)

    def test_interior_optimum_approached_with_schedule(self):
        oracle = quad_oracle(np.eye(2), np.array([-0.3, -0.2]), L=1.0)
        out = standard_cg(oracle, L1Ball(1.0, 2), SolverConfig(eps_f=1e-3, max_iters=20_000))
        assert out.stop_reason == "criterion_met"
        np.testing.assert_allclose(out.final_point, [0.3, 0.2], atol=0.05)

    def test_exact_line_search_is_faster_on_quadratics(self):
        oracle = quad_oracle(np.eye(2), np.array([-0.3, -0.2]), L=1.0)
        cfg = SolverConfig(eps_f=1e-8, max_iters=5000)
        schedule_iters = standard_cg(oracle, L1Ball(1.0, 2), cfg).iterations
        exact_iters = standard_cg(oracle, L1Ball(1.0, 2), cfg, line_search="exact").iterations
        assert exact_iters <= schedule_iters

    def test_gap_recorded_in_trace(self):
        oracle = quad_oracle(np.eye(2), np.zeros(2), L=1.0)
        out = standard_cg(oracle, L1Ball(1.0, 2), SolverConfig(eps_f=1e-10, max_iters=10))
        assert out.trace[0].surrogate_f_gap >= 0.0
        assert out.stop_reason == "criterion_met"  # minimum at the center

    def test_budget_exhaustion_records_final_row(self):
        # interior optimum: the gap cannot close in three schedule steps
        oracle = quad_oracle(np.eye(2), np.array([-0.3, -0.2]), L=1.0)
        out = standard_cg(oracle, L1Ball(1.0, 2), SolverConfig(eps_f=1e-14, max_iters=3))
        assert out.stop_reason == "budget_exhausted"
        assert out.trace[-1].k == 3


def _failing_on_call(oracle, call):
    """``oracle`` that raises OracleError on its ``call``-th call (1-based)."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        if len(calls) == call:
            raise OracleError("injected failure")
        return oracle(*args)

    return wrapped


class TestLastAllowedRow:
    """The row k = max_iters is evaluated by the same code as every other
    row: its stop test and its oracle failures count."""

    def test_standard_cg_oracle_failure_on_the_last_row(self, monkeypatch):
        max_iters = 3
        oracle = quad_oracle(np.eye(2), np.array([-0.3, -0.2]), L=1.0)
        monkeypatch.setattr(solvers, "lmo", _failing_on_call(solvers.lmo, max_iters + 1))
        out = standard_cg(oracle, L1Ball(1.0, 2), SolverConfig(eps_f=1e-14, max_iters=max_iters))
        assert out.stop_reason == "oracle_failure: injected failure"
        assert len(out.trace) == max_iters + 1

    def test_cg_bio_oracle_failure_on_the_last_row(self, monkeypatch):
        max_iters = 3
        inst = toy_problem()
        x0, _, _ = initialize_lower(inst, 1e-5)
        monkeypatch.setattr(solvers, "halfspace_lmo", _failing_on_call(solvers.halfspace_lmo, max_iters + 1))
        out = cg_bio(inst, x0, SolverConfig(eps_f=1e-12, eps_g=1e-12, max_iters=max_iters))
        assert out.stop_reason == "oracle_failure: injected failure"
        assert len(out.trace) == max_iters + 1

    def test_cg_bio_certified_on_the_last_row(self):
        # The toy run passes both gap tests at row 4.
        inst = toy_problem()
        x0, _, _ = initialize_lower(inst, 1e-5)
        out = cg_bio(inst, x0, SolverConfig(eps_f=1e-5, eps_g=1e-5, max_iters=4))
        assert out.stop_reason == "criterion_met"
        assert out.iterations == 4

    def test_initialize_lower_certified_on_the_last_row(self):
        # Criterion 3's instance: pairwise backtracking certifies a FW gap
        # of 5.75e-6 at row 13.
        from bilevelcg.problems import fair_classification_problem

        inst, _ = fair_classification_problem(n=40, d=3, seed=7, l1_radius=2.0)
        _, cert, certified = initialize_lower(inst, 2e-5, max_iters=13, line_search="backtracking")
        assert certified
        assert cert <= 1e-5


def random_quadratic_oracle(dim=5, seed=0):
    """Convex quadratic with an interior minimizer in the unit l1 ball."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    Q = B.T @ B + 0.1 * np.eye(dim)
    return quad_oracle(Q, -Q @ rng.uniform(-0.1, 0.1, dim))


# sum(exp(x - c) - (x - c)), minimized at the interior point c; no quadratic tag.
SHIFT = np.array([0.3, -0.2])
SHIFTED_EXP = SmoothOracle(
    2, lambda x: (float(np.sum(np.exp(x - SHIFT) - (x - SHIFT))), np.exp(x - SHIFT) - 1.0)
)


class TestPairwiseCg:
    """With a line search, standard_cg takes pairwise steps."""

    @pytest.mark.parametrize("oracle, line_search", [
        (random_quadratic_oracle(), "exact"),
        (SHIFTED_EXP, "backtracking"),
    ])
    def test_iterates_stay_in_the_region(self, oracle, line_search):
        # Each iterate is a convex combination of the start and LMO vertices.
        region = L1Ball(1.0, oracle.dimension)
        cfg = SolverConfig(eps_f=1e-12, max_iters=40, keep_iterates=True)
        out = standard_cg(oracle, region, cfg, line_search=line_search, start=region.feasible_point())
        assert out.iterations >= 10
        for row in out.trace:
            assert region.contains(row.iterate, tol=1e-12)

    def test_drop_step_removes_the_interior_start_atom(self):
        # 0.5 |x - (3, 2.5)|^2 from the origin: step 1 moves all of the
        # start's weight to (1, 0).  At (1, 0) the origin would be the away
        # atom with weight 0 and stall the run, so step 2 must take weight
        # from (1, 0) toward (0, 1).
        oracle = quad_oracle(np.eye(2), np.array([-3.0, -2.5]), L=1.0)
        region, start = L1Ball(1.0, 2), np.zeros(2)
        one = standard_cg(oracle, region, SolverConfig(eps_f=1e-12, max_iters=1), line_search="exact", start=start)
        np.testing.assert_array_equal(one.final_point, [1.0, 0.0])
        two = standard_cg(oracle, region, SolverConfig(eps_f=1e-12, max_iters=2), line_search="exact", start=start)
        np.testing.assert_allclose(two.final_point, [0.75, 0.25], rtol=0.0, atol=1e-12)

    def test_away_ties_go_to_the_first_inserted_atom(self):
        # 0.5 |x - (0.3, 0.5)|^2 from the origin: step 1 moves weight 0.5 to
        # (0, 1), where the gradient (-0.3, 0) is orthogonal to both active
        # atoms.  Taking step 2's away weight from the origin reaches
        # (0.3, 0.5); taking it from (0, 1) would lower x2, to (0.15, 0.35).
        oracle = quad_oracle(np.eye(2), np.array([-0.3, -0.5]), L=1.0)
        out = standard_cg(oracle, L1Ball(1.0, 2), SolverConfig(eps_f=1e-12, max_iters=2),
                          line_search="exact", start=np.zeros(2))
        np.testing.assert_allclose(out.final_point, [0.3, 0.5], rtol=0.0, atol=1e-12)

    def test_tiny_away_weight_still_certifies(self):
        # 0.5 |x - (a, 0.5)|^2 with a = 1 - 2^-30 from the origin: step 1
        # stops at (a, 0) and leaves the origin the weight 2^-30; step 2 takes
        # that weight as its away atom and drops it; the optimum
        # (0.75 - 2^-31, 0.25 + 2^-31) is on the face x1 + x2 = 1.
        a = 1.0 - 2.0**-30
        oracle = quad_oracle(np.eye(2), np.array([-a, -0.5]), L=1.0)
        region, start = L1Ball(1.0, 2), np.zeros(2)
        step2 = standard_cg(oracle, region, SolverConfig(eps_f=1e-14, max_iters=2), line_search="exact", start=start)
        np.testing.assert_array_equal(step2.final_point, [a, 2.0**-30])
        out = standard_cg(oracle, region, SolverConfig(eps_f=1e-14, max_iters=20), line_search="exact", start=start)
        assert out.stop_reason == "criterion_met"
        np.testing.assert_allclose(out.final_point, [0.75 - 2.0**-31, 0.25 + 2.0**-31], rtol=0.0, atol=1e-12)

    def test_schedule_run_takes_vanilla_steps(self):
        # Steps of 0.5 from the origin: step 1 reaches (0.5, 0); step 2 moves
        # toward (0, 1) from the iterate, to (0.25, 0.5).  A pairwise step
        # from the away atom (1, 0) would reach (0, 0.5).
        oracle = quad_oracle(np.eye(2), np.array([-0.3, -0.25]), L=1.0)
        cfg = SolverConfig(eps_f=1e-14, max_iters=2, schedule=ConstantStep(0.5))
        out = standard_cg(oracle, L1Ball(1.0, 2), cfg, start=np.zeros(2))
        np.testing.assert_array_equal(out.final_point, [0.25, 0.5])

    def test_matches_the_schedule_run_certified_value(self):
        from bilevelcg.problems import fair_classification_problem

        inst, _ = fair_classification_problem(n=40, d=3, seed=7, l1_radius=2.0)
        tol = 1e-3
        cfg = SolverConfig(eps_f=tol, max_iters=100_000)
        schedule = standard_cg(inst.lower, inst.region, cfg)
        pairwise = standard_cg(inst.lower, inst.region, cfg, line_search="backtracking")
        assert schedule.stop_reason == pairwise.stop_reason == "criterion_met"
        assert pairwise.iterations < schedule.iterations
        assert pairwise.trace[-1].f_val == pytest.approx(schedule.trace[-1].f_val, abs=tol)


class TestInitializeLower:
    def test_toy_certificate_is_exact(self):
        inst = toy_problem()
        x0, cert, certified = initialize_lower(inst, 1e-5)
        assert certified
        assert cert <= 5e-6
        assert inst.lower.value(x0) == pytest.approx(-1.0)

    def test_reference_certificate_used_when_gap_is_loose(self):
        # A known optimal value certifies even when the FW gap has not
        # closed within the iteration budget.
        from bilevelcg.problems import regression_problem

        inst, _ = regression_problem(n=40, d=60, seed=5)
        x0, cert, certified = initialize_lower(inst, 1e-4, max_iters=3000)
        assert certified
        assert inst.lower.value(x0) <= 5e-5


class TestCgBio:
    def test_toy_run_matches_known_solution(self):
        inst = toy_problem()
        x0, _, _ = initialize_lower(inst, 1e-5)
        out = cg_bio(inst, x0, SolverConfig(eps_f=1e-5, eps_g=1e-5, max_iters=100))
        assert out.stop_reason == "criterion_met"
        assert out.iterations <= 40
        np.testing.assert_allclose(out.final_point, [0.6, 0.4], atol=1e-9)

    def test_infeasible_start_rejected(self):
        inst = toy_problem()
        with pytest.raises(ConfigurationError):
            cg_bio(inst, np.array([2.0, 2.0]), SolverConfig())

    def test_uncertified_start_rejected(self):
        inst = toy_problem()
        # (0, 0) is feasible but far from lower-level optimal.
        with pytest.raises(ConfigurationError):
            cg_bio(inst, np.zeros(2), SolverConfig(eps_g=1e-5))

    def test_stop_requires_both_gaps(self):
        inst = toy_problem()
        x0, _, _ = initialize_lower(inst, 1e-5)
        out = cg_bio(inst, x0, SolverConfig(eps_f=1e-5, eps_g=1e-5, max_iters=100))
        last = out.trace[-1]
        assert last.surrogate_f_gap <= 1e-5
        assert last.surrogate_g_gap <= 0.5e-5

    def test_lower_level_value_never_exceeds_start(self):
        inst = toy_problem()
        x0, _, _ = initialize_lower(inst, 1e-5)
        out = cg_bio(inst, x0, SolverConfig(eps_f=1e-12, eps_g=1e-12, max_iters=50))
        g0 = inst.lower.value(x0)
        assert all(row.g_val <= g0 + 1e-12 for row in out.trace)

    def test_constant_schedule_accepted(self):
        inst = toy_problem()
        x0, _, _ = initialize_lower(inst, 1e-5)
        cfg = SolverConfig(eps_f=1e-5, eps_g=1e-5, max_iters=2000, schedule=ConstantStep(0.05))
        out = cg_bio(inst, x0, cfg)
        assert out.stop_reason in ("criterion_met", "budget_exhausted")
        np.testing.assert_allclose(out.final_point, [0.6, 0.4], atol=1e-2)


class TestBaselines:
    def test_big_sam_reaches_lower_optimum_on_toy(self):
        inst = toy_problem()
        out = big_sam(inst, BigSamConfig(eta_f=0.5, eta_g=0.5), max_iters=3000)
        assert inst.lower.value(out.final_point) == pytest.approx(-1.0, abs=1e-2)

    def test_big_sam_requires_steps_or_constants(self):
        inst = toy_problem()
        # toy L_g = 0, so eta_g cannot be derived from it
        with pytest.raises(ConfigurationError):
            big_sam(inst, BigSamConfig(eta_f=0.5, eta_g=None), max_iters=5)

    def test_a_irg_stays_feasible(self):
        inst = toy_problem()
        out = a_irg(inst, AIrgConfig(gamma0=0.1, eta0=1.0), max_iters=500, keep_iterates=True)
        for row in out.trace:
            if row.iterate is not None:
                assert inst.region.contains(row.iterate, tol=1e-8)

    def test_dbgd_descends_lower_level(self):
        inst = toy_problem()
        out = dbgd(inst, DbgdConfig(step=0.05, g_hat=-1.0), max_iters=2000)
        assert inst.lower.value(out.final_point) <= -0.95

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AIrgConfig(gamma0=-1.0)
        with pytest.raises(ConfigurationError):
            DbgdConfig(step=0.0)
        with pytest.raises(ConfigurationError):
            MngConfig(M=0.0)


class TestMng:
    def test_requires_quadratic_upper(self):
        inst = toy_problem()
        plain_upper = SmoothOracle(2, inst.upper.eval, lipschitz_grad=1.0)
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            mng(replace(inst, upper=plain_upper), MngConfig(M=1.0), max_iters=5)

    def test_smoothing_constant_floor(self):
        from dataclasses import replace

        inst = toy_problem()
        lower = SmoothOracle(2, inst.lower.eval, lipschitz_grad=5.0)
        with pytest.raises(ConfigurationError):
            mng(replace(inst, lower=lower), MngConfig(M=1.0), max_iters=5)

    def test_runs_on_toy(self):
        inst = toy_problem()
        out = mng(inst, MngConfig(M=1.0), max_iters=200)
        assert out.stop_reason == "budget_exhausted"
        assert inst.lower.value(out.final_point) <= -0.9


class TestQuadraticSubproblem:
    def test_unconstrained_minimum_when_no_constraints(self):
        quad = QuadraticForm(np.eye(2), np.array([-1.0, -2.0]), 0.0)
        x = minimize_quadratic_over_halfspaces(quad, [])
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-10)

    def test_active_constraint_binds(self):
        quad = QuadraticForm(np.eye(2), np.zeros(2), 0.0)
        # require x1 >= 1 (written <(1,0), x> >= 1)
        x = minimize_quadratic_over_halfspaces(quad, [(np.array([1.0, 0.0]), 1.0)])
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-10)

    def test_inactive_constraint_ignored(self):
        quad = QuadraticForm(np.eye(2), np.array([-2.0, 0.0]), 0.0)
        x = minimize_quadratic_over_halfspaces(quad, [(np.array([1.0, 0.0]), 1.0)])
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-10)

    def test_two_constraints_intersect(self):
        quad = QuadraticForm(np.eye(2), np.zeros(2), 0.0)
        cons = [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 1.0]), 2.0)]
        x = minimize_quadratic_over_halfspaces(quad, cons)
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-10)

    def test_infeasible_constraints_raise(self):
        quad = QuadraticForm(np.eye(1), np.zeros(1), 0.0)
        # x >= 1 and -x >= 0 have no common point.
        with pytest.raises(OracleError):
            minimize_quadratic_over_halfspaces(quad, [(np.array([1.0]), 1.0), (np.array([-1.0]), 0.0)])

    def test_singular_hessian_picks_a_point_on_the_minimizing_line(self):
        # 0.5 (x1 + x2)^2 - (x1 + x2) is minimized on the line x1 + x2 = 1.
        quad = QuadraticForm(np.ones((2, 2)), np.array([-1.0, -1.0]), 0.0)
        x = minimize_quadratic_over_halfspaces(quad, [(np.array([1.0, 0.0]), 2.0)])
        assert x[0] >= 2.0 - 1e-9
        assert x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_feasible_candidate_with_a_negative_multiplier_is_passed_over(self):
        # 0.5 (x - 5)^2 over 0 <= x <= 3: the active set {x >= 0} gives the
        # first feasible candidate x = 0, with multiplier -5.
        quad = QuadraticForm(np.eye(1), np.array([-5.0]), 12.5)
        x = minimize_quadratic_over_halfspaces(quad, [(np.array([1.0]), 0.0), (np.array([-1.0]), -3.0)])
        np.testing.assert_allclose(x, [3.0], atol=1e-10)

    def test_stops_at_the_first_kkt_point(self, monkeypatch):
        # Projecting (1.2, 0.6) onto the toy polytope: the empty active set
        # gives an infeasible point, the first one-constraint set the answer.
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
        p = toy_problem().region.project(np.array([1.2, 0.6]))
        np.testing.assert_allclose(p, [0.8, 0.2], atol=1e-12)
        assert len(calls) == 2


class TestStartParameter:
    def test_baselines_accept_explicit_start(self):
        inst = toy_problem()
        start = np.array([0.5, 0.25])
        for run in (
            lambda: big_sam(inst, BigSamConfig(eta_f=0.5, eta_g=0.5), max_iters=2, keep_iterates=True, start=start),
            lambda: a_irg(inst, max_iters=2, keep_iterates=True, start=start),
            lambda: dbgd(inst, max_iters=2, keep_iterates=True, start=start),
            lambda: mng(inst, MngConfig(M=1.0), max_iters=2, keep_iterates=True, start=start),
        ):
            out = run()
            np.testing.assert_array_equal(out.trace[0].iterate, start)
