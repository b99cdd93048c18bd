import dataclasses
import tracemalloc

import numpy as np
import pytest

from bilevelcg.core import (
    BallProduct,
    ConfigurationError,
    ConstantStep,
    Halfspace,
    L1Ball,
    OracleError,
    QuadraticForm,
    ReferenceData,
    SmoothOracle,
    SolverConfig,
)
from bilevelcg import solvers
from bilevelcg.problems import (
    fair_classification_problem,
    regression_problem,
    synthetic_regression_data,
    toy_problem,
)
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


def _dict_pairwise_cg(oracle, region, eps_f, max_iters, line_search, start):
    """Pairwise CG with the active set standard_cg kept before its atom
    store, the reference for it: a dict from each atom's bytes to
    [atom, weight], in insertion order, whose away atom is a Python max over
    one dot product per atom.  Returns the rows (f, FW gap), the final
    point, the largest active set and the number of atoms added again after
    a drop step."""
    x = np.array(start, dtype=float)
    active = {x.tobytes(): [x, 1.0]}
    rows, dropped, again, largest, state = [], set(), 0, 1, {}
    for k in range(max_iters + 1):
        fx, grad = oracle(x)
        s = solvers.lmo(region, grad)
        gap = float(grad @ (x - s))
        rows.append((float(fx), gap))
        if gap <= eps_f or k == max_iters:
            return rows, x, largest, again
        away = max(active.values(), key=lambda atom: float(grad @ atom[0]))
        d = s - away[0]
        gamma, _ = solvers._cg_step_length(oracle, x, fx, grad, d, line_search, state, away[1])
        if gamma > 0.0:
            away[1] -= gamma
            if away[1] == 0.0:
                del active[away[0].tobytes()]
                dropped.add(away[0].tobytes())
            again += s.tobytes() in dropped and s.tobytes() not in active
            active.setdefault(s.tobytes(), [s, 0.0])[1] += gamma
            largest = max(largest, len(active))
        x = x + gamma * d


def _least_squares_oracle(rows, dim, seed):
    rng = np.random.default_rng(seed)
    A, b = rng.standard_normal((rows, dim)), rng.standard_normal(rows)
    return quad_oracle(A.T @ A, -A.T @ b, L=float(np.linalg.eigvalsh(A.T @ A).max()))


def _interior_quadratic(dim, seed):
    """A strongly convex quadratic whose minimizer lies inside the unit l1
    ball: pairwise steps drop vertices and take them up again."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(dim)
    y *= rng.uniform(0.3, 1.5) / np.abs(y).sum()
    B = rng.standard_normal((dim, dim))
    Q = B.T @ B + 0.05 * np.eye(dim)
    return quad_oracle(Q, -Q @ y, L=float(np.linalg.eigvalsh(Q).max()))


# (oracle, region, start, line search, max_iters) of the atom-store runs.
GROWS = (_least_squares_oracle(60, 40, 0), L1Ball(3.0, 40), np.zeros(40), "exact", 400)
READDS = (_interior_quadratic(3, 0), L1Ball(1.0, 3), np.zeros(3), "exact", 300)
# Criterion 3's fair instance: a logistic lower level, no quadratic tag.
FAIR = fair_classification_problem(n=40, d=3, seed=7, l1_radius=2.0)[0]


class TestAtomStore:
    """standard_cg keeps its pairwise atoms on their support and must take
    the steps of the dict-based active set it replaced, bit for bit."""

    @pytest.mark.parametrize("oracle, region, start, line_search, max_iters", [
        GROWS,  # l1 vertices +-r e_i, more of them than the store's first 16 rows
        READDS,  # vertices dropped and then added again, last
        (SHIFTED_EXP, L1Ball(1.0, 2), np.zeros(2), "backtracking", 60),
        # Dense ball-product atoms, as in the dictionary polish.
        (_least_squares_oracle(12, 20, 1), BallProduct(num_cols=4, col_dim=5, radii=1.0),
         np.full(20, 0.1), "exact", 300),
        (FAIR.lower, FAIR.region, FAIR.region.feasible_point(), "backtracking", 200),
    ], ids=["l1-grows", "l1-readds", "l1-backtracking", "ball-product", "fair-backtracking"])
    def test_steps_equal_the_dict_active_set(self, oracle, region, start, line_search, max_iters):
        # The reference evaluates the oracle afresh at every row, where a
        # backtracking run takes the row's value and gradient from its
        # accepted trial: the two are one expression, so the bits agree.
        eps_f = 1e-13
        rows, final, _, _ = _dict_pairwise_cg(oracle, region, eps_f, max_iters, line_search, start)
        out = standard_cg(oracle, region, SolverConfig(eps_f=eps_f, max_iters=max_iters),
                          line_search=line_search, start=start)
        assert [(r.f_val.hex(), r.surrogate_f_gap.hex()) for r in out.trace] == [
            (f.hex(), gap.hex()) for f, gap in rows
        ]
        assert [v.hex() for v in out.final_point] == [v.hex() for v in final]

    def test_the_runs_outgrow_the_first_rows_and_add_dropped_atoms_again(self):
        oracle, region, start, line_search, max_iters = GROWS
        assert _dict_pairwise_cg(oracle, region, 1e-13, max_iters, line_search, start)[2] > 16
        oracle, region, start, line_search, max_iters = READDS
        assert _dict_pairwise_cg(oracle, region, 1e-13, max_iters, line_search, start)[3] > 0

    def test_an_atom_added_again_after_its_drop_goes_last(self):
        atoms = solvers._Atoms(np.zeros(2))
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        atoms.move(0, e1, 0.5)  # origin 0.5, e1 0.5
        atoms.move(1, e2, 0.5)  # e1 dropped: origin 0.5, e2 0.5
        atoms.move(1, e1, 0.25)  # e1 again, after e2
        assert atoms.w == [0.5, 0.25, 0.25]
        # <(1, 1), v> ties e2 and e1: the first inserted, e2, is the away atom.
        away, d = atoms.away(np.array([1.0, 1.0]), e1)
        assert away == 1
        np.testing.assert_array_equal(d, e1 - e2)

    def test_dense_away_scores_keep_the_bits_of_the_dot_products(self):
        # Mirror-image atoms under a mirror-symmetric gradient have equal
        # exact scores; their rounded dot products tie or split by an ulp.
        # A 2-D matvec sums in another order and picks the other atom on
        # five of these eight seeds.
        for seed in range(8):
            rng = np.random.default_rng(seed)
            half = rng.standard_normal(32)
            grad, v = np.concatenate([half, half[::-1]]), rng.standard_normal(64)
            mirror = v[::-1].copy()
            atoms = solvers._Atoms(v)
            atoms.add(mirror, 0.5)
            scores = [float(grad @ v), float(grad @ mirror)]
            assert atoms.away(grad, v)[0] == scores.index(max(scores))

    def test_a_drop_step_moves_the_rows_in_place(self):
        # 100 dense atoms of 1,000 entries (0.8 MB): dropping the first one
        # must not copy the 99 rows after it.  The step still compares the
        # vertex with every row, a 99 x 1,000 boolean temporary.
        rng = np.random.default_rng(0)
        atoms = solvers._Atoms(rng.standard_normal(1000))
        rows = [rng.standard_normal(1000) for _ in range(99)]
        for row in rows:
            atoms.add(row, 0.0)
        tracemalloc.start()
        try:
            atoms.move(0, rows[0], 1.0)  # all of the start's weight
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e5
        np.testing.assert_array_equal(atoms.V[:99], np.array(rows))
        assert atoms.w == [1.0] + [0.0] * 98

    def test_vertices_equal_as_numbers_are_one_atom(self):
        # -0.0 == 0.0: a vertex that differs from an atom only in the sign of
        # its zeros, on the support or off it, adds its weight to that atom.
        atoms = solvers._Atoms(np.array([0.0, 2.0, 0.0]))
        atoms.add(np.array([-0.0, 2.0, -0.0]), 0.5)
        atoms.add(np.array([3.0, -0.0, 0.0]), 0.25)
        atoms.add(np.array([3.0, 0.0, -0.0]), 0.25)
        assert atoms.w == [1.5, 0.5]
        np.testing.assert_array_equal(atoms.support, [1, 0])


def _counted(oracle):
    """``oracle`` with a list that grows by one entry per eval call."""
    calls = []

    def evaluate(x):
        calls.append(None)
        return oracle.eval(x)

    return dataclasses.replace(oracle, eval=evaluate), calls


class TestOneEvaluationPerStep:
    """A line-search row of standard_cg costs at most one oracle call: the
    exact step on a factored tag carries its residual and calls none, the
    exact step on a dense tag reads Q's curvature, and a backtracking step
    hands on its evaluation at the point it moves to."""

    def test_exact_step_on_tagged_least_squares_calls_no_oracle(self):
        inst, _ = regression_problem(n=30, d=60, seed=0)
        assert inst.lower.quadratic.F is not None
        oracle, calls = _counted(inst.lower)
        out = standard_cg(oracle, inst.region, SolverConfig(eps_f=1e-9, max_iters=500), line_search="exact")
        assert out.stop_reason == "criterion_met" and len(out.trace) > 20
        assert calls == []

    def test_cg_bio_on_the_tagged_regression_never_calls_the_oracles(self):
        inst, _ = regression_problem(n=30, d=60, seed=0)
        upper, upper_calls = _counted(inst.upper)
        lower, lower_calls = _counted(inst.lower)
        counted = dataclasses.replace(inst, upper=upper, lower=lower)
        x0, _, certified = initialize_lower(counted, 1e-5)
        out = cg_bio(counted, x0, SolverConfig(eps_f=1e-5, eps_g=1e-5, max_iters=50))
        assert certified and out.certified and len(out.trace) == 51
        assert upper_calls == lower_calls == []

    @pytest.mark.parametrize("oracle, region, start", [
        (SHIFTED_EXP, L1Ball(1.0, 2), np.zeros(2)),
        (FAIR.lower, FAIR.region, FAIR.region.feasible_point()),
    ], ids=["shifted-exp", "fair"])
    def test_backtracking_calls_once_per_row_and_rejected_trial(self, monkeypatch, oracle, region, start):
        oracle, calls = _counted(oracle)
        step_length, rejected = solvers._cg_step_length, []

        def counted_step(*args):
            before = len(calls)
            gamma, evaluation = step_length(*args)
            # Every trial but the accepted one, whose evaluation is handed on.
            rejected.append(len(calls) - before - (evaluation is not None))
            return gamma, evaluation

        monkeypatch.setattr(solvers, "_cg_step_length", counted_step)
        out = standard_cg(oracle, region, SolverConfig(eps_f=1e-10, max_iters=60),
                          line_search="backtracking", start=start)
        assert len(out.trace) > 10 and sum(rejected) > 0
        assert len(calls) == len(out.trace) + sum(rejected)

    @pytest.mark.parametrize("eps_f, max_iters", [(1e-5, 100_000), (1e-13, 200)])
    def test_backtracking_evaluates_each_trial_point_once(self, eps_f, max_iters):
        # A step clipped to the away weight keeps its trial point as L
        # doubles; both runs take such a step (one call each at the parent).
        points = []

        def evaluate(x):
            points.append(x.tobytes())
            return FAIR.lower.eval(x)

        oracle = dataclasses.replace(FAIR.lower, eval=evaluate)
        standard_cg(oracle, FAIR.region, SolverConfig(eps_f=eps_f, max_iters=max_iters),
                    line_search="backtracking", start=FAIR.region.feasible_point())
        assert len(points) == len(set(points)) > 20

    @pytest.mark.parametrize("factored", [False, True], ids=["dense-Q", "factor-F"])
    def test_closed_form_step_agrees_with_the_parabola_fit(self, factored):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(2, 30))
            F = rng.standard_normal((int(rng.integers(1, 40)), dim))
            q = rng.standard_normal(dim)
            h = rng.standard_normal(F.shape[0])
            form = QuadraticForm(None, F=F, h=h) if factored else QuadraticForm(F.T @ F, q, 0.3)
            tagged = SmoothOracle(dim, lambda x, form=form: (form.value(x), form.gradient(x)), quadratic=form)
            untagged = dataclasses.replace(tagged, quadratic=None)
            x, d = rng.standard_normal(dim), rng.standard_normal(dim)
            fx, grad = tagged(x)
            if grad @ d > 0:
                d = -d  # a descent direction, as a pairwise one is
            image = F @ d if factored else None  # a factored tag's step reads F d
            closed, none = solvers._cg_step_length(tagged, x, fx, grad, d, "exact", {}, np.inf, image)
            fitted, _ = solvers._cg_step_length(untagged, x, fx, grad, d, "exact", {}, np.inf)
            assert none is None and closed > 0.0
            assert closed == pytest.approx(fitted, rel=1e-8)
            # The closed form is the exact minimizer along d.
            assert closed == pytest.approx(-float(grad @ d) / float(F @ d @ (F @ d)), rel=1e-12)

    @pytest.mark.parametrize("form, image", [
        (QuadraticForm(None, F=np.zeros((4, 3)), h=np.array([1.0, -2.0, 0.5, 0.0])), np.zeros(4)),
        (QuadraticForm(np.zeros((3, 3)), np.array([1.0, -2.0, 0.5]), 0.0), None),
    ], ids=["factor-F", "dense-Q"])
    def test_linear_tag_steps_with_the_away_weight(self, form, image):
        oracle = SmoothOracle(3, lambda x: (form.value(x), form.gradient(x)), quadratic=form)
        x, d = np.zeros(3), np.array([0.0, 1.0, 0.0])
        fx, grad = oracle(x)
        step = solvers._cg_step_length(oracle, x, fx, grad, d, "exact", {}, 0.375, image)
        assert step == (0.375, None)


def _last_carried(monkeypatch) -> dict:
    """The last (value, gradient) each carried residual gave, keyed by the
    id of its factor; filled as the solvers run."""
    last, carried = {}, solvers._Residual.__call__

    def record(residual):
        last[id(residual.F)] = carried(residual)
        return last[id(residual.F)]

    monkeypatch.setattr(solvers._Residual, "__call__", record)
    return last


def _relative_errors(evaluation, oracle, x) -> tuple[float, float]:
    """Relative errors of a carried (value, gradient) against a fresh oracle
    call at x."""
    (value, grad), (fresh_value, fresh_grad) = evaluation, oracle(x)
    return (abs(value - fresh_value) / abs(fresh_value),
            float(np.linalg.norm(grad - fresh_grad) / np.linalg.norm(fresh_grad)))


class TestCarriedResidual:
    """A carried residual drifts from F x - h by rounding only: at the last
    row of long runs its value and gradient match a fresh oracle call to
    1e-12, relative."""

    def test_exact_standard_cg_after_2000_rows(self, monkeypatch):
        # The planted point lies inside the unit ball, where g* = 0 and the
        # residual shrinks to rounding noise with nothing to be relative to;
        # at radius 0.5 the optimum is not 0.
        data, _ = synthetic_regression_data(n=100, d=5000, seed=0)
        inst, _ = regression_problem(data=data, l1_radius=0.5)
        last = _last_carried(monkeypatch)
        out = standard_cg(inst.lower, inst.region, SolverConfig(eps_f=1e-300, max_iters=2000),
                          line_search="exact")
        assert len(out.trace) == 2001 and out.trace[-1].f_val > 0.1
        value_err, grad_err = _relative_errors(last[id(inst.lower.quadratic.F)], inst.lower, out.final_point)
        assert value_err <= 1e-12 and grad_err <= 1e-12

    def test_cg_bio_after_1000_iterations(self, monkeypatch):
        inst, _ = regression_problem(n=100, d=5000, seed=0)
        x0, _, _ = initialize_lower(inst, 1e-5)
        last = _last_carried(monkeypatch)
        out = cg_bio(inst, x0, SolverConfig(eps_f=1e-12, eps_g=1e-12, max_iters=1000))
        assert len(out.trace) == 1001
        for oracle in (inst.upper, inst.lower):
            value_err, grad_err = _relative_errors(last[id(oracle.quadratic.F)], oracle, out.final_point)
            assert value_err <= 1e-12 and grad_err <= 1e-12


class TestInitializeLower:
    def test_l1_start_at_d5000_holds_its_atoms_on_their_support(self):
        # About 200 +-r e_i atoms: as dense vectors, and again as dict keys,
        # they took 12 MB; on their support they take well under 1 MB.
        inst, _ = regression_problem(n=100, d=5000, seed=0)
        tracemalloc.start()
        try:
            initialize_lower(inst, 1e-5, line_search="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

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

    def test_uncertified_start_never_meets_the_criterion(self):
        inst = toy_problem()
        # (0, 0) is feasible but far from lower-level optimal: g(0) - g* = 1.
        # A row passes the stop test, yet the start voids its guarantee.
        out = cg_bio(inst, np.zeros(2), SolverConfig(eps_f=0.01, eps_g=0.01, max_iters=200))
        assert out.certified is False and out.init_certificate == pytest.approx(1.0)
        assert out.stop_reason == "uncertified_start"
        assert out.iterations < 200

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

    def test_factored_tag_gives_the_bits_of_the_explicit_gram(self):
        from dataclasses import replace

        inst, data = regression_problem(n=100, d=150, seed=0)
        A = data.validation[0]
        factored = inst.upper.quadratic
        np.testing.assert_array_equal(factored.F, A)
        explicit = QuadraticForm(A.T @ A, factored.linear(), 0.5 * float(factored.h @ factored.h))
        dense = replace(inst, upper=replace(inst.upper, quadratic=explicit))
        config = MngConfig(M=inst.lower.lipschitz_grad)
        a, b = mng(inst, config, max_iters=30), mng(dense, config, max_iters=30)
        assert a.stop_reason == b.stop_reason
        np.testing.assert_array_equal(a.final_point, b.final_point)
        for ra, rb in zip(a.trace, b.trace, strict=True):
            assert (ra.f_val, ra.g_val) == (rb.f_val, rb.g_val)


class TestQuadraticSubproblem:
    def test_unconstrained_minimum_when_no_constraints(self):
        quad = QuadraticForm(np.eye(2), np.array([-1.0, -2.0]), 0.0)
        x = minimize_quadratic_over_halfspaces(quad, [])
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-10)

    def test_active_constraint_binds(self):
        quad = QuadraticForm(np.eye(2), np.zeros(2), 0.0)
        # require x1 >= 1 (written <(-1,0), x> <= -1)
        x = minimize_quadratic_over_halfspaces(quad, [Halfspace(np.array([-1.0, 0.0]), -1.0)])
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-10)

    def test_inactive_constraint_ignored(self):
        quad = QuadraticForm(np.eye(2), np.array([-2.0, 0.0]), 0.0)
        x = minimize_quadratic_over_halfspaces(quad, [Halfspace(np.array([-1.0, 0.0]), -1.0)])
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-10)

    def test_two_constraints_intersect(self):
        quad = QuadraticForm(np.eye(2), np.zeros(2), 0.0)
        cons = [Halfspace(np.array([-1.0, 0.0]), -1.0), Halfspace(np.array([0.0, -1.0]), -2.0)]
        x = minimize_quadratic_over_halfspaces(quad, cons)
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-10)

    def test_infeasible_constraints_raise(self):
        quad = QuadraticForm(np.eye(1), np.zeros(1), 0.0)
        # x >= 1 and x <= 0 have no common point.
        with pytest.raises(OracleError):
            minimize_quadratic_over_halfspaces(quad, [Halfspace(np.array([-1.0]), -1.0), Halfspace(np.array([1.0]), 0.0)])

    def test_singular_hessian_picks_a_point_on_the_minimizing_line(self):
        # 0.5 (x1 + x2)^2 - (x1 + x2) is minimized on the line x1 + x2 = 1.
        quad = QuadraticForm(np.ones((2, 2)), np.array([-1.0, -1.0]), 0.0)
        x = minimize_quadratic_over_halfspaces(quad, [Halfspace(np.array([-1.0, 0.0]), -2.0)])
        assert x[0] >= 2.0 - 1e-9
        assert x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_feasible_candidate_with_a_negative_multiplier_is_passed_over(self):
        # 0.5 (x - 5)^2 over 0 <= x <= 3: the active set {x >= 0} gives the
        # first feasible candidate x = 0, with multiplier -5.
        quad = QuadraticForm(np.eye(1), np.array([-5.0]), 12.5)
        x = minimize_quadratic_over_halfspaces(quad, [Halfspace(np.array([-1.0]), 0.0), Halfspace(np.array([1.0]), 3.0)])
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
