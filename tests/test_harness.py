import json
import multiprocessing

import numpy as np
import pytest

from bilevelcg import harness, solvers
from bilevelcg.checks import random_convex_instance
from bilevelcg.core import (
    BilevelInstance,
    ConstantStep,
    Harmonic,
    InvSqrt,
    L1Ball,
    Polytope,
    QuadraticForm,
    ReferenceData,
    SmoothOracle,
    SolveOutcome,
    SolverConfig,
    TraceRow,
)
from bilevelcg.harness import (
    HoelderParams,
    RunRecord,
    SuiteError,
    config_from_dict,
    config_to_dict,
    dist_to_hull,
    fairness_metrics,
    hoelder_estimate,
    parse_schedule,
    value_transfer_check,
    read_trace_csv,
    recovery_rate,
    reference_bilevel,
    reference_lower,
    run_experiment,
    true_fw_gap,
    write_trace_csv,
)
from bilevelcg.problems import synthetic_fair_data, toy_problem


def face_instance(upper, verts):
    """``upper`` over a constant-zero lower level whose declared solution
    face is the hull of the rows of ``verts``."""
    dim = upper.dimension
    lower = SmoothOracle(dim, lambda x: (0.0, np.zeros(dim)), lipschitz_grad=0.0)
    return BilevelInstance(
        upper, lower, L1Ball(10.0, dim),
        ReferenceData(g_star=0.0, lower_solution_set=np.asarray(verts, float)),
    )


def quad_instance(F, h, segment, q=None):
    """Convex quadratic upper level 0.5 |Fx - h|^2 + q'x with a
    constant-zero lower level whose declared solution face is the given
    segment (or vertex list)."""
    form = QuadraticForm(np.asarray(F, float), np.asarray(h, float), None if q is None else np.asarray(q, float))
    return face_instance(SmoothOracle(form.F.shape[1], quadratic=form), segment)


# sum(exp(x_i) - x_i), minimized at the origin with value 2: no quadratic
# tag, so the hull minimizer runs backtracking conditional gradient.
EXP_SUM = SmoothOracle(2, lambda x: (float(np.sum(np.exp(x) - x)), np.exp(x) - 1.0))
TRIANGLE = [[-1.0, -1.0], [3.0, -1.0], [-1.0, 3.0]]


def regular_polygon(n):
    """The vertices of the regular n-gon of unit circumradius."""
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


POLYGON_20 = regular_polygon(20)
# The 28 random instances of the cut, descent and convex-rate checks; each
# solution face is an edge of the unit box.
CHECK_INSTANCES = (
    [(100 + i, 2 + i % 2) for i in range(4)]
    + [(200 + i, 2 + i % 2) for i in range(4)]
    + [(300 + i, 2 + i % 2) for i in range(20)]
)


def segment_point(a, b, t):
    """The point of the segment [a, b] at parameter t clipped to [0, 1]."""
    return a + min(1.0, max(0.0, t)) * (b - a)


def point_to_segment(x, a, b):
    e = b - a
    return float(np.linalg.norm(x - segment_point(a, b, float((x - a) @ e) / float(e @ e))))


class TestReferenceLower:
    def test_toy_is_exact(self):
        assert reference_lower(toy_problem()) == -1.0

    def test_constant_objective_immediate(self):
        oracle = SmoothOracle(2, lambda x: (3.5, np.zeros(2)))
        inst = BilevelInstance(oracle, oracle, L1Ball(1.0, 2))
        assert reference_lower(inst) == pytest.approx(3.5)

    def test_budget_exhaustion_reports_gap(self):
        # Pairwise steps solve a quadratic with an interior optimum in two
        # exact line searches; this smooth objective takes 23 backtracking
        # steps to its interior optimum (0.3, -0.2).
        c = np.array([0.3, -0.2])
        oracle = SmoothOracle(2, lambda x: (float(np.sum(np.exp(x - c) - (x - c))), np.exp(x - c) - 1.0))
        inst = BilevelInstance(oracle, oracle, L1Ball(1.0, 2))
        with pytest.raises(RuntimeError, match="achieved gap"):
            reference_lower(inst, tol=1e-16, max_iters=5)

    def test_certified_on_the_last_allowed_row(self):
        # Criterion 3's instance certifies tol 1e-5 at row 13, the last one
        # a budget of 13 steps allows.
        from bilevelcg.problems import fair_classification_problem

        inst, _ = fair_classification_problem(n=40, d=3, seed=7, l1_radius=2.0)
        g_star = 0.5834508808330577
        assert 0.0 <= reference_lower(inst, tol=1e-5, max_iters=13) - g_star <= 1e-5

    def test_fair_instance_certified_at_default_tol(self):
        # Criterion 3's instance; g* from 400k accelerated projected-gradient
        # steps.  Vanilla FW needs 178,639 steps for tol 1e-6 alone.
        from bilevelcg.problems import fair_classification_problem

        inst, _ = fair_classification_problem(n=40, d=3, seed=7, l1_radius=2.0)
        g_star = 0.5834508808330577
        assert 0.0 <= reference_lower(inst, max_iters=100) - g_star <= 1e-9

    def test_linear_objective_over_five_dimensional_polytope(self):
        rng = np.random.default_rng(0)
        region = Polytope(
            A=np.vstack([np.eye(5), rng.uniform(0.2, 1.0, size=(2, 5))]),
            b=np.concatenate([np.ones(5), [1.5, 2.0]]),
        )
        c = rng.standard_normal(5)
        form = QuadraticForm(np.zeros((0, 5)), np.zeros(0), c)
        oracle = SmoothOracle(5, lambda x: (float(c @ x), c), lipschitz_grad=0.0, quadratic=form)
        inst = BilevelInstance(oracle, oracle, region)
        vertex_min = min(float(c @ v) for v in region.vertices())
        assert reference_lower(inst) == pytest.approx(vertex_min, abs=1e-12)


class TestReferenceBilevel:
    def test_toy_value(self):
        assert reference_bilevel(toy_problem()) == pytest.approx(-0.08, abs=1e-9)

    def test_constant_upper(self):
        upper = SmoothOracle(2, lambda x: (2.0, np.zeros(2)))
        lower = SmoothOracle(2, lambda x: (0.0, np.zeros(2)), lipschitz_grad=0.0)
        inst = BilevelInstance(
            upper, lower, L1Ball(1.0, 2),
            ReferenceData(g_star=0.0, lower_solution_set=np.array([[0.0, 0.0], [1.0, 0.0]])),
        )
        assert reference_bilevel(inst) == pytest.approx(2.0)

    def test_single_vertex_face(self):
        inst = quad_instance(np.eye(2), np.zeros(2), [[0.5, 0.5]])
        assert reference_bilevel(inst) == pytest.approx(0.25)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_quadratic_over_segment_matches_grid(self, seed):
        rng = np.random.default_rng(seed)
        F = np.vstack([rng.standard_normal((2, 2)), np.sqrt(0.1) * np.eye(2)])  # F'F = B'B + 0.1 I
        q = rng.standard_normal(2)
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        inst = quad_instance(F, np.zeros(4), [a, b], q=q)
        t = np.linspace(0.0, 1.0, 100_001)
        pts = np.outer(1 - t, a) + np.outer(t, b)
        grid_min = min(inst.upper.value(p) for p in pts)
        assert reference_bilevel(inst, tol=1e-9) == pytest.approx(grid_min, abs=1e-6)

    def test_hull_minimization_over_triangle(self):
        verts = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]
        inst = quad_instance(np.eye(2), np.zeros(2), verts, q=[-0.5, -0.5])
        # unconstrained minimum (0.5, 0.5) lies inside the triangle
        assert reference_bilevel(inst, tol=1e-10) == pytest.approx(-0.25, abs=1e-8)

    @pytest.mark.parametrize("verts, q, expected", [
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0], -0.75),  # optimum on an edge
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [-3.0, 0.0], -2.5),  # optimum at a vertex
        ([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [-0.5, -1.0], -0.125),  # duplicate vertex
    ])
    def test_quadratic_over_unit_triangle(self, verts, q, expected):
        inst = quad_instance(np.eye(2), np.zeros(2), verts, q=q)
        assert reference_bilevel(inst) == pytest.approx(expected, abs=1e-12)

    def test_smooth_objective_over_triangle(self):
        # The optimum (0, 0) is interior and away from the barycenter (1/3, 1/3).
        inst = face_instance(EXP_SUM, TRIANGLE)
        assert reference_bilevel(inst, tol=1e-6) == pytest.approx(2.0, abs=1e-9)

    def test_smooth_objective_with_optimum_on_an_edge(self):
        # The optimum (0, 0) is on the bottom edge.  Pairwise steps certify it
        # in 58 steps; vanilla FW is still at gap 7e-6 after 100,000.
        inst = face_instance(EXP_SUM, [[-1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        assert reference_bilevel(inst, tol=1e-10, max_iters=200) == pytest.approx(2.0, abs=1e-10)

    def test_budget_exhaustion_raises(self):
        inst = face_instance(EXP_SUM, TRIANGLE)
        with pytest.raises(RuntimeError, match="budget exhausted"):
            reference_bilevel(inst, tol=1e-12, max_iters=50)

    def test_quadratic_over_twenty_gon(self):
        # Pairwise conditional gradient with exact line search; the minimum
        # (0.2, -0.1) is interior.
        Q = np.diag([1.0, 3.0])
        x_min = np.array([0.2, -0.1])
        inst = quad_instance(np.sqrt(Q), np.zeros(2), POLYGON_20, q=-Q @ x_min)
        expected = -0.5 * float(x_min @ Q @ x_min)
        assert reference_bilevel(inst, tol=1e-12) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed, dim", CHECK_INSTANCES)
    def test_check_instances_match_the_closed_form_edge_minimum(self, seed, dim):
        # f(a + t e) is a parabola in t: its minimum over [0, 1] is at
        # t = -<grad f(a), e> / |F e|^2, clipped.
        inst = random_convex_instance(seed, dim)
        a, b = inst.reference.lower_solution_set
        e = b - a
        image = inst.upper.quadratic.F @ e
        t = -float(inst.upper.gradient(a) @ e) / float(image @ image)
        expected = inst.upper.value(segment_point(a, b, t))
        assert reference_bilevel(inst, tol=1e-10) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_hull_minimization_solves_no_least_squares(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
        reference_bilevel(quad_instance(np.eye(2), np.zeros(2), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], q=[-1.0, -1.0]))
        reference_bilevel(random_convex_instance(300, 2), tol=1e-10)
        dist_to_hull(np.array([2.0, 0.3]), regular_polygon(16))
        assert calls == []

    def test_missing_face_rejected(self):
        oracle = SmoothOracle(5, lambda x: (0.0, np.zeros(5)))
        inst = BilevelInstance(oracle, oracle, L1Ball(1.0, 5))
        with pytest.raises(ValueError):
            reference_bilevel(inst)


class TestTrueFwGap:
    def test_toy_at_corner(self):
        assert true_fw_gap(toy_problem(), np.array([1.0, 0.0])) == pytest.approx(0.2)

    def test_toy_at_optimum(self):
        assert abs(true_fw_gap(toy_problem(), np.array([0.6, 0.4]))) <= 1e-9

    def test_zero_at_stationary_point(self):
        inst = quad_instance(np.eye(2), np.zeros(2), [[0.0, 0.0], [0.0, 0.0]])
        # gradient vanishes at the origin, which lies on the face
        assert true_fw_gap(inst, np.zeros(2)) == 0.0


class TestDistToHull:
    def test_point_segment_triangle(self):
        seg = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert dist_to_hull(np.array([0.5, 2.0]), seg) == pytest.approx(2.0)
        assert dist_to_hull(np.array([2.0, 0.0]), seg) == pytest.approx(1.0)
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert dist_to_hull(np.array([0.25, 0.25]), tri) == pytest.approx(0.0, abs=1e-7)
        assert dist_to_hull(np.array([1.0, 1.0]), tri) == pytest.approx(np.sqrt(0.5), abs=1e-7)
        assert dist_to_hull(np.array([3.0, 0.0]), tri) == pytest.approx(2.0, abs=1e-12)

    def test_twenty_gon(self):
        assert dist_to_hull(np.array([2.0, 0.3]), POLYGON_20) == pytest.approx(1.034618680107207, abs=1e-9)
        assert dist_to_hull(np.array([0.1, -0.2]), POLYGON_20) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [16, 200])
    @pytest.mark.parametrize("x", [[2.0, 0.3], [0.0, -1.5], [1.2, 1.2], [0.3, 0.1]])
    def test_regular_polygon_matches_the_nearest_edge(self, n, x):
        verts, x = regular_polygon(n), np.array(x)
        nearest = min(point_to_segment(x, verts[i], verts[(i + 1) % n]) for i in range(n))
        if x @ x < 0.5:  # inside the polygon
            nearest = 0.0
        assert dist_to_hull(x, verts) == pytest.approx(nearest, abs=1e-12)

    def test_twenty_gon_certified_in_few_steps(self, monkeypatch):
        runs = []

        def recording_cg(*args, **kwargs):
            runs.append(solvers.standard_cg(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(harness, "standard_cg", recording_cg)
        dist_to_hull(np.array([2.0, 0.3]), POLYGON_20)
        (out,) = runs
        assert out.stop_reason == "criterion_met"
        assert out.trace[-1].surrogate_f_gap <= 1e-16
        assert out.iterations <= 10  # the cap is 500


class TestHoelder:
    def test_toy_gradient_bound(self):
        params = hoelder_estimate(toy_problem())
        assert params.M == pytest.approx(np.hypot(0.5, 0.1), abs=1e-6)
        assert params.alpha > 0.0

    def test_toy_constants_in_closed_form(self):
        # alpha at the vertex (0, 5/6), 1/6 above g* and sqrt(13)/6 from the
        # face point (0.5, 0.5); M at the face vertex (1, 0).
        params = hoelder_estimate(toy_problem())
        assert params.order == 1.0
        assert abs(params.alpha - 1.0 / np.sqrt(13.0)) <= 1e-15
        assert abs(params.M - np.sqrt(0.26)) <= 1e-15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HoelderParams(alpha=0.0, order=1.0, M=1.0)
        with pytest.raises(ValueError):
            HoelderParams(alpha=1.0, order=0.5, M=1.0)

    def test_degenerate_face_covering_region_rejected(self):
        # lower level constant on the whole region: every vertex is on the
        # face, leaving no exterior vertex to compute the modulus from
        reg = Polytope(A=np.eye(2), b=np.ones(2))
        lower = SmoothOracle(
            2, lambda x: (0.0, np.zeros(2)), lipschitz_grad=0.0,
            quadratic=QuadraticForm(np.zeros((0, 2)), np.zeros(0)),
        )
        upper = SmoothOracle(
            2, lambda x: (float(x @ x), 2 * x), quadratic=QuadraticForm(np.sqrt(2.0) * np.eye(2), np.zeros(2)),
        )
        inst = BilevelInstance(
            upper, lower, reg,
            ReferenceData(g_star=0.0, lower_solution_set=reg.vertices()),
        )
        with pytest.raises(ValueError, match="no vertex"):
            hoelder_estimate(inst)

    def test_value_transfer_over_a_zero_lower_level(self):
        # g = 0 (a tag with no rows and no linear term): every point of the
        # box is optimal, and min |x|^2 over it is f* = 0, at the origin.
        reg = Polytope(A=np.eye(2), b=np.ones(2))
        lower = SmoothOracle(2, quadratic=QuadraticForm(np.zeros((0, 2)), np.zeros(0)))
        upper = SmoothOracle(2, quadratic=QuadraticForm(np.sqrt(2.0) * np.eye(2), np.zeros(2)))
        inst = BilevelInstance(upper, lower, reg, ReferenceData(g_star=0.0, lower_solution_set=reg.vertices()))
        assert harness._least_upper_excess(inst, 1e-3) == pytest.approx(0.0, abs=1e-12)
        assert value_transfer_check(inst, HoelderParams(1.0, 1.0, M=1.0), eps_g=1e-3)

    def test_value_transfer_bound_holds_on_toy(self):
        inst = toy_problem()
        params = hoelder_estimate(inst)
        assert value_transfer_check(inst, params, eps_g=1e-3)

    def test_value_transfer_check_can_fail(self):
        # min f - f* over the 1e-3-optimal points is -1e-4; M = 0.01 bounds
        # the drop by 0.01 * 1e-3 / alpha = 3.6e-5.
        inst = toy_problem()
        alpha = hoelder_estimate(inst).alpha
        assert not value_transfer_check(inst, HoelderParams(alpha, 1.0, M=0.01), eps_g=1e-3)

    def test_other_instances_rejected(self):
        from bilevelcg.problems import fair_classification_problem

        inst, _ = fair_classification_problem(n=40, d=3, seed=7, l1_radius=2.0)
        assert isinstance(inst.region, L1Ball)
        with pytest.raises(ValueError):
            hoelder_estimate(inst)


class TestFairnessMetrics:
    def make_split(self, preds_group_a, preds_group_b):
        """Dataset whose test block realizes the given positive rates."""
        na, nb = len(preds_group_a), len(preds_group_b)
        n = na + nb
        X = np.zeros((n, 1))
        X[:na, 0] = np.where(np.array(preds_group_a), 1.0, -1.0)
        X[na:, 0] = np.where(np.array(preds_group_b), 1.0, -1.0)
        v = np.concatenate([np.zeros(na), np.ones(nb)])
        y = (X[:, 0] > 0).astype(float)
        idx = np.arange(n)
        from bilevelcg.problems import DatasetSplit

        return DatasetSplit(
            X, y, idx[:0], idx[:0], idx, sensitive=v
        )

    def metric(self, a, b):
        split = self.make_split(a, b)
        return fairness_metrics(np.array([1.0]), split)

    def test_equal_rates_give_100(self):
        m = self.metric([True, False], [True, False])
        assert m["p_rule"] == 100.0
        assert m["accuracy"] == 1.0

    def test_rate_ratio(self):
        m = self.metric([True, False, False, False], [True, True, False, False])
        assert m["p_rule"] == pytest.approx(50.0)

    def test_one_zero_rate_gives_0(self):
        m = self.metric([False, False, False], [True, False, False])
        assert m["p_rule"] == 0.0

    def test_both_zero_rates_give_100(self):
        m = self.metric([False, False], [False, False])
        assert m["p_rule"] == 100.0

    def test_requires_sensitive_attribute(self):
        data = synthetic_fair_data(n=20, d=2, seed=0)
        from bilevelcg.problems import DatasetSplit

        stripped = DatasetSplit(
            data.features, data.targets, data.train_idx, data.val_idx, data.test_idx
        )
        with pytest.raises(ValueError):
            fairness_metrics(np.zeros(2), stripped)


class TestRecoveryRate:
    def test_self_match(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((10, 6))
        assert recovery_rate(D, D) == 1.0

    def test_orthogonal_no_match(self):
        truth = np.eye(4)[:, :2]
        learned = np.eye(4)[:, 2:]
        assert recovery_rate(learned, truth) == 0.0

    def test_half_match(self):
        truth = np.eye(4)
        learned = np.eye(4)[:, :2]
        assert recovery_rate(learned, truth) == 0.5


class TestPersistence:
    def make_outcome(self):
        rows = tuple(
            TraceRow(k=i, f_val=float(np.pi) * i, g_val=-1.0 / (i + 1),
                     surrogate_f_gap=10.0 ** -i, surrogate_g_gap=float("nan"),
                     wall_nanos=0)
            for i in range(4)
        )
        return SolveOutcome(np.zeros(2), "budget_exhausted", rows)

    def test_trace_round_trip_bit_exact(self, tmp_path):
        out = self.make_outcome()
        path = tmp_path / "trace.csv"
        write_trace_csv(path, out.trace)
        back = read_trace_csv(path)
        for a, b in zip(out.trace, back):
            assert a.k == b.k
            assert (a.f_val == b.f_val) and (a.g_val == b.g_val)
            assert a.surrogate_f_gap == b.surrogate_f_gap
            assert np.isnan(b.surrogate_g_gap)

    def test_summary_consistent_with_trace_tail(self):
        out = self.make_outcome()
        record = RunRecord("toy", "cg-bio", {"eps_f": 1e-5}, 0, out)
        s = record.summary
        assert s["iterations"] == out.trace[-1].k
        assert s["final_f_gap"] == out.trace[-1].surrogate_f_gap
        assert s["final_g_gap"] is None  # NaN serialized as null
        assert s["stop_reason"] == out.stop_reason
        assert (s["final_f"], s["final_g"]) == (out.trace[-1].f_val, out.trace[-1].g_val)
        assert s["final_g_excess"] is None  # no g* given
        with_star = RunRecord("toy", "cg-bio", {"eps_f": 1e-5}, 0, out, g_star=-1.0).summary
        assert with_star["final_g_excess"] == out.trace[-1].g_val + 1.0

    def test_schedule_string_round_trip(self):
        for text in ("harmonic:2", "harmonic:12", "constant:0.25", "inv-sqrt:0.3"):
            assert str(parse_schedule(text)) == text

    def test_schedule_defaults(self):
        assert parse_schedule("harmonic") == Harmonic(2)
        assert parse_schedule("inv-sqrt") == InvSqrt(1.0)
        with pytest.raises(TypeError, match="gamma"):
            parse_schedule("constant")

    def test_config_dict_round_trip(self):
        cfg = SolverConfig(eps_f=1e-3, eps_g=1e-4, max_iters=77)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def _count_claims(pending, claims, slot, start, counts):
    """Claim pending indices until none is left, counting them; the target
    of the contention test's processes."""
    start.wait()
    while harness._claim(pending, claims, slot) is not None:
        counts[slot] += 1


class _Spawn:
    """The spawn context with a stand-in Process class."""

    _real = multiprocessing.get_context("spawn")

    def __init__(self, process):
        self.Process = process

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestRunExperiment:
    def test_empty_suite(self, tmp_path):
        assert run_experiment([], str(tmp_path)) == []

    @pytest.mark.parametrize("where", ["file", "under-a-file"])
    def test_unmakeable_output_directory_is_a_suite_error(self, tmp_path, monkeypatch, where):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = taken if where == "file" else taken / "runs"
        ran = []
        monkeypatch.setattr(harness, "_run_cell", lambda *args: ran.append(args))
        cells = [{"instance": "toy", "solver": "cg-bio"}]
        with pytest.raises(SuiteError, match="cannot make the output directory"):
            run_experiment(cells, str(out), jobs=1)
        assert ran == []

    def test_toy_cell_produces_files(self, tmp_path):
        cells = [{"instance": "toy", "solver": "cg-bio",
                  "config": {"eps_f": 1e-5, "eps_g": 1e-5}, "seed": 0}]
        summaries = run_experiment(cells, str(tmp_path))
        assert summaries[0]["stop_reason"] == "criterion_met"
        assert summaries[0]["iterations"] <= 40
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["000_toy_cg-bio_seed0.csv", "000_toy_cg-bio_seed0.json"]

    def test_record_timing_persists_wall_nanos(self, tmp_path):
        cells = [{"instance": "toy", "solver": "cg-bio",
                  "config": {"eps_f": 1e-5, "eps_g": 1e-5}, "seed": 0}]
        summaries = run_experiment(cells, str(tmp_path), record_timing=True)
        rows = read_trace_csv(tmp_path / "000_toy_cg-bio_seed0.csv")
        assert summaries[0]["wall_nanos_total"] == sum(r.wall_nanos for r in rows) > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cells = [{"instance": "toy", "solver": "cg-bio",
                  "config": {"eps_f": 1e-5, "eps_g": 1e-5}, "seed": 0}]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cells, str(d1))
        run_experiment(cells, str(d2))
        for name in ("000_toy_cg-bio_seed0.csv", "000_toy_cg-bio_seed0.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_resume_skips_completed_cells(self, tmp_path):
        cells = [{"instance": "toy", "solver": "cg-bio",
                  "config": {"eps_f": 1e-5, "eps_g": 1e-5}, "seed": 0}]
        run_experiment(cells, str(tmp_path))
        stamp = (tmp_path / "000_toy_cg-bio_seed0.json").stat().st_mtime_ns
        run_experiment(cells, str(tmp_path))
        assert (tmp_path / "000_toy_cg-bio_seed0.json").stat().st_mtime_ns == stamp

    def test_resume_reruns_a_cell_whose_config_changed(self, tmp_path):
        cell = {"instance": "toy", "solver": "cg-bio",
                "config": {"eps_f": 1e-5, "eps_g": 1e-5, "max_iters": 3}, "seed": 0}
        first = run_experiment([cell], str(tmp_path))[0]
        assert first["iterations"] == 3
        cell["config"]["max_iters"] = 200
        second = run_experiment([cell], str(tmp_path))[0]
        assert second["stop_reason"] == "criterion_met"
        assert second["iterations"] < 200
        assert second["cell_sha256"] != first["cell_sha256"]
        stored = json.loads((tmp_path / "000_toy_cg-bio_seed0.json").read_text())
        assert stored == second

    def test_resume_reruns_every_cell_after_a_source_change(self, tmp_path, monkeypatch):
        cells = [{"instance": "toy", "solver": "cg-bio", "config": {"eps_f": 1e-5, "eps_g": 1e-5}, "seed": 0},
                 {"instance": "toy", "solver": "dbgd", "config": {"max_iters": 5}}]
        first = run_experiment(cells, str(tmp_path), jobs=1)
        assert {summary["source_sha256"] for summary in first} == {harness._source_hash()}
        files = sorted(tmp_path.iterdir())
        written = {path.name: path.read_bytes() for path in files}
        stamps = [path.stat().st_mtime_ns for path in files]
        # The same code resumes: nothing runs, and the files keep their bytes.
        assert run_experiment(cells, str(tmp_path), jobs=1) == first
        assert [path.stat().st_mtime_ns for path in files] == stamps
        assert {path.name: path.read_bytes() for path in files} == written
        # Other code: every cell runs again, and records the new fingerprint.
        monkeypatch.setattr(harness, "_source_hash", lambda: "0" * 64)
        runs, run_cell = [], harness._run_cell

        def recorded(cell, *args):
            runs.append(cell)
            run_cell(cell, *args)

        monkeypatch.setattr(harness, "_run_cell", recorded)
        again = run_experiment(cells, str(tmp_path), jobs=1)
        assert runs == cells
        assert [summary["source_sha256"] for summary in again] == ["0" * 64] * 2
        assert [dict(summary, source_sha256=None) for summary in again] == [
            dict(summary, source_sha256=None) for summary in first]

    @pytest.mark.parametrize("stored", ['{"instance": "to', "[]", "\xff"], ids=["truncated", "a-list", "not-utf8"])
    def test_resume_reruns_a_cell_whose_summary_is_unreadable(self, tmp_path, stored):
        cells = [{"instance": "toy", "solver": "dbgd", "config": {"max_iters": 5}}]
        first = run_experiment(cells, str(tmp_path), jobs=1)
        summary_path = tmp_path / "000_toy_dbgd_seed0.json"
        expected = summary_path.read_bytes()
        summary_path.write_bytes(stored.encode("latin-1"))
        assert run_experiment(cells, str(tmp_path), jobs=1) == first
        assert summary_path.read_bytes() == expected

    def test_failed_rerun_leaves_no_stale_trace(self, tmp_path):
        cell = {"instance": "toy", "solver": "mng", "config": {"max_iters": 4}, "seed": 0,
                "solver_options": {"M": 1.0}}
        run_experiment([cell], str(tmp_path))
        trace = tmp_path / "000_toy_mng_seed0.csv"
        assert len(read_trace_csv(trace)) == 5
        # The toy lower level is linear, so without M the run itself fails.
        del cell["solver_options"]
        summary = run_experiment([cell], str(tmp_path))[0]
        assert summary["stop_reason"].startswith("error:") and "solver_options.M" in summary["stop_reason"]
        # The earlier config's trace must not sit beside the new summary.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["000_toy_mng_seed0.json"]

    def test_cell_failure_recorded_suite_continues(self, tmp_path):
        cells = [
            # The toy lower level is linear: MNG has no default M.
            {"instance": "toy", "solver": "mng", "config": {}, "seed": 0},
            {"instance": "toy", "solver": "cg-bio",
             "config": {"eps_f": 1e-5, "eps_g": 1e-5}, "seed": 0},
        ]
        summaries = run_experiment(cells, str(tmp_path))
        assert summaries[0]["stop_reason"].startswith("error")
        assert summaries[1]["stop_reason"] == "criterion_met"

    def test_unknown_solver_option_is_a_suite_error(self, tmp_path):
        cells = [{"instance": "toy", "solver": "dbgd", "config": {"max_iters": 5},
                  "seed": 0, "solver_options": {"stpe": 0.1}}]
        with pytest.raises(SuiteError, match=r"cell 0: unknown options \['stpe'\] for solver 'dbgd'"):
            run_experiment(cells, str(tmp_path / "runs"))
        assert not (tmp_path / "runs").exists()

    def test_default_mng_on_a_linear_lower_level_names_M(self, tmp_path):
        # The toy lower level is linear, so L_g = 0 gives no default M.
        cells = [{"instance": "toy", "solver": "mng", "config": {"max_iters": 5}, "seed": 0}]
        summaries = run_experiment(cells, str(tmp_path))
        assert summaries[0]["stop_reason"].startswith("error:")
        assert "solver_options.M" in summaries[0]["stop_reason"]

    @pytest.mark.parametrize("solver, typo", [("cg-bio", "init_iter"), ("cg", "line_serach")])
    def test_unknown_option_of_cg_solvers_is_a_suite_error(self, tmp_path, solver, typo):
        cells = [{"instance": "toy", "solver": solver, "config": {"max_iters": 5},
                  "seed": 0, "solver_options": {typo: "exact"}}]
        with pytest.raises(SuiteError, match=f"cell 0: unknown options .*{typo}"):
            run_experiment(cells, str(tmp_path / "runs"))
        assert not (tmp_path / "runs").exists()

    def test_solver_options_take_their_declared_kinds(self):
        config = SolverConfig(max_iters=2)
        out = harness.run_solver(toy_problem(), "mng", config, options={"M": 2})
        assert out.iterations == 2
        with pytest.raises(TypeError, match="solver_options.init_iters must be an int"):
            harness.run_solver(toy_problem(), "cg-bio", config, options={"init_iters": 2.7})

    @pytest.mark.parametrize("bad, reason", [
        ({"instance": "toy", "solver": "cg-bio", "config": {"schedule": "bogus"}}, "unknown schedule"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"eps_f": -1}}, "tolerances"),
        ({"solver": "cg-bio"}, "missing 'instance'"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"max_iters": 10.5}}, "max_iters must be an int"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"max_iters": True}}, "max_iters must be an int"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"eps_f": True}}, "config.eps_f must be a real number"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"eps_g": float("nan")}}, "tolerances must be positive"),
        ({"instance": "toy", "solver": "cg-bio", "seed": 1.5}, "seed must be an int"),
        ({"instance": "regression", "solver": "cg-bio", "options": {"n": 10.5}}, "options.n must be an int"),
        ({"instance": "regression", "solver": "cg-bio", "options": {"n": True}}, "options.n must be an int"),
        ({"instance": "fair", "solver": "cg-bio", "options": {"d": "3"}}, "options.d must be an int"),
        ({"instance": "fair", "solver": "cg-bio", "options": {"l1_radius": False}}, "options.l1_radius must be a real"),
        ({"instance": "fair", "solver": "cg-bio", "options": {"l1_radius": "2"}}, "options.l1_radius must be a real"),
        ({"instance": "toy", "solver": "cg-bio", "options": [10]}, "options must be a JSON object"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"max_iter": 5}}, r"unknown options \['max_iter'\] for config"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"schedule": 5}}, "config.schedule must be a string"),
        ({"instance": "toy", "solver": "cg-bio", "config": "fast"}, "config must be a JSON object"),
        ({"instance": "toy", "solver": "mng", "solver_options": "fast"}, "solver_options must be a JSON object"),
        ({"instance": "toy", "solver": "mng", "solver_options": [["M", 1.0]]}, "solver_options must be a JSON object"),
        ({"instance": "fair", "solver": "cg-bio", "options": {"l1_radius": float("nan")}}, "options.l1_radius must be positive and finite"),
        ({"instance": "regression", "solver": "cg-bio", "options": {"l1_radius": float("inf")}}, "options.l1_radius must be positive and finite"),
        ({"instance": "regression", "solver": "cg-bio", "options": {"l1_radius": 0}}, "options.l1_radius must be positive and finite"),
        ({"instance": "nonsense", "solver": "cg-bio"}, "unknown instance 'nonsense'"),
        ({"instance": "regression", "solver": "cg-bio", "options": {"radius": 3.0}}, r"unknown options \['radius'\]"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"n": 3}}, r"unknown options \['n'\]"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"seed": 3}}, r"unknown options \['seed'\]"),
        ({"instance": "toy", "solver": "cg-bio", "options": {"n": 3}}, r"unknown options \['n'\]"),
        ({"instance": "toy", "solver": "cg-bio", "seed": -1}, "seed must be nonnegative"),
        ({"instance": "regression", "solver": "cg-bio", "options": {"n": 0}}, "options.n must be positive"),
        ({"instance": "fair", "solver": "cg-bio", "options": {"d": -2}}, "options.d must be positive"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"signal_dim": 2.5}}, "options.signal_dim must be an int"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"noise_sigma": "0.1"}}, "options.noise_sigma must be a real"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"l1_radius": -3.0}}, "options.l1_radius must be positive and finite"),
        ({"instance": "fair", "solver": "cg-bio", "options": {"csv": 5}}, "options.csv must be a string"),
        ({"instance": "toy", "solver": "nonsense"}, "unknown solver 'nonsense'"),
        ({"instance": "regression", "solver": "cg-bio", "options": {"csv": "data.csv"}}, "options.csv needs options.target"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"n_old": 0}}, "n_old must be at least 1"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"sparsity": 0}}, "sparsity must be at least 1"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"signal_dim": -1}}, "signal_dim must be at least 1"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"shared": -1, "new_dict_size": 9}}, "shared must be nonnegative"),
        ({"instance": "dict", "solver": "cg-bio", "options": {"old_dict_size": 41}}, "must tile the true dictionary"),
        ({"instance": "toy", "solver": "cg-bio", "solver_options": {"init_iters": True}}, "solver_options.init_iters must be an int"),
        ({"instance": "toy", "solver": "cg-bio", "solver_options": {"init_iters": 2.7}}, "solver_options.init_iters must be an int"),
        ({"instance": "toy", "solver": "cg-bio", "solver_options": {"init_iters": "3"}}, "solver_options.init_iters must be an int"),
        ({"instance": "toy", "solver": "cg-bio", "solver_options": {"init_iters": 0}}, "solver_options.init_iters must be positive"),
        ({"instance": "toy", "solver": "cg", "solver_options": {"line_search": "exactt"}}, "solver_options.line_search must be one of"),
        ({"instance": "toy", "solver": "big-sam", "solver_options": {"gama": 10.0}}, r"unknown options \['gama'\] for solver 'big-sam'"),
        ({"instance": "toy", "solver": "dbgd", "solver_options": {"step": False}}, "solver_options.step must be a real number"),
        ({"instance": "toy", "solver": "a-irg", "solver_options": {"gamma0": -1.0}}, "a-IRG rates must be positive"),
        ({"instance": "toy", "solver": "a-irg", "solver_options": {"eta0": float("inf")}}, "a-IRG rates must be positive and finite"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"schedule": "inv-sqrt:nan"}}, "inv-sqrt scale must be positive and finite"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"schedule": "inv-sqrt:inf"}}, "inv-sqrt scale must be positive and finite"),
        ({"instance": "toy", "solver": "cg-bio", "config": {"eps_f": float("inf")}}, "tolerances must be positive and finite"),
        ({"instance": "toy", "solver": "dbgd", "solver_options": {"alpha": float("nan")}}, "DBGD parameters must be finite"),
        ({"instance": "toy", "solver": "dbgd", "solver_options": {"g_hat": float("-inf")}}, "DBGD parameters must be finite"),
        ({"instance": "toy", "solver": "dbgd", "solver_options": {"step": float("inf")}}, "DBGD parameters must be finite"),
        ({"instance": "toy", "solver": "mng", "solver_options": {"M": float("nan")}}, "MNG smoothing constant must be positive and finite"),
        ({"instance": "toy", "solver": "big-sam", "solver_options": {"gamma": -1.0}}, "BiG-SAM steps must be positive and finite"),
        ({"instance": "toy", "solver": "big-sam", "solver_options": {"eta_f": float("nan")}}, "BiG-SAM steps must be positive and finite"),
        ({"instance": "toy", "solver": "big-sam", "solver_options": {"eta_g": float("inf")}}, "BiG-SAM steps must be positive and finite"),
        ({"instance": "toy", "solver": "cg-bio", "sed": 3}, r"unknown options \['sed'\] for a cell"),
        ({"instance": "toy", "solver": "cg-bio", "solver_opts": {}}, r"unknown options \['solver_opts'\] for a cell"),
        ({"instance": "toy", "solver": "cg-bio", "options": None}, "options must be a JSON object, got None"),
        ({"instance": "toy", "solver": "cg-bio", "options": []}, r"options must be a JSON object, got \[\]"),
        ({"instance": "toy", "solver": "cg-bio", "options": 0}, "options must be a JSON object, got 0"),
        ({"instance": 1, "solver": "cg-bio"}, "instance must be a string, got 1"),
    ])
    def test_malformed_cell_rejected_before_any_cell_runs(self, tmp_path, bad, reason):
        good = {"instance": "toy", "solver": "cg-bio", "config": {}, "seed": 0}
        with pytest.raises(SuiteError, match=f"cell 1: .*{reason}"):
            run_experiment([good, bad], str(tmp_path / "runs"))
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("jobs", [0, -1, True, False, 1.5, "2"])
    def test_bad_jobs_rejected_before_any_cell_runs(self, tmp_path, jobs):
        good = {"instance": "toy", "solver": "cg-bio", "config": {}, "seed": 0}
        with pytest.raises(SuiteError, match="jobs must be an int >= 1"):
            run_experiment([good, good], str(tmp_path / "runs"), jobs=jobs)
        assert not (tmp_path / "runs").exists()

    def test_serial_concurrent_and_resumed_calls_return_equal_lists(self, tmp_path):
        cells = [
            {"instance": "toy", "solver": "cg-bio", "config": {"eps_f": 1e-5, "eps_g": 1e-5}},
            {"instance": "toy", "solver": "dbgd", "config": {"max_iters": 30}, "seed": 1},
            {"instance": "fair", "solver": "dbgd", "config": {"max_iters": 30}, "options": {"n": 40, "d": 3}},
            {"instance": "toy", "solver": "mng"},  # no default M: an error summary
        ]
        serial = run_experiment(cells, str(tmp_path / "serial"), jobs=1)
        concurrent = run_experiment(cells, str(tmp_path / "concurrent"), jobs=2)
        resumed = run_experiment(cells, str(tmp_path / "serial"), jobs=2)
        assert serial == concurrent == resumed
        assert [s["solver"] for s in serial] == ["cg-bio", "dbgd", "dbgd", "mng"]
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "concurrent").iterdir())
        for name in names:
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "concurrent" / name).read_bytes()

    def test_concurrent_call_leaves_no_process(self, tmp_path):
        cells = [{"instance": "toy", "solver": "dbgd", "config": {"max_iters": 20}, "seed": seed}
                 for seed in range(4)]
        run_experiment(cells, str(tmp_path), jobs=4)
        assert multiprocessing.active_children() == []
        assert len(list(tmp_path.iterdir())) == 8

    def test_resumed_cells_start_no_process(self, tmp_path, monkeypatch):
        cells = [{"instance": "toy", "solver": "dbgd", "config": {"max_iters": 20}, "seed": seed}
                 for seed in range(3)]
        first = run_experiment(cells, str(tmp_path), jobs=1)

        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: _Spawn(no_process))
        assert run_experiment(cells, str(tmp_path), jobs=3) == first
        # One pending cell: the caller runs it.
        cells[1]["config"]["max_iters"] = 21
        assert run_experiment(cells, str(tmp_path), jobs=3)[1]["iterations"] == 21

    def test_contended_claims_take_each_cell_once(self):
        # More claimant processes than cores on one counter and lock,
        # released together: a lost update would hand an index out twice,
        # and the claim counts would add up to more than the pending cells.
        spawn = multiprocessing.get_context("spawn")
        pending, claimants = list(range(20_000)), max(3, harness._usable_cpus() + 1)
        claims = (spawn.RawValue("i", 0), spawn.Lock(), spawn.RawArray("i", [-1] * claimants))
        counts, start = spawn.RawArray("i", claimants), spawn.Barrier(claimants)
        procs = [spawn.Process(target=_count_claims, args=(pending, claims, slot, start, counts),
                               daemon=True) for slot in range(claimants)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60.0)
        assert not any(proc.is_alive() for proc in procs)
        assert [proc.exitcode for proc in procs] == [0] * claimants
        assert sum(counts) == len(pending)
        assert list(claims[2]) == [-1] * claimants

    def test_cell_claimed_by_a_worker_that_exits_is_run_by_the_caller(self, tmp_path, monkeypatch):
        cells = [{"instance": "toy", "solver": "dbgd", "config": {"max_iters": 20}, "seed": seed}
                 for seed in range(4)]
        serial = run_experiment(cells, str(tmp_path / "serial"), jobs=1)
        claimed = []

        class ClaimsAndExits:
            """A worker that claims one cell and exits without running it."""

            def __init__(self, target, args):
                self.args = args

            def start(self):
                suite, pending, out_dir, record_timing, claims, slot = self.args
                claimed.append(harness._claim(pending, claims, slot))

            def terminate(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: _Spawn(ClaimsAndExits))
        assert run_experiment(cells, str(tmp_path / "stub"), jobs=3) == serial
        assert claimed == [0, 1]
        for name in sorted(p.name for p in (tmp_path / "serial").iterdir()):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "stub" / name).read_bytes()

    def test_summary_json_well_formed(self, tmp_path):
        cells = [{"instance": "toy", "solver": "cg-bio",
                  "config": {"eps_f": 1e-5, "eps_g": 1e-5}, "seed": 3},
                 {"instance": "toy", "solver": "dbgd", "config": {"max_iters": 5}, "seed": 3}]
        run_experiment(cells, str(tmp_path))
        common = {
            "instance", "solver", "config", "stop_reason", "iterations", "final_f", "final_g",
            "final_g_excess", "final_f_gap", "final_g_gap", "wall_nanos_total", "seed", "cell_sha256",
            "source_sha256",
        }
        data = json.loads((tmp_path / "000_toy_cg-bio_seed3.json").read_text())
        assert set(data) == common | {"certified", "init_certificate", "init_iterations"}
        assert data["seed"] == 3
        assert data["certified"] is True and 0.0 <= data["init_certificate"] <= 5e-6
        assert data["init_iterations"] == solvers._start_run(toy_problem(), 1e-5).iterations > 0
        # A baseline's summary has no start to certify.
        assert set(json.loads((tmp_path / "001_toy_dbgd_seed3.json").read_text())) == common

    def test_summary_reports_the_last_rows_objective_values(self, tmp_path):
        cells = [{"instance": "toy", "solver": "dbgd", "config": {"max_iters": 5}},
                 {"instance": "fair", "solver": "dbgd", "config": {"max_iters": 5}, "options": {"n": 40, "d": 3}},
                 {"instance": "toy", "solver": "mng"}]  # no default M: a run-time error
        summaries = run_experiment(cells, str(tmp_path))
        trace = (tmp_path / "000_toy_dbgd_seed0.csv").read_text().splitlines()
        f_val, g_val = (float(v) for v in trace[-1].split(",")[1:3])
        toy = summaries[0]
        assert (toy["final_f"], toy["final_g"]) == (f_val, g_val)
        # The toy records g* = -1; the fair instance records none.
        assert toy["final_g_excess"] == g_val + 1.0
        assert summaries[1]["final_g"] is not None and summaries[1]["final_g_excess"] is None
        assert summaries[2]["stop_reason"].startswith("error:")
        assert [summaries[2][key] for key in ("final_f", "final_g", "final_g_excess")] == [None] * 3


class TestStartCertificate:
    """cg_bio records its start's certificate and never reports
    criterion_met from an uncertified start, whoever calls it."""

    # Fair instance whose start after one FW step is far from optimal
    # (certificate about 7) yet passes cg-bio's test at k = 0 with eps 0.1.
    FAIR = {"n": 40, "d": 3}
    LOOSE = SolverConfig(eps_f=0.1, eps_g=0.1, max_iters=50)

    def test_uncertified_start_gets_its_own_stop_reason(self):
        inst, _ = harness.build_instance("fair", 0, self.FAIR)
        out = harness.run_solver(inst, "cg-bio", self.LOOSE, options={"init_iters": 1})
        assert out.certified is False and out.init_certificate > 1.0
        assert out.stop_reason == "uncertified_start"
        assert out.iterations == 0
        # A direct cg_bio call from initialize_lower's start, without
        # run_solver, certifies the start the same way and reports the same.
        x0, cert, certified = solvers.initialize_lower(inst, self.LOOSE.eps_g, max_iters=1)
        assert (cert, certified) == (out.init_certificate, False)
        direct = solvers.cg_bio(inst, x0, self.LOOSE)
        assert (direct.stop_reason, direct.certified) == ("uncertified_start", False)

    def test_certified_start_meets_the_criterion(self):
        out = harness.run_solver(toy_problem(), "cg-bio", SolverConfig(eps_f=1e-5, eps_g=1e-5))
        assert out.certified is True and 0.0 <= out.init_certificate <= 5e-6
        assert out.stop_reason == "criterion_met"

    def test_mandated_start_is_certified_by_its_fw_gap(self):
        inst = toy_problem()
        x = np.array([0.5, 0.5])  # on the lower-level solution face
        config = SolverConfig(eps_f=1e-5, eps_g=1e-5)
        direct = solvers.cg_bio(inst, x, config)
        assert direct.certified is True and direct.init_certificate == pytest.approx(0.0, abs=1e-15)
        out = harness.run_solver(inst, "cg-bio", config, start=x)
        assert (out.init_certificate, out.certified) == (direct.init_certificate, True)

    def test_uncertified_summary_in_a_suite(self, tmp_path):
        cells = [{"instance": "fair", "solver": "cg-bio", "options": self.FAIR, "seed": 0,
                  "config": {"eps_f": 0.1, "eps_g": 0.1, "max_iters": 50},
                  "solver_options": {"init_iters": 1}}]
        summary = run_experiment(cells, str(tmp_path))[0]
        assert summary["stop_reason"] == "uncertified_start"
        assert summary["certified"] is False and summary["init_certificate"] > 1.0

    def test_direct_criterion_met_implies_the_certified_start(self):
        """Over init_iters, eps and two schedules, a direct cg_bio run that
        reports criterion_met has a certified start, and every run's
        certificate is initialize_lower's to the bit."""
        inst, _ = harness.build_instance("fair", 0, self.FAIR)
        reasons = set()
        for init_iters in (1, 2, 5, 10_000):
            for eps in (0.1, 0.01):
                x0, cert, certified = solvers.initialize_lower(inst, eps, max_iters=init_iters)
                for schedule in (Harmonic(2), ConstantStep(1e-3)):
                    config = SolverConfig(eps_f=eps, eps_g=eps, max_iters=50, schedule=schedule)
                    out = solvers.cg_bio(inst, x0, config)
                    assert out.init_certificate.hex() == cert.hex()
                    assert out.certified is certified
                    if out.stop_reason == "criterion_met":
                        assert out.certified is True
                    reasons.add(out.stop_reason)
        # Both sides of the rule occur, so the assertions above are not vacuous.
        assert {"criterion_met", "uncertified_start"} <= reasons
