import tracemalloc

import numpy as np
import pytest

from bilevelcg.core import BallProduct, L1Ball, Polytope, ProductRegion, QuadraticForm, SolverConfig
from bilevelcg import harness
from bilevelcg.checks import random_convex_instance
from bilevelcg.harness import _is_linear, reference_bilevel, reference_lower, run_solver
from bilevelcg.problems import (
    DataError,
    DatasetSplit,
    DictLearnSpec,
    dictionary_problem,
    fair_classification_problem,
    lambda_max_gram,
    load_csv,
    regression_problem,
    synthetic_fair_data,
    synthetic_regression_data,
    toy_problem,
)
from bilevelcg.solvers import cg_bio, initialize_lower

SMALL_DICT = DictLearnSpec(
    signal_dim=4, true_dict_size=6, old_dict_size=5, new_dict_size=3, shared=2,
    n_old=8, n_new=6, sparsity=2, seed=3,
)


class TestToyProblem:
    def test_reference_values(self):
        inst = toy_problem()
        ref = inst.reference
        assert ref.g_star == -1.0
        assert ref.f_star == -0.08
        np.testing.assert_allclose(ref.lower_solution_set, [[0.5, 0.5], [1.0, 0.0]])

    def test_objectives_at_known_points(self):
        inst = toy_problem()
        assert inst.upper.value(np.array([0.6, 0.4])) == pytest.approx(-0.08)
        # the lower objective attains its optimum on both segment endpoints
        assert inst.lower.value(np.array([0.5, 0.5])) == pytest.approx(-1.0)
        assert inst.lower.value(np.array([1.0, 0.0])) == pytest.approx(-1.0)

    def test_lipschitz_constants(self):
        inst = toy_problem()
        assert inst.upper.lipschitz_grad == 1.0
        assert inst.lower.lipschitz_grad == 0.0


class TestLambdaMax:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(0)
        for shape in ((20, 8), (20, 300), (300, 20)):  # tall, wide (n < d), tall
            A = rng.standard_normal(shape)
            assert lambda_max_gram(A) == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12)

    def test_not_below_the_spectral_norm_on_the_regression_block(self):
        # A power iteration's Rayleigh quotient came out 2.9e-7 too small here.
        _, data = regression_problem(n=100, d=5000, seed=0)
        A = data.train[0]
        assert lambda_max_gram(A) == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12)

    def test_zero_matrix(self):
        assert lambda_max_gram(np.zeros((4, 3))) == 0.0
        assert lambda_max_gram(np.zeros((3, 40))) == 0.0


def traced(run):
    """``run()``'s result and the peak bytes numpy and Python allocated in it."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFactoredLeastSquaresTag:
    """The regression oracles are tagged by their n x d design matrix, and
    no d x d Gram is formed on the cg_bio or projection-baseline paths."""

    N, D = 100, 5000
    GRAM_BYTES = D * D * 8

    def quads(self, inst):
        return [inst.upper.quadratic, inst.lower.quadratic]

    def assert_no_large_array(self, inst):
        for quad in self.quads(inst):
            for value in vars(quad).values():
                if isinstance(value, np.ndarray):
                    assert value.size <= self.N * self.D

    def test_tags_hold_no_gram_before_and_after_cg_bio(self):
        inst, _ = regression_problem(n=self.N, d=self.D, seed=0)
        self.assert_no_large_array(inst)

        def solve():
            x0, _, certified = initialize_lower(inst, 1e-5)
            cg_bio(inst, x0, SolverConfig(eps_f=1e-5, eps_g=1e-5, max_iters=3))
            return certified

        certified, peak = traced(solve)
        assert certified
        assert peak < self.GRAM_BYTES / 4
        self.assert_no_large_array(inst)

    def test_is_linear_reads_the_factor(self):
        inst, _ = regression_problem(n=self.N, d=self.D, seed=0)
        linear, peak = traced(lambda: _is_linear(inst.lower))
        assert not linear
        assert peak < self.GRAM_BYTES / 100

    @pytest.mark.parametrize("solver", ["big-sam", "a-irg", "dbgd"])
    def test_projection_baselines_form_no_gram(self, solver):
        inst, _ = regression_problem(n=self.N, d=self.D, seed=0)
        _, peak = traced(lambda: run_solver(inst, solver, SolverConfig(max_iters=3)))
        assert peak < self.GRAM_BYTES / 4

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_tags_agree_with_their_oracles_over_the_ball(self, tmp_path, source):
        rng = np.random.default_rng(9)
        if source == "synthetic":
            inst, _ = regression_problem(n=self.N, d=self.D, seed=0)
        else:
            table = rng.standard_normal((40, 13))
            path = tmp_path / "data.csv"
            rows = "\n".join(",".join(repr(float(v)) for v in row) for row in table)
            path.write_text(",".join(f"c{j}" for j in range(12)) + ",y\n" + rows + "\n", encoding="utf-8")
            inst, _ = regression_problem(data=load_csv(path, target_column="y"), l1_radius=3.0)
        region = inst.region
        for oracle in (inst.upper, inst.lower):
            # The tag is the oracle's eval, and it gives the bits of the
            # least-squares closure 0.5 |Ax - b|^2 written out here.
            tag = oracle.quadratic
            assert oracle.eval is tag and tag.q is None
            A, b = tag.F, tag.h
            for density in (1, 2, 10, region.dimension):
                # A point of the ball on ``density`` random coordinates.
                x = np.zeros(region.dimension)
                on = rng.choice(region.dimension, size=density, replace=False)
                x[on] = rng.standard_normal(density)
                x *= rng.uniform(0.0, region.radius) / np.abs(x).sum()
                assert region.contains(x)
                value, grad = oracle(x)
                r = A @ x - b
                assert value.hex() == (0.5 * float(r @ r)).hex()
                assert [g.hex() for g in grad] == [float(g).hex() for g in A.T @ r]

    def test_lipschitz_constants_are_exact(self):
        inst, data = regression_problem(n=self.N, d=self.D, seed=0)
        for oracle, (A, _) in ((inst.lower, data.train), (inst.upper, data.validation)):
            assert oracle.lipschitz_grad == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12)


class TestTagIsTheOracle:
    """Every tagged objective is stated once, by its QuadraticForm: the tag
    is the oracle's eval and gives its Lipschitz constant."""

    def test_every_tagged_oracle_evaluates_through_its_tag(self, monkeypatch):
        instances = [toy_problem(), regression_problem(n=30, d=40, seed=0)[0], random_convex_instance(100, 2)]
        oracles = [oracle for inst in instances for oracle in (inst.upper, inst.lower)]
        hull_oracles = []
        minimize = harness._minimize_over_hull

        def spy(oracle, *args):
            hull_oracles.append(oracle)
            return minimize(oracle, *args)

        monkeypatch.setattr(harness, "_minimize_over_hull", spy)
        assert harness.dist_to_hull(np.array([2.0, 2.0]), np.eye(2)) == pytest.approx(1.5 * np.sqrt(2.0))
        assert len(hull_oracles) == 1
        for oracle in oracles + hull_oracles:
            assert oracle.quadratic is not None and oracle.eval is oracle.quadratic

    def test_lipschitz_constants_come_from_the_tags(self):
        toy = toy_problem()
        assert (toy.upper.lipschitz_grad, toy.lower.lipschitz_grad) == (1.0, 0.0)
        inst, data = regression_problem(n=30, d=40, seed=0)
        for oracle, (A, _) in ((inst.lower, data.train), (inst.upper, data.validation)):
            np.testing.assert_array_equal(oracle.quadratic.F, A)
            assert oracle.lipschitz_grad.hex() == lambda_max_gram(oracle.quadratic.F).hex()
        for i in range(4):
            inst = random_convex_instance(300 + i, 2 + i % 2)
            assert inst.upper.lipschitz_grad.hex() == lambda_max_gram(inst.upper.quadratic.F).hex()
            assert inst.lower.lipschitz_grad == 0.0

    def test_toy_solves_carry_the_tags_and_call_none(self, monkeypatch):
        # standard_cg's exact steps and cg_bio carry every tag's residual,
        # so the toy's reference solves, its hull distance and its cg_bio
        # run never call a tag; reference_bilevel evaluates f once, afresh,
        # at the point it returns.
        calls = []
        call = QuadraticForm.__call__

        def spy(form, x):
            calls.append(form)
            return call(form, x)

        monkeypatch.setattr(QuadraticForm, "__call__", spy)
        toy = toy_problem()
        face = toy.reference.lower_solution_set
        assert reference_lower(toy) == -1.0
        assert harness.dist_to_hull(np.zeros(2), face) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        x0, _, certified = initialize_lower(toy, 1e-5)
        out = cg_bio(toy, x0, SolverConfig(eps_f=1e-5, eps_g=1e-5, max_iters=100))
        assert certified and out.stop_reason == "criterion_met" and len(out.trace) > 2
        assert calls == []
        assert reference_bilevel(toy) == pytest.approx(-0.08, abs=1e-9)
        assert calls == [toy.upper.quadratic]


class TestRegressionProblem:
    def test_synthetic_lower_optimum_is_zero(self):
        inst, data = regression_problem(n=60, d=100, seed=0)
        assert inst.reference.g_star == 0.0
        A_tr, b_tr = data.train
        _, beta = synthetic_regression_data(n=60, d=100, seed=0)
        assert 0.5 * float(np.sum((A_tr @ beta - b_tr) ** 2)) <= 1e-20
        assert np.abs(beta).sum() <= 1.0

    def test_gradient_at_origin(self):
        inst, data = regression_problem(n=30, d=40, seed=1)
        A_tr, b_tr = data.train
        np.testing.assert_allclose(
            inst.lower.gradient(np.zeros(40)), -(A_tr.T @ b_tr), rtol=1e-12
        )

    def test_over_parameterization_required(self):
        with pytest.raises(DataError):
            regression_problem(n=100, d=10, seed=0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_validation_split_named(self, n):
        # round(0.2 n) = 0 validation rows; a factor with no rows would be a
        # legal linear tag, so the split is checked by name.
        with pytest.raises(DataError, match="empty validation split"):
            regression_problem(n=n, d=5, seed=0)

    def test_empty_training_split_named(self):
        data = DatasetSplit(np.ones((3, 4)), np.zeros(3), np.array([], dtype=int), np.array([0, 1]), np.array([2]))
        with pytest.raises(DataError, match="empty training split"):
            regression_problem(data=data)

    def test_region_is_l1_ball(self):
        inst, _ = regression_problem(n=30, d=40, seed=0, l1_radius=2.5)
        assert isinstance(inst.region, L1Ball)
        assert inst.region.radius == 2.5

    def test_deterministic_per_seed(self):
        a, _ = synthetic_regression_data(n=30, d=40, seed=9)
        b, _ = synthetic_regression_data(n=30, d=40, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
        c, _ = synthetic_regression_data(n=30, d=40, seed=10)
        assert not np.array_equal(a.features, c.features)


class TestFairClassification:
    def test_upper_objective_vanishes_at_origin(self):
        inst, _ = fair_classification_problem(n=50, d=4, seed=0)
        assert inst.upper.value(np.zeros(4)) == pytest.approx(0.0, abs=1e-30)

    def test_logistic_gradient_at_origin(self):
        inst, data = fair_classification_problem(n=50, d=4, seed=0)
        X, y = data.train
        expected = -(X.T @ (y - 0.5)) / X.shape[0]
        np.testing.assert_allclose(inst.lower.gradient(np.zeros(4)), expected, rtol=1e-12)

    def test_constant_sensitive_attribute_rejected(self):
        data = synthetic_fair_data(n=30, d=3, seed=0)
        flat = DatasetSplit(
            data.features, data.targets, data.train_idx, data.val_idx, data.test_idx,
            sensitive=np.ones(30),
        )
        with pytest.raises(DataError):
            fair_classification_problem(data=flat)

    def test_missing_sensitive_attribute_rejected(self):
        data = synthetic_fair_data(n=30, d=3, seed=0)
        stripped = DatasetSplit(
            data.features, data.targets, data.train_idx, data.val_idx, data.test_idx
        )
        with pytest.raises(DataError):
            fair_classification_problem(data=stripped)

    def test_objective_nonnegative(self):
        inst, _ = fair_classification_problem(n=50, d=4, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            beta = rng.standard_normal(4)
            assert inst.upper.value(beta) >= 0.0
            assert inst.lower.value(beta) >= 0.0


class TestDictionaryProblem:
    def test_default_shapes(self):
        bundle = dictionary_problem()
        assert bundle.dictionary_truth.shape == (25, 50)
        assert bundle.old_data.shape == (25, 250)
        assert bundle.new_data.shape == (25, 200)
        assert bundle.bilevel.dimension == 25 * 50 + 50 * 200
        np.testing.assert_allclose(np.linalg.norm(bundle.dictionary_truth, axis=0), 1.0)

    def test_region_structure(self):
        bundle = dictionary_problem(SMALL_DICT, pretrain_iters=20, pretrain_polish_iters=20)
        region = bundle.bilevel.region
        assert isinstance(region, ProductRegion)
        assert isinstance(region.blocks[0], BallProduct)
        assert region.blocks[0].num_cols == SMALL_DICT.true_dict_size
        assert len(region.blocks) == 2
        coeffs = region.blocks[1]
        assert isinstance(coeffs, L1Ball)
        assert coeffs.num_cols == SMALL_DICT.n_new
        assert coeffs.dimension == SMALL_DICT.n_new * SMALL_DICT.true_dict_size
        assert coeffs.radius == SMALL_DICT.l1_radius

    def test_lower_gradient_zero_on_coefficient_block(self):
        bundle = dictionary_problem(SMALL_DICT, pretrain_iters=20, pretrain_polish_iters=20)
        spec = bundle.spec
        d_block = spec.signal_dim * spec.true_dict_size
        rng = np.random.default_rng(0)
        z = rng.standard_normal(bundle.bilevel.dimension)
        grad = bundle.bilevel.lower.gradient(z)
        np.testing.assert_array_equal(grad[d_block:], 0.0)
        assert np.any(grad[:d_block] != 0.0)

    def test_initial_point_feasible(self):
        bundle = dictionary_problem(SMALL_DICT, pretrain_iters=20, pretrain_polish_iters=20)
        assert bundle.bilevel.region.contains(bundle.initial_point, tol=1e-9)

    def test_invariant_validation(self):
        with pytest.raises(DataError):
            DictLearnSpec(shared=30)
        with pytest.raises(DataError):
            DictLearnSpec(old_dict_size=45)  # sizes no longer tile the truth

    @pytest.mark.parametrize("field", [
        "signal_dim", "true_dict_size", "old_dict_size", "new_dict_size", "n_old", "n_new", "sparsity",
    ])
    def test_sizes_below_one_rejected(self, field):
        with pytest.raises(DataError, match=f"{field} must be at least 1"):
            DictLearnSpec(**{field: 0})

    def test_negative_shared_rejected(self):
        # shared = -1 with old 40 and new 11 would tile the truth's 50.
        with pytest.raises(DataError, match="shared must be nonnegative"):
            DictLearnSpec(shared=-1, new_dict_size=9)

    def test_deterministic_per_seed(self):
        a = dictionary_problem(SMALL_DICT, pretrain_iters=20, pretrain_polish_iters=20)
        b = dictionary_problem(SMALL_DICT, pretrain_iters=20, pretrain_polish_iters=20)
        np.testing.assert_array_equal(a.initial_point, b.initial_point)
        np.testing.assert_array_equal(a.dictionary_truth, b.dictionary_truth)


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_split_sizes(self, tmp_path):
        rows = "\n".join(f"{i},{i * 2},{i % 2}" for i in range(10))
        path = self.write(tmp_path, "a,b,y\n" + rows + "\n")
        split = load_csv(path, target_column="y")
        assert len(split.train_idx) == 6
        assert len(split.val_idx) == 2
        assert len(split.test_idx) == 2

    def test_features_standardized_to_unit_interval(self, tmp_path):
        rows = "\n".join(f"{i},{i * 3 + 1},{i % 2}" for i in range(10))
        path = self.write(tmp_path, "a,b,y\n" + rows + "\n")
        split = load_csv(path, target_column="y")
        assert split.features.min() == pytest.approx(0.0)
        assert split.features.max() == pytest.approx(1.0)

    def test_header_only_file(self, tmp_path):
        path = self.write(tmp_path, "a,b,y\n")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path, target_column="y")

    def test_ragged_row_names_row(self, tmp_path):
        rows = ["1,2,0"] * 10
        rows[5] = "1,2"  # file row 7 counting the header
        path = self.write(tmp_path, "a,b,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match="row 7"):
            load_csv(path, target_column="y")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        rows = ["1,2,0"] * 5
        rows[2] = "1,oops,0"
        path = self.write(tmp_path, "a,b,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match="row 4.*'b'"):
            load_csv(path, target_column="y")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, bad):
        rows = ["1,2,0"] * 5
        rows[3] = f"1,{bad},0"
        path = self.write(tmp_path, "a,b,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match="row 5, column 'b': non-finite"):
            load_csv(path, target_column="y")

    @pytest.mark.parametrize("header, target, sensitive, duplicate", [
        ("a,a,y", "a", None, "a"),  # the target's name twice
        ("a,s,s,y", "y", "s", "s"),  # the sensitive attribute's name twice
        ("a,b,b,y", "y", None, "b"),  # a feature's name twice
    ])
    def test_duplicate_column_names_rejected(self, tmp_path, header, target, sensitive, duplicate):
        width = header.count(",") + 1
        rows = "\n".join(",".join(str((i + j) % 2) for j in range(width)) for i in range(10))
        path = self.write(tmp_path, header + "\n" + rows + "\n")
        with pytest.raises(DataError, match=rf"duplicate column names \['{duplicate}'\]"):
            load_csv(path, target_column=target, sensitive_column=sensitive)

    def test_missing_target_column(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="missing column 'y'"):
            load_csv(path, target_column="y")

    def test_sensitive_column_equal_to_the_target_rejected(self, tmp_path):
        rows = "\n".join(f"{i},{i % 2}" for i in range(10))
        path = self.write(tmp_path, "a,y\n" + rows + "\n")
        with pytest.raises(DataError, match="'y'.*target.*sensitive"):
            load_csv(path, target_column="y", sensitive_column="y")

    def test_sensitive_column_carried_through(self, tmp_path):
        rows = "\n".join(f"{i},{i % 2},{i % 2}" for i in range(10))
        path = self.write(tmp_path, "a,s,y\n" + rows + "\n")
        split = load_csv(path, target_column="y", sensitive_column="s")
        assert split.sensitive is not None
        assert set(np.unique(split.sensitive)) == {0.0, 1.0}

    def test_deterministic_split_per_seed(self, tmp_path):
        rows = "\n".join(f"{i},{i * 2},{i % 2}" for i in range(20))
        path = self.write(tmp_path, "a,b,y\n" + rows + "\n")
        a = load_csv(path, target_column="y", seed=4)
        b = load_csv(path, target_column="y", seed=4)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)


class TestDatasetSplit:
    def test_partition_enforced(self):
        with pytest.raises(DataError):
            DatasetSplit(
                features=np.zeros((4, 2)), targets=np.zeros(4),
                train_idx=np.array([0, 1]), val_idx=np.array([1]), test_idx=np.array([3]),
            )
