import tracemalloc

import numpy as np
import pytest

from bilevelcg.core import BallProduct, L1Ball, Polytope, ProductRegion, SolverConfig
from bilevelcg.harness import _is_linear, run_solver
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
            assert quad.Q is None
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
            tag = oracle.quadratic
            assert tag.F is not None
            for density in (1, 2, 10, region.dimension):
                # A point of the ball on ``density`` random coordinates.
                x = np.zeros(region.dimension)
                on = rng.choice(region.dimension, size=density, replace=False)
                x[on] = rng.standard_normal(density)
                x *= rng.uniform(0.0, region.radius) / np.abs(x).sum()
                assert region.contains(x)
                value, grad = oracle(x)
                assert tag.value(x) == pytest.approx(value, rel=1e-12, abs=0.0)
                assert np.linalg.norm(tag.gradient(x) - grad) <= 1e-12 * np.linalg.norm(grad)

    def test_lipschitz_constants_are_exact(self):
        inst, data = regression_problem(n=self.N, d=self.D, seed=0)
        for oracle, (A, _) in ((inst.lower, data.train), (inst.upper, data.validation)):
            assert oracle.lipschitz_grad == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12)


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
