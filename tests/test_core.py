import numpy as np
import pytest
from hypothesis import given, strategies as st

from bilevelcg.checks import _random_polytope, brute_lmo_l1
from bilevelcg.core import (
    BallProduct,
    BilevelInstance,
    ConstantStep,
    Halfspace,
    Harmonic,
    InvSqrt,
    L1Ball,
    OracleError,
    Polytope,
    ProductRegion,
    QuadraticForm,
    ReferenceData,
    SmoothOracle,
    SolveOutcome,
    SolverConfig,
    TraceRow,
    cutting_plane,
)


def quad_oracle(Q, q, c=0.0):
    form = QuadraticForm(np.asarray(Q, float), np.asarray(q, float), c)
    return SmoothOracle(form.q.shape[0], lambda x: (form.value(x), form.gradient(x)), quadratic=form)


class TestQuadraticForm:
    def test_factored_form_agrees_with_its_gram(self):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((7, 30))
        h = rng.standard_normal(7)
        factored = QuadraticForm(None, F=F, h=h)
        dense = QuadraticForm(F.T @ F, -(F.T @ h), 0.5 * float(h @ h))
        for _ in range(20):
            x = rng.standard_normal(30)
            assert factored.value(x) == pytest.approx(dense.value(x), rel=1e-12)
            np.testing.assert_allclose(factored.gradient(x), dense.gradient(x), rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(factored.hessian(), F.T @ F)
        np.testing.assert_array_equal(factored.linear(), dense.q)
        assert dense.hessian() is dense.Q and dense.linear() is dense.q

    @pytest.mark.parametrize("Q, F", [(None, None), (np.eye(2), np.eye(2))])
    def test_exactly_one_of_hessian_and_factor(self, Q, F):
        with pytest.raises(ValueError, match="exactly one"):
            QuadraticForm(Q, np.zeros(2), F=F)

    @pytest.mark.parametrize("kwargs", [
        {"Q": np.eye(2)},
        {"Q": np.eye(2), "q": np.zeros(2), "h": np.zeros(2)},
        {"Q": None, "F": np.eye(2)},
        {"Q": None, "F": np.eye(2), "h": np.zeros(2), "q": np.zeros(2)},
    ], ids=["Q-without-q", "Q-with-h", "F-without-h", "F-with-q"])
    def test_a_hessian_takes_q_and_a_factor_h(self, kwargs):
        with pytest.raises(ValueError, match="a factor F a shift h"):
            QuadraticForm(**kwargs)

    def test_value_and_gradient(self):
        form = QuadraticForm(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([1.0, -1.0]), 0.5)
        x = np.array([1.0, 2.0])
        assert form.value(x) == pytest.approx(8.5)
        np.testing.assert_allclose(form.gradient(x), [3.0, 7.0])

    def test_zero_form(self):
        form = QuadraticForm(np.zeros((3, 3)), np.zeros(3), 0.0)
        assert form.value(np.ones(3)) == 0.0


class TestSmoothOracle:
    def test_shape_validation_on_input(self):
        oracle = quad_oracle(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            oracle(np.zeros(3))

    def test_shape_validation_on_gradient(self):
        bad = SmoothOracle(2, lambda x: (0.0, np.zeros(3)))
        with pytest.raises(OracleError):
            bad(np.zeros(2))

    def test_value_and_gradient_accessors(self):
        oracle = quad_oracle(2.0 * np.eye(2), np.zeros(2))
        assert oracle.value(np.array([1.0, 1.0])) == pytest.approx(2.0)
        np.testing.assert_allclose(oracle.gradient(np.array([1.0, 1.0])), [2.0, 2.0])


class TestL1Ball:
    def test_membership_and_diameter(self):
        ball = L1Ball(radius=2.0, dimension=3)
        assert ball.contains(np.array([1.0, -0.5, 0.5]))
        assert not ball.contains(np.array([1.5, -1.0, 0.0]))
        assert ball.diameter == 4.0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            L1Ball(radius=0.0, dimension=2)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_rejects_a_non_finite_radius(self, radius):
        with pytest.raises(ValueError, match="positive and finite"):
            L1Ball(radius=radius, dimension=4)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_boundary_tolerance(self, vals):
        ball = L1Ball(radius=1.0, dimension=3)
        x = np.array(vals)
        s = np.abs(x).sum()
        if s > 0:
            assert ball.contains(x / s)


class TestBallProduct:
    def test_column_layout_round_trip(self):
        region = BallProduct(num_cols=3, col_dim=2, radii=1.0)
        cols = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(region.columns(region.flatten(cols)), cols)

    def test_membership_per_column(self):
        region = BallProduct(num_cols=2, col_dim=2, radii=np.array([1.0, 0.5]))
        ok = region.flatten(np.array([[1.0, 0.0], [0.0, 0.5]]))
        assert region.contains(ok)
        bad = region.flatten(np.array([[1.0, 0.0], [0.0, 0.6]]))
        assert not region.contains(bad)

    def test_diameter(self):
        region = BallProduct(num_cols=2, col_dim=3, radii=np.array([3.0, 4.0]))
        assert region.diameter == pytest.approx(10.0)

    @pytest.mark.parametrize("radii", [0.0, np.nan, np.inf, [1.0, np.nan], [np.inf, 1.0], [1.0, -2.0]])
    def test_rejects_radii_that_are_not_positive_and_finite(self, radii):
        with pytest.raises(ValueError, match="positive and finite"):
            BallProduct(num_cols=2, col_dim=2, radii=radii)

    @pytest.mark.parametrize("shape", [(25, 50), (1, 7), (7, 1), (1, 1), (3, 400)])
    def test_column_norms_keep_the_per_column_dot_bits(self, shape):
        # The batched norms must sum as one `col @ col` per column does: the
        # dictionary set-up's bits rest on it.  C-ordered, F-ordered and
        # strided matrices, with columns of mixed scale.
        rng = np.random.default_rng(5)
        rows, cols = shape
        region = BallProduct(num_cols=cols, col_dim=rows, radii=1.0)
        for _ in range(20):
            m = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=cols)
            wide = rng.standard_normal((2 * rows, 3 * cols))
            for layout in (m, np.asfortranarray(m), wide[::2, ::3]):
                assert layout.shape == shape
                norms = region._column_lmo(layout)[1]
                np.testing.assert_array_equal(norms, np.sqrt(np.array([col @ col for col in layout.T])))


class TestL1BallColumns:
    REGION = L1Ball(radius=1.5, dimension=12, num_cols=4)
    # The same region as a product of one l1 ball per column.
    BLOCKS = ProductRegion(tuple(L1Ball(1.5, 3) for _ in range(4)))

    def test_lmo_equals_the_block_loop_bit_for_bit(self):
        rng = np.random.default_rng(0)
        # Ties within a column, a tie across signs, a zero column, signed zeros.
        fixed = np.array([1.0, -1.0, 0.5, 0.0, 0.0, 0.0, -2.0, 2.0, 1.0, -0.0, 0.0, -0.0])
        for c in [fixed] + [rng.integers(-2, 3, size=12).astype(float) for _ in range(50)] + [
            rng.standard_normal(12) for _ in range(50)
        ]:
            exact = np.concatenate([brute_lmo_l1(1.5, col) for col in c.reshape(4, 3)])
            np.testing.assert_array_equal(self.REGION.lmo(c), exact)
            np.testing.assert_array_equal(self.REGION.lmo(c), self.BLOCKS.lmo(c))

    def test_project_matches_the_block_loop(self):
        rng = np.random.default_rng(1)
        for scale in (0.1, 0.4, 1.0, 3.0):
            for _ in range(20):
                v = scale * rng.standard_normal(12)
                np.testing.assert_allclose(self.REGION.project(v), self.BLOCKS.project(v), rtol=0.0, atol=1e-12)

    def test_project_returns_a_point_inside_unchanged(self):
        v = np.array([0.5, -0.5, 0.5, 0.0, 1.5, 0.0, -0.1, 0.2, 0.3, 1.0, 0.0, 0.0])
        assert self.REGION.contains(v, tol=0.0)
        np.testing.assert_array_equal(self.REGION.project(v), v)

    def test_contains_diameter_and_feasible_point_agree_with_the_blocks(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = 0.8 * rng.standard_normal(12)
            assert self.REGION.contains(x) == self.BLOCKS.contains(x)
        assert self.REGION.dimension == self.BLOCKS.dimension
        assert self.REGION.diameter == pytest.approx(self.BLOCKS.diameter, rel=1e-15)
        np.testing.assert_array_equal(self.REGION.feasible_point(), self.BLOCKS.feasible_point())

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            L1Ball(0.0, 6, num_cols=2)

    @pytest.mark.parametrize("dimension, num_cols", [(6, 0), (6, -2), (7, 2)])
    def test_rejects_columns_that_do_not_split_the_dimension(self, dimension, num_cols):
        with pytest.raises(ValueError, match="equal columns"):
            L1Ball(1.0, dimension, num_cols=num_cols)

    def test_coupled_cut_raises(self):
        c = np.arange(12.0)
        normal = np.zeros(12)
        normal[[0, 3]] = 1.0  # columns 0 and 1
        with pytest.raises(OracleError, match="couples several columns"):
            self.REGION.cut_lmo(Halfspace(normal, -1.0), c, self.REGION.lmo(c))

    def test_single_column_cut_gives_the_l1_ball_answer(self):
        rng = np.random.default_rng(3)
        c, normal = rng.standard_normal(12), np.zeros(12)
        normal[6:9] = rng.standard_normal(3)  # column 2
        plain = self.REGION.lmo(c)
        h = Halfspace(normal, float(normal @ plain) - 0.5)
        s, mu = self.REGION.cut_lmo(h, c, plain)
        col, col_mu = L1Ball(1.5, 3).cut_lmo(Halfspace(normal[6:9], h.offset), c[6:9], plain[6:9])
        np.testing.assert_array_equal(s[6:9], col)
        np.testing.assert_array_equal(np.delete(s, [6, 7, 8]), np.delete(plain, [6, 7, 8]))
        assert mu == col_mu > 0.0


class TestPolytope:
    def region(self):
        return Polytope(A=np.array([[1.0, 1.0], [4.0, 6.0]]), b=np.array([1.0, 5.0]))

    def test_vertex_enumeration(self):
        verts = self.region().vertices()
        expected = {(0.0, 0.0), (1.0, 0.0), (0.0, 5.0 / 6.0), (0.5, 0.5)}
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == {tuple(np.round(np.array(e), 9)) for e in expected}

    def test_diameter_is_max_vertex_distance(self):
        assert self.region().diameter == pytest.approx(np.sqrt(61.0) / 6.0)

    def test_no_vertex_has_a_negative_coordinate(self):
        # A coordinate whose sign constraint defines the vertex is exactly 0:
        # the toy's vertex on x1 = 0 used to read x1 = -5.6e-17.
        rng = np.random.default_rng(0)
        regions = [self.region()] + [Polytope(np.eye(d), np.ones(d)) for d in (2, 3)]
        for region in regions + [_random_polytope(rng) for _ in range(20)]:
            assert not np.any(region.vertices() < 0.0)

    def test_vertices_are_enumerated_once_and_read_only(self):
        reg = self.region()
        verts = reg.vertices()
        assert reg.vertices() is verts and not verts.flags.writeable

    def test_unbounded_polytope_raises_at_its_first_oracle_call(self):
        # {x >= 0, x1 - x2 <= 1} holds the ray (1, 1) t; its recession cone
        # cut by x1 + x2 <= 1 has the vertex (0.5, 0.5).
        region = Polytope([[1.0, -1.0]], [1.0])
        with pytest.raises(OracleError, match="unbounded"):
            region.lmo(np.array([-1.0, -1.0]))

    def test_membership_includes_sign_constraints(self):
        reg = self.region()
        assert reg.contains(np.array([0.2, 0.3]))
        assert not reg.contains(np.array([-0.1, 0.3]))
        assert not reg.contains(np.array([0.9, 0.3]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Polytope(A=np.eye(2), b=np.ones(3))

    def test_halfspaces_agree_with_membership(self):
        reg = self.region()
        planes = reg.halfspaces()
        assert len(planes) == 4 and all(isinstance(h, Halfspace) for h in planes)
        for x in np.random.default_rng(0).uniform(-0.5, 1.5, size=(200, 2)):
            assert all(h.contains(x, tol=1e-9) for h in planes) == reg.contains(x)


class TestProductRegion:
    def region(self):
        return ProductRegion((L1Ball(1.0, 2), BallProduct(1, 3, 2.0)))

    def test_offsets_and_split(self):
        reg = self.region()
        assert reg.offsets() == [(0, 2), (2, 5)]
        parts = reg.split(np.arange(5.0))
        assert [p.tolist() for p in parts] == [[0.0, 1.0], [2.0, 3.0, 4.0]]

    def test_membership_blockwise(self):
        reg = self.region()
        assert reg.contains(np.array([0.5, -0.5, 1.0, 1.0, 1.0]))
        assert not reg.contains(np.array([0.9, -0.5, 1.0, 1.0, 1.0]))

    def test_diameter_combines_blocks(self):
        reg = self.region()
        assert reg.diameter == pytest.approx(np.sqrt(2.0**2 + 4.0**2))


class TestHalfspace:
    def test_contains_and_violation(self):
        h = Halfspace(np.array([1.0, -1.0]), 0.5)
        assert h.contains(np.array([0.5, 0.0]))
        assert not h.contains(np.array([1.0, 0.0]))
        assert h.violation(np.array([1.0, 0.0])) == pytest.approx(0.5)


class TestCuttingPlane:
    def test_matches_hand_computation(self):
        g = quad_oracle(np.zeros((2, 2)), np.array([-1.0, -1.0]))
        xk = np.array([0.25, 0.25])
        gk, grad = g(xk)
        cut = cutting_plane(grad, xk, g.value(np.array([1.0, 0.0])), gk)
        np.testing.assert_allclose(cut.normal, [-1.0, -1.0])
        assert cut.offset == pytest.approx(-1.0)

    def test_keeps_all_lower_optima(self):
        # Points with g-value equal to g(x0) lie exactly on the cut boundary.
        g = quad_oracle(np.zeros((2, 2)), np.array([-1.0, -1.0]))
        xk = np.array([0.3, 0.3])
        gk, grad = g(xk)
        cut = cutting_plane(grad, xk, g.value(np.array([1.0, 0.0])), gk)
        for t in np.linspace(0.0, 1.0, 11):
            s = (1 - t) * np.array([0.5, 0.5]) + t * np.array([1.0, 0.0])
            assert cut.contains(s, tol=1e-12)


class TestSchedules:
    def test_harmonic_values(self):
        assert Harmonic(2).step(0) == 1.0
        assert Harmonic(2).step(2) == 0.5
        assert Harmonic(12).step(0) == pytest.approx(1.0 / 6.0)

    def test_harmonic_shift_floor(self):
        with pytest.raises(ValueError):
            Harmonic(1)

    def test_constant_range(self):
        assert ConstantStep(0.25).step(7) == 0.25
        with pytest.raises(ValueError):
            ConstantStep(0.0)
        with pytest.raises(ValueError):
            ConstantStep(1.5)

    def test_inv_sqrt_clamped(self):
        assert InvSqrt(3.0).step(0) == 1.0
        assert InvSqrt(1.0).step(3) == 0.5

    @given(st.integers(0, 10_000), st.integers(2, 30))
    def test_harmonic_always_in_unit_interval(self, k, shift):
        assert 0.0 < Harmonic(shift).step(k) <= 1.0

    @given(st.integers(0, 10_000), st.floats(0.01, 10.0))
    def test_inv_sqrt_always_in_unit_interval(self, k, scale):
        assert 0.0 < InvSqrt(scale).step(k) <= 1.0


class TestSolverConfig:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(eps_f=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    @pytest.mark.parametrize("fields", [
        {"max_iters": 10.5}, {"max_iters": True}, {"max_iters": "10"},
        {"eps_f": True}, {"eps_g": False}, {"eps_f": "1e-5"},
    ])
    def test_rejects_malformed_numbers(self, fields):
        with pytest.raises(TypeError):
            SolverConfig(**fields)


class TestSolveOutcome:
    def rows(self, gaps):
        return tuple(
            TraceRow(k=i, f_val=0.0, g_val=0.0, surrogate_f_gap=g, surrogate_g_gap=0.0, wall_nanos=0)
            for i, g in enumerate(gaps)
        )

    def test_trace_must_increase(self):
        rows = self.rows([1.0, 2.0])
        bad = (rows[1], rows[0])
        with pytest.raises(ValueError):
            SolveOutcome(final_point=np.zeros(1), stop_reason="criterion_met", trace=bad)

    def test_best_index_minimizes_f_gap(self):
        out = SolveOutcome(np.zeros(1), "budget_exhausted", self.rows([3.0, 0.5, 2.0]))
        assert out.best_index == 1

    def test_best_index_falls_back_to_last_row(self):
        out = SolveOutcome(np.zeros(1), "budget_exhausted", self.rows([np.nan, np.nan]))
        assert out.best_index == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            SolveOutcome(np.zeros(1), "criterion_met", ())


class TestBilevelInstance:
    def test_dimension_consistency(self):
        upper = quad_oracle(np.eye(2), np.zeros(2))
        lower = quad_oracle(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            BilevelInstance(upper, lower, L1Ball(1.0, 2))

    def test_reference_is_optional(self):
        upper = quad_oracle(np.eye(2), np.zeros(2))
        inst = BilevelInstance(upper, upper, L1Ball(1.0, 2), ReferenceData(g_star=0.0))
        assert inst.dimension == 2
        assert BilevelInstance(upper, upper, L1Ball(1.0, 2)).reference == ReferenceData()
