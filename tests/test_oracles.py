import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilevelcg import core, oracles, problems, solvers
from bilevelcg.checks import (
    _zero_column_cut,
    brute_lmo_l1,
    check_oracles,
    cut_certificate_gap,
    l1_cut_lp_value,
)
from bilevelcg.core import (
    DENSE,
    Answer,
    BallProduct,
    Halfspace,
    L1Ball,
    OracleError,
    Polytope,
    ProductRegion,
)
from bilevelcg.oracles import (
    LpProblem,
    halfspace_lmo,
    lmo,
    project,
    simplex_solve,
)

TOY_REGION = Polytope(A=np.array([[1.0, 1.0], [4.0, 6.0]]), b=np.array([1.0, 5.0]))


class TestSimplex:
    def test_minimizes_over_toy_region(self):
        sol = simplex_solve(LpProblem(c=np.array([-1.0, -1.0]), A=TOY_REGION.A, b=TOY_REGION.b))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-1.0)
        assert TOY_REGION.contains(sol.point, tol=1e-9)

    def test_zero_objective_returns_feasible_point(self):
        sol = simplex_solve(LpProblem(c=np.zeros(2), A=TOY_REGION.A, b=TOY_REGION.b))
        assert sol.status == "optimal"
        assert TOY_REGION.contains(sol.point, tol=1e-9)

    def test_negative_rhs_handled_by_phase_one(self):
        # x >= 0.5 written as -x <= -0.5, plus x <= 2.
        sol = simplex_solve(
            LpProblem(c=np.array([1.0]), A=np.array([[-1.0], [1.0]]), b=np.array([-0.5, 2.0]))
        )
        assert sol.value == pytest.approx(0.5)

    def test_infeasible_detected(self):
        sol = simplex_solve(
            LpProblem(c=np.array([1.0]), A=np.array([[1.0], [-1.0]]), b=np.array([1.0, -2.0]))
        )
        assert sol.status == "infeasible"

    def test_deterministic(self):
        problem = LpProblem(c=np.array([-1.0, -1.0]), A=TOY_REGION.A, b=TOY_REGION.b)
        a = simplex_solve(problem)
        b = simplex_solve(problem)
        np.testing.assert_array_equal(a.point, b.point)


class TestLmo:
    def test_l1_selects_largest_coefficient(self):
        s = lmo(L1Ball(2.0, 3), np.array([3.0, -5.0, 2.0])).point
        np.testing.assert_allclose(s, [0.0, 2.0, 0.0])

    def test_l1_tie_break_is_lowest_index(self):
        s = lmo(L1Ball(1.0, 2), np.array([1.0, -1.0])).point
        np.testing.assert_allclose(s, [-1.0, 0.0])

    @pytest.mark.parametrize("c, expected", [
        ([0.0, 0.0, 0.0], [-2.0, 0.0, 0.0]),
        ([-0.0, 0.0, 0.0], [-2.0, 0.0, 0.0]),
        ([1.0, -1.0, 0.5], [-2.0, 0.0, 0.0]),
        ([0.5, -1.0, 1.0], [0.0, 2.0, 0.0]),
    ])
    def test_vertex_enumeration_breaks_ties_as_the_lmo(self, c, expected):
        c = np.array(c)
        np.testing.assert_array_equal(brute_lmo_l1(2.0, c), expected)
        np.testing.assert_array_equal(lmo(L1Ball(2.0, 3), c).point, expected)

    def test_ball_product_per_column(self):
        region = BallProduct(num_cols=2, col_dim=2, radii=np.array([1.0, 2.0]))
        c = region.flatten(np.array([[3.0, 0.0], [4.0, 0.0]]))
        s = lmo(region, c).point
        cols = region.columns(s)
        np.testing.assert_allclose(cols[:, 0], [-0.6, -0.8])
        np.testing.assert_allclose(cols[:, 1], [-2.0, 0.0])  # zero column convention

    def test_ball_product_tiny_column_is_not_zero(self):
        # Only an all-zero column takes the -r e_1 convention: columns of
        # norm 1e-11 point the same way as at norm 1.
        region = BallProduct(num_cols=2, col_dim=3, radii=1.0)
        c = np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0])
        np.testing.assert_array_equal(lmo(region, 1e-11 * c).point, lmo(region, c).point)
        np.testing.assert_array_equal(lmo(region, c).point, [0.0, -1.0, 0.0, 0.0, 0.0, 1.0])

    def test_polytope_matches_vertex_minimum(self):
        c = np.array([-1.0, -1.0])
        s = lmo(TOY_REGION, c).point
        assert float(c @ s) == pytest.approx(-1.0)

    @pytest.mark.parametrize("region", [TOY_REGION, Polytope(np.eye(2), np.ones(2)), Polytope(np.eye(3), np.ones(3))])
    def test_polytope_ties_take_the_simplex_vertex(self, region):
        # Every objective in {-1, 0, 1}^d, most of them tied: the LMO returns
        # the last minimizing vertex, the one the simplex reaches.
        for c in itertools.product([-1.0, 0.0, 1.0], repeat=region.dimension):
            c = np.array(c)
            expected = simplex_solve(LpProblem(c, region.A, region.b)).point
            np.testing.assert_allclose(lmo(region, c).point, expected, rtol=0.0, atol=1e-12)

    def test_polytope_lmo_returns_a_fresh_vertex(self):
        s = lmo(TOY_REGION, np.array([-1.0, 0.0])).point
        assert s.flags.writeable and not np.shares_memory(s, TOY_REGION.vertices())

    def test_product_region_blockwise(self):
        region = ProductRegion((L1Ball(1.0, 2), L1Ball(3.0, 2)))
        s = lmo(region, np.array([1.0, 0.0, 0.0, -2.0])).point
        np.testing.assert_allclose(s, [-1.0, 0.0, 0.0, 3.0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_l1_lmo_optimal_over_random_feasible_points(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        region = L1Ball(float(rng.uniform(0.5, 2.0)), d)
        c = rng.standard_normal(d)
        s = lmo(region, c).point
        assert region.contains(s, tol=1e-9)
        mags = rng.dirichlet(np.ones(d), size=50) * region.radius
        pts = mags * rng.choice([-1.0, 1.0], size=(50, d))
        assert float(c @ s) <= float((pts @ c).min()) + 1e-9


class TestHalfspaceLmo:
    def test_unrestricted_when_cut_satisfied(self):
        # If the plain LMO already satisfies the halfspace, the same point
        # must come back (identical tie-break path).
        region = L1Ball(1.0, 2)
        c = np.array([1.0, -1.0])
        plain = lmo(region, c)
        h = Halfspace(np.array([0.0, 1.0]), 10.0)
        np.testing.assert_array_equal(halfspace_lmo(region, h, c).point, plain.point)

    def test_barely_violated_cut_is_enforced(self):
        # The plain point (1, 0) violates the cut by 1e-6: the shortcut that
        # returns it must not accept any violation.
        region = L1Ball(1.0, 2)
        h = Halfspace(np.array([1.0, 0.0]), 1.0 - 1e-6)
        s = halfspace_lmo(region, h, np.array([-1.0, 0.0])).point
        assert h.contains(s, tol=1e-15) and region.contains(s, tol=1e-15)
        assert s[0] == pytest.approx(1.0 - 1e-6, abs=1e-15)

    def test_l1_restricted_frozen_case(self):
        # Minimize -x1 over the unit l1 ball cut by x1 <= 0.5.
        region = L1Ball(1.0, 2)
        h = Halfspace(np.array([1.0, 0.0]), 0.5)
        s = halfspace_lmo(region, h, np.array([-1.0, 0.0])).point
        assert s[0] == pytest.approx(0.5)
        assert region.contains(s, tol=1e-8) and h.contains(s, tol=1e-8)

    def test_polytope_restricted_appends_row(self):
        h = Halfspace(np.array([-1.0, -1.0]), -1.0)  # forces x1 + x2 >= 1
        s = halfspace_lmo(TOY_REGION, h, np.array([1.0, 0.0])).point
        # cheapest x1 on the lower-level optimal face is at (0.5, 0.5)
        np.testing.assert_allclose(s, [0.5, 0.5], atol=1e-9)

    def test_ball_product_restricted_stays_feasible(self):
        region = BallProduct(num_cols=2, col_dim=2, radii=1.0)
        c = region.flatten(np.array([[1.0, -1.0], [0.0, 0.5]]))
        normal = region.flatten(np.array([[1.0, 0.0], [1.0, 0.0]]))
        plain = lmo(region, c)
        loose = Halfspace(normal, float(normal @ plain.point) + 0.3)
        np.testing.assert_array_equal(halfspace_lmo(region, loose, c).point, plain.point)
        tight = Halfspace(normal, float(normal @ plain.point) - 0.3)  # cuts off the plain point
        s2 = halfspace_lmo(region, tight, c).point
        assert region.contains(s2, tol=1e-7) and tight.contains(s2, tol=1e-7)
        assert float(c @ s2) >= float(c @ plain.point) - 1e-9

    def test_product_region_single_active_block(self):
        region = ProductRegion((L1Ball(1.0, 2), L1Ball(1.0, 2)))
        normal = np.array([1.0, 0.0, 0.0, 0.0])  # lives in the first block only
        c = np.array([-1.0, 0.0, -1.0, 0.0])
        h = Halfspace(normal, 0.25)
        s = halfspace_lmo(region, h, c).point
        assert s[0] == pytest.approx(0.25)
        np.testing.assert_allclose(s[2:], [1.0, 0.0])

    def test_infeasible_cut_raises(self):
        h = Halfspace(np.array([1.0, 0.0]), -5.0)  # x1 <= -5 misses both regions
        for region, what in ((L1Ball(1.0, 2), "l1 ball"), (TOY_REGION, "polytope")):
            with pytest.raises(OracleError, match=f"the cut excludes the whole {what}"):
                halfspace_lmo(region, h, np.array([0.0, 1.0]))


def _cut(region, h, c):
    """The cut LMO answer (s, mu) and its certificate gap."""
    c = np.asarray(c, dtype=float)
    plain = lmo(region, c)
    assert not h.contains(plain.point)
    (s, _), mu = region.cut_lmo(h, c, plain)
    return s, mu, cut_certificate_gap(region, h, c, s, mu)


class TestCutLmo:
    def test_l1_tied_coefficients_lowest_index_wins(self):
        # |c_0| = |c_1| and a_0 = a_1: every point with s_0 + s_1 = 0.5 on the
        # positive face is optimal; the walk keeps coordinate 0.
        h = Halfspace(np.array([1.0, 1.0, 0.0]), 0.5)
        s, mu, gap = _cut(L1Ball(1.0, 3), h, [-1.0, -1.0, 0.0])
        np.testing.assert_allclose(s, [0.5, 0.0, 0.0], atol=1e-15)
        assert mu == 1.0 and gap <= 1e-12

    def test_l1_zero_entries_in_normal(self):
        h = Halfspace(np.array([0.0, 1.0, 0.0]), 0.25)
        s, mu, gap = _cut(L1Ball(1.0, 3), h, [0.0, -2.0, 1.0])
        np.testing.assert_allclose(s, [0.0, 0.25, -0.75], atol=1e-15)
        assert mu == 1.0 and gap <= 1e-12

    def test_l1_cut_through_a_single_vertex(self):
        a = np.array([1.0, -3.0, 2.0])
        region = L1Ball(2.0, 3)
        h = Halfspace(a, -region.radius * np.abs(a).max())
        s, mu, gap = _cut(region, h, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(s, [0.0, 2.0, 0.0])
        assert mu == 0.5 and gap <= 1e-12

    def test_ball_product_cut_through_a_single_face(self):
        # <a, s> >= -5 on the region, so the cut pins column 0 to -a_0 / |a_0|;
        # no finite multiplier attains the dual.
        region = BallProduct(num_cols=2, col_dim=2, radii=1.0)
        c = region.flatten(np.array([[1.0, 0.0], [0.0, 1.0]]))
        normal = region.flatten(np.array([[3.0, 0.0], [4.0, 0.0]]))
        plain = lmo(region, c)
        (s, _), mu = region.cut_lmo(Halfspace(normal, -5.0), c, plain)
        np.testing.assert_allclose(region.columns(s), [[-0.6, 0.0], [-0.8, -1.0]])
        assert mu == np.inf

    @pytest.mark.parametrize("region, normal", [
        pytest.param(L1Ball(1.0, 3), [1.0, -2.0, 0.5], id="region0"),
        pytest.param(BallProduct(num_cols=2, col_dim=2, radii=1.0), [1.0, -2.0, 0.5, 0.0], id="region1"),
        # A zero normal is active in no block, yet the plain point violates it.
        pytest.param(ProductRegion((L1Ball(1.0, 2), BallProduct(1, 2, 1.0))), [0.0] * 4, id="region2"),
    ])
    def test_cut_excluding_the_region_raises(self, region, normal):
        with pytest.raises(OracleError, match="excludes"):
            halfspace_lmo(region, Halfspace(np.array(normal), -10.0), np.ones(region.dimension))

    def test_ball_product_zero_column_at_the_multiplier(self):
        # c + mu a = 0 at mu = 1, where the residual jumps from 0.5 to -1.5:
        # the answer mixes the two LMO points (1, 0) and (-1, 0) onto the
        # cut, 3:1.
        region = BallProduct(num_cols=1, col_dim=2, radii=1.0)
        h = Halfspace(np.array([1.0, 0.0]), 0.5)
        s, mu, gap = _cut(region, h, [-1.0, 0.0])
        np.testing.assert_allclose(s, [0.5, 0.0], atol=1e-12)
        assert mu == pytest.approx(1.0, abs=1e-9) and gap <= 1e-9

    def test_ball_product_one_of_several_columns_crosses_zero_at_the_multiplier(self):
        # Column 0 of c + mu a is (mu - 1, 0), zero at mu = 1, where its term
        # of the residual jumps from +1 to -1 and the residual from 0.5 to
        # -1.5.  The answer mixes column 0's two LMO columns (1, 0) and
        # (-1, 0) onto the cut, 3:1; the other columns stay live, at their
        # LMO columns of c + a.
        region = BallProduct(num_cols=3, col_dim=2, radii=1.0)
        normal = region.flatten(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        c = region.flatten(np.array([[-1.0, 0.5, -0.3], [0.0, -1.0, 0.8]]))
        at_one = lmo(region, c + normal).point  # column 0 is exactly zero: -e_1
        h = Halfspace(normal, float(normal @ at_one) + 1.5)
        s, mu, gap = _cut(region, h, c)
        assert mu == pytest.approx(1.0, abs=1e-9) and gap <= 1e-9
        assert abs(h.violation(s)) <= 1e-12
        np.testing.assert_allclose(region.columns(s)[:, 0], [0.5, 0.0], atol=1e-9)
        np.testing.assert_allclose(region.columns(s)[:, 1:], region.columns(at_one)[:, 1:], atol=1e-9)

    def test_ball_product_cut_runs_the_column_lmo_at_most_three_times(self, monkeypatch):
        # Newton steps run on per-column scalars; only the answer, or the
        # two ends of a bracket closed on a jump, take the full columns.
        calls = []
        column_lmo = BallProduct._column_lmo

        def counted(self, cols):
            calls.append(1)
            return column_lmo(self, cols)

        monkeypatch.setattr(BallProduct, "_column_lmo", counted)
        rng = np.random.default_rng(12)
        for _ in range(20):
            region = BallProduct(num_cols=8, col_dim=5, radii=rng.uniform(0.5, 2.0, size=8))
            c, normal = rng.standard_normal(region.dimension), rng.standard_normal(region.dimension)
            plain = lmo(region, c)
            h = Halfspace(normal, float(normal @ plain.point) - rng.uniform(0.1, 2.0))
            # The same cut with column 0 of c + mu a zero at the multiplier.
            _, tau = region.cut_lmo(h, c, plain)
            jump = region.columns(c.copy())
            jump[:, 0] = -tau * region.columns(normal)[:, 0]
            for obj in (c, region.flatten(jump)):
                plain = lmo(region, obj)
                calls.clear()
                (s, _), mu = region.cut_lmo(h, obj, plain)
                assert len(calls) <= 3
                assert cut_certificate_gap(region, h, obj, s, mu) <= 1e-9

    def test_ball_product_newton_steps_do_not_cycle(self):
        # Full Newton steps from either end of this bracket land near the
        # other end, about [0.244, 0.425]: after 200 of them the bracket
        # was still that wide, and the answer missed the dual by 0.52.
        region = BallProduct(3, 2, [8.713257479244938, 4.717122398411462, 6.526578917671671])
        c = [0.6511130800774889, 0.07808691796681455, -0.4412025197451485,
             0.03679193964024326, 0.144912528875137, 0.8912767058942477]
        normal = np.array([-1.4879609180105096, -1.2407208082747356, 1.0621077927597966,
                           -0.08856931693232953, -0.2940691875691939, 0.03827828117896749])
        s, mu, gap = _cut(region, Halfspace(normal, -7.0806426802402065), c)
        assert gap <= 1e-9

    def test_ball_product_zero_crossing_cut_gap_does_not_grow_with_the_radii(self):
        # A column taken as zero at the multiplier misses the dual by up to
        # 2 r_j times the zero test's floor; with radii up to 1000, an
        # absolute floor of 1e-10 missed 1e-9 on 203 of 300 draws.
        rng = np.random.default_rng(11)
        worst = max(
            cut_certificate_gap(reg, h, c, s.point, mu)
            for reg, c, h, plain in (_zero_column_cut(rng, top_radius=1000.0) for _ in range(100))
            for s, mu in [reg.cut_lmo(h, c, plain)]
        )
        assert worst <= 1e-9

    @pytest.mark.parametrize("normal, offset", [
        pytest.param([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.5, id="inactive"),
        pytest.param([0.0, -1.0, 0.0, 0.0, 0.0, 0.0], 0.5, id="one-column"),
        pytest.param([0.0, -1.0, 0.0, 0.0, 0.0, 1.0], 0.5, id="two-columns"),
    ])
    def test_ball_product_cut_of_a_tiny_objective(self, normal, offset):
        # Columns of norm 1e-11.  The plain LMO and the cut must count the
        # same columns as zero: where only the plain LMO took these as zero,
        # the inactive cut looked violated, the cut's own residual at mu = 0
        # was -0.5, and its bracket mix divided by zero.
        region = BallProduct(num_cols=2, col_dim=3, radii=1.0)
        c = 1e-11 * np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0])
        h = Halfspace(np.array(normal), offset)
        plain = lmo(region, c)
        (s, _), mu = (plain, 0.0) if h.admits(plain) else region.cut_lmo(h, c, plain)
        np.testing.assert_array_equal(halfspace_lmo(region, h, c).point, s)
        assert cut_certificate_gap(region, h, c, s, mu) <= 1e-9 * 1e-11

    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-12, 1e-6, 1e6])
    def test_ball_product_zero_crossing_cut_scales_with_the_objective(self, scale):
        # The zero-crossing draws with c scaled: the multiplier and the gap
        # scale with it.  A near-zero test on an absolute norm of 1e-10
        # raised ZeroDivisionError at scale 1e6, where rounding alone
        # moves a column's norm by about that much; at 1e-12 every column
        # of c is below that norm.  At 1e-100 and 1e-150 the Newton slope's
        # |u_j|^3 underflowed, with divide and invalid warnings, until the
        # steps ran on c scaled to a largest entry near 1.
        rng = np.random.default_rng(11)
        for _ in range(100):
            reg, c, h, _ = _zero_column_cut(rng)
            c = scale * c
            (s, _), mu = reg.cut_lmo(h, c, lmo(reg, c))
            assert cut_certificate_gap(reg, h, c, s, mu) <= 1e-9 * scale

    def test_ball_product_newton_lands_on_the_cut(self):
        rng = np.random.default_rng(11)
        region = BallProduct(num_cols=6, col_dim=4, radii=rng.uniform(0.5, 2.0, size=6))
        c, normal = rng.standard_normal(region.dimension), rng.standard_normal(region.dimension)
        h = Halfspace(normal, float(normal @ lmo(region, c).point) - 1.0)
        s, mu, gap = _cut(region, h, c)
        assert abs(h.violation(s)) <= 1e-12 and mu > 0.0 and abs(gap) <= 1e-11

    def test_product_region_forwards_the_block_multiplier(self):
        region = ProductRegion((L1Ball(1.0, 2), L1Ball(1.0, 2)))
        h = Halfspace(np.array([1.0, 0.0, 0.0, 0.0]), 0.25)
        s, mu, gap = _cut(region, h, [-1.0, 0.0, -1.0, 0.0])
        np.testing.assert_allclose(s, [0.25, 0.0, 1.0, 0.0], atol=1e-15)
        assert mu == 1.0 and gap <= 1e-12

    @pytest.mark.parametrize("region, c", [
        (L1Ball(1.0, 3), [1.0, -0.5, 0.25]),
        (BallProduct(num_cols=1, col_dim=2, radii=1.0), [1.0, 0.0]),
        (TOY_REGION, [1.0, -0.5]),
        (ProductRegion((L1Ball(1.0, 2), BallProduct(num_cols=1, col_dim=2, radii=1.0))), [1.0, -0.5, 0.25, -2.0]),
    ])
    def test_cut_satisfied_by_the_plain_point_has_zero_multiplier(self, region, c):
        c = np.asarray(c)
        plain = lmo(region, c)
        h = Halfspace(np.eye(region.dimension)[0], plain.point[0] + 0.5)
        (s, _), mu = region.cut_lmo(h, c, plain)
        assert mu == 0.0
        assert cut_certificate_gap(region, h, c, s, mu) <= 1e-9

    def test_polytope_multiplier_from_the_tableau(self):
        # The walk's mu matches the 3.0 the dense simplex read from its
        # final tableau.
        h = Halfspace(np.array([-1.0, -1.0]), -1.0)
        s, mu, gap = _cut(TOY_REGION, h, [1.0, 0.0])
        np.testing.assert_allclose(s, [0.5, 0.5], atol=1e-9)
        assert abs(mu - 3.0) <= 1e-12 and gap <= 1e-9

    def test_l1_frozen_d5000_matches_simplex(self):
        rng = np.random.default_rng(20221006)
        region = L1Ball(1.0, 5000)
        c, normal = rng.standard_normal(5000), rng.standard_normal(5000)
        plain = lmo(region, c)
        low = -float(np.abs(normal).max())
        h = Halfspace(normal, low + 0.3 * (float(normal @ plain.point) - low))
        s, mu, gap = _cut(region, h, c)
        assert abs(float(c @ s) - l1_cut_lp_value(region, h, c)) <= 1e-9
        assert gap <= 1e-9

    def test_no_region_oracle_calls_the_simplex(self, monkeypatch):
        def forbidden(lp):
            raise AssertionError("simplex_solve called")

        monkeypatch.setattr(oracles, "simplex_solve", forbidden)
        rng = np.random.default_rng(3)
        # A fresh toy polytope, so that its vertices are enumerated here.
        toy = Polytope(TOY_REGION.A, TOY_REGION.b)
        for region in (L1Ball(1.5, 40), BallProduct(num_cols=5, col_dim=3, radii=1.0), toy):
            c, normal = rng.standard_normal(region.dimension), rng.standard_normal(region.dimension)
            plain = lmo(region, c)
            # Halfway from the plain point's cut value to the region's least.
            low = float(normal @ lmo(region, normal).point)
            h = Halfspace(normal, 0.5 * (low + float(normal @ plain.point)))
            s = halfspace_lmo(region, h, c).point
            assert region.contains(s, tol=1e-9) and h.contains(s, tol=1e-9)
            assert cut_certificate_gap(region, h, c, s, region.cut_lmo(h, c, plain)[1]) <= 1e-9


@pytest.fixture(scope="module")
def dictionary_cuts():
    """Every ball-product cut (region, h, c, plain, start) of the seed-0
    dictionary cg_bio run of the benchmark, with the start cg_bio gave."""
    bundle = problems.dictionary_problem()
    cuts, cut_lmo = [], BallProduct.cut_lmo

    def recorded(self, h, c, plain, start=0.0):
        cuts.append((self, h, np.array(c), plain, start))
        return cut_lmo(self, h, c, plain, start)

    config = core.SolverConfig(eps_f=1e-5, eps_g=1e-3, max_iters=100)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BallProduct, "cut_lmo", recorded)
        solvers.cg_bio(bundle.bilevel, bundle.initial_point, config)
    return [cut for cut in cuts if not cut[1].admits(cut[3])]


def _starts(reg, h, c, plain, start=None):
    """The cut's answers from a cold start, from ``start`` (its own
    multiplier when None) and from starts outside every bracket."""
    cold = reg.cut_lmo(h, c, plain)
    warm = reg.cut_lmo(h, c, plain, cold[1] if start is None else start)
    return cold, warm, [reg.cut_lmo(h, c, plain, outside) for outside in (-1.0, 1e300)]


class TestBallProductNewtonStart:
    @pytest.mark.parametrize("top_radius, scale", [(2.0, 1.0), (1000.0, 1.0), (2.0, 1e-100), (2.0, 1e6)])
    def test_zero_crossing_cuts_from_every_start(self, top_radius, scale):
        # Cold, warm at the root, and outside the bracket, which falls back
        # to the cold search and its very answer.
        rng = np.random.default_rng(11)
        for _ in range(100):
            reg, c, h, _ = _zero_column_cut(rng, top_radius=top_radius)
            c = scale * c
            cold, warm, outside = _starts(reg, h, c, lmo(reg, c))
            for (s, _), mu in [cold, warm, *outside]:
                assert cut_certificate_gap(reg, h, c, s, mu) <= 1e-9 * scale
            for (s, _), mu in outside:
                np.testing.assert_array_equal(s, cold[0].point)
                assert mu == cold[1]

    def test_dictionary_cuts_from_every_start(self, dictionary_cuts):
        assert len(dictionary_cuts) == 100
        for reg, h, c, plain, start in dictionary_cuts:
            cold, given, outside = _starts(reg, h, c, plain, start)
            for (s, _), mu in [cold, given, *outside]:
                assert cut_certificate_gap(reg, h, c, s, mu) <= 1e-9

    def test_dictionary_cuts_take_few_newton_steps(self, dictionary_cuts, monkeypatch):
        # Each step evaluates the residual once.  The plain residual from 0
        # took 6.82 steps per cut; the transform alone 5.48 and the start
        # alone 4.18, so each bound fails without its lever.
        steps, residual = [], core._BallCut.residual

        def counted(self, mu):
            steps.append(mu)
            return residual(self, mu)

        monkeypatch.setattr(core._BallCut, "residual", counted)
        for given, bound in ((False, 6.0), (True, 4.0)):
            steps.clear()
            for reg, h, c, plain, start in dictionary_cuts:
                reg.cut_lmo(h, c, plain, start if given else 0.0)
            assert len(steps) / len(dictionary_cuts) <= bound, f"start given: {given}"


def _masked_l1_cut_walk(r, a, beta, c):
    """The l1 envelope walk with its crossings taken by a masked divide over
    all 2d lines: the reference for ``core._l1_cut_walk``, which divides on
    the steeper lines only."""
    icpt = np.stack([c, -c], axis=1).ravel()
    slope = np.stack([a, -a], axis=1).ravel()
    i = int(np.argmax(np.abs(c)))
    k = 2 * i + int(c[i] < 0)
    prev, mu = k, 0.0
    while -r * slope[k] > beta:
        steeper = slope > slope[k]
        if not steeper.any():
            raise OracleError("the cut excludes the whole l1 ball")
        cross = np.divide(icpt[k] - icpt, slope - slope[k], out=np.full(icpt.shape, np.inf), where=steeper)
        cross = np.maximum(cross, mu)
        mu = float(cross.min())
        first = np.flatnonzero(cross == mu)
        prev, k = k, int(first[np.argmax(slope[first])])
    s = np.zeros_like(c)
    a_left, a_right = -r * slope[prev], -r * slope[k]
    theta = (beta - a_right) / (a_left - a_right) if prev != k else 0.0
    s[prev // 2] += theta * (r if prev % 2 else -r)
    s[k // 2] += (1.0 - theta) * (r if k % 2 else -r)
    return Answer(s, np.flatnonzero(s)), mu


def _walk_hex(walk, *args):
    """The walk's answer as hex: point, support and multiplier."""
    try:
        (s, on), mu = walk(*args)
    except OracleError as exc:
        return str(exc)
    return [v.hex() for v in s], on.tolist(), mu.hex()


class TestL1CutWalk:
    def test_tie_heavy_integer_draws_match_the_masked_walk(self):
        # Small integer objectives and normals tie often, in |c_i|, in the
        # slopes and in the crossings; some cuts exclude the whole ball.
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(3000):
            d = int(rng.integers(2, 9))
            r = float(rng.integers(1, 4))
            c = rng.integers(-3, 4, size=d).astype(float)
            a = rng.integers(-3, 4, size=d).astype(float)
            plain = L1Ball(r, d).lmo(c).point
            beta = float(a @ plain) - float(rng.integers(1, 4 * d + 1)) / 2.0
            if float(a @ plain) <= beta:
                continue
            args = (r, a, beta, c)
            assert _walk_hex(core._l1_cut_walk, *args) == _walk_hex(_masked_l1_cut_walk, *args)
            checked += 1
        assert checked == 3000

    def test_check_oracles_l1_draws_match_the_masked_walk(self, monkeypatch):
        walk, compared = core._l1_cut_walk, []

        def both(*args):
            assert _walk_hex(walk, *args) == _walk_hex(_masked_l1_cut_walk, *args)
            compared.append(None)
            return walk(*args)

        monkeypatch.setattr(core, "_l1_cut_walk", both)
        assert all(ok for _, ok, _ in check_oracles(count=100))
        # Two l1 draws per count, and the product regions' cuts in an l1 block.
        assert len(compared) >= 200


def _assert_support(answer):
    """A sparse answer's support is the increasing indices of its point's
    nonzeros; a dense one's is DENSE.  Returns whether it is sparse."""
    point, on = answer
    if on is DENSE:
        return False
    assert on.dtype == np.intp
    np.testing.assert_array_equal(on, np.flatnonzero(point))
    return True


class TestAnswerSupports:
    @pytest.mark.parametrize("region, sparse", [
        (L1Ball(1.5, 7), True),
        (L1Ball(1.5, 12, num_cols=4), True),
        (ProductRegion((L1Ball(1.0, 3), L1Ball(2.0, 4, num_cols=2))), True),
        (BallProduct(num_cols=2, col_dim=3, radii=1.0), False),
        (TOY_REGION, False),
        # A product holding a dense block is dense, its l1 block too.
        (ProductRegion((L1Ball(1.0, 3), BallProduct(1, 2, 1.0))), False),
    ])
    def test_plain_and_cut_answers_of_every_region(self, region, sparse):
        rng = np.random.default_rng(4)
        for _ in range(50):
            c, normal = rng.standard_normal(region.dimension), np.zeros(region.dimension)
            normal[:2] = rng.standard_normal(2)  # in the first block and column
            plain = lmo(region, c)
            assert _assert_support(plain) == sparse
            h = Halfspace(normal, float(normal @ plain.point) - 0.1)
            if float(normal @ lmo(region, normal).point) < h.offset:
                assert _assert_support(halfspace_lmo(region, h, c)) == sparse

    @pytest.mark.parametrize("a, beta, c, point", [
        # theta = 0: the cut passes through the walk's last vertex.
        ([1.0, -3.0, 2.0], -6.0, [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]),
        # theta = 1 by rounding: (beta + 3) / 4 rounds to 1, and the last
        # vertex keeps the weight 0, an exact zero off the support.
        ([1.0, -3.0], 1.0 - 2.0**-53, [-1.0, -0.5], [1.0, 0.0]),
        # Both lines of one coordinate: +e_0 then -e_0, half and half.
        ([1.0, 0.0], 0.0, [-1.0, 0.0], [0.0, 0.0]),
    ], ids=["theta-0", "theta-1", "one-coordinate"])
    def test_cut_walk_supports(self, a, beta, c, point):
        r = 2.0 if len(a) == 3 else 1.0
        answer, _ = core._l1_cut_walk(r, np.array(a), beta, np.array(c))
        np.testing.assert_array_equal(answer.point, point)
        _assert_support(answer)

    def test_check_oracles_draws(self, monkeypatch):
        # Every answer the checks draw carries its support, and the
        # inactive-cut test agrees with the dense membership test on every
        # cut's plain answer, which violates it, and on the answer that
        # minimizes the cut's normal, which satisfies it.
        sparse, admitted = [], []

        def compared(h, answer):
            admitted.append(h.admits(answer))
            assert admitted[-1] == h.contains(answer.point, tol=0.0)

        for cls in (L1Ball, BallProduct, Polytope, ProductRegion):
            for name in ("lmo", "cut_lmo"):
                def checked(*args, _fn=getattr(cls, name), _cut=name == "cut_lmo"):
                    out = _fn(*args)
                    sparse.append(_assert_support(out[0] if _cut else out))
                    if _cut:
                        region, h, _, plain = args[:4]  # and the search's start, when given
                        compared(h, plain)
                        compared(h, region.lmo(h.normal))
                    return out

                monkeypatch.setattr(cls, name, checked)
        assert all(ok for _, ok, _ in check_oracles(count=100))
        assert sum(sparse) > 500 and len(sparse) - sum(sparse) > 500
        assert admitted.count(True) > 100 and admitted.count(False) > 100


PROJECTIONS = [
    (L1Ball(1.0, 3), np.array([2.0, -0.5, 0.2])),
    (BallProduct(num_cols=2, col_dim=2, radii=np.array([1.0, 2.0])), np.array([3.0, 4.0, 0.5, -0.5])),
    (ProductRegion((L1Ball(1.0, 2), BallProduct(1, 2, 1.0))), np.array([2.0, 0.5, 3.0, 4.0])),
    # Projects to (0.8, 0.2), inside the face x1 + x2 = 1.
    (TOY_REGION, np.array([1.2, 0.6])),
]


def _along_boundary(region, p, step):
    """A boundary point of the region that each block moves ``step`` away
    from the boundary point p: mass moved between the first two
    coordinates of an l1 block, the first column of a ball product
    rotated, a point of a planar polytope moved along its face."""
    if isinstance(region, ProductRegion):
        return np.concatenate([_along_boundary(b, part, step) for b, part in zip(region.blocks, region.split(p))])
    if isinstance(region, Polytope):
        a = next(h.normal for h in region.halfspaces() if abs(h.violation(p)) <= 1e-12)
        return p + step * np.array([-a[1], a[0]]) / np.linalg.norm(a)
    moved = p.copy()
    if isinstance(region, L1Ball):
        moved[:2] += np.sign(p[0]) * step / np.sqrt(2.0) * np.array([-1.0, 1.0])
        return moved
    cols = region.columns(moved)
    angle = 2.0 * np.arcsin(step / (2.0 * region.radii[0]))
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    cols[:2, 0] = rotation @ cols[:2, 0]
    return region.flatten(cols)


def _polytope_project_one_sweep(self, v):
    """One sweep of alternating projections onto the defining halfspaces."""
    x = v.copy()
    for h in self.halfspaces():
        x = x - max(h.violation(x), 0.0) / float(h.normal @ h.normal) * h.normal
    return x


def _ball_project_to_sphere(self, v):
    cols = self.columns(v)
    return self.flatten(cols * self.radii / np.linalg.norm(cols, axis=0))


def _ball_lmo_first_column_flipped(self, c):
    cols = self._column_lmo(self.columns(c))[0]
    cols[:, 0] *= -1.0
    return Answer(self.flatten(cols), DENSE)


def _l1_project_theta_from_rho(self, v):
    out = []
    for col in self.rows(v):
        if np.abs(col).sum() <= self.radius:
            out.append(col.copy())
            continue
        u = np.sort(np.abs(col))[::-1]
        cumsum = np.cumsum(u)
        ks = np.arange(1, col.size + 1)
        rho = int(np.nonzero(u - (cumsum - self.radius) / ks > 0)[0].max())
        theta = (cumsum[rho] - self.radius) / max(rho, 1)  # mutant: rho, not rho + 1
        out.append(np.sign(col) * np.maximum(np.abs(col) - theta, 0.0))
    return np.concatenate(out)


def _l1_lmo_last_on_ties(self, c):
    """Optimal, but takes the highest index of a tie."""
    rows, cols = self.rows(c), np.arange(self.num_cols)
    last = rows.shape[1] - 1 - np.argmax(np.abs(rows)[:, ::-1], axis=1)
    s = np.zeros_like(rows)
    s[cols, last] = np.where(rows[cols, last] >= 0, -self.radius, self.radius)
    return Answer(s.reshape(-1), np.flatnonzero(s))


def _polytope_lmo_first_on_ties(self, c):
    """Optimal, but takes the first minimizing vertex of a tie."""
    verts = self.vertices()
    return Answer(verts[int(np.argmin(verts @ c))].copy(), DENSE)


def _polytope_cut_lmo_last_vertex(self, h, c, plain, start=0.0):
    """The walk's last vertex, which satisfies the cut, without the mix."""
    verts = self.vertices()
    values = verts @ c
    _, k, _, mu = core._envelope_walk(((values, verts @ h.normal),), 1.0, h.offset, core._last_argmin(values),
                                      "polytope")
    return Answer(verts[k].copy(), DENSE), mu


_L1_PROJECT = L1Ball.project


def _l1_one_ball_project(self, v):
    """Projects onto the l1 ball of radius num_cols * radius around the
    whole matrix, which contains the region: exact for one column."""
    return _L1_PROJECT(L1Ball(self.num_cols * self.radius, self.dimension), v)


class TestCutCertificate:
    REGION = L1Ball(1.0, 3)
    CUT = Halfspace(np.array([0.0, 1.0, 0.0]), 0.25)
    C = np.array([0.0, -2.0, 1.0])

    def test_exact_answer_passes(self):
        (s, _), mu = self.REGION.cut_lmo(self.CUT, self.C, lmo(self.REGION, self.C))
        assert cut_certificate_gap(self.REGION, self.CUT, self.C, s, mu) <= 1e-12

    @pytest.mark.parametrize("s, mu", [
        ([0.0, 0.25 - 1e-6, -0.75], 1.0),  # feasible, 2e-6 worse than optimal
        ([1e-6, 0.25, -0.75], 1.0),  # outside the ball
        ([0.0, 0.25 + 1e-6, -0.75 + 1e-6], 1.0),  # outside the cut
        ([0.0, 0.25, -0.75], 1.5),  # wrong multiplier
        ([0.0, 0.25, -0.75], -1.0),  # negative multiplier
    ])
    def test_perturbed_answer_fails(self, s, mu):
        assert cut_certificate_gap(self.REGION, self.CUT, self.C, np.array(s), mu) > 1e-9

    @pytest.mark.parametrize("region, y", PROJECTIONS)
    def test_exact_projection_passes(self, region, y):
        p = project(region, y)
        assert cut_certificate_gap(region, None, p - y, p) <= 1e-12

    @pytest.mark.parametrize("region, y", PROJECTIONS)
    def test_projection_moved_along_the_boundary_fails(self, region, y):
        p = project(region, y)
        moved = _along_boundary(region, p, 1e-5)
        assert region.contains(moved, tol=1e-12)
        assert np.linalg.norm(moved - p) >= 1e-5 - 1e-12
        assert cut_certificate_gap(region, None, moved - y, moved) > 1e-12

    @pytest.mark.parametrize("region, y", PROJECTIONS)
    def test_point_outside_the_region_is_infinite(self, region, y):
        p = 1.001 * project(region, y)
        assert cut_certificate_gap(region, None, p - y, p) == np.inf

    def test_nonzero_multiplier_without_a_cut_is_infinite(self):
        region, y = PROJECTIONS[0]
        p = project(region, y)
        assert cut_certificate_gap(region, None, p - y, p, 0.5) == np.inf

    def test_ball_product_lmo_with_a_flipped_column_fails(self):
        region = BallProduct(num_cols=2, col_dim=2, radii=np.array([1.0, 2.0]))
        c = np.array([0.3, -1.2, 0.7, 0.4])
        s = lmo(region, c).point
        assert cut_certificate_gap(region, None, c, s) <= 1e-12
        cols = region.columns(s).copy()
        cols[:, 1] *= -1.0
        assert cut_certificate_gap(region, None, c, region.flatten(cols)) > 1e-8

    @pytest.mark.parametrize("cls, name, mutant, label", [
        (BallProduct, "project", _ball_project_to_sphere, "ball projection certificate"),
        (BallProduct, "lmo", _ball_lmo_first_column_flipped, "ball-product LMO support certificate"),
        (L1Ball, "project", _l1_project_theta_from_rho, "l1 projection certificate"),
        (Polytope, "project", _polytope_project_one_sweep, "polytope projection certificate"),
        (L1Ball, "lmo", _l1_lmo_last_on_ties, "l1 LMO vs vertex enumeration"),
        (L1Ball, "project", _l1_one_ball_project, "l1 projection certificate"),
        (Polytope, "lmo", _polytope_lmo_first_on_ties, "polytope LMO vs simplex"),
        (Polytope, "cut_lmo", _polytope_cut_lmo_last_vertex, "restricted polytope LMO vs vertex enumeration"),
        (Polytope, "cut_lmo", _polytope_cut_lmo_last_vertex, "polytope cut LMO certificate"),
    ])
    def test_check_oracles_fails_a_mutant(self, monkeypatch, cls, name, mutant, label):
        monkeypatch.setattr(cls, name, mutant)
        verdicts = {lab: ok for lab, ok, _ in check_oracles(count=10)}
        assert verdicts[label] is False

    def test_check_oracles_at_count_40_passes_every_label(self):
        failed = [(label, detail) for label, ok, detail in check_oracles(count=40) if not ok]
        assert failed == []


class TestProjections:
    def test_l1_inside_point_unchanged(self):
        y = np.array([0.3, -0.2])
        np.testing.assert_array_equal(project(L1Ball(1.0, 2), y), y)

    def test_l1_frozen_case(self):
        np.testing.assert_allclose(project(L1Ball(1.0, 2), np.array([2.0, 1.0])), [1.0, 0.0])

    def test_l1_boundary_norm(self):
        p = project(L1Ball(1.5, 3), np.array([3.0, -2.0, 1.0]))
        assert np.abs(p).sum() == pytest.approx(1.5)

    def test_polytope_projection_frozen_case(self):
        p = project(TOY_REGION, np.array([1.0, 1.0]))
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-8)

    def test_ball_product_per_column(self):
        region = BallProduct(num_cols=2, col_dim=2, radii=1.0)
        y = region.flatten(np.array([[3.0, 0.2], [4.0, 0.1]]))
        p = project(region, y)
        cols = region.columns(p)
        np.testing.assert_allclose(cols[:, 0], [0.6, 0.8])
        np.testing.assert_allclose(cols[:, 1], [0.2, 0.1])

    def test_dispatcher_handles_product_region(self):
        region = ProductRegion((L1Ball(1.0, 2), BallProduct(1, 2, 1.0)))
        y = np.array([2.0, 0.0, 3.0, 4.0])
        p = project(region, y)
        np.testing.assert_allclose(p, [1.0, 0.0, 0.6, 0.8])

    def test_rejects_point_of_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            project(L1Ball(1.0, 3), np.zeros(4))

    def test_rejects_non_finite_point(self):
        with pytest.raises(ValueError, match="finite"):
            project(L1Ball(1.0, 3), np.array([0.5, np.nan, 0.0]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_l1_projection_idempotent_and_nonexpansive(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        r = float(rng.uniform(0.5, 2.0))
        y, z = rng.standard_normal(d) * 3.0, rng.standard_normal(d) * 3.0
        ball = L1Ball(r, d)
        py, pz = project(ball, y), project(ball, z)
        np.testing.assert_allclose(project(ball, py), py, atol=1e-12)
        assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_polytope_projection_optimality(self, seed):
        # Variational inequality: <y - p, z - p> <= 0 for all feasible z.
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(2) * 2.0
        p = project(TOY_REGION, y)
        assert TOY_REGION.contains(p, tol=1e-7)
        for v in TOY_REGION.vertices():
            assert float((y - p) @ (v - p)) <= 1e-7


class TestFeasiblePoint:
    def test_every_region_type(self):
        regions = [
            L1Ball(1.0, 3),
            BallProduct(2, 2, 1.0),
            TOY_REGION,
            ProductRegion((L1Ball(1.0, 2), BallProduct(1, 2, 1.0))),
        ]
        for region in regions:
            x = region.feasible_point()
            assert region.contains(x, tol=1e-9)

    def test_polytope_with_mandatory_lower_bounds(self):
        # Origin infeasible: x1 >= 0.5 encoded as -x1 <= -0.5.
        region = Polytope(A=np.array([[-1.0, 0.0], [1.0, 1.0]]), b=np.array([-0.5, 2.0]))
        x = region.feasible_point()
        assert region.contains(x, tol=1e-9)
