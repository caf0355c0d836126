import numpy as np
import pytest

from mrt import Line, fit_line
from mrt.errors import DimensionMismatch, OrderingError
from mrt.geometry import (
    OrderingWitness,
    canonical_direction,
    convex_hull_2d,
    min_enclosing_ball,
    min_width_strip_2d,
    order_along_lines,
    pattern_search,
    sorted_unique,
    unit,
)

from _oracle import brute_force_line_oracle


class TestLine:
    def test_normalizes_direction(self):
        ln = Line([0.0, 0.0], [3.0, 4.0])
        assert np.allclose(ln.direction, [0.6, 0.8])

    def test_params_and_distances(self):
        ln = Line([1.0, 1.0], [1.0, 0.0])
        X = np.array([[2.0, 1.0], [1.0, 3.0], [0.0, 0.0]])
        assert np.allclose(ln.params(X), [1.0, 0.0, -1.0])
        assert np.allclose(ln.distances(X), [0.0, 2.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Line([0.0, 0.0], [1.0, 0.0, 0.0])

    def test_point_at(self):
        ln = Line([0.0, 0.0], [0.0, 1.0])
        assert np.allclose(ln.point_at(2.5), [0.0, 2.5])

    def test_canonical_flips_sign(self):
        ln = Line([0.0, 0.0], [-1.0, 0.0]).canonical()
        assert ln.direction[0] > 0

    def test_dist_to_line(self):
        ln = Line([0.0, 0.0], [1.0, 0.0])
        assert ln.distances(np.array([[0.0, 2.0]]))[0] == pytest.approx(2.0)


def test_unit_and_canonical_direction():
    assert np.allclose(unit(np.array([0.0, 5.0])), [0.0, 1.0])
    assert np.allclose(canonical_direction(np.array([-2.0, 1.0])), [2.0, -1.0])


@pytest.mark.parametrize("shape", [(0,), (1,), (40,), (0, 2), (1, 2), (30, 2), (30, 3)])
def test_sorted_unique_matches_np_unique(shape):
    rng = np.random.default_rng(7)
    # few distinct values, so rows repeat whole and share leading coordinates
    for a in (rng.integers(-3, 3, size=shape), rng.integers(-3, 3, size=shape) / 4.0):
        want = np.unique(a) if a.ndim == 1 else np.unique(a, axis=0)
        got = sorted_unique(a)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestHull:
    def test_square_hull(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
        hull = convex_hull_2d(pts)
        assert len(hull) == 4

    def test_min_width_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        width, _line = min_width_strip_2d(pts)
        assert width == pytest.approx(1.0, abs=1e-12)

    def test_min_width_collinear_is_zero(self):
        pts = np.array([[0, 0], [1, 1], [2, 2], [0.3, 0.3]], dtype=float)
        width, line = min_width_strip_2d(pts)
        assert width <= 1e-12
        assert np.max(line.distances(pts)) <= 1e-9

    def test_min_width_oracle_agreement(self):
        # sup-fit equals the brute-force sup oracle on random instances
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = rng.uniform(size=(8, 2))
            width, line = min_width_strip_2d(pts)
            oval, _oline = brute_force_line_oracle(pts, None, "sup", n_angles=720)
            assert width / 2 <= oval + 1e-9


class TestEnclosingBall:
    def test_two_points(self):
        center, r = min_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(center, [1.0, 0.0])
        assert r == pytest.approx(1.0)

    def test_equilateral_triangle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        center, r = min_enclosing_ball(pts)
        assert r == pytest.approx(1 / np.sqrt(3), abs=1e-9)
        assert np.allclose(center, [0.5, np.sqrt(3) / 6], atol=1e-9)

    def test_contains_all_points(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pts = rng.normal(size=(12, 2))
            center, r = min_enclosing_ball(pts)
            d = np.linalg.norm(pts - center, axis=1)
            assert np.all(d <= r + 1e-9)


class TestFitLine:
    def test_exact_on_collinear(self):
        t = np.linspace(0, 1, 9)
        pts = np.column_stack([t, 2 * t + 0.25])
        for p in (1, 2):
            line, obj = fit_line(pts, None, p)
            assert obj <= 1e-12
            assert np.max(line.distances(pts)) <= 1e-9

    def test_weighted_pull(self):
        # heavy weight on outlier pulls the p=2 line toward it
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        _l1, obj_light = fit_line(pts, np.array([1.0, 1.0, 1e-6]), 2)
        _l2, obj_heavy = fit_line(pts, np.array([1.0, 1.0, 10.0]), 2)
        assert obj_light < obj_heavy

    def test_single_point(self):
        line, obj = fit_line(np.array([[0.3, 0.4]]), None, 2)
        assert obj == pytest.approx(0.0)
        assert line.distances(np.array([[0.3, 0.4]]))[0] <= 1e-15

    def test_oracle_agreement_p2(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = rng.integers(3, 9)
            pts = rng.uniform(size=(m, 2))
            w = rng.uniform(0.1, 2.0, size=m)
            _line, obj = fit_line(pts, w, 2)
            oobj, _oline = brute_force_line_oracle(pts, w, 2, n_angles=1440, n_offsets=160)
            assert obj <= oobj * (1 + 1e-6) + 1e-12

    def test_oracle_agreement_p1(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            m = rng.integers(3, 8)
            pts = rng.uniform(size=(m, 2))
            _line, obj = fit_line(pts, None, 1)
            oobj, _oline = brute_force_line_oracle(pts, None, 1, n_angles=1440, n_offsets=160)
            assert obj <= oobj * (1 + 1e-3) + 1e-9

    def test_3d_fit(self):
        t = np.linspace(0, 1, 7)
        pts = np.column_stack([t, 2 * t, -t]) + 0.1
        line, obj = fit_line(pts, None, 2)
        assert obj <= 1e-12
        assert np.max(line.distances(pts)) <= 1e-8


def test_pattern_search_quadratic():
    f = lambda x: float((x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2)
    val, x = pattern_search(f, np.zeros(2), np.array([1.0, 1.0]), max_iter=200)
    assert val <= 1e-10
    assert np.allclose(x, [2.0, -1.0], atol=1e-4)


class TestOrdering:
    def test_orders_separated_points(self):
        V = np.array([[0.0, 0.01], [1.5, -0.01], [3.1, 0.0]])
        l1 = Line([0.0, 0.0], [1.0, 0.0])
        l2 = Line([0.0, 0.005], [1.0, 0.001])
        wit = order_along_lines(V, l1, l2, alpha=1.0 / 16.0)
        assert isinstance(wit, OrderingWitness)
        assert wit.order == [0, 1, 2]
        assert wit.max_segment_factor <= 1 + 3 * (1 / 16) ** 2 + 1e-9

    def test_rejects_close_points(self):
        V = np.array([[0.0, 0.0], [0.5, 0.0]])
        l1 = Line([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(OrderingError):
            order_along_lines(V, l1, l1, alpha=0.01)

    def test_rejects_far_from_line(self):
        V = np.array([[0.0, 1.0], [2.0, 0.0]])
        l1 = Line([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(OrderingError):
            order_along_lines(V, l1, l1, alpha=0.01)

    def test_rejects_large_alpha(self):
        V = np.array([[0.0, 0.0], [2.0, 0.0]])
        l1 = Line([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(OrderingError):
            order_along_lines(V, l1, l1, alpha=0.2)
