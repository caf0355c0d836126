import json

import numpy as np
import pytest

from mrt import Line, fit_line
from mrt import geometry
from mrt.errors import DimensionMismatch
from mrt.geometry import (
    canonical_direction,
    convex_hull_2d,
    diameter,
    enclosing_balls,
    min_width_strip_2d,
    pattern_search,
    sorted_unique,
    unit,
)

from _oracle import (
    brute_force_line_oracle,
    convex_hull_loop,
    min_enclosing_circle,
    min_width_strip_loop,
    rows,
    sequential_pattern_search,
)
from conftest import FIXTURES_DIR


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


def test_diameter(monkeypatch):
    # every chunking of the pair scan gives the brute-force diameter exactly
    X = np.random.default_rng(21).normal(size=(23, 3))
    brute = max(float(np.sqrt(((a - b) ** 2).sum())) for a in X for b in X)
    for chunk in (1, 7, 4_000_000):
        monkeypatch.setattr(geometry, "_DIAMETER_PAIRS_PER_CHUNK", chunk)
        assert diameter(X) == brute
        assert diameter(X[:1]) == 0.0


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

    @staticmethod
    def assert_strip_matches_loop(pts):
        assert np.array_equal(convex_hull_2d(pts), convex_hull_loop(pts))
        width, line = min_width_strip_2d(pts)
        want_width, want_line = min_width_strip_loop(pts)
        # bit for bit, so the signs of zeros count too
        assert np.float64(width).tobytes() == np.float64(want_width).tobytes()
        for got, want in ((line.base, want_line.base), (line.direction, want_line.direction)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("offset", (0.0, 2048.0, 1e6))
    def test_strip_matches_edge_loop_random(self, offset):
        rng = np.random.default_rng(int(offset) % 97 + 5)
        for m in range(2, 40):
            self.assert_strip_matches_loop(offset + rng.uniform(-1.0, 1.0, size=(m, 2)))
            self.assert_strip_matches_loop(offset + rng.normal(size=(m, 2)) * rng.uniform(1e-6, 3.0, 2))

    def test_strip_matches_edge_loop_degenerate(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            # snapped to a coarse grid: duplicate atoms, and hull edges that tie in width
            m = int(rng.integers(2, 30))
            self.assert_strip_matches_loop(np.round(rng.uniform(0.0, 1.0, size=(m, 2)) * 4.0) / 4.0)
            # collinear, with a direction that rounds off the line
            t = rng.uniform(-1.0, 1.0, size=m)
            u = rng.normal(size=2)
            self.assert_strip_matches_loop(np.outer(t, u) + rng.uniform(-5.0, 5.0, size=2))
        for pts in ([[0.0, 0.0], [1.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]],
                    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[3.0, 1.0]]):
            self.assert_strip_matches_loop(np.array(pts))

    def test_strip_matches_edge_loop_across_blocks(self):
        # a circle hull has as many edges as points: with 600 points the scan runs in blocks
        th = 2.0 * np.pi * np.arange(600) / 600
        pts = 2048.0 + np.column_stack([np.cos(th), 0.5 * np.sin(th)])
        assert len(convex_hull_2d(pts)) > geometry._STRIP_BLOCK_ENTRIES // len(pts)
        self.assert_strip_matches_loop(pts)

    def test_min_width_oracle_agreement(self):
        # sup-fit equals the brute-force sup oracle on random instances
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = rng.uniform(size=(8, 2))
            width, line = min_width_strip_2d(pts)
            oval, _oline = brute_force_line_oracle(pts, None, "sup", n_angles=720)
            assert width / 2 <= oval + 1e-9


def squared_distances(pts, center):
    # the arithmetic enclosing_balls measures its radii in
    W = pts[None, :, :] - center[None, None, :]
    return np.einsum("dmn,dmn->dm", W, W)[0]


class TestEnclosingBall:
    @staticmethod
    def ball(pts, start, iters):
        center, r = enclosing_balls(pts[None, :, :], start[None, :], 1, iters)
        # the radius is the maximum distance from the returned centre, so
        # every point lies in the ball, exactly
        assert np.sqrt(squared_distances(pts, center[0]).max()) == r[0]
        return center[0], float(r[0])

    @staticmethod
    def assert_within_bound(r, exact, iters):
        # the bound the docstring states for a start inside the convex hull
        assert exact * (1 - 1e-12) <= r <= (1 + 1 / np.sqrt(iters)) * exact * (1 + 1e-12)

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        for start in (pts.mean(axis=0), pts[0], np.array([0.5, 0.0])):
            for iters in (1, 2, 8, 64):
                _center, r = self.ball(pts, start, iters)
                self.assert_within_bound(r, 1.0, iters)
        center, r = self.ball(pts, pts.mean(axis=0), 1)
        assert np.array_equal(center, [1.0, 0.0]) and r == 1.0

    def test_equilateral_triangle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        for start in (pts.mean(axis=0), *pts):
            for iters in (1, 4, 16, 64, 256):
                _center, r = self.ball(pts, start, iters)
                self.assert_within_bound(r, 1 / np.sqrt(3), iters)

    def test_contains_all_points(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pts = rng.normal(size=(12, 2))
            _exact_center, exact = min_enclosing_circle(pts)
            for iters in (1, 5, 40, 300):
                _center, r = self.ball(pts, pts.mean(axis=0), iters)
                self.assert_within_bound(r, exact, iters)

    def test_sets_in_a_stack_are_independent(self):
        # each set's centre and radius are those of its own run, bit for bit,
        # from any start and first step
        rng = np.random.default_rng(8)
        Z = rng.normal(size=(5, 9, 3)) + rng.uniform(-1e3, 1e3, size=(5, 1, 3))
        start = Z.mean(axis=1) + rng.normal(size=(5, 3))
        for first_step in (1, 100):
            centers, radii = enclosing_balls(Z, start, first_step, 50)
            for i in range(len(Z)):
                center, r = enclosing_balls(Z[i:i + 1], start[i:i + 1], first_step, 50)
                assert center.tobytes() == centers[i:i + 1].tobytes() and r[0] == radii[i]


def sup_fit(X):
    """fit_line(X, None, "sup"), checking that the value is the line's exact maximum distance."""
    line, value = fit_line(X, None, "sup")
    assert value == float(line.distances(X).max())
    return line, value


class TestFitLine:
    def test_exact_on_collinear(self):
        t = np.linspace(0, 1, 9)
        pts = np.column_stack([t, 2 * t + 0.25])
        line, obj = fit_line(pts, None, 2)
        assert obj <= 1e-12
        assert np.max(line.distances(pts)) <= 1e-9
        # in R^3 and R^4 the sup fit keeps the line to rounding, at any scale
        for scale, offset in ((1.0, 0.0), (1e-8, 0.0), (1e8, 3e9), (1.0, 1e6)):
            for pts in (np.column_stack([t, 2 * t + 0.25, 0.5 - 3 * t]),
                        np.column_stack([t, -t, 0.1 + 0.5 * t, 2 * t])):
                X = scale * pts + offset
                _line, obj = sup_fit(X)
                assert obj <= 1e-12 * max(diameter(X), abs(offset))

    def test_weighted_pull(self):
        # heavy weight on outlier pulls the p=2 line toward it
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        _l1, obj_light = fit_line(pts, np.array([1.0, 1.0, 1e-6]), 2)
        _l2, obj_heavy = fit_line(pts, np.array([1.0, 1.0, 10.0]), 2)
        assert obj_light < obj_heavy

    def test_rejects_other_exponents(self):
        # the fit takes the L^2 gauge or the sup; no other exponent is solved
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        for p in (1, 2.5, "max"):
            with pytest.raises(ValueError, match="p must be 2 or 'sup'"):
                fit_line(pts, None, p)

    def test_single_point(self):
        # on one point, on coincident atoms and on atoms 1e-300 apart, in R^2
        # and R^3, the principal line passes through them: the fit scales the
        # 1e-300 pair to unit size, so its scatter matrix does not underflow
        for X, w in (([[0.3, 0.4]], None), ([[0.3, 0.4]] * 2, [1.0, 2.0]),
                     ([[0.0, 0.0], [1e-300, 0.0]], None),
                     ([[0.5, 0.5, 0.5]], None), ([[0.5, 0.5, 0.5]] * 3, [0.1, 0.2, 0.7])):
            X = np.array(X)
            line, obj = fit_line(X, w, 2)
            assert obj <= 1e-15 and np.all(line.distances(X) <= 1e-15)
            assert np.all(np.isfinite(line.base)) and np.linalg.norm(line.direction) == pytest.approx(1.0)
        # one point, two points and coincident atoms in R^3: the sup fit meets them all
        for X in ([[0.3, 0.4, 0.5]], [[0.3, 0.4, 0.5], [1.0, -2.0, 7.5]], [[0.3, 0.4, 0.5]] * 4,
                  [[0.3, 0.4, 0.5]] * 3 + [[1.0, -2.0, 7.5]] * 2):
            X = np.array(X)
            line, obj = sup_fit(X)
            assert obj <= 1e-15 * (1.0 + diameter(X))
            assert np.all(np.isfinite(line.base)) and np.linalg.norm(line.direction) == pytest.approx(1.0)

    def test_power_of_two_scaling_keeps_bits(self):
        # the fit scales the points by a power of two of their extent, so a
        # set scaled by 2^s fits the scaled line and value, bit for bit
        rng = np.random.default_rng(14)
        for n in (2, 3):
            X = rng.uniform(-1.0, 1.0, size=(7, n))
            w = rng.uniform(0.5, 2.0, size=7)
            for p in (2, "sup"):
                line, obj = fit_line(X, w, p)
                for s in (-7, 3, 40):
                    scaled, sobj = fit_line(np.ldexp(X, s), w, p)
                    assert sobj == np.ldexp(obj, s)
                    assert scaled.base.tobytes() == np.ldexp(line.base, s).tobytes()
                    assert scaled.direction.tobytes() == line.direction.tobytes()

    def test_pair_lines_match_per_pair_units(self):
        # the batched pair directions carry unit()'s bits, so the sup fit and
        # the coupled betas that score them are unchanged
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            for m in (1, 2, 5, 24, 25):
                X = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-100, 100)
                if m < 25:  # repeated points, down to one distinct point
                    X[m // 2:] = X[0]
                bases, dirs = geometry._pair_lines(X)
                U = sorted_unique(X)
                ref = [(U[i], unit(U[j] - U[i])) for i in range(len(U)) for j in range(i + 1, len(U))
                       if 2 <= len(U) <= 24 and np.linalg.norm(U[j] - U[i]) > 1e-300]
                assert bases.shape == dirs.shape == (len(ref), n)
                assert bases.tobytes() == np.array([a for a, _ in ref]).reshape(-1, n).tobytes()
                assert dirs.tobytes() == np.array([u for _, u in ref]).reshape(-1, n).tobytes()

    def test_oracle_agreement_p2(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = rng.integers(3, 9)
            pts = rng.uniform(size=(m, 2))
            w = rng.uniform(0.1, 2.0, size=m)
            _line, obj = fit_line(pts, w, 2)
            oobj, _oline = brute_force_line_oracle(pts, w, 2, n_angles=1440, n_offsets=160)
            assert obj <= oobj * (1 + 1e-6) + 1e-12

    def test_3d_fit(self):
        t = np.linspace(0, 1, 7)
        pts = np.column_stack([t, 2 * t, -t]) + 0.1
        line, obj = fit_line(pts, None, 2)
        assert obj <= 1e-12
        assert np.max(line.distances(pts)) <= 1e-8
        # a smoke case in R^4: the sup line is no worse than the principal line
        X = np.random.default_rng(4).normal(size=(15, 4))
        _line, obj = sup_fit(X)
        pca, _ = fit_line(X, None, 2)
        assert 0.0 < obj <= float(pca.distances(X).max())

    def test_sup_translation_invariant(self):
        rng = np.random.default_rng(6)
        for m, n in ((4, 3), (9, 3), (17, 3), (30, 3), (11, 4)):
            X = rng.normal(size=(m, n))
            _line, obj = sup_fit(X)
            _line, moved = sup_fit(X + 1e6)
            assert abs(moved - obj) <= 1e-9 * obj

    def test_sup_3d_golden(self):
        # sup3d_golden.json holds the values of the exact-ball Nelder-Mead
        # fit this search replaced: a 20-point helix, seeded Gaussian sets,
        # a near-collinear set and the helix moved by 1e6
        cases = json.loads((FIXTURES_DIR / "sup3d_golden.json").read_text())["cases"]
        assert len(cases) == 18
        for case in cases:
            _line, obj = sup_fit(np.array(case["points"]))
            assert obj <= 1.02 * case["value"], case["name"]


def test_pattern_search_quadratic():
    f = rows(lambda x: float((x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2))
    val, x = pattern_search(f, np.zeros(2), np.array([1.0, 1.0]), max_iter=200)
    assert val <= 1e-10
    assert np.allclose(x, [2.0, -1.0], atol=1e-4)


def quadratic(x):
    return float((x[0] - 2.0) ** 2 + 3.0 * (x[1] + 1.0) ** 2 + 0.5 * x[0] * x[1])


def max_affine(x):
    # pieces with integer slopes and offsets: exact ties along their seams
    return float(max(x[0] + x[1], -x[0] + 2.0 * x[1], 1.0 - x[1], 0.5 * x[0] - 1.0))


def plateau(x):
    # piecewise constant, so most polls tie with the current value
    return float(np.floor(2.0 * abs(x[0] - 0.75)) + np.floor(abs(x[1] + 0.25)) + (x[2] > 0.5))


@pytest.mark.parametrize(
    "f, x0, steps",
    [
        (quadratic, [0.0, 0.0], [1.0, 1.0]),
        (quadratic, [5.3, -7.1], [0.37, 2.0]),
        (max_affine, [3.0, -2.0], [1.0, 0.5]),
        (max_affine, [0.0, 0.0], [0.25, 0.25]),
        (plateau, [4.0, -3.0, 1.0], [1.0, 1.0, 0.5]),
        (plateau, [0.75, -0.25, 0.0], [0.125, 0.125, 0.125]),
    ],
)
@pytest.mark.parametrize("max_iter", (3, 60, 200))
def test_batched_search_follows_sequential_path(f, x0, steps, max_iter):
    got_f, got_x = pattern_search(rows(f), np.array(x0), np.array(steps), max_iter=max_iter)
    want_f, want_x = sequential_pattern_search(f, np.array(x0), np.array(steps), max_iter=max_iter)
    assert got_f == want_f and got_x.tobytes() == want_x.tobytes()


def test_batched_search_scores_remaining_polls_in_one_call():
    seen = []

    def f(X):
        seen.append(len(X))
        return rows(quadratic)(X)

    pattern_search(f, np.zeros(2), np.array([1.0, 1.0]), max_iter=1)
    # the start point, then the four polls. The first, (0, +), improves, so the
    # three polls left are scored again from there; the last of them, (1, -),
    # improves too and ends the step
    assert seen == [1, 4, 3]
