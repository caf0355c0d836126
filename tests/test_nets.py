import numpy as np
import pytest

from mrt import (
    CubeTree,
    DiscreteMeasure,
    DyadicCube,
    Line,
    NetSequence,
    chain_of_cubes,
    fit_alphas,
    nets_from_points,
    nets_from_tree,
    validate_nets,
)
from mrt.errors import EmptyInput, NetValidationError, ZeroMassTriple
from mrt.nets import hausdorff_to_segments

from _samples import circle_measure, segment_measure


class TestNetSequence:
    def test_basic_properties(self):
        levels = [np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [0.4, 0.0]])]
        nets = NetSequence(levels, r0=1.0, cstar=2.0)
        assert nets.K == 1
        assert nets.sep(0) == 1.0
        assert nets.sep(2) == 0.25
        assert np.array_equal(nets.level(1), levels[1])

    def test_k0(self):
        two = np.array([[0.0, 0.0], [1.0, 0.0]])
        one = np.array([[0.0, 0.0]])
        assert NetSequence([one, two, two], r0=2.0, cstar=2.0).k0 == 1
        assert NetSequence([two, two], r0=2.0, cstar=2.0).k0 == 0
        # a single-point tail level blocks every k
        assert NetSequence([two, one], r0=2.0, cstar=2.0).k0 is None

    def test_constructor_validation(self):
        with pytest.raises(EmptyInput):
            NetSequence([], r0=1.0, cstar=2.0)
        with pytest.raises(NetValidationError):
            NetSequence([np.zeros((1, 2)), np.zeros((1, 3))], r0=1.0, cstar=2.0)
        with pytest.raises(NetValidationError):
            NetSequence([np.zeros((1, 2))], r0=0.0, cstar=2.0)
        with pytest.raises(NetValidationError):
            NetSequence([np.zeros((1, 2))], r0=1.0, cstar=1.0)


class TestNeighbourQueries:
    def nets(self):
        V1 = np.array([[3.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.5, 0.0]])
        return NetSequence([np.array([[0.0, 0.0]]), V1], r0=4.0, cstar=2.0)

    def test_distances(self):
        nets = self.nets()
        assert np.array_equal(nets.distances(1, [0.0, 0.0]), [3.0, 1.0, 1.0, 1.0, 1.0, 0.5])

    def test_near_is_open_and_ascending(self):
        nets = self.nets()
        # the four points at distance exactly 1 lie on the sphere: excluded
        assert nets.near(1, [0.0, 0.0], 1.0).tolist() == [5]
        assert nets.near(1, [0.0, 0.0], np.nextafter(1.0, 2.0)).tolist() == [1, 2, 3, 4, 5]
        assert nets.near(1, [0.0, 0.0], 0.5).tolist() == []

    def test_nearest_ties_go_to_least_point(self):
        nets = self.nets()
        assert nets.nearest(1, [0.0, 0.0]) == 5
        # without (0.5, 0), rows 1-4 tie at distance 1 from the origin; the
        # least point (-1, 0) is row 2, not the first tied row
        tied = NetSequence([np.array([[0.0, 0.0]]), nets.levels[1][:5]], r0=4.0, cstar=2.0)
        assert tied.nearest(1, [0.0, 0.0]) == 2
        assert tied.nearest(1, [0.0, 0.5]) == 1

    def test_neighborhood_uses_both_levels(self):
        nets = self.nets()
        # radius 65 Cstar 2^{-1} r0 = 260 covers everything; V_0 rows come first
        nb = nets.neighborhood(1, [0.0, 0.0])
        assert np.array_equal(nb, np.vstack(nets.levels))


class TestNetsFromPoints:
    def test_circle_nets_validate(self):
        E = circle_measure(48).points
        nets = nets_from_points(E, K=5)
        assert nets.validation is not None and nets.validation.ok
        assert nets.validation.cstar_min <= 2.0
        assert nets.K == 5

    def test_default_r0_is_diameter(self):
        E = circle_measure(32).points
        nets = nets_from_points(E, K=2)
        brute = max(np.linalg.norm(a - b) for a in E for b in E)
        assert nets.r0 == pytest.approx(brute)

    def test_levels_are_input_points_and_separated(self):
        rng = np.random.default_rng(17)
        E = rng.uniform(size=(40, 2))
        nets = nets_from_points(E, K=4)
        rows = {tuple(p) for p in E}
        for k, V in enumerate(nets.levels):
            assert {tuple(p) for p in V} <= rows
            for i in range(len(V)):
                d = np.linalg.norm(V[i + 1 :] - V[i], axis=1)
                assert not len(d) or d.min() >= nets.sep(k) * (1 - 1e-12)

    def test_maximality_covers_input(self):
        rng = np.random.default_rng(18)
        E = rng.uniform(size=(30, 2))
        nets = nets_from_points(E, K=3)
        for k, V in enumerate(nets.levels):
            for x in E:
                assert np.min(np.linalg.norm(V - x, axis=1)) < nets.sep(k)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            nets_from_points(np.empty((0, 2)))

    def test_single_point(self):
        nets = nets_from_points(np.array([[0.3, 0.7]]), K=2)
        assert nets.r0 == 1.0
        assert all(len(V) == 1 for V in nets.levels)
        assert nets.validation.ok


class TestValidateNets:
    def test_separation_violation(self):
        levels = [np.array([[0.0, 0.0], [0.1, 0.0]])]
        nets = NetSequence(levels, r0=1.0, cstar=2.0)
        rep = validate_nets(nets)
        assert not rep.ok
        assert not rep.separation_ok
        assert any(v["condition"] == "V_I" for v in rep.violations)

    def test_proximity_and_ball_violations(self):
        levels = [np.array([[0.0, 0.0]]), np.array([[10.0, 0.0]])]
        nets = NetSequence(levels, r0=1.0, cstar=2.0, x0=[0.0, 0.0])
        rep = validate_nets(nets)
        conds = {v["condition"] for v in rep.violations}
        assert {"V_II", "V_III", "ball"} <= conds
        assert rep.cstar_min >= 10.0
        # a generous enough constant validates the same sequence
        assert validate_nets(nets, cstar=25.0).ok

    def test_summary(self):
        nets = nets_from_points(segment_measure(10).points, K=2)
        s = validate_nets(nets).summary()
        assert s["ok"] and s["n_violations"] == 0


class TestNetsFromTree:
    def _measure_and_tree(self):
        mu = segment_measure(24)
        cubes = set()
        for x in mu.points:
            cubes.update(chain_of_cubes(x, 2))
        return mu, CubeTree.from_cubes(cubes)

    def test_valid_output_with_witnesses(self):
        mu, tree = self._measure_and_tree()
        nets = nets_from_tree(mu, tree)
        assert nets.validation.ok
        assert nets.r0 == pytest.approx(3.0 * tree.top.diameter)
        assert nets.witnesses is not None
        for g, (V, wits) in enumerate(zip(nets.levels, nets.witnesses)):
            assert len(wits) == len(V)
            for v, Q in zip(V, wits):
                assert Q in tree
                assert np.allclose(v, mu.center_of_mass(Q.triple()))

    def test_dying_branch_keeps_contributing(self):
        # one branch stops at scale 1; its last center must keep the finer
        # levels forward-proximate
        mu = DiscreteMeasure([[0.05, 0.05], [0.9, 0.9]], [1.0, 1.0])
        top = DyadicCube(0, (0, 0))
        members = {top, DyadicCube(1, (0, 0)), DyadicCube(1, (1, 1)),
                   DyadicCube(2, (0, 0))}
        tree = CubeTree(top, members)
        nets = nets_from_tree(mu, tree)
        assert nets.K == 2
        assert nets.validation.ok

    def test_zero_mass_triple_raises(self):
        # the triple of the deep far member is [0.5, 1.25]^2, atom-free
        mu = DiscreteMeasure([[0.01, 0.01], [0.02, 0.015]], [1.0, 1.0])
        top = DyadicCube(0, (0, 0))
        tree = CubeTree(top, [top, DyadicCube(1, (1, 1)), DyadicCube(2, (3, 3))])
        with pytest.raises(ZeroMassTriple):
            nets_from_tree(mu, tree)


class TestFitAlphas:
    def test_flat_input_gives_zero_alphas(self):
        nets = nets_from_points(segment_measure(20).points, K=3)
        alphas = fit_alphas(nets)
        assert all(a <= 1e-12 for (_, a) in alphas.entries.values())
        assert alphas.budget() <= 1e-20

    def test_defining_inequality_holds(self):
        nets = nets_from_points(circle_measure(32).points, K=4)
        alphas = fit_alphas(nets)
        for (k, i), (line, alpha) in alphas.entries.items():
            nbhd = nets.neighborhood(k, nets.levels[k][i])
            sup = float(line.distances(nbhd).max())
            assert sup <= alpha * nets.sep(k) * (1 + 1e-12)

    def test_supplied_lines_are_used(self):
        nets = nets_from_points(segment_measure(12).points, K=2)
        bad = Line([0.5, 0.5], [0.0, 1.0])  # perpendicular to the data
        alphas = fit_alphas(nets, lines={(1, 0): bad})
        assert alphas.line(1, 0) is bad
        assert alphas.alpha(1, 0) > 0.0
        # inequality still holds because alpha is the exact sup ratio
        nbhd = nets.neighborhood(1, nets.levels[1][0])
        assert float(bad.distances(nbhd).max()) <= alphas.alpha(1, 0) * nets.sep(1)

    def test_budget_matches_manual_sum(self):
        nets = nets_from_points(circle_measure(16).points, K=3)
        alphas = fit_alphas(nets)
        manual = sum(
            a * a * 2.0 ** (-k) * nets.r0 for (k, _), (_, a) in alphas.entries.items()
        )
        assert alphas.budget() == pytest.approx(manual)


class TestHausdorffToSegments:
    def test_point_to_interior(self):
        segs = [(np.array([0.0, 0.0]), np.array([1.0, 0.0]))]
        assert hausdorff_to_segments(np.array([[0.5, 1.0]]), segs) == pytest.approx(1.0)

    def test_endpoint_clamp(self):
        segs = [(np.array([0.0, 0.0]), np.array([1.0, 0.0]))]
        assert hausdorff_to_segments(np.array([[2.0, 0.0]]), segs) == pytest.approx(1.0)

    def test_degenerate_segment(self):
        segs = [(np.array([1.0, 1.0]), np.array([1.0, 1.0]))]
        assert hausdorff_to_segments(np.array([[1.0, 2.0]]), segs) == pytest.approx(1.0)

    def test_max_over_points(self):
        segs = [(np.array([0.0, 0.0]), np.array([1.0, 0.0]))]
        pts = np.array([[0.5, 0.2], [0.5, -0.7]])
        assert hausdorff_to_segments(pts, segs) == pytest.approx(0.7)
