import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrt import (
    BetaCache,
    CubeTree,
    DiscreteMeasure,
    DyadicCube,
    beta_multi,
    cover_support,
    decompose_estimate,
    draw_through_tree,
    grow_tree,
    localize,
)
from mrt import rectify
from mrt.errors import CertificateError, TreeStructureError
from mrt.rectify import base_cube_for, sum_function

from _samples import four_corner_cantor, lipschitz_graph_measure, segment_measure


def two_cluster_setup():
    """Ten atoms near (0.2, 0.2), ten near (0.6, 0.6); b loads the left cube."""
    rng = np.random.default_rng(30)
    X = 0.15 + 0.1 * rng.random((10, 2))
    Y = 0.55 + 0.1 * rng.random((10, 2))
    mu = DiscreteMeasure(np.vstack([X, Y]), np.full(20, 0.05))
    top = DyadicCube(0, (0, 0))
    left = DyadicCube(1, (0, 0))
    right = DyadicCube(1, (1, 1))
    tree = CubeTree(top, [top, left, right])
    b = {left: 1.0}
    return mu, tree, top, left, right, b


class TestSumFunction:
    def test_hand_value(self):
        mu, tree, top, left, right, b = two_cluster_setup()
        # left-cluster atoms: one positive term, b / mass(left cube) = 1 / 0.5
        assert sum_function(tree, b, mu, mu.points[0]) == pytest.approx(2.0)
        assert sum_function(tree, b, mu, mu.points[15]) == 0.0

    def test_positive_b_over_zero_mass_is_infinite(self):
        mu, tree, top, left, right, _ = two_cluster_setup()
        empty = DyadicCube(2, (3, 3))  # [0.75, 1)^2 holds no atoms
        tree2 = CubeTree(top, set(tree.members) | {empty})
        assert sum_function(tree2, {empty: 0.5}, mu, [0.8, 0.8]) == math.inf


class TestLocalize:
    def test_splits_loaded_subtree(self):
        mu, tree, top, left, right, b = two_cluster_setup()
        loc = localize(tree, b, mu, N=1.0, eps=0.5)
        assert loc.bad == frozenset({left})
        assert loc.good is not None
        assert loc.good.members == frozenset({top, right})
        # A is exactly the right cluster
        assert loc.A_mass == pytest.approx(0.5)
        assert np.array_equal(np.nonzero(loc.A_mask)[0], np.arange(10, 20))
        assert loc.A_prime_mass == pytest.approx(0.5)
        assert loc.good_b_sum == 0.0
        assert loc.budget == pytest.approx(2.0)
        assert all(loc.checks.values())

    def test_badness_inherited_by_children(self):
        mu, tree, top, left, right, b = two_cluster_setup()
        child = DyadicCube(2, (0, 0))  # inside the loaded left cube
        tree2 = CubeTree(top, set(tree.members) | {child})
        loc = localize(tree2, b, mu, N=1.0, eps=0.5)
        assert child in loc.bad
        assert loc.good is not None and child not in loc.good.members

    def test_zero_A_makes_everything_bad(self):
        mu, tree, top, left, right, _ = two_cluster_setup()
        loc = localize(tree, {top: 1.0}, mu, N=0.5, eps=0.5)
        assert loc.A_mass == 0.0
        assert loc.bad == tree.members
        assert loc.good is None

    def test_argument_validation(self):
        mu, tree, *_ = two_cluster_setup()
        with pytest.raises(ValueError):
            localize(tree, {}, mu, N=0.0, eps=0.5)
        with pytest.raises(ValueError):
            localize(tree, {}, mu, N=1.0, eps=0.0)

    def test_all_good_when_b_small(self):
        mu, tree, *_ , b = two_cluster_setup()
        loc = localize(tree, {}, mu, N=1.0, eps=0.1)
        assert loc.good is not None and loc.good.members == tree.members
        assert not loc.bad
        assert loc.A_mass == pytest.approx(mu.total)


@st.composite
def localize_cases(draw):
    """A random tree under the unit cube, a measure, b values, N and eps."""
    top = DyadicCube(0, (0, 0))
    members = {top}
    for k, i, j in draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 7), st.integers(0, 7)), max_size=8)):
        Q = DyadicCube(k, (i % 2**k, j % 2**k))
        while Q not in members:
            members.add(Q)
            Q = Q.parent()
    tree = CubeTree(top, members)
    m = draw(st.integers(1, 12))
    # centres of scale-4 cells put several atoms in one cube; free floats
    # reach the faces
    coords = st.one_of(
        st.integers(0, 19).map(lambda v: (v + 0.5) / 16),
        st.floats(0.0, 1.25, exclude_max=True, allow_subnormal=False),
    )
    pts = np.array(draw(st.lists(st.tuples(coords, coords), min_size=m, max_size=m)))
    # distinct powers of two: equal masses mean equal atom sets. The scale
    # matters, as the badness test eps mu(A) mu(R) is quadratic in mu
    scale = draw(st.sampled_from([0, 6, 12]))
    weights = 2.0 ** (scale - np.array(draw(st.permutations(range(m))), dtype=float))
    mu = DiscreteMeasure(pts, weights)
    values = st.sampled_from([0.0, 0.001, 0.05, 0.5])
    b = {Q: draw(values) for Q in tree}
    N = draw(st.sampled_from([0.05, 0.5, 5.0, 50.0]))
    eps = draw(st.sampled_from([0.05, 0.25, 0.5]))
    return tree, b, mu, N, eps


def inherited_badness_case():
    """(1,(0,0)) is bad, but its child (2,(1,1)) holds only an atom of A: bad by inheritance."""
    top, P, Q, R = DyadicCube(0, (0, 0)), DyadicCube(1, (0, 0)), DyadicCube(2, (1, 1)), DyadicCube(2, (0, 0))
    mu = DiscreteMeasure([[0.1, 0.1], [0.3, 0.3], [0.8, 0.8]], [0.5, 0.0625, 1.0])
    return CubeTree(top, [top, P, Q, R]), {R: 0.5}, mu, 0.5, 0.5


class TestLocalizeProperty:
    @settings(max_examples=200, deadline=None, database=None)
    @given(localize_cases())
    @example(inherited_badness_case())
    def test_matches_docstring(self, case):
        tree, b, mu, N, eps = case
        loc = localize(tree, b, mu, N=N, eps=eps)
        in_A = np.zeros(len(mu), dtype=bool)
        for i in mu.atoms_in_cube(tree.top):
            in_A[i] = sum_function(tree, b, mu, mu.points[i]) <= N
        assert np.array_equal(loc.A_mask, in_A)
        A_mass = float(mu.weights[in_A].sum())

        def too_light(R):
            return float(mu.weights[in_A & R.contains_mask(mu.points)].sum()) <= eps * A_mass * mu.mass(R)

        bad = {Q for Q in tree.members if any(R.contains_cube(Q) and too_light(R) for R in tree.members)}
        assert loc.bad == bad
        in_Aprime = in_A.copy()
        for Q in bad:
            in_Aprime &= ~Q.contains_mask(mu.points)
        assert loc.A_prime_mass == float(mu.weights[in_Aprime].sum())


class TestGrowTree:
    def test_doubling_base_is_unit_cube(self):
        mu = segment_measure(16)
        r_x, base = base_cube_for(mu, mu.points[0], "doubling")
        assert r_x == 1.0
        assert base.k == 0

    def test_lower_regular_on_segment(self):
        mu = segment_measure(128)
        grown = grow_tree(mu, mu.points[60], "lower_regular", c=0.05, k_max=4)
        assert grown.tree is not None
        assert grown.diagnostic is None
        assert grown.base_cube == grown.tree.top
        assert grown.tree.max_scale == 4
        for Q in grown.tree.members:
            tri = Q.triple()
            assert mu.mass(tri) >= 0.05 * tri.diameter

    def test_density_failure_reports_diagnostic(self):
        mu = DiscreteMeasure([[0.2, 0.2], [0.7, 0.7]], [1e-6, 1e-6])
        grown = grow_tree(mu, mu.points[0], "lower_regular", c=1.0, k_max=4)
        assert grown.tree is None
        assert grown.diagnostic is not None

    def test_doubling_members_satisfy_hypothesis(self):
        mu = segment_measure(64)
        grown = grow_tree(mu, mu.points[30], "doubling", D=3, k_max=3)
        assert grown.tree is not None
        bound = 2.0**3
        for Q in grown.tree.members:
            mass = mu.mass(Q.triple())
            assert mass > 0
            if Q != grown.tree.top:
                assert mu.mass(Q.parent().triple()) <= bound * mass

    def test_argument_validation(self):
        mu = segment_measure(8)
        with pytest.raises(ValueError):
            grow_tree(mu, mu.points[0], "nope")
        with pytest.raises(ValueError):
            grow_tree(mu, mu.points[0], "lower_regular")
        with pytest.raises(ValueError):
            grow_tree(mu, mu.points[0], "doubling", D=0.5)


class TestDrawThroughTree:
    def test_plain_star_star_on_segment(self):
        mu = segment_measure(48)
        grown = grow_tree(mu, mu.points[20], "lower_regular", c=0.05, k_max=3)
        draw = draw_through_tree(mu, grown.tree, regime="plain_star_star")
        assert draw.coverage["ok"]
        assert draw.accounting["regime"] == "plain_star_star"
        assert draw.accounting["regime_budget"] == pytest.approx(
            48.0 * draw.accounting["regime_sum"]
        )
        assert draw.accounting["n_bridges"] == 0

    def test_lower_regular_hypothesis_checked(self):
        mu = DiscreteMeasure([[0.1, 0.1], [0.5, 0.8], [0.9, 0.2]], [0.01, 0.01, 0.01])
        tree = CubeTree(DyadicCube(0, (0, 0)), [DyadicCube(0, (0, 0))])
        with pytest.raises(TreeStructureError):
            draw_through_tree(mu, tree, regime="lower_regular", c=1.0)

    def test_doubling_hypothesis_checked(self):
        mu = DiscreteMeasure([[0.05, 0.05], [0.4, 0.4]], [100.0, 1.0])
        top = DyadicCube(0, (0, 0))
        # A scale-1 member cannot fail: its triple covers the whole top cube.
        # mu(3 (3,(3,3))) = 1 sees only the light atom; its parent's triple has 101 > 2^6.
        branch = [DyadicCube(1, (0, 0)), DyadicCube(2, (1, 1)), DyadicCube(3, (3, 3))]
        tree = CubeTree(top, [top, *branch])
        with pytest.raises(TreeStructureError):
            draw_through_tree(mu, tree, regime="doubling", D=6)

    def test_doubling_draw_on_segment(self):
        mu = segment_measure(32)
        grown = grow_tree(mu, mu.points[15], "doubling", D=3, k_max=3)
        draw = draw_through_tree(mu, grown.tree, regime="doubling", D=3)
        assert draw.coverage["ok"]
        assert draw.accounting["regime"] == "doubling"
        assert np.isfinite(draw.accounting["regime_budget"])

    @pytest.mark.parametrize("regime", ["lower_regular", "plain_star_star"])
    def test_regime_sum_uses_callers_betas(self, regime):
        mu = lipschitz_graph_measure(48)
        c = 0.05
        tree = grow_tree(mu, mu.points[20], "lower_regular", c=c, k_max=3).tree
        cache = BetaCache(mu)
        draw = draw_through_tree(mu, tree, regime=regime, c=c, cache=cache, refine=False)
        variant, vc = ("star_c", c) if regime == "lower_regular" else ("star_star", None)
        # one refine policy: the budget adds no second (refined) beta per cube
        assert all(cache.get((Q, 2, variant, vc, True)) is None for Q in tree.members)
        expected = sum(
            beta_multi(mu, Q, 2, variant, c=vc, refine=False, cache=cache).value ** 2 * Q.diameter
            for Q in tree.members
        )
        assert expected > 0
        assert draw.accounting["regime_sum"] == pytest.approx(expected, rel=1e-12)

    def test_plain_budget_computes_member_betas_only(self):
        mu = lipschitz_graph_measure(48)
        tree = grow_tree(mu, mu.points[20], "lower_regular", c=0.05, k_max=3).tree
        cache = BetaCache(mu)
        draw = draw_through_tree(mu, tree, regime="plain_star_star", cache=cache)
        # one star_star beta per member, none for other mass-carrying cubes
        assert len(cache._values) == len(tree) == 45
        assert {key[0] for key in cache._values} == tree.members
        assert draw.accounting["regime_budget"] == pytest.approx(1.5911037198327138, rel=1e-12)

    def test_coverage_failure_is_typed(self, monkeypatch):
        mu = segment_measure(48)
        tree = grow_tree(mu, mu.points[20], "lower_regular", c=0.05, k_max=3).tree
        monkeypatch.setattr(rectify, "hausdorff_to_segments", lambda *a, **k: math.inf)
        with pytest.raises(CertificateError):
            draw_through_tree(mu, tree, regime="plain_star_star")

    def test_argument_validation(self):
        mu = segment_measure(8)
        tree = CubeTree(DyadicCube(0, (0, 0)), [DyadicCube(0, (0, 0))])
        with pytest.raises(ValueError):
            draw_through_tree(mu, tree, regime="lower_regular")
        with pytest.raises(ValueError):
            draw_through_tree(mu, tree, regime="doubling")


class TestCoverSupport:
    def test_single_atom_support(self):
        mu = DiscreteMeasure([[0.4, 0.4]], [1.0])
        cov = cover_support(mu)
        assert cov.curves == [] and cov.connectors == []
        assert cov.accounting["length_total"] == 0.0

    def test_segment_cover(self):
        mu = segment_measure(48)
        cov = cover_support(mu, k_max=3)
        assert cov.accounting["n_top_cubes"] == len(cov.curves) > 0
        assert all(dr.coverage["ok"] for dr in cov.curves)
        assert cov.accounting["length_total"] > 0.4
        assert cov.accounting["s_star_star"] <= 1e-12
        assert len(cov.connectors) <= len(cov.curves) - 1


class TestDecomposeEstimate:
    def test_flat_segment_fully_rectifiable(self):
        mu = segment_measure(64)
        rep = decompose_estimate(
            mu, c_ladder=(0.05,), N_cap=10.0, eps_ladder=(0.5,), k_max=4
        )
        assert rep.labels() == ["rect-candidate"] * 64
        assert rep.rect_mass == pytest.approx(1.0)
        assert rep.captured_fraction == pytest.approx(1.0)
        assert len(rep.curves) >= 1
        assert rep.params["k_max"] == 4
        assert rep.params["c_ladder"] == [0.05]

    @pytest.mark.parametrize("sample", [lipschitz_graph_measure, segment_measure])
    def test_full_capture_is_exactly_one(self, sample):
        mu = sample(48)
        rep = decompose_estimate(mu, c_ladder=(0.01,), N_cap=0.03, k_max=4)
        assert rep.captured_fraction == 1.0

    def test_failed_draws_are_reported(self, monkeypatch):
        mu = lipschitz_graph_measure(40)
        kwargs = dict(c_ladder=(0.01,), N_cap=0.03, k_max=3)
        drawn = decompose_estimate(mu, **kwargs)
        assert drawn.curves and drawn.dropped == []
        monkeypatch.setattr(rectify, "hausdorff_to_segments", lambda *a, **k: math.inf)
        rep = decompose_estimate(mu, **kwargs)
        assert rep.curves == []
        assert len(rep.dropped) == len(drawn.curves)
        for d in rep.dropped:
            assert rep.atoms[d.atom].label == "rect-candidate"
            assert d.c == 0.01 and d.base_cube is not None
            assert d.reason.startswith("CertificateError: leaf coverage failed")
        assert rep.captured_fraction == 0.0

    def test_light_outlier_fails_density(self):
        seg = segment_measure(32, total=1.0)
        pts = np.vstack([seg.points, [[30.0, 30.0]]])
        w = np.concatenate([seg.weights, [1e-6]])
        mu = DiscreteMeasure(pts, w)
        rep = decompose_estimate(
            mu, c_ladder=(0.05,), N_cap=10.0, eps_ladder=(0.5,), k_max=4
        )
        outlier = rep.atoms[-1]
        assert outlier.label == "unrect-candidate"
        assert outlier.reason == "density_below_threshold"
        assert rep.rect_mass == pytest.approx(1.0)

    def test_cantor_atoms_exceed_tiny_cap(self):
        mu = four_corner_cantor(2)
        rep = decompose_estimate(
            mu, c_ladder=(0.01,), N_cap=1e-9, eps_ladder=(0.5,), k_max=3
        )
        assert all(a.label == "unrect-candidate" for a in rep.atoms)
        assert all(a.reason == "jones_above_cap" for a in rep.atoms)
        assert rep.curves == []
        assert rep.captured_fraction == 0.0
