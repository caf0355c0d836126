import math
from dataclasses import replace

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
    decompose_estimate,
    draw_through_tree,
    grow_tree,
    localize,
)
from mrt import rectify
from mrt.errors import CertificateError, TreeStructureError
from mrt.rectify import base_cube_for

from _oracle import box_contains, cube_contains, sum_function
from _samples import four_corner_cantor, graph_cantor_mixture, lipschitz_graph_measure, segment_measure


def ladder_profile(mu, x, k_max):
    """The density profile decompose_estimate takes at x: radii 2^-j, j <= k_max."""
    return mu.density_profile(x, [2.0 ** (-j) for j in range(k_max + 1)])


def grow_at(mu, x, c, k_max):
    """grow_tree under the base cube that x's ladder profile picks."""
    return grow_tree(mu, base_cube_for(ladder_profile(mu, x, k_max), c=c), c=c, k_max=k_max)


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
        s = sum_function(tree, b, mu, mu.points[0])
        assert s == pytest.approx(2.0)
        assert sum_function(tree, b, mu, mu.points[15]) == 0.0
        # localize puts an atom in A exactly when its sum is at most N
        for N, left_in_A in ((s, True), (np.nextafter(s, 0.0), False)):
            A = localize(tree, b, mu, N=N, eps=0.5).A_mask
            assert np.all(A[mu.atoms_in(left)] == left_in_A)
            assert np.all(A[mu.atoms_in(right)])

    def test_positive_b_over_zero_mass_is_skipped(self):
        # lower regularity bounds mu(3Q), not mu(Q): a tree cube can carry
        # b > 0 and no atom, and then it adds to no atom's sum
        mu, tree, top, left, right, _ = two_cluster_setup()
        empty = DyadicCube(2, (3, 3))  # [0.75, 1)^2 holds no atoms
        tree2 = CubeTree(top, set(tree.members) | {empty})
        loc = localize(tree2, {empty: 0.5}, mu, N=1.0, eps=0.5)
        assert np.all(loc.A_mask)
        assert loc.bad == frozenset({empty})


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


def split_is_a_tree(tree, loc) -> bool:
    """The split's structure: bad cubes closed downward in the tree, and the
    good cubes, unless the top is bad, a tree under the same top."""
    downward = all(C in loc.bad for Q in loc.bad for C in tree.children_in_tree(Q))
    if tree.top in loc.bad:
        return downward and loc.good is None
    # a CubeTree holds the ancestors of its members
    return downward and loc.good is not None and loc.good.top == tree.top and (
        loc.good.members == tree.members - loc.bad)


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
            return float(mu.weights[in_A & cube_contains(R, mu.points)].sum()) <= eps * A_mass * mu.mass(R)

        bad = {Q for Q in tree.members if any(R.contains_cube(Q) and too_light(R) for R in tree.members)}
        assert loc.bad == bad
        assert split_is_a_tree(tree, loc)
        # the lemma's two conclusions, which localize rechecks in floating
        # point: A' = A minus the bad cubes keeps mass, and the good cubes
        # stay within the budget
        in_Aprime = in_A.copy()
        for Q in bad:
            in_Aprime &= ~cube_contains(Q, mu.points)
        A_prime_mass = float(mu.weights[in_Aprime].sum())
        assert A_prime_mass >= (1 - eps * mu.mass(tree.top)) * A_mass - 1e-12 * max(1.0, A_mass)
        assert sum(b.get(Q, 0.0) for Q in tree.members - bad) < N / eps

    def test_split_check_catches_a_corrupted_split(self):
        tree, b, mu, N, eps = inherited_badness_case()
        loc = localize(tree, b, mu, N=N, eps=eps)
        top, P, Q = DyadicCube(0, (0, 0)), DyadicCube(1, (0, 0)), DyadicCube(2, (1, 1))
        assert loc.bad == {P, Q, DyadicCube(2, (0, 0))} and split_is_a_tree(tree, loc)
        # a bad cube with a child that is not bad
        assert not split_is_a_tree(tree, replace(loc, bad=loc.bad - {Q}))
        # a good tree that holds a bad cube, and one missing a good cube
        assert not split_is_a_tree(tree, replace(loc, good=CubeTree(top, [top, P, Q])))
        assert not split_is_a_tree(tree, replace(loc, good=None))


def lower_regular(mu, Q, c) -> bool:
    """mu(3Q) >= c diam 3Q, with mu(3Q) from a scan of every atom."""
    tri = Q.triple()
    return float(mu.weights[box_contains(tri, mu.points)].sum()) >= c * tri.diameter


def grow_misses(mu, tree, c, k_max) -> list:
    """Where a grown tree breaks its definition: a member that is not lower
    regular, or a lower-regular child of a member above k_max left out."""
    misses = [Q for Q in tree if not lower_regular(mu, Q, c)]
    return misses + [C for Q in tree if Q.k < k_max for C in Q.children()
                     if C not in tree and lower_regular(mu, C, c)]


class TestGrowTree:
    def test_lower_regular_on_segment(self):
        mu = segment_measure(128)
        base = base_cube_for(ladder_profile(mu, mu.points[60], 4), c=0.05)
        grown = grow_tree(mu, base, c=0.05, k_max=4)
        assert grown.tree is not None
        assert grown.diagnostic is None
        assert grown.tree.top == base
        assert max(Q.k for Q in grown.tree) == 4
        assert grow_misses(mu, grown.tree, 0.05, 4) == []

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.lists(st.tuples(*[st.integers(0, 63).map(lambda v: v / 64)] * 2), min_size=1, max_size=24),
        st.sampled_from([0.01, 0.05, 0.2]),
    )
    def test_grown_tree_is_the_deepest_lower_regular_tree(self, cells, c):
        # atoms on the 1/64 lattice sit on the faces of the triples
        mu = DiscreteMeasure(np.array(cells), np.full(len(cells), 1.0 / len(cells)))
        top = DyadicCube(0, (0, 0))
        grown = grow_tree(mu, top, c=c, k_max=4)
        if grown.tree is None:
            assert not lower_regular(mu, top, c)
        else:
            assert grow_misses(mu, grown.tree, c, 4) == []

    def test_grow_misses_catch_a_member_that_fails(self, monkeypatch):
        # a predicate that admits every child grows cubes whose triples hold
        # too little mass; the scan finds them
        mu = segment_measure(16)
        assert grow_misses(mu, grow_tree(mu, DyadicCube(0, (0, 0)), c=0.05, k_max=3).tree, 0.05, 3) == []
        monkeypatch.setattr(rectify, "_lower_regular_ok", lambda mu, Q, c: True)
        grown = grow_tree(mu, DyadicCube(0, (0, 0)), c=0.05, k_max=3)
        assert grow_misses(mu, grown.tree, 0.05, 3) != []

    def test_density_failure_reports_diagnostic(self):
        mu = DiscreteMeasure([[0.2, 0.2], [0.7, 0.7]], [1e-6, 1e-6])
        assert base_cube_for(ladder_profile(mu, mu.points[0], 4), c=1.0) is None
        # a base cube that fails mu(3Q) >= c diam 3Q grows no tree
        grown = grow_tree(mu, DyadicCube(0, (0, 0)), c=1.0, k_max=4)
        assert grown.tree is None
        assert grown.diagnostic is not None

    def test_argument_validation(self):
        mu = segment_measure(8)
        for c in (0.0, -0.5):
            with pytest.raises(ValueError):
                grow_tree(mu, DyadicCube(0, (0, 0)), c=c)
            with pytest.raises(ValueError):
                base_cube_for(ladder_profile(mu, mu.points[0], 8), c=c)


class TestDrawThroughTree:
    def test_lower_regular_draw_on_segment(self):
        mu = segment_measure(48)
        c = 0.05
        grown = grow_at(mu, mu.points[20], c=c, k_max=3)
        draw = draw_through_tree(mu, grown.tree, c=c)
        assert draw.coverage["ok"]
        assert draw.accounting["regime"] == "lower_regular"
        assert draw.accounting["regime_budget"] == pytest.approx(
            48.0 / c * draw.accounting["regime_sum"]
        )
        assert draw.accounting["n_bridges"] == 0

    def test_lower_regular_hypothesis_checked(self):
        mu = DiscreteMeasure([[0.1, 0.1], [0.5, 0.8], [0.9, 0.2]], [0.01, 0.01, 0.01])
        tree = CubeTree(DyadicCube(0, (0, 0)), [DyadicCube(0, (0, 0))])
        with pytest.raises(TreeStructureError):
            draw_through_tree(mu, tree, c=1.0)

    def test_regime_sum_uses_callers_betas(self):
        mu = lipschitz_graph_measure(48)
        c = 0.05
        tree = grow_at(mu, mu.points[20], c=c, k_max=3).tree
        cache = BetaCache(mu)
        draw = draw_through_tree(mu, tree, c=c, cache=cache)
        # one refine policy: the budget adds no second (refined) beta per cube
        assert all(cache.get((Q, 2, "star_c", c, True)) is None for Q in tree.members)
        expected = sum(
            beta_multi(mu, Q, 2, "star_c", c=c, refine=False, cache=cache).value ** 2 * Q.diameter
            for Q in tree.members
        )
        assert expected > 0
        assert draw.accounting["regime_sum"] == pytest.approx(expected, rel=1e-12)

    def test_coverage_failure_is_typed(self, monkeypatch):
        mu = segment_measure(48)
        tree = grow_at(mu, mu.points[20], c=0.05, k_max=3).tree
        monkeypatch.setattr(rectify, "hausdorff_to_segments", lambda *a, **k: math.inf)
        with pytest.raises(CertificateError):
            draw_through_tree(mu, tree, c=0.05)

    def test_argument_validation(self):
        mu = segment_measure(8)
        tree = CubeTree(DyadicCube(0, (0, 0)), [DyadicCube(0, (0, 0))])
        for c in (0.0, -0.5):
            with pytest.raises(ValueError):
                draw_through_tree(mu, tree, c=c)


class TestDecomposeEstimate:
    def test_flat_segment_fully_rectifiable(self):
        mu = segment_measure(64)
        rep = decompose_estimate(
            mu, c_ladder=(0.05,), N_cap=10.0, eps_ladder=(0.5,), k_max=4
        )
        assert [a.label for a in rep.atoms] == ["rect-candidate"] * 64
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
        # it clears no density test, so it has no Jones value
        assert outlier.jones is None and outlier.c_used is None
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


class TestComputeOnce:
    """Each decomposition fact is computed once, on the benchmark's mixture input."""

    KWARGS = dict(c_ladder=(0.01,), N_cap=0.03, k_max=4)

    def test_one_density_profile_per_atom(self, monkeypatch):
        mu = graph_cantor_mixture()
        calls = []
        profile = DiscreteMeasure.density_profile

        def counted(self, x, radii):
            calls.append(tuple(np.asarray(x)))
            return profile(self, x, radii)

        monkeypatch.setattr(DiscreteMeasure, "density_profile", counted)
        rep = decompose_estimate(mu, **self.KWARGS)
        assert len(calls) == len(mu) == 192
        assert len(set(calls)) == len(mu)
        # the decomposition still draws the graph and labels every atom
        assert rep.curves
        assert sum(a.label == "rect-candidate" for a in rep.atoms) == 128

    def test_grow_tree_takes_its_base(self, monkeypatch):
        mu = graph_cantor_mixture()
        growing = []
        base_calls = []
        grow, base_for = rectify.grow_tree, rectify.base_cube_for

        def traced_grow(*args, **kwargs):
            growing.append(True)
            try:
                return grow(*args, **kwargs)
            finally:
                growing.pop()

        def traced_base(*args, **kwargs):
            base_calls.append(bool(growing))
            return base_for(*args, **kwargs)

        monkeypatch.setattr(rectify, "grow_tree", traced_grow)
        monkeypatch.setattr(rectify, "base_cube_for", traced_base)
        decompose_estimate(mu, **self.KWARGS)
        # one base per rect-candidate, none of them chosen inside grow_tree
        assert len(base_calls) == 128 and not any(base_calls)

    def test_no_net_validation_inside(self, monkeypatch):
        from mrt import nets

        mu = graph_cantor_mixture()
        calls = []
        monkeypatch.setattr(nets, "validate_nets", lambda *a, **k: calls.append(a))
        rep = decompose_estimate(mu, **self.KWARGS)
        assert rep.curves and calls == []
