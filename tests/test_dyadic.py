import itertools

import numpy as np
import pytest

from mrt import Box, CubeTree, DyadicCube, chain_of_cubes, cube_at, nearby_count
from mrt.dyadic import (
    NEARBY_DILATION,
    in_nearby_family,
    leaves,
    parent_scale_bound,
    same_scale_radius,
)
from mrt.errors import DimensionMismatch, TreeStructureError

from _oracle import nearby_cubes


class TestDyadicCube:
    def test_side_and_diameter(self):
        Q = DyadicCube(3, (1, 2))
        assert Q.side == pytest.approx(0.125)
        assert Q.diameter == pytest.approx(0.125 * np.sqrt(2))

    def test_corner_and_center(self):
        Q = DyadicCube(2, (1, -1))
        assert np.allclose(Q.corner(), [0.25, -0.25])
        assert np.allclose(Q.center(), [0.375, -0.125])

    def test_half_open_membership(self):
        Q = DyadicCube(2, (0, 0))
        assert Q.contains_point([0.0, 0.0])
        assert Q.contains_point([0.2499999, 0.1])
        # the upper face belongs to the next cube over
        assert not Q.contains_point([0.25, 0.1])
        assert cube_at([0.25, 0.1], 2).index == (1, 0)

    def test_membership_by_floor_matches_cube_at(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(50, 2))
        for k in (0, 1, 4):
            for x in X:
                Q = cube_at(x, k)
                assert Q.contains_point(x)

    def test_every_point_in_exactly_one_cube(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(40, 2))
        k = 2
        cells = [DyadicCube(k, idx) for idx in itertools.product(range(4), repeat=2)]
        counts = sum(c.contains_mask(X).astype(int) for c in cells)
        assert np.all(counts == 1)

    def test_negative_coordinates(self):
        Q = cube_at([-0.3, -1.7], 2)
        assert Q.index == (-2, -7)
        assert Q.contains_point([-0.3, -1.7])

    def test_parent_children_roundtrip(self):
        for idx in [(0, 0), (5, 3), (-1, -4), (-7, 2)]:
            Q = DyadicCube(3, idx)
            kids = Q.children()
            assert len(kids) == 4
            assert all(c.parent() == Q for c in kids)
            assert all(Q.contains_cube(c) for c in kids)
        # floor division keeps negatives on the correct coarse cube
        assert DyadicCube(1, (-1,)).parent() == DyadicCube(0, (-1,))

    def test_contains_cube(self):
        top = DyadicCube(0, (0, 0))
        assert top.contains_cube(DyadicCube(3, (7, 0)))
        assert not top.contains_cube(DyadicCube(3, (8, 0)))
        assert not top.contains_cube(DyadicCube(0, (1, 0)))
        # a finer cube never contains a coarser one
        assert not DyadicCube(3, (0, 0)).contains_cube(top)

    def test_ancestor_at(self):
        Q = DyadicCube(4, (13, -5))
        assert Q.ancestor_at(2) == DyadicCube(2, (3, -2))
        assert Q.ancestor_at(4) == Q
        with pytest.raises(ValueError):
            Q.ancestor_at(5)

    def test_triple_and_dilate(self):
        Q = DyadicCube(1, (0, 1))
        T = Q.triple()
        assert T.side == pytest.approx(3 * Q.side)
        assert np.allclose(T.center_array(), Q.center())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DyadicCube(0, (0, 0)).contains_mask(np.zeros((2, 3)))


class TestBox:
    def test_closed_membership(self):
        B = Box((0.5, 0.5), 0.5)
        assert B.contains_point([1.0, 1.0])
        assert B.contains_point([0.0, 0.0])
        assert not B.contains_point([1.0000001, 0.5])
        assert B.diameter == pytest.approx(np.sqrt(2))

    def test_triple_carries_its_cube(self):
        Q = DyadicCube(3, (1, 0))
        T = Q.triple()
        assert T.triple_of == Q
        # the carried cube takes no part in equality or hashing
        plain = Box(T.center, T.half)
        assert T == plain and hash(T) == hash(plain)
        assert plain.triple_of is None


def test_chain_of_cubes_nested():
    x = [0.3, 0.71]
    chain = chain_of_cubes(x, 5)
    assert len(chain) == 6
    assert [Q.k for Q in chain] == list(range(6))
    for coarse, fine in zip(chain, chain[1:]):
        assert coarse.contains_cube(fine)
        assert fine.parent() == coarse
    with pytest.raises(ValueError):
        chain_of_cubes(x, 0, 2)


# ---------------------------------------------------------------------------
# nearby-cube family


def _scan_radius(n: int) -> int:
    # largest d with (2d + 3)^2 <= 2 560 000 n, by direct scan
    lim = NEARBY_DILATION * NEARBY_DILATION * n
    d = 0
    while (2 * (d + 1) + 3) ** 2 <= lim:
        d += 1
    return d


def _scan_parent_count(j: int, n: int) -> int:
    # number of integers m with (|4m + 1 - 2j| + 6)^2 <= 2 560 000 n
    lim = NEARBY_DILATION * NEARBY_DILATION * n
    d = _scan_radius(n)
    span = range(-(abs(j) + d + 10), abs(j) + d + 11)
    return sum((abs(4 * m + 1 - 2 * j) + 6) ** 2 <= lim for m in span)


class TestNearbyFamily:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_matches_axis_scan(self, n):
        Q = DyadicCube(2, tuple([0, 1, 5][:n]))
        d = _scan_radius(n)
        assert same_scale_radius(n) == d
        same = (2 * d + 1) ** n
        parent = 1
        for j in Q.index:
            parent *= _scan_parent_count(j, n)
        assert nearby_count(Q) == same + parent

    def test_scale_and_translation_invariance(self):
        base = nearby_count(DyadicCube(0, (0, 0)))
        assert nearby_count(DyadicCube(7, (0, 0))) == base
        assert nearby_count(DyadicCube(0, (123, -456))) == base

    def test_generator_matches_membership_1d(self):
        Q = DyadicCube(3, (5,))
        fam = list(nearby_cubes(Q))
        assert len(fam) == nearby_count(Q)
        assert len(set(fam)) == len(fam)
        assert all(in_nearby_family(Q, R) for R in fam)
        # boundary cubes: the last admitted offset is in, one more is out
        d = same_scale_radius(1)
        assert in_nearby_family(Q, DyadicCube(3, (5 + d,)))
        assert not in_nearby_family(Q, DyadicCube(3, (5 + d + 1,)))

    def test_membership_rejects_wrong_scales(self):
        Q = DyadicCube(3, (0, 0))
        assert in_nearby_family(Q, Q)
        assert not in_nearby_family(Q, DyadicCube(4, (0, 0)))
        assert not in_nearby_family(Q, DyadicCube(1, (0, 0)))
        assert not in_nearby_family(Q, DyadicCube(3, (0,)))

    def test_member_triples_inside_dilate(self):
        # geometric meaning: 3R sits inside the closed 1600 sqrt(n) dilate
        Q = DyadicCube(2, (3, -1))
        big_half = 0.5 * NEARBY_DILATION * np.sqrt(2) * Q.side
        d = same_scale_radius(2)
        for R in [DyadicCube(2, (3 + d, -1)), DyadicCube(1, (0, 0)), Q]:
            assert in_nearby_family(Q, R)
            T = R.triple()
            gap = np.abs(T.center_array() - Q.center()) + T.half
            assert np.all(gap <= big_half + 1e-9)
        # one cube past the same-scale cutoff pokes out
        R = DyadicCube(2, (3 + d + 1, -1))
        T = R.triple()
        gap = np.abs(T.center_array() - Q.center()) + T.half
        assert np.any(gap > big_half - 1e-9)


# ---------------------------------------------------------------------------
# cube trees


def _chain_tree():
    top = DyadicCube(0, (0, 0))
    a = DyadicCube(1, (0, 0))
    b = DyadicCube(2, (1, 1))
    c = DyadicCube(1, (1, 1))
    return top, [top, a, b, c]


class TestCubeTree:
    def test_valid_tree(self):
        top, members = _chain_tree()
        tree = CubeTree(top, members)
        assert len(tree) == 4
        assert DyadicCube(2, (1, 1)) in tree
        assert tree.max_scale == 2
        assert [Q.k for Q in tree] == [0, 1, 1, 2]

    def test_missing_ancestor_raises(self):
        top = DyadicCube(0, (0, 0))
        with pytest.raises(TreeStructureError):
            CubeTree(top, [top, DyadicCube(2, (0, 0))])

    def test_member_outside_top_raises(self):
        top = DyadicCube(1, (0, 0))
        with pytest.raises(TreeStructureError):
            CubeTree(top, [top, DyadicCube(1, (1, 0))])

    def test_top_must_be_member(self):
        with pytest.raises(TreeStructureError):
            CubeTree(DyadicCube(0, (0, 0)), [DyadicCube(1, (0, 0))])

    def test_from_cubes_finds_top(self):
        top, members = _chain_tree()
        tree = CubeTree.from_cubes(members)
        assert tree.top == top

    def test_from_cubes_rejects_forest(self):
        with pytest.raises(TreeStructureError):
            CubeTree.from_cubes([DyadicCube(0, (0, 0)), DyadicCube(0, (1, 0))])
        with pytest.raises(TreeStructureError):
            CubeTree.from_cubes([])

    def test_children_in_tree(self):
        top, members = _chain_tree()
        tree = CubeTree(top, members)
        kids = tree.children_in_tree(DyadicCube(1, (0, 0)))
        assert kids == [DyadicCube(2, (1, 1))]

    def test_restrict_to_full_branches(self):
        top, members = _chain_tree()
        tree = CubeTree(top, members)
        deep = tree.restrict_to_full_branches(2)
        # the scale-1 cube with no scale-2 descendant is dropped
        assert DyadicCube(1, (1, 1)) not in deep
        assert DyadicCube(2, (1, 1)) in deep
        assert len(deep) == 3
        with pytest.raises(TreeStructureError):
            tree.restrict_to_full_branches(3)

    def test_leaves_bound(self):
        top, members = _chain_tree()
        tree = CubeTree(top, members)
        cubes, bound = leaves(tree)
        assert cubes == [DyadicCube(2, (1, 1))]
        assert bound == pytest.approx(0.25 * np.sqrt(2))
        cubes1, bound1 = leaves(tree, 1)
        assert len(cubes1) == 2
        assert bound1 == pytest.approx(0.5 * np.sqrt(2))
