import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mrt import Box, CubeTree, DiscreteMeasure, DyadicCube, cube_at
from mrt.dyadic import NEARBY_DILATION, cell_index, checked_length, same_scale_radius
from mrt.errors import DimensionMismatch, ScaleOverflow, TreeStructureError

from _oracle import chain_cells, chain_of_cubes, in_nearby_family, nearby_count, nearby_cubes


class TestDyadicCube:
    def test_side_and_diameter(self):
        Q = DyadicCube(3, (1, 2))
        assert Q.side == pytest.approx(0.125)
        assert Q.diameter == pytest.approx(0.125 * np.sqrt(2))

    def test_corner_and_center(self):
        Q = DyadicCube(2, (1, -1))
        # the lower corner j 2^-k belongs to the half-open cube
        assert cube_at([0.25, -0.25], 2) == Q
        assert np.allclose(Q.center(), [0.375, -0.125])

    def test_half_open_membership(self):
        Q = DyadicCube(2, (0, 0))
        mu = DiscreteMeasure([[0.0, 0.0], [0.2499999, 0.1], [0.25, 0.1]], np.ones(3))
        # the upper face belongs to the next cube over
        assert mu.atoms_in(Q).tolist() == [0, 1]
        assert cube_at([0.25, 0.1], 2).index == (1, 0)

    def test_membership_by_floor_matches_cube_at(self):
        rng = np.random.default_rng(0)
        mu = DiscreteMeasure(rng.uniform(-2, 2, size=(50, 2)), np.ones(50))
        for k in (0, 1, 4):
            for i, x in enumerate(mu.points):
                assert i in mu.atoms_in(cube_at(x, k))

    def test_every_point_in_exactly_one_cube(self):
        rng = np.random.default_rng(1)
        mu = DiscreteMeasure(rng.uniform(size=(40, 2)), np.ones(40))
        k = 2
        cells = [DyadicCube(k, idx) for idx in itertools.product(range(4), repeat=2)]
        counts = np.bincount(np.concatenate([mu.atoms_in(c) for c in cells]), minlength=len(mu))
        assert np.all(counts == 1)

    def test_negative_coordinates(self):
        Q = cube_at([-0.3, -1.7], 2)
        assert Q.index == (-2, -7)
        assert DiscreteMeasure([[-0.3, -1.7]], [1.0]).atoms_in(Q).tolist() == [0]

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

    def test_triple_and_dilate(self):
        Q = DyadicCube(1, (0, 1))
        T = Q.triple()
        assert T.side == pytest.approx(3 * Q.side)
        assert np.allclose(T.center, Q.center())

    def test_dimension_mismatch(self):
        mu = DiscreteMeasure(np.zeros((2, 3)), np.ones(2))
        with pytest.raises(DimensionMismatch):
            mu.atoms_in(DyadicCube(0, (0, 0)))
        with pytest.raises(DimensionMismatch):
            mu.atoms_in(DyadicCube(0, (0, 0)).triple())

    def test_cell_index_overflow_is_typed(self):
        # at scale 70 both points' indices pass 2^63: the int64 cast would
        # put them in one cube with INT64_MIN indices
        mu = DiscreteMeasure([[0.1, 0.3], [0.2, 0.9]], [1.0, 1.0])
        with pytest.raises(ScaleOverflow):
            mu.atoms_in(DyadicCube(70, (1, 1)))
        with pytest.raises(ScaleOverflow):
            cube_at(mu.points[0], 70)
        with pytest.raises(ScaleOverflow):
            cell_index(mu.points, 70)
        # the last scale below the 2^60 bound still answers exactly
        Q = cube_at(mu.points[1], 60)
        assert Q.index == tuple(math.floor(Fraction(v) * 2**60) for v in mu.points[1])
        assert mu.atoms_in(Q).tolist() == [1]

    def test_cell_index_past_float_scale_range(self):
        # 2^k is no float for k >= 1024; x 2^k still overflows to the check,
        # and only for x != 0
        for k in (1023, 1024, 1100):
            with pytest.raises(ScaleOverflow):
                cube_at([0.5, 0.5], k)
            assert cube_at([0.0, -0.0], k).index == (0, 0)
        with pytest.raises(ScaleOverflow, match="scale 61"):
            chain_of_cubes([0.0, 0.5], 1100)

    def test_checked_length_takes_normal_floats_only(self):
        # subnormal lengths have lost bits, and the least of them an infinite reciprocal
        for length in (2.0**-1022, 3.0 * 2.0**-1023, 1.0, 1e300):
            assert checked_length(length, "side") == length
        for length in (0.0, 3.0 * 2.0**-1024, 5e-324):
            with pytest.raises(ScaleOverflow, match="side underflows"):
                checked_length(length, "side")


class TestBox:
    def test_closed_membership(self):
        # the triple of [0.5, 1)^2 is the closed square [0, 1.5]^2
        B = DyadicCube(1, (1, 1)).triple()
        mu = DiscreteMeasure([[1.5, 1.5], [0.0, 0.0], [1.5000001, 0.75]], np.ones(3))
        assert mu.atoms_in(B).tolist() == [0, 1]
        assert B.diameter == pytest.approx(1.5 * np.sqrt(2))

    def test_triple_carries_its_cube(self):
        Q = DyadicCube(3, (1, 0))
        T = Q.triple()
        assert T.triple_of == Q
        # the carried cube takes no part in equality or hashing
        other = Box(T.center, T.half, DyadicCube(0, (0, 0)))
        assert T == other and hash(T) == hash(other)


# the test-side chain walk of _oracle rests on cell_index's broadcast scales


def test_chain_of_cubes_nested():
    x = [0.3, 0.71]
    chain = chain_of_cubes(x, 5)
    assert len(chain) == 6
    assert [Q.k for Q in chain] == list(range(6))
    for coarse, fine in zip(chain, chain[1:]):
        assert coarse.contains_cube(fine)
        assert fine.parent() == coarse
    with pytest.raises(ValueError):
        chain_of_cubes(x, -1)


@pytest.mark.parametrize("x", ([0.3, 0.71], [-0.3, -1.7], [-1e-9, 5.25], [2048.4, -3.0], [-0.2], [0.1, -0.6, 7.5]))
def test_chain_cells_match_cube_at(x):
    # the one-call cells of every scale equal a cube_at per scale
    assert chain_of_cubes(x, 40) == [cube_at(x, k) for k in range(41)]
    assert chain_cells(x, range(-2, 4)) == [cube_at(x, k).index for k in range(-2, 4)]
    scales = [5, 1, 3]
    assert chain_cells(x, scales) == [cube_at(x, k).index for k in scales]


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
            gap = np.abs(np.asarray(T.center) - Q.center()) + T.half
            assert np.all(gap <= big_half + 1e-9)
        # one cube past the same-scale cutoff pokes out
        R = DyadicCube(2, (3 + d + 1, -1))
        T = R.triple()
        gap = np.abs(np.asarray(T.center) - Q.center()) + T.half
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

    def test_children_in_tree(self):
        top, members = _chain_tree()
        tree = CubeTree(top, members)
        kids = tree.children_in_tree(DyadicCube(1, (0, 0)))
        assert kids == [DyadicCube(2, (1, 1))]
