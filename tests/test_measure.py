import numpy as np
import pytest

from mrt import Ball, DiscreteMeasure, DyadicCube
from mrt.dyadic import Box, cube_at
from mrt.errors import DimensionMismatch, EmptyInput, InvalidWeight, ZeroMassRegion


def small_measure():
    pts = np.array([[0.1, 0.1], [0.4, 0.2], [0.6, 0.7], [0.9, 0.9]])
    w = np.array([1.0, 2.0, 3.0, 4.0])
    return DiscreteMeasure(pts, w)


class TestConstruction:
    def test_basic_facts(self):
        mu = small_measure()
        assert len(mu) == 4
        assert mu.dim == 2
        assert mu.total == pytest.approx(10.0)
        lo, hi = mu.bbox
        assert np.allclose(lo, [0.1, 0.1])
        assert np.allclose(hi, [0.9, 0.9])

    def test_one_dimensional_input_becomes_column(self):
        mu = DiscreteMeasure([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        assert mu.dim == 1
        assert mu.points.shape == (3, 1)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            DiscreteMeasure(np.empty((0, 2)), np.empty(0))

    def test_weight_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DiscreteMeasure([[0.0, 0.0]], [1.0, 2.0])

    def test_bad_weights(self):
        with pytest.raises(InvalidWeight):
            DiscreteMeasure([[0.0, 0.0]], [0.0])
        with pytest.raises(InvalidWeight):
            DiscreteMeasure([[0.0, 0.0]], [-1.0])
        with pytest.raises(InvalidWeight):
            DiscreteMeasure([[0.0, 0.0]], [np.nan])

    def test_bad_coordinates(self):
        with pytest.raises(InvalidWeight):
            DiscreteMeasure([[np.inf, 0.0]], [1.0])

    def test_arrays_are_frozen(self):
        mu = small_measure()
        with pytest.raises(ValueError):
            mu.points[0, 0] = 5.0
        with pytest.raises(ValueError):
            mu.weights[0] = 5.0

    def test_duplicate_atoms_kept(self):
        mu = DiscreteMeasure([[0.5, 0.5], [0.5, 0.5]], [1.0, 2.0])
        assert len(mu) == 2
        assert mu.mass_ball([0.5, 0.5], 0.0) == pytest.approx(3.0)


class TestRegionQueries:
    def test_atoms_in_cube_half_open(self):
        mu = DiscreteMeasure([[0.5, 0.5]], [1.0])
        # the atom sits on the shared face: it belongs to the right cube only
        assert len(mu.atoms_in_cube(DyadicCube(1, (1, 1)))) == 1
        assert len(mu.atoms_in_cube(DyadicCube(1, (0, 0)))) == 0

    def test_cubes_partition_mass(self):
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure(rng.uniform(size=(60, 2)), rng.uniform(0.5, 1.5, 60))
        for k in (0, 1, 3):
            cells = {tuple(cube_at(x, k).index) for x in mu.points}
            total = sum(mu.mass(DyadicCube(k, idx)) for idx in cells)
            assert total == pytest.approx(mu.total, abs=1e-12)

    def test_atoms_in_cube_sorted_ascending(self):
        mu = DiscreteMeasure([[0.9, 0.1], [0.1, 0.1], [0.5, 0.2]], [1, 1, 1])
        idx = mu.atoms_in_cube(DyadicCube(0, (0, 0)))
        assert list(idx) == sorted(idx)

    def test_atoms_in_triple_matches_brute_force(self):
        rng = np.random.default_rng(4)
        mu = DiscreteMeasure(rng.uniform(-1, 2, size=(80, 2)), np.full(80, 1.0))
        for k in (0, 2):
            for x in mu.points[:10]:
                Q = cube_at(x, k)
                got = mu.atoms_in_triple(Q)
                want = np.flatnonzero(Q.triple().contains_mask(mu.points))
                assert np.array_equal(got, want)

    def test_triple_faces_exact(self):
        # 3Q = [0, 0.375] x [-0.125, 0.25]; |x - c| <= half would round the
        # two atoms just left of x = 0 into it
        Q = DyadicCube(3, (1, 0))
        mu = DiscreteMeasure([[-1e-17, 0.1], [0.1, 0.1], [-5e-324, 0.1]], [1.0, 1.0, 1.0])
        assert list(mu.atoms_in_triple(Q)) == [1]
        assert list(mu.atoms_in(Q.triple())) == [1]
        assert list(np.flatnonzero(Q.triple().contains_mask(mu.points))) == [1]
        faces = DiscreteMeasure([[0.0, -0.125], [0.375, 0.25], [0.375 + 1e-16, 0.0]], [1.0, 1.0, 1.0])
        assert list(faces.atoms_in(Q.triple())) == [0, 1]

    def test_triple_query_does_not_scan(self, monkeypatch):
        rng = np.random.default_rng(5)
        mu = DiscreteMeasure(rng.uniform(0, 16, size=(200, 2)), np.ones(200))
        Q = DyadicCube(0, (8, 8))
        want = np.flatnonzero(Q.triple().contains_mask(mu.points))
        rows = []
        scan = Box.contains_mask

        def counted(self, X):
            rows.append(len(np.atleast_2d(X)))
            return scan(self, X)

        monkeypatch.setattr(Box, "contains_mask", counted)
        assert np.array_equal(mu.atoms_in(Q.triple()), want)
        assert mu.mass(Q.triple()) == float(len(want))
        assert np.allclose(mu.center_of_mass(Q.triple()), mu.points[want].mean(axis=0))
        assert 0 < max(rows) < len(mu)

    def test_box_and_ball_are_closed(self):
        mu = DiscreteMeasure([[1.0, 0.0], [1.0 + 1e-9, 0.0]], [1.0, 1.0])
        assert mu.mass(Box((0.0, 0.0), 1.0)) == pytest.approx(1.0)
        assert mu.mass(Ball((0.0, 0.0), 1.0)) == pytest.approx(1.0)
        assert mu.mass_ball([0.0, 0.0], 1.0) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        mu = small_measure()
        with pytest.raises(DimensionMismatch):
            mu.atoms_in_cube(DyadicCube(0, (0, 0, 0)))

    def test_restrict(self):
        mu = small_measure()
        Q = DyadicCube(1, (0, 0))
        sub = mu.restrict(Q)
        assert sub.total == pytest.approx(3.0)
        assert len(sub) == 2
        with pytest.raises(ZeroMassRegion):
            mu.restrict(DyadicCube(1, (1, 0)))

    def test_center_of_mass(self):
        mu = small_measure()
        com = mu.center_of_mass()
        want = (mu.weights @ mu.points) / mu.total
        assert np.allclose(com, want)
        with pytest.raises(ZeroMassRegion):
            mu.center_of_mass(Ball((5.0, 5.0), 0.1))

    def test_support_diameter(self):
        mu = small_measure()
        d = mu.support_diameter()
        brute = max(
            np.linalg.norm(a - b) for a in mu.points for b in mu.points
        )
        assert d == pytest.approx(brute)


class TestProfiles:
    def test_density_profile_values(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        prof = mu.density_profile([0.0, 0.0], [2.0, 1.0, 0.5])
        # radii are sorted decreasing; masses 2, 2, 1
        assert np.allclose(prof.radii, [2.0, 1.0, 0.5])
        assert np.allclose(prof.masses, [2.0, 2.0, 1.0])
        assert np.allclose(prof.ratios, [0.5, 1.0, 1.0])
        assert prof.estimate == pytest.approx(0.5)
        assert np.allclose(prof.running_min, [0.5, 0.5, 0.5])

    def test_density_profile_rejects_bad_radii(self):
        mu = small_measure()
        with pytest.raises(ValueError):
            mu.density_profile([0.0, 0.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            mu.density_profile([0.0, 0.0], [])

    def test_doubling_profile(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.5, 0.0]], [1.0, 3.0])
        prof = mu.doubling_profile([0.0, 0.0], [1.0, 0.1])
        assert not prof.flagged.any()
        # r=1: inner 1, outer 4; r=0.1: inner 1, outer 1
        assert np.allclose(prof.ratios, [4.0, 1.0])
        assert prof.estimate == pytest.approx(4.0)

    def test_doubling_profile_flags_zero_inner_mass(self):
        mu = DiscreteMeasure([[10.0, 0.0]], [1.0])
        prof = mu.doubling_profile([0.0, 0.0], [1.0, 2.0])
        assert prof.flagged.all()
        assert prof.estimate == 0.0
