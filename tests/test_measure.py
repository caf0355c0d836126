import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrt import CubeTree, DiscreteMeasure, DyadicCube, measure
from mrt.dyadic import cube_at
from mrt.errors import DimensionMismatch, EmptyInput, InvalidWeight, TreeStructureError, ZeroMassRegion

from _oracle import ball_masses, box_contains, chain_masses, chain_of_cubes


def small_measure():
    pts = np.array([[0.1, 0.1], [0.4, 0.2], [0.6, 0.7], [0.9, 0.9]])
    w = np.array([1.0, 2.0, 3.0, 4.0])
    return DiscreteMeasure(pts, w)


def cell_trees(mu, k_hi: int) -> list[CubeTree]:
    """The cubes of the cell tables at scales 0..k_hi, one CubeTree per
    scale-0 root: a scale-k index's root is index >> k."""
    by_root: dict[tuple, set] = {}
    for k in range(k_hi + 1):
        for index in mu.cell_table(k):
            by_root.setdefault(tuple(i >> k for i in index), set()).add(DyadicCube(k, index))
    return [CubeTree(DyadicCube(0, root), members) for root, members in sorted(by_root.items())]


@st.composite
def lattice_measures(draw):
    """Atoms on a dyadic lattice, so many sit exactly on triple faces, with
    negative coordinates, an optional shift by 2048, and the two values just
    left of 0 from test_triple_faces_exact."""
    n = draw(st.integers(1, 3))
    j = draw(st.integers(0, 4))
    shift = draw(st.sampled_from([0.0, 2048.0, -2048.0]))
    coord = st.one_of(
        st.integers(-24, 24).map(lambda i: shift + i * 2.0**-j),
        st.sampled_from([-1e-17, -5e-324]),
    )
    pts = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=10))
    return DiscreteMeasure(pts, np.ones(len(pts)))


class TestConstruction:
    def test_basic_facts(self):
        mu = small_measure()
        assert len(mu) == 4
        assert mu.dim == 2
        assert mu.weights.sum() == pytest.approx(10.0)

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
        assert mu.mass(DyadicCube(0, (0, 0))) == 3.0


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
            assert total == pytest.approx(mu.weights.sum(), abs=1e-12)

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
                want = np.flatnonzero(box_contains(Q.triple(), mu.points))
                assert np.array_equal(got, want)

    def test_triple_faces_exact(self):
        # 3Q = [0, 0.375] x [-0.125, 0.25]; |x - c| <= half would round the
        # two atoms just left of x = 0 into it
        Q = DyadicCube(3, (1, 0))
        mu = DiscreteMeasure([[-1e-17, 0.1], [0.1, 0.1], [-5e-324, 0.1]], [1.0, 1.0, 1.0])
        assert list(mu.atoms_in_triple(Q)) == [1]
        assert list(mu.atoms_in(Q.triple())) == [1]
        assert list(np.flatnonzero(box_contains(Q.triple(), mu.points))) == [1]
        faces = DiscreteMeasure([[0.0, -0.125], [0.375, 0.25], [0.375 + 1e-16, 0.0]], [1.0, 1.0, 1.0])
        assert list(faces.atoms_in(Q.triple())) == [0, 1]

    @settings(max_examples=150, deadline=None, database=None)
    @given(lattice_measures(), st.integers(-1, 4))
    def test_triple_table_matches_scan(self, mu, k):
        n = mu.dim
        cells = np.floor(mu.points * 2.0**k).astype(np.int64)
        # a window wider than the 4^n candidates the table tests per atom
        window = np.indices((6,) * n).reshape(n, -1).T - 3
        want = {}
        for key in {tuple(row) for row in (cells[:, None, :] + window).reshape(-1, n).tolist()}:
            Q = DyadicCube(k, key)
            atoms = np.flatnonzero(box_contains(Q.triple(), mu.points))
            if len(atoms):
                want[key] = atoms
        table = mu.triple_table(k)
        assert list(table) == sorted(want)
        for key, atoms in want.items():
            assert np.array_equal(table[key], atoms)
            assert np.array_equal(mu.atoms_in_triple(DyadicCube(k, key)), atoms)

    @settings(max_examples=100, deadline=None, database=None)
    @given(lattice_measures(), st.integers(-1, 6))
    def test_cell_table_matches_cube_at(self, mu, k):
        # the measure's cells are cube_at's per atom, computed once and frozen
        cells = mu.cells(k)
        assert cells.tolist() == [list(cube_at(x, k).index) for x in mu.points]
        assert mu.cells(k) is cells and not cells.flags.writeable
        table = mu.cell_table(k)
        assert list(table) == sorted({tuple(row) for row in cells.tolist()})
        for key, atoms in table.items():
            assert atoms.tolist() == [i for i, row in enumerate(cells.tolist()) if tuple(row) == key]

    @settings(max_examples=60, deadline=None, database=None)
    @given(lattice_measures(), st.integers(0, 6))
    def test_occupied_cubes_form_trees(self, mu, k_hi):
        # the occupied cubes of scales 0..k_hi are the union of the atoms'
        # chains, one tree per scale-0 root
        trees = {T.top: T for T in cell_trees(mu, k_hi)}
        chains = [chain_of_cubes(x, k_hi) for x in mu.points]
        for chain in chains:
            assert set(chain) <= trees[chain[0]].members
        assert sum(len(T) for T in trees.values()) == len({Q for chain in chains for Q in chain})

    def test_cell_trees_catch_a_cell_off_its_chain(self, monkeypatch):
        assert len(cell_trees(DiscreteMeasure([[0.3, 0.3]], [1.0]), 2)) == 1
        mu = DiscreteMeasure([[0.3, 0.3]], [1.0])
        cells = mu.cells
        # the scale-2 cell (1, 1) moved to (2, 2), whose parent holds no atom
        monkeypatch.setattr(mu, "cells", lambda k: cells(k) + (k == 2))
        with pytest.raises(TreeStructureError):
            cell_trees(mu, 2)

    def test_triple_query_does_not_scan(self, monkeypatch):
        # every triple query reads the one table built for its scale
        rng = np.random.default_rng(5)
        mu = DiscreteMeasure(rng.uniform(0, 16, size=(200, 2)), np.ones(200))
        Q = DyadicCube(0, (8, 8))
        want = np.flatnonzero(box_contains(Q.triple(), mu.points))
        builds = []
        group = measure.group_rows

        def counted_group(keys, ids):
            builds.append(len(ids))
            return group(keys, ids)

        monkeypatch.setattr(measure, "group_rows", counted_group)
        assert np.array_equal(mu.atoms_in(Q.triple()), want)
        built = len(builds)
        assert mu.mass(Q.triple()) == float(len(want))
        assert np.allclose(mu.center_of_mass(Q.triple()), mu.points[want].mean(axis=0))
        R = DyadicCube(0, (3, 12))
        assert np.array_equal(mu.atoms_in_triple(R), np.flatnonzero(box_contains(R.triple(), mu.points)))
        assert built >= 1 and len(builds) == built

    def test_dimension_mismatch(self):
        mu = small_measure()
        with pytest.raises(DimensionMismatch):
            mu.atoms_in_cube(DyadicCube(0, (0, 0, 0)))

    def test_center_of_mass(self):
        mu = small_measure()
        com = mu.center_of_mass(DyadicCube(0, (0, 0)))
        want = (mu.weights @ mu.points) / mu.weights.sum()
        assert np.allclose(com, want)
        with pytest.raises(ZeroMassRegion):
            mu.center_of_mass(DyadicCube(0, (5, 5)))


@st.composite
def weighted_lattice_measures(draw):
    """lattice_measures' atoms with unequal weights, so that a sum taken in
    another order or over another atom set can differ in its last bit."""
    mu = draw(lattice_measures())
    w = draw(st.lists(st.floats(0.001, 10.0), min_size=len(mu), max_size=len(mu)))
    return DiscreteMeasure(mu.points, w)


class TestProfiles:
    def test_density_profile_values(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 2.0])
        # the origin's closed triples [-1, 2]^2, [-0.5, 1]^2, [-0.25, 0.5]^2;
        # (1, 0)'s are [0, 3] x [-1, 2], [0.5, 2] x [-0.5, 1], [0.75, 1.5] x [-0.25, 0.5]
        prof = mu.density_profile(2)
        assert prof.tolist() == [[3.0, 3.0, 1.0], [3.0, 2.0, 2.0]]

    def test_density_profile_rejects_negative_k_max(self):
        # a negative k_max asks for no scale at all, like an empty radius ladder
        with pytest.raises(ValueError):
            small_measure().density_profile(-1)

    @settings(max_examples=150, deadline=None, database=None)
    @given(weighted_lattice_measures(), st.integers(0, 6))
    def test_density_profile_matches_chain_oracle(self, mu, k_max):
        prof = mu.density_profile(k_max)
        assert prof.shape == (len(mu), k_max + 1)
        for i, x in enumerate(mu.points):
            assert np.array(chain_masses(mu, x, k_max)).tobytes() == prof[i].tobytes()

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.integers(1, 2), st.integers(0, 4), st.data())
    def test_chain_triples_sit_between_balls(self, n, j, data):
        # B(x, 2^-k) is inside 3Q_k(x), which is inside B(x, 2 sqrt(n) 2^-k).
        # Lattice coordinates and integer weights keep every distance and sum
        # exact, with atoms on the faces of triples and on ball boundaries;
        # dividing by 2r and by diam 3Q_k gives the two density inequalities
        # mu(B(x, r))/2r <= (3/2) sqrt(n) mu(3Q)/diam 3Q and
        # mu(3Q)/diam 3Q <= (4/3) mu(B(x, R))/2R at r = 2^-k, R = 2 sqrt(n) 2^-k
        coord = st.integers(-24, 24).map(lambda i: i * 2.0**-j)
        pts = data.draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=10))
        w = data.draw(st.lists(st.integers(1, 8), min_size=len(pts), max_size=len(pts)))
        mu = DiscreteMeasure(pts, w)
        k_max = 5
        prof = mu.density_profile(k_max)
        for i, x in enumerate(mu.points):
            for k in range(k_max + 1):
                inner, outer = ball_masses(mu, x, [2.0**-k, 2.0 * np.sqrt(n) * 2.0**-k])
                assert inner <= prof[i, k] <= outer
