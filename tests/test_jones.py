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
    beta_sup_set,
    cube_at,
    draw_through_tree,
    jones_at,
    square_sum,
)
from mrt.jones import JONES_VARIANTS

from _oracle import box_contains, chain_jones, chain_of_cubes, mass_triples
from _samples import four_corner_cantor, segment_measure


class TestDefaultKmax:
    # without k_max, jones_at stops each atom at the first scale whose cell
    # holds at most one atom, and at scale 40 if none does
    def test_single_atom(self):
        mu = DiscreteMeasure([[0.3, 0.3]], [1.0])
        assert jones_at(mu, [0])[1].tolist() == [0]

    def test_two_close_atoms(self):
        mu = DiscreteMeasure([[0.1, 0.1], [0.1 + 2.0**-6, 0.1]], [1.0, 1.0])
        _, k_max = jones_at(mu, [0, 1])
        k = int(k_max[0])
        assert k_max.tolist() == [k, k]
        # first scale whose chain cube keeps at most one atom
        assert len(mu.atoms_in_cube(cube_at([0.1, 0.1], k))) <= 1
        assert len(mu.atoms_in_cube(cube_at([0.1, 0.1], k - 1))) > 1

    def test_duplicate_atoms_hit_cap(self):
        mu = DiscreteMeasure([[0.2, 0.2], [0.2, 0.2]], [1.0, 1.0])
        assert jones_at(mu, [0, 1])[1].tolist() == [40, 40]


class TestJonesAt:
    def test_single_atom_all_variants(self):
        mu = DiscreteMeasure([[0.4, 0.6]], [1.0])
        for variant in JONES_VARIANTS:
            c = 0.01 if variant == "star_c" else None
            values, k_max = jones_at(mu, [0], variant=variant, c=c, k_max=3)
            assert values.tolist() == [0.0]
            assert k_max.tolist() == [3]

    def test_flat_measure_gives_zero(self):
        mu = segment_measure(20)
        cache = BetaCache(mu)
        for variant in JONES_VARIANTS:
            c = 0.01 if variant == "star_c" else None
            values, _ = jones_at(mu, range(len(mu)), variant=variant, c=c, cache=cache)
            assert np.all(values <= 1e-20)

    def test_terms_count_and_summary(self):
        mu = segment_measure(12)
        values, k_max = jones_at(mu, [4], variant="tilde", k_max=4)
        assert k_max.tolist() == [4]
        assert values[0] == chain_jones(mu, mu.points[4], 2, "tilde", 4)[0]

    def test_star_c_at_most_star(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(size=(8, 2))
        mu = DiscreteMeasure(pts, rng.uniform(0.5, 1.0, 8))
        cache = BetaCache(mu)
        js, _ = jones_at(mu, range(8), variant="star", k_max=3, cache=cache, refine=False)
        jc, _ = jones_at(mu, range(8), variant="star_c", c=0.05, k_max=3, cache=cache, refine=False)
        assert np.all(jc <= js + 1e-12)

    def test_invalid_variant(self):
        mu = segment_measure(5)
        with pytest.raises(ValueError):
            jones_at(mu, [0], variant="best")

    def test_large_p_warns(self):
        mu = segment_measure(5)
        with pytest.warns(UserWarning):
            jones_at(mu, [0], p=4, variant="tilde", k_max=1)

    def test_cantor_depth3_value(self):
        mu = four_corner_cantor(3)
        corner = int(np.argmin(mu.points.sum(axis=1)))
        values, _ = jones_at(mu, [corner], variant="tilde", p=2)
        assert values[0] == pytest.approx(0.311129, abs=5e-6)


@st.composite
def chain_cases(draw):
    """Distinct atoms on the 1/8 lattice of [-2, 2)^n, n = 1..3."""
    n = draw(st.integers(1, 3))
    lattice = st.tuples(*[st.integers(-16, 15)] * n)
    cells = draw(st.lists(lattice, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=len(cells), max_size=len(cells)))
    c = draw(st.sampled_from([0.01, 0.5]))
    # None: each atom's own default k_max
    k_max = draw(st.one_of(st.none(), st.integers(0, 3)))
    return DiscreteMeasure(np.array(cells, dtype=float) / 8.0, weights), c, k_max


class TestChainMemo:
    @settings(max_examples=25, deadline=None, database=None)
    @given(chain_cases(), st.booleans())
    def test_shared_cache_matches_chain_loop(self, case, refine):
        # jones_at sums every atom's chain in one pass, from one cache shared
        # across variants; the oracle walks each chain from a fresh cache
        mu, c, k_max = case
        cache = BetaCache(mu)
        for variant in JONES_VARIANTS:
            cv = c if variant == "star_c" else None
            values, k_maxes = jones_at(mu, range(len(mu)), variant=variant, c=cv, k_max=k_max, cache=cache,
                                       refine=refine)
            for i, x in enumerate(mu.points):
                assert (values[i], k_maxes[i]) == chain_jones(mu, x, 2, variant, k_max, cv, refine)
                one, one_k = jones_at(mu, [i], variant=variant, c=cv, k_max=k_max, cache=cache, refine=refine)
                assert (one[0], one_k[0]) == (values[i], k_maxes[i])


@st.composite
def truncation_cases(draw):
    """Up to 24 atoms at up to 4 points of a dyadic lattice of [-2, 2)^n,
    n = 1..3, so truncations run from 0 (a lone atom) to 40 (coincident atoms)."""
    n = draw(st.integers(1, 3))
    j = draw(st.integers(0, 12))
    lattice = st.tuples(*[st.integers(-(2 ** (j + 1)), 2 ** (j + 1) - 1)] * n)
    points = draw(st.lists(lattice, min_size=1, max_size=4, unique=True))
    cells = draw(st.lists(st.sampled_from(points), min_size=1, max_size=24))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=len(cells), max_size=len(cells)))
    return DiscreteMeasure(np.array(cells, dtype=float) * 2.0**-j, weights)


class TestDefaultTruncation:
    @settings(max_examples=25, deadline=None, database=None)
    @given(truncation_cases(), st.sampled_from(["tilde", "star"]))
    @example(DiscreteMeasure([[-0.75, 0.5]], [1.0]), "star")
    @example(DiscreteMeasure([[-0.25, 0.5], [-0.25, 0.5], [1.0, -1.5]], [1.0, 3.0, 0.5]), "tilde")
    def test_in_pass_truncation_matches_chain_walk(self, mu, variant):
        # the one pass stops each atom where the per-atom chain walk of
        # default_kmax stops it, and sums the same terms in the same order
        values, k_maxes = jones_at(mu, range(len(mu)), variant=variant, refine=False)
        # coincident atoms share one chain, so the walk runs once per point
        walks = {}
        for i, x in enumerate(mu.points):
            if x.tobytes() not in walks:
                walks[x.tobytes()] = chain_jones(mu, x, 2, variant, None, None, False)
            assert (values[i], k_maxes[i]) == walks[x.tobytes()]


class TestSquareSum:
    def test_tree_sum_matches_ledger_and_direct(self):
        # the tree sum of beta*_c^2 diam Q that draw_through_tree carries
        mu = four_corner_cantor(2)
        chain = chain_of_cubes(mu.points[5], 3)
        tree = CubeTree(chain[0], chain)
        acct = draw_through_tree(mu, tree, c=0.05).accounting
        # a fresh cache, so the direct sum solves every family again
        direct = sum(
            beta_multi(mu, Q, 2, "star_c", c=0.05, refine=False, cache=BetaCache(mu)).value ** 2
            * Q.diameter
            for Q in tree
        )
        assert direct > 0
        assert acct["regime_sum"] == direct
        assert acct["regime_budget"] == 48.0 * (1.0 / 0.05) * direct

    def test_star_star_flat(self):
        # collinear atoms: every beta** is 0
        rows = square_sum(segment_measure(10), range(0, 2))
        assert rows
        assert sum(bss**2 * Q.diameter for (Q, _, bss) in rows) <= 1e-20

    def test_beta_sq_set(self):
        # the set version reads the support only: the weights do not matter
        sq = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
        rows = square_sum(DiscreteMeasure(sq, [1.0, 2.0, 3.0, 4.0]), range(0, 2))
        unit = square_sum(DiscreteMeasure(sq, np.ones(4)), range(0, 2))
        assert [(Q, b) for (Q, b, _) in rows] == [(Q, b) for (Q, b, _) in unit]
        assert sum(b * b * Q.diameter for (Q, b, _) in rows) > 0
        for Q, _, _ in rows:
            assert np.any(box_contains(Q.triple(), sq))
        line = np.column_stack([np.linspace(0, 1, 7), np.full(7, 0.5)])
        flat = square_sum(DiscreteMeasure(line, np.ones(7)), range(0, 2))
        assert sum(b * b * Q.diameter for (Q, b, _) in flat) <= 1e-20

    def test_rows_are_the_two_betas(self):
        # each row holds the cube's set beta and its beta**, bit for bit as a
        # fresh computation gives them
        mu = four_corner_cantor(2)
        for Q, b_set, b_ss in square_sum(mu, range(0, 2)):
            atoms = np.flatnonzero(box_contains(Q.triple(), mu.points))
            assert b_set == beta_sup_set(mu.points[atoms], Q.triple())
            assert b_ss == beta_multi(mu, Q, 2, "star_star", cache=BetaCache(mu)).value

    def test_mass_cube_family(self):
        # the rows are the cubes with mu(3Q) > 0, scale by scale, each scale
        # sorted by index as the candidate scan lists them
        mu = segment_measure(9)
        fam = [Q for (Q, _, _) in square_sum(mu, range(0, 3))]
        assert fam == [R for k in range(0, 3) for (R, _, _) in mass_triples(mu, k)]
        # brute force at one scale: every cube with massive triple is present
        k = 2
        got = {Q.index for Q in fam if Q.k == k}
        lo = np.floor(mu.points.min(axis=0) * 2**k).astype(int) - 2
        hi = np.floor(mu.points.max(axis=0) * 2**k).astype(int) + 2
        want = set()
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                if mu.mass(DyadicCube(k, (i, j)).triple()) > 0:
                    want.add((i, j))
        assert got == want
