import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrt import (
    BetaCache,
    BetaValue,
    DiscreteMeasure,
    DyadicCube,
    Line,
    beta_best,
    beta_fixed_line,
    beta_multi,
    beta_sup_set,
    fit_line,
)
from mrt import beta as beta_mod
from mrt.beta import VARIANTS, _family, _Family, _refine_objective, nearby_cubes_with_mass
from mrt.dyadic import cube_at
from mrt.errors import ScaleOverflow

from _oracle import (
    brute_force_line_oracle,
    in_nearby_family,
    mass_triples,
    moment_grid_cell,
    moment_score,
    offset_envelope,
    offset_envelope_min,
    sequential_pattern_search,
    slot_grid_cell,
    slot_score,
    slot_score_many,
)
from _samples import four_corner_cantor, lipschitz_graph_measure, segment_cantor_mixture, segment_measure
from conftest import FIXTURES_DIR


def symmetric_pair():
    return DiscreteMeasure([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0])


# the closed square [-1, 2]^2, the triple of the unit cube
UNIT_TRIPLE = DyadicCube(0, (0, 0)).triple()
# a region that holds no atom of the test measures
FAR_CUBE = DyadicCube(0, (9, 9))


def random_measure(rng, m=8, lo=0.0, hi=1.0):
    pts = rng.uniform(lo, hi, size=(m, 2))
    w = rng.uniform(0.2, 1.0, size=m)
    return DiscreteMeasure(pts, w)


class TestBetaFixedLine:
    def test_atoms_on_line(self):
        mu = segment_measure(20)
        ln = Line([0.0, 0.5], [1.0, 0.0])
        assert beta_fixed_line(mu, UNIT_TRIPLE, ln, 2) <= 1e-15

    def test_hand_value(self):
        # both atoms at distance 1 from the axis, in the triple [-2, 1]^2 of diameter 3 sqrt 2
        mu = symmetric_pair()
        ln = Line([0.0, 0.0], [1.0, 0.0])
        region = DyadicCube(0, (-1, -1)).triple()
        for p in (1, 2, 3):
            assert beta_fixed_line(mu, region, ln, p) == pytest.approx(1.0 / (3.0 * np.sqrt(2.0)))

    def test_zero_mass_region(self):
        mu = symmetric_pair()
        ln = Line([0.0, 0.0], [1.0, 0.0])
        assert beta_fixed_line(mu, FAR_CUBE, ln, 2) == 0.0

    def test_degenerate_region(self):
        # at scale 1100 the side 2^-1100 rounds to 0; the origin's index stays 0
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(ScaleOverflow, match="cube diameter at scale 1100 underflows"):
            beta_fixed_line(mu, DyadicCube(1100, (0, 0)), Line([0, 0], [1, 0]), 2)

    def test_rejects_bad_p(self):
        mu = symmetric_pair()
        with pytest.raises(ValueError):
            beta_fixed_line(mu, UNIT_TRIPLE, Line([0, 0], [1, 0]), 0.5)


class TestBetaBest:
    def test_collinear_atoms(self):
        mu = segment_measure(15)
        for p in (1, 2):
            bv = beta_best(mu, UNIT_TRIPLE, p)
            assert bv.value <= 1e-12
            assert bv.line is not None

    def test_zero_mass(self):
        mu = symmetric_pair()
        bv = beta_best(mu, FAR_CUBE, 2)
        assert bv.value == 0.0
        assert bv.line is None

    def test_value_is_infimum_bound(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng)
        region = DyadicCube(0, (0, 0))
        bv = beta_best(mu, region, 2)
        for _ in range(25):
            base = rng.uniform(size=2)
            ang = rng.uniform(0, np.pi)
            ln = Line(base, [np.cos(ang), np.sin(ang)])
            assert bv.value <= beta_fixed_line(mu, region, ln, 2) + 1e-12

    def test_monotone_in_p(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            mu = random_measure(rng)
            region = DyadicCube(0, (0, 0))
            b1 = beta_best(mu, region, 1).value
            b2 = beta_best(mu, region, 2).value
            assert b1 <= b2 + 1e-12

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            mu = random_measure(rng, m=6)
            region = DyadicCube(0, (0, 0))
            bv = beta_best(mu, region, 2)
            oval, _ = brute_force_line_oracle(
                mu.points, mu.weights, p=2, n_angles=180, n_offsets=60, refine=True
            )
            assert bv.value == pytest.approx(oval / region.diameter, rel=1e-3, abs=1e-9)


class TestBetaSupSet:
    def test_empty_intersection(self):
        assert beta_sup_set(np.empty((0, 2)), UNIT_TRIPLE) == 0.0

    def test_hand_value(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.4]])
        # the minimal strip has width 0.4, so the sup distance is 0.2
        assert beta_sup_set(pts, UNIT_TRIPLE) == pytest.approx(0.2 / UNIT_TRIPLE.diameter, abs=1e-12)

    def test_collinear(self):
        pts = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        assert beta_sup_set(pts, UNIT_TRIPLE) <= 1e-12

    def test_square_corners(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        T = DyadicCube(0, (0, 0)).triple()
        # min-width strip of the unit square has width 1: sup distance 1/2
        assert beta_sup_set(pts, T) == pytest.approx(0.5 / T.diameter, abs=1e-12)


class TestBetaMulti:
    def test_empty_dilate_gives_zero(self):
        mu = DiscreteMeasure([[0.5, 0.5]], [1.0])
        Q = cube_at([1.0e6, 1.0e6], 20)
        for variant in VARIANTS:
            c = 0.1 if variant == "star_c" else None
            bv = beta_multi(mu, Q, 2, variant, c=c)
            assert bv.value == 0.0
            assert bv.line is None

    def test_two_atom_measure_is_flat(self):
        mu = DiscreteMeasure([[0.2, 0.3], [0.7, 0.6]], [1.0, 2.0])
        Q = cube_at([0.2, 0.3], 2)
        for variant in VARIANTS:
            c = 1e-6 if variant == "star_c" else None
            assert beta_multi(mu, Q, 2, variant, c=c).value <= 1e-12

    def test_collinear_measure_is_flat(self):
        mu = segment_measure(40)
        for k in (0, 1, 3):
            Q = cube_at(mu.points[3], k)
            for variant in VARIANTS:
                c = 1e-6 if variant == "star_c" else None
                assert beta_multi(mu, Q, 2, variant, c=c).value <= 1e-12

    def test_invalid_arguments(self):
        mu = symmetric_pair()
        Q = DyadicCube(0, (0, 0))
        with pytest.raises(ValueError):
            beta_multi(mu, Q, 2, "nope")
        with pytest.raises(ValueError):
            beta_multi(mu, Q, 2, "star_c", c=0.0)
        with pytest.raises(ValueError):
            beta_multi(mu, Q, 2, "star_c")
        # the coupled betas take the L^2 gauge only
        for p in (1, 3, "sup"):
            with pytest.raises(ValueError, match="p = 2 only"):
                beta_multi(mu, Q, p, "star")

    def test_star_c_without_qualifying_cube(self):
        # total mass 1 can never reach c * diam 3R at unit scale with c = 1
        mu = DiscreteMeasure([[0.3, 0.3], [0.6, 0.7]], [0.5, 0.5])
        bv = beta_multi(mu, DyadicCube(0, (0, 0)), 2, "star_c", c=1.0)
        assert bv.value == 0.0

    def test_star_c_below_star(self):
        rng = np.random.default_rng(8)
        cache = None
        for _ in range(15):
            mu = random_measure(rng, m=7)
            cache = BetaCache(mu)
            Q = cube_at(mu.points[0], int(rng.integers(1, 4)))
            star = beta_multi(mu, Q, 2, "star", cache=cache)
            for c in (0.05, 0.5):
                sc = beta_multi(mu, Q, 2, "star_c", c=c, cache=cache)
                assert sc.value <= star.value + 1e-12

    def test_value_is_exact_witness_score(self):
        # recompute the variant objective at the witness line from scratch
        rng = np.random.default_rng(10)
        for _ in range(8):
            mu = random_measure(rng, m=7)
            Q = cube_at(mu.points[0], 2)
            bv = beta_multi(mu, Q, 2, "star")
            worst = 0.0
            for R, atoms, mass in nearby_cubes_with_mass(mu, Q):
                b = min(beta_fixed_line(mu, R.triple(), bv.line, 2), 1.0)
                worst = max(worst, b * b * min(mass / R.triple().diameter, 1.0))
            assert bv.value == pytest.approx(np.sqrt(worst), abs=1e-12)

    def test_star_star_value_is_exact_witness_score(self):
        rng = np.random.default_rng(11)
        mu = random_measure(rng, m=8)
        Q = cube_at(mu.points[0], 2)
        bv = beta_multi(mu, Q, 2, "star_star")
        worst = max(
            min(beta_fixed_line(mu, R.triple(), bv.line, 2), 1.0)
            for R, _, _ in nearby_cubes_with_mass(mu, Q)
        )
        assert bv.value == pytest.approx(worst, abs=1e-12)

    def test_nearby_enumeration_is_sound(self):
        rng = np.random.default_rng(12)
        mu = random_measure(rng, m=10)
        Q = cube_at(mu.points[0], 3)
        for R, atoms, mass in nearby_cubes_with_mass(mu, Q):
            assert in_nearby_family(Q, R)
            assert mass > 0.0
            assert np.array_equal(atoms, mu.atoms_in_triple(R))
            assert mass == pytest.approx(float(mu.weights[atoms].sum()))

    @pytest.mark.parametrize(
        "mu",
        [
            four_corner_cantor(2, offset=(0.1, 0.3)),
            segment_cantor_mixture(1)[0],
            DiscreteMeasure(np.random.default_rng(13).uniform(-3, 3, size=(40, 1)), np.arange(1.0, 41.0)),
            DiscreteMeasure(np.random.default_rng(14).uniform(-1, 2, size=(30, 3)), np.linspace(0.1, 3.0, 30)),
        ],
        ids=["cantor", "mixture", "n1", "n3"],
    )
    def test_mass_triples_match_candidate_scan(self, mu):
        for k in (-1, 0, 2, 4):
            got = BetaCache(mu).mass_triples(k)
            want = mass_triples(mu, k)
            assert [R for R, _, _ in got] == [R for R, _, _ in want]
            for (_, atoms, mass), (_, want_atoms, want_mass) in zip(got, want):
                assert np.array_equal(atoms, want_atoms)
                assert mass.hex() == want_mass.hex()

    def test_cache_returns_same_object(self):
        mu = symmetric_pair()
        cache = BetaCache(mu)
        Q = DyadicCube(0, (0, 0))
        a = beta_multi(mu, Q, 2, "star", cache=cache)
        b = beta_multi(mu, Q, 2, "star", cache=cache)
        assert a is b

    def test_cube_value_is_family_value(self):
        rng = np.random.default_rng(13)
        mu = random_measure(rng, m=5)
        cache = BetaCache(mu)
        Q = cube_at(mu.points[0], 1)
        bv = beta_multi(mu, Q, 2, "star", cache=cache)
        # the cube key holds its family's value object, not a copy of it
        assert family_beta(mu, Q, "star", None, True, cache) is bv
        assert cache.get((Q, 2, "star", None, True)) is bv


def family_beta(mu, Q, variant, c, refine, cache):
    """The family memo's value for the raw family of Q, looked up by its member positions."""
    same, coarse = beta_mod._nearby_members(cache, Q)
    return beta_mod._family_beta(mu, Q.k, same, coarse, variant, c, refine, cache)


def cube_family(mu, Q, variant, c, cache=None):
    """The family beta_multi solves for cube Q."""
    return _family(mu, Q.k, nearby_cubes_with_mass(mu, Q, cache), variant, c)


class TestMomentObjective:
    """The p = 2 search objective from per-entry moments equals the direct score."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("shift", (0.0, 16.0))
    def test_matches_direct_score(self, variant, n, shift):
        rng = np.random.default_rng(40 + n)
        pts = shift + rng.uniform(0.0, 1.0, size=(24, n))
        mu = DiscreteMeasure(pts, rng.uniform(0.2, 1.0, size=24))
        c = 0.05 if variant == "star_c" else None
        for k in (1, 2, 3):
            fam = cube_family(mu, cube_at(pts[0], k), variant, c, None)
            assert fam is not None
            lo, hi = fam.P.min(axis=0), fam.P.max(axis=0)
            # bases inside and beyond the family, so some entries hit the cap
            bases = rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(40, n))
            dirs = rng.normal(size=(40, n))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            got = fam.moment_scores(bases, dirs)
            for base, u, value in zip(bases, dirs, got):
                assert abs(value - fam.score(Line(base, u))) <= 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("shift", (0.0, 2048.0))
    def test_rows_match_one_line_reference(self, variant, n, shift):
        # each row rounds as the one-line moment arithmetic does, whatever the
        # batch around it; k = -1 gives one-entry families, k = 3 many entries
        rng = np.random.default_rng(70 + n)
        pts = shift + rng.uniform(0.0, 1.0, size=(24, n))
        mu = DiscreteMeasure(pts, rng.uniform(0.2, 1.0, size=24))
        c = 0.05 if variant == "star_c" else None
        sizes = set()
        for k in (-1, 1, 2, 3):
            fam = cube_family(mu, cube_at(pts[0], k), variant, c, None)
            sizes.add(len(fam.entries))
            lo, hi = fam.P.min(axis=0), fam.P.max(axis=0)
            bases = rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(33, n))
            dirs = rng.normal(size=(33, n))
            dirs /= np.sqrt(np.einsum("ij,ij->i", dirs, dirs))[:, None]
            want = [moment_score(fam, b, u) for b, u in zip(bases, dirs)]
            for rows in (slice(0, 1), slice(0, 2), slice(5, 12), slice(None)):
                got = fam.moment_scores(bases[rows], dirs[rows])
                assert got.tolist() == want[rows]
        assert 1 in sizes and max(sizes) > 4

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_refine_search_follows_sequential_path(self, variant):
        # the batched p = 2 refine search of beta_multi against a search that
        # scores one line per call with the one-line moment arithmetic; every
        # scale-1 cube of this measure has the same family
        mu = lipschitz_graph_measure(40)
        c = 0.05 if variant == "star_c" else None
        k, n = 1, 2
        fam = cube_family(mu, cube_at(mu.points[0], k), variant, c, None)
        steps = np.concatenate([np.full(n, 0.25 * 2.0**-k * np.sqrt(n)), np.full(n, 0.05)])

        def one_line(x):
            raw = x[n:]
            nrm = float(np.linalg.norm(raw))
            if nrm < 1e-9:
                return 1e30
            return moment_score(fam, x[:n], raw / nrm)

        line, _ = fit_line(fam.P, fam.W, 2)
        starts = [np.concatenate([line.base, line.direction])]
        # lines through atom pairs, raw directions of any length
        starts += [np.concatenate([fam.P[i], fam.P[i + 7] - fam.P[i]]) for i in range(0, len(fam.P) - 7, 5)]
        assert len(starts) >= 6
        for x0 in starts:
            got = beta_mod.pattern_search(_refine_objective(fam, n), x0, steps, max_iter=60, tol=1e-12)
            want = sequential_pattern_search(one_line, x0, steps, max_iter=60, tol=1e-12)
            assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


def grid_families(variant):
    """Planar families of a random measure, at the origin and translated by 2048, and of a graph."""
    c = 0.05 if variant == "star_c" else None
    for shift in (0.0, 2048.0):
        rng = np.random.default_rng(90)
        pts = shift + rng.uniform(0.0, 1.0, size=(40, 2))
        mu = DiscreteMeasure(pts, rng.uniform(0.2, 1.0, size=40))
        for k in (1, 2, 3):
            yield cube_family(mu, cube_at(pts[0], k), variant, c, None), k
    mu = lipschitz_graph_measure(40)
    yield cube_family(mu, cube_at(mu.points[0], 1), variant, c, None), 1


def grid_offsets(fam, k):
    # the offsets beta_multi scores: the family's radius plus one cube diameter
    rad = float(np.max(np.linalg.norm(fam.Pc, axis=1))) + 2.0**-k * np.sqrt(2.0)
    return np.linspace(-rad, rad, GRID_OFFSETS)


GRID_ANGLES = np.pi * np.arange(beta_mod._GRID_ANGLES) / beta_mod._GRID_ANGLES
# offsets per angle of the reference grid that the offset profile replaced
GRID_OFFSETS = 48


class TestMomentGrid:
    """The grid and candidate ranking from entry moments agree with the slot forms.

    `moment_grid_cell` is the grid from the entry moments that the offset
    profile replaced, and `slot_grid_cell` the same grid scored from the
    atom slots.
    """

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_grid_picks_slot_cell(self, variant):
        for fam, k in grid_families(variant):
            ts = grid_offsets(fam, k)
            assert moment_grid_cell(fam, GRID_ANGLES, ts) == slot_grid_cell(fam, GRID_ANGLES, ts)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_profile_is_no_worse_than_grid(self, variant):
        # at every angle the profile takes the least offset, so its least
        # value over the grid's angles is at most the grid's best cell
        for fam, k in grid_families(variant):
            ts = grid_offsets(fam, k)
            i, j = moment_grid_cell(fam, GRID_ANGLES, ts)
            grid_best = offset_envelope(fam, GRID_ANGLES[i], ts[j])[0]
            vals, _ = fam.offset_profile(GRID_ANGLES)
            assert vals.min() <= grid_best * (1.0 + 1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_score_many_matches_slot_scores(self, variant):
        rng = np.random.default_rng(91)
        for fam, _k in grid_families(variant):
            lo, hi = fam.P.min(axis=0), fam.P.max(axis=0)
            bases = rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(30, 2))
            dirs = rng.normal(size=(30, 2))
            lines = [Line(b, u) for b, u in zip(bases, dirs)] + [fit_line(fam.P, fam.W, 2)[0]]
            got, want = fam.score_many(lines), slot_score_many(fam, lines)
            assert np.all(np.abs(got - want) <= 1e-12 * want)


class TestSlotScores:
    """The batched slot score equals a one-line slot pass bit for bit, row by row."""

    # k = -1 gives one-entry families, k = 2 many entries
    @pytest.mark.parametrize("k", (-1, 2))
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("shift", (0.0, 2048.0))
    def test_rows_match_score(self, k, n, shift):
        rng = np.random.default_rng(60 + n)
        pts = shift + rng.uniform(0.0, 1.0, size=(24, n))
        mu = DiscreteMeasure(pts, rng.uniform(0.2, 1.0, size=24))
        for variant in VARIANTS:
            c = 0.05 if variant == "star_c" else None
            fam = cube_family(mu, cube_at(pts[0], k), variant, c, None)
            lo, hi = fam.P.min(axis=0), fam.P.max(axis=0)
            bases = rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(17, n))
            dirs = rng.normal(size=(17, n))
            dirs /= np.sqrt(np.einsum("ij,ij->i", dirs, dirs))[:, None]
            want = [slot_score(fam, Line(b, u)) for b, u in zip(bases, dirs)]
            for rows in (slice(0, 1), slice(3, 9), slice(None)):
                assert fam.slot_scores(bases[rows], dirs[rows]).tolist() == want[rows]
            assert [fam.score(Line(b, u)) for b, u in zip(bases, dirs)] == want

    def test_refine_objective_scores_each_row(self):
        # the refine objective: raw directions of any length, and rows too
        # short to name a direction
        mu = lipschitz_graph_measure(40)
        n = 2
        fam = cube_family(mu, cube_at(mu.points[0], 1), "star", None, None)
        rng = np.random.default_rng(62)
        X = np.column_stack([rng.uniform(0.0, 1.0, size=(12, n)), rng.normal(scale=3.0, size=(12, n))])
        X[4, n:] = 0.0
        X[7, n:] = 1e-10
        got = _refine_objective(fam, n)(X)
        for x, value in zip(X, got):
            nrm = float(np.linalg.norm(x[n:]))
            assert value == (1e30 if nrm < 1e-9 else moment_score(fam, x[:n], x[n:] / nrm))


DENSE_ANGLES = np.pi * np.arange(720) / 720


def random_family(seed, variant, shift=0.0, m=10, k=2):
    """The nearby family of a random planar measure, shifted by `shift`."""
    rng = np.random.default_rng(seed)
    pts = shift + rng.uniform(0.0, 1.0, size=(m, 2))
    mu = DiscreteMeasure(pts, rng.uniform(0.2, 1.0, size=m))
    c = 0.05 if variant == "star_c" else None
    return cube_family(mu, cube_at(pts[0], k), variant, c, None)


def three_clusters():
    """Three tight clusters far apart: every line caps some entry, so the profile is flat."""
    rng = np.random.default_rng(1)
    corners = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]])
    pts = np.vstack([cc + rng.uniform(0.0, 0.004, size=(3, 2)) for cc in corners])
    return DiscreteMeasure(pts, np.ones(len(pts))), cube_at(pts[0], 6)


def top_factor(fam):
    return 1.0 if fam.entry_factor is None else float(fam.entry_factor.max())


def assert_profile_matches_oracle(fam, thetas):
    # sin^2 of an angle below 1e-154 underflows to zero, harmlessly
    with np.errstate(all="raise", under="ignore"):
        vals, ts = fam.offset_profile(thetas)
    assert np.all(np.isfinite(ts))
    for th, val, t in zip(thetas, vals, ts):
        want, _ = offset_envelope_min(fam, th)
        assert abs(val - want) <= 1e-12 * max(1.0, want)
        assert offset_envelope(fam, th, t)[0] <= val + 1e-15


class TestOffsetProfile:
    """The level-set profile equals the breakpoint-envelope minimum at every angle."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("shift", (0.0, 2048.0))
    @pytest.mark.parametrize("k", (1, 3))
    def test_matches_oracle(self, variant, shift, k):
        fam = random_family(60 + k, variant, shift, k=k)
        assert len(fam.entries) > 1
        assert_profile_matches_oracle(fam, DENSE_ANGLES)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_flat_family_matches_oracle(self, variant):
        mu, Q = three_clusters()
        fam = cube_family(mu, Q, variant, 0.05 if variant == "star_c" else None, None)
        assert_profile_matches_oracle(fam, DENSE_ANGLES)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(VARIANTS),
        shift=st.sampled_from([0.0, 2048.0]),
        m=st.integers(1, 16),
        k=st.integers(0, 4),
        thetas=st.lists(st.floats(0.0, np.pi, exclude_max=True), min_size=1, max_size=24),
    )
    def test_matches_oracle_property(self, seed, variant, shift, m, k, thetas):
        fam = random_family(seed, variant, shift, m=m, k=k)
        assert_profile_matches_oracle(fam, np.array(thetas))

    def test_every_entry_capped_gives_family_centre(self):
        mu, Q = three_clusters()
        for variant in VARIANTS:
            c = 0.05 if variant == "star_c" else None
            fam = cube_family(mu, Q, variant, c, None)
            with np.errstate(all="raise"):
                vals, ts = fam.offset_profile(DENSE_ANGLES)
                bv = beta_multi(mu, Q, 2, variant, c=c)
            assert np.all(vals == top_factor(fam))
            assert np.all(ts == 0.0)
            assert bv.value == pytest.approx(np.sqrt(top_factor(fam)))

    @pytest.mark.parametrize("b", ((0.95, 0.5), (0.95, 0.83)))
    def test_collinear_family_is_zero(self, b):
        mu = segment_measure(40, b=b)
        d = np.subtract(b, (0.05, 0.5))
        along = np.arctan2(d[1], d[0])
        for k in (0, 1, 3):
            Q = cube_at(mu.points[3], k)
            fam = cube_family(mu, Q, "star", None, None)
            with np.errstate(all="raise"):
                vals, ts = fam.offset_profile(np.append(DENSE_ANGLES, along))
                bv = beta_multi(mu, Q, 2, "star")
            assert np.all(np.isfinite(ts))
            # exactly zero on the axis-parallel segment; rounding elsewhere
            assert vals[-1] <= (0.0 if b[1] == 0.5 else 1e-18)
            assert bv.value <= 1e-12

    def test_one_entry_family(self):
        # a single atom: one entry with zero scatter, so every angle scores 0
        # on the line through it
        mu = DiscreteMeasure([[0.3, 0.4]], [1.0])
        Q = cube_at([0.3, 0.4], 2)
        fam = cube_family(mu, Q, "star", None, None)
        assert len(fam.entries) == 1
        with np.errstate(all="raise"):
            vals, ts = fam.offset_profile(DENSE_ANGLES)
            bv = beta_multi(mu, Q, 2, "star")
        assert np.all(vals == 0.0) and np.all(ts == 0.0)
        assert bv.value == 0.0
        # a spread-out entry: the profile is its vertex value, at its centroid
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure(rng.uniform(0.0, 1.0, size=(6, 2)), rng.uniform(0.2, 1.0, size=6))
        Q = DyadicCube(0, (0, 0))
        atoms = mu.atoms_in_triple(Q)
        fam = _Family(mu, Q.k, "star", None, [(Q, atoms, float(mu.weights[atoms].sum()))])
        with np.errstate(all="raise"):
            vals, ts = fam.offset_profile(DENSE_ANGLES)
        S0, m, C, _ = fam.moments()
        nrm = np.stack([-np.sin(DENSE_ANGLES), np.cos(DENSE_ANGLES)], axis=1)
        v = np.einsum("ai,ij,aj->a", nrm, C[0], nrm) * fam.inv_mass[0]
        assert np.allclose(ts, nrm @ m[0], rtol=0.0, atol=1e-12)
        assert np.allclose(vals, fam.entry_factor[0] * np.minimum(v, 1.0), rtol=1e-12, atol=1e-15)
        assert_profile_matches_oracle(fam, DENSE_ANGLES[::9])


class TestGoldenDenseBeta:
    """Dense-path values never rise above those the breakpoint sweep recorded.

    `beta_dense_golden.json` holds `beta_multi` of `four_corner_cantor(2)` at
    every mass-carrying cube of one scale, for every variant (c = 0.05), at
    p = 2, computed with the 720-angle breakpoint sweep and its basin pattern
    searches.
    """

    GOLDEN = FIXTURES_DIR / "beta_dense_golden.json"

    @pytest.mark.parametrize("case", ("k0", "k1", "k0_offset"))
    def test_no_value_rises(self, case):
        want = json.loads(self.GOLDEN.read_text())[case]
        mu = four_corner_cantor(2, offset=(want["offset"], want["offset"]))
        cache = BetaCache(mu)
        assert len(want["betas"]) == 3 * len(cache.mass_triples(want["scale"]))
        for row in want["betas"]:
            Q = DyadicCube(row["k"], tuple(row["index"]))
            bv = beta_multi(mu, Q, row["p"], row["variant"], c=row["c"], cache=cache)
            assert bv.value <= row["value"] * (1.0 + 1e-12)
            score = cube_family(mu, Q, row["variant"], row["c"], cache).score(bv.line)
            assert bv.value == (score if row["variant"] == "star_star" else float(np.sqrt(score)))


class TestBasinZoom:
    """The dense sweep zooms in on each basin of its 720-angle profile."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_beats_a_finer_angle_grid(self, variant):
        # the least profile value over 64 x 720 angles bounds the value from
        # above only if the basins are searched between the 720 samples:
        # without the zoom, star reads 0.04999378831609332 here
        mu = lipschitz_graph_measure(16)
        Q = DyadicCube(3, (0, 3))
        c = 0.05 if variant == "star_c" else None
        fam = cube_family(mu, Q, variant, c)
        assert len(np.unique(fam.P, axis=0)) <= 16
        vals, _ = fam.offset_profile(np.pi * np.arange(64 * 720) / (64 * 720))
        bv = beta_multi(mu, Q, 2, variant, c=c, refine=False)
        assert bv.value <= float(np.sqrt(vals.min()))


def solve_keys(mu, Q, variant, c, refine, cache):
    """The family keys a beta_multi call solves: its own and its witness's."""
    family = nearby_cubes_with_mass(mu, Q, cache)
    keys = {(Q.k, tuple(R for (R, _, _) in family), variant, c, refine)}
    if variant == "star_c" and _family(mu, Q.k, family, variant, c) is not None:
        keys |= solve_keys(mu, Q, "star", None, refine, cache)
    return keys


def count_solves(monkeypatch):
    """Record the family key of every coupled inf-max beta_multi solves."""
    solved = []
    solve = beta_mod._beta_multi

    def counted(mu, k, same, coarse, variant, c, refine, cache):
        family = beta_mod._members(cache, k, same, coarse)
        solved.append((k, tuple(R for (R, _, _) in family), variant, c, refine))
        return solve(mu, k, same, coarse, variant, c, refine, cache)

    monkeypatch.setattr(beta_mod, "_beta_multi", counted)
    return solved


class TestFamilyMemo:
    """Cubes that share a nearby family share one solve, and get the bits a lone solve gives.

    On `four_corner_cantor(2)` every cube of a scale has the same family; on
    `segment_cantor_mixture(1)` the Cantor and the segment cubes have one
    family each. With the segment 1128 to the right instead, the 1600 sqrt 2
    dilate of a scale-0 cube reaches some segment cubes but not others, so
    the families overlap without being equal. At c = 0.2 only the unit-mass
    fine triples pass the star_c filter and some cubes with different raw
    families keep equal filtered ones: a memo keyed on the filtered family
    would solve fewer families than this class counts, and would hand those
    cubes the star witness of the wrong family.

    Every cube is checked against a fresh cache's value for the last cube of
    its raw family in enumeration order; in a family of two or more cubes
    that is not the cube whose call solved the family in the shared cache.
    A fresh cache per cube would repeat each solve once per cube, about
    130 s on 2 cores against a few seconds.
    """

    MEASURES = {
        "cantor": lambda: four_corner_cantor(2),
        "mixture": lambda: segment_cantor_mixture(1)[0],
        "straddle": lambda: segment_cantor_mixture(1, separation=1128.0)[0],
    }
    # (variant, c, refine): every variant on the two samples, and on the
    # straddle the star_c filter that makes raw and filtered keys differ
    COMBOS = {
        "all": [
            (variant, c, refine)
            for variant, c in (("star", None), ("star_star", None), ("star_c", 0.05))
            for refine in (True, False)
        ],
        "star_c": [("star_c", c, refine) for c in (0.05, 0.2) for refine in (True, False)],
    }

    @staticmethod
    def assert_same_bits(a: BetaValue, b: BetaValue):
        assert a.value == b.value
        assert (a.line is None) == (b.line is None)
        if a.line is not None:
            assert a.line.base.tobytes() == b.line.base.tobytes()
            assert a.line.direction.tobytes() == b.line.direction.tobytes()

    @pytest.mark.parametrize(
        "name, k, combos",
        [("cantor", 0, "all"), ("cantor", 1, "all"), ("mixture", 0, "all"), ("mixture", 1, "all"), ("straddle", 0, "star_c")],
    )
    def test_shared_cache_matches_fresh_cache(self, name, k, combos, monkeypatch):
        mu = self.MEASURES[name]()
        combos = self.COMBOS[combos]
        shared = BetaCache(mu)
        cubes = [R for (R, _, _) in shared.mass_triples(k)]
        solved = count_solves(monkeypatch)
        values = {}
        for Q in cubes:
            for combo in combos:
                variant, c, refine = combo
                bv = beta_multi(mu, Q, 2, variant, c=c, refine=refine, cache=shared)
                assert bv is family_beta(mu, Q, variant, c, refine, shared)
                # the tracer's per-cube probe still sees the cube's value
                assert shared.get((Q, 2, variant, c, refine)) is bv
                values[Q, combo] = bv
        want = set().union(*(solve_keys(mu, Q, *combo, shared) for Q in cubes for combo in combos))
        assert len(solved) == len(want) and set(solved) == want
        monkeypatch.undo()
        family = {Q: tuple(R for (R, _, _) in nearby_cubes_with_mass(mu, Q, shared)) for Q in cubes}
        last = {family[Q]: Q for Q in cubes}
        alone = {}
        for fam, Q in last.items():
            fresh = BetaCache(mu)
            for combo in combos:
                variant, c, refine = combo
                alone[fam, combo] = beta_multi(mu, Q, 2, variant, c=c, refine=refine, cache=fresh)
        for Q in cubes:
            for combo in combos:
                self.assert_same_bits(values[Q, combo], alone[family[Q], combo])
        # cubes of one family share one value object
        for Q in cubes:
            for combo in combos:
                assert values[Q, combo] is values[last[family[Q]], combo]

    def test_filtered_families_meet_where_raw_families_differ(self):
        mu = self.MEASURES["straddle"]()
        cache = BetaCache(mu)
        by_filtered = {}
        for Q, _, _ in cache.mass_triples(0):
            family = nearby_cubes_with_mass(mu, Q, cache)
            # star_c keeps R with mu(3R) >= c diam 3R
            dense = tuple(R for (R, _, m) in family if m >= 0.2 * 3.0 * np.sqrt(2.0) * 2.0**-R.k)
            assert dense
            by_filtered.setdefault(dense, set()).add(tuple(R for (R, _, _) in family))
        assert max(len(raw) for raw in by_filtered.values()) >= 2

    def test_one_solve_for_one_family(self, monkeypatch):
        # the cantor16 benchmark measure: the 9 mass-carrying scale-0 cubes
        # share one family
        mu = four_corner_cantor(2, offset=(1 / 32, 1 / 32))
        cache = BetaCache(mu)
        solved = count_solves(monkeypatch)
        cubes = [R for (R, _, _) in cache.mass_triples(0)]
        values = [beta_multi(mu, Q, 2, "star", cache=cache) for Q in cubes]
        assert len(cubes) == 9 and len(solved) == 1
        assert len({bv.value for bv in values}) == 1


def test_beta_value_rejects_out_of_range():
    with pytest.raises(ValueError):
        BetaValue(1.5, None)
    with pytest.raises(ValueError):
        BetaValue(-0.1, None)
    with pytest.raises(ValueError):
        BetaValue(float("nan"), None)
