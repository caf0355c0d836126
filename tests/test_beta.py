import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrt import (
    Ball,
    BetaCache,
    BetaValue,
    DiscreteMeasure,
    DyadicCube,
    Line,
    beta_best,
    beta_fixed_line,
    beta_multi,
    beta_sup_set,
)
from mrt import beta as beta_mod
from mrt.beta import VARIANTS, _family, _Family, nearby_cubes_with_mass
from mrt.dyadic import Box, cube_at, in_nearby_family
from mrt.errors import DegenerateRegion

from _oracle import brute_force_line_oracle, offset_envelope, offset_envelope_min
from _samples import four_corner_cantor, segment_cantor_mixture, segment_measure
from conftest import FIXTURES_DIR


def symmetric_pair():
    return DiscreteMeasure([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0])


def random_measure(rng, m=8, lo=0.0, hi=1.0):
    pts = rng.uniform(lo, hi, size=(m, 2))
    w = rng.uniform(0.2, 1.0, size=m)
    return DiscreteMeasure(pts, w)


class TestBetaFixedLine:
    def test_atoms_on_line(self):
        mu = segment_measure(20)
        ln = Line([0.0, 0.5], [1.0, 0.0])
        assert beta_fixed_line(mu, Ball((0.5, 0.5), 1.0), ln, 2) <= 1e-15

    def test_hand_value(self):
        # both atoms at distance 1 from the axis, region diameter 4
        mu = symmetric_pair()
        ln = Line([0.0, 0.0], [1.0, 0.0])
        for p in (1, 2, 3):
            assert beta_fixed_line(mu, Ball((0.0, 0.0), 2.0), ln, p) == pytest.approx(0.25)

    def test_zero_mass_region(self):
        mu = symmetric_pair()
        ln = Line([0.0, 0.0], [1.0, 0.0])
        assert beta_fixed_line(mu, Ball((9.0, 9.0), 0.5), ln, 2) == 0.0

    def test_degenerate_region(self):
        mu = DiscreteMeasure([[1.0, 1.0]], [1.0])
        with pytest.raises(DegenerateRegion):
            beta_fixed_line(mu, Ball((1.0, 1.0), 0.0), Line([0, 0], [1, 0]), 2)

    def test_rejects_bad_p(self):
        mu = symmetric_pair()
        with pytest.raises(ValueError):
            beta_fixed_line(mu, Ball((0.0, 0.0), 2.0), Line([0, 0], [1, 0]), 0.5)


class TestBetaBest:
    def test_collinear_atoms(self):
        mu = segment_measure(15)
        for p in (1, 2, "sup"):
            bv = beta_best(mu, Ball((0.5, 0.5), 1.0), p)
            assert bv.value <= 1e-12
            assert bv.line is not None

    def test_zero_mass(self):
        mu = symmetric_pair()
        bv = beta_best(mu, Ball((9.0, 9.0), 0.5), 2)
        assert bv.value == 0.0
        assert bv.line is None

    def test_value_is_infimum_bound(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng)
        region = Box((0.5, 0.5), 0.5)
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
            region = Box((0.5, 0.5), 0.5)
            b1 = beta_best(mu, region, 1).value
            b2 = beta_best(mu, region, 2).value
            assert b1 <= b2 + 1e-12

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            mu = random_measure(rng, m=6)
            region = Box((0.5, 0.5), 0.5)
            bv = beta_best(mu, region, 2)
            oval, _ = brute_force_line_oracle(
                mu.points, mu.weights, p=2, n_angles=180, n_offsets=60, refine=True
            )
            assert bv.value == pytest.approx(oval / region.diameter, rel=1e-3, abs=1e-9)

    def test_sup_variant(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [0.5, 0.4]], [1, 1, 1])
        region = Box((0.5, 0.2), 0.5)
        bv = beta_best(mu, region, "sup")
        # the minimal strip has width 0.4, so the sup distance is 0.2
        assert bv.value == pytest.approx(0.2 / region.diameter, abs=1e-12)


class TestBetaSupSet:
    def test_empty_intersection(self):
        assert beta_sup_set(np.array([[5.0, 5.0]]), Box((0.0, 0.0), 1.0)) == 0.0

    def test_collinear(self):
        pts = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        assert beta_sup_set(pts, Box((0.5, 0.0), 1.0)) <= 1e-12

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
        with pytest.raises(ValueError):
            beta_multi(mu, Q, "sup", "star")

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

    def test_monotone_in_p(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mu = random_measure(rng, m=6)
            cache = BetaCache(mu)
            Q = cube_at(mu.points[0], int(rng.integers(1, 4)))
            b1 = beta_multi(mu, Q, 1, "star", cache=cache)
            b2 = beta_multi(mu, Q, 2, "star", cache=cache)
            assert b1.value <= b2.value + 1e-12

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

    def test_cache_returns_same_object(self):
        mu = symmetric_pair()
        cache = BetaCache(mu)
        Q = DyadicCube(0, (0, 0))
        a = beta_multi(mu, Q, 2, "star", cache=cache)
        b = beta_multi(mu, Q, 2, "star", cache=cache)
        assert a is b

    def test_details_present(self):
        rng = np.random.default_rng(13)
        mu = random_measure(rng, m=5)
        bv = beta_multi(mu, cube_at(mu.points[0], 1), 2, "star")
        for key in ("nearby_mass_cubes", "distinct_atom_sets", "witness_max_beta"):
            assert key in bv.details


def cube_family(mu, Q, p, variant, c, cache=None):
    """The family beta_multi solves for cube Q."""
    return _family(mu, Q.k, nearby_cubes_with_mass(mu, Q, cache), p, variant, c)


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
            fam = cube_family(mu, cube_at(pts[0], k), 2, variant, c, None)
            assert fam is not None
            lo, hi = fam.P.min(axis=0), fam.P.max(axis=0)
            for _ in range(40):
                # bases inside and beyond the family, so some entries hit the cap
                base = rng.uniform(lo - (hi - lo), hi + (hi - lo))
                u = rng.normal(size=n)
                u /= np.linalg.norm(u)
                direct = fam.score(Line(base, u))
                assert abs(fam.moment_score(base, u) - direct) <= 1e-12


DENSE_ANGLES = np.pi * np.arange(720) / 720


def random_family(seed, variant, shift=0.0, m=10, k=2):
    """The p = 2 nearby family of a random planar measure, shifted by `shift`."""
    rng = np.random.default_rng(seed)
    pts = shift + rng.uniform(0.0, 1.0, size=(m, 2))
    mu = DiscreteMeasure(pts, rng.uniform(0.2, 1.0, size=m))
    c = 0.05 if variant == "star_c" else None
    return cube_family(mu, cube_at(pts[0], k), 2, variant, c, None)


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
        fam = cube_family(mu, Q, 2, variant, 0.05 if variant == "star_c" else None, None)
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
            fam = cube_family(mu, Q, 2, variant, c, None)
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
            fam = cube_family(mu, Q, 2, "star", None, None)
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
        fam = cube_family(mu, Q, 2, "star", None, None)
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
        fam = _Family(mu, Q.k, 2, "star", None, [(Q, atoms, float(mu.weights[atoms].sum()))])
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
    every mass-carrying cube of one scale, for p in {1, 2} and every variant
    (c = 0.05), computed with the 720-angle breakpoint sweep and its basin
    pattern searches.
    """

    GOLDEN = FIXTURES_DIR / "beta_dense_golden.json"

    @pytest.mark.parametrize("case", ("k0", "k1", "k0_offset"))
    def test_no_value_rises(self, case):
        want = json.loads(self.GOLDEN.read_text())[case]
        mu = four_corner_cantor(2, offset=(want["offset"], want["offset"]))
        cache = BetaCache(mu)
        assert len(want["betas"]) == 6 * len(cache.mass_triples(want["scale"]))
        for row in want["betas"]:
            Q = DyadicCube(row["k"], tuple(row["index"]))
            bv = beta_multi(mu, Q, row["p"], row["variant"], c=row["c"], cache=cache)
            assert bv.value <= row["value"] * (1.0 + 1e-12)
            score = cube_family(mu, Q, row["p"], row["variant"], row["c"], cache).score(bv.line)
            assert bv.value == (score if row["variant"] == "star_star" else float(np.sqrt(score)))


def solve_keys(mu, Q, p, variant, c, refine, cache):
    """The family keys a beta_multi call solves: its own and its witnesses'."""
    family = nearby_cubes_with_mass(mu, Q, cache)
    keys = {(Q.k, tuple(R for (R, _, _) in family), p, variant, c, refine)}
    if _family(mu, Q.k, family, p, variant, c) is not None:
        if p == 1:
            keys |= solve_keys(mu, Q, 2, variant, c, refine, cache)
        if variant == "star_c":
            keys |= solve_keys(mu, Q, p, "star", None, refine, cache)
    return keys


def count_solves(monkeypatch):
    """Record the family key of every coupled inf-max beta_multi solves."""
    solved = []
    solve = beta_mod._beta_multi

    def counted(mu, k, family, p, variant, c, refine, cache):
        solved.append((k, tuple(R for (R, _, _) in family), p, variant, c, refine))
        return solve(mu, k, family, p, variant, c, refine, cache)

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
    # (p, variant, c, refine): every variant on the two samples, and on the
    # straddle the star_c filter that makes raw and filtered keys differ
    COMBOS = {
        "all": [
            (p, variant, c, refine)
            for p in (1, 2)
            for variant, c in (("star", None), ("star_star", None), ("star_c", 0.05))
            for refine in (True, False)
        ],
        "star_c": [(2, "star_c", c, refine) for c in (0.05, 0.2) for refine in (True, False)],
    }

    @staticmethod
    def assert_same_bits(a: BetaValue, b: BetaValue):
        assert a.value == b.value and a.details == b.details
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
                p, variant, c, refine = combo
                bv = beta_multi(mu, Q, p, variant, c=c, refine=refine, cache=shared)
                assert bv.region == Q
                # the tracer's per-cube probe still sees the cube's value
                assert shared.get((Q, p, variant, c, refine)) is bv
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
                p, variant, c, refine = combo
                alone[fam, combo] = beta_multi(mu, Q, p, variant, c=c, refine=refine, cache=fresh)
        for Q in cubes:
            for combo in combos:
                self.assert_same_bits(values[Q, combo], alone[family[Q], combo])
        # cubes of one family share the witness line but not the details dict
        for Q in cubes:
            head = values[last[family[Q]], combos[0]]
            assert Q == last[family[Q]] or head.details is not values[Q, combos[0]].details

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
        BetaValue(1.5, None, 2, "star")
    with pytest.raises(ValueError):
        BetaValue(-0.1, None, 2, "star")
    with pytest.raises(ValueError):
        BetaValue(float("nan"), None, 2, "star")
