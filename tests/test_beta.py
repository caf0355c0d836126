import sys
import threading
import time

import numpy as np
import pytest

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
from mrt.beta import VARIANTS, _family, nearby_cubes_with_mass
from mrt.dyadic import Box, cube_at, in_nearby_family
from mrt.errors import DegenerateRegion

from _oracle import brute_force_line_oracle
from _samples import segment_measure


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
            fam = _family(mu, cube_at(pts[0], k), 2, variant, c, None)
            assert fam is not None
            lo, hi = fam.P.min(axis=0), fam.P.max(axis=0)
            for _ in range(40):
                # bases inside and beyond the family, so some entries hit the cap
                base = rng.uniform(lo - (hi - lo), hi + (hi - lo))
                u = rng.normal(size=n)
                u /= np.linalg.norm(u)
                direct = fam.score(Line(base, u))
                assert abs(fam.moment_score(base, u) - direct) <= 1e-12


class TestBetaCacheThreads:
    def test_each_key_computed_once(self):
        cache = BetaCache(symmetric_pair())
        calls = {key: 0 for key in range(4)}
        results = []

        def compute(key):
            calls[key] += 1
            time.sleep(0.002)
            return ("value", key)

        def worker(i):
            key = i % 4
            results.append((key, cache.get_or_compute(key, lambda: compute(key))))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(32)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert calls == {key: 1 for key in range(4)}
        assert len(results) == 32
        assert all(value is cache.get(key) for key, value in results)

    def test_get_waits_for_value_in_flight(self):
        cache = BetaCache(symmetric_pair())
        started = threading.Event()

        def compute():
            started.set()
            time.sleep(0.05)
            return "value"

        th = threading.Thread(target=cache.get_or_compute, args=("key", compute))
        th.start()
        assert started.wait(timeout=10)
        assert cache.get("key") == "value"
        th.join(timeout=10)
        assert not th.is_alive()
        assert cache.get("other") is None


def test_beta_value_rejects_out_of_range():
    with pytest.raises(ValueError):
        BetaValue(1.5, None, 2, "star")
    with pytest.raises(ValueError):
        BetaValue(-0.1, None, 2, "star")
    with pytest.raises(ValueError):
        BetaValue(float("nan"), None, 2, "star")
