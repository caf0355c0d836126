"""Beta numbers: normalized L^2 distances from a measure to a line.

For a region E with diameter diam E and a line l,

    beta_2(mu, E, l) = ( integral_E (dist(x, l) / diam E)^2 dmu / mu(E) )^(1/2)

with the convention beta = 0 when mu(E) = 0: the L^2 gauge in which the
characterization is stated. beta_best takes the infimum over lines for a
single region. beta_multi takes the coupled infimum for a dyadic cube Q over
its nearby-cube family Delta*(Q) (same scale and one coarser, triples inside
the closed 1600 sqrt(n) dilate of Q):

    variant "star":       inf_l max_R bhat_2(mu, 3R, l)^2 * min(mu(3R)/diam 3R, 1)
    variant "star_star":  inf_l max_R bhat_2(mu, 3R, l)
    variant "star_c":     as "star" but only R with mu(3R) >= c diam 3R,
                          weight min(c, 1); zero if no cube qualifies

where bhat = min(beta, 1) is the per-cube beta truncated at 1 (a line can sit
arbitrarily far from one member of the family, but the coupled scores live in
[0, 1] by definition). Only mass-carrying nearby cubes are ever enumerated:
empty cubes contribute 0 to every max. The reported value is a certified upper
bound: it is the exact score of a concrete witness line, chosen from per-cube
minimizers, the global minimizer, atom-pair lines, planar angle sweeps, and a
deterministic pattern-search refinement.

In the plane, every family up to 240 atom slots, and every family on <= 16
distinct atoms, solves the offset profile: for a line direction, each
entry's capped score is a clamped convex parabola in the line's offset, so
its sublevel sets are intervals and the least coupled score over all
offsets is the least level at which those intervals meet. A bisection on
that level runs for many angles at once from the per-entry moments. Each
basin of the profile seeds one candidate: at 720 angles for the small
families, whose basins are first refined by shrinking local angle grids,
one batched profile call per round, and at 144 angles for the others.

The search objective and the certified value are kept apart. Every line
that only seeds or ranks candidates is scored from per-entry moments (mass,
centroid and scatter of the weights scaled by diam^-2, the L^2 quantities
of Lerman, CPAM 2003) in O(entries) per line instead of rescanning every
atom slot: the angle profile, the ranking of the candidates, and the
refinement's pattern search, which scores the polls of a search step in one
batch. These agree with the direct score up to rounding. The leading
candidates and each search's end line are then scored directly, and an end
line replaces the witness only if that exact score is lower, so the
reported value is never a moment value and never exceeds the unrefined
witness's score.

The star_c search additionally scores the star witness, so the computed
values inherit the monotonicity of the definitions: star_c <= star cube by
cube.

The solve reads only the scale and the family of mass-carrying nearby cubes,
never the cube itself, so BetaCache runs it once per (scale, family,
variant, c, refine) and every cube with that family gets the same bits; the
family is named by its members' positions in the per-scale triple lists. On a
finite measure the 1600 sqrt(n) dilate often covers the whole support, and
then every cube of a scale has one family: the 9 scale-0 cubes of a shifted
16-atom Cantor iterate need one solve, not nine.

beta_sup_set is the set version (sup over the points of a region instead of
the mass integral), exact in the plane via the minimum-width strip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube, checked_length, parent_scale_bound, same_scale_radius
from .geometry import Line, _pair_lines, fit_line, pattern_search, sorted_unique, unit
from .measure import DiscreteMeasure, Region

VARIANTS = ("star", "star_star", "star_c")

# per-cube candidate line fits per family; huge families keep the heaviest
_MAX_ENTRY_FITS = 48

# planar families also get candidates from an angle sweep: the coupled max
# objective has many local basins (and flat plateaus where every nearby cube
# is capped) that line fits alone miss. They take the least offset per angle
# (`_Family.offset_profile`) and one candidate per basin: on <= 16 distinct
# atoms at 720 angles, each basin zoomed in on by an 8-angle grid that
# shrinks 4x per round, all basins in one profile call per round; up to 240
# atom slots at 144 angles.
_GRID_SLOT_LIMIT = 240
_GRID_ANGLES = 144
_GRID_ANGLES_DENSE = 720
_ZOOM = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
# halvings of the level bracket [max_e f_e min(v_e, 1), max_e f_e]
_PROFILE_BISECTIONS = 64


@dataclass
class BetaValue:
    """A beta number with its witness line.

    value is an exact evaluation of the defining objective at `line` (for the
    inf variants this makes it a certified upper bound of the infimum).
    """

    value: float
    line: Line | None

    def __post_init__(self):
        if not np.isfinite(self.value) or not 0 <= self.value <= 1 + 1e-9:
            raise ValueError(f"beta value must lie in [0, 1], got {self.value}")


def _diameter(region: Region) -> float:
    """The region's diameter, once it is a normal float (dyadic.checked_length).

    A scale-k diameter below the normal range has lost bits, and its
    reciprocal overflows; ScaleOverflow names the region's scale.
    """
    if isinstance(region, DyadicCube):
        return checked_length(region.diameter, f"cube diameter at scale {region.k}")
    return checked_length(region.diameter, f"triple diameter at scale {region.triple_of.k}")


def beta_fixed_line(mu: DiscreteMeasure, region: Region, line: Line) -> float:
    """beta_2(mu, E, l) for a fixed line; 0 when mu(E) = 0."""
    idx = mu.atoms_in(region)
    if len(idx) == 0:
        return 0.0
    diam = _diameter(region)
    w = mu.weights[idx]
    d = line.distances(mu.points[idx])
    return float((np.sum(w * (d / diam) ** 2) / w.sum()) ** 0.5)


def beta_best(mu: DiscreteMeasure, region: Region) -> BetaValue:
    """Best-line beta of a single region: inf_l beta_2(mu, E, l).

    Exact: the witness is the weighted principal line of the region's atoms,
    and the value is its exact objective.
    """
    idx = mu.atoms_in(region)
    if len(idx) == 0:
        return BetaValue(0.0, None)
    line, _ = fit_line(mu.points[idx], mu.weights[idx], 2)
    return BetaValue(beta_fixed_line(mu, region, line), line)


def beta_sup_set(points, region: Region) -> float:
    """Set beta: inf_l sup_{x in E} dist(x, l) / diam Q; 0 if E is empty.

    points is E, the set's points that lie in the region Q; the caller
    picks them (the triple table does), and they are not tested again.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if len(X) == 0:
        return 0.0
    diam = _diameter(region)
    line, maxdist = fit_line(X, None, "sup")
    return float(maxdist) / diam


# ---------------------------------------------------------------------------
# nearby mass-carrying cubes


class BetaCache:
    """Per-measure memo for nearby-cube enumeration and beta_multi values.

    Jones sums and tree draws evaluate the same cubes many times, and on a
    small measure every cube of a scale has the same nearby family. So the
    coupled inf-max is memoized per family: the key is the raw family of
    `nearby_cubes_with_mass`, named by the scale and the member positions in
    the per-scale lists mass_triples(k) and mass_triples(k - 1), with variant,
    c and refine; the solve reads nothing else of the cube. Each
    cube's value is also kept under its exact (cube, p, variant, c, refine)
    key; it is its family's value object itself. All keys are exact, so hits
    are bit-identical to recomputation.
    """

    def __init__(self, mu: DiscreteMeasure):
        self.mu = mu
        self._triples: dict[int, list[tuple[DyadicCube, np.ndarray, float]]] = {}
        self._tripidx: dict[int, np.ndarray] = {}
        self._values: dict[tuple, BetaValue] = {}
        self._families: dict[tuple, BetaValue] = {}

    def mass_triples(self, k: int) -> list[tuple[DyadicCube, np.ndarray, float]]:
        """All scale-k cubes R with mu(3R) > 0, with atom indices and masses."""
        out = self._triples.get(k)
        if out is None:
            w = self.mu.weights
            out = self._triples[k] = [
                (DyadicCube(k, key), atoms, float(w[atoms].sum()))
                for key, atoms in self.mu.triple_table(k).items()
            ]
        return out

    def triple_index(self, k: int) -> np.ndarray:
        """Integer index matrix aligned with mass_triples(k), one row per cube."""
        idx = self._tripidx.get(k)
        if idx is None:
            trips = self.mass_triples(k)
            if trips:
                idx = np.array([R.index for (R, _, _) in trips], dtype=np.int64)
            else:
                idx = np.empty((0, self.mu.dim), dtype=np.int64)
            self._tripidx[k] = idx
        return idx

    def get(self, key):
        """The cube value stored for key, or None."""
        return self._values.get(key)

    def get_or_compute(self, key, compute):
        """The cube value for key, calling compute() only if none is stored.

        compute() may ask for other keys, never for its own: a cube key asks
        only for its family key, and a star_c family key asks only for the
        star family key of its witness.
        """
        return _memo(self._values, key, compute)

    def family_value(self, key, compute):
        """The family value for key; computed once, like get_or_compute."""
        return _memo(self._families, key, compute)


def _memo(store: dict, key, compute):
    value = store.get(key)
    if value is None:
        value = store[key] = compute()
    return value


def nearby_cubes_with_mass(
    mu: DiscreteMeasure, Q: DyadicCube, cache: BetaCache | None = None
) -> list[tuple[DyadicCube, np.ndarray, float]]:
    """Members R of the nearby family of Q with mu(3R) > 0.

    Returns (R, atom indices of 3R, mu(3R)) sorted by (scale, index). These
    are the only family members that can contribute to any beta variant.
    """
    if cache is None:
        cache = BetaCache(mu)
    return _members(cache, Q.k, *_nearby_members(cache, Q))


def _nearby_members(cache: BetaCache, Q: DyadicCube) -> tuple[np.ndarray, np.ndarray]:
    """Positions of Q's nearby mass-carrying cubes in mass_triples(Q.k) and mass_triples(Q.k - 1).

    The family's per-axis inequalities, tested against each per-scale list at once.
    """
    n = Q.dim
    qidx = np.asarray(Q.index, dtype=np.int64)
    same = np.abs(cache.triple_index(Q.k) - qidx) <= same_scale_radius(n)
    coarse = np.abs(4 * cache.triple_index(Q.k - 1) + 1 - 2 * qidx) <= parent_scale_bound(n)
    return np.flatnonzero(same.all(axis=1)), np.flatnonzero(coarse.all(axis=1))


def _members(cache: BetaCache, k: int, same: np.ndarray, coarse: np.ndarray) -> list:
    """The entries at positions same of mass_triples(k) and coarse of mass_triples(k - 1)."""
    fine, parent = cache.mass_triples(k), cache.mass_triples(k - 1)
    return [fine[i] for i in same.tolist()] + [parent[i] for i in coarse.tolist()]


# ---------------------------------------------------------------------------
# coupled inf-max over the nearby family


def beta_multi(
    mu: DiscreteMeasure,
    Q: DyadicCube,
    p=2,
    variant: str = "star",
    c: float | None = None,
    refine: bool = True,
    cache: BetaCache | None = None,
) -> BetaValue:
    """Coupled best-line beta of Q over its nearby-cube family.

    See module docstring for the three variants. The returned value equals
    the witness line's exact score (sqrt of the weighted min-max for the
    squared variants), making it a certified upper bound of the infimum.
    p must be 2 (ValueError otherwise); it stays in the signature and in the
    cube key (Q, p, variant, c, refine) that perfbench's tracer reads.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant == "star_c":
        if c is None or c <= 0:
            raise ValueError("variant star_c needs c > 0")
    if p != 2:
        raise ValueError(f"beta_multi takes p = 2 only, got {p!r}")
    if cache is None:
        cache = BetaCache(mu)

    def compute():
        return _family_beta(mu, Q.k, *_nearby_members(cache, Q), variant, c, refine, cache)

    return cache.get_or_compute((Q, p, variant, c, bool(refine)), compute)


def _family_beta(mu, k, same, coarse, variant, c, refine, cache: BetaCache) -> BetaValue:
    """The coupled beta of a nearby family, solved once per family key.

    The positions same in mass_triples(k) and coarse in mass_triples(k - 1)
    (`_nearby_members`) name the raw family that `nearby_cubes_with_mass`
    lists, before the star_c filter and the twin dedupe: they alone fix the
    filtered family and the star witness of star_c.
    """
    key = (k, same.tobytes(), coarse.tobytes(), variant, c, bool(refine))
    return cache.family_value(key, lambda: _beta_multi(mu, k, same, coarse, variant, c, refine, cache))


def _triple_diams(k: int, n: int) -> dict[int, float]:
    # triple diameters depend only on the scale; the family spans two scales
    return {kk: checked_length(3.0 * float(np.sqrt(n)) * 2.0**-kk, f"triple diameter at scale {kk}")
            for kk in (k, k - 1)}


class _Family:
    """The distinct mass-carrying members of a nearby family, as flat atom slots.

    Each entry (R, atoms of 3R, mu(3R)) owns one slot per atom, so one
    distance pass over the slots scores the whole family. `slot_scores` is
    the exact coupled objective of a batch of lines (the max over entries of
    the capped, weighted beta^2 for star and star_c, of the capped beta for
    star_star) and `score` that of one line; every value beta_multi reports
    is a `score`. The candidates are seeded and ranked from per-entry
    moments instead (`moments`, `moment_scores`, `offset_profile`), in
    O(entries) per line.
    """

    def __init__(self, mu: DiscreteMeasure, k: int, variant: str, c, raw_entries):
        diam3 = _triple_diams(k, mu.dim)
        # same-scale cubes with identical atom sets have identical scores: keep
        # one representative. A coarse cube whose triple holds exactly the same
        # atoms as a same-family fine cube is dominated outright: halving the
        # diameter quadruples b^2 and cannot shrink the density weight, so the
        # fine twin scores at least as much at every line.
        entries = []
        seen_sets: set = set()
        k_fine = max(R.k for (R, _, _) in raw_entries)
        keys = [atoms.tobytes() for (_, atoms, _) in raw_entries]
        fine_sets = {key for (R, _, _), key in zip(raw_entries, keys) if R.k == k_fine}
        for (R, atoms, mass), key in zip(raw_entries, keys):
            if (R.k, key) in seen_sets or (R.k < k_fine and key in fine_sets):
                continue
            seen_sets.add((R.k, key))
            entries.append((R, atoms, mass))
        self.entries = entries
        atom_arrays = [a for (_, a, _) in entries]
        self.slots = np.concatenate(atom_arrays)
        self.entry_id = np.repeat(np.arange(len(entries)), [len(a) for a in atom_arrays])
        self.P = mu.points[self.slots]
        self.W = mu.weights[self.slots]
        counts = np.array([len(a) for a in atom_arrays])
        self.starts = np.zeros(len(counts), dtype=np.intp)
        self.starts[1:] = np.cumsum(counts)[:-1]
        self.cen = self.P.mean(axis=0)
        self.Pc = self.P - self.cen
        inv_diam = np.array([1.0 / diam3[R.k] for (R, _, _) in entries])
        self.inv_mass = np.array([1.0 / mass for (_, _, mass) in entries])
        self.slot_inv_diam = inv_diam[self.entry_id]
        if variant == "star":
            self.entry_factor = np.minimum(
                np.array([mass / diam3[R.k] for (R, _, mass) in entries]), 1.0
            )
        elif variant == "star_c":
            self.entry_factor = np.full(len(entries), min(float(c), 1.0))
        else:
            self.entry_factor = None
        self._moments = None

    def score(self, line: Line) -> float:
        """The exact coupled objective of one line: `slot_scores` of one row."""
        return float(self.slot_scores(line.base[None], line.direction[None])[0])

    def slot_scores(self, bases: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """The exact coupled objective of the line {b + t u} for each row b of bases, u of directions.

        One stacked matmul gives every row's projections (one BLAS call per
        row) and one bincount over (row, entry) bins sums each row's entries
        in slot order, so a row's value does not depend on the other rows.
        Each direction must be a unit vector.
        """
        E = len(self.entries)
        Y = self.P[None, :, :] - bases[:, None, :]
        t = np.matmul(Y, directions[:, :, None])
        resid = Y - t * directions[:, None, :]
        d = np.sqrt(np.einsum("rij,rij->ri", resid, resid))
        contrib = self.W * (d * self.slot_inv_diam) ** 2
        bins = (E * np.arange(len(bases)))[:, None] + self.entry_id
        sums = np.bincount(bins.ravel(), weights=contrib.ravel(), minlength=len(bases) * E)
        # per-cube betas are truncated at 1: a line can sit arbitrarily far
        # from one nearby cube, but the variant scores live in [0, 1]
        b = np.minimum(np.sqrt(sums.reshape(-1, E) * self.inv_mass), 1.0)
        vals = b * b * self.entry_factor if self.entry_factor is not None else b
        return vals.max(axis=1)

    def score_many(self, lines: list[Line]) -> np.ndarray:
        """moment_scores of many lines, to rank candidates; never reported."""
        return self.moment_scores(np.array([ln.base for ln in lines]), np.array([ln.direction for ln in lines]))

    def moment_scores(self, bases: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """score(Line(b, u)) for each row b of bases, u of directions, to rank and search.

        With slot weights q = w / diam(3R)^2, an entry's mass S0 = sum q,
        centroid m and scatter C = sum q (x - m)(x - m)^T give its weighted
        sum of squared distances to the line {b + t u} as
        tr C - u.Cu + S0 (|m - b|^2 - ((m - b).u)^2). A line costs O(entries)
        instead of O(slots), in any dimension; each direction must be a unit
        vector. Every dot product is a stacked matmul, one BLAS call per line
        and entry, so a row's value does not depend on the other rows and
        rounds as a batch of one would.
        """
        S0, m, C, trC = self.moments()
        n = m.shape[1]
        U = directions[:, :, None]
        v = m[None, :, :] - (bases - self.cen)[:, None, :]
        vu = np.matmul(v, U)[:, :, 0]
        uCu = np.matmul(np.matmul(C[None], U[:, None])[..., 0], U)[:, :, 0]
        vv = np.einsum("ij,ij->i", v.reshape(-1, n), v.reshape(-1, n)).reshape(vu.shape)
        sq = trC - uCu + S0 * (vv - vu * vu)
        b2 = np.minimum(np.maximum(sq, 0.0) * self.inv_mass, 1.0)
        vals = b2 * self.entry_factor if self.entry_factor is not None else np.sqrt(b2)
        return vals.max(axis=1)

    def moments(self):
        """Per-entry (S0, m, C, tr C) of the slot weights w / diam(3R)^2."""
        if self._moments is None:
            # centroids relative to the family centre keep their digits when
            # the family sits far from the origin
            q = self.W * self.slot_inv_diam**2
            S0 = np.add.reduceat(q, self.starts)
            m = np.add.reduceat(q[:, None] * self.Pc, self.starts, axis=0) / S0[:, None]
            D = self.Pc - m[self.entry_id]
            C = np.add.reduceat(q[:, None, None] * D[:, :, None] * D[:, None, :], self.starts, axis=0)
            self._moments = (S0, m, C, np.trace(C, axis1=1, axis2=2))
        return self._moments

    def _planar(self, thetas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per entry e and angle th: M0 = S0 / mass, c = m . nu and v = nu^T C nu / mass.

        nu = (-sin th, cos th); along the planar lines {cen + t nu + r (cos th,
        sin th)} entry e has b^2 = M0 (t - c)^2 + v before the cap at 1.
        """
        S0, m, C, _ = self.moments()
        th = np.asarray(thetas, dtype=float)
        nx, ny = -np.sin(th), np.cos(th)
        c = np.outer(m[:, 0], nx) + np.outer(m[:, 1], ny)
        v = np.outer(C[:, 0, 0], nx * nx) + np.outer(2.0 * C[:, 0, 1], nx * ny) + np.outer(C[:, 1, 1], ny * ny)
        return S0 * self.inv_mass, c, np.maximum(v, 0.0) * self.inv_mass[:, None]

    def offset_profile(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """Least objective over the planar lines of each angle, and its offset.

        For angle th the lines are {cen + t nu + r (cos th, sin th)} with
        normal nu = (-sin th, cos th). Entry e scores f_e min(M0 (t - c)^2 + v, 1)
        in t, where M0 = S0 / mass, c = m . nu and v = nu^T C nu / mass (the
        vertex form of M0 t^2 - 2 M1 t + M2), and f_e is the variant's weight
        (1 for star_star, whose score is the square root of the same max). At
        a level lam < f_e its level set is the interval c -+ sqrt((lam / f_e - v) / M0);
        at lam >= f_e it is every t. Bisecting lam between max_e f_e min(v, 1)
        and max_e f_e finds, for every angle at once, the least level whose
        intervals still meet, and t is the midpoint of their intersection, or
        the family centre t = 0 when every entry is capped at that level and
        every t ties. Returns the objective at (th, t) and t, per angle; n = 2
        only.
        """
        M0, c, v = self._planar(thetas)
        f = self.entry_factor if self.entry_factor is not None else np.ones(len(self.entries))
        # rows are entries, columns angles. Inside the bracket only entries
        # weighted below the top weight can turn free, so they go last and
        # one block of rows holds every free mask (none for star_star and
        # star_c). A top entry at lam = max f keeps its b^2 <= 1 interval:
        # if those meet, any point of them also scores max f.
        order = np.argsort(-f, kind="stable")
        f, M0, c, v = f[order], M0[order], c[order], v[order]
        n_top = int(np.count_nonzero(f == f[0]))
        # half-width^2 at level lam: (lam / f - v) / M0 = lam * a - b
        a = 1.0 / (f * M0)
        b = v / M0[:, None]

        def meet(lam):
            # intersection [L, U] of the level sets at lam, per angle; a free
            # entry's half-width is infinite, so L = -inf and U = inf exactly
            # when every entry is free
            h = a[:, None] * lam
            h -= b
            np.maximum(h, 0.0, out=h)
            np.sqrt(h, out=h)
            if n_top < len(f):
                np.putmask(h[n_top:], lam >= f[n_top:, None], np.inf)
            L = (c - h).max(axis=0)
            return L, np.add(c, h, out=h).min(axis=0)

        lo = (f[:, None] * np.minimum(v, 1.0)).max(axis=0)
        L, U = meet(lo)
        ok = L <= U
        hi = np.where(ok, lo, f[0])
        L = np.where(ok, L, -np.inf)
        U = np.where(ok, U, np.inf)
        for _ in range(_PROFILE_BISECTIONS):
            lam = 0.5 * (lo + hi)
            Lm, Um = meet(lam)
            ok = Lm <= Um
            hi = np.where(ok, lam, hi)
            lo = np.where(ok, lo, lam)
            L = np.where(ok, Lm, L)
            U = np.where(ok, Um, U)
        fin = np.isfinite(L)
        t = 0.5 * (np.where(fin, L, 0.0) + np.where(fin, U, 0.0))
        vals = (f[:, None] * np.minimum(M0[:, None] * (t - c) ** 2 + v, 1.0)).max(axis=0)
        return vals, t


def _family(mu, k, family, variant, c) -> _Family | None:
    """A scale-k nearby family as solved (star_c keeps the dense members); None if empty."""
    if variant == "star_c":
        diam3 = _triple_diams(k, mu.dim)
        family = [e for e in family if e[2] >= c * diam3[e[0].k]]
    return _Family(mu, k, variant, c, family) if family else None


def _planar_line(cen, th, t) -> Line:
    """The line {cen + t nu + r (cos th, sin th)}, nu = (-sin th, cos th)."""
    return Line(cen + t * np.array([-np.sin(th), np.cos(th)]), np.array([np.cos(th), np.sin(th)]))


def _refine_objective(fam: _Family, n: int):
    """The refine search's batched objective: each row of X is a line (base, raw direction).

    Rows whose direction has norm < 1e-9 score 1e30, so the search never
    moves onto them; the others go to moment_scores together.
    """

    def objective(X):
        raw = X[:, n:]
        nrm = np.sqrt(np.matmul(raw[:, None, :], raw[:, :, None])[:, 0, 0])
        out = np.full(len(X), 1e30)
        ok = nrm >= 1e-9
        out[ok] = fam.moment_scores(X[ok, :n], raw[ok] / nrm[ok, None])
        return out

    return objective


def _beta_multi(mu, k, same, coarse, variant, c, refine, cache) -> BetaValue:
    # the solve sees only the scale and the family, never the cube, so every
    # cube with this family key gets the same bits
    fam = _family(mu, k, _members(cache, k, same, coarse), variant, c)
    if fam is None:
        return BetaValue(0.0, None)
    n = mu.dim
    diameter = 2.0 ** (-k) * float(np.sqrt(n))
    entries, slots, W, Pc, cen, starts = fam.entries, fam.slots, fam.W, fam.Pc, fam.cen, fam.starts

    candidates: list[Line] = []
    # cap per-cube fits on huge families; order is deterministic. Candidates
    # only seed the search, so the cheap principal-line fit is enough here;
    # every reported value is the exact score.
    order = sorted(range(len(entries)), key=lambda i: (-entries[i][2], entries[i][0].k, entries[i][0].index))
    pick = order[:_MAX_ENTRY_FITS]
    if n == 2:
        # closed-form principal line per entry from bincount moments; the
        # looped fit is only kept for higher dimensions
        Sw = np.add.reduceat(W, starts)
        Swx = np.add.reduceat(W * Pc[:, 0], starts)
        Swy = np.add.reduceat(W * Pc[:, 1], starts)
        Sxx = np.add.reduceat(W * Pc[:, 0] * Pc[:, 0], starts)
        Sxy = np.add.reduceat(W * Pc[:, 0] * Pc[:, 1], starts)
        Syy = np.add.reduceat(W * Pc[:, 1] * Pc[:, 1], starts)
        mx, my = Swx / Sw, Swy / Sw
        cxx = Sxx / Sw - mx * mx
        cxy = Sxy / Sw - mx * my
        cyy = Syy / Sw - my * my
        ang = 0.5 * np.arctan2(2.0 * cxy, cxx - cyy)
        for i in pick:
            candidates.append(
                Line(
                    cen + np.array([mx[i], my[i]]),
                    np.array([np.cos(ang[i]), np.sin(ang[i])]),
                )
            )
    else:
        for i in pick:
            _R, atoms, _mass = entries[i]
            ln, _ = fit_line(mu.points[atoms], mu.weights[atoms], 2)
            candidates.append(ln)
    all_atoms = sorted_unique(slots)
    ln, _ = fit_line(mu.points[all_atoms], mu.weights[all_atoms], 2)
    candidates.append(ln)
    # the unique-coordinate row sort is only worth it when the family is
    # small enough for the dense angle sweep to be in play
    few = len(all_atoms) <= 64 and len(sorted_unique(mu.points[all_atoms])) <= 16
    if few:
        candidates += [Line(a, u) for a, u in zip(*_pair_lines(mu.points[all_atoms]))]
    if n == 2 and (few or len(slots) <= _GRID_SLOT_LIMIT):
        n_ang = _GRID_ANGLES_DENSE if few else _GRID_ANGLES
        sweep, sweep_t = fam.offset_profile(np.pi * np.arange(n_ang) / n_ang)
        # refine every local basin of the circular angle profile; value-ranked
        # starts miss narrow dips whose grid samples sit high on the wall
        local = np.flatnonzero(
            (sweep <= np.roll(sweep, 1)) & (sweep <= np.roll(sweep, -1))
        )
        if len(local) > 48:
            # flat profiles (every angle ties) otherwise refine hundreds of
            # identical basins; generic profiles have far fewer dips
            local = local[np.argsort(sweep[local], kind="stable")[:48]]
        th = np.pi * local / n_ang
        val, tr = sweep[local], sweep_t[local]
        # only small families zoom, and a basin at an exact zero has nothing
        # below it to search for
        live = np.flatnonzero(val > 1e-30) if few else np.empty(0, dtype=np.intp)
        rows = np.arange(len(live))
        step = np.pi / n_ang / _ZOOM.max()
        while len(live) and step >= 1e-14:
            # one profile call zooms every live basin: the grid reaches the
            # last round's step on either side of the centre, and the centre
            # moves only to a strictly lower grid point
            grid = th[live][:, None] + step * _ZOOM
            gv, gt = fam.offset_profile(grid.ravel())
            j = np.argmin(gv.reshape(grid.shape), axis=1)
            flat = rows * len(_ZOOM) + j
            moved = gv[flat] < val[live]
            sel, pick = live[moved], flat[moved]
            th[sel], val[sel], tr[sel] = grid.ravel()[pick], gv[pick], gt[pick]
            step /= 4.0
        candidates += [_planar_line(cen, a, t) for a, t in zip(th, tr)]
    # the star witness makes the computed star_c value respect the
    # definitional monotonicity term by term (see module docstring)
    witness_ids: list[int] = []
    if variant == "star_c":
        sib = _family_beta(mu, k, same, coarse, "star", None, refine, cache)
        if sib.line is not None:
            witness_ids.append(len(candidates))
            candidates.append(sib.line)

    approx = fam.score_many(candidates)
    rank = np.argsort(approx, kind="stable")
    # the reported value must be an exact evaluation at the witness line, and
    # the monotonicity guarantee needs the star witness scored the same way,
    # so the leaders and the witness go through the one-line scorer
    exact_pool = sorted({int(i) for i in rank[:3]} | set(witness_ids))
    best_score, best_i = min((fam.score(candidates[i]), i) for i in exact_pool)
    best_line = candidates[best_i]

    if refine and best_score > 0:
        step0 = 0.25 * diameter

        objective = _refine_objective(fam, n)
        for i in rank[:3]:
            ln = candidates[int(i)]
            x0 = np.concatenate([ln.base, ln.direction])
            steps = np.concatenate([np.full(n, step0), np.full(n, 0.05)])
            _val, x = pattern_search(objective, x0, steps, max_iter=60, tol=1e-12)
            # the search only proposes a line; its direct score decides
            line = Line(x[:n], unit(x[n:]))
            val = fam.score(line)
            if val < best_score:
                best_score = val
                best_line = line

    value = float(np.sqrt(best_score)) if variant in ("star", "star_c") else float(best_score)
    return BetaValue(value, best_line)
