"""Checks of the CLI's reports against computations made apart from the program.

Every check takes the workload's sample and a dict mapping each subcommand to
its `Outcome` (exit code and parsed report), and returns a list of problems;
an empty list means the check passed. Nothing here imports `mrt`: cube
membership, nearby families, line distances, masses and spanning trees are
computed from their definitions.

Definitions used (plane, n = 2):
  - a scale-k dyadic cube has side h = 2^-k and is half-open; its triple 3R is
    the closed concentric cube of side 3h, diameter 3 h sqrt(2);
  - the nearby family of Q: cubes R of Q's scale and one coarser whose triple
    lies inside the closed cube of side 1600 sqrt(2) h_Q concentric with Q,
    restricted to mu(3R) > 0 (empty cubes score 0 in every variant);
  - star objective at a line l: max_R min(beta(3R, l), 1)^2 min(mu(3R)/diam 3R, 1)
    with beta(3R, l)^2 = sum_{x in 3R} w (dist(x, l)/diam 3R)^2 / mu(3R);
  - star_star objective: max_R min(beta(3R, l), 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
NEARBY_HALF = 800.0 * SQRT2  # half-side of the nearby dilate, in units of h_Q


@dataclass
class Outcome:
    """One CLI call as the checks see it."""

    returncode: int
    report: dict | None


# ---------------------------------------------------------------------------
# geometry from the definitions


def triple_cubes(points: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Sorted indices of the scale-k cubes whose closed triple holds an atom."""
    h = 2.0**-k
    lo = np.ceil(points / h - 2.0).astype(np.int64)
    hi = np.floor(points / h + 1.0).astype(np.int64)
    out: set[tuple[int, int]] = set()
    for a, b in zip(lo, hi):
        out.update(itertools.product(range(a[0], b[0] + 1), range(a[1], b[1] + 1)))
    return sorted(out)


def triple_atoms(points: np.ndarray, k: int, index) -> np.ndarray:
    h = 2.0**-k
    centre = (np.asarray(index, dtype=float) + 0.5) * h
    return np.flatnonzero(np.all(np.abs(points - centre) <= 1.5 * h, axis=1))


def nearby_family(points, weights, k: int, index) -> list[tuple[int, np.ndarray, float]]:
    """(scale, atom indices of 3R, mu(3R)) for the mass-carrying nearby family."""
    cq = (np.asarray(index, dtype=float) + 0.5) * 2.0**-k
    out = []
    for s in (k, k - 1):
        h = 2.0**-s
        for r in triple_cubes(points, s):
            cr = (np.asarray(r, dtype=float) + 0.5) * h
            if np.all(np.abs(cr - cq) + 1.5 * h <= NEARBY_HALF * 2.0**-k):
                atoms = triple_atoms(points, s, r)
                if len(atoms):
                    out.append((s, atoms, float(weights[atoms].sum())))
    return out


def line_distances(X: np.ndarray, base, direction) -> np.ndarray:
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    Y = X - np.asarray(base, dtype=float)
    resid = Y - np.outer(Y @ u, u)
    return np.sqrt(np.einsum("ij,ij->i", resid, resid))


def capped_beta_sq(points, weights, s, atoms, mass, line) -> float:
    diam = 3.0 * SQRT2 * 2.0**-s
    d = line_distances(points[atoms], line["base"], line["direction"])
    return min(float(np.sum(weights[atoms] * (d / diam) ** 2)) / mass, 1.0)


def star_objective(points, weights, family, line) -> float:
    return max(
        capped_beta_sq(points, weights, s, a, m, line) * min(m / (3.0 * SQRT2 * 2.0**-s), 1.0)
        for s, a, m in family
    )


def min_eig_over_diam_sq(points, weights, s, atoms, mass) -> float:
    """Smallest eigenvalue of the weighted covariance of 3R over diam(3R)^2.

    This is the single-cube optimum of beta(3R, l)^2 over all lines l.
    """
    X = points[atoms]
    w = weights[atoms]
    mean = w @ X / mass
    Y = X - mean
    cov = (Y * w[:, None]).T @ Y / mass
    lam = max(float(np.linalg.eigvalsh(cov)[0]), 0.0)
    return lam / (3.0 * SQRT2 * 2.0**-s) ** 2


def cube_atoms(points: np.ndarray, k: int, index) -> np.ndarray:
    """Atoms of the half-open cube, by integer floor."""
    idx = np.floor(points * 2.0**k).astype(np.int64)
    return np.flatnonzero(np.all(idx == np.asarray(index, dtype=np.int64), axis=1))


def mst_length(V: np.ndarray) -> float:
    """Euclidean minimum spanning tree length (Prim, O(V^2))."""
    n = len(V)
    if n <= 1:
        return 0.0
    best = np.linalg.norm(V - V[0], axis=1)
    used = np.zeros(n, dtype=bool)
    used[0] = True
    total = 0.0
    for _ in range(n - 1):
        cand = np.where(used, np.inf, best)
        j = int(np.argmin(cand))
        total += float(cand[j])
        used[j] = True
        best = np.minimum(best, np.linalg.norm(V - V[j], axis=1))
    return total


def components(n: int, edges) -> int:
    """Number of connected components of a graph on n vertices (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def support_diameter(points: np.ndarray) -> float:
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.max()))


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def reads(*commands):
    """Name the subcommands whose reports a check reads.

    The runner carries out a check only when each of these calls exited 0
    with a report; otherwise it counts the check as failed without running it.
    """

    def mark(fn):
        fn.reads = commands
        return fn

    return mark


def _cube_key(row) -> tuple[int, tuple[int, ...]]:
    return int(row["cube"]["k"]), tuple(int(v) for v in row["cube"]["index"])


def _expected_cubes(points, k_lo: int, k_hi: int) -> list[tuple[int, tuple[int, ...]]]:
    return [(k, r) for k in range(k_lo, k_hi + 1) for r in triple_cubes(points, k)]


# ---------------------------------------------------------------------------
# cantor16: beta and jones


@reads("beta")
def beta_covers_mass_cubes(sample, outcomes) -> list[str]:
    """The beta report lists exactly the cubes with mu(3R) > 0 at its scales."""
    rep = outcomes["beta"].report
    cfg = rep["config"]
    got = [_cube_key(r) for r in rep["cubes"]]
    want = _expected_cubes(sample.points, cfg["k_lo"], cfg["k_hi"])
    if sorted(got) != want:
        return [f"beta: cubes {sorted(got)} != mass-carrying cubes {want}"]
    if rep["n_cubes"] != len(want):
        return [f"beta: n_cubes {rep['n_cubes']} != {len(want)}"]
    return []


@reads("beta")
def beta_is_witness_score(sample, outcomes) -> list[str]:
    """Each reported star beta equals the star objective at its witness line."""
    rep = outcomes["beta"].report
    errs = []
    for row in rep["cubes"]:
        k, index = _cube_key(row)
        fam = nearby_family(sample.points, sample.weights, k, index)
        if row["line"] is None:
            errs.append(f"beta {k},{index}: no witness line")
            continue
        value = math.sqrt(star_objective(sample.points, sample.weights, fam, row["line"]))
        if abs(value - row["beta"]) > 1e-9:
            errs.append(f"beta {k},{index}: reported {row['beta']!r}, witness scores {value!r}")
    return errs


@reads("beta")
def beta_above_lower_bound(sample, outcomes) -> list[str]:
    """beta^2 >= max_R min(lambda_min(3R)/diam^2, 1) min(mu(3R)/diam 3R, 1)."""
    rep = outcomes["beta"].report
    errs = []
    for row in rep["cubes"]:
        k, index = _cube_key(row)
        fam = nearby_family(sample.points, sample.weights, k, index)
        bound = max(
            min(min_eig_over_diam_sq(sample.points, sample.weights, s, a, m), 1.0)
            * min(m / (3.0 * SQRT2 * 2.0**-s), 1.0)
            for s, a, m in fam
        )
        if row["beta"] ** 2 < bound * (1.0 - 1e-9) - 1e-15:
            errs.append(f"beta {k},{index}: beta^2 {row['beta'] ** 2!r} below bound {bound!r}")
    return errs


@reads("beta", "jones")
def jones_matches_chain(sample, outcomes) -> list[str]:
    """J(x) = sum_k beta(Q_k)^2 diam Q_k / mu(Q_k) with betas from the beta report."""
    rep = outcomes["jones"].report
    beta_rep = outcomes["beta"].report
    betas = {_cube_key(r): r["beta"] for r in beta_rep["cubes"]}
    want_kmax = rep["config"]["k_max"]
    if len(rep["atoms"]) != len(sample.points):
        return [f"jones: {len(rep['atoms'])} rows for {len(sample.points)} atoms"]
    errs = []
    for row in rep["atoms"]:
        i = row["atom"]
        x = sample.points[i]
        if row["k_max"] != want_kmax or row["point"] != [float(v) for v in x]:
            errs.append(f"jones atom {i}: point or k_max differs from the input")
            continue
        total = 0.0
        for k in range(want_kmax + 1):
            index = tuple(int(v) for v in np.floor(x * 2.0**k))
            if (k, index) not in betas:
                errs.append(f"jones atom {i}: chain cube {k},{index} missing from the beta report")
                break
            mass = float(sample.weights[cube_atoms(sample.points, k, index)].sum())
            total += betas[(k, index)] ** 2 * SQRT2 * 2.0**-k / mass
        else:
            if not _rel_close(total, row["value"], 1e-12):
                errs.append(f"jones atom {i}: reported {row['value']!r}, chain sum {total!r}")
    return errs


# ---------------------------------------------------------------------------
# spiral: curve and validate


@reads("curve")
def curve_status_ok(sample, outcomes) -> list[str]:
    rep = outcomes["curve"].report
    errs = []
    if not rep["net_validation"]["ok"]:
        errs.append("curve: net validation failed")
    if not rep["certificate"]["ok"]:
        errs.append("curve: length certificate failed")
    if not rep["connected"]:
        errs.append("curve: reported disconnected")
    return errs


@reads("curve")
def curve_one_component(sample, outcomes) -> list[str]:
    """Union-find over shared segment endpoints finds one component."""
    rep = outcomes["curve"].report
    n = components(len(rep["vertices"]), ((s["a"], s["b"]) for s in rep["segments"]))
    return [] if n == 1 else [f"curve: {n} components"]


@reads("curve")
def curve_vertices_on_support(sample, outcomes) -> list[str]:
    """Net-based curves have their vertices at atoms of the measure."""
    rep = outcomes["curve"].report
    V = np.asarray(rep["vertices"], dtype=float)
    d = np.sqrt(((V[:, None, :] - sample.points[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    bad = np.flatnonzero(d > 1e-12)
    return [f"curve: vertex {int(i)} is {d[i]!r} from the support" for i in bad[:5]]


@reads("curve")
def curve_covers_atoms(sample, outcomes) -> list[str]:
    """Every atom lies within 2^-K r0 of a vertex (r0 = diam of the support)."""
    rep = outcomes["curve"].report
    cfg = rep["config"]
    r0 = cfg["r0"] if cfg["r0"] is not None else support_diameter(sample.points)
    tol = 2.0 ** -cfg["depth"] * r0
    V = np.asarray(rep["vertices"], dtype=float)
    d = np.sqrt(((sample.points[:, None, :] - V[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    bad = np.flatnonzero(d > tol)
    return [f"curve: atom {int(i)} is {d[i]!r} > {tol!r} from every vertex" for i in bad[:5]]


@reads("curve")
def curve_length_matches_segments(sample, outcomes) -> list[str]:
    """length.naive is the sum of the listed segments; dedup does not exceed it."""
    rep = outcomes["curve"].report
    V = np.asarray(rep["vertices"], dtype=float)
    a = np.array([s["a"] for s in rep["segments"]], dtype=np.int64)
    b = np.array([s["b"] for s in rep["segments"]], dtype=np.int64)
    total = float(np.linalg.norm(V[b] - V[a], axis=1).sum()) if len(a) else 0.0
    naive, dedup = rep["length"]["naive"], rep["length"]["dedup"]
    errs = []
    if not _rel_close(naive, total, 1e-9):
        errs.append(f"curve: length.naive {naive!r} != sum of listed segments {total!r}")
    if not dedup <= naive * (1.0 + 1e-12):
        errs.append(f"curve: length.dedup {dedup!r} > length.naive {naive!r}")
    return errs


@reads("curve")
def curve_length_above_mst(sample, outcomes) -> list[str]:
    """Any connected set through the vertices is at least half their MST long."""
    rep = outcomes["curve"].report
    half_mst = 0.5 * mst_length(np.asarray(rep["vertices"], dtype=float))
    dedup = rep["length"]["dedup"]
    return [] if dedup >= half_mst else [f"curve: length {dedup!r} < MST/2 {half_mst!r}"]


@reads("validate")
def validate_ok(sample, outcomes) -> list[str]:
    rep = outcomes["validate"].report
    return [] if rep["ok"] is True else ["validate: ok is not true"]


# ---------------------------------------------------------------------------
# mixture: decompose and tst


@reads("decompose")
def decompose_labels(sample, outcomes) -> list[str]:
    """Curve atoms are rect-candidates; Cantor atoms exceed the Jones cap."""
    rep = outcomes["decompose"].report
    if sorted(a["atom"] for a in rep["atoms"]) != list(range(len(sample.points))):
        return ["decompose: atom rows do not cover the input"]
    errs = []
    for a in rep["atoms"]:
        if sample.curve_mask[a["atom"]]:
            ok = a["label"] == "rect-candidate"
        else:
            ok = a["label"] == "unrect-candidate" and a["reason"] == "jones_above_cap"
        if not ok:
            errs.append(f"decompose atom {a['atom']}: label {a['label']!r} reason {a['reason']!r}")
    return errs[:5]


@reads("decompose")
def decompose_masses(sample, outcomes) -> list[str]:
    """rect_mass is the curve atoms' mass; captured mass never exceeds it."""
    rep = outcomes["decompose"].report
    errs = []
    want = float(sample.weights[sample.curve_mask].sum())
    if not _rel_close(rep["rect_mass"], want, 1e-12):
        errs.append(f"decompose: rect_mass {rep['rect_mass']!r} != curve mass {want!r}")
    if not rep["captured_mass"] <= rep["rect_mass"]:
        errs.append(f"decompose: captured_mass {rep['captured_mass']!r} > rect_mass {rep['rect_mass']!r}")
    if not rep["captured_fraction"] <= 1.0:
        errs.append(f"decompose: captured_fraction {rep['captured_fraction']!r} > 1")
    return errs


@reads("decompose")
def decompose_coverage(sample, outcomes) -> list[str]:
    rep = outcomes["decompose"].report
    if not rep["curves"]:
        return ["decompose: no curve drawn through the rectifiable part"]
    return [f"decompose curve {i}: coverage not ok" for i, c in enumerate(rep["curves"]) if not c["coverage"]["ok"]]


@reads("tst")
def tst_ledgers(sample, outcomes) -> list[str]:
    """Both ledgers: the mass-carrying cubes, term = beta^2 sqrt(2) 2^-k, total = sum."""
    rep = outcomes["tst"].report
    cfg = rep["config"]
    want = _expected_cubes(sample.points, cfg["k_lo"], cfg["k_hi"])
    errs = []
    for name in ("beta_sq_set", "s_star_star"):
        led = rep[name]
        if sorted(_cube_key(r) for r in led["cubes"]) != want:
            errs.append(f"tst {name}: cubes differ from the mass-carrying cubes")
        total = 0.0
        for r in led["cubes"]:
            k, index = _cube_key(r)
            term = r["beta"] ** 2 * SQRT2 * 2.0**-k
            if not _rel_close(term, r["term"], 1e-12):
                errs.append(f"tst {name} {k},{index}: term {r['term']!r} != beta^2 diam {term!r}")
            total += r["term"]
        if not _rel_close(total, led["total"], 1e-12):
            errs.append(f"tst {name}: total {led['total']!r} != sum of terms {total!r}")
    return errs


@reads("tst")
def tst_star_star_bounds(sample, outcomes) -> list[str]:
    """0 <= beta <= 1 and beta >= max_R min(sqrt(lambda_min(3R))/diam 3R, 1)."""
    rep = outcomes["tst"].report
    errs = []
    for r in rep["s_star_star"]["cubes"]:
        k, index = _cube_key(r)
        b = r["beta"]
        if not 0.0 <= b <= 1.0:
            errs.append(f"tst s_star_star {k},{index}: beta {b!r} outside [0, 1]")
            continue
        fam = nearby_family(sample.points, sample.weights, k, index)
        bound = max(
            math.sqrt(min(min_eig_over_diam_sq(sample.points, sample.weights, s, a, m), 1.0))
            for s, a, m in fam
        )
        if b < bound * (1.0 - 1e-9) - 1e-15:
            errs.append(f"tst s_star_star {k},{index}: beta {b!r} below bound {bound!r}")
    return errs


CHECKS = {
    "cantor16": [beta_covers_mass_cubes, beta_is_witness_score, beta_above_lower_bound, jones_matches_chain],
    "spiral": [curve_status_ok, curve_one_component, curve_vertices_on_support, curve_covers_atoms,
               curve_length_matches_segments, curve_length_above_mst, validate_ok],
    "mixture": [decompose_labels, decompose_masses, decompose_coverage, tst_ledgers, tst_star_star_bounds],
}
