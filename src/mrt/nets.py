"""Multiscale net sequences feeding the curve construction.

A net sequence is a list of finite point sets V_0, V_1, ..., V_K with a base
radius r0 and a constant Cstar > 1 such that

    (V_I)   distinct points of V_k are >= 2^{-k} r0 apart,
    (V_II)  every point of V_k has a point of V_{k+1} within Cstar 2^{-(k+1)} r0,
    (V_III) every point of V_k has a point of V_{k-1} within Cstar 2^{-k} r0,

with all levels inside B(x0, Cstar r0). Two constructions are provided: greedy
maximal separated subsets of a point set (Cstar = 2), and nets through the
centers of mass of a cube tree's triples (Cstar = 4, r0 = 3 diam Top), which
record the witness cube behind every net point. Proximity conditions are
strict inequalities; validation reports the smallest constant that passes.

Lines and alphas: for every level k >= 1 and vertex v, a line l_{k,v} and a
number alpha_{k,v} >= 0 with

    dist(x, l_{k,v}) <= alpha_{k,v} 2^{-k} r0

for all x in (V_{k-1} u V_k) within the open ball B(v, 65 Cstar 2^{-k} r0).
fit_alphas either takes supplied lines or fits each neighborhood by a sup-norm
line fit, then sets alpha to the exact supremum ratio, so the inequality holds
by construction.

Neighbour queries: every net-level proximity question (validation, alpha
neighborhoods, the curve construction's balls, extension chains and terminal
tests, the length certificate, the doubling regime's neighborhoods) goes
through NetSequence.distances, near, nearest and neighborhood. Distances are
Euclidean, sqrt of the summed squared differences; balls are open (a point at
exactly the radius is outside); near returns row indices of V_k in ascending
order; nearest breaks distance ties toward the lexicographically least point.
The queries scan the level linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._parallel import pmap
from .dyadic import CubeTree, DyadicCube
from .errors import EmptyInput, NetValidationError, ZeroMassTriple
from .geometry import Line, fit_line, segment_distance
from .measure import DiscreteMeasure, ZeroMassRegion

NEIGHBORHOOD_FACTOR = 65.0  # ball radius factor for alpha neighborhoods


@dataclass
class NetValidationReport:
    ok: bool
    cstar: float
    cstar_min: float
    separation_ok: bool
    violations: list[dict] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "cstar": self.cstar,
            "cstar_min": self.cstar_min,
            "separation_ok": self.separation_ok,
            "n_violations": len(self.violations),
        }


class NetSequence:
    """Levels V_0..V_K with parameters (r0, Cstar) and optional witnesses."""

    def __init__(
        self,
        levels: list[np.ndarray],
        r0: float,
        cstar: float,
        x0=None,
        witnesses: list[list[DyadicCube]] | None = None,
    ):
        if not levels:
            raise EmptyInput("net sequence needs at least one level")
        self.levels = [np.atleast_2d(np.asarray(V, dtype=float)) for V in levels]
        dims = {V.shape[1] for V in self.levels}
        if len(dims) != 1:
            raise NetValidationError(f"levels have mixed dimensions {sorted(dims)}")
        self.dim = dims.pop()
        if not (r0 > 0):
            raise NetValidationError("r0 must be positive")
        if not (cstar > 1):
            raise NetValidationError("Cstar must exceed 1")
        self.r0 = float(r0)
        self.cstar = float(cstar)
        self.x0 = None if x0 is None else np.asarray(x0, dtype=float)
        self.witnesses = witnesses
        self.validation: NetValidationReport | None = None

    @property
    def K(self) -> int:
        return len(self.levels) - 1

    def level(self, k: int) -> np.ndarray:
        return self.levels[k]

    def sep(self, k: int) -> float:
        """Separation scale 2^{-k} r0 of level k."""
        return 2.0 ** (-k) * self.r0

    @property
    def k0(self) -> int | None:
        """Least k with at least two points in every level from k on."""
        k0 = None
        for k in range(len(self.levels) - 1, -1, -1):
            if len(self.levels[k]) < 2:
                break
            k0 = k
        return k0

    def distances(self, k: int, v) -> np.ndarray:
        """Euclidean distance from v to every row of V_k."""
        return np.sqrt(((self.levels[k] - v) ** 2).sum(axis=1))

    def near(self, k: int, v, radius: float) -> np.ndarray:
        """Rows of V_k inside the open ball B(v, radius), ascending."""
        return np.nonzero(self.distances(k, v) < radius)[0]

    def nearest(self, k: int, v) -> int:
        """Row of V_k nearest to v; ties go to the lexicographically least point."""
        V = self.levels[k]
        d = self.distances(k, v)
        return int(min(np.nonzero(d <= d.min())[0], key=lambda r: tuple(V[r])))

    def neighborhood(self, k: int, v: np.ndarray) -> np.ndarray:
        """(V_{k-1} u V_k) inside the open ball B(v, 65 Cstar 2^{-k} r0)."""
        radius = NEIGHBORHOOD_FACTOR * self.cstar * self.sep(k)
        pool = range(max(k - 1, 0), k + 1)
        return np.vstack([self.levels[j][self.near(j, v, radius)] for j in pool])


def _greedy_separated(points: np.ndarray, sep: float) -> list[int]:
    """Indices of a maximal sep-separated subset, scanned in input order."""
    chosen: list[int] = []
    kept = np.empty((0, points.shape[1]))
    for i, x in enumerate(points):
        if kept.shape[0]:
            d2 = ((kept - x) ** 2).sum(axis=1)
            if d2.min() < sep * sep:
                continue
        chosen.append(i)
        kept = np.vstack([kept, x[None, :]])
    return chosen


def nets_from_points(points, r0: float | None = None, K: int = 6, cstar: float = 2.0) -> NetSequence:
    """Greedy maximal 2^{-k} r0-separated subsets of a point set, in input order.

    With r0 >= diam E (the default sets r0 = diam E) the output satisfies
    (V_I) exactly and (V_II)/(V_III) with Cstar = 2 by maximality. The
    validation report is attached to the result.
    """
    E = np.atleast_2d(np.asarray(points, dtype=float))
    if E.size == 0:
        raise EmptyInput("cannot build nets from an empty point set")
    if r0 is None:
        r0 = 0.0
        for i in range(len(E)):          # exact brute diameter
            d2 = ((E[i + 1 :] - E[i]) ** 2).sum(axis=1)
            if d2.size:
                r0 = max(r0, float(np.sqrt(d2.max())))
        if r0 == 0.0:
            r0 = 1.0  # single point (or all coincident): scale is arbitrary
    levels = []
    for k in range(K + 1):
        idx = _greedy_separated(E, 2.0 ** (-k) * r0)
        levels.append(E[idx])
    nets = NetSequence(levels, r0=r0, cstar=cstar, x0=E[0])
    nets.validation = validate_nets(nets, cstar)
    return nets


def nets_from_tree(
    mu: DiscreteMeasure,
    tree: CubeTree,
    cstar: float = 4.0,
    r0: float | None = None,
    max_gen: int | None = None,
) -> NetSequence:
    """Nets through centers of mass of triples of tree cubes.

    Generation g draws on Z_g = {center_of_mass(mu, 3Q) : Q in tree,
    side Q = 2^{-(k_top+g)}} plus the centers of leaves that die above that
    scale (a dying branch keeps contributing its last center, so forward
    proximity survives finite truncation). r0 defaults to 3 diam Top, which
    makes the generation-g separation equal to diam 3Q at the matching scale.
    Witness cubes are recorded per net point.
    """
    top = tree.top
    k_top = top.k
    depth = max(Q.k for Q in tree.members) - k_top
    if max_gen is not None:
        depth = min(depth, max_gen)
    if r0 is None:
        r0 = 3.0 * top.diameter
    centers: dict[DyadicCube, np.ndarray] = {}

    def z(Q: DyadicCube) -> np.ndarray:
        if Q not in centers:
            try:
                centers[Q] = mu.center_of_mass(Q.triple())
            except ZeroMassRegion:
                raise ZeroMassTriple(f"zero mass on triple of tree cube {Q}")
        return centers[Q]

    children = {Q: tree.children_in_tree(Q) for Q in tree.members}
    leaves = [Q for Q in sorted(tree.members, key=lambda Q: (Q.k, Q.index)) if not children[Q]]
    levels = []
    witnesses: list[list[DyadicCube]] = []
    for g in range(depth + 1):
        scale = k_top + g
        pool: list[DyadicCube] = list(tree.cubes_at_scale(scale))
        pool.extend(L for L in leaves if L.k < scale)
        pool.sort(key=lambda Q: (Q.k, Q.index))
        Z = np.array([z(Q) for Q in pool], dtype=float).reshape(len(pool), -1)
        idx = _greedy_separated(Z, 2.0 ** (-g) * r0)
        levels.append(Z[idx])
        witnesses.append([pool[i] for i in idx])
    nets = NetSequence(levels, r0=r0, cstar=cstar, x0=z(top), witnesses=witnesses)
    nets.validation = validate_nets(nets, cstar)
    return nets


def validate_nets(nets: NetSequence, cstar: float | None = None) -> NetValidationReport:
    """Check (V_I)-(V_III) and the enclosing ball; list every violation.

    Proximity bounds are strict, so cstar_min (the max proximity ratio) is
    the infimum of constants that validate; ok requires all ratios < cstar.
    """
    cstar = nets.cstar if cstar is None else float(cstar)
    violations: list[dict] = []
    sep_ok = True
    ratios = [1.0]
    for k, V in enumerate(nets.levels):
        s = nets.sep(k)
        for i in range(len(V)):
            d2 = ((V[i + 1 :] - V[i]) ** 2).sum(axis=1)
            if d2.size and np.sqrt(d2.min()) < s * (1 - 1e-12):
                sep_ok = False
                j = i + 1 + int(np.argmin(d2))
                violations.append(
                    {
                        "condition": "V_I",
                        "level": k,
                        "pair": (i, j),
                        "distance": float(np.sqrt(d2.min())),
                        "bound": s,
                    }
                )
    for k in range(nets.K):
        bound = cstar * nets.sep(k + 1)
        for i, v in enumerate(nets.levels[k]):
            d = float(nets.distances(k + 1, v).min())
            ratios.append(d / nets.sep(k + 1))
            if not d < bound:
                violations.append(
                    {"condition": "V_II", "level": k, "point": i, "distance": d, "bound": bound}
                )
    for k in range(1, nets.K + 1):
        bound = cstar * nets.sep(k)
        for i, v in enumerate(nets.levels[k]):
            d = float(nets.distances(k - 1, v).min())
            ratios.append(d / nets.sep(k))
            if not d < bound:
                violations.append(
                    {"condition": "V_III", "level": k, "point": i, "distance": d, "bound": bound}
                )
    if nets.x0 is not None:
        for k in range(nets.K + 1):
            d = nets.distances(k, nets.x0)
            ratios.append(float(d.max()) / nets.r0 if len(d) else 0.0)
            bad = np.nonzero(d > cstar * nets.r0 * (1 + 1e-12))[0]
            for i in bad:
                violations.append(
                    {
                        "condition": "ball",
                        "level": k,
                        "point": int(i),
                        "distance": float(d[i]),
                        "bound": cstar * nets.r0,
                    }
                )
    return NetValidationReport(
        ok=sep_ok and not violations,
        cstar=cstar,
        cstar_min=float(max(ratios)),
        separation_ok=sep_ok,
        violations=violations,
    )


@dataclass
class AlphaAssignment:
    """Per-(level, vertex) fitted lines and flatness numbers."""

    cstar: float
    r0: float
    entries: dict[tuple[int, int], tuple[Line, float]]

    def line(self, k: int, i: int) -> Line:
        return self.entries[(k, i)][0]

    def alpha(self, k: int, i: int) -> float:
        return self.entries[(k, i)][1]

    def budget(self) -> float:
        """Total flatness budget sum alpha^2 2^{-k} r0."""
        return float(
            sum(a * a * 2.0 ** (-k) * self.r0 for (k, _), (_, a) in sorted(self.entries.items()))
        )


def fit_alphas(
    nets: NetSequence,
    lines: dict[tuple[int, int], Line] | None = None,
) -> AlphaAssignment:
    """Fit lines and alphas for every vertex of levels 1..K.

    If lines are supplied they are used as-is; otherwise each neighborhood
    gets a sup-norm line fit. Alphas are the exact supremum of dist/(2^{-k}r0)
    over the neighborhood, so the defining inequality holds by recheck.
    """
    keys = [(k, i) for k in range(1, nets.K + 1) for i in range(len(nets.levels[k]))]

    def one(key: tuple[int, int]) -> tuple[Line, float]:
        k, i = key
        v = nets.levels[k][i]
        nbhd = nets.neighborhood(k, v)
        if len(nbhd) == 0:
            raise NetValidationError(f"empty alpha neighborhood at vertex {key}")
        if lines is not None and key in lines:
            ell = lines[key]
        else:
            ell, _ = fit_line(nbhd, None, p="sup")
        alpha = float(ell.distances(nbhd).max()) / nets.sep(k)
        return ell, alpha

    fitted = pmap(one, keys)
    return AlphaAssignment(cstar=nets.cstar, r0=nets.r0, entries=dict(zip(keys, fitted)))


def hausdorff_to_segments(points: np.ndarray, segments: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Max over points of distance to a union of closed segments."""
    worst = 0.0
    for x in np.atleast_2d(points):
        best = min((segment_distance(x, x, a, b) for a, b in segments), default=math.inf)
        worst = max(worst, best)
    return worst
