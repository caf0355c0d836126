"""Lines, line fitting, and point-set comparison primitives.

Lines are stored as (base point, unit direction). Fitting minimizes the
weighted L^2 mean distance (p = 2) or the maximum distance (p = "sup"):

* p=2 is exact: weighted centroid + principal direction of the weighted
  second-moment matrix.
* sup is exact in the plane (the minimum-width strip, from one scan of the
  convex hull's edges). For n >= 3 the direction is heuristic: the seed and
  atom-pair directions are scored at once by the enclosing_balls radius of
  each projection, and the best few are polished by compass search. The
  value is the returned line's exact maximum distance, a certified bound.

Also provides the diameter of a point set, the distance between closed
segments (point-to-segment included), enclosing_balls and a batched
compass search, pattern_search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegion, DimensionMismatch, InvalidWeight

_EIG_TIE_REL = 1e-12


def _as_points(points) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] < 1:
        raise DimensionMismatch(f"expected (m, n) point array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidWeight("points must be finite")
    return X


def _as_weights(weights, m: int) -> np.ndarray:
    if weights is None:
        return np.ones(m)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != m:
        raise DimensionMismatch(f"{m} points but {w.shape[0]} weights")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise InvalidWeight("weights must be finite and strictly positive")
    return w


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of a 1-D array, or np.unique(a, axis=0) of a 2-D one.

    The same values in the same (lexicographic) order for NaN-free input.
    np.unique imports numpy.ma, which costs every process about 15 ms.
    """
    if len(a) == 0:
        return a
    if a.ndim == 1:
        a = np.sort(a)
        fresh = a[1:] != a[:-1]
    else:
        a = a[np.lexsort(a.T[::-1])]
        fresh = np.any(a[1:] != a[:-1], axis=1)
    return a[np.concatenate(([True], fresh))]


# point pairs compared at once by diameter; bounds its temporaries
_DIAMETER_PAIRS_PER_CHUNK = 4_000_000


def diameter(points) -> float:
    """Exact diameter of a point set: the largest pairwise Euclidean distance.

    Compares chunks of rows against every row, so the temporaries stay
    bounded; 0.0 for a single point.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    best = 0.0
    step = max(1, _DIAMETER_PAIRS_PER_CHUNK // len(X))
    for i in range(0, len(X), step):
        d2 = ((X[i : i + step, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        best = max(best, float(d2.max()))
    # sqrt is monotone, so the root of the largest square is the largest distance
    return float(np.sqrt(best))


def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm < 1e-300:
        raise ValueError("zero direction vector")
    return v / norm


def canonical_direction(v: np.ndarray) -> np.ndarray:
    """Flip sign so the first component larger than 1e-14 in modulus is positive."""
    v = np.asarray(v, dtype=float)
    for c in v:
        if abs(c) > 1e-14:
            return -v if c < 0 else v
    return v


@dataclass
class Line:
    """A line {base + t * direction} with unit direction."""

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float).reshape(-1)
        self.direction = np.asarray(self.direction, dtype=float).reshape(-1)
        if self.base.shape != self.direction.shape:
            raise DimensionMismatch("base and direction dimensions differ")
        norm = float(np.linalg.norm(self.direction))
        if abs(norm - 1.0) > 1e-9:
            if norm < 1e-300:
                raise ValueError("zero direction")
            self.direction = self.direction / norm

    def params(self, X) -> np.ndarray:
        """Signed parameter of the orthogonal projection of each point."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X - self.base) @ self.direction

    def distances(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = X - self.base
        t = Y @ self.direction
        return np.linalg.norm(Y - np.outer(t, self.direction), axis=1)

    def canonical(self) -> "Line":
        return Line(self.base.copy(), canonical_direction(self.direction.copy()))


def segment_distance(p1, q1, p2, q2) -> float:
    """Minimum distance between closed segments [p1,q1] and [p2,q2].

    With p1 = q1 = x it is the distance from x to [p2,q2], with the clamped
    projection t = clamp((x-p2).(q2-p2) / |q2-p2|^2), or |x-p2| when p2 = q2.
    """
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    if a == 0.0 and e == 0.0:
        return float(np.linalg.norm(r))
    if a == 0.0:
        t = min(1.0, max(0.0, f / e))
        return float(np.linalg.norm(p1 - (p2 + t * d2)))
    c = float(d1 @ r)
    if e == 0.0:
        s = min(1.0, max(0.0, -c / a))
        return float(np.linalg.norm(p1 + s * d1 - p2))
    b = float(d1 @ d2)
    denom = a * e - b * b
    s = min(1.0, max(0.0, (b * f - c * e) / denom)) if denom > 0 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(1.0, max(0.0, -c / a))
    elif t > 1.0:
        t = 1.0
        s = min(1.0, max(0.0, (b - c) / a))
    return float(np.linalg.norm((p1 + s * d1) - (p2 + t * d2)))


# ---------------------------------------------------------------------------
# planar hull / strip machinery (exact sup fit in n=2)


def convex_hull_2d(points) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices in counterclockwise order."""
    X = _as_points(points)
    if X.shape[1] != 2:
        raise DimensionMismatch("convex_hull_2d needs planar points")
    pts = sorted_unique(X)  # sorted by x, then y
    if len(pts) <= 2:
        return pts

    # Python floats round each cross product as numpy scalars would
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    rows = pts.tolist()
    lower: list = []
    for p in rows:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(rows):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all collinear; monotone chain degenerates
        hull = [rows[0], rows[-1]]
    return np.array(hull)


#: hull edges scanned per block times hull vertices, at most
_STRIP_BLOCK_ENTRIES = 65_536


def min_width_strip_2d(points) -> tuple[float, Line]:
    """Minimum-width enclosing strip of planar points.

    Returns (width, midline). The midline minimizes the maximum distance,
    which equals width / 2. Exact: the optimal strip is flush with a hull
    edge, so it suffices to scan hull edges. The edges are scanned in blocks
    of at most _STRIP_BLOCK_ENTRIES edge-vertex offsets; on a tie the earliest
    edge wins.
    """
    X = _as_points(points)
    if X.shape[1] != 2:
        raise DimensionMismatch("min_width_strip_2d needs planar points")
    hull = convex_hull_2d(X)
    if len(hull) <= 1:
        return 0.0, Line(X[0], np.array([1.0, 0.0]))
    if len(hull) == 2:
        d = hull[1] - hull[0]
        if np.linalg.norm(d) < 1e-300:
            return 0.0, Line(X[0], np.array([1.0, 0.0]))
        return 0.0, Line(hull[0], unit(d))
    # stacked matmul makes one BLAS dot per edge norm and one matrix-vector
    # product per edge offset, each rounding as the one-edge calls do
    edges = np.roll(hull, -1, axis=0) - hull
    norms = np.sqrt(np.matmul(edges[:, None, :], edges[:, :, None])[:, 0, 0])
    keep = np.flatnonzero(norms >= 1e-300)
    if not len(keep):
        raise DegenerateRegion("every hull edge has zero length")
    dirs = edges[keep] / norms[keep, None]
    nrms = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    best = None
    block = max(1, _STRIP_BLOCK_ENTRIES // len(hull))
    for b0 in range(0, len(keep), block):
        a = hull[keep[b0:b0 + block]]
        s = np.matmul(hull[None, :, :] - a[:, None, :], nrms[b0:b0 + block, :, None])[:, :, 0]
        lo, hi = s.min(axis=1), s.max(axis=1)
        width = hi - lo
        j = int(np.argmin(width))
        if best is None or width[j] < best[0]:
            best = (float(width[j]), b0 + j, float(lo[j]), float(hi[j]))
    width, i, lo, hi = best
    mid = hull[keep[i]] + nrms[i] * (lo + hi) / 2.0
    return width, Line(mid, dirs[i])


# ---------------------------------------------------------------------------
# enclosing balls (Badoiu-Clarkson), used by the sup fit for n >= 3


def enclosing_balls(Z, start, first_step, iters) -> tuple[np.ndarray, np.ndarray]:
    """Enclosing balls of a (D, m, n) stack of point sets, all sets at once.

    Runs the Badoiu-Clarkson iteration (Optimal core-sets for balls, CGTA
    2008) on each set from its row of the (D, n) start: step i moves the
    centre toward the point farthest from it, c_{i+1} = c_i + (p_i - c_i) / (i + 1),
    for i = first_step, ..., first_step + iters - 1. Returns (centres, radii):
    of the centres visited, each set's with the least maximum distance to its
    points, and that distance. So every radius is the exact maximum distance
    from its centre, at least the minimum radius r*. Started at a point in
    the convex hull (the centroid) with first_step = 1, the centre c_i lies
    within r* / sqrt(i) of the optimal one, so each radius is at most
    (1 + 1 / sqrt(iters)) r*.
    """
    c = np.array(start, dtype=float)
    best = c.copy()
    best_r2 = np.full(len(Z), np.inf)
    rows = np.arange(len(Z))
    for i in range(first_step, first_step + iters):
        W = Z - c[:, None, :]
        d2 = np.einsum("dmn,dmn->dm", W, W)
        j = d2.argmax(axis=1)
        r2 = d2[rows, j]
        closer = r2 < best_r2
        np.copyto(best_r2, r2, where=closer)
        np.copyto(best, c, where=closer[:, None])
        c += (Z[rows, j] - c) / (i + 1)
    return best, np.sqrt(best_r2)


# ---------------------------------------------------------------------------
# line fitting


def fit_line(points, weights=None, p=2) -> tuple[Line, float]:
    """Fit a line minimizing the weighted L^2 mean distance or the maximum distance.

    Parameters
    ----------
    points : (m, n) array
    weights : (m,) positive array, optional (ignored by p="sup")
    p : 2 or "sup"

    Returns
    -------
    (line, objective) where objective is (sum w d^2 / sum w)^(1/2) for
    p=2 and max d for "sup".

    p=2 is exact. Ties between equal principal directions break toward the
    lexicographically largest canonical eigenvector. p="sup" is exact for
    n <= 2; for n >= 3 the direction is heuristic, and the objective is
    float(line.distances(points).max()) of the returned line, exactly.

    The fit runs on the points scaled by 2^-e, e the binary exponent of their
    largest coordinate, and scales the base and the objective back. Scaling
    by a power of two is exact, so in the normal range the fit keeps its
    bits, and a set whose coordinates are all tiny (below about 1e-296)
    fits as a unit-scale one does: the scatter matrix does not underflow.
    A spread that small around a larger coordinate still underflows.
    """
    X = _as_points(points)
    w = _as_weights(weights, len(X))
    if p not in (2, "sup"):
        raise ValueError(f"p must be 2 or 'sup', got {p!r}")
    _, e = math.frexp(float(np.abs(X).max()))
    X = np.ldexp(X, -e)
    if p == 2:
        line = Line(*_principal(X, w)[:2])
        d = line.distances(X)
        value = float((np.sum(w * d**2) / float(w.sum())) ** 0.5)
    else:
        line, value = _fit_sup(X)
    line.base = np.ldexp(line.base, e)
    return line, math.ldexp(value, e)


def _principal(X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted centroid, principal direction and eigenvectors of the weighted scatter."""
    W = float(w.sum())
    z = (w @ X) / W
    Y = X - z
    M = (Y * w[:, None]).T @ Y / W
    vals, vecs = np.linalg.eigh(M)
    top = vals[-1]
    if top <= 0.0:
        # all atoms coincide: any line through them fits exactly
        d = np.zeros(X.shape[1])
        d[0] = 1.0
        return z, d, vecs
    cands = [
        canonical_direction(vecs[:, j])
        for j in range(len(vals))
        if top - vals[j] <= _EIG_TIE_REL * top
    ]
    return z, unit(max(cands, key=lambda v: tuple(v))), vecs


def _seed_directions(X) -> list[np.ndarray]:
    """The sup fit's 9 seed directions of the points X, n >= 2.

    The principal direction d1, then d1 tilted toward the second principal
    direction by +-k pi / 20 for k = 1..4.
    """
    _, d1, vecs = _principal(X, np.ones(len(X)))
    d2 = vecs[:, -2]
    d2 = d2 - (d2 @ d1) * d1
    if np.linalg.norm(d2) < 1e-12:
        d2 = np.zeros(X.shape[1])
        d2[int(np.argmin(np.abs(d1)))] = 1.0
        d2 = d2 - (d2 @ d1) * d1
    d2 = unit(d2)
    angles = [a * np.pi / 20.0 for a in (1, -1, 2, -2, 3, -3, 4, -4)]
    return [d1] + [np.cos(a) * d1 + np.sin(a) * d2 for a in angles]


def _pair_lines(X) -> tuple[np.ndarray, np.ndarray]:
    """(bases, unit directions) of the lines through each pair of distinct points of X.

    Both are empty unless X has 2 to 24 distinct points.
    """
    U = sorted_unique(X)
    if not 2 <= len(U) <= 24:
        return np.empty((0, X.shape[1])), np.empty((0, X.shape[1]))
    i, j = np.triu_indices(len(U), 1)
    D = U[j] - U[i]
    # a dot product per row, as unit() takes it, so each direction keeps unit()'s bits
    norms = np.sqrt(np.matmul(D[:, None, :], D[:, :, None]).reshape(-1))
    keep = norms > 1e-300
    return U[i[keep]], D[keep] / norms[keep, None]


# enclosing-ball steps that score every candidate direction, centre the
# _POLISHED best, score each compass poll and finish the winning poll's ball
_SCORE_STEPS = 32
_CENTRE_STEPS = 128
_POLL_STEPS = 32
_FINAL_STEPS = 256
_POLISHED = 3


def _fit_sup(X):
    n = X.shape[1]
    if n == 1:
        return Line(X[0], np.array([1.0])), 0.0
    if n == 2:
        width, line = min_width_strip_2d(X)
        return line, width / 2.0
    z = X.mean(axis=0)
    Y = X - z
    dirs = np.vstack([_seed_directions(X), _pair_lines(X)[1]])
    # the scoring and centring runs start at the centroid, the origin of Y
    _, radii = _projected_balls(Y, dirs, np.zeros(n), 1, _SCORE_STEPS)
    top = np.argsort(radii, kind="stable")[:_POLISHED]
    centres, _ = _projected_balls(Y, dirs[top], np.zeros(n), 1, _CENTRE_STEPS)
    u, c = dirs[top[0]], centres[0]
    if radii[top[0]] > 0.0:  # else a line through the centroid meets every point
        found = np.inf
        for d, c0 in zip(dirs[top], centres):
            val, v = _polish_direction(Y, d, c0)
            if val < found:
                found, u, c = val, v, c0
    c, _ = _projected_balls(Y, u[None, :], c, _CENTRE_STEPS + 1, _FINAL_STEPS)
    line = Line(z + c[0], u)
    return line, float(line.distances(X).max())


def _projected_balls(Y, dirs, start, first_step, iters):
    """enclosing_balls of the points Y and the start centre, projected onto each unit direction's complement."""
    Z = Y[None, :, :] - (dirs @ Y.T)[:, :, None] * dirs[:, None, :]
    return enclosing_balls(Z, start[None, :] - (dirs @ start)[:, None] * dirs, first_step, iters)


def _polish_direction(Y, d, c):
    """Compass search over the directions d + s B, B an orthonormal basis of d's complement.

    Each poll's ball goes on from c, the centre for d. Returns (the least radius, its unit direction).
    """
    B = np.linalg.svd(d[None, :])[2][1:]

    def f(S):
        V = d + S @ B
        V /= np.linalg.norm(V, axis=1)[:, None]
        return _projected_balls(Y, V, c, _CENTRE_STEPS + 1, _POLL_STEPS)[1]

    val, s = pattern_search(f, np.zeros(len(B)), np.full(len(B), 0.1), tol=1e-3)
    return val, unit(d + s @ B)


def pattern_search(f, x0, steps, max_iter=200, tol=1e-13):
    """Compass search for a minimum of f from x0; returns (f(x), x).

    f maps an (m, d) array of points to their m values, and each row's value
    must not depend on the other rows. A step polls x + steps[i], then
    x - steps[i], for each coordinate i in turn, each from the current point,
    and moves to a poll as soon as it improves on the current value; when a
    whole step makes no move, the steps halve, until all are below tol or
    max_iter steps have run. The polls still to try from the current point
    are scored in one call to f; after a move, the polls left are scored
    again from the new point. So the search takes the path of one that
    scores a single poll per call.
    """
    x = np.array(x0, dtype=float)
    s = np.array(steps, dtype=float)
    d = len(x)
    axis = np.repeat(np.arange(d), 2)
    sign = np.tile([1.0, -1.0], d)
    fx = f(x[None, :])[0]
    for _ in range(max_iter):
        improved = False
        delta = sign * s[axis]
        done = 0
        while done < 2 * d:
            Y = np.repeat(x[None, :], 2 * d - done, axis=0)
            Y[np.arange(2 * d - done), axis[done:]] += delta[done:]
            fy = f(Y)
            j = int(np.argmax(fy < fx))  # the first improving poll, if any
            if not fy[j] < fx:
                break
            x, fx = Y[j], fy[j]
            improved = True
            done += j + 1
        if not improved:
            s *= 0.5
            if np.all(s < tol):
                break
    return float(fx), x
