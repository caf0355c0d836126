"""Lines, line fitting, and point-set comparison primitives.

Lines are stored as (base point, unit direction). Fitting minimizes the
weighted L^p mean distance for p in {1, 2} or the maximum distance for
p = "sup":

* p=2 is exact: weighted centroid + principal direction of the weighted
  second-moment matrix.
* p=1 runs iteratively reweighted least squares from the p=2 seed plus
  deterministic perturbed restarts (heuristic; certified against a grid
  oracle in tests).
* sup is exact in the plane (the minimum-width strip, from one scan of the
  convex hull's edges); in higher dimensions it searches directions with the
  projected minimum-enclosing-ball radius as objective (heuristic).

Also provides the diameter of a point set, the distance between closed
segments (point-to-segment included) and a batched compass search,
pattern_search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegion, DimensionMismatch, EmptyInput, InvalidWeight

_EIG_TIE_REL = 1e-12
_SEED = 0x5EED


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

    @property
    def dim(self) -> int:
        return self.base.shape[0]

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
# minimum enclosing ball (Welzl), used by the sup fit for n >= 3


def min_enclosing_ball(points) -> tuple[np.ndarray, float]:
    X = _as_points(points)
    rng = np.random.default_rng(_SEED)
    idx = rng.permutation(len(X))
    pts = [X[i] for i in idx]
    c, r2 = _welzl(pts, [])
    return c, float(np.sqrt(max(r2, 0.0)))


def _welzl(points, boundary):
    # recursion depth bounded by len(boundary) <= n + 1
    c, r2 = _circumball(boundary)
    for i, p in enumerate(points):
        if c is None or float(np.dot(p - c, p - c)) > r2 * (1 + 1e-12) + 1e-24:
            c, r2 = _welzl(points[:i], boundary + [p])
    if c is None:
        return np.zeros(1), 0.0
    return c, r2


def _circumball(boundary):
    if not boundary:
        return None, 0.0
    p0 = boundary[0]
    if len(boundary) == 1:
        return p0.astype(float), 0.0
    # solve in the affine hull of the boundary so the center is equidistant
    # from all boundary points, not the minimum-norm algebraic solution
    V = np.array([p - p0 for p in boundary[1:]], dtype=float)
    G = 2.0 * (V @ V.T)
    d = np.einsum("ij,ij->i", V, V)
    try:
        y = np.linalg.solve(G, d)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(G, d, rcond=None)
    c = p0 + y @ V
    r2 = float(np.dot(c - p0, c - p0))
    return c, r2


# ---------------------------------------------------------------------------
# line fitting


def fit_line(points, weights=None, p=2) -> tuple[Line, float]:
    """Fit a line minimizing the weighted L^p mean distance.

    Parameters
    ----------
    points : (m, n) array
    weights : (m,) positive array, optional (ignored by p="sup")
    p : 1, 2, or "sup"

    Returns
    -------
    (line, objective) where objective is (sum w d^p / sum w)^(1/p) for
    numeric p and max d for "sup".

    p=2 is exact. Ties between equal principal directions break toward the
    lexicographically largest canonical eigenvector.
    """
    X = _as_points(points)
    w = _as_weights(weights, len(X))
    if p == 2:
        line = _pca_line(X, w)
        return line, _objective(X, w, line, 2)
    if p == 1:
        return _fit_l1(X, w)
    if p == "sup":
        return _fit_sup(X)
    raise ValueError(f"p must be 1, 2, or 'sup', got {p!r}")


def _pca_line(X: np.ndarray, w: np.ndarray) -> Line:
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
        return Line(z, d)
    cands = [
        canonical_direction(vecs[:, j])
        for j in range(len(vals))
        if top - vals[j] <= _EIG_TIE_REL * top
    ]
    d = max(cands, key=lambda v: tuple(v))
    return Line(z, unit(d))


def _objective(X, w, line: Line, p) -> float:
    d = line.distances(X)
    if p == "sup":
        return float(d.max()) if len(d) else 0.0
    W = float(w.sum())
    return float((np.sum(w * d**p) / W) ** (1.0 / p))


def _perturbed_seeds(X, w):
    base = _pca_line(X, w)
    n = X.shape[1]
    seeds = [base]
    if n < 2:
        return seeds
    W = float(w.sum())
    z = (w @ X) / W
    Y = X - z
    M = (Y * w[:, None]).T @ Y / W
    _, vecs = np.linalg.eigh(M)
    d1 = base.direction
    d2 = vecs[:, -2]
    d2 = d2 - (d2 @ d1) * d1
    if np.linalg.norm(d2) < 1e-12:
        d2 = np.zeros(n)
        d2[int(np.argmin(np.abs(d1)))] = 1.0
        d2 = d2 - (d2 @ d1) * d1
    d2 = unit(d2)
    angles = [a * np.pi / 20.0 for a in (1, -1, 2, -2, 3, -3, 4, -4)]
    for a in angles:
        seeds.append(Line(z, np.cos(a) * d1 + np.sin(a) * d2))
    return seeds


def _fit_l1(X, w):
    best: tuple[Line, float] | None = None
    scale = float(np.max(np.abs(X - X.mean(axis=0)))) + 1e-300
    floor = 1e-12 * scale
    for seed in _perturbed_seeds(X, w):
        line = seed
        prev = np.inf
        for _ in range(60):
            d = line.distances(X)
            obj = _objective(X, w, line, 1)
            if prev - obj < 1e-15 * scale:
                break
            prev = obj
            line = _pca_line(X, w / np.maximum(d, floor))
        obj = _objective(X, w, line, 1)
        if best is None or obj < best[1]:
            best = (line, obj)
    if best is None:
        raise EmptyInput("no seed line for the L1 fit")
    # a planar L1 optimum passes through two data points; on small inputs
    # sweeping the pairs beats any local descent
    U = sorted_unique(X)
    if 2 <= len(U) <= 24:
        for i in range(len(U)):
            for j in range(i + 1, len(U)):
                diff = U[j] - U[i]
                if float(np.linalg.norm(diff)) <= 1e-300:
                    continue
                line = Line(U[i], unit(diff))
                obj = _objective(X, w, line, 1)
                if obj < best[1]:
                    best = (line, obj)
    return best


def _fit_sup(X):
    n = X.shape[1]
    if n == 1:
        return Line(X[0], np.array([1.0])), 0.0
    if n == 2:
        width, line = min_width_strip_2d(X)
        return line, width / 2.0
    # scipy is imported only here, by the n >= 3 sup fits that need it
    from scipy.optimize import minimize

    z = X.mean(axis=0)
    Y = X - z

    def basis_for(d):
        _, _, vt = np.linalg.svd(d.reshape(1, -1))
        return vt[1:]

    def radius(raw):
        nrm = float(np.linalg.norm(raw))
        if nrm < 1e-9:
            return 1e18
        d = raw / nrm
        B = basis_for(d)
        coords = Y @ B.T
        _, r = min_enclosing_ball(coords)
        return r

    w = np.ones(len(X))
    best_raw, best_val = None, np.inf
    for seed in _perturbed_seeds(X, w):
        res = minimize(
            radius,
            seed.direction,
            method="Nelder-Mead",
            options={"maxiter": 200 * n, "xatol": 1e-10, "fatol": 1e-12},
        )
        val = float(res.fun)
        if val < best_val:
            best_val, best_raw = val, res.x
    d = unit(best_raw)
    B = basis_for(d)
    coords = Y @ B.T
    c, r = min_enclosing_ball(coords)
    return Line(z + B.T @ c, d), float(r)


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
