"""Lines, line fitting, and point-set comparison primitives.

Lines are stored as (base point, unit direction). Fitting minimizes the
weighted L^p mean distance for p in {1, 2} or the maximum distance for
p = "sup":

* p=2 is exact: weighted centroid + principal direction of the weighted
  second-moment matrix.
* p=1 runs iteratively reweighted least squares from the p=2 seed plus
  deterministic perturbed restarts (heuristic; certified against a grid
  oracle in tests).
* sup is exact in the plane (convex hull + rotating calipers, minimum-width
  strip); in higher dimensions it searches directions with the projected
  minimum-enclosing-ball radius as objective (heuristic).

Also provides the distance between closed segments (point-to-segment
included), and order_along_lines, which reconciles the projection orders of a
well-separated point set onto two nearby lines and certifies the standard
(1 + 3 alpha^2) segment and (1 + 12 alpha^2) angle factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRegion, DimensionMismatch, EmptyInput, InvalidWeight, OrderingError

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

    def point_at(self, t: float) -> np.ndarray:
        return self.base + t * self.direction

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
    pts = np.unique(X, axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) == 0:  # all collinear; monotone chain degenerates
        hull = np.array([pts[0], pts[-1]])
    return hull


def min_width_strip_2d(points) -> tuple[float, Line]:
    """Minimum-width enclosing strip of planar points.

    Returns (width, midline). The midline minimizes the maximum distance,
    which equals width / 2. Exact: the optimal strip is flush with a hull
    edge, so it suffices to scan hull edges.
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
    best = None
    m = len(hull)
    for i in range(m):
        a, b = hull[i], hull[(i + 1) % m]
        edge = b - a
        if np.linalg.norm(edge) < 1e-300:
            continue
        d = unit(edge)
        nrm = np.array([-d[1], d[0]])
        s = (hull - a) @ nrm
        lo, hi = float(s.min()), float(s.max())
        width = hi - lo
        if best is None or width < best[0]:
            mid = a + nrm * (lo + hi) / 2.0
            best = (width, Line(mid, d))
    if best is None:
        raise DegenerateRegion("every hull edge has zero length")
    return best


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


def _perturbed_seeds(X, w, count=8):
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
    angles = [a * np.pi / 20.0 for a in (1, -1, 2, -2, 3, -3, 4, -4)][:count]
    for a in angles:
        seeds.append(Line(z, np.cos(a) * d1 + np.sin(a) * d2))
    return seeds


def _fit_l1(X, w, iters=60):
    best: tuple[Line, float] | None = None
    scale = float(np.max(np.abs(X - X.mean(axis=0)))) + 1e-300
    floor = 1e-12 * scale
    for seed in _perturbed_seeds(X, w):
        line = seed
        prev = np.inf
        for _ in range(iters):
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
    U = np.unique(X, axis=0)
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
    x = np.array(x0, dtype=float)
    s = np.array(steps, dtype=float)
    fx = f(x)
    for _ in range(max_iter):
        improved = False
        for i in range(len(x)):
            for sign in (1.0, -1.0):
                y = x.copy()
                y[i] += sign * s[i]
                fy = f(y)
                if fy < fx:
                    x, fx = y, fy
                    improved = True
        if not improved:
            s *= 0.5
            if np.all(s < tol):
                break
    return fx, x


# ---------------------------------------------------------------------------
# ordering along nearby lines


@dataclass
class OrderingWitness:
    """Certificate that two nearby lines order a separated set identically."""

    order: list[int]
    params1: np.ndarray
    params2: np.ndarray
    orientation2: int
    alpha: float
    max_segment_factor: float
    cos_angle: float
    segment_bound: float = field(default=0.0)
    angle_bound: float = field(default=0.0)


def order_along_lines(V, line1: Line, line2: Line, alpha: float) -> OrderingWitness:
    """Order a 1-separated point set along two alpha-close lines.

    Requires |V| >= 2, pairwise separation >= 1, alpha <= 1/16, and every
    point within alpha of both lines. Returns the common order (as indices
    into V sorted along line1) together with the verified segment factor
    (consecutive chords vs line-1 projection gaps, bound 1 + 3 alpha^2) and
    the direction agreement (|cos angle| >= 1 / (1 + 12 alpha^2)).
    """
    X = _as_points(V)
    m = len(X)
    if m < 2:
        raise EmptyInput("need at least two points to order")
    if alpha > 1.0 / 16.0 + 1e-15:
        raise OrderingError(f"alpha={alpha} exceeds 1/16")
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
    if d2[i, j] < (1.0 - 1e-9) ** 2:
        raise OrderingError(
            f"separation hypothesis fails: |v{i} - v{j}| = {np.sqrt(d2[i, j]):.6g} < 1"
        )
    for which, line in (("line1", line1), ("line2", line2)):
        dist = line.distances(X)
        k = int(np.argmax(dist))
        if dist[k] > alpha + 1e-9:
            raise OrderingError(
                f"distance hypothesis fails on {which}: dist(v{k}) = {dist[k]:.6g} > alpha = {alpha:.6g}"
            )

    t1 = line1.params(X)
    order = list(np.argsort(t1, kind="stable"))
    t2 = line2.params(X)
    seq2 = t2[order]
    if np.all(np.diff(seq2) > 0):
        orient = 1
    elif np.all(np.diff(seq2) < 0):
        orient = -1
    else:
        raise OrderingError("projection orders along the two lines disagree")

    seg_bound = 1.0 + 3.0 * alpha * alpha
    worst = 0.0
    for a, b in zip(order[:-1], order[1:]):
        chord = float(np.linalg.norm(X[b] - X[a]))
        gap = abs(float(t1[b] - t1[a]))
        ratio = chord / gap if gap > 0 else np.inf
        worst = max(worst, ratio)
        if ratio > seg_bound * (1 + 1e-12) + 1e-15:
            raise OrderingError(
                f"segment factor {ratio:.12g} exceeds bound {seg_bound:.12g} for pair ({a}, {b})"
            )
    cosang = abs(float(line1.direction @ line2.direction))
    ang_bound = 1.0 / (1.0 + 12.0 * alpha * alpha)
    if cosang < ang_bound * (1 - 1e-12) - 1e-15:
        raise OrderingError(f"direction agreement {cosang:.12g} below bound {ang_bound:.12g}")
    return OrderingWitness(
        order=[int(k) for k in order],
        params1=t1[order],
        params2=seq2 * orient,
        orientation2=orient,
        alpha=float(alpha),
        max_segment_factor=worst,
        cos_angle=cosang,
        segment_bound=seg_bound,
        angle_bound=ang_bound,
    )
