"""Test-side references: a grid oracle for best-fit lines, and the
breakpoint-envelope minimum of a beta family's offset profile.

`brute_force_line_oracle` shares no path with `mrt.geometry.fit_line`:
candidate lines come from an exhaustive (angle x offset) grid, polished by
`pattern_search` on the direct objective. Used by the line-fit and beta
agreement tests.

`offset_envelope_min` shares no path with `_Family.offset_profile`: it scores
one angle from the family's atom slots and takes the least envelope value over
every vertex and pairwise breakpoint of the entries' capped parabolas.
`moment_grid_cell` is the angle x offset grid from the entry moments that
the profile replaced; `slot_grid_cell`, the same grid scored one angle at a
time from the atom slots, must pick its cell.

`nearby_cubes` and `nearby_count` share no path: the first filters a box
of candidate indices through the family's defining inequalities, the second
counts the admitted indices per axis in closed form. `in_nearby_family` tests
one cube against those inequalities; the vectorized filter in
`beta._nearby_members` must admit exactly the cubes it admits.

`mass_triples` shares no path with `DiscreteMeasure.triple_table`: it
enumerates the 4^n candidate cubes around every occupied cell and scans every
atom against each candidate's triple with `box_contains`, the closed-box test
of one box at a time. `cube_contains` is the half-open cube test, by floor.

`sum_function` is the localization sum of `rectify.localize` at one point:
one `cube_at` per tree scale, instead of one pass over the tree's cubes.

`chain_masses` is one atom's row of `DiscreteMeasure.density_profile`: one
`cube_at` and one `atoms_in` triple query per scale, instead of one pass per
scale over the cells. `ball_masses` is the closed-ball scan that the chain
pass replaced, mu(B(x, r)) from the distance of x to every atom; the chain
triples sit between two of its balls.

`sequential_pattern_search`, `moment_score` and `min_width_strip_loop` keep
the one-point arithmetic that `pattern_search`, `_Family.moment_scores` and
`min_width_strip_2d` batch: a compass search that scores one poll per
objective call, the moment objective of one line, and the per-edge strip scan
over a hull built on numpy scalars. The batched code must match them bit for
bit. `rows` adapts a one-point objective to the batched `pattern_search`.

`slot_score_many` is the one-pass slot scorer that `_Family.score_many`
replaced with per-entry moments; the two must agree to
rounding. `slot_score` is the exact objective of one line, one slot pass with
no batch axis; `_Family.slot_scores` must match it bit for bit, row by row.

`chain_jones` is the Jones chain sum at one point, one cube at a time:
`cube_at` per scale, a beta and a mass per chain cube, no memo of its own.
Its default truncation is `default_kmax`, which counts the atoms of each
chain cube with `cube_contains` until one holds at most one. `jones_at` sums
every atom's chain in one pass over the scales, truncating in that pass, and
must match both bit for bit.

`chain_cells` and `chain_of_cubes` give one point's cells and cubes at many
scales, one `cell_index` call per scale.

`min_enclosing_circle` shares no path with `enclosing_balls`: it is exact,
the best of the circles through two or three of the points.
"""

from __future__ import annotations

import itertools

import numpy as np

from mrt.beta import BetaCache, beta_best, beta_multi
from mrt.dyadic import DyadicCube, cell_index, cube_at, parent_scale_bound, same_scale_radius
from mrt.errors import DegenerateRegion, DimensionMismatch
from mrt.geometry import Line, _as_points, _as_weights, pattern_search, sorted_unique, unit


def rows(f):
    """The batched form of a one-point objective: f applied to each row."""
    return lambda X: np.array([f(x) for x in X], dtype=float)


def brute_force_line_oracle(
    points,
    weights=None,
    p=2,
    n_angles: int = 3600,
    n_offsets: int = 200,
    refine: bool = True,
) -> tuple[float, Line]:
    """Exhaustive (angle x offset) grid search for the best-fit line, n=2 or 3.

    p is 2 (the weighted L^2 mean distance) or "sup" (the maximum distance).

    In the plane, candidate lines run over n_angles directions in [0, pi) and,
    per direction, n_offsets evenly spaced signed offsets spanning the data.
    In n=3 a Fibonacci direction sphere replaces the angle sweep and the
    offset grid is planar (n_offsets per axis). With refine=True a
    deterministic pattern search polishes the best grid cell, removing the
    grid discretization bias; the objective evaluated is always the direct
    formula on the data.
    """
    X = _as_points(points)
    w = _as_weights(weights, len(X))
    n = X.shape[1]
    if n == 2:
        return _oracle_2d(X, w, p, n_angles, n_offsets, refine)
    if n == 3:
        return _oracle_3d(X, w, p, n_angles, n_offsets, refine)
    raise DimensionMismatch("oracle supports n=2 or n=3 only")


def _agg(devs, w, p):
    if p == "sup":
        return float(np.max(devs, axis=-1)) if devs.ndim == 1 else np.max(devs, axis=-1)
    return np.sqrt(np.sum(w * devs**2, axis=-1) / float(w.sum()))


def _oracle_2d(X, w, p, n_angles, n_offsets, refine):
    thetas = np.arange(n_angles) * np.pi / n_angles
    W = float(w.sum())

    def inner_t(s):
        # closed-form offset minimizer at a fixed angle, where one exists
        if p == 2:
            return float(np.sum(w * s) / W)
        if p == 1:
            order = np.argsort(s)
            cw = np.cumsum(w[order])
            k = int(np.searchsorted(cw, 0.5 * W))
            return float(s[order[min(k, len(s) - 1)]])
        if p == "sup":
            return 0.5 * (float(s.min()) + float(s.max()))
        return None

    def value(theta, t):
        nrm = np.array([-np.sin(theta), np.cos(theta)])
        devs = np.abs(X @ nrm - t)
        return float(_agg(devs, w, p))

    exact_inner = p in (1, 2, "sup")
    best = (np.inf, 0.0, 0.0)
    for theta in thetas:
        nrm = np.array([-np.sin(theta), np.cos(theta)])
        s = X @ nrm
        if exact_inner:
            t0 = inner_t(s)
            v = float(_agg(np.abs(s - t0), w, p))
            if v < best[0]:
                best = (v, float(theta), t0)
            continue
        lo, hi = float(s.min()), float(s.max())
        if hi - lo < 1e-300:
            ts = np.array([lo])
        else:
            ts = np.linspace(lo, hi, n_offsets)
        devs = np.abs(s[None, :] - ts[:, None])
        vals = _agg(devs, w, p)
        j = int(np.argmin(vals))
        if vals[j] < best[0]:
            best = (float(vals[j]), float(theta), float(ts[j]))
    val, theta, t = best
    if refine and exact_inner:
        # solving the offset exactly leaves a one-dimensional angle problem,
        # which pattern search polishes to machine precision; the coupled
        # (angle, offset) walk stalls in the curved valley instead
        def profile(q):
            s = X @ np.array([-np.sin(q[0]), np.cos(q[0])])
            return float(_agg(np.abs(s - inner_t(s)), w, p))

        val, q = pattern_search(rows(profile), np.array([theta]), np.array([np.pi / n_angles]))
        theta = float(q[0])
        t = inner_t(X @ np.array([-np.sin(theta), np.cos(theta)]))
    elif refine:
        span = float(np.ptp(X @ np.array([-np.sin(theta), np.cos(theta)]))) + 1e-12
        val, (theta, t) = pattern_search(
            rows(lambda q: value(q[0], q[1])),
            np.array([theta, t]),
            np.array([np.pi / n_angles, span / max(n_offsets, 1)]),
        )
    d = np.array([np.cos(theta), np.sin(theta)])
    nrm = np.array([-np.sin(theta), np.cos(theta)])
    return val, Line(nrm * t, d)


def _fibonacci_directions(count):
    i = np.arange(count)
    phi = (1 + np.sqrt(5.0)) / 2
    zc = 1 - (2 * i + 1) / count  # only upper hemisphere matters for lines
    zc = np.abs(zc)
    theta = 2 * np.pi * i / phi
    r = np.sqrt(np.maximum(0.0, 1 - zc**2))
    return np.stack([r * np.cos(theta), r * np.sin(theta), zc], axis=1)


def _oracle_3d(X, w, p, n_dirs, n_offsets, refine):
    def value_for(d, c2):
        d = unit(d)
        _, _, vt = np.linalg.svd(d.reshape(1, -1))
        B = vt[1:]
        coords = X @ B.T
        devs = np.linalg.norm(coords - c2, axis=1)
        return float(_agg(devs, w, p))

    best = (np.inf, None, None)
    for d in _fibonacci_directions(n_dirs):
        _, _, vt = np.linalg.svd(d.reshape(1, -1))
        B = vt[1:]
        coords = X @ B.T
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        g = [np.linspace(lo[a], hi[a], n_offsets) if hi[a] - lo[a] > 0 else np.array([lo[a]]) for a in range(2)]
        GA, GB = np.meshgrid(g[0], g[1], indexing="ij")
        centers = np.stack([GA.ravel(), GB.ravel()], axis=1)
        devs = np.linalg.norm(coords[None, :, :] - centers[:, None, :], axis=2)
        vals = _agg(devs, w, p)
        j = int(np.argmin(vals))
        if vals[j] < best[0]:
            best = (float(vals[j]), d.copy(), centers[j].copy())
    val, d, c2 = best
    if refine:
        x0 = np.concatenate([d, c2])
        steps = np.concatenate([np.full(3, 1.0 / np.sqrt(n_dirs)), np.full(2, 1e-2)])
        val, x = pattern_search(rows(lambda q: value_for(q[:3], q[3:])), x0, steps)
        d, c2 = unit(x[:3]), x[3:]
    _, _, vt = np.linalg.svd(np.asarray(d).reshape(1, -1))
    B = vt[1:]
    return val, Line(B.T @ c2, unit(d))


def _quad_roots(a, b, c):
    """Real roots of a t^2 + b t + c = 0, vectorized.

    Uses the q-form (q = -(b + sign(b) sqrt(disc)) / 2, roots q/a and c/q) so
    roots stay accurate when a is tiny: the naive (-b +- sqrt(disc)) / 2a form
    cancels catastrophically for near-linear quadratics, which arise here
    whenever two entries have almost equal leading moments.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    disc = b * b - 4.0 * a * c
    ok = disc >= 0
    if not ok.any():
        return np.empty(0)
    a, b, c, disc = a[ok], b[ok], c[ok], disc[ok]
    sgn = np.where(b >= 0.0, 1.0, -1.0)
    q = -0.5 * (b + sgn * np.sqrt(disc))
    out = []
    m = np.abs(a) > 1e-300
    if m.any():
        out.append(q[m] / a[m])
    m = np.abs(q) > 1e-300
    if m.any():
        out.append(c[m] / q[m])
    if not out:
        return np.empty(0)
    return np.concatenate(out)


def offset_envelope(fam, th, ts):
    """The planar p = 2 coupled objective of `fam` at angle th and offsets ts.

    Lines are {cen + t nu + r (cos th, sin th)}, nu = (-sin th, cos th), as in
    `_Family.offset_profile`; the entry moments come from the atom slots, in
    family-centred coordinates so that a family far from the origin keeps
    its digits.
    """
    factor = fam.entry_factor if fam.entry_factor is not None else np.ones(len(fam.entries))
    q_w = fam.W * fam.slot_inv_diam**2
    nrm = np.array([-np.sin(th), np.cos(th)])
    s = fam.Pc @ nrm
    M0 = np.add.reduceat(q_w, fam.starts) * fam.inv_mass
    M1 = np.add.reduceat(q_w * s, fam.starts) * fam.inv_mass
    M2 = np.add.reduceat(q_w * s * s, fam.starts) * fam.inv_mass
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    b2 = np.minimum(
        np.maximum(M2[:, None] - 2.0 * M1[:, None] * ts[None, :] + M0[:, None] * ts[None, :] ** 2, 0.0),
        1.0,
    )
    return (factor[:, None] * b2).max(axis=0)


def moment_grid_cell(fam, thetas, ts) -> tuple[int, int]:
    """The (angle, offset) cell of least planar objective, first in row-major order.

    Cell (i, j) is the line {cen + ts[j] nu + r (cos th_i, sin th_i)}, where
    entry e scores f_e min(M0 (t - c)^2 + v, 1) (star_star: the square root)
    in the vertex form of `_Family._planar`, every cell in one array. This
    is the grid that `slot_grid_cell` scores from the atom slots.
    """
    M0, c, v = fam._planar(thetas)
    f = fam.entry_factor
    d = np.asarray(ts, dtype=float) - c[:, :, None]
    b2 = np.minimum(M0[:, None, None] * d * d + v[:, :, None], 1.0)
    worst = (b2 * f[:, None, None] if f is not None else np.sqrt(b2)).max(axis=0)
    i, j = np.unravel_index(int(np.argmin(worst)), worst.shape)
    return int(i), int(j)


def slot_grid_cell(fam, thetas, ts) -> tuple[int, int]:
    """The (angle, offset) cell of least planar objective, from the atom slots.

    Cell (i, j) is the line {cen + ts[j] nu + r (cos th_i, sin th_i)},
    nu = (-sin th_i, cos th_i), scored one angle at a time from every slot's
    offset against every ts; a later angle wins only when strictly lower.
    """
    ts = np.asarray(ts, dtype=float)
    best, cell = np.inf, (0, 0)
    for i, th in enumerate(thetas):
        nrm = np.array([-np.sin(th), np.cos(th)])
        s = fam.P @ nrm - fam.cen @ nrm
        devs = np.abs(s[:, None] - ts[None, :])
        contrib = fam.W[:, None] * (devs * fam.slot_inv_diam[:, None]) ** 2
        sums = np.add.reduceat(contrib, fam.starts, axis=0)
        b = np.minimum(np.sqrt(sums * fam.inv_mass[:, None]), 1.0)
        vals = b * b * fam.entry_factor[:, None] if fam.entry_factor is not None else b
        worst = vals.max(axis=0)
        j = int(np.argmin(worst))
        if worst[j] < best:
            best, cell = worst[j], (i, j)
    return cell


def offset_envelope_min(fam, th) -> tuple[float, float]:
    """Least offset_envelope(fam, th, t) over t, with its minimizer.

    Along the offset t each entry scores a capped parabola, so the envelope
    minimum lies at a vertex, at a crossing of two parabolas, or where a
    parabola meets a plateau level (its own cap included); every such point
    is scored.
    """
    factor = fam.entry_factor if fam.entry_factor is not None else np.ones(len(fam.entries))
    q_w = fam.W * fam.slot_inv_diam**2
    nrm = np.array([-np.sin(th), np.cos(th)])
    s = fam.Pc @ nrm
    M0 = np.add.reduceat(q_w, fam.starts) * fam.inv_mass
    M1 = np.add.reduceat(q_w * s, fam.starts) * fam.inv_mass
    M2 = np.add.reduceat(q_w * s * s, fam.starts) * fam.inv_mass
    A, B, C = factor * M2, factor * M1, factor * M0
    E = len(fam.entries)
    ii, jj = np.triu_indices(E, 1)
    fi = np.repeat(np.arange(E), E)
    fj = np.tile(np.arange(E), E)
    cand = [M1 / np.maximum(M0, 1e-300)]
    if len(ii):
        cand.append(_quad_roots(C[ii] - C[jj], -2.0 * (B[ii] - B[jj]), A[ii] - A[jj]))
    cand.append(_quad_roots(C[fi], -2.0 * B[fi], A[fi] - factor[fj]))
    ts = np.concatenate([c[np.isfinite(c)] for c in cand])
    if not len(ts):
        ts = np.zeros(1)
    worst = offset_envelope(fam, th, ts)
    j = int(np.argmin(worst))
    return float(worst[j]), float(ts[j])


def nearby_cubes(Q: DyadicCube) -> list[DyadicCube]:
    """The nearby-cube family of Q: same scale first, then one coarser, each
    in lexicographic index order. Feasible in n = 1 only (millions of
    members in n = 2)."""
    n = Q.dim
    dmax = same_scale_radius(n)
    fam = [
        DyadicCube(Q.k, tuple(j + o for j, o in zip(Q.index, off)))
        for off in itertools.product(range(-dmax, dmax + 1), repeat=n)
    ]
    umax = parent_scale_bound(n)
    # per axis, a range of candidates that holds every m with |4m + 1 - 2j| <= umax
    boxes = [range((2 * j - umax) // 4 - 1, (2 * j + umax) // 4 + 2) for j in Q.index]
    for idx in itertools.product(*boxes):
        if all(abs(4 * m + 1 - 2 * j) <= umax for m, j in zip(idx, Q.index)):
            fam.append(DyadicCube(Q.k - 1, idx))
    return fam


def in_nearby_family(Q: DyadicCube, R: DyadicCube) -> bool:
    """Exact membership: side Q <= side R <= 2 side Q and 3R inside the dilate."""
    n = Q.dim
    if R.dim != n:
        return False
    if R.k == Q.k:
        dmax = same_scale_radius(n)
        return all(abs(i - j) <= dmax for i, j in zip(R.index, Q.index))
    if R.k == Q.k - 1:
        umax = parent_scale_bound(n)
        return all(abs(4 * m + 1 - 2 * j) <= umax for m, j in zip(R.index, Q.index))
    return False


def _parent_axis_range(j: int, umax: int) -> range:
    # integer m with |4m + 1 - 2j| <= umax
    lo = -((umax - 2 * j + 1) // 4)  # ceil((2j - 1 - umax) / 4)
    hi = (2 * j - 1 + umax) // 4
    return range(lo, hi + 1)


def nearby_count(Q: DyadicCube) -> int:
    """Exact size of the nearby-cube family (scale-free)."""
    n = Q.dim
    dmax = same_scale_radius(n)
    same = (2 * dmax + 1) ** n
    umax = parent_scale_bound(n)
    parent = 1
    for j in Q.index:
        parent *= len(_parent_axis_range(j, umax))
    return same + parent


def box_contains(box, X) -> np.ndarray:
    """Which rows of X lie in the closed box (center, half-side)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != box.dim:
        raise DimensionMismatch("point dimension does not match box")
    # compare against the faces: |x - c| rounds, while the faces of a
    # dyadic box are exact, so a point just outside one stays outside
    c = np.asarray(box.center, dtype=float)
    return np.all((c - box.half <= X) & (X <= c + box.half), axis=1)


def cube_contains(Q: DyadicCube, X) -> np.ndarray:
    """Which rows of X lie in the half-open dyadic cube Q."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != Q.dim:
        raise DimensionMismatch("point dimension does not match cube")
    return np.all(cell_index(X, Q.k) == np.asarray(Q.index, dtype=np.int64), axis=1)


def sum_function(tree, b, mu, x) -> float:
    """Sum of b(Q) / mu(Q) over the tree cubes Q that hold the atom x, coarse to fine.

    x is an atom of mu, so every such Q has mass.
    """
    total = 0.0
    for k in sorted({Q.k for Q in tree.members}):
        Q = cube_at(x, k)
        val = b.get(Q, 0.0)
        if Q in tree.members and val > 0.0:
            total += val / mu.mass(Q)
    return total


def chain_masses(mu, x, k_max: int) -> list[float]:
    """mu(3Q_k(x)) at scales k = 0..k_max, one cube and one triple query per scale."""
    return [float(mu.weights[mu.atoms_in(cube_at(x, k).triple())].sum()) for k in range(k_max + 1)]


def ball_masses(mu, x, radii) -> np.ndarray:
    """mu(B(x, r)) of the closed ball at each radius, from every atom's distance to x."""
    d2 = ((mu.points - np.asarray(x, dtype=float)) ** 2).sum(axis=1)
    return np.array([float(mu.weights[d2 <= r * r].sum()) for r in radii])


def mass_triples(mu, k: int) -> list[tuple[DyadicCube, np.ndarray, float]]:
    """(R, atoms of 3R, mu(3R)) for every scale-k cube R with mu(3R) > 0, in
    sorted index order, by the 4^n candidate enumeration."""
    cells = {tuple(row) for row in np.floor(mu.points * 2.0**k).astype(np.int64).tolist()}
    cand = set()
    # the closed triple 3R meets the cells index - 1 .. index + 2 per axis
    for cell in cells:
        for off in itertools.product((-2, -1, 0, 1), repeat=mu.dim):
            cand.add(tuple(c + o for c, o in zip(cell, off)))
    out = []
    for key in sorted(cand):
        R = DyadicCube(k, key)
        atoms = np.flatnonzero(box_contains(R.triple(), mu.points))
        if len(atoms):
            out.append((R, atoms, float(mu.weights[atoms].sum())))
    return out


def min_enclosing_circle(points) -> tuple[np.ndarray, float]:
    """Exact minimum enclosing circle of a few planar points, by enumeration.

    The optimal centre is the midpoint of two points or the circumcentre of
    three, and no centre has a smaller maximum distance than it, so the
    least maximum distance over those candidates is the minimum radius.
    """
    X = np.asarray(points, dtype=float)
    centres = [X[0]] + [(a + b) / 2.0 for a, b in itertools.combinations(X, 2)]
    for a, b, c in itertools.combinations(X, 3):
        u, v = b - a, c - a
        det = 2.0 * (u[0] * v[1] - u[1] * v[0])
        if abs(det) > 1e-12 * float(u @ u + v @ v):
            uu, vv = float(u @ u), float(v @ v)
            centres.append(a + np.array([v[1] * uu - u[1] * vv, u[0] * vv - v[0] * uu]) / det)
    radii = [float(np.linalg.norm(X - c, axis=1).max()) for c in centres]
    i = int(np.argmin(radii))
    return centres[i], radii[i]


def sequential_pattern_search(f, x0, steps, max_iter=200, tol=1e-13):
    """Compass search with one objective call per poll; f maps a point to a value."""
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


def moment_score(fam, base: np.ndarray, direction: np.ndarray) -> float:
    """fam.score(Line(base, direction)) for p = 2 from the entry moments, one line."""
    S0, m, C, trC = fam.moments()
    v = m - (base - fam.cen)
    vu = v @ direction
    sq = trC - (C @ direction) @ direction + S0 * (np.einsum("ij,ij->i", v, v) - vu * vu)
    b2 = np.minimum(np.maximum(sq, 0.0) * fam.inv_mass, 1.0)
    vals = b2 * fam.entry_factor if fam.entry_factor is not None else np.sqrt(b2)
    return float(vals.max())


def convex_hull_loop(points) -> np.ndarray:
    """Andrew monotone chain on numpy scalars; hull vertices counterclockwise."""
    X = _as_points(points)
    pts = sorted_unique(X)
    if len(pts) <= 2:
        return pts

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
    if len(hull) == 0:
        hull = np.array([pts[0], pts[-1]])
    return hull


def min_width_strip_loop(points) -> tuple[float, Line]:
    """Minimum-width strip of planar points, scanning one hull edge at a time."""
    X = _as_points(points)
    hull = convex_hull_loop(X)
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


def slot_score(fam, line) -> float:
    """The exact coupled objective of one line, from the family's atom slots."""
    Y = fam.P - line.base
    t = Y @ line.direction
    resid = Y - t[:, None] * line.direction
    d = np.sqrt(np.einsum("ij,ij->i", resid, resid))
    contrib = fam.W * (d * fam.slot_inv_diam) ** 2
    sums = np.bincount(fam.entry_id, weights=contrib, minlength=len(fam.entries))
    b = np.minimum(np.sqrt(sums * fam.inv_mass), 1.0)
    vals = b * b * fam.entry_factor if fam.entry_factor is not None else b
    return float(vals.max())


def slot_score_many(fam, lines) -> np.ndarray:
    """The p = 2 coupled objective of each line, in one pass over the atom slots.

    Distances come from d^2 = |y|^2 - (y . dir)^2 on family-centred
    coordinates, so the subtraction stays accurate far from the origin.
    """
    Pc, W = fam.Pc, fam.W
    dirs = np.array([ln.direction for ln in lines])
    bases = np.array([ln.base for ln in lines]) - fam.cen
    t = Pc @ dirs.T - np.einsum("cj,cj->c", bases, dirs)[None, :]
    sq = (
        np.einsum("ij,ij->i", Pc, Pc)[:, None]
        - 2.0 * (Pc @ bases.T)
        + np.einsum("cj,cj->c", bases, bases)[None, :]
        - t * t
    )
    sq = np.maximum(sq, 0.0)
    contrib = (W * fam.slot_inv_diam * fam.slot_inv_diam)[:, None] * sq
    sums = np.add.reduceat(contrib, fam.starts, axis=0)
    b2 = np.minimum(sums * fam.inv_mass[:, None], 1.0)
    vals = b2 * fam.entry_factor[:, None] if fam.entry_factor is not None else np.sqrt(b2)
    return vals.max(axis=0)


def chain_jones(mu, x, variant="star", k_max=None, c=None, refine=True):
    """(value, k_max) of the truncated Jones sum at an atom x.

    Tilde terms take the best line of the triple; the others beta_multi.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if k_max is None:
        k_max = default_kmax(mu, x)
    cache = BetaCache(mu)
    total = 0.0
    for k in range(k_max + 1):
        Q = cube_at(x, k)
        if variant == "tilde":
            beta = beta_best(mu, Q.triple()).value
        else:
            beta = beta_multi(mu, Q, variant=variant, c=c, refine=refine, cache=cache).value
        total += beta * beta * Q.diameter / mu.mass(Q)
    return float(total), k_max


def default_kmax(mu, x) -> int:
    """First scale whose chain cube holds at most one atom, capped at 40."""
    for k in range(40):
        if np.count_nonzero(cube_contains(cube_at(x, k), mu.points)) <= 1:
            return k
    return 40


def chain_cells(x, scales) -> list[tuple[int, ...]]:
    """Index of the cube holding the point x at each of the given scales."""
    x = np.asarray(x, dtype=float)
    return [tuple(cell_index(x, k).tolist()) for k in scales]


def chain_of_cubes(x, k_max: int) -> list[DyadicCube]:
    """Nested cubes containing x at scales 0..k_max (coarse to fine)."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    scales = range(k_max + 1)
    return [DyadicCube(k, idx) for k, idx in zip(scales, chain_cells(x, scales))]

