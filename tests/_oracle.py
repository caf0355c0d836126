"""Test-side references: a grid oracle for best-fit lines, and the
breakpoint-envelope minimum of a beta family's offset profile.

`brute_force_line_oracle` shares no path with `mrt.geometry.fit_line`:
candidate lines come from an exhaustive (angle x offset) grid, polished by
`pattern_search` on the direct objective. Used by the line-fit and beta
agreement tests.

`offset_envelope_min` shares no path with `_Family.offset_profile`: it scores
one angle from the family's atom slots and takes the least envelope value over
every vertex and pairwise breakpoint of the entries' capped parabolas.

`nearby_cubes` shares no path with `mrt.dyadic.nearby_count`: it filters a
box of candidate indices through the family's defining inequalities.
"""

from __future__ import annotations

import itertools

import numpy as np

from mrt.dyadic import DyadicCube, parent_scale_bound, same_scale_radius
from mrt.errors import DimensionMismatch
from mrt.geometry import Line, _as_points, _as_weights, pattern_search, unit


def brute_force_line_oracle(
    points,
    weights=None,
    p=2,
    n_angles: int = 3600,
    n_offsets: int = 200,
    refine: bool = True,
) -> tuple[float, Line]:
    """Exhaustive (angle x offset) grid search for the best-fit line, n=2 or 3.

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
    W = float(w.sum())
    if p == 2:
        out = np.sqrt(np.sum(w * devs**2, axis=-1) / W)
    elif p == 1:
        out = np.sum(w * devs, axis=-1) / W
    else:
        out = (np.sum(w * devs**p, axis=-1) / W) ** (1.0 / p)
    return out


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

        val, q = pattern_search(profile, np.array([theta]), np.array([np.pi / n_angles]))
        theta = float(q[0])
        t = inner_t(X @ np.array([-np.sin(theta), np.cos(theta)]))
    elif refine:
        span = float(np.ptp(X @ np.array([-np.sin(theta), np.cos(theta)]))) + 1e-12
        val, (theta, t) = pattern_search(
            lambda q: value(q[0], q[1]),
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
        val, x = pattern_search(lambda q: value_for(q[:3], q[3:]), x0, steps)
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
