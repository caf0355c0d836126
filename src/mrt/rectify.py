"""Localization, tree growing, curve drawing through trees, decomposition.

The pipeline: grow a lower-regular dyadic cube tree under an atom (every
member's triple carries mass at least c times its diameter), localize the
tree against a per-cube budget to split good from bad cubes, build nets
through the good tree's centers of mass, and run the curve construction with
beta*_c lines and alphas. The decomposition estimator applies this machinery
per atom and returns the `mrt decompose` report body: which atoms look
carried by rectifiable curves at desk scale, and the curves drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import pmap
from .beta import BetaCache, beta_multi
from .curve import CurveResult, construct_curve
from .dyadic import CubeTree, DyadicCube, checked_length, cube_at
from .errors import CertificateError, TreeStructureError
from .jones import jones_at
from .measure import DiscreteMeasure
from .nets import fit_alphas, hausdorff_to_segments, nets_from_tree


# ---------------------------------------------------------------------------
# localization


def localize(
    tree: CubeTree,
    b: dict[DyadicCube, float],
    mu: DiscreteMeasure,
    N: float,
    eps: float,
) -> CubeTree | None:
    """The good cubes of a tree against a budget: a tree under the same top, or None.

    A is the set of atoms of the top cube where the normalized sum stays at
    most N. A cube is bad when some tree cube containing it holds too little
    of A relative to its own mass (at most eps * mu(A) * mu(R)); children of
    bad cubes are bad. With mu(A) = 0 every cube is bad. A' is A minus the
    bad cubes. Since a tree holds every ancestor of its members, one top-down
    pass decides badness: Q is bad when its parent is, or when Q itself holds
    too little of A. So the bad cubes are closed downward, and the good ones,
    when the top is good, form a tree with the same top (CubeTree rejects a
    set that is not closed under parents). It rechecks the two conclusions
    that floating point can break: (1) mass comparability of A and its good
    part, mu(A') >= (1 - eps mu(top)) mu(A), and (2) the strict budget bound
    on the good-cube sum of b, which stays below N / eps.
    """
    if not (0 < N < math.inf) or not (eps > 0):
        raise ValueError("localize needs finite positive N and positive eps")
    top = tree.top
    # S(x) = sum of b(Q) / mu(Q) over the tree cubes Q that hold the atom x,
    # coarse to fine; a cube with no atom adds to no S
    S = np.zeros(len(mu.points))
    for Q in tree:
        ids = mu.atoms_in(Q)
        val = b.get(Q, 0.0)
        if len(ids) and val > 0.0:
            S[ids] += val / mu.mass(Q)
    top_ids = mu.atoms_in(top)
    in_A = np.zeros(len(mu.points), dtype=bool)
    in_A[top_ids] = S[top_ids] <= N
    A_mass = float(mu.weights[in_A].sum())
    bad: set[DyadicCube] = set()
    for Q in tree:  # coarse to fine, so a parent is decided first
        if Q != top and Q.parent() in bad:
            bad.add(Q)
            continue
        ids = mu.atoms_in(Q)
        # with mu(A) = 0 this holds for every cube
        if float(mu.weights[ids[in_A[ids]]].sum()) <= eps * A_mass * mu.mass(Q):
            bad.add(Q)
    good_set = tree.members - bad
    good = CubeTree(top, frozenset(good_set)) if top in good_set else None
    in_Aprime = in_A.copy()
    for Q in bad:
        in_Aprime[mu.atoms_in(Q)] = False
    A_prime_mass = float(mu.weights[in_Aprime].sum())
    good_b_sum = float(sum(b.get(Q, 0.0) for Q in good_set))
    checks = {
        "mass_comparable": A_prime_mass >= (1 - eps * mu.mass(top)) * A_mass - 1e-12 * max(1.0, A_mass),
        "budget_strict": good_b_sum < N / eps,
    }
    if not all(checks.values()):
        raise TreeStructureError(f"localization postcondition failed: {checks}")
    return good


# ---------------------------------------------------------------------------
# tree growing


def _check_c(c: float) -> None:
    if not c > 0:
        raise ValueError("lower-regular trees need c > 0")


def _lower_regular_ok(mu: DiscreteMeasure, Q: DyadicCube, c: float) -> bool:
    """mu(3Q) >= c diam 3Q."""
    tri = Q.triple()
    return mu.mass(tri) >= c * tri.diameter


def grow_tree(
    mu: DiscreteMeasure,
    base: DyadicCube,
    c: float,
    k_max: int = 8,
) -> CubeTree | None:
    """Deepest lower-regular tree under a base cube, down to scale k_max.

    Every member satisfies mu(3Q) >= c diam 3Q. A base cube that fails the
    inequality grows no tree: None.
    """
    _check_c(c)
    if not _lower_regular_ok(mu, base, c):
        return None
    members = {base}
    frontier = [base]
    while frontier:
        Q = frontier.pop()
        if Q.k >= k_max:
            continue
        for child in Q.children():
            if _lower_regular_ok(mu, child, c):
                members.add(child)
                frontier.append(child)
    return CubeTree(base, frozenset(members))


# ---------------------------------------------------------------------------
# drawing through trees


@dataclass
class DrawResult:
    curve: CurveResult
    # the curve as (a, b) point pairs; a curve with no segment is its first
    # vertex (a, a)
    segments: list[tuple[np.ndarray, np.ndarray]]
    accounting: dict
    coverage: dict


def _witness_line_alpha(mu, cache, nets, p, c, key):
    """The star_c line of a net vertex's witness cube and its theoretical alpha."""
    k, i = key
    bv = beta_multi(mu, nets.witnesses[k][i], p, "star_c", c=c, refine=False, cache=cache)
    return bv.line, 4.0 * max(c ** -0.5, 1.0) * bv.value


def draw_through_tree(
    mu: DiscreteMeasure,
    tree: CubeTree,
    c: float,
    p=2,
    cache: BetaCache | None = None,
) -> DrawResult:
    """Draw a curve through a lower-regular tree's centers of mass.

    Every member must satisfy mu(3Q) >= c diam 3Q (TreeStructureError
    otherwise). Builds nets through the tree (nets_from_tree), picks
    per-vertex lines from unrefined beta*_c at the witness cube, sets alphas
    to the larger of 4 max(c^{-1/2}, 1) beta*_c and the exact neighborhood
    supremum, runs the curve construction at epsilon = 1/32, and checks that
    every leaf center lies within the net tolerance of the curve
    (CertificateError otherwise). Accounting carries the theoretical budget
    48 max(1/c, 1) regime_sum next to the realized alpha budget, where
    regime_sum is the sum of beta*_c^2 diam Q over the tree's members in
    tree order; its betas are unrefined like the vertex lines, so with a
    shared cache they are the values the caller already computed.
    """
    _check_c(c)
    for Q in tree:
        if not _lower_regular_ok(mu, Q, c):
            raise TreeStructureError(f"lower-regular hypothesis fails at member {Q}")
    if cache is None:
        cache = BetaCache(mu)
    nets = nets_from_tree(mu, tree)
    keys = [(k, i) for k in range(1, nets.K + 1) for i in range(len(nets.levels[k]))]
    fitted = pmap(lambda key: _witness_line_alpha(mu, cache, nets, p, c, key), keys)
    lines = {key: line for key, (line, _) in zip(keys, fitted)}
    theory = {key: alpha for key, (_, alpha) in zip(keys, fitted)}
    alphas = fit_alphas(nets, lines=lines)
    for key in keys:
        line, fitted_alpha = alphas.entries[key]
        alphas.entries[key] = (line, max(fitted_alpha, theory[key]))
    curve = construct_curve(nets, alphas)
    segs = [(np.asarray(s.a, dtype=float), np.asarray(s.b, dtype=float)) for s in curve.segments]
    if not segs:
        # construct_curve returns at least one vertex
        v = np.asarray(curve.vertices[0], dtype=float)
        segs = [(v, v)]
    # every member is lower regular with c > 0, so each leaf's triple has mass
    leaf_centers = [mu.center_of_mass(Q.triple()) for Q in tree if not tree.children_in_tree(Q)]
    tol = 2.0 * nets.cstar * nets.sep(nets.K) + tree.top.side * math.sqrt(mu.dim) * 2.0 ** (
        -(nets.K)
    )
    max_dist = hausdorff_to_segments(np.array(leaf_centers), segs)
    coverage = {"max_leaf_distance": max_dist, "tolerance": tol, "ok": max_dist <= tol}
    if not coverage["ok"]:
        raise CertificateError(f"leaf coverage failed: {max_dist} > {tol}")
    acct = dict(curve.accounting)
    regime_sum = float(sum(
        beta_multi(mu, Q, p, "star_c", c=c, refine=False, cache=cache).value ** 2 * Q.diameter
        for Q in tree
    ))
    acct["regime_budget"] = 48.0 * max(1.0 / c, 1.0) * regime_sum
    acct["regime_sum"] = regime_sum
    return DrawResult(curve=curve, segments=segs, accounting=acct, coverage=coverage)


# ---------------------------------------------------------------------------
# decomposition estimator


def decompose_estimate(
    mu: DiscreteMeasure,
    p=2,
    c_ladder=(0.01, 0.1, 1.0),
    N_cap: float = 1e3,
    eps_ladder=(0.5, 0.1),
    k_max: int = 8,
) -> dict:
    """Desk-scale rectifiable/unrectifiable labeling with drawn curves.

    Returns the `mrt decompose` report body: a row per atom ("atoms"), per
    drawn tree ("curves") and per tree not drawn ("dropped"), "rect_mass",
    "captured_mass" and "captured_fraction".

    An atom x clears the density test at a ladder value c when every triple
    of its chain of cubes is lower regular: mu(3Q_k(x)) >= c diam 3Q_k(x) at
    every scale k <= k_max, the predicate grow_tree applies. Since
    B(x, 2^-k) lies in 3Q_k(x), which lies in B(x, 2 sqrt(n) 2^-k), the
    chain ratio and the ball ratio mu(B(x, r))/2r bound each other up to
    the factors (3/2) sqrt(n) and 4/3, so a positive liminf of one is
    positive lower density. The reported density is the least ratio
    mu(3Q_k(x)) / diam 3Q_k(x) over k <= k_max, read for all atoms in one
    pass (DiscreteMeasure.density_profile).

    An atom is a rect-candidate when for some ladder value c it clears the
    density test and its truncated c-qualified Jones value stays at or
    below N_cap. Each ladder value c takes one Jones pass, over the atoms
    that clear its density test and are not yet rect-candidates. An atom
    that is not a rect-candidate reports J at the least c, or None if it
    clears no test.

    A rect-candidate seeds a lower-regular tree under its scale-0 cube,
    which is lower regular at its c by the density test (trees are
    deduplicated by base cube). The tree is localized against
    b = beta^2 diam with the eps ladder, and the good tree is drawn;
    captured mass is the rect-candidate mass within tolerance of any curve.
    A tree that cannot be drawn is listed in "dropped" with the drawing
    error. Every beta is unrefined (refine=False). No threshold is asserted
    as ground truth.
    """
    n = mu.dim
    cache = BetaCache(mu)
    # tri.diameter depends on the scale only; a subnormal one would make
    # the density ratio inf
    diams = np.array([
        checked_length(DyadicCube(k, (0,) * n).triple().diameter, f"triple diameter at scale {k}")
        for k in range(k_max + 1)
    ])
    masses = mu.density_profile(k_max)
    densities = (masses / diams).min(axis=1).tolist()
    c_min = min(c_ladder)
    # any c that clears an atom's density test lets c_min clear it too, so
    # every atom that clears some test gets its J at c_min, or is a
    # rect-candidate before c_min comes up
    jones: dict[int, float] = {}
    c_used: dict[int, float] = {}
    for c in c_ladder:
        cleared = np.all(masses >= c * diams, axis=1)
        todo = [i for i in np.flatnonzero(cleared).tolist() if i not in c_used]
        values, _ = jones_at(mu, todo, p=p, variant="star_c", c=c, k_max=k_max, cache=cache, refine=False)
        for i, jval in zip(todo, values.tolist()):
            if jval <= N_cap:
                jones[i], c_used[i] = jval, c
            elif c == c_min:
                jones[i] = jval
    atoms = []
    for i, dens in enumerate(densities):
        if i in c_used:
            label, reason = "rect-candidate", None
        else:
            label = "unrect-candidate"
            reason = "jones_above_cap" if i in jones else "density_below_threshold"
        atoms.append({"atom": i, "density": dens, "jones": jones.get(i), "c_used": c_used.get(i),
                      "label": label, "reason": reason})

    rect_ids = sorted(c_used)
    # one tree per (c, scale-0 cube), seeded by its first rect-candidate
    seeds: dict = {}
    for i in rect_ids:
        seeds.setdefault((c_used[i], cube_at(mu.points[i], 0)), i)
    draws: list[DrawResult] = []
    dropped = []
    for (c, base), i in seeds.items():
        # the density test made the base lower regular at c, so a tree grows
        tree = grow_tree(mu, base, c=c, k_max=k_max)
        b_map = {}
        for Q in tree.members:
            bv = beta_multi(mu, Q, p, "star_c", c=c, refine=False, cache=cache)
            b_map[Q] = bv.value**2 * Q.diameter
        for eps in eps_ladder:
            good = localize(tree, b_map, mu, N=N_cap, eps=eps)
            if good is not None:
                tree = good
                break
        try:
            draws.append(draw_through_tree(mu, tree, c, p=p, cache=cache))
        except (TreeStructureError, CertificateError) as exc:
            dropped.append({"atom": i, "c": c, "base_cube": base.as_dict(),
                            "reason": f"{type(exc).__name__}: {exc}"})
    rect_mass = float(mu.weights[rect_ids].sum()) if rect_ids else 0.0
    captured_ids: list[int] = []
    slack = 2.0 ** (-k_max) * math.sqrt(n)
    for i in rect_ids:
        x = mu.points[i][None, :]
        for dr in draws:
            if hausdorff_to_segments(x, dr.segments) <= dr.coverage["tolerance"] + slack:
                captured_ids.append(i)
                break
    # summed like rect_mass, so that capturing every atom gives exactly 1
    captured = float(mu.weights[captured_ids].sum()) if captured_ids else 0.0
    curves = [
        {
            "n_segments": len(dr.curve.segments),
            "length_dedup": dr.accounting["length_dedup"],
            "c_hat": dr.accounting["c_hat"],
            "regime_budget": dr.accounting["regime_budget"],
            "coverage": dr.coverage,
        }
        for dr in draws
    ]
    return {
        "atoms": atoms,
        "curves": curves,
        "dropped": dropped,
        "rect_mass": rect_mass,
        "captured_mass": captured,
        "captured_fraction": captured / rect_mass if rect_mass > 0 else 0.0,
    }
