"""Localization, tree growing, curve drawing through trees, decomposition.

The pipeline: grow a lower-regular dyadic cube tree under an atom (every
member's triple carries mass at least c times its diameter), localize the
tree against a per-cube budget to split good from bad cubes, build nets
through the good tree's centers of mass, and run the curve construction with
beta*_c lines and alphas. The decomposition estimator applies this machinery
per atom and reports which atoms look carried by rectifiable curves at desk
scale, with every threshold exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._parallel import pmap
from .beta import BetaCache, beta_multi
from .curve import CurveResult, construct_curve
from .dyadic import CubeTree, DyadicCube, checked_length, cube_at
from .errors import CertificateError, TreeStructureError
from .jones import jones_at, square_sum
from .measure import DensityProfile, DiscreteMeasure
from .nets import fit_alphas, hausdorff_to_segments, nets_from_tree


# ---------------------------------------------------------------------------
# localization


@dataclass
class LocalizationResult:
    good: CubeTree | None
    bad: frozenset
    A_mask: np.ndarray
    A_mass: float


def localize(
    tree: CubeTree,
    b: dict[DyadicCube, float],
    mu: DiscreteMeasure,
    N: float,
    eps: float,
) -> LocalizationResult:
    """Partition a tree into good and bad cubes against a budget.

    A is the set of atoms of the top cube where the normalized sum stays at
    most N. A cube is bad when some tree cube containing it holds too little
    of A relative to its own mass (at most eps * mu(A) * mu(R)); children of
    bad cubes are bad. With mu(A) = 0 every cube is bad. A' is A minus the
    bad cubes. Since a tree holds every ancestor of its members, one top-down
    pass decides badness: Q is bad when its parent is, or when Q itself holds
    too little of A. So the bad cubes are closed downward, and the good ones,
    when the top is good, form a tree with the same top (CubeTree rejects a
    set that is not closed under parents). The output rechecks the two
    conclusions that floating point can break: (1) mass comparability of A
    and its good part, mu(A') >= (1 - eps mu(top)) mu(A), and (2) the strict
    budget bound on the good-cube sum of b, which stays below N / eps.
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
    return LocalizationResult(good=good, bad=frozenset(bad), A_mask=in_A, A_mass=A_mass)


# ---------------------------------------------------------------------------
# tree growing


@dataclass
class GrowResult:
    tree: CubeTree | None
    diagnostic: str | None


def _check_c(c: float) -> None:
    if not c > 0:
        raise ValueError("lower-regular trees need c > 0")


def _lower_regular_ok(mu: DiscreteMeasure, Q: DyadicCube, c: float) -> bool:
    """mu(3Q) >= c diam 3Q."""
    tri = Q.triple()
    return mu.mass(tri) >= c * tri.diameter


def _density_factor(n: int) -> float:
    """(3/2) sqrt(n): a density ratio mu(B(x, r))/2r must clear this times c in R^n."""
    return 1.5 * math.sqrt(n)


def base_cube_for(profile: DensityProfile, c: float) -> DyadicCube | None:
    """The base cube at the profile's point; None when the density test fails.

    r_x is the largest ladder radius r such that the density ratio
    mu(B(x, r))/2r clears (3/2) sqrt(n) c at r and at every smaller ladder
    radius; the base cube is the largest cube of side <= min(r_x, 1)
    containing x.
    """
    _check_c(c)
    x = profile.point
    failed = np.flatnonzero(profile.ratios < _density_factor(len(x)) * c)
    j = int(failed[-1]) + 1 if len(failed) else 0
    if j == len(profile.radii):
        return None
    r_x = float(profile.radii[j])
    return cube_at(x, max(0, int(round(-math.log2(min(r_x, 1.0))))))


def grow_tree(
    mu: DiscreteMeasure,
    base: DyadicCube,
    c: float,
    k_max: int = 8,
) -> GrowResult:
    """Deepest lower-regular tree under a base cube, down to scale k_max.

    Every member satisfies mu(3Q) >= c diam 3Q. A base cube that fails the
    inequality yields an empty tree with a diagnostic.
    """
    _check_c(c)
    if not _lower_regular_ok(mu, base, c):
        return GrowResult(None, f"regime predicate fails at base cube {base}")
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
    return GrowResult(CubeTree(base, frozenset(members)), None)


# ---------------------------------------------------------------------------
# drawing through trees


@dataclass
class DrawResult:
    curve: CurveResult
    # the curve as (a, b) point pairs; a curve with no segment is its first
    # vertex (a, a), and a curve with no vertex is empty
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
    48 max(1/c, 1) s_star_c_tree next to the realized alpha budget; the
    budget's betas are unrefined like the vertex lines, so with a shared
    cache they are the values the caller already computed.
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
    if not segs and curve.vertices:
        v = np.asarray(curve.vertices[0], dtype=float)
        segs = [(v, v)]
    children = {Q: tree.children_in_tree(Q) for Q in tree.members}
    leaf_centers = [
        mu.center_of_mass(Q.triple()) for Q in tree if not children[Q] and mu.mass(Q.triple()) > 0
    ]
    tol = 2.0 * nets.cstar * nets.sep(nets.K) + tree.top.side * math.sqrt(mu.dim) * 2.0 ** (
        -(nets.K)
    )
    # no segment at all leaves every leaf center at infinite distance
    max_dist = hausdorff_to_segments(np.array(leaf_centers), segs) if leaf_centers else 0.0
    coverage = {"max_leaf_distance": max_dist, "tolerance": tol, "ok": max_dist <= tol}
    if not coverage["ok"]:
        raise CertificateError(f"leaf coverage failed: {max_dist} > {tol}")
    acct = dict(curve.accounting)
    rep = square_sum(mu, "s_star_c_tree", tree=tree, p=p, c=c, cache=cache, refine=False)
    acct["regime_budget"] = 48.0 * max(1.0 / c, 1.0) * rep.total
    acct["regime_sum"] = rep.total
    acct["regime"] = "lower_regular"
    return DrawResult(curve=curve, segments=segs, accounting=acct, coverage=coverage)


# ---------------------------------------------------------------------------
# decomposition estimator


@dataclass
class AtomReport:
    index: int
    density: float
    jones: float | None
    c_used: float | None
    label: str
    reason: str | None


@dataclass
class DroppedTree:
    """A rect-candidate's tree that was not drawn, with the reason."""

    atom: int
    c: float
    base_cube: DyadicCube | None
    reason: str


@dataclass
class DecompositionReport:
    atoms: list[AtomReport]
    curves: list[DrawResult]
    captured_mass: float
    rect_mass: float
    captured_fraction: float
    params: dict
    dropped: list[DroppedTree] = field(default_factory=list)


def decompose_estimate(
    mu: DiscreteMeasure,
    p=2,
    c_ladder=(0.01, 0.1, 1.0),
    N_cap: float = 1e3,
    eps_ladder=(0.5, 0.1),
    k_max: int = 8,
) -> DecompositionReport:
    """Desk-scale rectifiable/unrectifiable labeling with drawn curves.

    An atom is a rect-candidate when for some ladder value c its density
    estimate clears (3/2) sqrt(n) c and its truncated c-qualified Jones
    value stays at or below N_cap. Rect-candidates seed lower-regular trees
    (deduplicated by base cube), localized against b = beta^2 diam with the
    eps ladder, and the good trees are drawn; captured mass is the
    rect-candidate mass within tolerance of any curve.
    A tree that cannot be grown or drawn is listed in `dropped` with the
    reason: no base cube, the grow diagnostic, or the drawing error. Every
    beta is unrefined (refine=False), which params records. All thresholds
    are reported, none are asserted as ground truth.

    Each atom's density profile runs once, on the radii 2^{-j}, j <= k_max:
    the density estimate is its least ratio for j <= min(k_max, 20), and a
    rect-candidate's base cube comes from the whole ladder (base_cube_for).
    Each ladder value c takes one Jones pass, over the atoms that clear its
    density test and are not yet rect-candidates. An atom that is not a
    rect-candidate reports J at the least c, or None if it clears no test.
    """
    n = mu.dim
    cache = BetaCache(mu)
    radii = [2.0 ** (-j) for j in range(k_max + 1)]
    checked_length(radii[-1], f"radius 2^-{k_max}")
    n_est = min(k_max, 20) + 1
    profiles = pmap(lambda i: mu.density_profile(mu.points[i], radii), range(len(mu.points)))
    densities = [float(prof.ratios[:n_est].min()) for prof in profiles]
    c_min = min(c_ladder)
    # any c that clears an atom's density test lets c_min clear it too, so
    # every atom that clears some test gets its J at c_min, or is a
    # rect-candidate before c_min comes up
    jones: dict[int, float] = {}
    c_used: dict[int, float] = {}
    for c in c_ladder:
        todo = [i for i, dens in enumerate(densities) if i not in c_used and dens > _density_factor(n) * c]
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
        atoms.append(AtomReport(i, dens, jones.get(i), c_used.get(i), label, reason))

    curves: list[DrawResult] = []
    dropped: list[DroppedTree] = []
    seen_bases: set = set()
    for rep in atoms:
        if rep.label != "rect-candidate":
            continue
        c = rep.c_used
        base = base_cube_for(profiles[rep.index], c=c)
        if base is None:
            dropped.append(DroppedTree(rep.index, c, None, "density ratio below threshold at all scanned radii"))
            continue
        if (c, base) in seen_bases:
            continue
        seen_bases.add((c, base))
        grown = grow_tree(mu, base, c=c, k_max=k_max)
        if grown.tree is None:
            dropped.append(DroppedTree(rep.index, c, base, grown.diagnostic))
            continue
        b_map = {}
        for Q in grown.tree.members:
            bv = beta_multi(mu, Q, p, "star_c", c=c, refine=False, cache=cache)
            b_map[Q] = bv.value**2 * Q.diameter
        tree = grown.tree
        for eps in eps_ladder:
            loc = localize(tree, b_map, mu, N=N_cap, eps=eps)
            if loc.good is not None:
                tree = loc.good
                break
        try:
            curves.append(draw_through_tree(mu, tree, c, p=p, cache=cache))
        except (TreeStructureError, CertificateError) as exc:
            dropped.append(DroppedTree(rep.index, c, base, f"{type(exc).__name__}: {exc}"))
    rect_ids = [a.index for a in atoms if a.label == "rect-candidate"]
    rect_mass = float(mu.weights[rect_ids].sum()) if rect_ids else 0.0
    captured_ids: list[int] = []
    slack = 2.0 ** (-k_max) * math.sqrt(n)
    for i in rect_ids:
        x = mu.points[i][None, :]
        for dr in curves:
            if dr.segments and hausdorff_to_segments(x, dr.segments) <= dr.coverage["tolerance"] + slack:
                captured_ids.append(i)
                break
    # summed like rect_mass, so that capturing every atom gives exactly 1
    captured = float(mu.weights[captured_ids].sum()) if captured_ids else 0.0
    fraction = captured / rect_mass if rect_mass > 0 else 0.0
    params = {
        "p": p,
        "c_ladder": list(c_ladder),
        "N_cap": N_cap,
        "eps_ladder": list(eps_ladder),
        "k_max": k_max,
        "refine": False,
        "density_factor": _density_factor(n),
    }
    return DecompositionReport(
        atoms=atoms,
        curves=curves,
        captured_mass=captured,
        rect_mass=rect_mass,
        captured_fraction=fraction,
        params=params,
        dropped=dropped,
    )
