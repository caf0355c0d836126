"""Localization, tree growing, curve drawing through trees, decomposition.

The pipeline: grow a dyadic cube tree under an atom whose branches satisfy a
density regime (lower-regular: mass of triples at least c times their
diameter; doubling: parent triple mass at most 2^D times the child's),
localize the tree against a per-cube budget to split good from bad cubes,
build nets through the good tree's centers of mass, and run the curve
construction with regime-specific lines and alphas. The decomposition
estimator applies this machinery per atom and reports which atoms look
carried by rectifiable curves at desk scale, with every threshold exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._parallel import pmap
from .beta import BetaCache, beta_best, beta_multi
from .curve import CurveResult, construct_curve
from .dyadic import CubeTree, DyadicCube, chain_of_cubes, cube_at
from .errors import CertificateError, EmptyInput, TreeStructureError
from .jones import jones_at, square_sum
from .measure import DiscreteMeasure
from .nets import NetSequence, fit_alphas, hausdorff_to_segments, nets_from_tree


# ---------------------------------------------------------------------------
# localization


@dataclass
class LocalizationResult:
    good: CubeTree | None
    bad: frozenset
    A_mask: np.ndarray
    A_mass: float
    A_prime_mass: float
    budget: float
    good_b_sum: float
    params: dict
    checks: dict


def sum_function(tree: CubeTree, b: dict[DyadicCube, float], mu: DiscreteMeasure, x) -> float:
    """Mass-normalized sum of b over tree cubes containing x (0/0 = 0)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    total = 0.0
    scales = sorted({Q.k for Q in tree.members})
    for k in scales:
        Q = cube_at(x, k)
        if Q in tree.members:
            val = b.get(Q, 0.0)
            mass = mu.mass(Q)
            if val > 0.0:
                if mass == 0.0:
                    return math.inf
                total += val / mass
    return total


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
    too little of A. The output rechecks:
    (1) good cubes form a tree with the same top (or none), (2) downward
    badness, (3) mass comparability of A and its good part, (4) the strict
    budget bound on the good-cube sum of b.
    """
    if not (0 < N < math.inf) or not (eps > 0):
        raise ValueError("localize needs finite positive N and positive eps")
    top = tree.top
    top_ids = mu.atoms_in(top)
    S_vals = {}
    in_A = np.zeros(len(mu.points), dtype=bool)
    for i in top_ids:
        s = sum_function(tree, b, mu, mu.points[i])
        S_vals[int(i)] = s
        if s <= N:
            in_A[i] = True
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
    budget = N / eps
    top_mass = mu.mass(top)
    checks = {
        "good_is_tree": good is None
        or (
            good.top == top
            and all(
                Q == top or Q.parent() not in tree.members or Q.parent() in good_set
                for Q in good_set
            )
        ),
        "bad_downward_closed": all(
            child in bad
            for Q in bad
            for child in tree.children_in_tree(Q)
        ),
        "mass_comparable": A_prime_mass >= (1 - eps * top_mass) * A_mass - 1e-12 * max(1.0, A_mass),
        "budget_strict": good_b_sum < budget,
    }
    if not all(checks.values()):
        raise TreeStructureError(f"localization postcondition failed: {checks}")
    return LocalizationResult(
        good=good,
        bad=frozenset(bad),
        A_mask=in_A,
        A_mass=A_mass,
        A_prime_mass=A_prime_mass,
        budget=budget,
        good_b_sum=good_b_sum,
        params={"N": N, "eps": eps},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# tree growing


@dataclass
class GrowResult:
    tree: CubeTree | None
    diagnostic: str | None
    r_x: float
    base_cube: DyadicCube | None
    regime: str
    params: dict


def _lower_regular_ok(mu: DiscreteMeasure, Q: DyadicCube, c: float) -> bool:
    """mu(3Q) >= c diam 3Q."""
    tri = Q.triple()
    return mu.mass(tri) >= c * tri.diameter


def _doubling_ok(mu: DiscreteMeasure, Q: DyadicCube, top: DyadicCube, bound: float) -> bool:
    """mu(3Q) > 0 and, below the top, mu(3 parent) <= bound * mu(3Q)."""
    mass = mu.mass(Q.triple())
    if mass <= 0.0:
        return False
    return Q == top or mu.mass(Q.parent().triple()) <= bound * mass


def base_cube_for(
    mu: DiscreteMeasure,
    x,
    regime: str,
    c: float | None = None,
    k_max: int = 8,
) -> tuple[float, DyadicCube | None]:
    """(r_x, base cube) for a regime; base is None when the density test fails.

    For lower_regular, r_x is the largest dyadic radius 2^{-j} such that the
    density ratio mu(B(x, r))/2r clears (3/2) sqrt(n) c at that and all
    smaller scanned radii; the base cube is the largest cube of side
    <= min(r_x, 1) containing x. For doubling, r_x = 1 and the base is the
    unit-scale cube.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = mu.dim
    if regime == "doubling":
        return 1.0, cube_at(x, 0)
    if regime != "lower_regular":
        raise ValueError(f"unknown regime {regime!r}")
    if c is None or c <= 0:
        raise ValueError("lower_regular regime needs c > 0")
    thresh = 1.5 * math.sqrt(n) * c
    radii = [2.0 ** (-j) for j in range(k_max + 1)]
    ok_at = []
    for r in radii:
        ok_at.append(mu.mass_ball(x, r) / (2.0 * r) >= thresh)
    for j in range(len(radii)):   # largest radius passing at all scanned scales below
        if all(ok_at[j:]):
            r_x = radii[j]
            k_base = max(0, int(round(-math.log2(min(r_x, 1.0)))))
            return r_x, cube_at(x, k_base)
    return 0.0, None


def grow_tree(
    mu: DiscreteMeasure,
    x,
    regime: str,
    c: float | None = None,
    D: float | None = None,
    k_max: int = 8,
) -> GrowResult:
    """Deepest tree under the atom's base cube whose branches satisfy a regime.

    regime "lower_regular" requires mu(3Q) >= c diam 3Q on every member;
    the base cube comes from base_cube_for. regime "doubling" requires
    mu(3 parent) <= 2^D mu(3Q) along branches and prunes zero-mass triples;
    its base cube is the unit-scale cube at x. A failing base cube yields an
    empty tree with a diagnostic.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = mu.dim
    if regime == "lower_regular":
        if c is None or c <= 0:
            raise ValueError("lower_regular regime needs c > 0")
        thresh = 1.5 * math.sqrt(n) * c
        r_x, base = base_cube_for(mu, x, regime, c=c, k_max=k_max)
        if base is None:
            return GrowResult(None, "density ratio below threshold at all scanned radii",
                              0.0, None, regime, {"c": c, "k_max": k_max})
        predicate = lambda Q: _lower_regular_ok(mu, Q, c)
        params = {"c": c, "k_max": k_max, "threshold": thresh}
    elif regime == "doubling":
        if D is None or D < 1:
            raise ValueError("doubling regime needs D >= 1")
        r_x, base = base_cube_for(mu, x, regime)
        predicate = lambda Q: _doubling_ok(mu, Q, base, 2.0**D)
        params = {"D": D, "k_max": k_max}
    else:
        raise ValueError(f"unknown grow_tree regime {regime!r}")
    if not predicate(base):
        return GrowResult(None, f"regime predicate fails at base cube {base}",
                          r_x, base, regime, params)
    members = {base}
    frontier = [base]
    while frontier:
        Q = frontier.pop()
        if Q.k >= k_max:
            continue
        for child in Q.children():
            if predicate(child):
                members.add(child)
                frontier.append(child)
    tree = CubeTree(base, frozenset(members))
    if regime == "lower_regular":
        for Q in tree.members:   # recheck the defining inequality on members
            if not _lower_regular_ok(mu, Q, c):
                raise TreeStructureError(f"lower-regular recheck failed at {Q}")
    return GrowResult(tree, None, r_x, base, regime, params)


# ---------------------------------------------------------------------------
# drawing through trees


@dataclass
class DrawResult:
    curve: CurveResult
    nets: NetSequence
    accounting: dict
    coverage: dict
    regime: str


def _witness_line_alpha(mu, cache, tree, nets, regime, p, c, D, refine, key):
    """Regime line and theoretical alpha for one net vertex."""
    k, i = key
    Q = nets.witnesses[k][i]
    n = mu.dim
    if regime == "lower_regular":
        bv = beta_multi(mu, Q, p, "star_c", c=c, refine=refine, cache=cache)
        factor = 4.0 * max(c ** -0.5, 1.0)
        line = bv.line
        alpha = factor * bv.value
    elif regime == "plain_star_star":
        bv = beta_multi(mu, Q, p, "star_star", refine=refine, cache=cache)
        line = bv.line
        alpha = 4.0 * bv.value
    elif regime == "doubling":
        radius = 65.0 * nets.cstar * nets.sep(k)
        v = nets.levels[k][i]
        ratio_cap = 3200.0 * math.sqrt(n)

        def covers(hat: DyadicCube) -> bool:
            """3 hat contains the triple of every witness in the alpha ball of v."""
            big = hat.triple()
            for j in range(max(k - 1, 0), k + 1):
                for row in nets.near(j, v, radius):
                    wtri = nets.witnesses[j][row].triple()
                    if not all(
                        big.center[t] - big.half <= wtri.center[t] - wtri.half
                        and wtri.center[t] + wtri.half <= big.center[t] + big.half
                        for t in range(n)
                    ):
                        return False
            return True

        hat = Q
        while not covers(hat):
            parent = hat.parent()
            if parent not in tree.members:
                raise TreeStructureError(
                    f"no tree ancestor of {Q} covers its net neighborhood"
                )
            hat = parent
        side_ratio = 2.0 ** (Q.k - hat.k)
        if not side_ratio < ratio_cap:
            raise TreeStructureError(
                f"covering ancestor {hat} of {Q} exceeds the side-ratio window"
            )
        bv = beta_best(mu, hat.triple(), p)
        line = bv.line
        pw = p if isinstance(p, (int, float)) else 2
        alpha = 6400.0 * math.sqrt(n) * ratio_cap ** (D / pw) * bv.value
    else:
        raise ValueError(f"unknown draw regime {regime!r}")
    return line, alpha


def draw_through_tree(
    mu: DiscreteMeasure,
    tree: CubeTree,
    p=2,
    regime: str = "plain_star_star",
    c: float | None = None,
    D: float | None = None,
    epsilon: float = 1.0 / 32.0,
    cache: BetaCache | None = None,
    refine: bool = False,
) -> DrawResult:
    """Draw a curve through a tree's centers of mass with regime alphas.

    Builds nets with Cstar = 4 and r0 = 3 diam Top, picks per-vertex lines
    from the regime's beta statistic at the witness cube, sets alphas to the
    larger of the regime formula and the exact neighborhood supremum, runs
    the curve construction, and checks that every leaf center lies within
    the net tolerance of the curve (CertificateError otherwise). Accounting
    carries the regime's theoretical budget next to the realized alpha
    budget; the budget's betas follow `refine` like the vertex lines, so
    with a shared cache they are the values the caller already computed.

    The doubling regime enforces grow_tree's predicate: mu(3Q) > 0 on every
    member and mu(3 parent) <= 2^D mu(3Q) below the top; members need not
    hold atoms of their own. The lower_regular regime
    enforces mu(3Q) >= c diam 3Q on every member.
    """
    if regime == "lower_regular" and (c is None or c <= 0):
        raise ValueError("lower_regular regime needs c > 0")
    if regime == "doubling" and (D is None or D < 1):
        raise ValueError("doubling regime needs D >= 1")
    if regime == "doubling":
        for Q in tree:
            if not _doubling_ok(mu, Q, tree.top, 2.0**D):
                raise TreeStructureError(f"doubling hypothesis fails at member {Q}")
    if regime == "lower_regular":
        for Q in tree:
            if not _lower_regular_ok(mu, Q, c):
                raise TreeStructureError(f"lower-regular hypothesis fails at member {Q}")
    if cache is None:
        cache = BetaCache(mu)
    nets = nets_from_tree(mu, tree, cstar=4.0)
    keys = [(k, i) for k in range(1, nets.K + 1) for i in range(len(nets.levels[k]))]
    fitted = pmap(
        lambda key: _witness_line_alpha(mu, cache, tree, nets, regime, p, c, D, refine, key),
        keys,
    )
    lines = {key: line for key, (line, _) in zip(keys, fitted)}
    theory = {key: alpha for key, (_, alpha) in zip(keys, fitted)}
    alphas = fit_alphas(nets, lines=lines)
    for key in keys:
        line, fitted_alpha = alphas.entries[key]
        alphas.entries[key] = (line, max(fitted_alpha, theory[key]))
    curve = construct_curve(nets, alphas, epsilon=epsilon)
    segs = [
        (np.asarray(s.a, dtype=float), np.asarray(s.b, dtype=float))
        for s in curve.segments
    ]
    children = {Q: tree.children_in_tree(Q) for Q in tree.members}
    leaf_centers = [
        mu.center_of_mass(Q.triple()) for Q in tree if not children[Q] and mu.mass(Q.triple()) > 0
    ]
    tol = 2.0 * nets.cstar * nets.sep(nets.K) + tree.top.side * math.sqrt(mu.dim) * 2.0 ** (
        -(nets.K)
    )
    if leaf_centers and segs:
        max_dist = hausdorff_to_segments(np.array(leaf_centers), segs)
    elif leaf_centers:
        only = np.asarray(curve.graph.vertices[0], dtype=float) if curve.graph.vertices else None
        max_dist = (
            max(float(np.linalg.norm(lc - only)) for lc in leaf_centers)
            if only is not None
            else math.inf
        )
    else:
        max_dist = 0.0
    coverage = {"max_leaf_distance": max_dist, "tolerance": tol, "ok": max_dist <= tol}
    if not coverage["ok"]:
        raise CertificateError(f"leaf coverage failed: {max_dist} > {tol}")
    acct = dict(curve.accounting)
    pw = p if isinstance(p, (int, float)) else 2
    if regime == "lower_regular":
        rep = square_sum(mu, "s_star_c_tree", tree=tree, p=p, c=c, cache=cache, refine=refine)
        acct["regime_budget"] = 48.0 * max(1.0 / c, 1.0) * rep.total
        acct["regime_sum"] = rep.total
    elif regime == "plain_star_star":
        # the s_star_star terms (cubes with mu(3Q) > 0) of the members only
        total = 0.0
        for Q in tree:
            if mu.mass(Q.triple()) > 0:
                bv = beta_multi(mu, Q, p, "star_star", cache=cache, refine=refine)
                total += bv.value**2 * Q.diameter
        acct["regime_budget"] = 48.0 * total
        acct["regime_sum"] = total
    else:
        rep = square_sum(mu, "s_p_tree", tree=tree, p=p, cache=cache)
        factor = (3200.0 * math.sqrt(mu.dim)) ** (2.0 * D / pw)
        acct["regime_budget"] = factor * rep.total
        acct["regime_sum"] = rep.total
    acct["regime"] = regime
    return DrawResult(curve=curve, nets=nets, accounting=acct, coverage=coverage, regime=regime)


# ---------------------------------------------------------------------------
# whole-support cover


@dataclass
class CoverResult:
    curves: list[DrawResult]
    connectors: list[tuple]
    accounting: dict


def cover_support(mu: DiscreteMeasure, p=2, k_max: int = 6) -> CoverResult:
    """One curve per top cube, plus nearest-vertex connectors.

    The top cubes are the dyadic cubes holding atoms at scale
    k0 = max(0, floor(-log2 diam spt mu)): the finest scale whose side is
    still at least diam spt mu, capped at side 1. They are disjoint and
    partition the support; when diam spt mu <= 1 there are at most 2^n of
    them, joined by at most 2^n - 1 connectors. Each top grows the full tree
    of descendants whose triples carry mass down to scale k_max and is drawn
    with the coupled-beta regime. Connectors join consecutive curves at
    their nearest vertex pair and are accounted separately.
    """
    if len(mu.points) == 0:
        raise EmptyInput("cover_support needs a nonempty measure")
    diam = mu.support_diameter()
    if diam == 0.0:
        acct = {"length_total": 0.0, "connector_length": 0.0, "diam_support": 0.0}
        return CoverResult([], [], acct)
    k0 = max(0, math.floor(-math.log2(diam)))
    cache = BetaCache(mu)
    tops = [DyadicCube(k0, cell) for cell in sorted(mu._cells(k0))]
    results: list[DrawResult] = []
    for top in tops:
        members = {top}
        frontier = [top]
        while frontier:
            Q = frontier.pop()
            if Q.k >= k_max:
                continue
            for child in Q.children():
                if mu.mass(child.triple()) > 0:
                    members.add(child)
                    frontier.append(child)
        tree = CubeTree(top, frozenset(members))
        results.append(
            draw_through_tree(mu, tree, p=p, regime="plain_star_star", cache=cache)
        )
    connectors: list[tuple] = []
    total_conn = 0.0
    for prev, cur in zip(results, results[1:]):
        va = [np.asarray(t, dtype=float) for t in prev.curve.graph.vertices]
        vb = [np.asarray(t, dtype=float) for t in cur.curve.graph.vertices]
        best = None
        for a in va:
            for b_ in vb:
                d = float(np.linalg.norm(a - b_))
                if best is None or d < best[0]:
                    best = (d, tuple(a), tuple(b_))
        if best is not None and best[0] > 0:
            connectors.append(best)
            total_conn += best[0]
    length_total = float(sum(r.accounting["length_dedup"] for r in results))
    # the draws' refine policy, so every beta of the sum is computed once
    srep = square_sum(mu, "s_star_star", k_range=range(k0, k_max + 1), cache=cache, p=p, refine=False)
    acct = {
        "n_top_cubes": len(tops),
        "diam_support": diam,
        "length_total": length_total,
        "connector_length": total_conn,
        "s_star_star": srep.total,
        "bound_reference": diam + srep.total,
    }
    return CoverResult(results, connectors, acct)


# ---------------------------------------------------------------------------
# decomposition estimator


@dataclass
class AtomReport:
    index: int
    density: float
    jones: float
    jones_divergent: bool
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

    def labels(self) -> list[str]:
        return [a.label for a in self.atoms]


def decompose_estimate(
    mu: DiscreteMeasure,
    p=2,
    c_ladder=(0.01, 0.1, 1.0),
    N_cap: float = 1e3,
    eps_ladder=(0.5, 0.1),
    k_max: int = 8,
    capture_tol: float | None = None,
    refine: bool = False,
) -> DecompositionReport:
    """Desk-scale rectifiable/unrectifiable labeling with drawn curves.

    An atom is a rect-candidate when for some ladder value c its density
    estimate clears (3/2) sqrt(n) c and its truncated c-qualified Jones
    value stays at or below N_cap without divergence. Rect-candidates seed
    lower-regular trees (deduplicated by base cube), localized against
    b = beta^2 diam with the eps ladder, and the good trees are drawn;
    captured mass is the rect-candidate mass within tolerance of any curve.
    A tree that cannot be grown or drawn is listed in `dropped` with the
    grow diagnostic or the drawing error. All thresholds are reported, none
    are asserted as ground truth.
    """
    n = mu.dim
    cache = BetaCache(mu)
    radii = [2.0 ** (-j) for j in range(min(k_max, 20) + 1)]
    atoms: list[AtomReport] = []

    def density_est(i: int) -> float:
        prof = mu.density_profile(mu.points[i], radii)
        return prof.estimate

    densities = pmap(density_est, range(len(mu.points)))
    jones_memo: dict[tuple[int, float], tuple[float, bool]] = {}

    def jones_val(i: int, c: float) -> tuple[float, bool]:
        key = (i, c)
        if key not in jones_memo:
            rep = jones_at(mu, mu.points[i], p=p, variant="star_c", c=c, k_max=k_max, cache=cache, refine=refine)
            jones_memo[key] = (rep.value, rep.divergent)
        return jones_memo[key]

    for i in range(len(mu.points)):
        dens = densities[i]
        label, reason, c_used, jval, jdiv = "unrect-candidate", None, None, math.inf, False
        density_cleared = False
        for c in c_ladder:
            if dens > 1.5 * math.sqrt(n) * c:
                density_cleared = True
                jval, jdiv = jones_val(i, c)
                if not jdiv and jval <= N_cap:
                    label, c_used, reason = "rect-candidate", c, None
                    break
        if label != "rect-candidate":
            if not density_cleared:
                reason = "density_below_threshold"
            elif jdiv:
                reason = "jones_divergent"
            else:
                reason = "jones_above_cap"
            jval, jdiv = jones_val(i, min(c_ladder)) if density_cleared else (jval, jdiv)
        atoms.append(AtomReport(i, float(dens), float(jval), bool(jdiv), c_used, label, reason))

    curves: list[DrawResult] = []
    dropped: list[DroppedTree] = []
    seen_bases: set = set()
    for rep in atoms:
        if rep.label != "rect-candidate":
            continue
        c = rep.c_used
        _r_x, base = base_cube_for(mu, mu.points[rep.index], "lower_regular", c=c, k_max=k_max)
        # without a base cube there is nothing to share: grow_tree says why
        if base is not None and (c, base) in seen_bases:
            continue
        seen_bases.add((c, base))
        grown = grow_tree(mu, mu.points[rep.index], "lower_regular", c=c, k_max=k_max)
        if grown.tree is None:
            dropped.append(DroppedTree(rep.index, c, base, grown.diagnostic))
            continue
        b_map = {}
        for Q in grown.tree.members:
            bv = beta_multi(mu, Q, p, "star_c", c=c, refine=refine, cache=cache)
            b_map[Q] = bv.value**2 * Q.diameter
        tree = grown.tree
        for eps in eps_ladder:
            loc = localize(tree, b_map, mu, N=N_cap, eps=eps)
            if loc.good is not None:
                tree = loc.good
                break
        try:
            curves.append(
                draw_through_tree(mu, tree, p=p, regime="lower_regular", c=c, cache=cache, refine=refine)
            )
        except (TreeStructureError, CertificateError) as exc:
            dropped.append(DroppedTree(rep.index, c, base, f"{type(exc).__name__}: {exc}"))
    rect_ids = [a.index for a in atoms if a.label == "rect-candidate"]
    rect_mass = float(mu.weights[rect_ids].sum()) if rect_ids else 0.0
    captured_ids: list[int] = []
    if rect_ids and curves:
        seg_pool = []
        tol_pool = []
        for dr in curves:
            segs = [
                (np.asarray(s.a, dtype=float), np.asarray(s.b, dtype=float))
                for s in dr.curve.segments
            ]
            if not segs:
                verts = dr.curve.graph.vertices
                if verts:
                    v = np.asarray(verts[0], dtype=float)
                    segs = [(v, v)]
            seg_pool.append(segs)
            tol_pool.append(
                capture_tol
                if capture_tol is not None
                else dr.coverage["tolerance"] + 2.0 ** (-k_max) * math.sqrt(n)
            )
        for i in rect_ids:
            x = mu.points[i]
            for segs, tol in zip(seg_pool, tol_pool):
                if segs and hausdorff_to_segments(x[None, :], segs) <= tol:
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
        "refine": refine,
        "density_factor": 1.5 * math.sqrt(n),
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
