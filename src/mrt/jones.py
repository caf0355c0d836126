"""Density-normalized multiscale square functions (Jones functions).

For an atom x of mu and unit-or-smaller dyadic scales 0..k_max, the chain of
cubes containing x contributes one term per scale:

    J(x) = sum_k beta(Q_k)^2 * diam Q_k / mu(Q_k)

where beta is one of

    variant "star"      coupled nearby-family beta (weight min(mass/diam, 1))
    variant "star_c"    c-qualified nearby-family beta (weight min(c, 1))
    variant "star_star" coupled nearby-family beta, unsquared max inside
    variant "tilde"     best-line beta of the concentric triple 3Q_k

x is an atom, so it lies in every cube of its chain: mu(Q_k) > 0 and every
term is finite. The chain is read from the measure, which owns each atom's
cell at every scale (DiscreteMeasure.cells). By default each atom's sum stops
at the first scale whose cell holds at most one atom of mu, or at scale 40
for coincident atoms.

square_sum computes the scale-indexed companion sums (over a cube family
instead of a chain): the mass-carrying family per scale, a cube tree, or the
set version over the support of mu. Each report carries a per-cube ledger so
totals can be cross-checked independently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .beta import BetaCache, beta_best, beta_multi, beta_sup_set
from .dyadic import CubeTree, DyadicCube
from .measure import DiscreteMeasure, group_rows

JONES_VARIANTS = ("star", "tilde", "star_star", "star_c")


# the deepest scale a default truncation reaches
_KMAX_CAP = 40


def jones_at(
    mu: DiscreteMeasure,
    atoms,
    p=2,
    variant: str = "star",
    k_max: int | None = None,
    c: float | None = None,
    cache: BetaCache | None = None,
    refine: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Jones function of mu at the given atom indices: (values, k_max per atom).

    k_max=None truncates each atom at the first scale whose cell holds at
    most one atom of mu, and at scale 40 if none does (coincident atoms).
    p > 2 triggers a warning (the p=2 theory is the sharp one; larger p only
    weakens the statistics).

    One pass runs coarse to fine. At each scale the atoms still summing are
    grouped by the cell that holds them, read from the measure's `cells(k)`;
    each cell's beta and mass are computed once and its term is added to each
    of its atoms. Under the default truncation an atom stops after the term
    of a scale whose cell holds at most one atom. Every atom adds its chain's
    terms in chain order, so its value does not depend on which other atoms
    share the call.
    """
    if variant not in JONES_VARIANTS:
        raise ValueError(f"variant must be one of {JONES_VARIANTS}")
    if isinstance(p, (int, float)) and p > 2:
        warnings.warn("p > 2 beta numbers are larger and the sums may diverge faster")
    atoms = np.asarray(atoms, dtype=np.int64).reshape(-1)
    last = _KMAX_CAP if k_max is None else k_max
    kmax = np.full(len(atoms), last, dtype=np.int64)
    if cache is None:
        cache = BetaCache(mu)
    values = np.zeros(len(atoms))
    live = np.arange(len(atoms))
    for k in range(last + 1):
        if len(live) == 0:
            # no atom sums at a finer scale, whose cells could overflow
            break
        for idx, rows in group_rows(mu.cells(k)[atoms[live]], live).items():
            Q = DyadicCube(k, idx)
            if variant == "tilde":
                beta = beta_best(mu, Q.triple(), p).value
            else:
                beta = beta_multi(mu, Q, p, variant, c=c, refine=refine, cache=cache).value
            values[rows] += beta * beta * Q.diameter / mu.mass(Q)
            if k_max is None and len(mu.cell_table(k)[idx]) <= 1:
                kmax[rows] = k
        live = live[kmax[live] > k]
    return values, kmax


# ---------------------------------------------------------------------------
# scale-indexed square sums


@dataclass
class SquareSumReport:
    """A beta-squared sum with its per-cube ledger."""

    kind: str
    total: float
    ledger: list[tuple[DyadicCube, float, float]]  # (cube, beta, term)
    family: str


def mass_cube_family(
    mu: DiscreteMeasure, k_range, cache: BetaCache | None = None
) -> list[DyadicCube]:
    """Cubes with mu(3Q) > 0 at each scale in k_range, sorted."""
    if cache is None:
        cache = BetaCache(mu)
    out: list[DyadicCube] = []
    for k in k_range:
        out.extend(R for (R, _, _) in cache.mass_triples(k))
    return out


def square_sum(
    mu: DiscreteMeasure,
    kind: str,
    *,
    k_range=None,
    tree: CubeTree | None = None,
    p=2,
    c: float | None = None,
    cache: BetaCache | None = None,
    refine: bool = True,
) -> SquareSumReport:
    """Scale-indexed beta-squared sums.

    kind:
      "s_star_star"   sum of beta_multi(star_star)^2 diam Q over the
                      mass-carrying family {Q : mu(3Q) > 0} at scales k_range
      "s_star_c_tree" sum of beta_multi(star_c)^2 diam Q over a cube tree
      "beta_sq_set"   sum of beta_sup_set(E cap 3Q, 3Q)^2 diam Q over cubes
                      whose triple meets E, the support of mu, at scales
                      k_range

    The mass-carrying family for s_star_star is a desk-scale truncation:
    faraway empty cubes whose dilate still reaches the support are omitted
    (their terms are small but nonzero); the report names the family.
    """
    ledger: list[tuple[DyadicCube, float, float]] = []
    if cache is None:
        cache = BetaCache(mu)
    if kind == "s_star_star":
        if k_range is None:
            raise ValueError("s_star_star needs k_range")
        for Q in mass_cube_family(mu, k_range, cache):
            bv = beta_multi(mu, Q, p, "star_star", cache=cache, refine=refine)
            ledger.append((Q, bv.value, bv.value**2 * Q.diameter))
        family = "cubes with mu(3Q) > 0 at scales in k_range"
    elif kind == "s_star_c_tree":
        if tree is None or c is None:
            raise ValueError("s_star_c_tree needs tree and c")
        for Q in tree:
            bv = beta_multi(mu, Q, p, "star_c", c=c, cache=cache, refine=refine)
            ledger.append((Q, bv.value, bv.value**2 * Q.diameter))
        family = "all member cubes of the tree"
    elif kind == "beta_sq_set":
        if k_range is None:
            raise ValueError("beta_sq_set needs k_range")
        # the cubes whose triple meets the support are the mass-carrying
        # triples of mu, and each lists the support points in its triple
        for k in k_range:
            for Q, atoms, _mass in cache.mass_triples(k):
                b = beta_sup_set(mu.points[atoms], Q.triple())
                ledger.append((Q, b, b * b * Q.diameter))
        family = "cubes whose triple meets the point set, at scales in k_range"
    else:
        raise ValueError(f"unknown square_sum kind {kind!r}")
    total = float(sum(t for (_, _, t) in ledger))
    return SquareSumReport(kind=kind, total=total, ledger=ledger, family=family)
