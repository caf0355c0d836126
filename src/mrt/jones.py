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

square_sum lists, for the scale-indexed companion sums (over a cube family
instead of a chain), the set beta and the coupled beta** of every cube whose
triple carries mass; the caller forms each term and total from the rows.
"""

from __future__ import annotations

import warnings

import numpy as np

from .beta import BetaCache, beta_best, beta_multi, beta_sup_set
from .dyadic import DyadicCube
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
    p is the exponent of the tilde variant's best-line beta, and p > 2
    triggers a warning (the p=2 theory is the sharp one; larger p only
    weakens the statistics). The star variants' coupled betas take p = 2
    only, and beta_multi raises ValueError on any other p.

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


def square_sum(mu: DiscreteMeasure, k_range) -> list[tuple[DyadicCube, float, float]]:
    """One (Q, set beta, beta**) row per cube Q with mu(3Q) > 0 at the scales in k_range.

    The rows run scale by scale in k_range, each scale's cubes in the order
    of mass_triples(k), so row by row they are the terms of two sums:

      sum of beta_sup_set(E cap 3Q, 3Q)^2 diam Q, the set TST sum of the
        support E of mu, whose cubes with 3Q meeting E are exactly these;
      sum of beta_multi(star_star)^2 diam Q, a desk-scale truncation that
        omits the faraway empty cubes whose dilate still reaches the support
        (their terms are small but nonzero).
    """
    cache = BetaCache(mu)
    rows = []
    for k in k_range:
        for Q, atoms, _mass in cache.mass_triples(k):
            b_set = beta_sup_set(mu.points[atoms], Q.triple())
            rows.append((Q, b_set, beta_multi(mu, Q, variant="star_star", cache=cache).value))
    return rows
