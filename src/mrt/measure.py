"""Finitely supported weighted point measures.

A DiscreteMeasure is an atom array with strictly positive weights. Region
conventions: dyadic cubes are half-open (a point lies in exactly one cube per
scale), while boxes and balls are closed. Ball masses back the density and
doubling profiles, where the 0/0 convention is "flagged, excluded", never a
silent number.

Region queries (atoms_in, mass, center_of_mass, restrict) take one path per
kind of region. Dyadic cubes and their triples (the boxes Q.triple() returns)
are answered from a uniform grid bucket index per dyadic scale (atom ->
integer cell), built once per scale and reused; only balls and free boxes
scan every atom. Box faces are compared exactly (c - h <= x <= c + h), so a
triple holds the same atoms by either path. All mass sums run over atom
indices in ascending order, so results are bit-identical across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dyadic import Box, DyadicCube
from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidWeight,
    ZeroMassRegion,
)


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: tuple[float, ...]
    radius: float

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    def contains_mask(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise DimensionMismatch("point dimension does not match ball")
        d2 = ((X - self.center_array()) ** 2).sum(axis=1)
        return d2 <= self.radius * self.radius


Region = DyadicCube | Box | Ball


@dataclass
class DensityProfile:
    """Ball-mass to diameter ratios mu(B(x, r)) / (2r) along a radius ladder."""

    point: np.ndarray
    radii: np.ndarray  # strictly decreasing
    masses: np.ndarray
    ratios: np.ndarray
    running_min: np.ndarray

    @property
    def estimate(self) -> float:
        """Lower-density estimate: the minimum ratio over the ladder."""
        return float(self.ratios.min())


@dataclass
class DoublingProfile:
    """Ratios mu(B(x, 2r)) / mu(B(x, r)); zero-mass radii are flagged."""

    point: np.ndarray
    radii: np.ndarray
    ratios: np.ndarray
    flagged: np.ndarray  # True where mu(B(x, r)) = 0 (ratio recorded as 0)

    @property
    def estimate(self) -> float:
        """Max unflagged ratio (0.0 if every radius was flagged)."""
        if np.all(self.flagged):
            return 0.0
        return float(self.ratios[~self.flagged].max())


class DiscreteMeasure:
    """A finite sum of weighted Dirac masses in R^n."""

    def __init__(self, points, weights):
        X = np.asarray(points, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2 or X.shape[0] == 0:
            raise EmptyInput("measure needs at least one atom")
        if not np.all(np.isfinite(X)):
            raise InvalidWeight("atom coordinates must be finite")
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != X.shape[0]:
            raise DimensionMismatch(
                f"{X.shape[0]} atoms but {w.shape[0]} weights"
            )
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InvalidWeight("weights must be finite and strictly positive")
        self.points = X.copy()
        self.weights = w.copy()
        self.points.setflags(write=False)
        self.weights.setflags(write=False)
        self._cell_cache: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
        self._diameter: float | None = None

    # -- basic facts --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points.min(axis=0), self.points.max(axis=0)

    def support_diameter(self) -> float:
        if self._diameter is None:
            X = self.points
            best = 0.0
            step = max(1, 4_000_000 // max(len(X), 1))
            for i in range(0, len(X), step):
                chunk = X[i : i + step]
                d2 = ((chunk[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
                best = max(best, float(d2.max()))
            self._diameter = float(np.sqrt(best))
        return self._diameter

    # -- region queries -----------------------------------------------------

    def _cells(self, k: int) -> dict[tuple[int, ...], np.ndarray]:
        cache = self._cell_cache.get(k)
        if cache is None:
            idx = np.floor(self.points * 2.0**k).astype(np.int64)
            cache = {}
            order = np.lexsort(idx.T[::-1])
            sorted_idx = idx[order]
            start = 0
            for i in range(1, len(order) + 1):
                if i == len(order) or not np.array_equal(sorted_idx[i], sorted_idx[start]):
                    key = tuple(int(v) for v in sorted_idx[start])
                    cache[key] = np.sort(order[start:i])
                    start = i
            self._cell_cache[k] = cache
        return cache

    def atoms_in_cube(self, Q: DyadicCube) -> np.ndarray:
        """Ascending indices of atoms in the half-open cube Q."""
        if Q.dim != self.dim:
            raise DimensionMismatch("cube dimension does not match measure")
        return self._cells(Q.k).get(Q.index, np.empty(0, dtype=np.int64))

    def atoms_in_triple(self, Q: DyadicCube) -> np.ndarray:
        """Ascending indices of atoms in the closed triple 3Q."""
        if Q.dim != self.dim:
            raise DimensionMismatch("cube dimension does not match measure")
        cells = self._cells(Q.k)
        parts = []
        # the closed triple meets grid cells index-1 .. index+2 per axis
        for off in itertools.product((-1, 0, 1, 2), repeat=Q.dim):
            key = tuple(i + o for i, o in zip(Q.index, off))
            hit = cells.get(key)
            if hit is not None:
                parts.append(hit)
        if not parts:
            return np.empty(0, dtype=np.int64)
        cand = np.unique(np.concatenate(parts))
        mask = Q.triple().contains_mask(self.points[cand])
        return cand[mask]

    def atoms_in(self, region: Region) -> np.ndarray:
        """Ascending atom indices in a region (cube half-open, box/ball closed).

        Cubes and triples come from the grid; other regions scan all atoms.
        """
        if isinstance(region, DyadicCube):
            return self.atoms_in_cube(region)
        if isinstance(region, Box) and region.triple_of is not None:
            return self.atoms_in_triple(region.triple_of)
        mask = region.contains_mask(self.points)
        return np.flatnonzero(mask)

    def mass(self, region: Region) -> float:
        return float(self.weights[self.atoms_in(region)].sum())

    def mass_ball(self, x, r: float) -> float:
        X = self.points
        x = np.asarray(x, dtype=float).reshape(-1)
        d2 = ((X - x) ** 2).sum(axis=1)
        return float(self.weights[d2 <= r * r].sum())

    def center_of_mass(self, region: Region | None = None) -> np.ndarray:
        """Weighted mean of the atoms in the region (whole measure if None)."""
        if region is None:
            idx = np.arange(len(self))
        else:
            idx = self.atoms_in(region)
        w = self.weights[idx]
        W = float(w.sum())
        if W <= 0.0:
            raise ZeroMassRegion("center of mass of a zero-mass region")
        return (w @ self.points[idx]) / W

    def restrict(self, region: Region) -> "DiscreteMeasure":
        idx = self.atoms_in(region)
        if len(idx) == 0:
            raise ZeroMassRegion("restriction to a region with no atoms")
        return DiscreteMeasure(self.points[idx], self.weights[idx])

    # -- profiles ------------------------------------------------------------

    def density_profile(self, x, radii) -> DensityProfile:
        """Ratios mu(B(x, r)) / (2r) along a decreasing radius ladder."""
        x = np.asarray(x, dtype=float).reshape(-1)
        r = np.unique(np.asarray(radii, dtype=float))[::-1]
        if len(r) == 0 or np.any(r <= 0):
            raise ValueError("radius ladder must contain positive radii")
        masses = np.array([self.mass_ball(x, ri) for ri in r])
        ratios = masses / (2.0 * r)
        return DensityProfile(
            point=x,
            radii=r,
            masses=masses,
            ratios=ratios,
            running_min=np.minimum.accumulate(ratios),
        )

    def doubling_profile(self, x, radii) -> DoublingProfile:
        """Ratios mu(B(x, 2r)) / mu(B(x, r)); flags radii with zero inner mass."""
        x = np.asarray(x, dtype=float).reshape(-1)
        r = np.unique(np.asarray(radii, dtype=float))[::-1]
        if len(r) == 0 or np.any(r <= 0):
            raise ValueError("radius ladder must contain positive radii")
        inner = np.array([self.mass_ball(x, ri) for ri in r])
        outer = np.array([self.mass_ball(x, 2.0 * ri) for ri in r])
        flagged = inner == 0.0
        ratios = np.zeros_like(inner)
        ok = ~flagged
        ratios[ok] = outer[ok] / inner[ok]
        return DoublingProfile(point=x, radii=r, ratios=ratios, flagged=flagged)
