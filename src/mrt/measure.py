"""Finitely supported weighted point measures.

A DiscreteMeasure is an atom array with strictly positive weights. Region
conventions: dyadic cubes are half-open (a point lies in exactly one cube per
scale), while their triples are closed.

The measure owns each atom's cell: `cells(k)` is the index of the scale-k
cube holding each atom, computed once per scale. The cell and triple tables
are built from it, and jones_at and density_profile, which group atoms by
cube, read it instead of walking one atom's chain of cubes.

Region queries (atoms_in, mass, center_of_mass) take one of two paths.
Dyadic cubes and their triples (the boxes Q.triple() returns) are answered
from two tables per dyadic scale, each built once in one vectorized pass and
reused: the cell table maps a cube index to the atoms of the half-open cube,
and the triple table maps every cube index with mu(3Q) > 0 to the atoms of
the closed triple 3Q. The triple pass tests every (atom, candidate cube)
pair against the faces of 3Q (c - h <= x <= c + h, exact on dyadic faces),
so a triple query is one dict lookup. No region query scans every atom. Atom
indices are always ascending and mass sums run over them in that order, so
results are bit-identical across runs.
"""

from __future__ import annotations

import numpy as np

from .dyadic import Box, DyadicCube, cell_index
from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidWeight,
    ZeroMassRegion,
)


Region = DyadicCube | Box

# (atom, candidate cube) pairs tested at once while building a triple table;
# bounds the build's temporaries for any atom count and dimension
_TRIPLE_PAIRS_PER_CHUNK = 1 << 16


def group_rows(keys: np.ndarray, ids: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Map each distinct row of keys to the ids on that row.

    ids must be ascending; the sort is stable, so each key's ids stay
    ascending. The dict is in sorted key order, and its id arrays are
    read-only views of one array.
    """
    if len(ids) == 0:
        return {}
    order = np.lexsort(keys.T[::-1])
    keys, ids = keys[order], ids[order]
    ids.setflags(write=False)
    cut = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    firsts = keys[np.concatenate(([0], cut))].tolist()
    return {tuple(key): part for key, part in zip(firsts, np.split(ids, cut))}


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
        self._index_cache: dict[int, np.ndarray] = {}
        self._cell_cache: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
        self._triple_cache: dict[int, dict[tuple[int, ...], np.ndarray]] = {}

    # -- basic facts --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    # -- region queries -----------------------------------------------------

    def cells(self, k: int) -> np.ndarray:
        """Read-only (atoms, dim) array: the index of the scale-k cube holding each atom."""
        cells = self._index_cache.get(k)
        if cells is None:
            cells = self._index_cache[k] = cell_index(self.points, k)
            cells.setflags(write=False)
        return cells

    def cell_table(self, k: int) -> dict[tuple[int, ...], np.ndarray]:
        """Every scale-k cube index with mu(Q) > 0 -> ascending atom ids of Q.

        The dict is in sorted index order.
        """
        table = self._cell_cache.get(k)
        if table is None:
            table = self._cell_cache[k] = group_rows(self.cells(k), np.arange(len(self)))
        return table

    def triple_table(self, k: int) -> dict[tuple[int, ...], np.ndarray]:
        """Every scale-k cube index with mu(3Q) > 0 -> ascending atom ids of 3Q.

        The dict is in sorted index order. An atom in cell j lies in no
        closed triple but those of the cubes j - 2 .. j + 1 per axis, so the
        build tests each atom against those 4^n triples only.
        """
        table = self._triple_cache.get(k)
        if table is None:
            n = self.dim
            offsets = np.indices((4,) * n).reshape(n, -1).T - 2
            side = 2.0 ** (-k)
            half = 1.5 * side
            cells = self.cells(k)
            step = max(1, _TRIPLE_PAIRS_PER_CHUNK // len(offsets))
            keys, ids = [], []
            for a in range(0, len(self), step):
                X = self.points[a : a + step, None, :]
                R = cells[a : a + step, None, :] + offsets
                # the closed faces of DyadicCube.triple(), exact on dyadic coordinates
                c = (R.astype(float) + 0.5) * side
                hit = np.all((c - half <= X) & (X <= c + half), axis=2)
                atom, cand = np.nonzero(hit)
                keys.append(R[atom, cand])
                ids.append(atom + a)
            table = self._triple_cache[k] = group_rows(np.concatenate(keys), np.concatenate(ids))
        return table

    def atoms_in_cube(self, Q: DyadicCube) -> np.ndarray:
        """Ascending indices of atoms in the half-open cube Q."""
        if Q.dim != self.dim:
            raise DimensionMismatch("cube dimension does not match measure")
        return self.cell_table(Q.k).get(Q.index, np.empty(0, dtype=np.int64))

    def atoms_in_triple(self, Q: DyadicCube) -> np.ndarray:
        """Ascending indices of atoms in the closed triple 3Q."""
        if Q.dim != self.dim:
            raise DimensionMismatch("cube dimension does not match measure")
        return self.triple_table(Q.k).get(Q.index, np.empty(0, dtype=np.int64))

    def atoms_in(self, region: Region) -> np.ndarray:
        """Ascending atom indices in a half-open cube or a closed triple."""
        if isinstance(region, DyadicCube):
            return self.atoms_in_cube(region)
        return self.atoms_in_triple(region.triple_of)

    def mass(self, region: Region) -> float:
        return float(self.weights[self.atoms_in(region)].sum())

    def center_of_mass(self, region: Region) -> np.ndarray:
        """Weighted mean of the atoms in the region."""
        idx = self.atoms_in(region)
        w = self.weights[idx]
        W = float(w.sum())
        if W <= 0.0:
            raise ZeroMassRegion("center of mass of a zero-mass region")
        return (w @ self.points[idx]) / W

    # -- profiles ------------------------------------------------------------

    def density_profile(self, k_max: int) -> np.ndarray:
        """(atoms, k_max + 1) array: mu(3Q_k(x)) for every atom x and scale k = 0..k_max.

        Q_k(x) is the scale-k cube holding x. Each cube's triple mass is
        mass(Q.triple()), computed once and given to every atom of Q, so it
        keeps the bits of any other query of that triple.
        """
        if k_max < 0:
            raise ValueError("density profile needs k_max >= 0")
        masses = np.empty((len(self), k_max + 1))
        for k in range(k_max + 1):
            for idx, ids in self.cell_table(k).items():
                masses[ids, k] = self.mass(DyadicCube(k, idx).triple())
        return masses
