"""Half-open dyadic cubes, dilations, nearby-cube families, and cube trees.

A dyadic cube at scale k has side 2^-k and corner coordinates j * 2^-k for an
integer index vector j; the cube is the half-open product of [j_i 2^-k,
(j_i + 1) 2^-k). Every point lies in exactly one cube per scale, so membership
is computed by integer floor, never by interval comparisons.

The nearby-cube family of Q collects the cubes R at the scale of Q and one
scale coarser whose concentric triple 3R sits inside the closed 1600 sqrt(n)
dilate of Q. Membership reduces to an exact integer inequality per axis
(squaring removes the sqrt), so no floating point is involved:

    same scale:     (2 |i - j| + 3)^2 <= 2560000 n
    coarser scale:  (|4 m + 1 - 2 j| + 6)^2 <= 2560000 n

The family has millions of members in n >= 2 (its size is scale-free and
translation-invariant); it is exposed as a membership test plus an exact count.
Callers that pair the family with a measure should enumerate only the
mass-carrying members, since empty cubes contribute zero to every statistic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatch, TreeStructureError

#: dilation factor of the nearby-cube membership box, as a multiple of sqrt(n)
NEARBY_DILATION = 1600
_NEARBY_SQ = NEARBY_DILATION * NEARBY_DILATION  # 2 560 000


@dataclass(frozen=True)
class Box:
    """Closed axis-parallel cube given by center and half-side.

    `triple_of` is set on the box DyadicCube.triple() returns: it names the
    cube whose triple this is, so a measure can answer the box from its
    per-scale grid. It takes no part in equality or hashing.
    """

    center: tuple[float, ...]
    half: float
    triple_of: "DyadicCube | None" = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def side(self) -> float:
        return 2.0 * self.half

    @property
    def diameter(self) -> float:
        return self.side * float(np.sqrt(self.dim))

    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    def contains_mask(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise DimensionMismatch("point dimension does not match box")
        # compare against the faces: |x - c| rounds, while the faces of a
        # dyadic box are exact, so a point just outside one stays outside
        c = self.center_array()
        return np.all((c - self.half <= X) & (X <= c + self.half), axis=1)

    def contains_point(self, x) -> bool:
        return bool(self.contains_mask(np.asarray(x, dtype=float).reshape(1, -1))[0])


@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube of side 2^-k with integer corner index."""

    k: int
    index: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.k)

    @property
    def diameter(self) -> float:
        return self.side * float(np.sqrt(self.dim))

    def corner(self) -> np.ndarray:
        return np.asarray(self.index, dtype=float) * self.side

    def center(self) -> np.ndarray:
        return (np.asarray(self.index, dtype=float) + 0.5) * self.side

    def triple(self) -> Box:
        """The concentric closed cube of three times the side."""
        return Box(tuple(self.center()), 1.5 * self.side, self)

    def contains_mask(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise DimensionMismatch("point dimension does not match cube")
        idx = np.floor(X * 2.0**self.k).astype(np.int64)
        return np.all(idx == np.asarray(self.index, dtype=np.int64), axis=1)

    def contains_point(self, x) -> bool:
        return bool(self.contains_mask(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def parent(self) -> "DyadicCube":
        return DyadicCube(self.k - 1, tuple(i // 2 for i in self.index))

    def children(self) -> list["DyadicCube"]:
        offs = itertools.product((0, 1), repeat=self.dim)
        return [
            DyadicCube(self.k + 1, tuple(2 * i + o for i, o in zip(self.index, off)))
            for off in offs
        ]

    def contains_cube(self, R: "DyadicCube") -> bool:
        """Set containment R subseteq self (exact integer arithmetic)."""
        if R.dim != self.dim or R.k < self.k:
            return False
        shift = R.k - self.k
        return all(i >> shift == j for i, j in zip(R.index, self.index))

    def ancestor_at(self, k: int) -> "DyadicCube":
        if k > self.k:
            raise ValueError("ancestor scale must be coarser")
        shift = self.k - k
        return DyadicCube(k, tuple(i >> shift for i in self.index))


def cube_at(x, k: int) -> DyadicCube:
    """The unique scale-k dyadic cube containing x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    idx = np.floor(x * 2.0**k).astype(np.int64)
    return DyadicCube(int(k), tuple(int(i) for i in idx))


def chain_of_cubes(x, k_max: int, k_min: int = 0) -> list[DyadicCube]:
    """Nested cubes containing x at scales k_min..k_max (coarse to fine)."""
    if k_max < k_min:
        raise ValueError("k_max must be >= k_min")
    return [cube_at(x, k) for k in range(k_min, k_max + 1)]


# ---------------------------------------------------------------------------
# nearby-cube family


def same_scale_radius(n: int) -> int:
    """Largest |i - j| per axis admitted at the scale of Q."""
    return (isqrt(_NEARBY_SQ * n) - 3) // 2


def parent_scale_bound(n: int) -> int:
    """Largest |4m + 1 - 2j| per axis admitted one scale coarser."""
    return isqrt(_NEARBY_SQ * n) - 6


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


# ---------------------------------------------------------------------------
# cube trees


class CubeTree:
    """A finite tree of dyadic cubes: unique top, closed under ancestors.

    Members must all be contained in the top cube, and for every member Q the
    whole chain of dyadic ancestors between Q and the top must be present.
    """

    def __init__(self, top: DyadicCube, members: Iterable[DyadicCube]):
        self.top = top
        self.members = frozenset(members)
        if top not in self.members:
            raise TreeStructureError("top cube must be a member")
        for Q in self.members:
            if not top.contains_cube(Q):
                raise TreeStructureError(f"member {Q} is not contained in the top cube")
            R = Q
            while R != top:
                R = R.parent()
                if R not in self.members:
                    raise TreeStructureError(
                        f"missing ancestor {R} between {Q} and the top"
                    )

    @classmethod
    def from_cubes(cls, cubes: Iterable[DyadicCube]) -> "CubeTree":
        cubes = list(cubes)
        if not cubes:
            raise TreeStructureError("empty cube family")
        top_candidates = [
            Q for Q in cubes if not any(R.contains_cube(Q) and R != Q for R in cubes)
        ]
        if len(top_candidates) != 1:
            raise TreeStructureError(
                f"expected a unique maximal cube, found {len(top_candidates)}"
            )
        return cls(top_candidates[0], cubes)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, Q: DyadicCube) -> bool:
        return Q in self.members

    def __iter__(self) -> Iterator[DyadicCube]:
        return iter(sorted(self.members, key=lambda Q: (Q.k, Q.index)))

    @property
    def max_scale(self) -> int:
        return max(Q.k for Q in self.members)

    def cubes_at_scale(self, k: int) -> list[DyadicCube]:
        return sorted((Q for Q in self.members if Q.k == k), key=lambda Q: Q.index)

    def children_in_tree(self, Q: DyadicCube) -> list[DyadicCube]:
        return [C for C in Q.children() if C in self.members]

    def restrict_to_full_branches(self, k: int) -> "CubeTree":
        """Keep only cubes lying on a branch that reaches scale k."""
        deep = [Q for Q in self.members if Q.k == k]
        keep: set[DyadicCube] = set()
        for Q in deep:
            R = Q
            keep.add(R)
            while R != self.top:
                R = R.parent()
                keep.add(R)
        if not keep:
            raise TreeStructureError(f"no branch reaches scale {k}")
        return CubeTree(self.top, keep)


def leaves(tree: CubeTree, k_max: int | None = None) -> tuple[list[DyadicCube], float]:
    """Deepest-scale members approximating the leaves of the tree.

    Returns (cubes at scale k_max, error bound), where the bound is the
    diameter of one such cube: every true leaf point of an infinite
    refinement lies within that distance of the closure of a returned cube.
    """
    if k_max is None:
        k_max = tree.max_scale
    cubes = tree.cubes_at_scale(k_max)
    bound = 2.0 ** (-k_max) * float(np.sqrt(tree.top.dim))
    return cubes, bound
