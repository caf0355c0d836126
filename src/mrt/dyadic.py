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
translation-invariant); it is exposed as the per-axis bounds of that test.
Callers that pair the family with a measure should enumerate only the
mass-carrying members, since empty cubes contribute zero to every statistic.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Iterator

import numpy as np

from .errors import ScaleOverflow, TreeStructureError

#: dilation factor of the nearby-cube membership box, as a multiple of sqrt(n)
NEARBY_DILATION = 1600
_NEARBY_SQ = NEARBY_DILATION * NEARBY_DILATION  # 2 560 000
# cell indices stay below this in magnitude (see cell_index)
_MAX_CELL_INDEX = 2.0**60


@dataclass(frozen=True)
class Box:
    """The closed triple of a dyadic cube, given by center and half-side.

    `triple_of` names the cube whose triple this is, so a measure answers
    the box from its per-scale triple table. It takes no part in equality
    or hashing.
    """

    center: tuple[float, ...]
    half: float
    triple_of: "DyadicCube" = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def side(self) -> float:
        return 2.0 * self.half

    @property
    def diameter(self) -> float:
        return self.side * float(np.sqrt(self.dim))


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

    def center(self) -> np.ndarray:
        return (np.asarray(self.index, dtype=float) + 0.5) * self.side

    def triple(self) -> Box:
        """The concentric closed cube of three times the side."""
        return Box(tuple(self.center()), 1.5 * self.side, self)

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


def cell_index(X, k: int) -> np.ndarray:
    """Integer index of the scale-k cube holding each coordinate, floor(x 2^k).

    Scaling is by np.ldexp, which is exact where x 2^k is finite and gives
    inf where it is not, so every overflow reaches the check: it raises
    ScaleOverflow when an index reaches 2^60 in magnitude, since past 2^63
    the int64 cast wraps to INT64_MIN, and the nearby-family test forms
    4 j + 1 - 2 i, which must stay inside int64 too.
    """
    with np.errstate(over="ignore"):
        f = np.floor(np.ldexp(np.asarray(X, dtype=float), k))
    if not (np.abs(f) < _MAX_CELL_INDEX).all():
        raise ScaleOverflow(f"cell index at scale {k} reaches 2^60; coordinates or scale too large")
    return f.astype(np.int64)


def checked_length(length: float, what: str) -> float:
    """length, a scale-k length such as 2^-k r, once it is a normal float.

    Raises ScaleOverflow when it is zero or subnormal: such a length has lost
    bits, and below 2^-1024 its reciprocal is inf, which turns a beta or a
    density ratio into NaN.
    """
    if not length >= sys.float_info.min:
        raise ScaleOverflow(f"{what} underflows to {length!r}, below the normal float range")
    return length


def cube_at(x, k: int) -> DyadicCube:
    """The unique scale-k dyadic cube containing x."""
    idx = cell_index(np.asarray(x, dtype=float).reshape(-1), k)
    return DyadicCube(int(k), tuple(int(i) for i in idx))


# ---------------------------------------------------------------------------
# nearby-cube family


def same_scale_radius(n: int) -> int:
    """Largest |i - j| per axis admitted at the scale of Q."""
    return (isqrt(_NEARBY_SQ * n) - 3) // 2


def parent_scale_bound(n: int) -> int:
    """Largest |4m + 1 - 2j| per axis admitted one scale coarser."""
    return isqrt(_NEARBY_SQ * n) - 6


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

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, Q: DyadicCube) -> bool:
        return Q in self.members

    def __iter__(self) -> Iterator[DyadicCube]:
        return iter(sorted(self.members, key=lambda Q: (Q.k, Q.index)))

    def cubes_at_scale(self, k: int) -> list[DyadicCube]:
        return sorted((Q for Q in self.members if Q.k == k), key=lambda Q: Q.index)

    def children_in_tree(self, Q: DyadicCube) -> list[DyadicCube]:
        return [C for C in Q.children() if C in self.members]
