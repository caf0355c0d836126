"""Benchmark inputs: sample measures, seeded motions, and measure files.

The formulas repeat those of the test suite's sample measures
(`tests/_samples.py`); the benchmark keeps its own copy so that the program
only ever receives a file path.

The seed picks a translation by an integer vector. Translations by integers
map half-open dyadic cubes and their closed triples onto cubes and triples of
the same scale, so every beta value, Jones value, label and length is the
same for every seed, and so is the amount of work: the spread between seeds
is the machine's, not the input's. Rotations are left out on purpose: the
dyadic grid is not rotation invariant, so a rotation changes which atoms
share a cube, and with it both the work and the Cantor labels.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np

#: translations are drawn from [-SHIFT_RANGE, SHIFT_RANGE]^2
SHIFT_RANGE = 16
#: where the 16-atom Cantor iterate sits before the seed's translation
CANTOR16_OFFSET = 1.0 / 32.0


@dataclass
class Sample:
    """Atoms, weights, and what is known about them by construction."""

    points: np.ndarray
    weights: np.ndarray
    curve_mask: np.ndarray  # True for atoms on a rectifiable curve
    known_length: float | None  # length of the sampled curve, if one


def seed_shift(seed: int) -> np.ndarray:
    """The integer translation of a seed; seed 0 is the identity."""
    if seed == 0:
        return np.zeros(2)
    rng = np.random.default_rng(seed)
    return rng.integers(-SHIFT_RANGE, SHIFT_RANGE + 1, size=2).astype(float)


def four_corner_cantor(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the four-corner Cantor iterate, equal weights of total 1."""
    pts = np.zeros((1, 2))
    for i in range(1, depth + 1):
        step = 3.0 * 4.0**-i
        shifts = np.array([[0.0, 0.0], [step, 0.0], [0.0, step], [step, step]])
        pts = (pts[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
    return pts, np.full(len(pts), 1.0 / len(pts))


def _spiral_points(t: np.ndarray, turns: float = 1.5) -> np.ndarray:
    th = 2 * np.pi * turns * t
    r = 0.05 + 0.15 * t
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def spiral(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Spiral arc r = 0.05 + 0.15 t centred at (0.5, 0.5), equal weights."""
    t = (np.arange(m) + 0.5) / m
    return _spiral_points(t) + 0.5, np.full(m, 1.0 / m)


def spiral_length() -> float:
    pts = _spiral_points(np.linspace(0.0, 1.0, 65536))
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def _graph_y(x: np.ndarray) -> np.ndarray:
    return 0.5 + 0.08 * np.sin(2 * np.pi * x) + 0.03 * np.sin(6 * np.pi * x)


def lipschitz_graph(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Graph of 0.5 + 0.08 sin(2 pi x) + 0.03 sin(6 pi x) over [0.05, 0.95]."""
    x = 0.05 + 0.9 * (np.arange(m) + 0.5) / m
    return np.column_stack([x, _graph_y(x)]), np.full(m, 1.0 / m)


def lipschitz_graph_length() -> float:
    x = np.linspace(0.05, 0.95, 65536)
    pts = np.column_stack([x, _graph_y(x)])
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def make_sample(kind: str, seed: int) -> Sample:
    """The measure of a workload, moved by the seed's translation."""
    if kind == "cantor16":
        pts, w = four_corner_cantor(2)
        # off the unit grid by 1/32, the support meets 9 instead of 16
        # scale-0 triples: the same dense beta path at half the time a call
        pts = pts + CANTOR16_OFFSET
        curve, length = np.zeros(len(pts), dtype=bool), None
    elif kind == "spiral":
        pts, w = spiral(128)
        curve, length = np.ones(len(pts), dtype=bool), spiral_length()
    elif kind == "mixture":
        cp, cw = four_corner_cantor(3)
        gp, gw = lipschitz_graph(128)
        pts = np.vstack([cp, gp + np.array([2048.0, 0.0])])
        w = np.concatenate([cw, gw])
        curve = np.concatenate([np.zeros(len(cp), dtype=bool), np.ones(len(gp), dtype=bool)])
        length = lipschitz_graph_length()
    else:
        raise ValueError(f"unknown sample {kind!r}")
    return Sample(pts + seed_shift(seed), w, curve, length)


def write_measure(sample: Sample, path: pathlib.Path) -> None:
    """Write the measure in the CLI's json format; floats round-trip exactly."""
    atoms = [[float(x), float(y), float(w)] for (x, y), w in zip(sample.points, sample.weights)]
    path.write_text(json.dumps({"dim": 2, "atoms": atoms}))
