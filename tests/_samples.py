"""Deterministic sample measures used across the test suite."""

from __future__ import annotations

import numpy as np

from mrt import DiscreteMeasure


def segment_measure(m: int = 256, a=(0.05, 0.5), b=(0.95, 0.5), total: float = 1.0) -> DiscreteMeasure:
    """Evenly spaced atoms on the segment [a, b] with equal weights."""
    t = (np.arange(m) + 0.5) / m
    pts = np.outer(1 - t, np.asarray(a, dtype=float)) + np.outer(t, np.asarray(b, dtype=float))
    return DiscreteMeasure(pts, np.full(m, total / m))


def circle_measure(m: int = 64, center=(0.5, 0.5), radius: float = 0.25, total: float = 1.0) -> DiscreteMeasure:
    th = (np.arange(m) + 0.5) / m * 2 * np.pi
    pts = radius * np.column_stack([np.cos(th), np.sin(th)]) + np.asarray(center, dtype=float)
    return DiscreteMeasure(pts, np.full(m, total / m))


def arc_measure(m: int = 64, center=(0.5, 0.5), radius: float = 0.3, span=(0.0, np.pi / 2)) -> DiscreteMeasure:
    th = span[0] + (span[1] - span[0]) * (np.arange(m) + 0.5) / m
    pts = radius * np.column_stack([np.cos(th), np.sin(th)]) + np.asarray(center, dtype=float)
    return DiscreteMeasure(pts, np.full(m, 1.0 / m))


def polyline_measure(m: int = 90) -> DiscreteMeasure:
    """Two-corner polyline through (0.1,0.1) -> (0.5,0.8) -> (0.9,0.1) -> (0.95,0.5)."""
    verts = np.array([[0.1, 0.1], [0.5, 0.8], [0.9, 0.1], [0.95, 0.5]])
    lens = np.linalg.norm(np.diff(verts, axis=0), axis=1)
    counts = np.maximum(1, np.round(m * lens / lens.sum()).astype(int))
    pts = []
    for (a, b), cnt in zip(zip(verts, verts[1:]), counts):
        t = (np.arange(cnt) + 0.5) / cnt
        pts.append(np.outer(1 - t, a) + np.outer(t, b))
    pts = np.vstack(pts)
    return DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)))


def polyline_length() -> float:
    verts = np.array([[0.1, 0.1], [0.5, 0.8], [0.9, 0.1], [0.95, 0.5]])
    return float(np.linalg.norm(np.diff(verts, axis=0), axis=1).sum())


def spiral_measure(m: int = 128, turns: float = 1.5) -> DiscreteMeasure:
    """Smooth spiral arc r = 0.05 + 0.15 t, centered at (0.5, 0.5)."""
    t = (np.arange(m) + 0.5) / m
    th = 2 * np.pi * turns * t
    r = 0.05 + 0.15 * t
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)]) + 0.5
    return DiscreteMeasure(pts, np.full(m, 1.0 / m))


def spiral_length(m: int = 65536, turns: float = 1.5) -> float:
    t = np.linspace(0.0, 1.0, m)
    th = 2 * np.pi * turns * t
    r = 0.05 + 0.15 * t
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def lipschitz_graph_measure(m: int = 128) -> DiscreteMeasure:
    """Graph of 0.5 + 0.08 sin(2 pi x) + 0.03 sin(6 pi x) over [0.05, 0.95]."""
    x = 0.05 + 0.9 * (np.arange(m) + 0.5) / m
    y = 0.5 + 0.08 * np.sin(2 * np.pi * x) + 0.03 * np.sin(6 * np.pi * x)
    return DiscreteMeasure(np.column_stack([x, y]), np.full(m, 1.0 / m))


def lipschitz_graph_length(m: int = 65536) -> float:
    x = np.linspace(0.05, 0.95, m)
    y = 0.5 + 0.08 * np.sin(2 * np.pi * x) + 0.03 * np.sin(6 * np.pi * x)
    pts = np.column_stack([x, y])
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def helix_measure(m: int = 24) -> DiscreteMeasure:
    """Two turns of the helix (0.5 + 0.25 cos t, 0.5 + 0.25 sin t, 0.05 + 0.07 t), t in [0, 4 pi]."""
    t = 4 * np.pi * (np.arange(m) + 0.5) / m
    pts = np.column_stack([0.5 + 0.25 * np.cos(t), 0.5 + 0.25 * np.sin(t), 0.05 + 0.07 * t])
    return DiscreteMeasure(pts, np.full(m, 1.0 / m))


def helix_length() -> float:
    return float(4 * np.pi * np.hypot(0.25, 0.07))


def four_corner_cantor(depth: int, total: float = 1.0, offset=(0.0, 0.0)) -> DiscreteMeasure:
    """Corners of the four-corner Cantor iteration at the given depth.

    Points are sums of 3 * 4^{-i} * {0,1}^2 over i = 1..depth (exact dyadic
    rationals), one atom per corner, equal weights summing to `total`.
    """
    pts = np.zeros((1, 2))
    for i in range(1, depth + 1):
        step = 3.0 * 4.0**-i
        shifts = np.array([[0.0, 0.0], [step, 0.0], [0.0, step], [step, step]])
        pts = (pts[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
    pts = pts + np.asarray(offset, dtype=float)
    w = np.full(len(pts), total / len(pts))
    return DiscreteMeasure(pts, w)


def segment_cantor_mixture(depth: int, separation: float = 2048.0):
    """Equal-mass union of a unit-square segment sample and a Cantor iterate.

    The segment component sits `separation` to the right, far enough that no
    nearby-cube family at any unit-or-finer scale reaches across. Returns
    (measure, labels) with labels[i] in {"segment", "cantor"}.
    """
    cantor = four_corner_cantor(depth, total=1.0)
    m = len(cantor.points)
    seg = segment_measure(m, a=(separation + 0.05, 0.5), b=(separation + 0.95, 0.5), total=1.0)
    pts = np.vstack([cantor.points, seg.points])
    wts = np.concatenate([cantor.weights, seg.weights])
    labels = ["cantor"] * m + ["segment"] * m
    return DiscreteMeasure(pts, wts), labels


def graph_cantor_mixture() -> DiscreteMeasure:
    """The depth-3 Cantor iterate (64 atoms, mass 1) plus a 128-atom Lipschitz graph
    (mass 1) placed 2048 to the right: the benchmark's mixture input at seed 0."""
    cantor = four_corner_cantor(3)
    graph = lipschitz_graph_measure(128)
    pts = np.vstack([cantor.points, graph.points + np.array([2048.0, 0.0])])
    return DiscreteMeasure(pts, np.concatenate([cantor.weights, graph.weights]))
