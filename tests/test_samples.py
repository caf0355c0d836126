"""The known lengths of the sample curves in _samples."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

import _samples

ROOT = pathlib.Path(__file__).resolve().parents[1]


def perfbench_inputs(monkeypatch):
    """The benchmark's own copy of the sample formulas, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    # its dataclass looks up its own module by name while the file runs
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    return inputs


@pytest.mark.parametrize(
    "sample, m, length, benchmark_copy",
    [
        ("spiral_measure", 128, "spiral_length", "spiral_length"),
        ("polyline_measure", 90, "polyline_length", None),
        ("lipschitz_graph_measure", 128, "lipschitz_graph_length", "lipschitz_graph_length"),
        ("helix_measure", 96, "helix_length", None),
    ],
)
def test_known_length(monkeypatch, sample, m, length, benchmark_copy):
    # the polyline through a curve's atoms, in order, is no longer than the
    # curve, and close to it once the atoms are dense
    points = getattr(_samples, sample)(m).points
    chords = float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())
    known = getattr(_samples, length)()
    assert 0.97 * known <= chords <= known
    if benchmark_copy is not None:
        assert getattr(perfbench_inputs(monkeypatch), benchmark_copy)() == known
