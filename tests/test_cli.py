import json
import math
import os
import subprocess
import sys

import pytest

from mrt import _parallel, rectify
from mrt._serialize import dumps
from mrt.cli import main, save_measure

from _samples import lipschitz_graph_measure, segment_cantor_mixture
from conftest import FIXTURES_DIR


def test_import_does_not_load_scipy_optimize():
    code = "import sys, mrt.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_default_threads_follows_affinity(monkeypatch):
    monkeypatch.delenv("MRT_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _parallel.default_threads() == 1


@pytest.mark.parametrize(
    "args",
    [
        ["jones", "--k-max", "2"],
        ["tst", "--k-hi", "1"],
        ["decompose", "--k-max", "3", "--c-ladder", "0.01", "--n-cap", "0.03"],
    ],
)
def test_reports_identical_across_thread_counts(tmp_path, args):
    # families of more than 16 atoms keep every beta off the slow dense sweep
    mu = lipschitz_graph_measure(40)
    measure = tmp_path / "measure.json"
    save_measure(mu, measure)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        assert main([args[0], str(measure), *args[1:], "--threads", threads, "-o", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_decompose_reports_dropped_trees(tmp_path, monkeypatch):
    mu = lipschitz_graph_measure(40)
    measure = tmp_path / "measure.json"
    save_measure(mu, measure)
    monkeypatch.setattr(rectify, "hausdorff_to_segments", lambda *a, **k: math.inf)
    out = tmp_path / "report.json"
    args = ["decompose", str(measure), "--k-max", "3", "--c-ladder", "0.01", "--n-cap", "0.03"]
    assert main([*args, "--threads", "1", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["curves"] == [] and rep["dropped"]
    for d in rep["dropped"]:
        assert d["c"] == 0.01 and set(d["base_cube"]) == {"k", "index"}
        assert d["reason"].startswith("CertificateError: leaf coverage failed")


def test_decompose_dense_mixture_golden(tmp_path):
    # every family of the depth-2 Cantor part has <= 16 atoms, so each beta
    # takes the dense path. The fixture, without the input path, was written
    # while each cube still solved its family on its own: 22 s on 2 cores,
    # where the family memo takes 1 s
    mu, _ = segment_cantor_mixture(2)
    measure = tmp_path / "measure.json"
    save_measure(mu, measure)
    out = tmp_path / "report.json"
    assert main(["decompose", str(measure), "--k-max", "3", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    del rep["config"]["input"]
    assert dumps(rep) == (FIXTURES_DIR / "decompose_mixture2_golden.json").read_text()
