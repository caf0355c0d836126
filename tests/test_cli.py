import os
import subprocess
import sys

import pytest

from mrt import _parallel
from mrt.cli import main, save_measure

from _samples import lipschitz_graph_measure


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
