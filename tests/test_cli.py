import json
import math
import os
import subprocess
import sys

import pytest

from mrt import rectify
from mrt._serialize import dumps
from mrt.cli import main, save_measure

from _samples import four_corner_cantor, lipschitz_graph_measure, segment_cantor_mixture
from conftest import FIXTURES_DIR


def run_python(code: str, *args: str) -> str:
    """stdout of `python -c code args...` in a fresh process that finds `mrt`."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy_optimize():
    assert run_python("import sys, mrt.cli; print('scipy.optimize' in sys.modules)") == "False"


# layers that `mrt beta` never runs; concurrent.futures belonged to the thread pool
COLD_START_UNUSED = ("mrt.nets", "mrt.curve", "mrt.rectify", "concurrent.futures")


def test_beta_loads_only_the_layers_it_runs(tmp_path):
    measure = tmp_path / "measure.json"
    save_measure(four_corner_cantor(2), measure)  # 16 atoms
    code = (
        "import json, sys\n"
        "unused = sys.argv[1].split(',')\n"
        "import mrt.cli\n"
        "after_import = [m for m in unused if m in sys.modules]\n"
        "status = mrt.cli.main(['beta', sys.argv[2], '--k-hi', '0', '-o', sys.argv[3]])\n"
        "print(json.dumps([after_import, [m for m in unused if m in sys.modules], status]))\n"
    )
    out = run_python(code, ",".join(COLD_START_UNUSED), str(measure), str(tmp_path / "report.json"))
    assert json.loads(out) == [[], [], 0]


@pytest.mark.parametrize(
    "args",
    [
        ["jones", "--k-max", "2"],
        ["tst", "--k-hi", "1"],
        ["decompose", "--k-max", "3", "--c-ladder", "0.01", "--n-cap", "0.03"],
    ],
)
def test_reports_identical_across_runs(tmp_path, args):
    # families of more than 16 atoms keep every beta off the slow dense sweep
    mu = lipschitz_graph_measure(40)
    measure = tmp_path / "measure.json"
    save_measure(mu, measure)
    reports = []
    for i in range(2):
        out = tmp_path / f"report-{i}.json"
        assert main([args[0], str(measure), *args[1:], "-o", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_decompose_reports_dropped_trees(tmp_path, monkeypatch):
    mu = lipschitz_graph_measure(40)
    measure = tmp_path / "measure.json"
    save_measure(mu, measure)
    monkeypatch.setattr(rectify, "hausdorff_to_segments", lambda *a, **k: math.inf)
    out = tmp_path / "report.json"
    args = ["decompose", str(measure), "--k-max", "3", "--c-ladder", "0.01", "--n-cap", "0.03"]
    assert main([*args, "-o", str(out)]) == 0
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
