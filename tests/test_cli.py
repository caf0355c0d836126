import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrt import DiscreteMeasure, cli, rectify
from mrt.errors import InputFormatError
from mrt.cli import load_measure, main, save_measure, save_report

from _samples import (
    four_corner_cantor,
    helix_length,
    helix_measure,
    lipschitz_graph_measure,
    polyline_measure,
    segment_cantor_mixture,
)
from conftest import FIXTURES_DIR


def run_python(code: str, *args: str) -> str:
    """stdout of `python -c code args...` in a fresh process that finds `mrt`."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def rendered(report, tmp_path) -> str:
    """The text save_report writes for report."""
    path = tmp_path / "rendered.json"
    save_report(report, path)
    return path.read_text()


def test_import_does_not_load_scipy_optimize():
    assert run_python("import sys, mrt.cli; print('scipy.optimize' in sys.modules)") == "False"


def test_no_module_loads_scipy():
    # every module imported, and the sup fits of n >= 3 run, without scipy
    code = (
        "import importlib, pkgutil, sys\n"
        "import numpy as np\n"
        "import mrt\n"
        "for info in pkgutil.iter_modules(mrt.__path__):\n"
        "    importlib.import_module('mrt.' + info.name)\n"
        "X = np.random.default_rng(0).uniform(size=(12, 3))\n"
        "line, value = mrt.fit_line(X, None, 'sup')\n"
        "beta = mrt.beta_sup_set(X, mrt.DyadicCube(0, (0, 0, 0)).triple())\n"
        "print(value > 0.0, beta > 0.0, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_python(code) == "True True []"


# layers that `mrt beta` never runs; concurrent.futures belonged to the thread pool,
# and numpy.ma is loaded by np.unique, which no subcommand calls
COLD_START_UNUSED = ("mrt.nets", "mrt.curve", "mrt.rectify", "concurrent.futures", "numpy.ma")


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


def test_no_subcommand_loads_numpy_ma(tmp_path):
    measure = tmp_path / "measure.json"
    save_measure(lipschitz_graph_measure(40), measure)
    runs = [
        [cmd, str(measure), *opts, "-o", str(tmp_path / f"{cmd}.json")]
        for cmd, *opts in (
            ["jones", "--k-max", "2"],
            ["tst", "--k-hi", "1"],
            ["decompose", "--k-max", "3", "--c-ladder", "0.01", "--n-cap", "0.03"],
            ["curve", "--depth", "3"],
            ["validate", "--depth", "3"],
        )
    ]
    code = (
        "import json, sys\n"
        "import mrt.cli\n"
        "status = [mrt.cli.main(json.loads(a)) for a in sys.argv[1:]]\n"
        "print(json.dumps([status, 'numpy.ma' in sys.modules]))\n"
    )
    out = run_python(code, *(json.dumps(r) for r in runs))
    assert json.loads(out) == [[0] * len(runs), False]


def subcommand_options() -> dict[str, set]:
    """Each subcommand's option dests, without help and the report path, plus command."""
    parser = cli.build_parser()
    subs = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in sp._actions} - {"help", "output"} | {"command"} for name, sp in subs.items()}


def test_config_echoes_the_subcommand_options(tmp_path):
    # a report's config holds its own subcommand's options and nothing else,
    # so no second copy of the options, with defaults of its own, comes back
    measure = tmp_path / "measure.json"
    save_measure(lipschitz_graph_measure(40), measure)
    runs = [
        ["beta", "--k-hi", "1"],
        ["jones", "--k-max", "2"],
        ["tst", "--k-hi", "1"],
        ["decompose", "--k-max", "3", "--c-ladder", "0.01", "--n-cap", "0.03"],
        ["curve", "--depth", "3"],
        ["validate", "--depth", "3"],
    ]
    options = subcommand_options()
    assert sorted(cmd for cmd, *_ in runs) == sorted(options)
    for cmd, *opts in runs:
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, str(measure), *opts, "-o", str(out)]) == 0
        assert set(json.loads(out.read_text())["config"]) == options[cmd], cmd


def test_validate_writes_the_separation_witness(tmp_path, monkeypatch):
    # a disconnected curve's separated part is a JSON array of points, not a repr string
    from mrt import curve

    part = [(0.0, 0.0), (0.5, 0.25)]
    monkeypatch.setattr(curve, "verify_connected",
                        lambda segments: (False, {"components": 2, "separated_part": part}))
    measure = tmp_path / "measure.json"
    save_measure(polyline_measure(20), measure)
    out = tmp_path / "report.json"
    assert main(["validate", str(measure), "--depth", "4", "-o", str(out)]) == 1
    assert json.loads(out.read_text())["checks"]["curve_connected"] == {
        "ok": False,
        "witness": {"components": 2, "separated_part": [[0.0, 0.0], [0.5, 0.25]]},
    }


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
    assert rendered(rep, tmp_path) == (FIXTURES_DIR / "decompose_mixture2_golden.json").read_text()


def test_tst_lipschitz_golden(tmp_path):
    # the Lipschitz graph's families exceed 16 atoms: the tst report runs the
    # p = 2 refine searches and the planar sup fits of beta_sq_set. The
    # fixture, without the input path, was written while each search scored
    # one line per objective call and each sup fit scanned one hull edge at a time
    measure = tmp_path / "measure.json"
    save_measure(lipschitz_graph_measure(40), measure)
    out = tmp_path / "report.json"
    assert main(["tst", str(measure), "--k-hi", "1", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    del rep["config"]["input"]
    assert rendered(rep, tmp_path) == (FIXTURES_DIR / "tst_lipschitz40_golden.json").read_text()


def test_jones_default_kmax_golden(tmp_path):
    # without --k-max each atom's chain runs to its own first single-occupancy
    # scale (2 to 5 here), so atoms leave the one pass at different scales.
    # The fixture, without the input path, was written while each chain cube
    # was computed on its own and each truncation came from a walk down the
    # atom's chain
    measure = tmp_path / "measure.json"
    save_measure(polyline_measure(20), measure)
    out = tmp_path / "report.json"
    assert main(["jones", str(measure), "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert {a["k_max"] for a in rep["atoms"]} == {2, 3, 4, 5}
    del rep["config"]["input"]
    assert rendered(rep, tmp_path) == (FIXTURES_DIR / "jones_polyline20_golden.json").read_text()


@pytest.mark.parametrize("command", ["curve", "validate"])
def test_curve_and_validate_golden(tmp_path, command):
    # nets, alphas, construction, certificate and connectivity check, pinned
    # byte for byte through the CLI; the fixtures, without the input path,
    # were written while the curve layer still took its quantum, tolerance
    # and epsilon as options and kept an indexed segment graph
    measure = tmp_path / "measure.json"
    save_measure(polyline_measure(20), measure)
    out = tmp_path / "report.json"
    assert main([command, str(measure), "--depth", "4", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    del rep["config"]["input"]
    assert rendered(rep, tmp_path) == (FIXTURES_DIR / f"{command}_polyline20_golden.json").read_text()


def test_beta_star_c_golden(tmp_path):
    # per-cube star_c betas with their lines; the fixture is the report of
    # a run, without the input path
    measure = tmp_path / "measure.json"
    save_measure(polyline_measure(20), measure)
    out = tmp_path / "report.json"
    args = ["--k-hi", "2", "--variant", "star_c", "--c", "0.5"]
    assert main(["beta", str(measure), *args, "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    del rep["config"]["input"]
    assert rendered(rep, tmp_path) == (FIXTURES_DIR / "beta_star_c_polyline20_golden.json").read_text()


@pytest.mark.parametrize("command", ["curve", "validate"])
def test_failed_nets_golden(tmp_path, command):
    # the level-1 net of these atoms misses (V_III), so neither command draws
    # a curve; the fixtures, without the input path, were written before the
    # two commands shared one pipeline
    measure = tmp_path / "measure.csv"
    measure.write_text("0,0,1\n0.5,0.5,1\n0.25,0.3,1\n")
    out = tmp_path / "report.json"
    assert main([command, str(measure), "--depth", "4", "-o", str(out)]) == 1
    rep = json.loads(out.read_text())
    del rep["config"]["input"]
    assert rendered(rep, tmp_path) == (FIXTURES_DIR / f"{command}_failed_nets_golden.json").read_text()


@pytest.mark.parametrize(
    "text, args",
    [(text, ["jones", "--variant", "tilde"]) for text in ("0.3,0.4,1\n", "0.3,0.4,1\n0.3,0.4,2\n")]
    + [("0,0,1\n1,0,1\n", ["jones", "--variant", "tilde", "--k-max", "4"])],
    ids=["jones-one", "jones-coincident", "jones-tilde-two"],
)
def test_p1_on_equal_atoms(tmp_path, text, args):
    # the tilde beta's p = 1 fit gets the line through one atom, through equal
    # atoms and through two atoms
    measure = tmp_path / "measure.csv"
    measure.write_text(text)
    assert main([args[0], str(measure), "--p", "1", *args[1:], "-o", str(tmp_path / "report.json")]) == 0


def test_csv_and_json_load_equal(tmp_path):
    csv = tmp_path / "measure.csv"
    csv.write_text("# dim=2\n0.1,0.2,1\n\n# a comment\n0.3,-4e-3,0.5\n2,3,7\n")
    js = tmp_path / "measure.json"
    js.write_text('{"dim": 2, "atoms": [[0.1, 0.2, 1], [0.3, -4e-3, 0.5], [2, 3, 7]]}')
    a, b = load_measure(csv), load_measure(js)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)
    assert a.points.tolist() == [[0.1, 0.2], [0.3, -0.004], [2.0, 3.0]]


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("measure.csv", "0.1,0.2,1\n\n0.3,0.4,0\n", ":3: nonpositive weight 0.0"),
        ("measure.json", '{"atoms": [[0.1, 0.2, 1], [0.3, 0.4, 0]]}', ": atom 1: nonpositive weight 0.0"),
        ("measure.csv", "# dim=2\n0.1,0.2,0.3,1\n", ":2: expected 2 coordinates plus weight, got 3"),
        ("measure.json", '{"dim": 2, "atoms": [[0.1, 0.2, 0.3, 1]]}',
         ": atom 0: expected 2 coordinates plus weight, got 3"),
    ],
)
def test_row_errors_name_the_row(tmp_path, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(InputFormatError) as info:
        load_measure(path)
    assert str(info.value) == f"{path}{where}"


def test_save_measure_round_trips(tmp_path):
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        pts = rng.normal(size=(9, n)) * 10.0 ** rng.integers(-300, 300, size=(9, 1))
        mu = DiscreteMeasure(pts, rng.uniform(1e-9, 1e9, size=9))
        path = tmp_path / f"measure{n}.json"
        save_measure(mu, path)
        back = load_measure(path)
        assert back.points.tobytes() == mu.points.tobytes() and back.points.shape == mu.points.shape
        assert back.weights.tobytes() == mu.weights.tobytes()


# every text golden holds a CLI report without its input path
TEXT_GOLDENS = ["decompose_mixture2", "tst_lipschitz40", "jones_polyline20", "curve_polyline20",
                "validate_polyline20", "beta_star_c_polyline20", "curve_failed_nets",
                "validate_failed_nets"]


@pytest.mark.parametrize("name", TEXT_GOLDENS)
def test_text_goldens_are_writer_renderings(tmp_path, name):
    text = (FIXTURES_DIR / f"{name}_golden.json").read_text()
    assert rendered(json.loads(text), tmp_path) == text


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-(10**300), 10**300).map(float)), max_size=8))
@example([1e16, 3e16, -9e16, 2.0**60, 5e-324, 2.0**-1030, -0.0, 0.0, 2.0, 0.1, 1.7976931348623157e308])
def test_report_floats_round_trip(tmp_path_factory, values):
    # integral floats in [1e16, 1e17) once came back as JSON integers
    path = tmp_path_factory.getbasetemp() / "floats.json"
    save_report({"values": values, "first": values[0] if values else 0.5}, path)
    back = json.loads(path.read_text())
    assert all(type(v) is float for v in [*back["values"], back["first"]])
    assert np.array(back["values"], dtype=float).tobytes() == np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("text", ['say "hi"', "back\\slash \\n", "\t\n\r\b\f\x00\x1f\x7f",
                                  "Ångström ∑ 測度 😀", "  ", ""])
def test_report_strings_round_trip(tmp_path, text):
    report = {text: text, "nested": [text, {"key": text}]}
    assert json.loads(rendered(report, tmp_path)) == report


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_report_exits_3(tmp_path, monkeypatch, capsys, value):
    # save_report refuses the value with ValueError before it writes a byte
    monkeypatch.setattr(cli, "cmd_beta", lambda cfg, mu: ({"beta": [0.5, value]}, 0))
    measure = tmp_path / "measure.csv"
    measure.write_text("0.1,0.2,1\n")
    out = tmp_path / "report.json"
    assert main(["beta", str(measure), "-o", str(out)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["class"]) == ("internal", "ValueError")
    assert not out.exists()


# a helix in R^3 runs every command whose lines are sup fits
def test_tst_helix(tmp_path):
    measure = tmp_path / "measure.json"
    save_measure(helix_measure(24), measure)
    out = tmp_path / "report.json"
    assert main(["tst", str(measure), "--k-hi", "2", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    # both sums run over the cubes with mu(3Q) > 0, in one pass
    assert [c["cube"] for c in rep["beta_sq_set"]["cubes"]] == [c["cube"] for c in rep["s_star_star"]["cubes"]]
    for kind in ("beta_sq_set", "s_star_star"):
        cubes = rep[kind]["cubes"]
        # sum adds left to right from 0, as the report's total does
        assert cubes and rep[kind]["total"] == sum(c["term"] for c in cubes)


def test_curve_helix(tmp_path):
    mu = helix_measure(12)
    measure = tmp_path / "measure.json"
    save_measure(mu, measure)
    out = tmp_path / "report.json"
    assert main(["curve", str(measure), "--depth", "4", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["connected"] and rep["certificate"]["ok"]
    # the polyline through the atoms in helix order is inscribed in the helix
    polyline = float(np.linalg.norm(np.diff(mu.points, axis=0), axis=1).sum())
    assert polyline <= helix_length()
    assert rep["length"]["dedup"] >= polyline


def test_decompose_helix(tmp_path):
    measure = tmp_path / "measure.json"
    save_measure(helix_measure(24), measure)
    out = tmp_path / "report.json"
    assert main(["decompose", str(measure), "--k-max", "3", "-o", str(out)]) == 0
    assert 0.0 <= json.loads(out.read_text())["captured_fraction"] <= 1.0


def _raise_runtime_error(*_args):
    raise RuntimeError("injected failure")


@pytest.mark.parametrize(
    "text, args, broken, code, kind, cls",
    [
        (None, ["beta"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n0.3,abc,1\n", ["beta"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n0.3,0.4,0\n", ["beta"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\nnan,0.4,1\n", ["beta"], None, 2, "input", "InvalidWeight"),
        ("# dim=3\n0.1,0.2,1\n", ["beta"], None, 2, "input", "InputFormatError"),
        ('{"dim": 2, "atoms": [[0.1, 0.2, true]]}', ["beta"], None, 2, "input", "InputFormatError"),
        ('{"dim": 2, "atoms": [["0.3", 0.4, 1]]}', ["beta"], None, 2, "input", "InputFormatError"),
        ('{"dim": 2, "atoms": [[0.3, null, 1]]}', ["beta"], None, 2, "input", "InputFormatError"),
        ('{"dim": true, "atoms": [[0.3, 1]]}', ["beta"], None, 2, "input", "InputFormatError"),
        ('{"dim": 1, "atoms": [[0.3, 1' + "0" * 400 + ']]}', ["beta"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["decompose", "--c-ladder", "0"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["decompose", "--c-ladder", ","], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["decompose", "--eps-ladder", ""], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["jones", "--p", "inf"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["beta", "--variant", "star_c", "--c", "inf"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["decompose", "--c-ladder", "inf"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["decompose", "--n-cap", "inf"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["curve", "--cstar", "inf"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["curve", "--r0", "inf"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["jones", "--k-max", "70"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n0.5,0.5,1\n", ["jones", "--k-max", "1100"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n1,0,1\n", ["curve", "--depth", "1100"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n1,0,1\n", ["validate", "--depth", "1100"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n1,0,1\n", ["decompose", "--k-max", "1100"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n", ["jones", "--k-max", "1030"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n", ["jones", "--k-max", "1060"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n", ["decompose", "--k-max", "1060"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n", ["jones", "--variant", "tilde", "--k-max", "1030"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n", ["jones", "--variant", "tilde", "--k-max", "1100"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n", ["tst", "--k-lo", "1100", "--k-hi", "1100"], None, 2, "input", "ScaleOverflow"),
        ("0,0,1\n", ["tst", "--k-hi", "1100"], None, 2, "input", "ScaleOverflow"),
        ("0.1,0.2,1\n0.3\n", ["beta"], None, 2, "input", "InputFormatError"),
        ('{"dim": 2, "atoms": [[0.1, 0.2, 1], [0.3, 0.4, -1]]}', ["beta"], None, 2, "input", "InputFormatError"),
        ('{"atoms": [[0.1, 0.2, 1], [0.3, 0.4, 0.5, 1]]}', ["beta"], None, 2, "input", "InputFormatError"),
        ("# dim=2\n", ["beta"], None, 2, "input", "InputFormatError"),
        ('{"dim": 2, "atoms": []}', ["beta"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["jones", "--p", "abc"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["beta", "--bogus"], None, 2, "input", "InputFormatError: unrecognized arguments"),
        ("0.1,0.2,1\n", ["beta", "--variant", "tilde"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["decompose", "--c-ladder", "x,1"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["jones", "--seed", "1"], None, 2, "input", "InputFormatError: unrecognized arguments"),
        ("0.1,0.2,1\n", ["validate", "--depth", "1", "--k-hi", "3"], None, 2, "input",
         "InputFormatError: unrecognized arguments"),
        ("0.1,0.2,1\n", ["beta", "--p", "2"], None, 2, "input", "InputFormatError: unrecognized arguments"),
        ("0.1,0.2,1\n", ["tst", "--p", "2"], None, 2, "input", "InputFormatError: unrecognized arguments"),
        ("0.1,0.2,1\n", ["decompose", "--p", "2"], None, 2, "input", "InputFormatError: unrecognized arguments"),
        ("0.1,0.2,1\n", ["jones", "--variant", "star", "--p", "1"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", [], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["beta"], "cmd_beta", 3, "internal", "RuntimeError"),
        ("0,0,1\n1e-300,0,1\n", ["jones", "--variant", "tilde", "--p", "1", "--k-max", "2"], None, 0, None, None),
        ("1,0,1\n1,1e-300,1\n", ["jones", "--variant", "tilde", "--p", "1", "--k-max", "2"], None, 0, None, None),
        ("0.1,0.1,0.001\n0.9,0.9,0.001\n", ["decompose"], None, 0, None, None),
        (b"\xff\xfe0,0,1\n", ["beta"], None, 2, "input", "InputFormatError"),
        ("0.1,0.2,1\n", ["beta", "-o", "<tmp>/missing/report.json"], None, 2, "input", "InputFormatError"),
    ],
    ids=["missing-file", "malformed-row", "nonpositive-weight", "nan-coordinate",
         "dim-header-conflict", "json-boolean-entry", "json-string-entry", "json-null-entry",
         "json-boolean-dim", "json-int-past-float-range", "zero-c-ladder", "empty-c-ladder",
         "empty-eps-ladder", "infinite-p", "infinite-c", "infinite-c-ladder",
         "infinite-n-cap", "infinite-cstar", "infinite-r0", "scale-overflow", "scale-past-float-range",
         "curve-separation-underflow", "validate-separation-underflow", "decompose-radius-underflow",
         "origin-jones-subnormal-diameter", "origin-jones-past-1024", "origin-decompose-subnormal-radius",
         "origin-jones-tilde-subnormal-diameter", "origin-jones-tilde-past-1024", "origin-tst-past-1024",
         "origin-tst-subnormal-diameter",
         "one-field-row", "json-nonpositive-weight", "json-wrong-dimension", "empty-csv",
         "empty-json", "non-numeric-p", "unknown-option", "variant-of-another-command",
         "non-numeric-c-ladder", "removed-seed-option", "removed-validate-k-hi-option",
         "removed-beta-p-option", "removed-tst-p-option", "removed-decompose-p-option", "jones-star-p1",
         "missing-subcommand", "internal-error",
         "near-coincident-jones-p1", "offset-near-coincident-jones-p1", "decompose-below-every-density-test", "non-utf8-file",
         "output-in-missing-directory"],
)
def test_exit_codes(tmp_path, monkeypatch, capsys, text, args, broken, code, kind, cls):
    measure = tmp_path / ("measure.json" if isinstance(text, str) and text.startswith("{") else "measure.csv")
    if isinstance(text, bytes):
        measure.write_bytes(text)
    elif text is not None:
        measure.write_text(text)
    if broken is not None:
        monkeypatch.setattr(cli, broken, _raise_runtime_error)
    out = tmp_path / "report.json"
    # an -o in args comes last and wins; <tmp> names the test's directory
    opts = [a.replace("<tmp>", str(tmp_path)) for a in args[1:]]
    argv = [args[0], str(measure), "-o", str(out), *opts] if args else []
    assert main(argv) == code
    if code == 0:
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["command"] == args[0]
        return
    error = json.loads(capsys.readouterr().out)["error"]
    # cls is the error class, or the class and the start of the message
    assert error["type"] == kind and f"{error['class']}: {error['message']}".startswith(f"{cls}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["curve", "validate"])
def test_nets_validated_once_per_command(tmp_path, monkeypatch, command):
    from mrt import nets

    calls = []
    validate = nets.validate_nets

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(nets, "validate_nets", counted)
    measure = tmp_path / "measure.json"
    save_measure(lipschitz_graph_measure(40), measure)
    assert main([command, str(measure), "--depth", "3", "-o", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1
