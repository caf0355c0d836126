"""Tests of the benchmark itself: every check passes on real reports and
rejects a corrupted one, the traced run refuses a missing function, and self
time subtracts only same-thread children.

Usage: python3 perfbench/selftest.py  (about 40 s: one round of each workload)
"""

from __future__ import annotations

import copy
import math
import sys
import time
import unittest

import numpy as np

import checks
import run
import tracer
from checks import CHECKS, Outcome, min_eig_over_diam_sq, mst_length, nearby_family

SEED = 7  # a seed with a non-zero translation


def _rounds() -> dict:
    out = {}
    for name in run.WORKLOADS:
        d = run.ROOT / ".perfbench_out" / f"selftest-{name}"
        d.mkdir(parents=True, exist_ok=True)
        runner = run.Runner(name, SEED, d, time.monotonic() + run.RUN_LIMIT_S)
        calls = runner.round(traced=False)
        out[name] = (runner, {c.command: c.outcome for c in calls})
    return out


class CheckTest(unittest.TestCase):
    rounds: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.rounds = _rounds()

    def outcomes(self, workload):
        return copy.deepcopy(self.rounds[workload][1])

    def sample(self, workload):
        return self.rounds[workload][0].sample

    def assertRejects(self, workload, check, outcomes):
        self.assertTrue(check(self.sample(workload), outcomes), f"{check.__name__} accepted a corrupted report")

    def test_real_reports_pass(self):
        for workload, (runner, outcomes) in self.rounds.items():
            self.assertEqual(runner.failed, 0, runner.problems)
            for check in CHECKS[workload]:
                self.assertEqual(check(runner.sample, outcomes), [], check.__name__)

    # -- cantor16 -------------------------------------------------------------

    def test_beta_checks_reject(self):
        o = self.outcomes("cantor16")
        o["beta"].report["cubes"].pop()
        self.assertRejects("cantor16", checks.beta_covers_mass_cubes, o)

        o = self.outcomes("cantor16")
        o["beta"].report["cubes"][0]["beta"] += 1e-8
        self.assertRejects("cantor16", checks.beta_is_witness_score, o)

        o = self.outcomes("cantor16")
        s = self.sample("cantor16")
        row = o["beta"].report["cubes"][0]
        fam = nearby_family(s.points, s.weights, row["cube"]["k"], row["cube"]["index"])
        bound = max(min(min_eig_over_diam_sq(s.points, s.weights, k, a, m), 1.0)
                    * min(m / (3.0 * math.sqrt(2.0) * 2.0**-k), 1.0) for k, a, m in fam)
        self.assertGreater(bound, 0.0)
        row["beta"] = math.sqrt(bound) * (1.0 - 1e-6)
        self.assertRejects("cantor16", checks.beta_above_lower_bound, o)

    def test_jones_check_rejects(self):
        o = self.outcomes("cantor16")
        o["jones"].report["atoms"][3]["value"] += 1e-9
        self.assertRejects("cantor16", checks.jones_matches_chain, o)

        o = self.outcomes("cantor16")
        o["beta"].report["cubes"] = [r for r in o["beta"].report["cubes"] if r["cube"]["k"] != 0]
        self.assertRejects("cantor16", checks.jones_matches_chain, o)

    # -- spiral ---------------------------------------------------------------

    def test_curve_checks_reject(self):
        o = self.outcomes("spiral")
        o["curve"].report["certificate"]["ok"] = False
        self.assertRejects("spiral", checks.curve_status_ok, o)

        o = self.outcomes("spiral")
        rep = o["curve"].report
        rep["segments"] = [seg for seg in rep["segments"] if 0 not in (seg["a"], seg["b"])]
        self.assertRejects("spiral", checks.curve_one_component, o)

        o = self.outcomes("spiral")
        o["curve"].report["vertices"][5][0] += 1e-6
        self.assertRejects("spiral", checks.curve_vertices_on_support, o)

        o = self.outcomes("spiral")
        o["curve"].report["vertices"] = o["curve"].report["vertices"][:1]
        self.assertRejects("spiral", checks.curve_covers_atoms, o)

        o = self.outcomes("spiral")
        rep = o["curve"].report
        rep["segments"] = rep["segments"][: len(rep["segments"]) // 2]
        self.assertRejects("spiral", checks.curve_length_matches_segments, o)

        o = self.outcomes("spiral")
        rep = o["curve"].report
        rep["length"]["dedup"] = 0.49 * mst_length(np.asarray(rep["vertices"]))
        self.assertRejects("spiral", checks.curve_length_above_mst, o)

        o = self.outcomes("spiral")
        o["validate"].report["ok"] = False
        self.assertRejects("spiral", checks.validate_ok, o)

    # -- mixture --------------------------------------------------------------

    def test_decompose_checks_reject(self):
        s = self.sample("mixture")
        curve_atom = int(s.curve_mask.nonzero()[0][0])
        cantor_atom = int((~s.curve_mask).nonzero()[0][0])
        for atom, label, reason in ((curve_atom, "unrect-candidate", "jones_above_cap"),
                                    (cantor_atom, "rect-candidate", None),
                                    (cantor_atom, "unrect-candidate", "density_below_threshold")):
            o = self.outcomes("mixture")
            row = next(a for a in o["decompose"].report["atoms"] if a["atom"] == atom)
            row["label"], row["reason"] = label, reason
            self.assertRejects("mixture", checks.decompose_labels, o)

        for field, value in (("rect_mass", None), ("captured_mass", None), ("captured_fraction", 1.0000000000000009)):
            o = self.outcomes("mixture")
            rep = o["decompose"].report
            rep[field] = value if value is not None else rep["rect_mass"] * (1.0 + 1e-9)
            self.assertRejects("mixture", checks.decompose_masses, o)

        o = self.outcomes("mixture")
        o["decompose"].report["curves"][0]["coverage"]["ok"] = False
        self.assertRejects("mixture", checks.decompose_coverage, o)

    def test_tst_checks_reject(self):
        for ledger in ("beta_sq_set", "s_star_star"):
            o = self.outcomes("mixture")
            max(o["tst"].report[ledger]["cubes"], key=lambda r: r["term"])["term"] *= 1.0 + 1e-9
            self.assertRejects("mixture", checks.tst_ledgers, o)
            o = self.outcomes("mixture")
            o["tst"].report[ledger]["total"] += 1e-9
            self.assertRejects("mixture", checks.tst_ledgers, o)

        o = self.outcomes("mixture")
        o["tst"].report["s_star_star"]["cubes"][0]["beta"] = 1.5
        self.assertRejects("mixture", checks.tst_star_star_bounds, o)

        o = self.outcomes("mixture")
        rows = o["tst"].report["s_star_star"]["cubes"]
        top = max(rows, key=lambda r: r["beta"])
        top["beta"] = 0.0
        self.assertRejects("mixture", checks.tst_star_star_bounds, o)


class TracerTest(unittest.TestCase):
    def test_missing_function_is_an_error(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        tracer.TARGETS.insert(0, ("beta", "mrt.beta", "no_such_function"))
        try:
            with self.assertRaises(SystemExit) as cm:
                tracer.install(tracer.Recorder())
            self.assertEqual(cm.exception.code, tracer.EXIT_MISSING)
        finally:
            tracer.TARGETS.pop(0)

    def test_self_time_subtracts_same_thread_children(self):
        spans = {"spans": [
            {"id": 1, "name": "rectify.decompose_estimate", "start": 0.0, "end": 10.0, "thread": 0, "parent": None},
            {"id": 2, "name": "parallel.pmap", "start": 2.0, "end": 5.0, "thread": 0, "parent": 1,
             "attrs": {"items": 4}},
            {"id": 3, "name": "jones.jones_at", "start": 2.5, "end": 4.5, "thread": 1, "parent": 2},
        ]}
        call = run.Call("decompose", 10.0, 80.0, Outcome(0, {"curves": []}), text=None, spans=spans)
        m = run.layer_metrics([call], run.make_sample("mixture", 0), run.metric_units("per_layer"))
        self.assertAlmostEqual(m["rectify.decompose_estimate.self_s"], 7.0)
        self.assertAlmostEqual(m["jones.jones_at.self_s"], 2.0)
        self.assertEqual(m["parallel.pmap.items"], 4)
        self.assertEqual(m["parallel.pmap.calls"], 1)


if __name__ == "__main__":
    unittest.main()
