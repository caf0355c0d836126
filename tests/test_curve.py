import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from mrt import (
    CertificateError,
    NetSequence,
    Segment,
    construct_curve,
    curve_length,
    fit_alphas,
    length_certificate,
    nets_from_points,
    verify_connected,
)
from mrt.geometry import segment_distance
from mrt.curve import extension_chain
from mrt.errors import AlphaRecheckError
from mrt.nets import hausdorff_to_segments

from _samples import circle_measure, lipschitz_graph_measure, segment_measure
from conftest import FIXTURES_DIR


def t2_nets():
    """Two clusters 31 apart: level 1 walks terminate and bridge across."""
    lv0 = np.array([[0.5, 0.0], [30.8, 0.0]])
    lv12 = np.array([[0.0, 0.0], [31.0, 0.0]])
    return NetSequence([lv0, lv12, lv12.copy()], r0=1.0, cstar=2.0)


class TestHandBuiltT2:
    def build(self):
        nets = t2_nets()
        alphas = fit_alphas(nets)
        return construct_curve(nets, alphas)

    def test_one_terminal_bridge(self):
        result = self.build()
        assert len(result.bridges) == 1
        rec = next(iter(result.bridges.values()))
        assert rec.gen == 1
        assert rec.a == (0.0, 0.0) and rec.b == (31.0, 0.0)
        assert "T2" in rec.cases
        assert len(result.cores) == 1

    def test_core_is_central_fraction(self):
        result = self.build()
        core = result.cores[0].core
        lo, hi = np.asarray(core[0]), np.asarray(core[1])
        assert np.linalg.norm(hi - lo) == pytest.approx(0.9 * 31.0)

    def test_stage_zero_is_an_edge(self):
        result = self.build()
        snap0 = result.snapshots[0]
        assert snap0.k == 0
        kinds = {s.kind for s in snap0.segments}
        assert "edge" in kinds
        # the two level-0 points sit within the 30-ball threshold
        edge = [s for s in snap0.segments if s.kind == "edge"][0]
        assert edge.length == pytest.approx(30.3)

    def test_bridge_persists_to_final_stage(self):
        result = self.build()
        final = result.segments
        assert any(s.kind == "bridge" for s in final)
        assert result.accounting["n_bridges"] == 1
        assert result.accounting["bridge_length"] == pytest.approx(31.0)

    def test_ledger_phantom_below_totality(self):
        result = self.build()
        rec = result.cores[0]
        ledger = result.ledger
        total = sum(ledger.unit(g) for (g, _) in rec.index_set)
        # a bridge index set carries at most 12 Cstar 2^-gen r0: exact for
        # infinite extension chains, and truncation only drops pairs
        assert total <= 12.0 * ledger.cstar * 2.0 ** (-rec.gen) * ledger.r0

    def test_certificate_passes(self):
        result = self.build()
        checks = length_certificate(result)
        assert checks == {"cores_checked": 1, "bridges_checked": 1, "stages_checked": len(result.ledger.stages)}

    def test_certificate_catches_deleted_bridge_pair(self):
        result = self.build()
        rec = next(iter(result.bridges.values()))
        victim = sorted(rec.index_set)[0]
        stage = rec.gen
        result.ledger.stages[stage] = frozenset(result.ledger.stages[stage] - {victim})
        with pytest.raises(CertificateError):
            length_certificate(result)

    def test_certificate_catches_intersecting_cores(self):
        # a second bridge whose core is the first one's
        result = self.build()
        rec = result.cores[0]
        twin = dataclasses.replace(rec, gen=rec.gen + 1)
        result.cores.append(twin)
        pattern = f"cores of bridges {re.escape(str(rec.key))} and {re.escape(str(twin.key))} intersect"
        with pytest.raises(CertificateError, match=pattern):
            length_certificate(result)

    def test_certificate_catches_deleted_terminal_pair(self):
        result = self.build()
        last = max(result.ledger.stages)
        pairs = result.ledger.stages[last]
        victim = sorted(p for p in pairs if p[0] == last)[0]
        result.ledger.stages[last] = frozenset(pairs - {victim})
        with pytest.raises(CertificateError):
            length_certificate(result)


class TestMovingExtensionChains:
    """A T2 bridge whose endpoints are missing from every finer level."""

    def build(self):
        lv0 = np.array([[0.5, 0.0], [30.8, 0.0]])
        lv1 = np.array([[0.0, 0.0], [31.0, 0.0]])
        lv2 = np.array([[0.2, 0.0], [30.9, 0.0]])
        lv3 = np.array([[0.25, 0.0], [30.85, 0.0]])
        nets = NetSequence([lv0, lv1, lv2, lv3], r0=1.0, cstar=2.0)
        return construct_curve(nets, fit_alphas(nets))

    def test_chain_segments_are_drawn_and_booked(self):
        result = self.build()
        assert list(result.bridges) == [(1, (0.0, 0.0), (31.0, 0.0))]
        rec = result.bridges[(1, (0.0, 0.0), (31.0, 0.0))]
        assert rec.cases == {"T2"}
        chains = [[(0.0, 0.0), (0.2, 0.0), (0.25, 0.0)], [(31.0, 0.0), (30.9, 0.0), (30.85, 0.0)]]
        chain_segs = {(u, w) for chain in chains for u, w in zip(chain, chain[1:])}
        # the final snapshot holds every chain segment, owned by the bridge
        final = {(s.a, s.b): s for s in result.segments}
        for ab in chain_segs:
            assert final[ab].kind == "bridge" and final[ab].owner == rec.key
        assert {(s.a, s.b) for s in rec.segments} == chain_segs | {((0.0, 0.0), (31.0, 0.0))}
        # the bridge's stage books every pair of both chains
        pairs = {(1 + j, p) for chain in chains for j, p in enumerate(chain)}
        assert rec.index_set == pairs and pairs <= result.ledger.stages[1]
        assert result.accounting["bridge_length"] == pytest.approx(31.4)
        assert length_certificate(result)["bridges_checked"] == 1
        assert verify_connected(result.segments) == (True, {"components": 1})
        # every point of the finest level lies on the curve
        segs = [(np.asarray(s.a), np.asarray(s.b)) for s in result.segments]
        assert hausdorff_to_segments(result.nets.levels[-1], segs) <= 1e-12


def assert_joined(snap):
    """A stage's segments are connected, and each of its vertices lies on one of them."""
    ok, info = verify_connected(snap.segments)
    assert ok, info
    if not snap.segments:
        assert len(snap.vertices) <= 1
        return
    segs = [(np.asarray(s.a, dtype=float), np.asarray(s.b, dtype=float)) for s in snap.segments]
    for v in snap.vertices:
        assert min(segment_distance(v, v, a, b) for a, b in segs) <= 1e-12


class TestCollinearTrace:
    def test_segment_curve_is_tight(self):
        mu = segment_measure(32)
        nets = nets_from_points(mu.points, K=4)
        result = construct_curve(nets, fit_alphas(nets))
        assert result.accounting["n_bridges"] == 0
        naive, dedup = curve_length(result.segments)
        assert dedup <= 0.99
        assert dedup >= 0.45
        for snap in result.snapshots:
            assert_joined(snap)
        segs = [(np.asarray(s.a), np.asarray(s.b)) for s in result.segments]
        assert hausdorff_to_segments(mu.points, segs) <= 2.0 * nets.cstar * nets.sep(4)

    def test_circle_snapshots_connected(self):
        mu = circle_measure(32)
        nets = nets_from_points(mu.points, K=4)
        result = construct_curve(nets, fit_alphas(nets))
        for snap in result.snapshots:
            assert_joined(snap)
        # every net point of the final level lies on the final graph
        segs = [(np.asarray(s.a), np.asarray(s.b)) for s in result.segments]
        assert hausdorff_to_segments(nets.levels[-1], segs) <= 1e-9


class TestConstructEdgeCases:
    def test_epsilon_window(self):
        nets = t2_nets()
        alphas = fit_alphas(nets)
        with pytest.raises(ValueError):
            construct_curve(nets, alphas, epsilon=0.5)
        with pytest.raises(ValueError):
            construct_curve(nets, alphas, epsilon=0.0)

    def test_single_point_limit(self):
        levels = [np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0]])]
        nets = NetSequence(levels, r0=1.0, cstar=3.0)
        result = construct_curve(nets, fit_alphas(nets))
        assert result.segments == []
        assert result.vertices == [(0.0, 0.0)]
        assert result.accounting["length_dedup"] == 0.0

    def test_alpha_recheck(self):
        mu = circle_measure(24)
        nets = nets_from_points(mu.points, K=3)
        alphas = fit_alphas(nets)
        k0 = nets.k0
        key = (k0 + 1, 0)
        line, _alpha = alphas.entries[key]
        alphas.entries[key] = (line, 0.0)
        with pytest.raises(AlphaRecheckError):
            construct_curve(nets, alphas)


class TestExtensionChain:
    def test_forward_proximity_bound(self):
        nets = nets_from_points(circle_measure(40).points, K=5)
        for k in (1, 2, 3):
            for i in range(len(nets.levels[k])):
                chain = extension_chain(nets, k, i)
                assert len(chain) == nets.K - k + 1
                total = sum(
                    float(np.linalg.norm(b - a)) for a, b in zip(chain, chain[1:])
                )
                assert total < 2.0 * nets.cstar * nets.sep(k)


class TestCurveLength:
    def test_collinear_overlaps_counted_once(self):
        segs = [
            Segment((0.0, 0.0), (1.0, 0.0), "edge", 0),
            Segment((0.0, 0.0), (1.0, 0.0), "edge", 1),
            Segment((0.5, 0.0), (1.5, 0.0), "bridge", 0),
        ]
        naive, dedup = curve_length(segs)
        assert naive == pytest.approx(3.0)
        assert dedup == pytest.approx(1.5)

    def test_transversal_segments_not_merged(self):
        segs = [
            Segment((0.0, 0.0), (1.0, 0.0), "edge", 0),
            Segment((0.5, -0.5), (0.5, 0.5), "edge", 0),
        ]
        naive, dedup = curve_length(segs)
        assert naive == pytest.approx(2.0)
        assert dedup == pytest.approx(2.0)

    def test_zero_length_ignored(self):
        segs = [Segment((0.3, 0.3), (0.3, 0.3), "edge", 0)]
        assert curve_length(segs) == (0.0, 0.0)

    def test_disjoint_collinear_kept_apart(self):
        segs = [
            Segment((0.0, 0.0), (1.0, 0.0), "edge", 0),
            Segment((2.0, 0.0), (3.0, 0.0), "edge", 0),
        ]
        naive, dedup = curve_length(segs)
        assert dedup == pytest.approx(2.0)

    @pytest.mark.parametrize("x", [0.0, 1e6, 1e10, 1e12])
    def test_parallel_lines_far_out_kept_apart(self, x):
        # line offsets of 1e10 and more exceed int64 once divided by the 1e-9
        # quantum; the two lines must still form two groups, without warnings
        segs = [
            Segment((x, 0.0), (x, 1.0), "edge", 0),
            Segment((x + 1.0, 0.0), (x + 1.0, 1.0), "edge", 0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            naive, dedup = curve_length(segs)
        assert naive == dedup == 2.0


class TestVerifyConnected:
    def test_shared_endpoint(self):
        segs = [
            Segment((0.0, 0.0), (1.0, 0.0), "edge", 0),
            Segment((1.0, 0.0), (1.0, 1.0), "edge", 0),
        ]
        ok, info = verify_connected(segs)
        assert ok and info["components"] == 1

    def test_t_joint(self):
        segs = [
            Segment((0.0, 0.0), (1.0, 0.0), "edge", 0),
            Segment((0.5, 0.0), (0.5, 1.0), "edge", 0),
        ]
        ok, _ = verify_connected(segs)
        assert ok

    def test_disconnected_reports_part(self):
        segs = [
            Segment((0.0, 0.0), (1.0, 0.0), "edge", 0),
            Segment((5.0, 5.0), (6.0, 5.0), "edge", 0),
        ]
        ok, info = verify_connected(segs)
        assert not ok
        assert info["components"] == 2
        assert len(info["separated_part"]) == 2

    def test_empty(self):
        ok, info = verify_connected([])
        assert ok and info["components"] == 0


# ---------------------------------------------------------------------------
# golden construction: cases, segments, ledger, cores and accounting pinned


def golden_nets() -> dict:
    """Nets reaching every branch: T1/T2 terminals, II-NT walks, Case I, bridges."""
    return {
        "t2": t2_nets(),
        "segment32_K4": nets_from_points(segment_measure(32).points, K=4),
        "circle32_K4": nets_from_points(circle_measure(32).points, K=4),
        "lipschitz48_K6": nets_from_points(lipschitz_graph_measure(48).points, K=6),
    }


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def curve_fingerprint(result) -> dict:
    """Everything construct_curve decides, JSON-ready; floats are exact.

    Cases, cores and accounting are kept verbatim; each stage's sorted
    segments and ledger pairs are kept as a sha256 of their JSON text.
    """

    def seg(s):
        owner = None if s.owner is None else [s.owner[0], list(s.owner[1]), list(s.owner[2])]
        return [list(s.a), list(s.b), s.kind, s.gen, owner]

    return {
        "stages": [
            {
                "k": snap.k,
                "cases": {str(i): c for i, c in sorted(snap.cases.items())},
                "n_segments": len(snap.segments),
                "segments": _digest(sorted(seg(s) for s in snap.segments)),
            }
            for snap in result.snapshots
        ],
        "ledger": {
            str(k): _digest(sorted([j, list(p)] for j, p in pairs))
            for k, pairs in sorted(result.ledger.stages.items())
        },
        "cores": [[list(rec.core[0]), list(rec.core[1])] for rec in result.cores],
        "accounting": result.accounting,
    }


class TestGoldenConstruction:
    GOLDEN = FIXTURES_DIR / "curve_golden.json"

    @pytest.mark.parametrize("name", ["t2", "segment32_K4", "circle32_K4", "lipschitz48_K6"])
    def test_matches_recorded(self, name):
        nets = golden_nets()[name]
        result = construct_curve(nets, fit_alphas(nets))
        got = json.loads(json.dumps(curve_fingerprint(result)))
        want = json.loads(self.GOLDEN.read_text())[name]
        for g, w in zip(got["stages"], want["stages"]):
            assert g == w, f"stage {w['k']}"
        assert got == want

    def test_covers_every_case(self):
        want = json.loads(self.GOLDEN.read_text())
        labels = {
            name: {c for st in fp["stages"] for c in st["cases"].values()}
            for name, fp in want.items()
        }
        assert {"II-T2/T1", "II-T1/T2"} <= labels["t2"]
        assert {"II-NT/NT", "II-NT/T1", "II-T1/NT"} <= labels["segment32_K4"]
        assert "I" in labels["circle32_K4"]
        assert "I" in labels["lipschitz48_K6"]
        assert want["lipschitz48_K6"]["accounting"]["n_bridges"] > 0
