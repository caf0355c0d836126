"""Curve construction through multiscale nets with full length bookkeeping.

Given validated nets (V_k), fitted lines and alphas, and a flatness threshold
epsilon in (0, 1/32], the construction emits a polygonal graph per generation:

  * generation k0 (first with >= 2 points everywhere after): every pair of
    net points becomes an edge (distance < 30 Cstar 2^{-k0} r0) or a bridge;
  * later generations, per vertex v: Case I (alpha >= epsilon) connects all
    pairs inside the open 65 Cstar 2^{-k} r0 ball by the same edge/bridge
    threshold; Case II (alpha < epsilon) orders the ball along the fitted
    line and walks right/left adding edges while consecutive gaps stay below
    the threshold and points stay inside the 30-ball; a walk with no edges
    makes v terminal on that side, resolved by alternatives T1 (lone point)
    or T2 (a bridge to the next vertex along the line).

Edges are generation-local; bridges (edge plus greedy nearest-point
extension chains into later generations) freeze and persist. Every stage
updates a phantom-length ledger (copy, delete the two affected generations,
re-add per case) whose Bridge and Terminal-vertex properties, plus pairwise
disjointness of T2 bridge cores, are rechecked by length_certificate.
Accounting tracks edge/bridge/phantom/core totals and the empirical constant
relating curve length to the alpha budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphaRecheckError,
    CertificateError,
    ForwardProximityError,
    NetValidationError,
)
from .geometry import fit_line, segment_distance
from .nets import NEIGHBORHOOD_FACTOR, AlphaAssignment, NetSequence

EDGE_FACTOR = 30.0    # edge/bridge threshold factor (of Cstar 2^{-k} r0)
CORE_FRACTION = 0.9   # central fraction of a bridge's main segment
T2_WINDOW = 64.0      # T2 bridge separation must stay below this factor
BRIDGE_WINDOW = 130.0  # any bridge separation stays below this factor


def _key(p: np.ndarray) -> tuple:
    return tuple(float(x) for x in p)


@dataclass(frozen=True)
class Segment:
    a: tuple
    b: tuple
    kind: str            # "edge" | "bridge"
    gen: int
    owner: tuple | None = None   # bridge key for bridge parts

    @property
    def length(self) -> float:
        return math.dist(self.a, self.b)


@dataclass
class BridgeRecord:
    gen: int
    a: tuple
    b: tuple
    index_set: frozenset
    segments: list[Segment]
    core: tuple                               # (point, point)
    cases: set = field(default_factory=set)   # {"initial", "I", "T2"}

    @property
    def key(self) -> tuple:
        return (self.gen, self.a, self.b)

    @property
    def length(self) -> float:
        return float(sum(s.length for s in self.segments))


@dataclass
class Snapshot:
    k: int
    segments: list[Segment]
    vertices: np.ndarray
    cases: dict[int, str]


class PhantomLedger:
    """Stage-indexed sets of (generation, vertex) pairs carrying phantom length."""

    def __init__(self, cstar: float, r0: float):
        self.cstar = cstar
        self.r0 = r0
        self.stages: dict[int, frozenset] = {}

    def unit(self, gen: int) -> float:
        """Phantom length of one pair of generation gen: 3 Cstar 2^{-gen} r0."""
        return 3.0 * self.cstar * 2.0 ** (-gen) * self.r0

    def total(self, stage: int) -> float:
        return float(sum(self.unit(j) for (j, _) in self.stages[stage]))


@dataclass
class CurveResult:
    # segment endpoints, then the last level's net points, in first-seen order
    vertices: list[tuple]
    snapshots: list[Snapshot]
    ledger: PhantomLedger
    bridges: dict[tuple, BridgeRecord]
    cores: list[BridgeRecord]
    accounting: dict
    nets: NetSequence
    alphas: AlphaAssignment | None
    epsilon: float

    @property
    def segments(self) -> list[Segment]:
        return self.snapshots[-1].segments if self.snapshots else []


# ---------------------------------------------------------------------------
# extensions


def extension_chain(nets: NetSequence, k: int, i: int) -> list[np.ndarray]:
    """Greedy chain v, nearest in V_{k+1}, nearest in V_{k+2}, ... up to level K.

    Nearest-point ties break lexicographically. By forward proximity the
    total length is below 2 Cstar 2^{-k} r0.
    """
    chain = [nets.levels[k][i]]
    for j in range(k + 1, nets.K + 1):
        chain.append(nets.levels[j][nets.nearest(j, chain[-1])])
    return chain


def _chain_for_point(nets: NetSequence, k: int, p: np.ndarray, memo: dict) -> list[np.ndarray]:
    key = (k, _key(p))
    if key not in memo:
        # constructively p is a row of V_k; nearest finds it (distance 0)
        memo[key] = extension_chain(nets, k, nets.nearest(k, p))
    return memo[key]


def _bridge_record(nets: NetSequence, k: int, va: np.ndarray, vb: np.ndarray, memo: dict) -> BridgeRecord:
    a, b = _key(va), _key(vb)
    if b < a:
        a, b = b, a
        va, vb = vb, va
    chains = [[_key(p) for p in _chain_for_point(nets, k, v, memo)] for v in (va, vb)]
    pairs = {(k + j, p) for chain in chains for j, p in enumerate(chain)}
    segs: list[Segment] = []
    bkey = (k, a, b)
    for chain in chains:
        for u, w in zip(chain, chain[1:]):
            if u != w:
                segs.append(Segment(u, w, "bridge", k, owner=bkey))
    segs.append(Segment(a, b, "bridge", k, owner=bkey))
    pa, pb = np.asarray(a), np.asarray(b)
    lo = 0.5 * (1.0 - CORE_FRACTION)
    core = (_key(pa + lo * (pb - pa)), _key(pa + (1.0 - lo) * (pb - pa)))
    return BridgeRecord(gen=k, a=a, b=b, index_set=frozenset(pairs), segments=segs, core=core)


# ---------------------------------------------------------------------------
# construction


def construct_curve(
    nets: NetSequence,
    alphas: AlphaAssignment,
    epsilon: float = 1.0 / 32.0,
) -> CurveResult:
    if not (0 < epsilon <= 1.0 / 32.0):
        raise ValueError("epsilon must lie in (0, 1/32]")
    cstar, r0 = nets.cstar, nets.r0
    ledger = PhantomLedger(cstar, r0)
    k0 = nets.k0
    if k0 is None:
        # some tail level is a single point: the limit is that point
        acct = _accounting([], {}, [], ledger, nets, None, None)
        return CurveResult([_key(nets.levels[-1][0])], [], ledger, {}, [], acct, nets, alphas, epsilon)

    K = nets.K
    sep = nets.sep
    bridges: dict[tuple, BridgeRecord] = {}
    cores: list[BridgeRecord] = []
    chain_memo: dict = {}
    snapshots: list[Snapshot] = []

    def thresh(k: int) -> float:
        return EDGE_FACTOR * cstar * sep(k)

    def ball(k: int, factor: float) -> float:
        return factor * cstar * sep(k)

    def add_bridge(k, va, vb, case: str) -> BridgeRecord:
        rec = _bridge_record(nets, k, va, vb, chain_memo)
        d = math.dist(rec.a, rec.b)
        if not (thresh(k) <= d):
            raise NetValidationError(
                f"bridge at stage {k} with separation {d} below threshold {thresh(k)}"
            )
        if not (d < ball(k, BRIDGE_WINDOW)):
            raise NetValidationError(
                f"bridge at stage {k} with separation {d} outside window {ball(k, BRIDGE_WINDOW)}"
            )
        if case == "T2" and not (d < ball(k, T2_WINDOW)):
            raise NetValidationError(
                f"terminal bridge at stage {k} with separation {d} outside window {ball(k, T2_WINDOW)}"
            )
        if rec.key in bridges:
            rec = bridges[rec.key]
        else:
            bridges[rec.key] = rec
        if case == "T2" and "T2" not in rec.cases:
            cores.append(rec)
        rec.cases.add(case)
        return rec

    def frozen_segments() -> list[Segment]:
        out = []
        for key in sorted(bridges):
            out.extend(bridges[key].segments)
        return out

    # initial stage: complete graph on V_{k0} under the threshold rule
    V0 = nets.levels[k0]
    edges: dict[tuple, Segment] = {}
    phantom: set = {(k0, _key(v)) for v in V0}
    for iu in range(len(V0)):
        for iv in range(iu + 1, len(V0)):
            d = float(np.linalg.norm(V0[iu] - V0[iv]))
            a, b = sorted((_key(V0[iu]), _key(V0[iv])))
            if d < thresh(k0):
                edges[(a, b)] = Segment(a, b, "edge", k0)
            else:
                rec = add_bridge(k0, np.asarray(a), np.asarray(b), "initial")
                phantom |= rec.index_set
    ledger.stages[k0] = frozenset(phantom)
    segs0 = sorted(edges.values(), key=lambda s: (s.a, s.b)) + frozen_segments()
    snapshots.append(Snapshot(k0, segs0, V0, {i: "initial" for i in range(len(V0))}))

    # subsequent stages
    for k in range(k0 + 1, K + 1):
        Vk = nets.levels[k]
        Vp = nets.levels[k - 1]
        edges = {}
        adds: set = set()
        cases: dict[int, str] = {}

        def add_edge(pa: np.ndarray, pb: np.ndarray):
            d = float(np.linalg.norm(pa - pb))
            if not d < thresh(k):
                raise CertificateError(f"edge of length {d} inserted beyond the distance window")
            a, b = sorted((_key(pa), _key(pb)))
            if a != b:
                edges[(a, b)] = Segment(a, b, "edge", k)

        for i in range(len(Vk)):
            v = Vk[i]
            alpha = alphas.alpha(k, i)
            line = alphas.line(k, i)
            sup = float(line.distances(nets.neighborhood(k, v)).max())
            if sup > alpha * sep(k) * (1 + 1e-9) + 1e-15 * r0:
                raise AlphaRecheckError(
                    f"alpha at level {k} vertex {i} too small: sup {sup} vs {alpha * sep(k)}"
                )
            members = nets.near(k, v, ball(k, NEIGHBORHOOD_FACTOR))
            if alpha >= epsilon:
                cases[i] = "I"
                for a_pos in range(len(members)):
                    for b_pos in range(a_pos + 1, len(members)):
                        pa, pb = Vk[members[a_pos]], Vk[members[b_pos]]
                        d = float(np.linalg.norm(pa - pb))
                        if d < thresh(k):
                            add_edge(pa, pb)
                        else:
                            rec = add_bridge(k, pa, pb, "I")
                            adds |= rec.index_set
                adds |= {(k, _key(Vk[m])) for m in members}
                continue
            # Case II: order the ball along the fitted line
            pts = Vk[members]
            ts = line.params(pts)
            order = sorted(range(len(members)), key=lambda r: (ts[r], tuple(pts[r])))
            ranked = [members[r] for r in order]
            pos = ranked.index(i)
            side_cases = []
            for direction in (1, -1):
                t_count = 0
                cur = pos
                while True:
                    nxt = cur + direction
                    if nxt < 0 or nxt >= len(ranked):
                        break
                    p_cur, p_nxt = Vk[ranked[cur]], Vk[ranked[nxt]]
                    if float(np.linalg.norm(p_nxt - p_cur)) >= thresh(k):
                        break
                    if float(np.linalg.norm(p_nxt - v)) >= ball(k, EDGE_FACTOR):
                        break
                    add_edge(p_cur, p_nxt)
                    t_count += 1
                    cur = nxt
                if t_count > 0:
                    side_cases.append("NT")
                    continue
                # terminal on this side
                w = nets.nearest(k - 1, v)
                w_v = Vp[w]
                if not nets.distances(k - 1, v)[w] < cstar * sep(k):
                    raise NetValidationError(
                        f"nearest previous-level vertex too far at level {k} vertex {i}"
                    )
                in65 = nets.near(k - 1, v, ball(k, NEIGHBORHOOD_FACTOR))
                tprev = line.params(Vp[in65])
                prev_order = sorted(
                    range(len(in65)),
                    key=lambda r: (direction * tprev[r], tuple(Vp[in65[r]])),
                )
                t_wv = float(line.params(w_v[None, :])[0])
                # enumeration from w_v onward in the walk direction
                enum = [
                    in65[r]
                    for r in prev_order
                    if direction * tprev[r] >= direction * t_wv - 1e-15 * r0
                ]
                near_set = set(int(x) for x in nets.near(k - 1, v, cstar * sep(k - 1)))
                enum_near = [j for j, row in enumerate(enum) if int(row) in near_set]
                if not enum_near:
                    raise NetValidationError(
                        f"no previous-level vertex near terminal vertex at level {k}"
                    )
                r_pos = enum_near[-1]
                if r_pos == len(enum) - 1:
                    t1 = True
                else:
                    gap = float(np.linalg.norm(Vp[enum[r_pos]] - Vp[enum[r_pos + 1]]))
                    t1 = gap >= thresh(k - 1)
                if t1:
                    side_cases.append("T1")
                    adds.add((k, _key(v)))
                else:
                    nxt = pos + direction
                    if nxt < 0 or nxt >= len(ranked):
                        raise ForwardProximityError(
                            f"terminal bridge target missing at level {k} vertex {i}; "
                            "forward proximity is violated"
                        )
                    v1 = Vk[ranked[nxt]]
                    rec = add_bridge(k, v, v1, "T2")
                    adds |= rec.index_set
                    side_cases.append("T2")
            cases[i] = "II-" + "/".join(side_cases)

        prev = ledger.stages[k - 1]
        kept = {pair for pair in prev if pair[0] not in (k - 1, k)}
        ledger.stages[k] = frozenset(kept | adds)
        segs = sorted(edges.values(), key=lambda s: (s.a, s.b)) + frozen_segments()
        snapshots.append(Snapshot(k, segs, Vk, cases))

    final = snapshots[-1]
    ends = [p for s in final.segments for p in (s.a, s.b)]
    vertices = list(dict.fromkeys(ends + [_key(v) for v in final.vertices]))
    acct = _accounting(final.segments, bridges, cores, ledger, nets, alphas, k0)
    return CurveResult(vertices, snapshots, ledger, bridges, cores, acct, nets, alphas, epsilon)


def _accounting(segments, bridges, cores, ledger, nets, alphas, k0) -> dict:
    naive, dedup = curve_length(segments)
    edge_total = float(sum(s.length for s in segments if s.kind == "edge"))
    bridge_total = float(sum(rec.length for rec in bridges.values()))
    core_total = float(sum(math.dist(rec.core[0], rec.core[1]) for rec in cores))
    phantom_final = ledger.total(max(ledger.stages)) if ledger.stages else 0.0
    budget_full = alphas.budget() if alphas is not None else 0.0
    budget_stages = 0.0
    if alphas is not None and k0 is not None:
        budget_stages = float(
            sum(
                a * a * 2.0 ** (-k) * nets.r0
                for (k, _), (_, a) in alphas.entries.items()
                if k >= k0 + 1
            )
        )
    acct = {
        "k0": k0,
        "K": nets.K,
        "cstar": nets.cstar,
        "r0": nets.r0,
        "n_segments": len(segments),
        "n_bridges": len(bridges),
        "n_cores": len(cores),
        "edge_length": edge_total,
        "bridge_length": bridge_total,
        "core_length": core_total,
        "phantom_length_final": phantom_final,
        "alpha_budget_full": budget_full,
        "alpha_budget_stages": budget_stages,
        "length_naive": naive,
        "length_dedup": dedup,
    }
    if k0 is not None:
        base = 2.0 ** (-k0) * nets.r0
        acct["c_hat"] = dedup / (base + budget_stages) if base + budget_stages > 0 else 0.0
        acct["c_hat_r0"] = dedup / (nets.r0 + budget_full)
    else:
        acct["c_hat"] = 0.0
        acct["c_hat_r0"] = 0.0
    return acct


# ---------------------------------------------------------------------------
# connectivity and length


class _DSU:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def verify_connected(segments: list[Segment]):
    """Whether the union of segments is connected.

    Joins via shared endpoints first, then, only if that leaves several
    components, via any segment/segment distance of at most 1e-12 (covers
    T-joints, transversal crossings, collinear overlaps). Returns (ok,
    witness): a component count when connected, otherwise a bipartition
    listing one separated part.
    """
    tol = 1e-12
    if not segments:
        return True, {"components": 0}
    nodes: dict[tuple, int] = {}

    def nid(p: tuple) -> int:
        if p not in nodes:
            nodes[p] = len(nodes)
        return nodes[p]

    seg_nodes = [(nid(s.a), nid(s.b)) for s in segments]
    dsu = _DSU(len(nodes))
    for ia, ib in seg_nodes:
        dsu.union(ia, ib)
    if len({dsu.find(i) for i in range(len(nodes))}) == 1:
        return True, {"components": 1}
    arr = [
        (np.asarray(s.a, dtype=float), np.asarray(s.b, dtype=float), seg_nodes[i][0])
        for i, s in enumerate(segments)
    ]
    # one pass suffices: a pair within tol is joined when met, and unions only merge
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            ri, rj = dsu.find(arr[i][2]), dsu.find(arr[j][2])
            if ri != rj and segment_distance(arr[i][0], arr[i][1], arr[j][0], arr[j][1]) <= tol:
                dsu.union(ri, rj)
    roots = {dsu.find(i) for i in range(len(nodes))}
    if len(roots) <= 1:
        return True, {"components": len(roots)}
    by_root: dict[int, list[tuple]] = {}
    for p, i in nodes.items():
        by_root.setdefault(dsu.find(i), []).append(p)
    parts = sorted(by_root.values(), key=len)
    return False, {"components": len(roots), "separated_part": parts[0]}


def curve_length(segments: list[Segment]) -> tuple[float, float]:
    """(naive sum of lengths, length after merging collinear overlaps).

    Segments are grouped by (direction, line offset) rounded to multiples of
    1e-9; within a group the projections form 1-d intervals whose union is
    measured, so duplicates and partial collinear overlaps are counted once.
    """
    quantum = 1e-9
    naive = 0.0
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for s in segments:
        a = np.asarray(s.a, dtype=float)
        b = np.asarray(s.b, dtype=float)
        L = float(np.linalg.norm(b - a))
        naive += L
        if L == 0.0:
            continue
        d = (b - a) / L
        for lead in range(len(d)):
            if abs(d[lead]) > 1e-14:
                break
        if d[lead] < 0:
            d = -d
        off = a - (a @ d) * d
        # rounded floats, not int64: the cast wraps past 2^63 (offsets near
        # 1e10 at this quantum) and would merge distinct lines
        key = (tuple(np.round(d / quantum)), tuple(np.round(off / quantum)))
        t1, t2 = float(a @ d), float(b @ d)
        groups.setdefault(key, []).append((min(t1, t2), max(t1, t2)))
    dedup = 0.0
    for intervals in groups.values():
        intervals.sort()
        cur_lo, cur_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > cur_hi:
                dedup += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        dedup += cur_hi - cur_lo
    return float(naive), float(dedup)


# ---------------------------------------------------------------------------
# certificate


def length_certificate(result: CurveResult) -> dict:
    """Validate ledger properties and core disjointness; return what was checked.

    Raises CertificateError naming the stage and pair on any violation:
    (a) cores of terminal bridges must be pairwise disjoint; (b) each stage's
    ledger must contain the index set of every bridge born at that stage, and
    must contain (k, w) for every vertex w that is extremal in its flat
    30-ball neighborhood (terminal vertex property). Flatness is judged at
    the construction's own epsilon. Otherwise it returns the numbers of
    cores, bridges and stages checked; the empirical constants c_hat and
    c_hat_r0 relating curve length to the alpha budget are in the accounting.
    """
    eps = result.epsilon
    nets = result.nets
    cstar, r0 = nets.cstar, nets.r0
    tol = 1e-12 * r0
    cores = result.cores
    for i in range(len(cores)):
        for j in range(i + 1, len(cores)):
            d = segment_distance(*map(np.asarray, cores[i].core + cores[j].core))
            if d <= tol:
                raise CertificateError(
                    f"cores of bridges {cores[i].key} and {cores[j].key} intersect (distance {d})"
                )
    stages = sorted(result.ledger.stages)
    for k in stages:
        pairs = result.ledger.stages[k]
        for key, rec in result.bridges.items():
            if rec.gen == k and not rec.index_set <= pairs:
                missing = sorted(rec.index_set - pairs)[:3]
                raise CertificateError(
                    f"bridge property fails at stage {k}: ledger misses {missing} of bridge {key}"
                )
        Vk = nets.levels[k]
        bound = EDGE_FACTOR * cstar * nets.sep(k)
        for w in Vk:
            nbhd = Vk[nets.near(k, w, bound)]
            if len(nbhd) > 1:
                ell, sup = fit_line(nbhd, None, p="sup")
                if not sup < eps * nets.sep(k):
                    continue  # no line certifies flatness; vertex carries no obligation
            else:
                ell = None
            if ell is None:
                left_empty = right_empty = True
            else:
                ts = ell.params(nbhd)
                t_w = float(ell.params(w[None, :])[0])
                left_empty = not np.any(ts < t_w)
                right_empty = not np.any(ts > t_w)
            if (left_empty or right_empty) and (k, _key(w)) not in result.ledger.stages[k]:
                raise CertificateError(
                    f"terminal vertex property fails at stage {k}: pair ({k}, {_key(w)}) missing"
                )
    return {
        "cores_checked": len(cores),
        "bridges_checked": len(result.bridges),
        "stages_checked": len(stages),
    }
