"""Command-line front end: measure I/O, subcommand dispatch, report emission.

Subcommands: beta (per-cube beta reports), jones (per-atom Jones reports),
tst (beta-squared sums over cube families), curve (nets, curve construction,
length certificate), decompose (rectifiable/unrectifiable labeling), and
validate (net, tree, and ledger validators). Reports are JSON with sorted
keys and 17-significant-digit floats, and echo every semantic parameter:
identical input and config give byte-identical output.

Each process imports only the layers its subcommand runs. beta and jones
own the parser's variant lists and four of the six subcommands run them, so
they load with this module; nets, curve and rectify load inside the
subcommands that use them.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 internal
error. Failures emit a machine-readable error object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import re
import sys
from dataclasses import dataclass

import numpy as np

from ._parallel import pmap
from ._serialize import dumps, format_float
from .beta import VARIANTS, BetaCache, beta_multi
from .dyadic import CubeTree, chain_of_cubes
from .errors import (
    CertificateError,
    DimensionMismatch,
    EmptyInput,
    InputFormatError,
    InvalidWeight,
    MrtError,
    ScaleOverflow,
)
from .jones import JONES_VARIANTS, jones_at, square_sum
from .measure import DiscreteMeasure

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# measure I/O

_DIM_HEADER = re.compile(r"#\s*dim\s*=\s*(\d+)\s*$")


def load_measure(path, fmt: str = "auto") -> DiscreteMeasure:
    """Read a discrete measure from csv (coords then weight) or json.

    csv rows hold n coordinates followed by a positive weight; `#` lines are
    comments and an optional `# dim=<n>` header pins the dimension. json
    holds {"dim": n, "atoms": [[x1..xn, w], ...]}. Errors name the offending
    line or atom.
    """
    p = pathlib.Path(path)
    if not p.is_file():
        raise InputFormatError(f"input file not found: {path}")
    if fmt == "auto":
        fmt = "json" if p.suffix.lower() == ".json" else "csv"
    if fmt not in ("csv", "json"):
        raise InputFormatError(f"unknown format {fmt!r} (expected csv or json)")
    if fmt == "json":
        try:
            obj = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
            raise InputFormatError(f"{path}: expected an object with an 'atoms' array")
        dim = obj.get("dim")
        if dim is not None and (type(dim) is not int or dim < 1):
            raise InputFormatError(f"{path}: 'dim' must be a positive integer")
        pts: list[list[float]] = []
        wts: list[float] = []
        for i, row in enumerate(obj["atoms"]):
            if not isinstance(row, list) or len(row) < 2:
                raise InputFormatError(f"{path}: atom {i}: need coordinates plus a weight")
            # exact types: float() would also take true (a bool is an int) and "0.3"
            if not all(type(v) in (int, float) for v in row):
                raise InputFormatError(f"{path}: atom {i}: non-numeric entry")
            try:
                vals = [float(v) for v in row]
            except OverflowError as exc:
                raise InputFormatError(f"{path}: atom {i}: integer beyond float range") from exc
            if dim is None:
                dim = len(vals) - 1
            if len(vals) != dim + 1:
                raise InputFormatError(
                    f"{path}: atom {i}: expected {dim} coordinates plus weight, got {len(vals) - 1}"
                )
            if not vals[-1] > 0:
                raise InputFormatError(f"{path}: atom {i}: nonpositive weight {vals[-1]}")
            pts.append(vals[:-1])
            wts.append(vals[-1])
        if not pts:
            raise InputFormatError(f"{path}: no atoms")
        return DiscreteMeasure(np.array(pts, dtype=float), np.array(wts, dtype=float))
    declared: int | None = None
    dim = None
    pts, wts = [], []
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _DIM_HEADER.match(line)
            if m:
                declared = int(m.group(1))
                if declared < 1:
                    raise InputFormatError(f"{path}:{lineno}: dim must be positive")
                if dim is not None and dim != declared:
                    raise InputFormatError(
                        f"{path}:{lineno}: dim header {declared} conflicts with rows of dimension {dim}"
                    )
                dim = declared
            continue
        fields = line.split(",")
        try:
            vals = [float(f) for f in fields]
        except ValueError as exc:
            raise InputFormatError(f"{path}:{lineno}: malformed row {raw!r}") from exc
        if len(vals) < 2:
            raise InputFormatError(f"{path}:{lineno}: need coordinates plus a weight")
        if dim is None:
            dim = len(vals) - 1
        if len(vals) != dim + 1:
            raise InputFormatError(
                f"{path}:{lineno}: expected {dim} coordinates plus weight, got {len(vals) - 1}"
            )
        if not vals[-1] > 0:
            raise InputFormatError(f"{path}:{lineno}: nonpositive weight {vals[-1]}")
        pts.append(vals[:-1])
        wts.append(vals[-1])
    if not pts:
        raise InputFormatError(f"{path}: no atoms")
    return DiscreteMeasure(np.array(pts, dtype=float), np.array(wts, dtype=float))


def measure_to_json(mu: DiscreteMeasure) -> dict:
    atoms = [[*map(float, xy), float(w)] for xy, w in zip(mu.points, mu.weights)]
    return {"dim": mu.dim, "atoms": atoms}


def save_measure(mu: DiscreteMeasure, path, fmt: str = "json") -> None:
    p = pathlib.Path(path)
    if fmt == "json":
        p.write_text(dumps(measure_to_json(mu)))
    elif fmt == "csv":
        lines = [f"# dim={mu.dim}"]
        for xy, w in zip(mu.points, mu.weights):
            lines.append(",".join(format_float(float(v)) for v in (*xy, w)))
        p.write_text("\n".join(lines) + "\n")
    else:
        raise InputFormatError(f"unknown format {fmt!r} (expected csv or json)")


def save_report(report: dict, path=None) -> None:
    """Serialize a report deterministically to a path, or stdout if none."""
    text = dumps(report)
    if path is None:
        sys.stdout.write(text)
    else:
        pathlib.Path(path).write_text(text)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Effective parameters of one invocation; echoed into every report."""

    command: str
    input: str | None = None
    format: str = "auto"
    output: str | None = None
    p: float = 2.0
    variant: str = "star"
    c: float | None = None
    c_ladder: tuple = (0.01, 0.1, 1.0)
    n_cap: float = 1e3
    eps_ladder: tuple = (0.5, 0.1)
    k_lo: int = 0
    k_hi: int = 4
    k_max: int | None = None
    cstar: float = 2.0
    r0: float | None = None
    depth: int = 5
    epsilon: float = 1.0 / 32.0
    seed: int = 0

    def validate(self) -> None:
        if self.format not in ("auto", "csv", "json"):
            raise InputFormatError(f"format must be auto/csv/json, got {self.format!r}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise InputFormatError(f"p must be finite and >= 1, got {self.p}")
        if self.variant not in set(VARIANTS) | set(JONES_VARIANTS):
            raise InputFormatError(f"unknown beta variant {self.variant!r}")
        if self.variant == "star_c" and (self.c is None or not self.c > 0):
            raise InputFormatError("variant star_c needs --c > 0")
        if self.c is not None and not _finite_positive(self.c):
            raise InputFormatError(f"c must be finite and > 0, got {self.c}")
        if not self.c_ladder or not all(_finite_positive(v) for v in self.c_ladder):
            raise InputFormatError("c ladder must be nonempty, with values finite and > 0")
        if not _finite_positive(self.n_cap):
            raise InputFormatError(f"N cap must be finite and > 0, got {self.n_cap}")
        if not self.eps_ladder or any(not (0 < v < 1) for v in self.eps_ladder):
            raise InputFormatError("eps ladder must be nonempty, with values in (0, 1)")
        if self.k_lo < 0 or self.k_hi < self.k_lo:
            raise InputFormatError(f"need 0 <= k_lo <= k_hi, got {self.k_lo}..{self.k_hi}")
        if self.k_max is not None and self.k_max < 0:
            raise InputFormatError(f"k_max must be >= 0, got {self.k_max}")
        if not (math.isfinite(self.cstar) and self.cstar > 1):
            raise InputFormatError(f"Cstar must be finite and > 1, got {self.cstar}")
        if self.r0 is not None and not _finite_positive(self.r0):
            raise InputFormatError(f"r0 must be finite and > 0, got {self.r0}")
        if self.depth < 1:
            raise InputFormatError(f"depth must be >= 1, got {self.depth}")
        if not 0 < self.epsilon <= 1.0 / 32.0:
            raise InputFormatError(f"epsilon must lie in (0, 1/32], got {self.epsilon}")

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "input": self.input,
            "format": self.format,
            "p": float(self.p),
            "variant": self.variant,
            "c": None if self.c is None else float(self.c),
            "c_ladder": [float(v) for v in self.c_ladder],
            "n_cap": float(self.n_cap),
            "eps_ladder": [float(v) for v in self.eps_ladder],
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "k_max": self.k_max,
            "cstar": float(self.cstar),
            "r0": None if self.r0 is None else float(self.r0),
            "depth": self.depth,
            "epsilon": float(self.epsilon),
            "seed": self.seed,
        }


def _finite_positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


def _parse_ladder(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrt",
        description="Multiscale beta numbers, Jones functions, and curve drawing for discrete measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="measure file (csv or json)")
        sp.add_argument("--format", default="auto", choices=("auto", "csv", "json"))
        sp.add_argument("-o", "--output", default=None, help="report path (default: stdout)")
        sp.add_argument("--seed", type=int, default=0, help="echoed into the report")

    sp = sub.add_parser("beta", help="per-cube beta numbers over mass-carrying cubes")
    common(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--variant", default="star", choices=VARIANTS)
    sp.add_argument("--c", type=float, default=None, help="density threshold for star_c")
    sp.add_argument("--k-lo", type=int, default=0)
    sp.add_argument("--k-hi", type=int, default=4)

    sp = sub.add_parser("jones", help="per-atom truncated Jones function values")
    common(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--variant", default="star", choices=JONES_VARIANTS)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--k-max", type=int, default=None,
                    help="truncation scale (default: per-atom single-occupancy scale)")

    sp = sub.add_parser("tst", help="beta-squared sums: point-set version and mass-family version")
    common(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--k-lo", type=int, default=0)
    sp.add_argument("--k-hi", type=int, default=4)

    sp = sub.add_parser("curve", help="nets, curve construction, and length certificate")
    common(sp)
    sp.add_argument("--depth", type=int, default=5, help="finest net level K")
    sp.add_argument("--cstar", type=float, default=2.0)
    sp.add_argument("--r0", type=float, default=None, help="top scale (default: diam of the support)")
    sp.add_argument("--epsilon", type=float, default=1.0 / 32.0)

    sp = sub.add_parser("decompose", help="rectifiable/unrectifiable labeling with drawn curves")
    common(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--c-ladder", type=_parse_ladder, default=(0.01, 0.1, 1.0))
    sp.add_argument("--n-cap", type=float, default=1e3)
    sp.add_argument("--eps-ladder", type=_parse_ladder, default=(0.5, 0.1))
    sp.add_argument("--k-max", type=int, default=8)

    sp = sub.add_parser("validate", help="net, tree, and curve-ledger validators")
    common(sp)
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--cstar", type=float, default=2.0)
    sp.add_argument("--r0", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=1.0 / 32.0)
    sp.add_argument("--k-hi", type=int, default=3, help="deepest scale of the mass-cube tree check")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, input=args.input)
    for name in (
        "format", "output", "p", "variant", "c", "c_ladder", "n_cap", "eps_ladder",
        "k_lo", "k_hi", "k_max", "cstar", "r0", "depth", "epsilon", "seed",
    ):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def _line_dict(line) -> dict | None:
    if line is None:
        return None
    canon = line.canonical()
    return {"base": [float(v) for v in canon.base],
            "direction": [float(v) for v in canon.direction]}


def _cube_dict(Q) -> dict:
    return {"k": Q.k, "index": [int(v) for v in Q.index]}


def cmd_beta(cfg: RunConfig, mu: DiscreteMeasure) -> dict:
    cache = BetaCache(mu)
    work = []
    for k in range(cfg.k_lo, cfg.k_hi + 1):
        for Q, _ids, mass in cache.mass_triples(k):
            work.append((Q, mass))

    def one(item):
        Q, mass = item
        bv = beta_multi(mu, Q, cfg.p, cfg.variant, c=cfg.c, cache=cache)
        return {
            "cube": _cube_dict(Q),
            "beta": float(bv.value),
            "mass_triple": float(mass),
            "line": _line_dict(bv.line),
        }

    rows = pmap(one, work)
    return {"command": "beta", "config": cfg.as_dict(), "n_cubes": len(rows), "cubes": rows}


def cmd_jones(cfg: RunConfig, mu: DiscreteMeasure) -> dict:
    cache = BetaCache(mu)

    def one(i: int) -> dict:
        rep = jones_at(
            mu, mu.points[i], p=cfg.p, variant=cfg.variant, c=cfg.c,
            k_max=cfg.k_max, cache=cache,
        )
        return {
            "atom": i,
            "point": [float(v) for v in mu.points[i]],
            "weight": float(mu.weights[i]),
            "value": float(rep.value),
            "divergent": bool(rep.divergent),
            "divergent_cubes": [_cube_dict(Q) for Q in rep.divergent_cubes],
            "k_max": rep.k_max,
            "n_terms": len(rep.terms),
        }

    rows = pmap(one, range(len(mu.points)))
    total = float(sum(r["value"] * r["weight"] for r in rows))
    return {
        "command": "jones",
        "config": cfg.as_dict(),
        "atoms": rows,
        "mass_weighted_sum": total,
    }


def cmd_tst(cfg: RunConfig, mu: DiscreteMeasure) -> dict:
    cache = BetaCache(mu)
    k_range = range(cfg.k_lo, cfg.k_hi + 1)
    set_rep = square_sum(mu, "beta_sq_set", points=mu.points, k_range=k_range)
    fam_rep = square_sum(mu, "s_star_star", k_range=k_range, p=cfg.p, cache=cache)

    def rows(rep):
        return [
            {"cube": _cube_dict(Q), "beta": float(b), "term": float(t)}
            for (Q, b, t) in rep.ledger
        ]

    return {
        "command": "tst",
        "config": cfg.as_dict(),
        "beta_sq_set": {"total": set_rep.total, "family": set_rep.family, "cubes": rows(set_rep)},
        "s_star_star": {"total": fam_rep.total, "family": fam_rep.family, "cubes": rows(fam_rep)},
    }


def _curve_payload(result) -> dict:
    """Vertices, indexed segments, lengths, and accounting for a curve result."""
    segs = sorted(result.segments, key=lambda s: (s.gen, s.kind, s.a, s.b))
    verts: list[tuple] = sorted(set(result.vertices))
    index = {v: i for i, v in enumerate(verts)}
    return {
        "vertices": [[float(x) for x in v] for v in verts],
        "segments": [
            {"a": index[s.a], "b": index[s.b], "kind": s.kind, "gen": s.gen}
            for s in segs
        ],
        "length": {
            "naive": result.accounting["length_naive"],
            "dedup": result.accounting["length_dedup"],
        },
        "accounting": {k: v for k, v in result.accounting.items()},
    }


def cmd_curve(cfg: RunConfig, mu: DiscreteMeasure) -> tuple[dict, int]:
    from .curve import construct_curve, length_certificate, verify_connected
    from .nets import fit_alphas, nets_from_points, validate_nets

    nets = nets_from_points(mu.points, r0=cfg.r0, K=cfg.depth, cstar=cfg.cstar)
    val = validate_nets(nets)
    if not val.ok:
        report = {
            "command": "curve",
            "config": cfg.as_dict(),
            "net_validation": {
                "ok": False,
                "cstar_min": val.cstar_min,
                "violations": val.violations[:20],
            },
        }
        return report, EXIT_VALIDATION
    alphas = fit_alphas(nets)
    result = construct_curve(nets, alphas, epsilon=cfg.epsilon)
    cert = length_certificate(result)
    connected, witness = verify_connected(result.segments)
    payload = _curve_payload(result)
    payload.update({
        "command": "curve",
        "config": cfg.as_dict(),
        "net_validation": {"ok": True, "cstar_min": val.cstar_min},
        "connected": bool(connected),
        "certificate": {
            "ok": bool(cert.ok),
            "c_hat": cert.c_hat,
            "c_hat_r0": cert.c_hat_r0,
            "checks": cert.checks,
            "stages_checked": cert.stages_checked,
        },
    })
    return payload, EXIT_OK if (cert.ok and connected) else EXIT_VALIDATION


def cmd_decompose(cfg: RunConfig, mu: DiscreteMeasure) -> dict:
    from .rectify import decompose_estimate

    rep = decompose_estimate(
        mu,
        p=cfg.p,
        c_ladder=cfg.c_ladder,
        N_cap=cfg.n_cap,
        eps_ladder=cfg.eps_ladder,
        k_max=cfg.k_max,
    )
    atoms = [
        {
            "atom": a.index,
            "density": a.density,
            "jones": a.jones,
            "jones_divergent": a.jones_divergent,
            "c_used": a.c_used,
            "label": a.label,
            "reason": a.reason,
        }
        for a in rep.atoms
    ]
    curves = [
        {
            "regime": d.accounting["regime"],
            "n_segments": len(d.curve.segments),
            "length_dedup": d.accounting["length_dedup"],
            "c_hat": d.accounting["c_hat"],
            "regime_budget": d.accounting["regime_budget"],
            "coverage": d.coverage,
        }
        for d in rep.curves
    ]
    return {
        "command": "decompose",
        "config": cfg.as_dict(),
        "params": rep.params,
        "atoms": atoms,
        "curves": curves,
        "dropped": [
            {"atom": d.atom, "c": d.c, "reason": d.reason,
             "base_cube": None if d.base_cube is None else _cube_dict(d.base_cube)}
            for d in rep.dropped
        ],
        "rect_mass": rep.rect_mass,
        "captured_mass": rep.captured_mass,
        "captured_fraction": rep.captured_fraction,
    }


def cmd_validate(cfg: RunConfig, mu: DiscreteMeasure) -> tuple[dict, int]:
    from .curve import construct_curve, length_certificate, verify_connected
    from .nets import fit_alphas, nets_from_points, validate_nets

    checks: dict[str, dict] = {}
    nets = nets_from_points(mu.points, r0=cfg.r0, K=cfg.depth, cstar=cfg.cstar)
    val = validate_nets(nets)
    checks["nets"] = {
        "ok": bool(val.ok),
        "cstar_min": val.cstar_min,
        "violations": val.violations[:20],
    }
    curve_ok = False
    if val.ok:
        alphas = fit_alphas(nets)
        result = construct_curve(nets, alphas, epsilon=cfg.epsilon)
        connected, witness = verify_connected(result.segments)
        checks["curve_connected"] = {
            "ok": bool(connected),
            "witness": {k: int(v) if isinstance(v, (int, np.integer)) else str(v)
                        for k, v in witness.items()},
        }
        try:
            cert = length_certificate(result)
            checks["certificate"] = {"ok": bool(cert.ok), "c_hat": cert.c_hat,
                                     "details": cert.checks}
            curve_ok = connected and cert.ok
        except CertificateError as exc:
            checks["certificate"] = {"ok": False, "error": str(exc)}
    tree_ok = True
    by_root: dict[tuple, set] = {}
    for x in mu.points:
        chain = chain_of_cubes(x, cfg.k_hi)
        by_root.setdefault(chain[0].index, set()).update(chain)
    n_members = 0
    for root_index in sorted(by_root):
        members = by_root[root_index]
        top = next(Q for Q in members if Q.k == 0)
        try:
            CubeTree(top, frozenset(members))
        except MrtError:
            tree_ok = False
        n_members += len(members)
    checks["tree"] = {
        "ok": tree_ok,
        "n_roots": len(by_root),
        "n_members": n_members,
    }
    ok = bool(val.ok and curve_ok and tree_ok)
    report = {"command": "validate", "config": cfg.as_dict(), "ok": ok, "checks": checks}
    return report, EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# dispatch


def run(cfg: RunConfig) -> int:
    """Execute one configured command and write its report; returns exit code."""
    mu = load_measure(cfg.input, cfg.format)
    status = EXIT_OK
    if cfg.command == "beta":
        report = cmd_beta(cfg, mu)
    elif cfg.command == "jones":
        report = cmd_jones(cfg, mu)
    elif cfg.command == "tst":
        report = cmd_tst(cfg, mu)
    elif cfg.command == "curve":
        report, status = cmd_curve(cfg, mu)
    elif cfg.command == "decompose":
        report = cmd_decompose(cfg, mu)
    elif cfg.command == "validate":
        report, status = cmd_validate(cfg, mu)
    else:
        raise InputFormatError(f"unknown command {cfg.command!r}")
    save_report(report, cfg.output)
    return status


def _emit_error(kind: str, exc: BaseException) -> None:
    sys.stdout.write(dumps({"error": {"type": kind, "class": type(exc).__name__,
                                      "message": str(exc)}}))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except InputFormatError as exc:
        _emit_error("input", exc)
        return EXIT_INPUT
    try:
        return run(cfg)
    except (InputFormatError, EmptyInput, DimensionMismatch, InvalidWeight, ScaleOverflow) as exc:
        _emit_error("input", exc)
        return EXIT_INPUT
    except MrtError as exc:
        _emit_error("validation", exc)
        return EXIT_VALIDATION
    except Exception as exc:
        _emit_error("internal", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
