"""Command-line front end: measure I/O, subcommand dispatch, report emission.

Subcommands: beta (per-cube beta reports), jones (per-atom Jones reports),
tst (beta-squared sums over cube families), curve (nets, curve construction,
length certificate), decompose (rectifiable/unrectifiable labeling), and
validate (net and curve-ledger validators). Each cmd_* returns its report
body and exit status; run wraps every body in one envelope: the command name
and a config echo of the command's own options, its input and its format,
read from the parsed arguments. Each default is written once, in
build_parser; the option types check each value's range and _check_options
the checks that span options. curve and validate share one pipeline
(nets, one net validation, alphas, the curve and its connectivity check) and
differ only in how they report the length certificate.

save_report writes every report, error object and measure file with the
standard library's JSON encoder: sorted keys, two-space indents, and floats
in Python's shortest round-trip form (repr: 0.1, 2.0, 1e+16), so each float
parses back to the same bits and identical input and config give
byte-identical output. NaN and infinities raise ValueError.

Each process imports only the layers its subcommand runs. beta and jones
own the parser's variant lists and four of the six subcommands run them, so
they load with this module; nets, curve and rectify load inside the
subcommands that use them.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 internal
error. Failures emit a machine-readable error object on stdout; option
errors (an unknown option or subcommand, a value out of range) are input
errors too, raised as InputFormatError by the parser instead of argparse's
usage text on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import re
import sys

import numpy as np

from ._parallel import pmap
from .beta import VARIANTS, BetaCache, beta_multi
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
    holds {"dim": n, "atoms": [[x1..xn, w], ...]}. Both formats check each
    row with _check_row, and errors name the offending line or atom. A file
    that cannot be read or decoded raises InputFormatError naming the path.
    """
    p = pathlib.Path(path)
    if not p.is_file():
        raise InputFormatError(f"input file not found: {path}")
    if fmt == "auto":
        fmt = "json" if p.suffix.lower() == ".json" else "csv"
    if fmt not in ("csv", "json"):
        raise InputFormatError(f"unknown format {fmt!r} (expected csv or json)")
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"{path}: cannot read: {exc}") from exc
    rows = (_json_rows if fmt == "json" else _csv_rows)(text, path)
    if not rows:
        raise InputFormatError(f"{path}: no atoms")
    table = np.array(rows, dtype=float)
    return DiscreteMeasure(table[:, :-1], table[:, -1])


def _check_row(vals: list[float], dim: int | None, where: str) -> int:
    """Check a row of coordinates plus a positive weight against dim, if set; return its dimension."""
    if len(vals) < 2:
        raise InputFormatError(f"{where}: need coordinates plus a weight")
    if dim is not None and len(vals) != dim + 1:
        raise InputFormatError(f"{where}: expected {dim} coordinates plus weight, got {len(vals) - 1}")
    if not vals[-1] > 0:
        raise InputFormatError(f"{where}: nonpositive weight {vals[-1]}")
    return len(vals) - 1


def _json_rows(text: str, path) -> list[list[float]]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
        raise InputFormatError(f"{path}: expected an object with an 'atoms' array")
    dim = obj.get("dim")
    if dim is not None and (type(dim) is not int or dim < 1):
        raise InputFormatError(f"{path}: 'dim' must be a positive integer")
    rows = []
    for i, row in enumerate(obj["atoms"]):
        where = f"{path}: atom {i}"
        if not isinstance(row, list):
            raise InputFormatError(f"{where}: need coordinates plus a weight")
        # exact types: float() would also take true (a bool is an int) and "0.3"
        if not all(type(v) in (int, float) for v in row):
            raise InputFormatError(f"{where}: non-numeric entry")
        try:
            vals = [float(v) for v in row]
        except OverflowError as exc:
            raise InputFormatError(f"{where}: integer beyond float range") from exc
        dim = _check_row(vals, dim, where)
        rows.append(vals)
    return rows


def _csv_rows(text: str, path) -> list[list[float]]:
    dim = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        where = f"{path}:{lineno}"
        if line.startswith("#"):
            m = _DIM_HEADER.match(line)
            if m:
                declared = int(m.group(1))
                if declared < 1:
                    raise InputFormatError(f"{where}: dim must be positive")
                if dim is not None and dim != declared:
                    raise InputFormatError(
                        f"{where}: dim header {declared} conflicts with rows of dimension {dim}"
                    )
                dim = declared
        elif line:
            try:
                vals = [float(f) for f in line.split(",")]
            except ValueError as exc:
                raise InputFormatError(f"{where}: malformed row {raw!r}") from exc
            dim = _check_row(vals, dim, where)
            rows.append(vals)
    return rows


def save_measure(mu: DiscreteMeasure, path) -> None:
    """Write a measure as json; floats round-trip exactly through load_measure."""
    atoms = [[*map(float, x), float(w)] for x, w in zip(mu.points, mu.weights)]
    save_report({"dim": mu.dim, "atoms": atoms}, path)


def save_report(report: dict, path=None) -> None:
    """Write a report, an error object or a measure as JSON to a path, or stdout if none.

    A path that cannot be written raises InputFormatError naming the path.
    """
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            pathlib.Path(path).write_text(text)
        except OSError as exc:
            raise InputFormatError(f"{path}: cannot write: {exc}") from exc


# ---------------------------------------------------------------------------
# options


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise InputFormatError, so main emits them as JSON."""

    def error(self, message):
        raise InputFormatError(message)


def _checked(cast, ok, need: str):
    """An option type: cast the text, then require ok(value); need names the accepted range."""

    def convert(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {need}, got {text!r}")

    return convert


def _ladder(entry):
    """An option type for a nonempty comma-separated list, each entry converted by entry."""

    def convert(text: str) -> tuple:
        values = tuple(entry(v) for v in text.split(",") if v.strip() != "")
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
        return values

    return convert


_P = _checked(float, lambda v: math.isfinite(v) and v >= 1, "a finite number >= 1")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_UNIT = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")
_CSTAR = _checked(float, lambda v: math.isfinite(v) and v > 1, "a finite number > 1")
_EPSILON = _checked(float, lambda v: 0 < v <= 1.0 / 32.0, "a number in (0, 1/32]")
_SCALE = _checked(int, lambda v: v >= 0, "an integer >= 0")
_DEPTH = _checked(int, lambda v: v >= 1, "an integer >= 1")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mrt",
        description="Multiscale beta numbers, Jones functions, and curve drawing for discrete measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="measure file (csv or json)")
        sp.add_argument("--format", default="auto", choices=("auto", "csv", "json"))
        sp.add_argument("-o", "--output", default=None, help="report path (default: stdout)")

    def nets(sp, depth: int):
        # the options of the nets -> curve pipeline that curve and validate share
        sp.add_argument("--depth", type=_DEPTH, default=depth, help="finest net level K")
        sp.add_argument("--cstar", type=_CSTAR, default=2.0)
        sp.add_argument("--r0", type=_POSITIVE, default=None, help="top scale (default: diam of the support)")
        sp.add_argument("--epsilon", type=_EPSILON, default=1.0 / 32.0)

    sp = sub.add_parser("beta", help="per-cube beta numbers over mass-carrying cubes")
    common(sp)
    sp.add_argument("--variant", default="star", choices=VARIANTS)
    sp.add_argument("--c", type=_POSITIVE, default=None, help="density threshold for star_c")
    sp.add_argument("--k-lo", type=_SCALE, default=0)
    sp.add_argument("--k-hi", type=_SCALE, default=4)

    sp = sub.add_parser("jones", help="per-atom truncated Jones function values")
    common(sp)
    sp.add_argument("--p", type=_P, default=2.0, help="exponent of the tilde beta; the star variants take 2 only")
    sp.add_argument("--variant", default="star", choices=JONES_VARIANTS)
    sp.add_argument("--c", type=_POSITIVE, default=None)
    sp.add_argument("--k-max", type=_SCALE, default=None,
                    help="truncation scale (default: per-atom single-occupancy scale)")

    sp = sub.add_parser("tst", help="beta-squared sums: point-set version and mass-family version")
    common(sp)
    sp.add_argument("--k-lo", type=_SCALE, default=0)
    sp.add_argument("--k-hi", type=_SCALE, default=4)

    sp = sub.add_parser("curve", help="nets, curve construction, and length certificate")
    common(sp)
    nets(sp, depth=5)

    sp = sub.add_parser("decompose", help="rectifiable/unrectifiable labeling with drawn curves")
    common(sp)
    sp.add_argument("--c-ladder", type=_ladder(_POSITIVE), default=(0.01, 0.1, 1.0))
    sp.add_argument("--n-cap", type=_POSITIVE, default=1e3)
    sp.add_argument("--eps-ladder", type=_ladder(_UNIT), default=(0.5, 0.1))
    sp.add_argument("--k-max", type=_SCALE, default=8)

    sp = sub.add_parser("validate", help="net and curve-ledger validators")
    common(sp)
    nets(sp, depth=4)
    return parser


def _check_options(args: argparse.Namespace) -> None:
    """The checks that span two options; the option types check each value on its own."""
    if getattr(args, "variant", None) == "star_c" and args.c is None:
        raise InputFormatError("variant star_c needs --c")
    if args.command == "jones" and args.variant != "tilde" and args.p != 2:
        raise InputFormatError(f"variant {args.variant} takes p = 2 only, got {args.p}")
    if hasattr(args, "k_lo") and args.k_lo > args.k_hi:
        raise InputFormatError(f"need k_lo <= k_hi, got {args.k_lo}..{args.k_hi}")


# ---------------------------------------------------------------------------
# subcommands


def _line_dict(line) -> dict | None:
    if line is None:
        return None
    canon = line.canonical()
    return {"base": [float(v) for v in canon.base],
            "direction": [float(v) for v in canon.direction]}


def cmd_beta(cfg: argparse.Namespace, mu: DiscreteMeasure) -> tuple[dict, int]:
    cache = BetaCache(mu)
    work = []
    for k in range(cfg.k_lo, cfg.k_hi + 1):
        for Q, _ids, mass in cache.mass_triples(k):
            work.append((Q, mass))

    def one(item):
        Q, mass = item
        bv = beta_multi(mu, Q, variant=cfg.variant, c=cfg.c, cache=cache)
        return {
            "cube": Q.as_dict(),
            "beta": float(bv.value),
            "mass_triple": float(mass),
            "line": _line_dict(bv.line),
        }

    rows = pmap(one, work)
    return {"n_cubes": len(rows), "cubes": rows}, EXIT_OK


def cmd_jones(cfg: argparse.Namespace, mu: DiscreteMeasure) -> tuple[dict, int]:
    values, k_max = jones_at(mu, range(len(mu)), p=cfg.p, variant=cfg.variant, c=cfg.c, k_max=cfg.k_max)
    rows = [
        {
            "atom": i,
            "point": [float(v) for v in mu.points[i]],
            "weight": float(mu.weights[i]),
            "value": value,
            "k_max": k,
            "n_terms": k + 1,
        }
        for i, (value, k) in enumerate(zip(values.tolist(), k_max.tolist()))
    ]
    total = float(sum(r["value"] * r["weight"] for r in rows))
    return {"atoms": rows, "mass_weighted_sum": total}, EXIT_OK


def cmd_tst(cfg: argparse.Namespace, mu: DiscreteMeasure) -> tuple[dict, int]:
    rows = square_sum(mu, range(cfg.k_lo, cfg.k_hi + 1))
    set_rows = [(Q, b, b * b * Q.diameter) for (Q, b, _) in rows]
    fam_rows = [(Q, b, b**2 * Q.diameter) for (Q, _, b) in rows]

    def section(ledger, family):
        return {
            "total": float(sum(t for (_, _, t) in ledger)),
            "family": family,
            "cubes": [{"cube": Q.as_dict(), "beta": float(b), "term": float(t)} for (Q, b, t) in ledger],
        }

    return {
        "beta_sq_set": section(set_rows, "cubes whose triple meets the point set, at scales in k_range"),
        "s_star_star": section(fam_rows, "cubes with mu(3Q) > 0 at scales in k_range"),
    }, EXIT_OK


def _drawn_curve(cfg: argparse.Namespace, mu: DiscreteMeasure) -> tuple:
    """(net validation, curve, connected, witness) of a curve or validate run.

    The nets are validated once; when they fail, no curve is drawn and the
    last three entries are (None, False, {}).
    """
    from .curve import construct_curve, verify_connected
    from .nets import fit_alphas, nets_from_points, validate_nets

    nets = nets_from_points(mu.points, r0=cfg.r0, K=cfg.depth, cstar=cfg.cstar)
    val = validate_nets(nets)
    if not val.ok:
        return val, None, False, {}
    result = construct_curve(nets, fit_alphas(nets), epsilon=cfg.epsilon)
    return val, result, *verify_connected(result.segments)


def _net_check(val) -> dict:
    return {"ok": bool(val.ok), "cstar_min": val.cstar_min, "violations": val.violations[:20]}


def cmd_curve(cfg: argparse.Namespace, mu: DiscreteMeasure) -> tuple[dict, int]:
    """Vertices, indexed segments, lengths, accounting and certificate of the curve."""
    from .curve import length_certificate

    val, result, connected, _witness = _drawn_curve(cfg, mu)
    if result is None:
        return {"net_validation": _net_check(val)}, EXIT_VALIDATION
    checks = length_certificate(result)
    segs = sorted(result.segments, key=lambda s: (s.gen, s.kind, s.a, s.b))
    verts: list[tuple] = sorted(set(result.vertices))
    index = {v: i for i, v in enumerate(verts)}
    report = {
        "vertices": [[float(x) for x in v] for v in verts],
        "segments": [
            {"a": index[s.a], "b": index[s.b], "kind": s.kind, "gen": s.gen}
            for s in segs
        ],
        "length": {
            "naive": result.accounting["length_naive"],
            "dedup": result.accounting["length_dedup"],
        },
        "accounting": dict(result.accounting),
        "net_validation": {"ok": True, "cstar_min": val.cstar_min},
        "connected": bool(connected),
        # length_certificate raises on any failed check, so a report is a pass
        "certificate": {"ok": True, "checks": checks},
    }
    return report, EXIT_OK if connected else EXIT_VALIDATION


def cmd_decompose(cfg: argparse.Namespace, mu: DiscreteMeasure) -> tuple[dict, int]:
    from .rectify import decompose_estimate

    return decompose_estimate(mu, c_ladder=cfg.c_ladder, N_cap=cfg.n_cap,
                              eps_ladder=cfg.eps_ladder, k_max=cfg.k_max), EXIT_OK


def cmd_validate(cfg: argparse.Namespace, mu: DiscreteMeasure) -> tuple[dict, int]:
    from .curve import length_certificate

    val, result, connected, witness = _drawn_curve(cfg, mu)
    checks = {"nets": _net_check(val)}
    ok = False  # a curve is drawn only on valid nets
    if result is not None:
        checks["curve_connected"] = {
            "ok": bool(connected),
            "witness": witness,
        }
        try:
            details = length_certificate(result)
            checks["certificate"] = {"ok": True, "c_hat": result.accounting["c_hat"], "details": details}
            ok = bool(connected)
        except CertificateError as exc:
            checks["certificate"] = {"ok": False, "error": str(exc)}
    return {"ok": ok, "checks": checks}, EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# dispatch


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command and write its report; returns exit code.

    The report's config echoes every parsed argument but the report path.
    """
    mu = load_measure(args.input, args.format)
    # looked up per call, so that a replaced cmd_* module attribute is the one run
    commands = {"beta": cmd_beta, "jones": cmd_jones, "tst": cmd_tst, "curve": cmd_curve,
                "decompose": cmd_decompose, "validate": cmd_validate}
    body, status = commands[args.command](args, mu)
    config = {name: value for name, value in vars(args).items() if name != "output"}
    save_report({"command": args.command, "config": config, **body}, args.output)
    return status


def _emit_error(kind: str, exc: BaseException) -> None:
    save_report({"error": {"type": kind, "class": type(exc).__name__, "message": str(exc)}})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
        return run(args)
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
