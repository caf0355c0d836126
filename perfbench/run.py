"""End-to-end and per-layer benchmark of the `mrt` CLI.

Usage:
    python3 perfbench/run.py --workload {cantor16,spiral,mixture} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. Each CLI call is one fresh
`python -m mrt.cli <subcommand> <file>` process, started by this single
driver process one at a time (a closed loop with one client), with the
default thread count: `--threads` is never passed and `MRT_THREADS` is
removed from the environment.

A run generates the workload's measure file from the seed, then repeats
whole rounds (every subcommand of the workload, most several times, then
every check of their reports) until `--seconds` have passed (and at least
MIN_ROUNDS untraced rounds are done), and prints one JSON line:

  --trace 0: end-to-end metrics; a command's time is the median over all
             its calls in the run, set-up time is the median of
             SETUP_SAMPLES fresh processes that import `mrt.cli` and load
             the measure file.
  --trace 1: per-layer metrics from traced rounds (perfbench/tracer.py),
             alternating with untraced rounds; the difference of their
             per-command median times is reported as the tracing overhead.
             All spans are written to
             .perfbench_out/<workload>-seed<N>/trace.json.

`attempted` counts CLI calls and checks; `failed` counts calls that exited
non-zero or wrote no report, checks that could not run because of such a
call, and checks that found a wrong output (only these make `correct`
false). The process exits non-zero without a result line when the program
is missing, a traced function no longer exists, or a call exceeds the run's
time limit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CHECKS, Outcome  # noqa: E402
from inputs import make_sample, write_measure  # noqa: E402
from tracer import EXIT_MISSING  # noqa: E402

SETUP_SAMPLES = 3
MIN_ROUNDS = 2  # every command time is a median of at least two rounds
RUN_LIMIT_S = 170.0  # a run must end within 180 s

EXIT_ERROR = 2


@dataclass(frozen=True)
class Workload:
    sample: str
    # (subcommand, extra arguments, calls per untraced round); calls[0] is
    # the primary command, calls[1] the secondary. Calls repeat within a
    # round so that each command's median rests on several samples.
    calls: tuple


WORKLOADS = {
    # dense 720-angle beta sweeps: every nearby family has <= 16 atoms
    "cantor16": Workload("cantor16", (("beta", ("--k-hi", "0"), 2), ("jones", ("--k-max", "0"), 3))),
    # nets, alphas, curve construction, certificate, connectivity; no beta
    "spiral": Workload("spiral", (("curve", ("--depth", "5"), 1), ("validate", ("--depth", "4"), 3))),
    # the characterization on known labels; beta on large families
    "mixture": Workload(
        "mixture",
        (("decompose", ("--k-max", "4", "--c-ladder", "0.01", "--n-cap", "0.03"), 1),
         ("tst", ("--k-hi", "1"), 2)),
    ),
}


def metric_units(key: str) -> dict[str, str]:
    """Names and units of the metrics listed under `key` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, hung call)."""


@dataclass
class Call:
    command: str
    seconds: float
    rss_mb: float
    outcome: Outcome
    text: str | None  # the report as written
    spans: dict | None = None


class Runner:
    def __init__(self, workload: str, seed: int, out: pathlib.Path, deadline: float):
        self.workload = WORKLOADS[workload]
        self.out = out
        self.deadline = deadline
        self.sample = make_sample(self.workload.sample, seed)
        self.input = out / "measure.json"
        write_measure(self.sample, self.input)
        env = dict(os.environ)
        env.pop("MRT_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # checks that found a wrong output
        self.problems: list[str] = []

    def _spawn(self, argv: list[str], log: pathlib.Path) -> tuple[int, float, float]:
        """Run a child to completion: (exit code, wall seconds, peak RSS in MB)."""
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            raise BenchError("run time limit reached")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"{' '.join(argv[-4:])} did not end within the run time limit")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup_seconds(self) -> float:
        code = "import sys, mrt.cli; mrt.cli.load_measure(sys.argv[1])"
        times = []
        for _ in range(SETUP_SAMPLES):
            rc, wall, _ = self._spawn([sys.executable, "-c", code, str(self.input)], self.out / "setup.log")
            if rc != 0:
                raise BenchError(f"set-up process exited {rc}; see {self.out / 'setup.log'}")
            times.append(wall)
        return statistics.median(times)

    def call(self, command: str, extra, traced: bool) -> Call:
        report = self.out / f"{command}.json"
        report.unlink(missing_ok=True)
        spans_path = self.out / f"{command}.spans.json"
        cli = [command, str(self.input), *extra, "-o", str(report)]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *cli]
        else:
            argv = [sys.executable, "-m", "mrt.cli", *cli]
        rc, wall, rss = self._spawn(argv, self.out / f"{command}.log")
        if traced and rc == EXIT_MISSING:
            raise BenchError((self.out / f"{command}.log").read_text().strip())
        text = report.read_text() if report.is_file() else None
        spans = json.loads(spans_path.read_text()) if traced and spans_path.is_file() else None
        self.attempted += 1
        if rc != 0 or text is None:
            self.failed += 1
            self.problems.append(f"{command}: exit code {rc}, report {'missing' if text is None else 'written'}")
        return Call(command, wall, rss, Outcome(rc, json.loads(text) if text else None), text, spans)

    def round(self, traced: bool) -> list[Call]:
        """Every command of the workload (repeated if untraced), then the checks."""
        calls = [self.call(command, extra, traced)
                 for command, extra, repeats in self.workload.calls
                 for _ in range(1 if traced else repeats)]
        outcomes = {c.command: c.outcome for c in calls}  # the last call of each
        for command, _, _ in self.workload.calls:
            texts = [c.text for c in calls if c.command == command]
            if len(texts) > 1:
                # identical input and arguments must give byte-identical reports
                self.attempted += 1
                if None in texts:
                    self.failed += 1
                elif len(set(texts)) > 1:
                    self.failed += 1
                    self.wrong += 1
                    self.problems.append(f"{command}: reports of identical calls differ")
        for check in CHECKS[self.workload.sample]:
            self.attempted += 1
            if any(outcomes[c].returncode != 0 or outcomes[c].report is None for c in check.reads):
                self.failed += 1  # its input call failed; counted there, not as a wrong output
                continue
            found = check(self.sample, outcomes)
            if found:
                self.failed += 1
                self.wrong += 1
                self.problems.extend(f"{check.__name__}: {p}" for p in found)
        return calls


def layer_metrics(calls: list[Call], sample, names) -> dict[str, float]:
    """Per-layer totals over one traced round (all of its CLI processes).

    A metric "<span name>.<stat>" sums, over the spans of that name, 1 for
    "calls", the self time for "self_s", and the span attribute <stat>
    otherwise. curve.length_ratio is the drawn length over the known length
    of the sampled curve (0 when the round draws no curve).
    """
    values = dict.fromkeys(names, 0.0)
    for call in calls:
        if call.spans is None:
            raise BenchError(f"traced {call.command} wrote no spans")
        spans = call.spans["spans"]
        by_id = {s["id"]: s for s in spans}
        covered: dict[int, float] = {}
        for s in spans:
            p = by_id.get(s["parent"])
            # only same-thread children cover part of the parent's interval
            if p is not None and p["thread"] == s["thread"]:
                covered[p["id"]] = covered.get(p["id"], 0.0) + (s["end"] - s["start"])
        for s in spans:
            stats = {"calls": 1, "self_s": s["end"] - s["start"] - covered.get(s["id"], 0.0),
                     **s.get("attrs", {})}
            for stat, v in stats.items():
                key = f"{s['name']}.{stat}"
                if key in values:
                    values[key] += v
    lengths = []
    for call in calls:
        rep = call.outcome.report or {}
        if call.command == "curve" and "length" in rep:
            lengths.append(rep["length"]["dedup"])
        if call.command == "decompose":
            lengths.extend(c["length_dedup"] for c in rep.get("curves", []))
    if "curve.length_ratio" in values and lengths and sample.known_length:
        values["curve.length_ratio"] = sum(lengths) / sample.known_length
    return values


def run(args) -> dict:
    if not (ROOT / "src" / "mrt" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'mrt' / 'cli.py'} is missing")
    deadline = time.monotonic() + RUN_LIMIT_S
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, out, deadline)

    if not args.trace:
        setup = runner.setup_seconds()
        calls = []
        t0 = time.perf_counter()
        for n in itertools.count():
            if n >= MIN_ROUNDS and time.perf_counter() - t0 >= args.seconds:
                break
            calls.extend(runner.round(traced=False))
        primary, secondary = (c[0] for c in runner.workload.calls)
        metrics = {
            "setup_s": setup,
            "primary_s": statistics.median(c.seconds for c in calls if c.command == primary),
            "secondary_s": statistics.median(c.seconds for c in calls if c.command == secondary),
            "peak_rss_mb": max(c.rss_mb for c in calls),
        }
        units = metric_units("end_to_end")
    else:
        units = metric_units("per_layer")
        plain, traced, spans = [], [], []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < args.seconds:
            plain.extend(runner.round(traced=False))
            calls = runner.round(traced=True)
            traced.append((calls, layer_metrics(calls, runner.sample, units)))
            spans.extend({"round": len(traced), "command": c.command, **c.spans} for c in calls)
        (out / "trace.json").write_text(json.dumps(spans))
        metrics = {name: statistics.median(m[name] for _, m in traced) for name in units}
        # per command: median traced time minus median untraced time
        metrics["trace.overhead_s"] = sum(
            statistics.median(c.seconds for calls, _ in traced for c in calls if c.command == cmd)
            - statistics.median(c.seconds for c in plain if c.command == cmd)
            for cmd, _, _ in runner.workload.calls
        )

    for p in runner.problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
