#!/usr/bin/env python3
"""sirlink benchmark: seeded workloads through the public CLI, checked against mpmath.

    python3 perfbench/run.py --workload {sweep,validate} --seed N --seconds S --trace {0,1}

Run from the root of a repository checkout (it imports sirlink from src/).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The line before it records
the environment, the seed and the details behind the metrics.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  setup_s      median wall time of SETUP_REPEATS fresh `python -m sirlink`
               processes running the workload's warm-up op (import included)
  points_per_s grid points completed per second of the timed region
  op_p50_ms    median over the pool's ops of each op's mean latency; one op is
               one CLI command
  op_tail_ms   the workload's workloads.TAIL_PCT percentile of the same means;
               the detail line has the number of op runs beyond it
  peak_rss_mb  peak resident memory of the process running the ops
--trace 1 runs every op twice, plain then traced, and reports the per-layer
metrics of tracing.layer_metrics plus startup probes and the tracing overhead.

An op fails on an exit code other than 0 (or 3, the CLI's own Monte Carlo
verdict, for validate), on a raised exception, or on an output that misses
the reference (see reference.py).  Ops run whole cycles of the seeded pool
until `--seconds` have passed, so every run sees the same mix of ops.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """One executed op: latency, exit code or exception text, output, verdict."""

    op: workloads.Op
    seconds: float
    code: object
    stdout: str
    stderr: str
    error: str = ""
    flagged: int = 0

    @property
    def ok(self) -> bool:
        return not self.error


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _argv(op: workloads.Op, path: Path) -> list:
    return [op.command, "--config", str(path), *op.extra]


def _spawn(cmd: list):
    """Run a child to completion; (seconds, exit code, stdout, stderr)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, "timeout", "", ""
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


class InProcess:
    """Ops through sirlink.cli.main in this interpreter (sweep, validate)."""

    def __init__(self):
        import sirlink.cli
        self.cli = sirlink.cli

    def run(self, op, path, tracer=None) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.main(_argv(op, path))
                except Exception as exc:  # an op's crash is a counted failure
                    code = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return Outcome(op, seconds, code, out.getvalue(), err.getvalue())

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(outcome: Outcome, refs: dict) -> None:
    """Set outcome.error (and .flagged) from its exit code and output."""
    op = outcome.op
    allowed = (0, 3) if op.command == "validate" else (0,)
    if outcome.code not in allowed:
        outcome.error = f"exit {outcome.code}: {outcome.stderr[-300:]}"
        return
    try:
        outcome.flagged = reference.check_grid(outcome.stdout, op.points, refs,
                                               op.command == "validate")
    except reference.CheckFailed as exc:
        outcome.error = f"output check: {exc}"
    except (ValueError, KeyError) as exc:
        outcome.error = f"unreadable output: {exc}"


def measure_setup(warmup, path) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, code, _, err = _spawn([sys.executable, "-m", "sirlink", *_argv(warmup, path)])
        if code not in (0, 3):
            raise RuntimeError(f"warm-up op failed in a fresh process (exit {code}): {err[-300:]}")
        times.append(seconds)
    return statistics.median(times)


def startup_probes() -> dict:
    runs = []
    for _ in range(PROBE_REPEATS):
        _, code, out, err = _spawn([sys.executable, str(HERE / "child.py"), "probe"])
        if code != 0:
            raise RuntimeError(f"startup probe failed (exit {code}): {err[-300:]}")
        runs.append(json.loads(out))
    return {"cli.import_ms": (statistics.median(r["import_ms"] for r in runs), "ms"),
            "numerics.gl_rule_build_ms": (statistics.median(r["gl_rule_build_ms"] for r in runs), "ms")}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "mpmath": metadata.version("mpmath"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def timed_cycles(runner, cycle, seconds, tracer=None):
    """Run whole cycles until `seconds` have passed; with a tracer, each op plain then traced."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        for op, path in cycle:
            plain.append(runner.run(op, path))
            if tracer is not None:
                tracer.op = len(traced)
                traced.append(runner.run(op, path, tracer))
        if time.perf_counter() - start >= seconds:
            return plain, traced, time.perf_counter() - start


def latency_metrics(outcomes, pool: int, wall: float, tail_pct: int):
    """Median and tail (ms) over the pool's ops of each op's mean latency, and
    the number of op runs beyond the tail.

    Every cycle runs each op of the pool once, so an op's mean spans the whole
    run: when the host's speed changes part-way, every op sees the same mix of
    fast and slow stretches and the percentiles move with that mix smoothly,
    where percentiles of single runs jump between the host's levels.  A failed
    run counts as `wall`, slower than any success.
    """
    runs = [[] for _ in range(pool)]
    for index, outcome in enumerate(outcomes):
        runs[index % pool].append(outcome.seconds if outcome.ok else wall)
    means = [statistics.fmean(r) for r in runs]
    tail = means[0]
    if pool > 1:
        tail = statistics.quantiles(means, n=100, method="inclusive")[tail_pct - 1]
    beyond = sum(len(r) for r, mean in zip(runs, means) if mean > tail)
    return statistics.median(means) * 1e3, tail * 1e3, beyond


def bench(workload: str, seed: int, seconds: float, trace: bool):
    """Run one benchmark; return (detail dict, result dict)."""
    refs = {}
    warmup, ops = workloads.GENERATORS[workload](seed, refs)
    for op in (warmup, *ops):
        for p in op.points:
            reference.ber_cached(refs, reference.shape_of(p), reference.beta_of(p))

    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for index, op in enumerate((warmup, *ops)):
            path = work / f"op{index:03d}.ini"
            path.write_text(op.config, encoding="utf-8")
            paths.append(path)
        cycle = list(zip(ops, paths[1:]))

        runner = InProcess()
        setup_s = None if trace else measure_setup(warmup, paths[0])
        probes = startup_probes() if trace else {}
        first = runner.run(warmup, paths[0])
        _check(first, refs)
        if not first.ok:
            raise RuntimeError(f"warm-up op failed: {first.error}")

        tracer = tracing.Tracer() if trace else None
        plain, traced, wall = timed_cycles(runner, cycle, seconds, tracer)
        peak_rss_mb = runner.peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    outcomes = plain + traced
    for outcome in outcomes:
        _check(outcome, refs)
    failed = [o for o in outcomes if not o.ok]
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "ops": len(plain), "cycle_ops": len(ops),
              "reference_points": len(refs), "failed_frac": len(failed) / len(outcomes),
              "cli.validate_flagged": sum(o.flagged for o in outcomes),
              "failures": sorted({o.error for o in failed})[:5]}

    if trace:
        points = sum(len(o.op.points) for o in traced if o.ok)
        layers = dict(probes)
        layers.update(tracing.layer_metrics(tracer.spans, tracer.counts, points))
        layers["cli.validate_flagged"] = (sum(o.flagged for o in traced), "count")
        layers["tracing_overhead_frac"] = (
            sum(o.seconds for o in traced) / sum(o.seconds for o in plain) - 1.0, "frac")
        metrics = layers
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({"detail": detail, "counts": tracer.counts,
                                          "spans": tracer.spans}), encoding="utf-8")
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        tail_pct = workloads.TAIL_PCT[workload]
        p50, tail, beyond = latency_metrics(plain, len(ops), wall, tail_pct)
        detail.update({"op_tail_pct": tail_pct, "ops_beyond_tail": beyond})
        points = sum(len(o.op.points) for o in plain if o.ok)
        metrics = {"setup_s": (setup_s, "s"),
                   "points_per_s": (points / wall, "1/s"),
                   "op_p50_ms": (p50, "ms"),
                   "op_tail_ms": (tail, "ms"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sirlink" / "__init__.py").is_file():
        print(f"perfbench: no sirlink package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        detail, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
