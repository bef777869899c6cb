"""Benchmark of the bornbox command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works in the checkout that holds this directory and
imports the program from its ``src/``.  One client runs ops in a closed loop
from a single process, every op being one ``bornbox.cli.run_command(argv)``
call with ``--threads 1`` on inputs generated from ``--seed``
(``workloads.py``).  Each op's stdout is checked (``checks.py``) and replayed
with ``--threads 2``, outside the timed region, and must come out
byte-identical.

``--trace 0`` times a fixed number of ops, whole cycles of op slots covering
``--seconds`` at the workload's nominal rate (``Workload.rate``, the seed
program's rate at the reference speed), and reports the end-to-end metrics.
The count depends on the arguments alone, not on how fast a run goes, so
every run of a workload, on any commit, reports the same order statistics:
with a time-bounded loop a slow phase of the machine would drop a cycle and
move the tail quantile to another op class.  ``setup_s`` is the median over
fresh interpreters of the time from spawning the process to the end of a
warm-up op (import plus one op; input generation excluded).  Every timed
op and set-up probe is bracketed by readings of a fixed calibration kernel
and reported at the reference machine speed (``calibrate.py``), since the
shared host's speed swings by up to a factor of two from phase to phase;
the raw figures are in the metadata line.

``--trace 1`` runs a fixed list of ops (the first ``trace_ops``, so its
counts depend only on the seed) once untraced and once with the layer
wrappers of ``tracing.py`` installed, reports the per-layer metrics and
``trace.overhead_frac``, and writes the spans to ``perfbench/.work``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries run metadata, which
is information and not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import env

env.use_checkout_source()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from bornbox.cli import run_command  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
from checks import RunChecks  # noqa: E402
from workloads import WORKLOADS, make_op, make_warmup  # noqa: E402

START = time.perf_counter()
SETUP_PROBES = 7
PROBE = Path(__file__).resolve().parent / "probe.py"
# no new op starts this long after start-up, whatever --seconds says, so a
# run ends well inside the 180 s every run must finish in
WALL_LIMIT_S = 120.0


def run_op(argv: list[str], tracer=None, index: int = -1):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        if tracer is None:
            rc = run_command(argv)
        else:
            rc = tracing.run_traced_op(tracer, index, run_command, argv)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def replay_argv(argv: list[str]) -> list[str]:
    out = list(argv)
    out[out.index("--threads") + 1] = "2"
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def checked_op(op, checks: RunChecks, calibrated: bool = False):
    """Run, check and replay one op: (seconds, raw seconds, stdout,
    problems).  With ``calibrated`` the run is bracketed by speed readings
    and its seconds are scaled to the reference speed."""
    before = calibrate.speed() if calibrated else 0.0
    rc, out, raw = run_op(op.argv)
    elapsed = raw * calibrate.scale(before, calibrate.speed()) if calibrated else raw
    problems = checks.check(op, rc, out)
    if not problems:
        rc2, out2, _ = run_op(replay_argv(op.argv))
        if rc2 != rc or out2 != out:
            problems.append(f"op {op.index} ({op.kind}): stdout differs from "
                            "the --threads 2 replay")
    return elapsed, raw, out, problems


def warm_up(workload, seed: int, workdir: Path):
    """Run the warm-up op in this process; returns (op, stdout, problems)."""
    op = make_warmup(workload, seed, workdir)
    rc, out, _ = run_op(op.argv)
    return op, out, RunChecks().check(op, rc, out)


def measure_setup(argv: list[str], want: str):
    """Median seconds, at the reference speed, from spawning a fresh
    interpreter to the end of its warm-up op, over SETUP_PROBES probes; and
    the raw seconds of each probe."""
    values, raw_values, problems = [], [], []
    for _ in range(SETUP_PROBES):
        before = calibrate.speed()
        start = time.time()
        proc = subprocess.run([sys.executable, str(PROBE), *argv],
                              cwd=env.ROOT, capture_output=True, text=True,
                              timeout=20)
        try:
            record = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            problems.append(f"set-up probe failed: {proc.stderr.strip()[-200:]}")
            continue
        raw_values.append(record["done"] - start)
        values.append(raw_values[-1] * calibrate.scale(before, calibrate.speed()))
        if proc.returncode or record["rc"] or record["sha256"] != want:
            problems.append("set-up probe output differs from the warm-up op")
    if not values:
        values = [0.0]
    return statistics.median(values), raw_values, problems


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    at least ten samples beyond it; the smallest sample when there are fewer
    than eleven, which the fixed op counts of the workloads never give."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - 11)
    return (ordered[idx], 100.0 * (idx + 1) / len(ordered),
            len(ordered) - 1 - idx)


def op_count(workload, seconds: float) -> int:
    """Ops in a timed run: whole cycles of slots covering ``seconds`` at the
    workload's nominal rate."""
    slots = len(workload.slots)
    return slots * max(1, math.ceil(seconds * workload.rate / slots))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(env.SRC.rglob("*.py")))


def timed_run(workload, seed: int, seconds: float, workdir: Path):
    checks = RunChecks()
    warm, warm_out, problems = warm_up(workload, seed, workdir)
    setup_s, setup_values, setup_problems = measure_setup(warm.argv,
                                                          digest(warm_out))
    problems += setup_problems
    latencies: list[float] = []
    raw_latencies: list[float] = []
    kinds: dict[str, list[float]] = {}
    failed = 0
    for index in range(op_count(workload, seconds)):
        if index and time.perf_counter() - START > WALL_LIMIT_S:
            break
        op = make_op(workload, seed, index, workdir)
        elapsed, raw, _, op_problems = checked_op(op, checks, calibrated=True)
        latencies.append(elapsed)
        raw_latencies.append(raw)
        kinds.setdefault(op.kind, []).append(elapsed)
        if op_problems:
            failed += 1
            problems += op_problems
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += checks.verdict()
    attempted = len(latencies)
    busy = sum(latencies)
    tail_ms, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_ms * 1e3, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    meta = {"op_kinds": {kind: len(v) for kind, v in kinds.items()},
            "op_kind_p50_ms": {kind: statistics.median(v) * 1e3
                               for kind, v in kinds.items()},
            "busy_s": busy, "raw_busy_s": sum(raw_latencies),
            "raw_op_p50_ms": statistics.median(raw_latencies) * 1e3,
            "nominal_speed_ms": calibrate.NOMINAL_S * 1e3,
            "op_tail_percentile": tail_pct, "op_tail_samples": attempted,
            "op_tail_beyond": beyond, "fail_frac": failed / attempted,
            "raw_setup_probes_s": setup_values}
    return metrics, attempted, failed, problems, meta


def traced_run(workload, seed: int, workdir: Path):
    """Each op runs untraced (checked and replayed), then traced; the pairs
    sit close in time, so machine drift barely enters the overhead."""
    checks = RunChecks()
    _, _, problems = warm_up(workload, seed, workdir)
    ops = [make_op(workload, seed, i, workdir)
           for i in range(workload.trace_ops)]
    tracer = tracing.Tracer()
    failed = 0
    plain_s = traced_s = 0.0
    for op in ops:
        elapsed, _, want, op_problems = checked_op(op, checks)
        plain_s += elapsed
        patches = tracing.install(tracer)
        try:
            rc, out, elapsed = run_op(op.argv, tracer, op.index)
        finally:
            tracing.uninstall(patches)
        traced_s += elapsed
        if rc != 0 or out != want:
            op_problems.append(f"op {op.index} ({op.kind}): traced stdout "
                               "differs from the untraced run")
        if op_problems:
            failed += 1
            problems += op_problems
    problems += checks.verdict()
    values = tracing.layer_metrics(tracer)
    # ops_per_s untraced / ops_per_s traced - 1, over the same op list
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    trace_path = env.WORK / f"trace-{workload.name}-s{seed}.json"
    tracer.dump(trace_path)
    metrics = {name: (value, tracing.unit_of(name))
               for name, value in values.items()}
    meta = {"op_kinds": dict(Counter(op.kind for op in ops)),
            "untraced_s": plain_s, "traced_s": traced_s,
            "spans": len(tracer.spans),
            "span_file": os.path.relpath(trace_path, env.ROOT)}
    return metrics, 2 * len(ops), failed, problems, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(env.ROOT)
    workload = WORKLOADS[args.workload]
    env.WORK.mkdir(exist_ok=True)
    workdir = env.WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            result = traced_run(workload, args.seed, workdir)
        else:
            result = timed_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, problems, meta = result
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    meta.update({"workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__,
                 "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines(),
                 "attempted": attempted, "failed": failed,
                 "problems": problems[:20]})
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
