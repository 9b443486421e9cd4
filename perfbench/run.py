"""Benchmark of movingpoints: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload grid-2d --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): grid-2d, overlap-8d, iris-cli.

--trace 0 measures the end-to-end metrics with tracing off: whole rounds
of operations, closed loop, one client, until --seconds have passed.
--trace 1 runs a fixed, seeded prefix of the first round twice, untraced
and then traced, and reports per-layer calls, self times and counts, the
layer probes and the tracing overhead.

Every output is checked against the committed references. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are the same numbers for people,
with the environment. Exit code 2 means the benchmark cannot run here,
for instance because src/movingpoints is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracing import Tracer
from workloads import HERE, ROOT, SetupError

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# Fresh interpreters started to time set-up; the median is reported.
SETUP_RUNS = 11
SETUP_CHILD = ("import sys, pathlib; sys.path.insert(0, sys.argv[1]); import workloads; "
               "workloads.build(sys.argv[2], int(sys.argv[3]), pathlib.Path(sys.argv[4]))")
# No operation starts after this many seconds, so a run on a much slower
# program still ends well within its time limit.
MAX_MEASURE_S = 120.0
# Operations of the traced run: a prefix of round 0 of the seeded order.
TRACE_OPS = {"grid-2d": 100, "overlap-8d": 10, "iris-cli": 3}
# Speed probes. The host is shared with other tenants: the wall time of a
# fixed task drifts by +-15% and more between 30-s windows, which no run
# length averages away. A fixed reference task timed just before and just
# after an operation slows by about the same factor as the operation, so
# every end-to-end time is scaled, one operation at a time, to the speed
# at which the reference task takes its REF_S. In-process operations use a
# loop of interpreter work and small numpy calls. Child processes may run
# on the other CPU and pay process start and imports, so they use a child
# that imports numpy. The unscaled wall figures are printed beside them.
PROBE_LOOP = 2400
PROBE_REF_S = 3.6e-3
CHILD_PROBE = "import numpy"
CHILD_REF_S = 0.12
# hyperplane_from_points probe: dimension n -> timed calls.
PLANE_PROBES = {2: 400, 4: 200, 8: 60, 16: 20}
PERMUTATION_PROBES = 400


def run_op(wl, op, tracer=None):
    """Run and check one operation; returns (latency s, output, ok)."""
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        out = wl.run(op)
    except Exception as exc:  # an operation that raises counts as failed
        print(f"perfbench: {op}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - t0, None, False
    finally:
        if tracer is not None:
            tracer.active = False
    latency = time.perf_counter() - t0
    return latency, out, wl.check(op, out)


def probe_loop() -> None:
    import numpy as np

    v = np.arange(8.0)
    acc = 0.0
    for i in range(PROBE_LOOP):
        acc += float(v @ v) + i % 7


def probe_child() -> None:
    subprocess.run([sys.executable, "-c", CHILD_PROBE], check=True, timeout=60)


class SpeedProbe:
    """Times a fixed reference task between timed operations."""

    def __init__(self, task, reference_s: float):
        self._task = task
        self._reference_s = reference_s
        self._last = self._time()

    def _time(self) -> float:
        t0 = time.perf_counter()
        self._task()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor to the reference speed for the operation since the last
        call, from the two reference timings that bracket it."""
        before, self._last = self._last, self._time()
        return self._reference_s / (0.5 * (before + self._last))


def measure_setup(name: str, seed: int, workdir: Path):
    """Median over SETUP_RUNS fresh interpreters that import movingpoints
    and build this workload's inputs; returns (scaled s, wall s)."""
    probe = SpeedProbe(probe_child, CHILD_REF_S)
    wall, scaled = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), name,
                               str(seed), str(workdir)],
                              capture_output=True, text=True, timeout=60, check=False)
        wall.append(time.perf_counter() - t0)
        scaled.append(wall[-1] * probe.scale())
        if proc.returncode != 0:
            raise SetupError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return statistics.median(scaled), statistics.median(wall)


def tail(latencies, percentile: float):
    """Order statistic at the percentile; returns (value, samples beyond it)."""
    xs = sorted(latencies)
    i = max(math.ceil(percentile / 100.0 * len(xs)) - 1, 0)
    return xs[i], len(xs) - 1 - i


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus that of its largest child if asked."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def timed_run(wl, args, workdir: Path):
    setup_s, wall_setup_s = measure_setup(args.workload, args.seed, workdir)
    probe = (SpeedProbe(probe_loop, PROBE_REF_S) if wl.in_process
             else SpeedProbe(probe_child, CHILD_REF_S))
    wall, every = [], []  # latencies, unscaled and scaled
    by_kind = {}  # scaled latencies per command, for iris-cli
    attempted = failed = rounds = bad_rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < min(args.seconds, MAX_MEASURE_S):
        ops = wl.round_ops(rounds)
        results = []
        for op in ops:
            if time.perf_counter() - start >= MAX_MEASURE_S:
                break
            latency, out, ok = run_op(wl, op)
            wall.append(latency)
            every.append(latency * probe.scale())
            by_kind.setdefault(wl.kind(op), []).append(every[-1])
            attempted += 1
            failed += not ok
            results.append((op, out))
        if len(results) == len(ops):
            rounds += 1
            bad_rounds += not wl.check_round(results)
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    tail_s, beyond = tail(every, percentile)
    # One client in a closed loop: throughput is 1 / mean latency.
    metrics = {
        "ops_per_s": (len(every) / math.fsum(every), "1/s"),
        "op_p50_s": (statistics.median(every), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(not wl.in_process), "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "ops_per_s": f"{len(every)} operations in {rounds} whole rounds",
        "op_tail_s": f"p{percentile:g} of {len(every)} operations, {beyond} beyond it",
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
    }
    extra = [
        ("failed_frac", failed / attempted, "", f"{failed} of {attempted} operations"),
        ("rounds_not_reproduced", bad_rounds, "count",
         "whole passes whose report differs from the reference"),
        ("wall_ops_per_s", len(wall) / math.fsum(wall), "1/s", "unscaled"),
        ("wall_op_p50_s", statistics.median(wall), "s", "unscaled"),
        ("wall_op_tail_s", tail(wall, percentile)[0], "s", "unscaled"),
        ("wall_setup_s", wall_setup_s, "s", "unscaled"),
    ]
    if len(by_kind) > 1:
        extra += [(f"cli_{kind}_s", statistics.median(xs), "s", f"median of {len(xs)} runs")
                  for kind, xs in by_kind.items()]
    return metrics, notes, extra, attempted, failed, failed == bad_rounds == 0


def layer_probes(seed: int) -> dict:
    """Direct calls of two public functions, timed one call at a time."""
    import numpy as np
    from movingpoints.geometry import hyperplane_from_points
    from movingpoints.rng import SplitMix64

    rnd = random.Random(f"probes/{seed}")
    out = {}
    for n, reps in PLANE_PROBES.items():
        point_sets = [np.array([[rnd.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)])
                      for _ in range(8)]
        times = []
        for r in range(reps):
            t0 = time.perf_counter_ns()
            hyperplane_from_points(point_sets[r % 8])
            times.append(time.perf_counter_ns() - t0)
        out[f"geometry.plane_us.n{n}"] = (statistics.median(times) / 1e3, "us")
    stream = SplitMix64(seed)
    times = []
    for _ in range(PERMUTATION_PROBES):
        t0 = time.perf_counter_ns()
        stream.permutation(80)
        times.append(time.perf_counter_ns() - t0)
    out["rng.permutation80_us"] = (statistics.median(times) / 1e3, "us")
    return out


def traced_run(wl, args, workdir: Path):
    metrics = layer_probes(args.seed)
    wl.in_process = True  # iris-cli: the wrapped layers only see in-process calls
    tracer = Tracer()
    probe = SpeedProbe(probe_loop, PROBE_REF_S)
    attempted = failed = 0

    def one_pass(traced: bool) -> float:
        """Scaled time of the prefix; the probe keeps host drift between the
        two passes out of the overhead."""
        nonlocal attempted, failed
        total = 0.0
        for i, op in enumerate(wl.round_ops(0)[:TRACE_OPS[args.workload]]):
            tracer.op = i
            latency, _, ok = run_op(wl, op, tracer if traced else None)
            total += latency * probe.scale()
            attempted += 1
            failed += not ok
        return total

    untraced_s = one_pass(False)
    tracer.install()
    try:
        traced_s = one_pass(True)
    finally:
        tracer.uninstall()
    metrics.update(tracer.layer_metrics())
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    spans_path = BUILD_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)
    notes = {"trace.overhead_s": f"traced {traced_s:.3f} s - untraced {untraced_s:.3f} s"}
    extra = [("spans", len(tracer.spans), "count", f"written to {spans_path.relative_to(ROOT)}")]
    return metrics, notes, extra, attempted, failed, failed == 0


def environment(args) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30, check=False)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": sha, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def check_declared(metrics: dict, trace: int) -> None:
    """The metrics must be exactly those BENCHMARK.json declares, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    measured = {name: unit for name, (_, unit) in metrics.items()}
    if measured != declared:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(measured.items()) ^ set(declared.items()))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD_DIR))
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        try:
            run = traced_run if args.trace else timed_run
            metrics, notes, extra, attempted, failed, correct = run(wl, args, workdir)
        finally:
            wl.close()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_declared(metrics, args.trace)

    print("# env " + json.dumps(environment(args)))
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:<14.6g} {unit:<6} {notes.get(name, '')}".rstrip())
    for name, value, unit, note in extra:
        print(f"{name:<46} {value:<14.6g} {unit:<6} {note}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
