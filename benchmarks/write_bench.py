"""Write BENCH_<pr>.json: the end-to-end benchmark and the layer timings in one record.

    python3 benchmarks/write_bench.py --pr N [--runs 3] [--seconds 25]

Runs ``perfbench/run.py --trace 0`` --runs times on each workload of
BENCHMARK.json (workload seeds 1, 2, ...) and
``pytest benchmarks/bench_layers.py --benchmark-json`` once, then writes
BENCH_<pr>.json at the repository root. Each case records its median,
its interquartile range (IQR) and its number of rounds: perfbench runs for
the end-to-end metrics, timing rounds for the layer cases. The record also
holds the Python and numpy versions, the OpenBLAS core in use, nproc,
the git sha and whether the measured code (src/, benchmarks/, perfbench/)
differs from it, and ``src_lines``, the line count of src/movingpoints/*.py
(as ``wc -l`` counts it); that count is not a timed case.

The host's speed drifts between runs of this script, so the layer cases,
which are plain wall times, are compared through a reference task: a
fixed loop of interpreter work and small numpy calls, timed in this
process just before and just after the layer run. Its median is stored as ``reference_s``, and
a layer case is compared as its median divided by that. The perfbench
cases are compared as they are, since perfbench scales each operation by
its own reference task. The newest earlier BENCH_*.json is the baseline:
every case whose (scaled) median is more than 10% slower than there is
listed under "slower" in the file and printed. A baseline without
``reference_s`` cannot be compared; the script prints a note and writes
no list. The script only measures its own child processes and the
reference task.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SLOWER = 0.10  # flag a case whose median got worse than the baseline by this fraction
REFERENCE_LOOP = 2400  # iterations of the reference task, about 5 ms on a 2-vCPU VM
REFERENCE_ROUNDS = 15  # timings of the reference task before and after the layer run


def summary(values: list[float]) -> dict:
    """Median, IQR and count; one value has an IQR of 0."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "rounds": len(values)}


def perfbench_cases(runs: int, seconds: float) -> tuple[dict, dict]:
    """Per workload and end-to-end metric, the summary over `runs` perfbench
    runs; and per workload, the correctness of each run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    cases, checks = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in better}
        checks[workload] = []
        for seed in range(1, runs + 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            checks[workload].append({key: result[key]
                                     for key in ("correct", "attempted", "failed")})
            for name in better:
                values[name].append(result["metrics"][name]["value"])
            print(f"perfbench {workload} seed {seed}: ops_per_s "
                  f"{result['metrics']['ops_per_s']['value']:.3f}", flush=True)
        for name, unit in ((m["name"], m["unit"]) for m in spec["end_to_end"]):
            cases[f"perfbench/{workload}/{name}"] = {
                **summary(values[name]), "unit": unit, "better": better[name]}
    return cases, checks


def reference_task() -> None:
    """A fixed loop of interpreter work and small numpy calls."""
    import numpy as np

    v = np.arange(8.0)
    acc = 0.0
    for i in range(REFERENCE_LOOP):
        acc += float(v @ v) + i % 7


def reference_times() -> list[float]:
    """REFERENCE_ROUNDS wall times of the reference task, in seconds, after
    one untimed round (the first imports numpy)."""
    reference_task()
    times = []
    for _ in range(REFERENCE_ROUNDS):
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    return times


def layer_cases() -> tuple[dict, float]:
    """Per bench_layers.py case, the pytest-benchmark summary in seconds; and
    the median time of the reference task around the layer run."""
    before = reference_times()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "layers.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        str(ROOT / "benchmarks" / "bench_layers.py"),
                        "--benchmark-columns=median,iqr,rounds", f"--benchmark-json={out}"],
                       check=True, cwd=ROOT, env=env)
        report = json.loads(out.read_text(encoding="utf-8"))
    reference_s = statistics.median(before + reference_times())
    return {f"layers/{b['name']}": {"median": b["stats"]["median"], "iqr": b["stats"]["iqr"],
                                    "rounds": b["stats"]["rounds"], "unit": "s",
                                    "better": "lower"}
            for b in report["benchmarks"]}, reference_s


def openblas_core() -> str | None:
    """The core OpenBLAS picked at run time, read from the library numpy loaded."""
    import numpy  # noqa: F401  (loads the library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_corename", "openblas_get_corename64_",
                     "scipy_openblas_get_corename", "scipy_openblas_get_corename64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def environment() -> dict:
    import numpy

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=False).stdout.strip()

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "openblas_core": openblas_core(), "nproc": os.cpu_count(),
            "git_sha": git("rev-parse", "HEAD") or None,
            "code_differs_from_sha": bool(git("status", "--porcelain", "--", "src",
                                              "benchmarks", "perfbench"))}


def src_lines() -> int:
    """Newlines in src/movingpoints/*.py, the total `wc -l` prints."""
    files = (ROOT / "src" / "movingpoints").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in files)


def previous(pr: int) -> Path | None:
    """The BENCH_<k>.json with the largest k below pr."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m and int(m.group(1)) < pr:
            found.append((int(m.group(1)), path))
    return max(found)[1] if found else None


def slower_cases(cases: dict, reference_s: float, baseline: dict) -> list[dict] | None:
    """The cases more than SLOWER worse than in the baseline record, the
    layer cases in units of each record's reference_s; None if the
    baseline has no reference_s."""
    if "reference_s" not in baseline:
        return None
    out = []
    for name, case in cases.items():
        old = baseline["cases"].get(name)
        if old is None or not old["median"]:
            continue
        ratio = case["median"] / old["median"]
        if name.startswith("layers/"):
            ratio *= baseline["reference_s"] / reference_s
        worse = ratio - 1.0 if case["better"] == "lower" else 1.0 / ratio - 1.0
        if worse > SLOWER:
            out.append({"case": name, "median": case["median"], "baseline": old["median"],
                        "worse_by": worse})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--runs", type=int, default=3, help="perfbench runs per workload")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of each run")
    args = parser.parse_args(argv)

    cases, checks = perfbench_cases(args.runs, args.seconds)
    layers, reference_s = layer_cases()
    cases.update(layers)
    record = {"pr": args.pr, "environment": environment(), "src_lines": src_lines(),
              "perfbench_runs": {"runs": args.runs, "seconds": args.seconds,
                                 "checks": checks},
              "reference_s": reference_s, "cases": cases}
    base = previous(args.pr)
    record["baseline"] = base.name if base else None
    record["slower"] = []
    if base is not None:
        record["slower"] = slower_cases(cases, reference_s,
                                        json.loads(base.read_text(encoding="utf-8")))
        if record["slower"] is None:
            print(f"{base.name} has no reference_s: its layer times cannot be scaled "
                  "to this run, so no case is compared")
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for item in record["slower"] or []:
        print(f"slower than {base.name}: {item['case']} by {100 * item['worse_by']:.0f}%")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
