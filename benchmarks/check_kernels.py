"""Rerun the golden outputs under other CPU kernels and report which bytes change.

    python3 benchmarks/check_kernels.py [--src PATH]

Each variant runs in a child process whose environment differs from this
one in a single setting: OPENBLAS_CORETYPE set to Haswell, SkylakeX or
Prescott, or numpy's AVX-512 loops switched off through
NPY_DISABLE_CPU_FEATURES. The unchanged environment runs first. Every
child writes:

- the `mpa bench synthetic --seeds 50 --stds 10 --seed 0` report,
- the C1 Iris model (`mpa fit`, setosa vs versicolor, sepal features,
  `--eta 0.5 --epochs 200 --seed 0`),
- the Iris `mpa bench dataset` report (virginica vs versicolor,
  `--reps 5 --eta 0.0005`),
- the report of the 8-D cell `run_synthetic_cell(0, 90, dim=8)`,
- one digest over the model documents of the 500 grid cells,
- one digest over the n >= 4 fits of 190 synthetic cells: 100 at dim 8
  (seeds 0-9 x std_index 90-99) and 30 each at dims 4, 5 and 16 (seeds
  0-2 x std_index 90-99), run by `run_synthetic_cell`. It covers each
  MPA model document, its per-epoch misclassified counts, its moves and
  skips, and every cell's report; the dim-8 seeds 0-2 are the cells of
  perfbench's overlap-8d workload.

The first four are compared with their golden sha256 under every
variant; the two digests, which have no golden, with the unchanged
environment's, whose values are printed so that two checkouts can be
compared. Training takes no bit from BLAS at any n, so both digests are
the same under every OpenBLAS core. With numpy's AVX-512 loops off,
np.log in SplitMix64.normals rounds differently, which changes the blobs
and so both digests; that variant prints them as not compared. The
script prints one line per variant and output and exits 1 when a
compared output differs, 0 otherwise. It takes about a minute per
variant. --src measures another checkout's src/ (for example that of a
parent commit) with this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IRIS = ROOT / "tests" / "data" / "iris.csv"

GOLDEN = {
    "grid report": "b3bad4861458a960888e803e52f53804766ed8fb1df8b712f6ac4a0f2eb6475e",
    "C1 model": "b0008f890c6d8fd175c1056da493c73547e859027981ef34c5ff73cf03cd40dd",
    "Iris bench dataset": "9947684ad4673621f1bb978a524f7b141cd8335f3a20c5a821dd0222ecc85853",
    "dim-8 cell": "ef529968bf4ed167fc37f1c0cea64f8652ec07a838837c0931e0887359035a6d",
}
# (dim, seed, std_index) of the n >= 4 cells.
PLANE_CELLS = ([(8, seed, j) for seed in range(10) for j in range(90, 100)]
               + [(dim, seed, j) for dim in (4, 5, 16) for seed in range(3)
                  for j in range(90, 100)])
UNGOLDEN = ("grid models", "n >= 4 fits")
NP_LOG_VARIANT = "numpy AVX-512 off"  # its blobs, so the ungolden digests, differ by design
AVX512 = "X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR"
VARIANTS = {
    "unchanged": {},
    "OPENBLAS_CORETYPE=Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OPENBLAS_CORETYPE=SkylakeX": {"OPENBLAS_CORETYPE": "SkylakeX"},
    "OPENBLAS_CORETYPE=Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    NP_LOG_VARIANT: {"NPY_DISABLE_CPU_FEATURES": AVX512},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child(workdir: Path) -> dict:
    """The digests of every output, computed in this process."""
    sys.path.insert(0, str(HERE))
    from write_bench import openblas_core

    from movingpoints import bench, cli, mpa

    models = hashlib.sha256()
    planes = hashlib.sha256()
    train = mpa.train

    def recording_train(*args, **kwargs):
        model, log = train(*args, **kwargs)
        document = mpa.model_document(model).encode("utf-8")
        if model.dim < 4:
            models.update(document)
        else:
            planes.update(document)
            planes.update(json.dumps([log.misclassified, log.moves, log.skips]).encode("utf-8"))
        return model, log

    mpa.train = recording_train  # the classifier table looks mpa.train up per cell
    try:
        grid = bench.report_text(bench.run_synthetic_suite(50, 10, 0))
        for dim, seed, std_index in PLANE_CELLS:
            records = bench.run_synthetic_cell(seed, std_index, dim=dim)
            planes.update(bench.report_text(bench.BenchReport(records=records)).encode("utf-8"))
    finally:
        mpa.train = train
    model, report = workdir / "model.json", workdir / "report.csv"
    iris = ["--input", str(IRIS), "--label-col", "Species"]
    with open(os.devnull, "w") as quiet:
        stdout, sys.stdout = sys.stdout, quiet
        try:
            codes = [
                cli.main(["fit", *iris, "--positive-label", "Iris-setosa",
                          "--negative-label", "Iris-versicolor",
                          "--features", "SepalLengthCm,SepalWidthCm", "--eta", "0.5",
                          "--epochs", "200", "--seed", "0", "--output", str(model)]),
                cli.main(["bench", "dataset", *iris, "--positive-label", "Iris-virginica",
                          "--negative-label", "Iris-versicolor", "--reps", "5",
                          "--eta", "0.0005", "--output", str(report)]),
            ]
        finally:
            sys.stdout = stdout
    if codes != [0, 0]:
        raise SystemExit(f"mpa exited with {codes}")
    cell = bench.report_text(bench.BenchReport(records=bench.run_synthetic_cell(0, 90, dim=8)))
    return {
        "openblas_core": openblas_core(),
        "grid report": sha256(grid.encode("utf-8")),
        "C1 model": sha256(model.read_bytes()),
        "Iris bench dataset": sha256(report.read_bytes()),
        "dim-8 cell": sha256(cell.encode("utf-8")),
        "grid models": models.hexdigest(),
        "n >= 4 fits": planes.hexdigest(),
    }


def compare(name: str, got: dict, unchanged: dict) -> list[tuple[str, bool]]:
    """(line, differs) for each output of variant `name`, in print order."""
    rows = []
    for key in (*GOLDEN, *UNGOLDEN):
        if key in UNGOLDEN and name == NP_LOG_VARIANT:
            status, differs = "not compared (np.log)", False
        else:
            differs = got[key] != GOLDEN.get(key, unchanged[key])
            status = "DIFFERS " + got[key][:12] if differs else "same"
        rows.append((f"{name:<30} core {got['openblas_core']:<10} {key:<20} {status}", differs))
    return rows


def exit_status(results: dict) -> int:
    """1 when a compared output of any variant differs, else 0."""
    return int(any(differs for name, got in results.items()
                   for _, differs in compare(name, got, results["unchanged"])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory to measure (default: this checkout's)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0

    results = {}
    for name, change in VARIANTS.items():
        env = {**os.environ, **change,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(args.src.resolve()),
                                                           os.environ.get("PYTHONPATH")]))}
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--child", tmp], env=env, capture_output=True, text=True,
                                  check=False)
        if proc.returncode != 0:
            print(f"{name}: child failed\n{proc.stderr}", file=sys.stderr)
            return 2
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = got
        if name == "unchanged":
            for key in UNGOLDEN:
                print(f"unchanged {key} digest {got[key]}", flush=True)
        for line, _ in compare(name, got, results["unchanged"]):
            print(line, flush=True)
    return exit_status(results)


if __name__ == "__main__":
    sys.exit(main())
