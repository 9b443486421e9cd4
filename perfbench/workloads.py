"""Workloads of the benchmark: inputs made from a seed, one operation at a
time, and the check of every output against the committed references.

Every workload is a closed loop with one client, organised in rounds. A
round is the smallest sequence of operations whose mix of cheap and
expensive operations is the workload itself: one seeded pass over a cell
population, or one fit -> predict -> bench dataset cycle. Runs measure
whole rounds, so the ops/s figure does not depend on where a run happens
to stop inside a heavy-tailed pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IRIS = ROOT / "tests" / "data" / "iris.csv"
REFERENCE = HERE / "reference"

# sha256 of every reference output, made at the default seed by
# make_reference.py. The grid report, the C1 Iris model and the Iris
# `bench dataset` report are the golden hashes of ROADMAP.md.
REFERENCE_SHA256 = {
    "grid-2d.csv": "b3bad4861458a960888e803e52f53804766ed8fb1df8b712f6ac4a0f2eb6475e",
    "overlap-8d.csv": "254e7ffa0336d0ee9e1f894bc3d71fcc86edf80abf95e938afb98121443383bd",
    "model.json": "b0008f890c6d8fd175c1056da493c73547e859027981ef34c5ff73cf03cd40dd",
    "pred.csv": "baa82c728b6ad02a536d9bf13900f815d90f8968c1a3d02e53f90ec8274483ee",
    "report.csv": "9947684ad4673621f1bb978a524f7b141cd8335f3a20c5a821dd0222ecc85853",
}

# The entry point the installed `mpa` script runs.
CLI_ENTRY = "import sys; from movingpoints.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120


class SetupError(Exception):
    """The benchmark cannot run here: the program or an input is missing or wrong."""


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def import_program():
    """Import movingpoints from this checkout's src/, never from elsewhere."""
    package = SRC / "movingpoints"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import movingpoints

    if Path(movingpoints.__file__).resolve().parent != package.resolve():
        raise SetupError(f"movingpoints imported from {movingpoints.__file__}, not {package}")
    return movingpoints


class SyntheticWorkload:
    """bench.run_synthetic_cell over a fixed population of (seed, std_index) cells.

    The master seed stays 0, so every cell has a committed reference; the
    workload seed picks the order of each pass.
    """

    in_process = True

    def __init__(self, name: str, dim: int, cells, seed: int):
        from movingpoints import bench

        self.bench = bench
        self.name = name
        self.dim = dim
        self.cells = list(cells)
        self.seed = seed
        path = REFERENCE / f"{name}.csv"
        text = path.read_text(encoding="utf-8")
        if sha256_hex(text.encode("utf-8")) != REFERENCE_SHA256[path.name]:
            raise SetupError(f"{path} does not match its recorded sha256")
        self.reference_text = text
        self.metadata = {}
        self.lines = {}
        for line in text.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                self.metadata[key] = value
            elif not line.startswith("dataset_id,"):
                self.lines.setdefault(line.split(",", 1)[0], []).append(line)
        missing = [c for c in self.cells if self.cell_id(c) not in self.lines]
        if missing:
            raise SetupError(f"{path} has no reference for cells {missing[:3]}")

    @staticmethod
    def cell_id(cell) -> str:
        seed, std_index = cell
        return f"seed{seed:02d}-std{1.0 + 0.1 * std_index:.1f}"

    @staticmethod
    def kind(cell) -> str:
        return "cell"

    def round_ops(self, k: int) -> list:
        order = list(self.cells)
        random.Random(f"{self.name}/{self.seed}/{k}").shuffle(order)
        return order

    def run(self, cell):
        seed, std_index = cell
        return self.bench.run_synthetic_cell(seed, std_index, dim=self.dim)

    def check(self, cell, records) -> bool:
        if any(r.error is not None for r in records):
            return False
        text = self.bench.report_text(self.bench.BenchReport(records=list(records)))
        return text.splitlines()[1:] == self.lines[self.cell_id(cell)]

    def check_round(self, results) -> bool:
        """A whole pass must reproduce the reference report byte for byte."""
        if any(out is None for _, out in results):
            return False
        records = [r for _, out in results for r in out]
        report = self.bench.BenchReport(records=records, metadata=dict(self.metadata))
        return self.bench.report_text(report) == self.reference_text

    def close(self) -> None:
        pass


class IrisCliWorkload:
    """The three user-facing `mpa` commands on the bundled Iris file.

    Their flags are the documented ones whose outputs have golden hashes,
    so the inputs are the same at every workload seed. Untraced runs start
    each command as its own process, as a user does; traced runs call
    cli.main in-process so the wrapped layers see the work.
    """

    def __init__(self, workdir: Path):
        if not IRIS.is_file():
            raise SetupError(f"no input data: {IRIS} is missing")
        from movingpoints import cli

        self.cli = cli
        self.in_process = False
        iris = str(IRIS)
        model, pred, report = (workdir / f for f in ("model.json", "pred.csv", "report.csv"))
        # command -> (output file, argv)
        self.commands = {
            "fit": (model, [
                "fit", "--input", iris, "--label-col", "Species",
                "--positive-label", "Iris-setosa", "--negative-label", "Iris-versicolor",
                "--features", "SepalLengthCm,SepalWidthCm",
                "--eta", "0.5", "--epochs", "200", "--seed", "0", "--output", str(model)]),
            "predict": (pred, [
                "predict", "--model", str(model), "--input", iris, "--output", str(pred)]),
            "bench_dataset": (report, [
                "bench", "dataset", "--input", iris, "--label-col", "Species",
                "--positive-label", "Iris-virginica", "--negative-label", "Iris-versicolor",
                "--reps", "5", "--eta", "0.0005", "--output", str(report)]),
        }

    @staticmethod
    def kind(command) -> str:
        return command

    def round_ops(self, k: int) -> list:
        self.close()  # a command must never pass on a file left by an earlier round
        return list(self.commands)

    def run(self, command: str) -> int:
        argv = self.commands[command][1]
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CLI_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        return proc.returncode

    def check(self, command: str, returncode: int) -> bool:
        output = self.commands[command][0]
        return (returncode == 0 and output.is_file()
                and sha256_hex(output.read_bytes()) == REFERENCE_SHA256[output.name])

    def check_round(self, results) -> bool:
        return True

    def close(self) -> None:
        for output, _ in self.commands.values():
            output.unlink(missing_ok=True)


# Default-config cells of the paper's 50 x 10 grid (stds 1.0 .. 1.9).
GRID_2D = [(s, j) for s in range(50) for j in range(10)]
# The overlapping band at dim 8: stds 10.0 .. 10.9, where every accepted
# move rebuilds the plane through 8 points.
OVERLAP_8D = [(s, j) for s in range(3) for j in range(90, 100)]

WORKLOADS = ("grid-2d", "overlap-8d", "iris-cli")

# op_tail_s is the latency at a fixed percentile per workload: the highest
# with at least 10 samples beyond it in a run of the seed commit (500 grid
# cells, 60 overlap cells, 21 commands). Fixing it keeps a faster program,
# which completes more operations, from being judged at a higher percentile.
TAIL_PERCENTILE = {"grid-2d": 98.0, "overlap-8d": 83.0, "iris-cli": 50.0}


def build(name: str, seed: int, workdir: Path):
    """Import the program and make the inputs of one workload from its seed."""
    import_program()
    if name == "grid-2d":
        return SyntheticWorkload(name, 2, GRID_2D, seed)
    if name == "overlap-8d":
        return SyntheticWorkload(name, 8, OVERLAP_8D, seed)
    if name == "iris-cli":
        return IrisCliWorkload(workdir)
    raise SetupError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
