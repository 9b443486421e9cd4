"""Write the reference outputs of the benchmark and print their sha256.

    python3 perfbench/make_reference.py

Rewrites perfbench/reference/grid-2d.csv (the `mpa bench synthetic --seeds
50 --stds 10 --seed 0` report) and perfbench/reference/overlap-8d.csv (the
same report format over the overlap-8d cells), runs the three iris-cli
commands in-process, and prints the sha256 of every output for
REFERENCE_SHA256 in workloads.py. Run it only for a change that is meant to
alter the outputs, and say so in that change.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import workloads
from workloads import REFERENCE, ROOT, sha256_hex


def main() -> None:
    workloads.import_program()
    from movingpoints import bench

    REFERENCE.mkdir(exist_ok=True)
    grid = bench.run_synthetic_suite(n_seeds=50, n_stds=10, master_seed=0)
    overlap = bench.BenchReport(metadata={
        "protocol": "synthetic-cells",
        "master_seed": "0",
        "dim": "8",
        "cells": "seeds 0-2 x std_index 90-99",
    })
    for seed, std_index in workloads.OVERLAP_8D:
        overlap.records.extend(bench.run_synthetic_cell(seed, std_index, dim=8))
    for name, report in (("grid-2d.csv", grid), ("overlap-8d.csv", overlap)):
        text = bench.report_text(report)
        (REFERENCE / name).write_text(text, encoding="utf-8", newline="\n")
        print(f'"{name}": "{sha256_hex(text.encode("utf-8"))}",')

    build_dir = ROOT / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=build_dir)
    try:
        iris = workloads.IrisCliWorkload(Path(workdir))
        iris.in_process = True
        for command in iris.round_ops(0):
            if iris.run(command) != 0:
                raise SystemExit(f"mpa {command} failed")
            output = iris.commands[command][0]
            print(f'"{output.name}": "{sha256_hex(output.read_bytes())}",')
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
