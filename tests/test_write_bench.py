"""benchmarks/write_bench.py compares layer times across runs only in
units of each run's reference task."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from write_bench import slower_cases  # noqa: E402


def case(median, better="lower"):
    return {"median": median, "iqr": 0.0, "rounds": 3, "unit": "s", "better": better}


def test_layer_time_on_a_slower_host_is_not_flagged():
    # The whole host ran 30% slower: the reference task and the layer alike.
    baseline = {"reference_s": 0.004, "cases": {"layers/test_x": case(1.0)}}
    assert slower_cases({"layers/test_x": case(1.3)}, 0.0052, baseline) == []


def test_layer_time_slower_than_its_reference_is_flagged():
    baseline = {"reference_s": 0.004, "cases": {"layers/test_x": case(1.0)}}
    (item,) = slower_cases({"layers/test_x": case(1.3)}, 0.004, baseline)
    assert item["case"] == "layers/test_x"
    assert abs(item["worse_by"] - 0.3) < 1e-12


def test_perfbench_cases_are_compared_as_they_are():
    # perfbench scales its own times, so the run's reference is not applied.
    baseline = {"reference_s": 0.004,
                "cases": {"perfbench/grid-2d/ops_per_s": case(100.0, "higher")}}
    cases = {"perfbench/grid-2d/ops_per_s": case(80.0, "higher")}
    (item,) = slower_cases(cases, 0.002, baseline)
    assert abs(item["worse_by"] - 0.25) < 1e-12


def test_baseline_without_reference_gives_no_list():
    baseline = {"cases": {"layers/test_x": case(1.0)}}
    assert slower_cases({"layers/test_x": case(5.0)}, 0.004, baseline) is None
