"""Shared fixtures plus the acceptance summary hook.

Tests marked with @pytest.mark.acceptance("C<n>", "<title>") get one
PASS/FAIL/SKIP line each in the terminal summary so the criteria can be
eyeballed in a single block.
"""

from pathlib import Path

import numpy as np
import pytest

from movingpoints import datasets

DATA_DIR = Path(__file__).parent / "data"

_ACCEPTANCE: dict[str, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(cid, title): tie a test to one acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("acceptance")
    if mark is None:
        return
    cid, title = mark.args
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        if report.skipped:
            status = "SKIP"
        _ACCEPTANCE[cid] = (title, status)
    elif report.when == "setup" and report.skipped:
        _ACCEPTANCE[cid] = (title, "SKIP")
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE[cid] = (title, "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for cid in sorted(_ACCEPTANCE):
        title, status = _ACCEPTANCE[cid]
        tr.write_line(f"{cid} {title}: {status}")


@pytest.fixture(scope="session")
def iris_path() -> Path:
    return DATA_DIR / "iris.csv"


@pytest.fixture(scope="session")
def iris_easy(iris_path):
    """setosa vs versicolor on the two sepal columns; linearly separable."""
    return datasets.load_csv(
        iris_path, "Species", "Iris-setosa",
        feature_columns=["SepalLengthCm", "SepalWidthCm"],
        negative_label="Iris-versicolor",
    )


@pytest.fixture(scope="session")
def iris_hard(iris_path):
    """versicolor vs virginica on all four columns; not separable."""
    return datasets.load_csv(
        iris_path, "Species", "Iris-virginica",
        negative_label="Iris-versicolor",
    )


@pytest.fixture()
def two_blobs():
    """Well separated pair: class means (-5, 0) and (5, 0), std 1."""
    from movingpoints.rng import SplitMix64

    stream = SplitMix64(7)
    z = stream.normals(200).reshape(100, 2)
    X = np.vstack([z[:50] + [-5.0, 0.0], z[50:] + [5.0, 0.0]])
    y = np.repeat([0, 1], 50)
    return datasets.Dataset(X, y)
