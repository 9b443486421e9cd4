"""The package's documented names, each loaded from its module on first read."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import movingpoints

DOCUMENTED = [name for name in movingpoints.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", DOCUMENTED)
def test_each_name_is_its_module_object(name):
    value = getattr(movingpoints, name)
    assert value.__module__ in ("movingpoints.datasets", "movingpoints.mpa", "movingpoints.bench")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        movingpoints.no_such_name  # noqa: B018
    assert not hasattr(movingpoints, "bench_report")


def test_names_before_their_modules_load():
    # In a fresh interpreter dir() lists every name before any module has
    # loaded, a star import binds each, and a submodule still imports by name.
    src = str(Path(movingpoints.__file__).resolve().parents[1])
    code = ("import sys\n"
            "import movingpoints\n"
            "assert set(movingpoints.__all__) <= set(dir(movingpoints))\n"
            "assert not [m for m in sys.modules if m.startswith('movingpoints.')]\n"
            "from movingpoints import *\n"
            "missing = [n for n in movingpoints.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
            "from movingpoints import bench\n"
            "assert bench is sys.modules['movingpoints.bench']\n"
            "print('ok')")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert out.stdout == "ok\n", out.stderr
