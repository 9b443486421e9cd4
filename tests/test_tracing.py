"""The benchmark's traced mode (perfbench/tracing.py) still finds every
function it wraps: deleting or renaming one breaks `perfbench/run.py --trace`,
which no other test runs."""

import importlib
import importlib.util
from pathlib import Path

from movingpoints.rng import SplitMix64

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def binding(module: str, func: str):
    """What the tracer replaces for one LAYERS entry."""
    if (module, func) == ("rng", "permutation"):
        return SplitMix64.permutation
    return getattr(importlib.import_module(f"movingpoints.{module}"), func)


def test_tracer_wraps_every_layer_and_puts_it_back():
    tracing = load_tracing()
    originals = {layer: binding(*layer) for layer in tracing.LAYERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for layer, original in originals.items():
            wrapped = binding(*layer)
            assert wrapped is not original and wrapped.__wrapped__ is original, layer
    finally:
        tracer.uninstall()
    assert {layer: binding(*layer) for layer in tracing.LAYERS} == originals
