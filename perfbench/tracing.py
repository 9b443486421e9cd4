"""Spans and counts at the boundaries of movingpoints' public functions.

The tracer wraps a function by replacing every name binding that holds it
in the movingpoints modules: `mpa` imports `hyperplane_from_points` by
name and `bench` imports `make_blobs` by name, so replacing the attribute
of the defining module alone would miss those callers. A method is
replaced on its class. Nothing in src/ changes; uninstall() puts every
binding back.

Spans (name, op, start, end, parent) stay in memory and are written out
when the run ends. A layer's self time is its span durations minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

import numpy as np

# (module, function) pairs whose calls are traced; rng.permutation is the
# SplitMix64.permutation method.
LAYERS = (
    ("geometry", "hyperplane_from_points"),
    ("geometry", "line_from_points"),
    ("mpa", "fit"),
    ("mpa", "movement_vector"),
    ("mpa", "overfit_guard"),
    ("mpa", "initialize"),
    ("mpa", "predict_many"),
    ("mpa", "save_model"),
    ("mpa", "load_model"),
    ("rng", "permutation"),
    ("baselines", "linear_svm_fit"),
    ("baselines", "perceptron_fit"),
    ("baselines", "knn_predict_many"),
    ("datasets", "make_blobs"),
    ("datasets", "train_test_split"),
    ("datasets", "load_csv"),
    ("datasets", "pca_fit"),
    ("bench", "run_synthetic_cell"),
    ("bench", "run_dataset_protocol"),
    ("bench", "report_text"),
    ("cli", "main"),
)

COUNTS = (
    "mpa.fit.moves",
    "mpa.fit.visits",
    "mpa.fit.epochs",
    "geometry.hyperplane_from_points.degenerate",
    "mpa.movement_vector.resampled",
    "mpa.overfit_guard.zeroed",
)


class Tracer:
    """Wraps the LAYERS functions while installed; see the module docstring."""

    def __init__(self):
        self.names = [f"{module}.{func}" for module, func in LAYERS]
        self.spans = []  # [name index, op, start ns, end ns, parent span or -1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = -1
        self.active = False  # spans and counts are recorded only while set
        self._stack = []
        self._restore = []

    def install(self) -> None:
        from movingpoints.geometry import DegeneratePointsError
        from movingpoints.mpa import ZeroDisplacementError
        from movingpoints.rng import SplitMix64

        counts = self.counts

        def on_fit(log):
            counts["mpa.fit.moves"] += log.moves
            counts["mpa.fit.visits"] += sum(log.misclassified)
            counts["mpa.fit.epochs"] += log.epochs_run

        def on_guard(step):
            if not np.any(step):
                counts["mpa.overfit_guard.zeroed"] += 1

        on_return = {"mpa.fit": on_fit, "mpa.overfit_guard": on_guard}
        on_raise = {
            "geometry.hyperplane_from_points":
                (DegeneratePointsError, "geometry.hyperplane_from_points.degenerate"),
            "mpa.movement_vector":
                (ZeroDisplacementError, "mpa.movement_vector.resampled"),
        }
        for module, _ in LAYERS:
            importlib.import_module(f"movingpoints.{module}")
        modules = [m for key, m in sys.modules.items()
                   if key == "movingpoints" or key.startswith("movingpoints.")]
        for index, (module, func) in enumerate(LAYERS):
            name = self.names[index]
            if name == "rng.permutation":
                original = SplitMix64.permutation
                wrapper = self._wrap(original, index, None, None)
                self._restore.append((SplitMix64, "permutation", original))
                SplitMix64.permutation = wrapper
                continue
            original = getattr(sys.modules[f"movingpoints.{module}"], func)
            wrapper = self._wrap(original, index, on_return.get(name), on_raise.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, index, on_return, on_raise):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [index, self.op, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None and isinstance(exc, on_raise[0]):
                    counts[on_raise[1]] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self) -> dict:
        """calls and self time per layer, plus the counts, as metric values."""
        n = len(self.names)
        calls = [0] * n
        self_ns = [0] * n
        child_ns = [0] * len(self.spans)
        for name, _op, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, _op, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[i], "count")
            out[f"{name}.self_s"] = (self_ns[i] / 1e9, "s")
        for key in COUNTS:
            out[key] = (self.counts[key], "count")
        visits = self.counts["mpa.fit.visits"]
        ratio = self.counts["mpa.fit.moves"] / visits if visits else 0.0
        out["mpa.move_accept_ratio"] = (ratio, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,op,start_ns,end_ns,parent\n")
            for i, (name, op, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[name]},{op},{start},{end},{parent}\n")
