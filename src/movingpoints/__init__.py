"""Binary classification with a moving-points decision boundary.

The boundary is the hyperplane through n movable points in n-D feature
space; training displaces those points toward the regions their classes
belong in. The package bundles the classifier, small reference baselines
(perceptron, KNN, linear SVM), dataset utilities, two benchmark
protocols, and a CLI (``mpa``). The names below are the documented API;
everything else is reached through its module (``movingpoints.geometry``,
``movingpoints.baselines``, ...).

Importing the package loads no submodule: a documented name imports its
module when it is first read (PEP 562), so each ``mpa`` process compiles
only the modules its command runs.
"""

__version__ = "0.1.0"

# Each documented name and the module that defines it.
_MODULE_OF = {
    "Dataset": "datasets", "load_csv": "datasets", "make_blobs": "datasets",
    "MpaConfig": "mpa", "MpaModel": "mpa", "TrainingLog": "mpa", "train": "mpa",
    "predict_many": "mpa", "training_accuracy": "mpa", "save_model": "mpa",
    "load_model": "mpa",
    "run_synthetic_suite": "bench", "run_dataset_protocol": "bench", "report_text": "bench",
}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
