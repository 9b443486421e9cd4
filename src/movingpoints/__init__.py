"""Binary classification with a moving-points decision boundary.

The boundary is the hyperplane through n movable points in n-D feature
space; training displaces those points toward the regions their classes
belong in. The package bundles the classifier, small reference baselines
(perceptron, KNN, linear SVM), dataset utilities, two benchmark
protocols, and a CLI (``mpa``). The names below are the documented API;
everything else is reached through its module (``movingpoints.geometry``,
``movingpoints.baselines``, ...).
"""

from .bench import report_text, run_dataset_protocol, run_synthetic_suite
from .datasets import Dataset, load_csv, make_blobs
from .mpa import (
    MpaConfig,
    MpaModel,
    TrainingLog,
    load_model,
    predict_many,
    save_model,
    train,
    training_accuracy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Dataset", "load_csv", "make_blobs",
    "MpaConfig", "MpaModel", "TrainingLog", "train", "predict_many",
    "training_accuracy", "save_model", "load_model",
    "run_synthetic_suite", "run_dataset_protocol", "report_text",
]
