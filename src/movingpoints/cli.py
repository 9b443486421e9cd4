"""Command line interface.

Subcommands: fit, predict, bench synthetic, bench dataset, plot. Exit
codes: 0 success, 2 input/data error, 3 runtime/training error. All output
files are byte-identical across runs with the same flags and inputs.

A failing command raises ``_Failure(code, stage, detail)``, mostly from a
``with _stage(stage, errors):`` block; ``main`` alone catches it and prints
``mpa <command>: <stage>: <detail>`` to stderr.

An optional ``--config FILE`` supplies key=value defaults (one per line,
``#`` comments); explicit flags always win over the file. A config file or
value that cannot be read, parsed or trained with exits 2 at "checking
inputs".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import bench, mpa
from .datasets import (
    Dataset,
    DegenerateSplitError,
    EmptyDatasetError,
    InvalidKError,
    InvalidParamsError,
    MissingColumnError,
    NonBinaryLabelsError,
    NoRowsRemainingError,
    SingleClassError,
    _read_csv,
    load_csv,
)
from .geometry import DegeneratePointsError, DimensionMismatchError
from .mpa import (
    IdenticalMeansError,
    MeanOnBoundaryError,
    MpaConfig,
    SameSideMeansError,
)


class RefuseNon2DError(ValueError):
    """Plotting is defined for 2-D models and data only."""


_DATA_ERRORS = (
    FileNotFoundError,
    IsADirectoryError,
    MissingColumnError,
    NoRowsRemainingError,
    SingleClassError,
    NonBinaryLabelsError,
    EmptyDatasetError,
    InvalidParamsError,
    InvalidKError,
    RefuseNon2DError,
    json.JSONDecodeError,
    UnicodeDecodeError,
)

_TRAIN_ERRORS = (
    IdenticalMeansError,
    MeanOnBoundaryError,
    SameSideMeansError,
    DegeneratePointsError,
    DegenerateSplitError,
    DimensionMismatchError,
)


class _Failure(Exception):
    """Ends a command with exit `code`; main prints `stage` and `detail`."""

    def __init__(self, code: int, stage: str, detail):
        super().__init__(code, stage, detail)
        self.code, self.stage, self.detail = code, stage, detail


@contextlib.contextmanager
def _stage(stage: str, errors, code: int = 2):
    """Turns any of `errors` raised in the block into a _Failure at `stage`."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, stage, exc) from None


def _read_config_file(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {s!r}")
            key, _, value = s.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class _Options:
    """Flags merged over config-file values merged over hard defaults.

    The --config file is read, and for the commands that train the
    MpaConfig is built, here, once: a bad file or value stops the command
    with exit 2 at "checking inputs".
    """

    def __init__(self, args):
        self.args = args
        with _stage("checking inputs", (OSError, ValueError)):
            self.filecfg = _read_config_file(args.config) if args.config else {}
            # only the commands that train define the training flags
            self.mpa = _mpa_config(self) if hasattr(args, "eta") else None

    def get(self, name, default, cast):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name not in self.filecfg:
            return default
        try:
            return cast(self.filecfg[name])
        except ValueError as exc:
            raise _Failure(2, "checking inputs", f"config {name}: {exc}") from None


def _mpa_config(opt: _Options) -> MpaConfig:
    alpha = opt.get("alpha", None, float)
    early = opt.get("early_stop", True, _parse_bool)
    if getattr(opt.args, "no_early_stop", False):
        early = False
    return MpaConfig(
        eta=opt.get("eta", 5e-5, float),
        epochs=opt.get("epochs", 150, int),
        alpha=alpha,
        near_cluster_percentile=opt.get("near_cluster_pct", 50.0, float),
        init_spread=opt.get("init_spread", 0.5, float),
        seed=opt.get("seed", 0, int),
        early_stop=early,
    )


def _feature_list(opt: _Options):
    raw = opt.get("features", None, str)
    if raw is None:
        return None
    cols = [c.strip() for c in str(raw).split(",") if c.strip()]
    if not cols:
        raise _Failure(2, "checking inputs", "--features given but names no columns")
    return cols


def _require_files(*paths) -> None:
    for path in paths:
        if not os.path.isfile(path):
            raise _Failure(2, "checking inputs", f"no such file: {path}")


def _load_labeled(opt: _Options, columns=None) -> Dataset:
    """The labeled --input CSV as a Dataset; prints how many rows were dropped.

    columns are the feature columns when neither --features nor the config
    names any (None: every column but the label). A missing file, missing
    label flags or data that does not load stop the command with exit 2.
    """
    _require_files(opt.args.input)
    label_col = opt.get("label_col", None, str)
    positive = opt.get("positive_label", None, str)
    if label_col is None or positive is None:
        raise _Failure(2, "checking inputs", "--label-col and --positive-label are required")
    with _stage("loading data", _DATA_ERRORS):
        ds = load_csv(opt.args.input, label_column=label_col, positive_label=positive,
                      feature_columns=_feature_list(opt) or columns,
                      negative_label=opt.get("negative_label", None, str))
    if ds.dropped_rows:
        print(f"dropped rows with missing values: {ds.dropped_rows}")
    return ds


def _load_model(args) -> mpa.MpaModel:
    """The --model file, once it and the --input file exist."""
    _require_files(args.model, args.input)
    with _stage("loading model", _DATA_ERRORS + (ValueError, KeyError)):
        return mpa.load_model(args.model)


def _write_output(path, text: str) -> None:
    with _stage("writing output", OSError), \
            open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------- fit

def cmd_fit(args) -> int:
    opt = _Options(args)
    ds = _load_labeled(opt)
    with _stage("training", ValueError, code=3):  # each _TRAIN_ERRORS is one
        model, log = mpa.train(ds, opt.mpa)

    acc = mpa.training_accuracy(model, ds)
    log_path = args.log_output or (args.output + ".log")
    with _stage("writing output", OSError):
        mpa.save_model(model, args.output)
    _write_output(log_path, _training_log(log))
    print(f"train accuracy: {acc}")
    print(f"epochs run: {log.epochs_run}  moves: {log.moves}")
    print(f"model: {args.output}")
    print(f"log: {log_path}")
    return 0


def _training_log(log) -> str:
    rows = "".join(f"{i},{count}\n" for i, count in enumerate(log.misclassified, 1))
    return (f"# epochs_run: {log.epochs_run}\n"
            f"# stopped_early: {str(log.stopped_early).lower()}\n"
            f"# moves: {log.moves}\nepoch,misclassified\n{rows}")


# ---------------------------------------------------------------- predict

def cmd_predict(args) -> int:
    opt = _Options(args)
    model = _load_model(args)
    columns = _feature_list(opt) or model.feature_names
    if columns is None:
        raise _Failure(2, "checking inputs", "model stores no feature names; pass --features")
    if len(columns) != model.dim:
        raise _Failure(2, "checking inputs",
                       f"model expects {model.dim} features, got {len(columns)}")
    # with label flags the scored rows and the written rows are the same
    # filtered set; without them every input row gets a prediction
    labels = None
    if opt.get("label_col", None, str) is not None and \
            opt.get("positive_label", None, str) is not None:
        ds = _load_labeled(opt, columns)
        X, labels = ds.features, ds.labels
    else:
        with _stage("loading data", _DATA_ERRORS):
            X, _, _, dropped = _read_csv(args.input, columns)
        if dropped:
            print(f"dropped rows with missing values: {dropped}")

    preds = mpa.predict_many(model, X)
    _write_output(args.output, "prediction\n" + "".join(f"{int(p)}\n" for p in preds))
    if labels is not None:
        print(f"accuracy: {bench.accuracy(preds, labels)}")
    print(f"predictions: {args.output}")
    return 0


# ---------------------------------------------------------------- bench

def _run_bench(output, stage: str, run, *data, **params) -> int:
    """run(*data, **params), then its report written to output and its table printed.

    run checks its parameters before any run (exit 2 at "checking inputs");
    a data or training error during the runs exits 3 at stage.
    """
    with _stage(stage, _DATA_ERRORS + _TRAIN_ERRORS, code=3), \
            _stage("checking inputs", InvalidParamsError):
        report = run(*data, **params)
    with _stage("writing report", OSError):
        bench.write_report(report, output)
    sys.stdout.write(bench.render_table(report))
    print(f"report: {output}")
    return 0


def cmd_bench_synthetic(args) -> int:
    opt = _Options(args)
    return _run_bench(
        args.output, "running suite", bench.run_synthetic_suite,
        n_seeds=opt.get("seeds", 50, int),
        n_stds=opt.get("stds", 10, int),
        master_seed=opt.get("seed", 0, int),
        mpa_cfg=opt.mpa,
        n_per_class=opt.get("n_per_class", 50, int),
        dim=opt.get("dim", 2, int),
        test_fraction=opt.get("test_fraction", 0.2, float),
    )


def cmd_bench_dataset(args) -> int:
    opt = _Options(args)
    return _run_bench(
        args.output, "running protocol", bench.run_dataset_protocol, _load_labeled(opt),
        repetitions=opt.get("reps", 5, int),
        mpa_cfg=opt.mpa,
        master_seed=opt.get("seed", 0, int),
        test_fraction=opt.get("test_fraction", 0.2, float),
        pca_k=opt.get("pca_k", 3, int),
        svm_reg=opt.get("svm_reg", 0.01, float),
        svm_epochs=opt.get("svm_epochs", 30, int),
    )


# ---------------------------------------------------------------- plot

_SVG_MARGINS = (56.0, 16.0, 16.0, 44.0)  # left, right, top, bottom, in pixels


def _clip_line_to_box(weights, bias, x0, x1, y0, y1):
    """Intersection segment of w.(x,y)+b=0 with an axis-aligned box.

    Returns two (x, y) points or None when the line misses the box.
    """
    a, b2 = float(weights[0]), float(weights[1])
    c = float(bias)
    pts = []

    def add(x, y):
        for px, py in pts:
            if abs(px - x) <= 1e-9 * max(1.0, abs(x)) and abs(py - y) <= 1e-9 * max(1.0, abs(y)):
                return
        pts.append((x, y))

    tol = 1e-9
    if abs(b2) > 0:
        for xe in (x0, x1):
            y = -(a * xe + c) / b2
            if y0 - tol * max(1.0, abs(y1 - y0)) <= y <= y1 + tol * max(1.0, abs(y1 - y0)):
                add(xe, y)
    if abs(a) > 0:
        for ye in (y0, y1):
            x = -(b2 * ye + c) / a
            if x0 - tol * max(1.0, abs(x1 - x0)) <= x <= x1 + tol * max(1.0, abs(x1 - x0)):
                add(x, ye)
    if len(pts) < 2:
        return None
    pts.sort()
    return pts[0], pts[-1]


def render_scatter_svg(features, labels, hyperplane, moving_points,
                       feature_names=None, width: int = 640,
                       height: int = 480) -> str:
    """Scatter plot with the decision boundary and the moving points.

    Class 0 renders as circles, class 1 as squares; moving points as
    crosses. The boundary is clipped to the data bounding box padded by
    10% per axis. Deterministic text output: fixed 2-decimal pixel
    coordinates.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    mp = np.asarray(moving_points, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2 or mp.shape != (2, 2):
        raise RefuseNon2DError("plotting requires 2-D data and a 2-D model")
    names = list(feature_names) if feature_names else ["x0", "x1"]

    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    pad = np.where(span > 0, 0.1 * span, 1.0)
    lo = lo - pad
    hi = hi + pad

    ml, mr, mt, mb = _SVG_MARGINS
    inner_w = width - ml - mr
    inner_h = height - mt - mb

    def px(v):
        return ml + (v - lo[0]) / (hi[0] - lo[0]) * inner_w

    def py(v):
        return height - mb - (v - lo[1]) / (hi[1] - lo[1]) * inner_h

    def f(v):
        return f"{v:.2f}"

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    # frame
    parts.append(
        f'<rect x="{f(ml)}" y="{f(mt)}" width="{f(inner_w)}" height="{f(inner_h)}" '
        f'fill="none" stroke="#808080" stroke-width="1"/>'
    )
    # axis tick labels at data-range corners
    parts.append(
        f'<text x="{f(ml)}" y="{f(height - mb + 14)}" font-size="10" '
        f'text-anchor="middle">{lo[0]:.3g}</text>'
    )
    parts.append(
        f'<text x="{f(width - mr)}" y="{f(height - mb + 14)}" font-size="10" '
        f'text-anchor="middle">{hi[0]:.3g}</text>'
    )
    parts.append(
        f'<text x="{f(ml - 6)}" y="{f(height - mb)}" font-size="10" '
        f'text-anchor="end">{lo[1]:.3g}</text>'
    )
    parts.append(
        f'<text x="{f(ml - 6)}" y="{f(mt + 8)}" font-size="10" '
        f'text-anchor="end">{hi[1]:.3g}</text>'
    )
    # axis names
    parts.append(
        f'<text x="{f(ml + inner_w / 2)}" y="{f(height - 8)}" font-size="12" '
        f'text-anchor="middle">{names[0]}</text>'
    )
    parts.append(
        f'<text x="14" y="{f(mt + inner_h / 2)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {f(mt + inner_h / 2)})">{names[1]}</text>'
    )
    # data markers
    for i in range(X.shape[0]):
        cx, cy = px(X[i, 0]), py(X[i, 1])
        if y[i] == 0:
            parts.append(
                f'<circle class="pt0" cx="{f(cx)}" cy="{f(cy)}" r="3.5" '
                f'fill="#4878a8" fill-opacity="0.8"/>'
            )
        else:
            parts.append(
                f'<rect class="pt1" x="{f(cx - 3.2)}" y="{f(cy - 3.2)}" width="6.40" '
                f'height="6.40" fill="#d08028" fill-opacity="0.8"/>'
            )
    # boundary clipped to the padded box
    seg = _clip_line_to_box(hyperplane.weights, hyperplane.bias,
                            lo[0], hi[0], lo[1], hi[1])
    if seg is not None:
        (ax, ay), (bx, by) = seg
        parts.append(
            f'<line id="boundary" x1="{f(px(ax))}" y1="{f(py(ay))}" '
            f'x2="{f(px(bx))}" y2="{f(py(by))}" stroke="#303030" stroke-width="1.5"/>'
        )
    # moving points
    for i in range(2):
        cx, cy = px(mp[i, 0]), py(mp[i, 1])
        parts.append(
            f'<path id="mp{i}" d="M {f(cx - 5)} {f(cy)} L {f(cx + 5)} {f(cy)} '
            f'M {f(cx)} {f(cy - 5)} L {f(cx)} {f(cy + 5)}" '
            f'stroke="#c03038" stroke-width="2" fill="none"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args) -> int:
    opt = _Options(args)
    width = opt.get("width", 640, int)
    height = opt.get("height", 480, int)
    ml, mr, mt, mb = _SVG_MARGINS
    for name, size, margins in (("width", width, ml + mr), ("height", height, mt + mb)):
        if size <= margins:
            raise _Failure(2, "checking inputs",
                           f"{name} must be more than the {margins:g}-pixel margins, got {size}")
    model = _load_model(args)
    if model.dim != 2:
        raise _Failure(2, "checking inputs",
                       f"model dimension is {model.dim}; plots are 2-D only")
    ds = _load_labeled(opt, model.feature_names)
    if ds.n != 2:
        raise _Failure(2, "checking inputs", f"data has {ds.n} features; plots are 2-D only")
    _write_output(args.output, render_scatter_svg(
        ds.features, ds.labels, model.hyperplane, model.moving_points,
        feature_names=ds.feature_names, width=width, height=height))
    print(f"plot: {args.output}")
    return 0


# ---------------------------------------------------------------- parser

def _add_mpa_flags(p):
    p.add_argument("--eta", type=float, default=None,
                   help="learning rate (default 5e-05)")
    p.add_argument("--alpha", type=float, default=None,
                   help="moving-point proximity threshold "
                        "(default: 0.1 x initial point spacing)")
    p.add_argument("--epochs", type=int, default=None,
                   help="training epochs (default 150)")
    p.add_argument("--near-cluster-pct", dest="near_cluster_pct", type=float,
                   default=None,
                   help="near-cluster percentile radius (default 50)")
    p.add_argument("--init-spread", dest="init_spread", type=float, default=None,
                   help="initial point spacing as a fraction of the "
                        "inter-mean distance (default 0.5)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for every stochastic choice (default 0)")
    p.add_argument("--no-early-stop", dest="no_early_stop", action="store_true",
                   help="always run the full epoch budget")


def _add_data_flags(p):
    p.add_argument("--label-col", dest="label_col", default=None,
                   help="name of the label column")
    p.add_argument("--positive-label", dest="positive_label", default=None,
                   help="label value mapped to class 1")
    p.add_argument("--negative-label", dest="negative_label", default=None,
                   help="keep only rows with this or the positive label")
    p.add_argument("--features", default=None,
                   help="comma-separated feature columns (default: all others)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpa",
        description="Binary classification with a moving-points decision boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a model on a labeled CSV")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--output", required=True, help="model file to write")
    p_fit.add_argument("--log-output", dest="log_output", default=None,
                       help="training log path (default: model path + .log)")
    p_fit.add_argument("--config", default=None, help="key=value defaults file")
    _add_data_flags(p_fit)
    _add_mpa_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="apply a saved model to a CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True)
    p_pred.add_argument("--output", required=True, help="predictions CSV to write")
    p_pred.add_argument("--config", default=None)
    _add_data_flags(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_bench = sub.add_parser("bench", help="run a benchmark protocol")
    bsub = p_bench.add_subparsers(dest="protocol", required=True)

    p_syn = bsub.add_parser("synthetic", help="seeded grid of generated blob datasets")
    p_syn.add_argument("--seeds", type=int, default=None,
                       help="number of dataset seeds, 0..N-1 (default 50)")
    p_syn.add_argument("--stds", type=int, default=None,
                       help="number of scatter widths 1.0, 1.1, ... (default 10)")
    p_syn.add_argument("--n-per-class", dest="n_per_class", type=int, default=None,
                       help="samples per class (default 50)")
    p_syn.add_argument("--dim", type=int, default=None, help="dimensions (default 2)")
    p_syn.add_argument("--test-fraction", dest="test_fraction", type=float,
                       default=None, help="test split fraction (default 0.2)")
    p_syn.add_argument("--output", required=True, help="report file to write")
    p_syn.add_argument("--config", default=None)
    _add_mpa_flags(p_syn)
    p_syn.set_defaults(func=cmd_bench_synthetic)

    p_dsb = bsub.add_parser("dataset", help="split/standardize/PCA protocol on a CSV")
    p_dsb.add_argument("--input", required=True)
    p_dsb.add_argument("--reps", type=int, default=None,
                       help="seeded repetitions (default 5)")
    p_dsb.add_argument("--pca-k", dest="pca_k", type=int, default=None,
                       help="PCA components (default 3)")
    p_dsb.add_argument("--test-fraction", dest="test_fraction", type=float,
                       default=None, help="test split fraction (default 0.2)")
    p_dsb.add_argument("--svm-reg", dest="svm_reg", type=float, default=None,
                       help="SVM regularization strength (default 0.01)")
    p_dsb.add_argument("--svm-epochs", dest="svm_epochs", type=int, default=None,
                       help="SVM epochs (default 30)")
    p_dsb.add_argument("--output", required=True, help="report file to write")
    p_dsb.add_argument("--config", default=None)
    _add_data_flags(p_dsb)
    _add_mpa_flags(p_dsb)
    p_dsb.set_defaults(func=cmd_bench_dataset)

    p_plot = sub.add_parser("plot", help="SVG scatter + decision boundary (2-D)")
    p_plot.add_argument("--model", required=True)
    p_plot.add_argument("--input", required=True)
    p_plot.add_argument("--output", required=True, help="SVG file to write")
    p_plot.add_argument("--width", type=int, default=None)
    p_plot.add_argument("--height", type=int, default=None)
    p_plot.add_argument("--config", default=None)
    _add_data_flags(p_plot)
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "protocol", None))))
    try:
        return args.func(args)
    except _Failure as failure:
        code, stage, detail = failure.code, failure.stage, failure.detail
    except _DATA_ERRORS as exc:
        code, stage, detail = 2, "unhandled data error", exc
    except Exception as exc:  # anything else is a runtime failure
        code, stage, detail = 3, "unexpected error", exc
    print(f"mpa {command}: {stage}: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
