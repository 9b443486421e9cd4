"""Command line interface.

Subcommands: fit, predict, bench synthetic, bench dataset, plot. Exit
codes: 0 success, 2 input/data error, 3 runtime/training error. All output
files are byte-identical across runs with the same flags and inputs.

A failing command raises ``_Failure(code, stage, detail)``, mostly from a
``with _stage(stage):`` block, which ends the stage on any file error
(OSError) or library error (ValueError), so an unreadable input or model
file exits 2 at its loading stage. ``main`` alone catches the _Failure and
prints ``mpa <command>: <stage>: <detail>`` to stderr; anything else that
escapes a command is an "unexpected error" (3).

Every default lives in the library (MpaConfig, the bench protocols,
render_scatter_svg): a command passes on only the options that were set.
The module imports no library module: each command imports what it runs,
and each library option reads its default when it parses a value or
prints --help (_LibraryDefault), so building the parser loads none.
An optional ``--config FILE`` of key=value lines sets the options of each
command's settings group that the command line left unset (_read_config).
A config file or value that cannot be read, parsed or trained with exits 2
at "checking inputs".
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys


class RefuseNon2DError(ValueError):
    """Plotting is defined for 2-D models and data only."""


class _Failure(Exception):
    """Ends a command with exit `code`; main prints `stage` and `detail`."""

    def __init__(self, code: int, stage: str, detail):
        super().__init__(code, stage, detail)
        self.code, self.stage, self.detail = code, stage, detail


@contextlib.contextmanager
def _stage(stage: str, code: int = 2, errors=(OSError, ValueError)):
    """Turns any of `errors` raised in the block into a _Failure at `stage`.

    The library raises a ValueError for every bad input and failed run.
    """
    try:
        yield
    except errors as exc:
        raise _Failure(code, stage, exc) from None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _settings(parser) -> dict:
    """{dest: action} of the options in the settings groups of parser and its subcommands."""
    found = {}
    for group in parser._action_groups:
        for action in group._group_actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    found.update(_settings(sub))
            elif group.title == _SETTINGS:
                found[action.dest] = action
    return found


def _read_config(args, settings: dict) -> None:
    """Sets the options that the command line left unset from the --config file.

    Lines are key=value (# comments), the key a settings option's name with
    dashes or underscores; a key of another command is skipped, so one file
    can serve several commands. An unreadable file, a line without "=", a
    key that no command defines, or a value that the option's own type
    rejects exits 2 at "checking inputs". A later line wins.
    """
    unset = {key for key in settings if getattr(args, key, False) is None}
    with _stage("checking inputs"), \
            open(args.config, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        where, (key, eq, value) = f"{args.config}:{lineno}", text.partition("=")
        key = key.strip().replace("-", "_")
        if not eq:
            raise _Failure(2, "checking inputs", f"{where}: expected key=value, got {text!r}")
        if key not in settings:
            raise _Failure(2, "checking inputs", f"{where}: {key!r} is no command's setting")
        if key in unset:
            action = settings[key]
            cast = _parse_bool if action.nargs == 0 else action.type or str
            try:
                setattr(args, key, cast(value.strip()))
            except ValueError as exc:
                raise _Failure(2, "checking inputs", f"{where}: config {key}: {exc}") from None


def _given(args, *names, **params) -> dict:
    """{parameter: value} of the options that were set; unset ones keep the library's defaults.

    Each of names is a parameter and its option's dest; params maps a
    parameter to the dest of an option of another name.
    """
    dests = {**{name: name for name in names}, **params}
    return {param: getattr(args, dest) for param, dest in dests.items()
            if getattr(args, dest) is not None}


def _defaults(fn) -> dict:
    """{parameter: default} of fn, a function or a dataclass."""
    import inspect

    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


def _mpa_config(args):
    from .mpa import MpaConfig

    with _stage("checking inputs"):
        return MpaConfig(**_given(args, "eta", "epochs", "alpha", "init_spread", "seed",
                                  "early_stop", near_cluster_percentile="near_cluster_pct"))


def _feature_list(args):
    if args.features is None:
        return None
    cols = [c.strip() for c in args.features.split(",") if c.strip()]
    if not cols:
        raise _Failure(2, "checking inputs", "--features given but names no columns")
    return cols


def _require_files(*paths) -> None:
    for path in paths:
        if not os.path.isfile(path):
            raise _Failure(2, "checking inputs", f"no such file: {path}")


def _load_labeled(args, columns=None):
    """The labeled --input CSV as a Dataset; prints how many rows were dropped.

    columns are the feature columns when neither --features nor the config
    names any (None: every column but the label). A missing file, missing
    label flags or data that does not load stop the command with exit 2.
    """
    from .datasets import load_csv

    _require_files(args.input)
    if args.label_col is None or args.positive_label is None:
        raise _Failure(2, "checking inputs", "--label-col and --positive-label are required")
    with _stage("loading data"):
        ds = load_csv(args.input, label_column=args.label_col,
                      positive_label=args.positive_label,
                      feature_columns=_feature_list(args) or columns,
                      negative_label=args.negative_label)
    if ds.dropped_rows:
        print(f"dropped rows with missing values: {ds.dropped_rows}")
    return ds


def _load_model(args):
    """The --model file as an MpaModel, once it and the --input file exist."""
    from .mpa import load_model

    _require_files(args.model, args.input)
    with _stage("loading model"):
        return load_model(args.model)


def _write_output(path, text: str) -> None:
    with _stage("writing output"), \
            open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------- fit

def cmd_fit(args) -> int:
    from . import mpa

    cfg = _mpa_config(args)
    ds = _load_labeled(args)
    with _stage("training", code=3):
        model, log = mpa.train(ds, cfg)

    acc = mpa.training_accuracy(model, ds)
    log_path = args.log_output or (args.output + ".log")
    with _stage("writing output"):
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
    from .datasets import _read_csv
    from .mpa import predict_many

    model = _load_model(args)
    columns = _feature_list(args) or model.feature_names
    if columns is None:
        raise _Failure(2, "checking inputs", "model stores no feature names; pass --features")
    if len(columns) != model.dim:
        raise _Failure(2, "checking inputs",
                       f"model expects {model.dim} features, got {len(columns)}")
    # with label flags the scored rows and the written rows are the same
    # filtered set; without them every input row gets a prediction
    labels = None
    if args.label_col is not None and args.positive_label is not None:
        ds = _load_labeled(args, columns)
        X, labels = ds.features, ds.labels
    else:
        with _stage("loading data"):
            X, _, _, dropped = _read_csv(args.input, columns)
        if dropped:
            print(f"dropped rows with missing values: {dropped}")

    preds = predict_many(model, X)
    _write_output(args.output, "prediction\n" + "".join(f"{p}\n" for p in preds))
    if labels is not None:
        from .bench import accuracy

        print(f"accuracy: {accuracy(preds, labels)}")
    print(f"predictions: {args.output}")
    return 0


# ---------------------------------------------------------------- bench

def _run_bench(output, stage: str, run, *data, **params) -> int:
    """run(*data, **params), then its report written to output and its table printed.

    run checks its parameters before any run (exit 2 at "checking inputs");
    a data or training error during the runs exits 3 at stage.
    """
    from .bench import render_table, write_report
    from .datasets import InvalidParamsError

    with _stage(stage, code=3), _stage("checking inputs", errors=InvalidParamsError):
        report = run(*data, **params)
    with _stage("writing report"):
        write_report(report, output)
    sys.stdout.write(render_table(report))
    print(f"report: {output}")
    return 0


def cmd_bench_synthetic(args) -> int:
    from .bench import run_synthetic_suite

    return _run_bench(
        args.output, "running suite", run_synthetic_suite, mpa_cfg=_mpa_config(args),
        **_given(args, "n_per_class", "dim", "test_fraction",
                 n_seeds="seeds", n_stds="stds", master_seed="seed"))


def cmd_bench_dataset(args) -> int:
    from .bench import run_dataset_protocol

    cfg = _mpa_config(args)
    return _run_bench(
        args.output, "running protocol", run_dataset_protocol, _load_labeled(args),
        mpa_cfg=cfg, **_given(args, "test_fraction", "pca_k", "svm_reg", "svm_epochs",
                              repetitions="reps", master_seed="seed"))


# ---------------------------------------------------------------- plot

_SVG_MARGINS = (56.0, 16.0, 16.0, 44.0)  # left, right, top, bottom, in pixels


def _clip_line_to_box(weights, bias, x0, x1, y0, y1):
    """Intersection segment of w.(x,y)+b=0 with an axis-aligned box.

    Returns two (x, y) points or None when the line misses the box. Its
    tolerances are 1e-9 of the box's width and height, so no unit enters.
    """
    a, b2 = float(weights[0]), float(weights[1])
    c = float(bias)
    pts = []
    tx, ty = 1e-9 * abs(x1 - x0), 1e-9 * abs(y1 - y0)

    def add(x, y):
        for px, py in pts:
            if abs(px - x) <= tx and abs(py - y) <= ty:
                return
        pts.append((x, y))

    if abs(b2) > 0:
        for xe in (x0, x1):
            y = -(a * xe + c) / b2
            if y0 - ty <= y <= y1 + ty:
                add(xe, y)
    if abs(a) > 0:
        for ye in (y0, y1):
            x = -(b2 * ye + c) / a
            if x0 - tx <= x <= x1 + tx:
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
    10% of its span per axis; an axis whose data do not spread is padded
    by 10% of the other axis's span, or, when no axis spreads, of the
    largest |coordinate| (1.0 for data all at the origin). So no unit
    enters: data and points scaled by 2^k draw the same pixels.
    Deterministic text output: fixed 2-decimal pixel coordinates, and the
    axis names escaped as XML text. The features and moving points pass
    geometry.as_rows; RefuseNon2DError unless both are 2-D.
    """
    import numpy as np

    from .geometry import as_rows

    X = as_rows(features)
    y = np.asarray(labels, dtype=int)
    mp = as_rows(moving_points)
    if X.shape[1] != 2 or mp.shape != (2, 2):
        raise RefuseNon2DError("plotting requires 2-D data and a 2-D model")
    # Imported here: xml.sax.saxutils loads urllib.request, about 45 ms
    # of start-up that every other command would pay.
    from xml.sax.saxutils import escape

    names = [escape(str(name)) for name in feature_names] if feature_names else ["x0", "x1"]

    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    fallback = 0.1 * (span.max() or np.abs(X).max() or 1.0)
    pad = np.where(span > 0, 0.1 * span, fallback)
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
    sizes = _given(args, "width", "height")
    ml, mr, mt, mb = _SVG_MARGINS
    for name, margins in (("width", ml + mr), ("height", mt + mb)):
        size = sizes.get(name, _defaults(render_scatter_svg)[name])
        if size <= margins:
            raise _Failure(2, "checking inputs",
                           f"{name} must be more than the {margins:g}-pixel margins, got {size}")
    model = _load_model(args)
    if model.dim != 2:
        raise _Failure(2, "checking inputs",
                       f"model dimension is {model.dim}; plots are 2-D only")
    ds = _load_labeled(args, model.feature_names)
    if ds.n != 2:
        raise _Failure(2, "checking inputs", f"data has {ds.n} features; plots are 2-D only")
    _write_output(args.output, render_scatter_svg(
        ds.features, ds.labels, model.hyperplane, model.moving_points,
        feature_names=ds.feature_names, **sizes))
    print(f"plot: {args.output}")
    return 0


# ---------------------------------------------------------------- parser

_SETTINGS = "settings (each also a --config key)"


def _add_settings(p):
    """Adds --config to p; returns the group of the options its keys can set."""
    p.add_argument("--config", help="key=value lines that set the settings below; "
                                    "flags win over the file")
    return p.add_argument_group(_SETTINGS)


class _LibraryDefault:
    """An option's type: the default of parameter param of the library's where ("module.name").

    The library is read on first use, so building the parser imports none
    of it. Called, it converts a value to the default's type; str() is the
    default, which the option's help prints through %(type)s; repr() is the
    type's name, which argparse's "invalid int value" message names.
    """

    def __init__(self, where: str, param: str):
        self.where, self.param = where, param

    def default(self):
        from importlib import import_module

        module, name = self.where.split(".")
        return _defaults(getattr(import_module(f"{__package__}.{module}"), name))[self.param]

    def __call__(self, text: str):
        return type(self.default())(text)

    def __str__(self) -> str:
        return str(self.default())

    def __repr__(self) -> str:
        return type(self.default()).__name__


def _add_library_options(s, where: str, *options) -> None:
    """Adds each (flag, parameter, help) to s, typed and helped by where's default of parameter."""
    for flag, param, text in options:
        s.add_argument(flag, type=_LibraryDefault(where, param), help=f"{text} (default %(type)s)")


def _add_mpa_flags(s):
    _add_library_options(
        s, "mpa.MpaConfig", ("--eta", "eta", "learning rate"),
        ("--epochs", "epochs", "training epochs"),
        ("--near-cluster-pct", "near_cluster_percentile", "near-cluster percentile radius"),
        ("--init-spread", "init_spread",
         "initial point spacing as a fraction of the inter-mean distance"),
        ("--seed", "seed", "seed for every stochastic choice"))
    s.add_argument("--alpha", type=float, help="moving-point proximity threshold "
                                               "(default: 0.1 x initial point spacing)")
    s.add_argument("--no-early-stop", dest="early_stop", action="store_false", default=None,
                   help="always run the full epoch budget (config key: early_stop=false)")


def _add_data_flags(s):
    s.add_argument("--label-col", help="name of the label column")
    s.add_argument("--positive-label", help="label value mapped to class 1")
    s.add_argument("--negative-label",
                   help="keep only rows with this or the positive label")
    s.add_argument("--features", help="comma-separated feature columns (default: all others)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpa",
        description="Binary classification with a moving-points decision boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a model on a labeled CSV")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--output", required=True, help="model file to write")
    p_fit.add_argument("--log-output", help="training log path (default: model path + .log)")
    s_fit = _add_settings(p_fit)
    _add_data_flags(s_fit)
    _add_mpa_flags(s_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="apply a saved model to a CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True)
    p_pred.add_argument("--output", required=True, help="predictions CSV to write")
    _add_data_flags(_add_settings(p_pred))
    p_pred.set_defaults(func=cmd_predict)

    p_bench = sub.add_parser("bench", help="run a benchmark protocol")
    bsub = p_bench.add_subparsers(dest="protocol", required=True)

    p_syn = bsub.add_parser("synthetic", help="seeded grid of generated blob datasets")
    p_syn.add_argument("--output", required=True, help="report file to write")
    s_syn = _add_settings(p_syn)
    _add_library_options(
        s_syn, "bench.run_synthetic_suite",
        ("--seeds", "n_seeds", "number of dataset seeds, 0..N-1"),
        ("--stds", "n_stds", "number of scatter widths 1.0, 1.1, ..."),
        ("--n-per-class", "n_per_class", "samples per class"), ("--dim", "dim", "dimensions"),
        ("--test-fraction", "test_fraction", "test split fraction"))
    _add_mpa_flags(s_syn)
    p_syn.set_defaults(func=cmd_bench_synthetic)

    p_dsb = bsub.add_parser("dataset", help="split/standardize/PCA protocol on a CSV")
    p_dsb.add_argument("--input", required=True)
    p_dsb.add_argument("--output", required=True, help="report file to write")
    s_dsb = _add_settings(p_dsb)
    _add_library_options(
        s_dsb, "bench.run_dataset_protocol", ("--reps", "repetitions", "seeded repetitions"),
        ("--pca-k", "pca_k", "PCA components"),
        ("--test-fraction", "test_fraction", "test split fraction"),
        ("--svm-reg", "svm_reg", "SVM regularization strength"),
        ("--svm-epochs", "svm_epochs", "SVM epochs"))
    _add_data_flags(s_dsb)
    _add_mpa_flags(s_dsb)
    p_dsb.set_defaults(func=cmd_bench_dataset)

    p_plot = sub.add_parser("plot", help="SVG scatter + decision boundary (2-D)")
    p_plot.add_argument("--model", required=True)
    p_plot.add_argument("--input", required=True)
    p_plot.add_argument("--output", required=True, help="SVG file to write")
    s_plot = _add_settings(p_plot)
    _add_library_options(s_plot, "cli.render_scatter_svg", ("--width", "width", "pixels"),
                         ("--height", "height", "pixels"))
    _add_data_flags(s_plot)
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "protocol", None))))
    try:
        if args.config is not None:
            _read_config(args, _settings(parser))
        return args.func(args)
    except _Failure as failure:
        code, stage, detail = failure.code, failure.stage, failure.detail
    except Exception as exc:  # anything else is a runtime failure
        code, stage, detail = 3, "unexpected error", exc
    print(f"mpa {command}: {stage}: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
