"""End-to-end command checks: exit codes, files, and reproducibility."""

import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import movingpoints
from movingpoints import cli, datasets, mpa
from movingpoints.bench import run_dataset_protocol, run_synthetic_suite
from movingpoints.cli import main, render_scatter_svg
from movingpoints.datasets import make_blobs
from movingpoints.geometry import hyperplane_from_points
from movingpoints.mpa import MpaConfig
from test_acceptance import GOLDEN_C1_PREDICTIONS, GOLDEN_C3_IRIS_REPORT

IRIS_ARGS = [
    "--label-col", "Species",
    "--positive-label", "Iris-setosa",
    "--negative-label", "Iris-versicolor",
    "--features", "SepalLengthCm,SepalWidthCm",
]
FIT_ARGS = ["--eta", "0.5", "--epochs", "200", "--seed", "0"]


def fit_iris(iris_path, out_path, extra=()):
    argv = (["fit", "--input", str(iris_path), "--output", str(out_path)]
            + IRIS_ARGS + FIT_ARGS + list(extra))
    return main(argv)


class TestFit:
    def test_writes_model_and_log(self, iris_path, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        assert fit_iris(iris_path, model_path) == 0
        assert model_path.exists()
        assert (tmp_path / "m.json.log").exists()
        out = capsys.readouterr().out
        assert "train accuracy: 1.0" in out

    def test_byte_identical_reruns(self, iris_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert fit_iris(iris_path, a) == 0
        assert fit_iris(iris_path, b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.log").read_bytes() == \
            (tmp_path / "b.json.log").read_bytes()

    def test_missing_input_is_exit_2(self, tmp_path, capsys):
        rc = fit_iris(tmp_path / "nope.csv", tmp_path / "m.json")
        assert rc == 2
        assert "mpa fit:" in capsys.readouterr().err

    def test_bad_label_column_is_exit_2(self, iris_path, tmp_path, capsys):
        argv = ["fit", "--input", str(iris_path),
                "--output", str(tmp_path / "m.json"),
                "--label-col", "NoSuchColumn", "--positive-label", "x"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "mpa fit:" in err and "NoSuchColumn" in err

    def test_unknown_flag_raises_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--frobnicate"])
        assert exc.value.code == 2

    def test_config_file_with_flag_override(self, iris_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=0.001\nepochs=200\nseed=0\n", encoding="utf-8")
        out = tmp_path / "m.json"
        argv = (["fit", "--input", str(iris_path), "--output", str(out)]
                + IRIS_ARGS + ["--config", str(cfg), "--eta", "0.5"])
        assert main(argv) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["config"]["eta"] == 0.5      # flag wins
        assert doc["config"]["epochs"] == 200   # file fills the rest

    def test_config_file_alone(self, iris_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=0.25\n", encoding="utf-8")
        out = tmp_path / "m.json"
        argv = (["fit", "--input", str(iris_path), "--output", str(out)]
                + IRIS_ARGS + ["--config", str(cfg)])
        assert main(argv) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["config"]["eta"] == 0.25


class TestPredict:
    @pytest.fixture()
    def model_path(self, iris_path, tmp_path):
        p = tmp_path / "m.json"
        assert fit_iris(iris_path, p) == 0
        return p

    def test_writes_predictions(self, iris_path, model_path, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        argv = (["predict", "--input", str(iris_path), "--model",
                 str(model_path), "--output", str(out)] + IRIS_ARGS)
        assert main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 101
        assert set(lines[1:]) <= {"0", "1"}
        assert "accuracy: 1.0" in capsys.readouterr().out

    def test_writes_the_golden_predictions(self, iris_path, model_path, tmp_path):
        # Every Iris row, virginica included, as the iris-cli benchmark runs it.
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--input", str(iris_path),
                     "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_C1_PREDICTIONS

    def test_unlabeled_input_uses_model_features(self, iris_path, model_path,
                                                 tmp_path):
        # strip the label column; model carries its own feature names
        rows = iris_path.read_text(encoding="utf-8").splitlines()
        header = rows[0].split(",")
        keep = [header.index("SepalLengthCm"), header.index("SepalWidthCm")]
        plain = tmp_path / "plain.csv"
        plain.write_text(
            "\n".join(",".join(r.split(",")[i] for i in keep) for r in rows)
            + "\n", encoding="utf-8")
        out = tmp_path / "preds.csv"
        argv = ["predict", "--input", str(plain), "--model", str(model_path),
                "--output", str(out)]
        assert main(argv) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 151

    @pytest.mark.parametrize("edit", [
        pytest.param({"dim": 5}, id="dim"),
        pytest.param({"version": 99}, id="version"),
        pytest.param({"config": {"eta": 0.5, "momentum": 0.9}}, id="config-key"),
        pytest.param({"alpha": None}, id="alpha-null"),
        pytest.param({"config": []}, id="config-list"),
        pytest.param({"pseudo_sign": [1]}, id="pseudo-sign-list"),
        pytest.param({"feature_names": 5}, id="feature-names-number"),
        pytest.param({"config": {"eta": "0.5"}}, id="config-eta-string"),
        pytest.param({"config": {"early_stop": "no"}}, id="config-early-stop-string"),
        pytest.param({"alpha": -1.0}, id="alpha-negative"),
        pytest.param({"pseudo_sign": {"0": [1], "1": 1}}, id="pseudo-sign-value-list"),
        pytest.param({"moving_points": {"a": 1}}, id="moving-points-object"),
        pytest.param({"alpha": True}, id="alpha-boolean"),
        pytest.param({"alpha": float("inf")}, id="alpha-infinity"),
        pytest.param({"feature_names": [1, 2]}, id="feature-names-numbers"),
        pytest.param({"feature_names": ["a"]}, id="feature-names-too-few"),
        pytest.param({"config": {"eta": True}}, id="config-eta-boolean"),
        pytest.param({"config": {"epochs": True}}, id="config-epochs-boolean"),
        pytest.param({"config": {"epochs": float("inf")}}, id="config-epochs-infinity"),
        pytest.param({"config": {"seed": float("inf")}}, id="config-seed-infinity"),
        pytest.param({"pseudo_sign": {"0": float("-inf"), "1": 1}}, id="pseudo-sign-infinity"),
        pytest.param({"pseudo_sign": {"0": -1.9, "1": 1.4}}, id="pseudo-sign-floats"),
        pytest.param({"pseudo_sign": {"0": True, "1": -1}}, id="pseudo-sign-boolean"),
        pytest.param({"pseudo_sign": {"0": "-1", "1": "1"}}, id="pseudo-sign-strings"),
        pytest.param({"moving_points": [[10 ** 400, 1.0], [1.0, 0.0]]},
                     id="moving-points-past-float"),
    ])
    def test_bad_model_schema_is_exit_2(self, iris_path, model_path, tmp_path,
                                        capsys, edit):
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        doc.update(edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        for command, out in (("predict", "p.csv"), ("plot", "p.svg")):
            argv = ([command, "--input", str(iris_path), "--model", str(bad),
                     "--output", str(tmp_path / out)] + IRIS_ARGS)
            assert main(argv) == 2
            assert f"mpa {command}: loading model:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        pytest.param([1, 2], id="json-list"),
        # the plane's coefficients overflow a float
        pytest.param({"format": "moving-points-model", "version": 1, "dim": 3,
                      "moving_points": (1e200 * np.eye(3)).tolist(),
                      "pseudo_sign": {"0": -1, "1": 1}, "alpha": 0.1, "config": {},
                      "feature_names": ["SepalLengthCm", "SepalWidthCm", "PetalLengthCm"]},
                     id="points-1e200"),
    ])
    def test_unusable_model_document_is_exit_2(self, iris_path, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["predict", "--input", str(iris_path), "--model", str(bad),
                "--output", str(tmp_path / "p.csv")]
        assert main(argv) == 2
        assert "mpa predict: loading model:" in capsys.readouterr().err

    @pytest.mark.parametrize("text_of, detail", [
        pytest.param(lambda doc: json.dumps({k: v for k, v in doc.items()
                                             if k != "moving_points"}),
                     "model document has no moving_points field", id="no-moving-points"),
        pytest.param(lambda doc: "[" * 200_000 + "]" * 200_000,
                     "model document is nested too deeply", id="nested-200000-deep"),
    ])
    def test_unreadable_model_names_its_cause(self, iris_path, model_path, tmp_path,
                                              capsys, text_of, detail):
        bad = tmp_path / "bad.json"
        bad.write_text(text_of(json.loads(model_path.read_text(encoding="utf-8"))),
                       encoding="utf-8")
        argv = ["predict", "--input", str(iris_path), "--model", str(bad),
                "--output", str(tmp_path / "p.csv")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"mpa predict: loading model: {detail}\n"

    def test_missing_model_is_exit_2(self, iris_path, tmp_path):
        argv = ["predict", "--input", str(iris_path),
                "--model", str(tmp_path / "absent.json"),
                "--output", str(tmp_path / "p.csv")]
        assert main(argv) == 2


class TestBench:
    def test_synthetic_small(self, tmp_path, capsys):
        out = tmp_path / "suite.csv"
        argv = ["bench", "synthetic", "--seeds", "2", "--stds", "2",
                "--n-per-class", "20", "--seed", "5", "--output", str(out)]
        assert main(argv) == 0
        text = out.read_text(encoding="utf-8")
        assert "# protocol: synthetic-suite" in text
        assert "seed01-std1.1,mpa," in text
        assert "mean train acc" in capsys.readouterr().out

    def test_synthetic_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["bench", "synthetic", "--seeds", "2", "--stds", "1",
                "--n-per-class", "20", "--seed", "5"]
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dataset_protocol(self, iris_path, tmp_path):
        out = tmp_path / "ds.csv"
        argv = ["bench", "dataset", "--input", str(iris_path),
                "--label-col", "Species",
                "--positive-label", "Iris-virginica",
                "--negative-label", "Iris-versicolor",
                "--reps", "2", "--seed", "3", "--eta", "0.0005",
                "--output", str(out)]
        assert main(argv) == 0
        text = out.read_text(encoding="utf-8")
        assert "rep000,mpa," in text and "rep001,svm," in text

    # Every feature of the Iris CSV scaled by 2^k standardizes to the same
    # numbers, so the C3 protocol writes the golden report's bytes.
    @pytest.mark.parametrize("exponent", [-30, 30])
    def test_dataset_protocol_does_not_depend_on_units(self, iris_path, tmp_path, exponent):
        header, *rows = iris_path.read_text(encoding="utf-8").splitlines()
        scaled = tmp_path / "iris.csv"
        scaled.write_text("".join(
            [header + "\n"] + [",".join([*(repr(float(v) * 2.0 ** exponent) for v in values),
                                         label]) + "\n"
                                for *values, label in (row.split(",") for row in rows)]),
            encoding="utf-8")
        out = tmp_path / "ds.csv"
        argv = ["bench", "dataset", "--input", str(scaled), "--label-col", "Species",
                "--positive-label", "Iris-virginica", "--negative-label", "Iris-versicolor",
                "--reps", "5", "--eta", "0.0005", "--output", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_C3_IRIS_REPORT


class TestPlot:
    def test_svg_output_and_separation(self, iris_path, tmp_path):
        model_path = tmp_path / "m.json"
        assert fit_iris(iris_path, model_path) == 0
        svg_path = tmp_path / "plot.svg"
        argv = (["plot", "--input", str(iris_path), "--model", str(model_path),
                 "--output", str(svg_path)] + IRIS_ARGS)
        assert main(argv) == 0
        svg = svg_path.read_text(encoding="utf-8")
        assert svg.startswith("<svg ")
        assert 'id="boundary"' in svg
        assert svg.count('class="pt0"') == 50
        assert svg.count('class="pt1"') == 50
        assert 'id="mp0"' in svg and 'id="mp1"' in svg
        # the drawn boundary comes from the same model, so zero markers on
        # the wrong side means the model scores its own training set clean
        from movingpoints.datasets import load_csv
        ds = load_csv(iris_path, "Species", "Iris-setosa",
                      feature_columns=["SepalLengthCm", "SepalWidthCm"],
                      negative_label="Iris-versicolor")
        model = mpa.load_model(model_path)
        preds = mpa.predict_many(model, ds.features)
        assert np.array_equal(preds, ds.labels)

    def test_boundary_has_no_unit(self):
        # The plot of X 2^k, with the model's points scaled alike, draws the
        # boundary of X's plot: the clip's tolerances are the box's own.
        ds = make_blobs(0, 3.0, 40, 2)
        model, _ = mpa.train(ds)

        def boundary(k):
            P = np.array(model.moving_points) * 2.0 ** k
            svg = render_scatter_svg(ds.features * 2.0 ** k, ds.labels,
                                     hyperplane_from_points(P), P)
            return [line for line in svg.split("\n") if 'id="boundary"' in line]

        want = boundary(0)
        assert len(want) == 1
        for k in range(-40, 41):
            assert boundary(k) == want, k

    def test_constant_feature_has_no_unit(self):
        # An axis whose data do not spread is padded by a length of the
        # data, so the plot of X 2^k and the points 2^k puts every mark on
        # the pixel of X's plot; only the tick labels, data values, change.
        ds = make_blobs(0, 3.0, 40, 2)
        model, _ = mpa.train(ds)
        X = ds.features.copy()
        X[:, 1] = 1.5
        P = np.array(model.moving_points)

        def marks(k):
            svg = render_scatter_svg(X * 2.0 ** k, ds.labels,
                                     hyperplane_from_points(P * 2.0 ** k), P * 2.0 ** k)
            return re.sub(r">[^<]*</text>", "></text>", svg)

        want = marks(0)
        assert 'id="mp0"' in want
        assert marks(20) == want
        assert marks(-20) == want

    def test_header_text_is_escaped(self, iris_path, tmp_path):
        # A feature name holding <, & and > still gives a well-formed SVG.
        name = "Sepal<Length&cm>"
        csv_path = tmp_path / "iris.csv"
        csv_path.write_text(iris_path.read_text(encoding="utf-8").replace(
            "SepalWidthCm", name), encoding="utf-8")
        args = IRIS_ARGS[:-1] + [f"SepalLengthCm,{name}"]
        model_path = tmp_path / "m.json"
        assert main(["fit", "--input", str(csv_path), "--output", str(model_path)]
                    + args + FIT_ARGS) == 0
        svg_path = tmp_path / "plot.svg"
        assert main(["plot", "--input", str(csv_path), "--model", str(model_path),
                     "--output", str(svg_path)] + args) == 0
        root = ElementTree.parse(svg_path).getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-2:] == ["SepalLengthCm", name]

    def test_refuses_non_2d_model(self, iris_path, tmp_path, capsys):
        model_path = tmp_path / "m4.json"
        argv = ["fit", "--input", str(iris_path), "--output", str(model_path),
                "--label-col", "Species",
                "--positive-label", "Iris-virginica",
                "--negative-label", "Iris-versicolor",
                "--eta", "0.0005"]
        assert main(argv) == 0  # 4-feature model
        rc = main(["plot", "--input", str(iris_path),
                   "--model", str(model_path),
                   "--output", str(tmp_path / "x.svg"),
                   "--label-col", "Species",
                   "--positive-label", "Iris-virginica",
                   "--negative-label", "Iris-versicolor"])
        assert rc == 2
        assert "2" in capsys.readouterr().err


class TestBadConfigIsExit2:
    """A bad config value stops every command at "checking inputs" with exit 2."""

    @staticmethod
    def argv(command, iris_path, tmp_path):
        out = str(tmp_path / "out")
        if command == "fit":
            return ["fit", "--input", str(iris_path), "--output", out] + IRIS_ARGS
        if command == "bench synthetic":
            return ["bench", "synthetic", "--seeds", "1", "--stds", "1",
                    "--n-per-class", "20", "--output", out]
        if command == "bench dataset":
            return ["bench", "dataset", "--input", str(iris_path),
                    "--label-col", "Species", "--positive-label", "Iris-virginica",
                    "--negative-label", "Iris-versicolor", "--reps", "1",
                    "--output", out]
        # predict and plot read --config before they look for the model
        return [command, "--input", str(iris_path), "--output", out,
                "--model", str(tmp_path / "absent.json")] + IRIS_ARGS

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param("fit", ["--eta", "0"], "eta must be", id="fit-eta-0"),
        pytest.param("fit", ["--eta", "nan"], "eta must be", id="fit-eta-nan"),
        pytest.param("fit", ["--eta", "-1"], "eta must be", id="fit-eta-negative"),
        pytest.param("fit", ["--eta", "inf"], "eta must be", id="fit-eta-inf"),
        pytest.param("fit", ["--init-spread", "inf"], "init_spread must be",
                     id="fit-init-spread-inf"),
        pytest.param("fit", ["--alpha", "inf"], "alpha must be finite and >= 0",
                     id="fit-alpha-inf"),
        pytest.param("bench synthetic", ["--epochs", "0"], "epochs must be",
                     id="synthetic-epochs-0"),
        pytest.param("bench synthetic", ["--eta", "inf"], "eta must be",
                     id="synthetic-eta-inf"),
        pytest.param("bench dataset", ["--eta", "nan"], "eta must be",
                     id="dataset-eta-nan"),
        pytest.param("fit", ["--config", "{bad}"], "expected key=value",
                     id="fit-config-line"),
        pytest.param("bench synthetic", ["--config", "{bad}"], "expected key=value",
                     id="synthetic-config-line"),
        pytest.param("bench dataset", ["--config", "{bad}"], "expected key=value",
                     id="dataset-config-line"),
        pytest.param("predict", ["--config", "{bad}"], "expected key=value",
                     id="predict-config-line"),
        pytest.param("plot", ["--config", "{bad}"], "expected key=value",
                     id="plot-config-line"),
        pytest.param("fit", ["--config", "{bad_value}"], "eta must be",
                     id="fit-config-eta-0"),
        pytest.param("fit", ["--config", "{missing}"], "No such file",
                     id="fit-config-missing"),
        pytest.param("bench synthetic", ["--config", "{bad_cast}"], "config dim:",
                     id="synthetic-config-dim-not-int"),
        pytest.param("bench synthetic", ["--test-fraction", "2"],
                     "test_fraction must be in (0, 1)", id="synthetic-test-fraction-2"),
        pytest.param("bench dataset", ["--test-fraction", "2"],
                     "test_fraction must be in (0, 1)", id="dataset-test-fraction-2"),
        pytest.param("bench dataset", ["--pca-k", "0"], "pca_k must be at least 1",
                     id="dataset-pca-k-0"),
        pytest.param("bench synthetic", ["--seeds", "0"], "n_seeds must be at least 1",
                     id="synthetic-seeds-0"),
        pytest.param("bench synthetic", ["--stds", "0"], "n_stds must be at least 1",
                     id="synthetic-stds-0"),
        pytest.param("bench synthetic", ["--n-per-class", "0"],
                     "n_per_class must be at least 1", id="synthetic-n-per-class-0"),
        pytest.param("bench synthetic", ["--dim", "1"], "dim must be at least 2",
                     id="synthetic-dim-1"),
        pytest.param("bench dataset", ["--reps", "0"], "repetitions must be at least 1",
                     id="dataset-reps-0"),
    ])
    def test_exit_2_at_checking_inputs(self, iris_path, tmp_path, capsys,
                                       command, flags, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text("eta=0.5\nepochs 200\n", encoding="utf-8")
        bad_value = tmp_path / "bad_value.cfg"
        bad_value.write_text("eta=0\n", encoding="utf-8")
        bad_cast = tmp_path / "bad_cast.cfg"
        bad_cast.write_text("dim=two\n", encoding="utf-8")
        paths = {"bad": bad, "bad_value": bad_value, "bad_cast": bad_cast,
                 "missing": tmp_path / "none.cfg"}
        flags = [f.format(**paths) for f in flags]
        assert main(self.argv(command, iris_path, tmp_path) + flags) == 2
        err = capsys.readouterr().err
        assert f"mpa {command}: checking inputs:" in err
        assert message in err
        assert not (tmp_path / "out").exists()


class TestEveryErrorEndsAtItsStage:
    """Each error path: its exit code and the `mpa <command>: <stage>:` line."""

    @pytest.fixture()
    def paths(self, iris_path, tmp_path):
        model = tmp_path / "m.json"
        assert fit_iris(iris_path, model) == 0
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["feature_names"] = None
        nonames = tmp_path / "nonames.json"
        nonames.write_text(json.dumps(doc), encoding="utf-8")
        same = tmp_path / "same.csv"  # both classes have the mean (0.5, 0.5)
        same.write_text("a,b,y\n0,0,p\n1,1,p\n0,0,n\n1,1,n\n", encoding="utf-8")
        (tmp_path / "dir").mkdir()
        short = tmp_path / "short.cfg"  # a height no taller than the plot margins
        short.write_text("height = 60\n", encoding="utf-8")
        wide = tmp_path / "wide.csv"  # a field past the csv module's 131,072 characters
        wide.write_text("a,b,y\n1,2,p\n" + "9" * 131_073 + ",2,n\n", encoding="utf-8")
        huge = tmp_path / "huge.csv"  # 3-D blobs whose planes have a ||w|| past 1e308
        blobs = make_blobs(seed=1, std=3.0, n_per_class=20, dim=3, center_halfwidth=4.0)
        huge.write_text("a,b,c,y\n" + "".join(
            ",".join(map(repr, row)) + f",{'np'[label]}\n"
            for row, label in zip((blobs.features * 1e80).tolist(), blobs.labels.tolist())),
            encoding="utf-8")
        return {"iris": iris_path, "model": model, "nonames": nonames, "same": same,
                "dir": tmp_path / "dir", "out": tmp_path / "out",
                "missing": tmp_path / "absent.csv", "short": short, "wide": wide,
                "huge": huge}

    VIRGINICA = ["--label-col", "Species", "--positive-label", "Iris-virginica",
                 "--negative-label", "Iris-versicolor"]
    FIT = ["fit", "--input", "{iris}"] + FIT_ARGS
    PREDICT = ["predict", "--model", "{model}"]
    SYNTHETIC = ["bench", "synthetic", "--seeds", "1", "--stds", "1",
                 "--n-per-class", "20"]
    DATASET = ["bench", "dataset", "--input", "{iris}", "--reps", "1",
               "--eta", "0.0005"]
    PLOT = ["plot", "--model", "{model}", "--input", "{iris}"]

    @pytest.mark.parametrize("argv, code, prefix", [
        pytest.param(FIT + ["--output", "{out}"], 2, "mpa fit: checking inputs:",
                     id="fit-no-label-flags"),
        pytest.param(FIT + ["--output", "{out}", "--label-col", "NoSuchColumn",
                            "--positive-label", "x"], 2, "mpa fit: loading data:",
                     id="fit-unknown-label-column"),
        pytest.param(["fit", "--input", "{same}", "--output", "{out}", "--label-col", "y",
                      "--positive-label", "p"], 3, "mpa fit: training:",
                     id="fit-coincident-means"),
        pytest.param(["fit", "--input", "{huge}", "--output", "{out}", "--label-col", "y",
                      "--positive-label", "p"], 3, "mpa fit: training:",
                     id="fit-normal-norm-overflows"),
        pytest.param(FIT + IRIS_ARGS + ["--output", "{dir}"], 2,
                     "mpa fit: writing output:", id="fit-output-is-directory"),
        pytest.param(FIT + IRIS_ARGS + ["--output", "{out}"], 3,
                     "mpa fit: unexpected error:", id="fit-train-raises"),
        pytest.param(FIT + IRIS_ARGS[:-1] + [",", "--output", "{out}"], 2,
                     "mpa fit: checking inputs:", id="fit-features-comma"),
        pytest.param(["fit", "--input", "{wide}", "--output", "{out}", "--label-col", "y",
                      "--positive-label", "p"], 2, "mpa fit: loading data:",
                     id="fit-csv-field-too-large"),
        pytest.param(PREDICT + ["--input", "{missing}", "--output", "{out}"], 2,
                     "mpa predict: checking inputs:", id="predict-missing-input"),
        pytest.param(["predict", "--model", "{nonames}", "--input", "{iris}",
                      "--output", "{out}"], 2, "mpa predict: checking inputs:",
                     id="predict-model-without-feature-names"),
        pytest.param(PREDICT + ["--input", "{iris}", "--output", "{out}",
                                "--features", "SepalLengthCm"], 2,
                     "mpa predict: checking inputs:", id="predict-wrong-feature-count"),
        pytest.param(PREDICT + ["--input", "{iris}", "--output", "{out}",
                                "--features", "SepalLengthCm,NoSuchColumn"], 2,
                     "mpa predict: loading data:", id="predict-missing-feature-column"),
        pytest.param(PREDICT + ["--input", "{iris}", "--output", "{dir}"], 2,
                     "mpa predict: writing output:", id="predict-output-is-directory"),
        pytest.param(PREDICT + ["--input", "{iris}", "--output", "{out}",
                                "--features", ","], 2,
                     "mpa predict: checking inputs:", id="predict-features-comma"),
        pytest.param(SYNTHETIC + ["--output", "{dir}"], 2,
                     "mpa bench synthetic: writing report:",
                     id="synthetic-output-is-directory"),
        pytest.param(DATASET + VIRGINICA + ["--output", "{dir}"], 2,
                     "mpa bench dataset: writing report:",
                     id="dataset-output-is-directory"),
        pytest.param(DATASET + ["--output", "{out}"], 2,
                     "mpa bench dataset: checking inputs:", id="dataset-no-label-flags"),
        pytest.param(DATASET + VIRGINICA + ["--features", ",", "--output", "{out}"], 2,
                     "mpa bench dataset: checking inputs:", id="dataset-features-comma"),
        pytest.param(DATASET + VIRGINICA + ["--svm-reg", "0", "--output", "{out}"], 2,
                     "mpa bench dataset: checking inputs:", id="dataset-svm-reg-0"),
        pytest.param(DATASET + VIRGINICA + ["--svm-reg", "nan", "--output", "{out}"], 2,
                     "mpa bench dataset: checking inputs:", id="dataset-svm-reg-nan"),
        pytest.param(DATASET + VIRGINICA + ["--svm-reg", "inf", "--output", "{out}"], 2,
                     "mpa bench dataset: checking inputs:", id="dataset-svm-reg-inf"),
        pytest.param(DATASET + VIRGINICA + ["--svm-epochs", "-3", "--output", "{out}"], 2,
                     "mpa bench dataset: checking inputs:", id="dataset-svm-epochs--3"),
        pytest.param(DATASET + VIRGINICA + ["--svm-epochs", "0", "--output", "{out}"], 2,
                     "mpa bench dataset: checking inputs:", id="dataset-svm-epochs-0"),
        pytest.param(PLOT + IRIS_ARGS[:-1] + [
            "SepalLengthCm,SepalWidthCm,PetalLengthCm", "--output", "{out}"], 2,
            "mpa plot: checking inputs:", id="plot-three-features"),
        pytest.param(PLOT + IRIS_ARGS + ["--output", "{dir}"], 2,
                     "mpa plot: writing output:", id="plot-output-is-directory"),
        pytest.param(PLOT + IRIS_ARGS[:-1] + [",", "--output", "{out}"], 2,
                     "mpa plot: checking inputs:", id="plot-features-comma"),
        pytest.param(PLOT + IRIS_ARGS + ["--width", "-100", "--output", "{out}"], 2,
                     "mpa plot: checking inputs:", id="plot-negative-width"),
        pytest.param(PLOT + IRIS_ARGS + ["--width", "72", "--output", "{out}"], 2,
                     "mpa plot: checking inputs:", id="plot-width-at-margins"),
        pytest.param(PLOT + IRIS_ARGS + ["--height", "0", "--output", "{out}"], 2,
                     "mpa plot: checking inputs:", id="plot-zero-height"),
        pytest.param(PLOT + IRIS_ARGS + ["--config", "{short}", "--output", "{out}"], 2,
                     "mpa plot: checking inputs:", id="plot-config-height-at-margins"),
    ])
    def test_exit_code_and_stage(self, paths, capsys, monkeypatch, request,
                                 argv, code, prefix):
        if request.node.callspec.id == "fit-train-raises":
            def boom(*_args, **_kwargs):
                raise RuntimeError("boom")
            monkeypatch.setattr(mpa, "train", boom)
        capsys.readouterr()  # drop the fixture's own output
        assert main([a.format(**paths) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix), err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, module, prefix", [
        pytest.param(FIT + IRIS_ARGS + ["--output", "{out}"], datasets,
                     "mpa fit: loading data:", id="fit"),
        pytest.param(PREDICT + ["--input", "{iris}", "--output", "{out}"], mpa,
                     "mpa predict: loading model:", id="predict"),
        pytest.param(DATASET + VIRGINICA + ["--output", "{out}"], datasets,
                     "mpa bench dataset: loading data:", id="bench-dataset"),
        pytest.param(PLOT + IRIS_ARGS + ["--output", "{out}"], datasets,
                     "mpa plot: loading data:", id="plot"),
    ])
    def test_unreadable_file_is_exit_2(self, paths, capsys, monkeypatch,
                                       argv, module, prefix):
        # The tests may run as root, whom chmod 000 does not stop from
        # reading, so the module's open raises as an unreadable file would.
        def refuse(path, *_args, **_kwargs):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(module, "open", refuse, raising=False)
        capsys.readouterr()  # drop the fixture's own output
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "Permission denied" in err, err
        assert err.count("\n") == 1


def fresh_interpreter(code: str) -> list[str]:
    """The output lines of code run by a fresh interpreter on this checkout."""
    src = str(Path(movingpoints.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()


# numpy imports numpy.ma lazily, and np.unique is one caller that pulls it
# in; importing it adds about a tenth to an `mpa` process's start-up. The
# three commands of one fit -> predict -> bench dataset cycle run in one
# fresh interpreter, which must end without it. numpy itself is more than a
# third of a process's start-up, and `mpa predict` needs none of it: see
# test_each_entry_point_loads_only_what_it_runs below.
def test_cli_commands_do_not_import_numpy_ma(iris_path, tmp_path):
    fit = ["fit", "--input", str(iris_path), "--output", str(tmp_path / "m.json"),
           *IRIS_ARGS, *FIT_ARGS]
    predict = ["predict", "--model", str(tmp_path / "m.json"), "--input", str(iris_path),
               "--output", str(tmp_path / "p.csv")]
    bench = ["bench", "dataset", "--input", str(iris_path), "--label-col", "Species",
             "--positive-label", "Iris-virginica", "--negative-label", "Iris-versicolor",
             "--reps", "1", "--eta", "0.0005", "--output", str(tmp_path / "b.csv")]
    code = ("import sys; from movingpoints.cli import main\n"
            f"for argv in {[fit, predict, bench]!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules)")
    assert fresh_interpreter(code)[-1] == "False"


# Each module is imported by the code that first uses it. Importing the
# package loads no submodule and the CLI loads itself alone (no inspect);
# predicting with the C1 model adds the model, its plane and the CSV
# reader and no numpy (a model is n points and the side of the plane
# through them); fit adds the generator and numpy; only the bench
# commands load the bench and the baselines.
def test_each_entry_point_loads_only_what_it_runs(iris_path, tmp_path):
    assert fit_iris(iris_path, tmp_path / "m.json") == 0
    predict = ["predict", "--model", str(tmp_path / "m.json"), "--input", str(iris_path),
               "--output", str(tmp_path / "p.csv")]
    fit = ["fit", "--input", str(iris_path), "--output", str(tmp_path / "m2.json"),
           *IRIS_ARGS, *FIT_ARGS]
    bench = ["bench", "dataset", "--input", str(iris_path), "--output", str(tmp_path / "r.csv"),
             "--label-col", "Species", "--positive-label", "Iris-virginica",
             "--negative-label", "Iris-versicolor", "--reps", "1"]
    code = ("import sys\n"
            "def loaded():\n"
            "    names = [m for m in sys.modules if m.startswith('movingpoints') or\n"
            "             m in ('numpy', 'inspect')]\n"
            "    print('loaded:', *sorted(names))\n"
            "import movingpoints\n"
            "loaded()\n"
            "from movingpoints.cli import main\n"
            "loaded()\n"
            f"assert main({predict!r}) == 0\n"
            "loaded()\n"
            f"assert main({fit!r}) == 0\n"
            "loaded()\n"
            f"assert main({bench!r}) == 0\n"
            "loaded()")
    found = [set(line.split()[1:]) for line in fresh_interpreter(code)
             if line.startswith("loaded:")]
    package = {"movingpoints"}
    cli_only = package | {"movingpoints.cli"}
    predicted = cli_only | {"movingpoints.mpa", "movingpoints.geometry", "movingpoints.datasets",
                            "inspect"}  # which dataclasses imports
    fitted = predicted | {"movingpoints.rng", "numpy"}
    benched = fitted | {"movingpoints.bench", "movingpoints.baselines"}
    assert found == [package, cli_only, predicted, fitted, benched]
    assert hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest() == \
        GOLDEN_C1_PREDICTIONS
    assert (tmp_path / "m2.json").read_bytes() == (tmp_path / "m.json").read_bytes()


def test_every_library_error_is_a_value_error():
    # Each CLI stage ends on OSError and ValueError alone; an error class
    # outside ValueError would escape its stage as "unexpected error" (3).
    found = []
    for info in pkgutil.iter_modules(movingpoints.__path__, "movingpoints."):
        module = importlib.import_module(info.name)
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException) and cls.__module__ == module.__name__
                  and cls is not cli._Failure]
    assert len(found) >= 19
    assert [cls for cls in found if not issubclass(cls, ValueError)] == []


class TestConfigKeys:
    """A config key is an option name; the command line wins over the file."""

    @pytest.mark.parametrize("command", ["fit", "predict", "bench synthetic",
                                         "bench dataset", "plot"])
    @pytest.mark.parametrize("line", ["etaa=0.5", "output=x.json", "config=other.cfg"])
    def test_unknown_key_is_exit_2(self, iris_path, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n{line}\n", encoding="utf-8")
        argv = TestBadConfigIsExit2.argv(command, iris_path, tmp_path)
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mpa {command}: checking inputs: {cfg}:2: ")
        assert repr(line.partition("=")[0]) in err
        assert not (tmp_path / "out").exists()

    def test_other_commands_keys_are_allowed(self, iris_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim=2\nreps=1\nwidth=320\nnear-cluster-pct=50\n", encoding="utf-8")
        out = tmp_path / "m.json"
        argv = (["fit", "--input", str(iris_path), "--output", str(out)]
                + IRIS_ARGS + FIT_ARGS + ["--config", str(cfg)])
        assert main(argv) == 0

    def fit(self, iris_path, out, extra=()):
        assert fit_iris(iris_path, out, extra) == 0
        return out.read_bytes(), (out.parent / (out.name + ".log")).read_bytes()

    def test_early_stop_false_trains_as_the_flag_does(self, iris_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("early_stop = false\n", encoding="utf-8")
        by_file = self.fit(iris_path, tmp_path / "a.json", ["--config", str(cfg)])
        by_flag = self.fit(iris_path, tmp_path / "b.json", ["--no-early-stop"])
        default = self.fit(iris_path, tmp_path / "c.json")
        assert by_file == by_flag != default
        assert b"# epochs_run: 200\n" in by_file[1]
        assert b"# stopped_early: true\n" in default[1]

    def test_flags_win_over_the_file(self, iris_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("early_stop=true\nepochs=3\nseed=9\n", encoding="utf-8")
        by_flags = self.fit(iris_path, tmp_path / "a.json",
                            ["--config", str(cfg), "--no-early-stop"])  # FIT_ARGS set the rest
        plain = self.fit(iris_path, tmp_path / "b.json", ["--no-early-stop"])
        assert by_flags == plain

    def test_bad_boolean_is_exit_2(self, iris_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("early_stop=maybe\n", encoding="utf-8")
        assert fit_iris(iris_path, tmp_path / "m.json", ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            f"mpa fit: checking inputs: {cfg}:1: config early_stop: not a boolean")


class TestHelpShowsLibraryDefaults:
    """Each "(default N)" that --help prints is the library's own default."""

    FLAGS = {
        "fit": {"--eta": (MpaConfig, "eta"), "--epochs": (MpaConfig, "epochs"),
                "--near-cluster-pct": (MpaConfig, "near_cluster_percentile"),
                "--init-spread": (MpaConfig, "init_spread"), "--seed": (MpaConfig, "seed")},
        "bench synthetic": {
            "--seeds": (run_synthetic_suite, "n_seeds"), "--stds": (run_synthetic_suite, "n_stds"),
            "--n-per-class": (run_synthetic_suite, "n_per_class"),
            "--dim": (run_synthetic_suite, "dim"),
            "--test-fraction": (run_synthetic_suite, "test_fraction"),
            "--eta": (MpaConfig, "eta"), "--epochs": (MpaConfig, "epochs")},
        "bench dataset": {
            "--reps": (run_dataset_protocol, "repetitions"),
            "--pca-k": (run_dataset_protocol, "pca_k"),
            "--test-fraction": (run_dataset_protocol, "test_fraction"),
            "--svm-reg": (run_dataset_protocol, "svm_reg"),
            "--svm-epochs": (run_dataset_protocol, "svm_epochs"),
            "--seed": (MpaConfig, "seed")},
        "plot": {"--width": (render_scatter_svg, "width"),
                 "--height": (render_scatter_svg, "height")},
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_printed_defaults_match_the_library(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        printed = dict(re.findall(r"(?<!\[)(--[a-z-]+) [A-Z_]+ [^()]*\(default ([^):]+)\)", text))
        assert set(printed) >= set(self.FLAGS[command])
        for flag, (fn, param) in self.FLAGS[command].items():
            want = inspect.signature(fn).parameters[param].default
            assert printed[flag] == str(want), flag
            assert float(printed[flag]) == want


MPA_OPTIONS = {"--eta": (MpaConfig, "eta"), "--epochs": (MpaConfig, "epochs"),
               "--near-cluster-pct": (MpaConfig, "near_cluster_percentile"),
               "--init-spread": (MpaConfig, "init_spread"), "--seed": (MpaConfig, "seed")}
# Every option whose type and default are the library's, per command.
LIBRARY_OPTIONS = {
    "fit": MPA_OPTIONS,
    "bench synthetic": {
        "--seeds": (run_synthetic_suite, "n_seeds"), "--stds": (run_synthetic_suite, "n_stds"),
        "--n-per-class": (run_synthetic_suite, "n_per_class"),
        "--dim": (run_synthetic_suite, "dim"),
        "--test-fraction": (run_synthetic_suite, "test_fraction"), **MPA_OPTIONS},
    "bench dataset": {
        "--reps": (run_dataset_protocol, "repetitions"),
        "--pca-k": (run_dataset_protocol, "pca_k"),
        "--test-fraction": (run_dataset_protocol, "test_fraction"),
        "--svm-reg": (run_dataset_protocol, "svm_reg"),
        "--svm-epochs": (run_dataset_protocol, "svm_epochs"), **MPA_OPTIONS},
    "plot": {"--width": (render_scatter_svg, "width"),
             "--height": (render_scatter_svg, "height")},
}


class TestLibraryOptionTypes:
    """A library option parses to its default's type, and argparse names
    that type when a value is not one."""

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in LIBRARY_OPTIONS.items() for flag in flags])
    def test_typed_by_the_library_default(self, iris_path, tmp_path, capsys, command, flag):
        fn, param = LIBRARY_OPTIONS[command][flag]
        kind = type(inspect.signature(fn).parameters[param].default)
        argv = TestBadConfigIsExit2.argv(command, iris_path, tmp_path)
        args = cli.build_parser().parse_args(argv + [flag, "7"])
        value = getattr(args, flag[2:].replace("-", "_"))
        assert type(value) is kind and value == 7
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "x"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid {kind.__name__} value: 'x'" in capsys.readouterr().err

    def test_config_value_of_the_wrong_type(self, iris_path, tmp_path, capsys):
        # reps=x stops bench dataset, which reads reps as an int; fit skips
        # it as another command's key.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reps=x\n", encoding="utf-8")
        argv = ["bench", "dataset", "--input", str(iris_path), "--label-col", "Species",
                "--positive-label", "Iris-virginica", "--negative-label", "Iris-versicolor",
                "--output", str(tmp_path / "out"), "--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"mpa bench dataset: checking inputs: {cfg}:1: config reps: "
            "invalid literal for int() with base 10: 'x'\n")
        assert not (tmp_path / "out").exists()
        assert fit_iris(iris_path, tmp_path / "m.json", ["--config", str(cfg)]) == 0
