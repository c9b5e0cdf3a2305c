import csv
import json
import re

import pytest

from pervml import cli
from pervml.data import bundled_path


def run_cli(*argv):
    return cli.run(list(argv))


def first_leaf(node):
    """The leftmost leaf of a nested model-file tree."""
    while "weight" not in node:
        node = node["left"]
    return node


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestStats:
    def test_cement_row(self, capsys):
        assert run_cli("stats", bundled_path()) == 0
        out = capsys.readouterr().out
        cement = [line for line in out.splitlines() if line.startswith("cement")][0]
        cells = cement.split()
        assert float(cells[2]) == pytest.approx(200.0, abs=1e-3)
        assert float(cells[3]) == pytest.approx(36.116, abs=1e-3)

    def test_defaults_to_bundled(self, capsys):
        assert run_cli("stats") == 0
        assert "porosity" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert run_cli("stats", "no_such_file.csv") == 2
        assert "no_such_file.csv" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_bad_flag_value(self, capsys):
        assert run_cli("train", "--target", "bogus") == 1

    def test_no_subcommand(self, capsys):
        assert run_cli() == 1

    def test_both_data_forms_rejected(self, capsys):
        assert run_cli("stats", bundled_path(), "--data", bundled_path()) == 2


class TestTrain:
    def test_writes_model(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli(
            "train", "--target", "density", "--model", "gbrt", "--out", str(out)
        )
        assert rc == 0
        assert (out / "model_gbrt_density.json").exists()

    def test_missing_data_exits_2(self, tmp_path, capsys):
        rc = run_cli("train", "--target", "density", "nonexistent.csv")
        assert rc == 2
        assert "nonexistent.csv" in capsys.readouterr().err

    def test_params_file(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("n_estimators = 4\nmax_depth = 2\n")
        out = tmp_path / "out"
        rc = run_cli(
            "train",
            "--target",
            "tensile",
            "--params",
            str(params),
            "--out",
            str(out),
        )
        assert rc == 0
        assert (out / "model_gbrt_tensile.json").exists()


class TestEvaluate:
    def test_writes_reports_and_predictions(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli(
            "evaluate", "--target", "porosity", "--model", "svr", "--out", str(out)
        )
        assert rc == 0
        metrics = read_csv(out / "metrics_svr_porosity.csv")
        assert metrics[0] == ["phase", "r2", "rmse", "mae", "mape", "n"]
        assert [row[0] for row in metrics[1:]] == ["train", "test"]
        preds = read_csv(out / "predictions_svr_porosity.csv")
        assert preds[0] == ["mixture_id", "experimental", "predicted", "phase"]
        assert len(preds) == 25  # header + 24 mixtures
        phases = {row[3] for row in preds[1:]}
        assert phases == {"train", "test"}
        test_ids = {row[0] for row in preds[1:] if row[3] == "test"}
        assert test_ids == {"C11", "C12", "C15", "C21", "C23"}

    def test_model_file_round_trip(self, tmp_path, capsys):
        # Both families: a loaded model writes the same bytes as a direct fit.
        for family in ("gbrt", "svr"):
            common = ("--model", family, "--target", "compressive")
            out = tmp_path / family
            assert run_cli("train", *common, "--out", str(out / "models")) == 0
            model_file = out / "models" / f"model_{family}_compressive.json"
            assert run_cli("evaluate", *common, "--out", str(out / "direct")) == 0
            rc = run_cli(
                "evaluate", *common, "--model-file", str(model_file),
                "--out", str(out / "loaded"),
            )
            assert rc == 0
            for name in (
                f"metrics_{family}_compressive.csv",
                f"predictions_{family}_compressive.csv",
            ):
                loaded = (out / "loaded" / name).read_bytes()
                assert loaded == (out / "direct" / name).read_bytes()

    def test_malformed_model_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("train", "--target", "compressive", "--out", str(out)) == 0
        model_file = out / "model_gbrt_compressive.json"
        payload = json.loads(model_file.read_text())
        payload["trees"][0]["feature"] = 9
        model_file.write_text(json.dumps(payload))
        capsys.readouterr()
        for command in ("evaluate", "importance"):
            rc = run_cli(command, "--model-file", str(model_file), "--out", str(out))
            assert rc == 2
            err = capsys.readouterr().err
            assert "out of range" in err
            assert "Traceback" not in err

    def _assert_non_finite_rejected(self, tmp_path, capsys, family, edits):
        """`evaluate --model-file` exits 2, with no traceback, once the first
        number after `key` in the saved model file is replaced by `literal`."""
        common = ("--model", family, "--target", "compressive")
        out = tmp_path / "out"
        assert run_cli("train", *common, "--out", str(out)) == 0
        model_file = out / f"model_{family}_compressive.json"
        saved = model_file.read_text()
        for key, literal in edits:
            number = rf'("{key}": \[?\s*)[^,\s\]]+'
            text = re.sub(number, rf"\g<1>{literal}", saved, count=1)
            assert text != saved
            model_file.write_text(text)
            capsys.readouterr()
            rc = run_cli(
                "evaluate", *common, "--model-file", str(model_file), "--out", str(out)
            )
            err = capsys.readouterr().err
            assert rc == 2, (key, literal)
            assert "not a finite float" in err
            assert "Traceback" not in err

    def test_non_finite_gbrt_model_exits_2(self, tmp_path, capsys):
        edits = [("threshold", "NaN"), ("gain", "-Infinity"), ("weight", "1e999")]
        self._assert_non_finite_rejected(tmp_path, capsys, "gbrt", edits)

    def test_non_finite_svr_model_exits_2(self, tmp_path, capsys):
        edits = [("bias", "NaN"), ("bias", "-1e999"), ("dual_coefs", "Infinity")]
        self._assert_non_finite_rejected(tmp_path, capsys, "svr", edits)

    @pytest.mark.parametrize(
        "family, edit, message",
        [
            ("gbrt", lambda p: p["trees"][0].update(feature=1.9), "must be an integer"),
            ("gbrt", lambda p: p.update(feature_names="abcd"), "must be a list of strings"),
            ("svr", lambda p: p["kernel"].update(degree=True), "must be an integer"),
            ("svr", lambda p: p["kernel"].update(max_passes=10000.5), "must be an integer"),
            ("svr", lambda p: p.update(n_features=4.5), "must be an integer"),
            ("gbrt", lambda p: first_leaf(p["trees"][0]).update(weight=True), "must be a number"),
            ("svr", lambda p: p.update(bias=False), "must be a number"),
            (
                "svr",
                lambda p: p.update(dual_coefs=[str(c) for c in p["dual_coefs"]]),
                "must be a number",
            ),
            ("svr", lambda p: p["solver"].update(converged="no"), "must be true or false"),
            ("svr", lambda p: p.update(solver=[]), "must be an object"),
        ],
        ids=[
            "feature", "feature_names", "degree", "max_passes", "n_features",
            "weight", "bias", "dual_coefs", "converged", "solver",
        ],
    )
    def test_mistyped_model_field_exits_2(self, tmp_path, capsys, family, edit, message):
        """A model file whose integer field holds a fraction or a bool, whose
        float field holds a bool or a string, whose `converged` is not a JSON
        bool, whose `solver` is not an object, or whose feature names are not
        a list of strings, exits 2 without a traceback."""
        common = ("--model", family, "--target", "compressive")
        out = tmp_path / "out"
        assert run_cli("train", *common, "--out", str(out)) == 0
        model_file = out / f"model_{family}_compressive.json"
        payload = json.loads(model_file.read_text())
        edit(payload)
        model_file.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = run_cli("evaluate", *common, "--model-file", str(model_file), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err
        assert "Traceback" not in err

    def test_csv_round_trips_losslessly(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("evaluate", "--target", "tensile", "--out", str(out)) == 0
        rows = read_csv(out / "predictions_gbrt_tensile.csv")
        for row in rows[1:]:
            # repr-formatted floats parse back to the identical value
            assert repr(float(row[2])) == row[2]


class TestTune:
    def test_small_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.ini"
        grid.write_text("[gbrt]\nn_estimators = 3, 6\nmax_depth = 2\n")
        out = tmp_path / "out"
        rc = run_cli(
            "tune",
            "--target",
            "compressive",
            "--grid",
            str(grid),
            "--out",
            str(out),
        )
        assert rc == 0
        cv = read_csv(out / "cv_results_gbrt_compressive.csv")
        assert cv[0][:2] == ["n_estimators", "max_depth"]
        assert len(cv) == 3  # header + 2 combinations
        assert (out / "best_params_gbrt_compressive.txt").exists()
        assert (out / "model_gbrt_compressive.json").exists()
        stdout = capsys.readouterr().out
        assert "fold seed 42" in stdout


class TestSensitivity:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("sensitivity", "--out", str(out)) == 0
        rows = read_csv(out / "sensitivity.csv")
        assert rows[0] == ["input", "density", "compressive", "tensile", "porosity"]
        assert len(rows) == 5
        cement = [r for r in rows if r[0] == "cement"][0]
        assert float(cement[1]) > 0  # density
        assert float(cement[4]) < 0  # porosity


class TestImportance:
    def test_writes_ranking(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli("importance", "--target", "compressive", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "importance_compressive.csv")
        assert rows[0] == [
            "feature",
            "gain",
            "weight",
            "cover",
            "rank_gain",
            "rank_weight",
            "rank_cover",
            "mean_rank",
        ]
        assert [r[0] for r in rows[1:]] == [
            "aggregate_size",
            "cement",
            "w_c",
            "aggregate",
        ]


class TestReproduce:
    def test_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("reproduce", "--out", str(out)) == 0
        report = read_csv(out / "repro_report.csv")
        assert len(report) == 9  # header + 8 model rows
        names = {row[0] for row in report[1:]}
        assert names == {
            f"{family}_{target}"
            for family in ("gbrt", "svr")
            for target in ("density", "compressive", "tensile", "porosity")
        }
        for family in ("gbrt", "svr"):
            for target in ("density", "compressive", "tensile", "porosity"):
                assert (out / f"predictions_{family}_{target}.csv").exists()
        for target in ("density", "compressive", "tensile", "porosity"):
            assert (out / f"importance_{target}.csv").exists()
        stdout = capsys.readouterr().out
        assert re.search(r"seed \d+", stdout)

    def test_strict_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from pervml import pipeline

        original = pipeline.load_reference

        def impossible_reference():
            ref = original()
            ref["bands"]["min_gbrt_rmse_wins"] = 5  # cannot win 5 of 4
            return ref

        monkeypatch.setattr(pipeline, "load_reference", impossible_reference)
        out = tmp_path / "out"
        assert run_cli("reproduce", "--strict", "--out", str(out)) == 3
        assert "BAND FAILURE" in capsys.readouterr().out

    def test_strict_passes_with_shipped_bands(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("reproduce", "--strict", "--out", str(out)) == 0
