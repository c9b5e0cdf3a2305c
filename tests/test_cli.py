import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pervml import __version__, _kernels, cli
from pervml.data import bundled_path
from pervml.svr import SvrConvergenceWarning

from test_svr import count_compiles


def run_cli(*argv):
    return cli.run(list(argv))


def first_leaf(node):
    """The leftmost leaf of a nested model-file tree."""
    while "weight" not in node:
        node = node["left"]
    return node


def halve_support_vectors(payload):
    """Three 4-value support vectors rewritten as six 2-value rows, beside
    their three dual coefficients: the same numbers in rows of the wrong
    length."""
    flat = [x for row in payload["support_vectors"][:3] for x in row]
    payload["support_vectors"] = [flat[i : i + 2] for i in range(0, 12, 2)]
    payload["dual_coefs"] = payload["dual_coefs"][:3]


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

    def test_csv_error_exits_2(self, tmp_path, capsys):
        lines = Path(bundled_path()).read_text().splitlines()
        lines[3] = "x" * 131_073 + lines[3]  # over csv's field size limit
        table = tmp_path / "big.csv"
        table.write_text("\n".join(lines) + "\n")
        assert run_cli("stats", str(table)) == 2
        err = capsys.readouterr().err
        assert f"{table}: row 4: field larger than field limit" in err
        assert "Traceback" not in err


class TestModuleEntry:
    """`python -m pervml.cli` runs `main`, which exits with `run`'s status."""

    @staticmethod
    def run_module(*argv, cwd):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run(
            [sys.executable, "-m", "pervml.cli", *argv],
            capture_output=True, text=True, env=env, cwd=cwd,
        )

    def test_version(self, tmp_path):
        done = self.run_module("--version", cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (0, f"pervml {__version__}\n", "")

    def test_missing_file_exits_2_with_one_error_line(self, tmp_path):
        done = self.run_module("stats", "missing.csv", cwd=tmp_path)
        assert (done.returncode, done.stdout) == (2, "")
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pervml stats: error:")
        assert "missing.csv" in lines[0] and "Traceback" not in done.stderr


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_bad_flag_value(self, capsys):
        assert run_cli("train", "--target", "bogus") == 1

    def test_no_subcommand(self, capsys):
        assert run_cli() == 1

    def test_both_data_forms_rejected(self, capsys):
        assert run_cli("stats", bundled_path(), "--data", bundled_path()) == 2


class TestParserBuiltOnce:
    """`cli.run` builds its parser once per process; each run still gives
    the exit code and output that a fresh parser gives."""

    @staticmethod
    def outcomes(argvs, out, fresh):
        results = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            # A new stream per run: a parser that kept the stream it was
            # built with would write this run's usage to the last one's.
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.run(argv)
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
            shutil.rmtree(out, ignore_errors=True)
            results.append((rc, stdout.getvalue(), stderr.getvalue(), files))
        return results

    def test_sequence_matches_fresh_parsers(self, tmp_path):
        grid = tmp_path / "grid.ini"
        grid.write_text("[gbrt]\nn_estimators = 3, 6\nmax_depth = 2\n")
        out = tmp_path / "out"
        argvs = [
            ["tune", "--grid", str(grid), "--out", str(out)],
            ["train", "--target", "density", "--out", str(out)],
            ["train", "--target", "bogus"],
            ["--version"],
        ]
        fresh = self.outcomes(argvs, out, fresh=True)
        cli.build_parser.cache_clear()
        once = self.outcomes(argvs, out, fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert once == fresh
        assert [rc for rc, *_ in once] == [0, 0, 1, 0]
        assert len(once[0][3]) == 3 and len(once[1][3]) == 1
        assert once[2][1] == "" and once[2][2].startswith("usage: pervml train")
        assert once[3][1:] == (f"pervml {__version__}\n", "", {})


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

    def test_overflowing_kernel_exits_2(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text(
            "kernel = polynomial\ndegree = 400\ngamma = 10\ncoef0 = 1\nC = 1\n"
            "max_passes = 50\n"
        )
        out = tmp_path / "out"
        rc = run_cli("train", "--model", "svr", "--params", str(params), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2
        assert "polynomial kernel matrix is not finite (overflow)" in err
        assert "Traceback" not in err
        assert not (out / "model_svr_compressive.json").exists()

    @pytest.mark.parametrize("model", ["gbrt", "svr"])
    def test_without_a_compiler_exits_2(self, tmp_path, capsys, cold_smo_cache, no_compiler, model):
        out = tmp_path / "out"
        assert run_cli("train", "--model", model, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "pervml train: error: pervml needs a C compiler" in err
        assert "`cc -std=c99 " in err
        assert "Traceback" not in err
        assert not out.exists() or not list(out.iterdir())


class TestSplitErrors:
    @pytest.mark.parametrize(
        "argv", [("train",), ("train", "--scaler", "train"), ("tune",)], ids=" ".join
    )
    def test_no_training_mixtures_exits_2(self, tmp_path, capsys, argv):
        ids = tmp_path / "all_ids.txt"
        ids.write_text("".join(f"C{i}\n" for i in range(1, 25)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(*argv, "--split", f"ids:{ids}", "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert rc == 2
        assert "split leaves no training mixtures" in err
        assert "UserWarning" not in err
        assert not [w for w in caught if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("command", ["evaluate", "train", "importance", "tune"])
    def test_empty_test_side_is_one_warning_line(self, tmp_path, capsys, command):
        ids = tmp_path / "no_ids.txt"
        ids.write_text("# no test mixtures\n")
        grid = tmp_path / "grid.ini"
        grid.write_text("[gbrt]\nn_estimators = 2\n")
        extra = ("--grid", str(grid)) if command == "tune" else ()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(
                command, "--split", f"ids:{ids}", "--out", str(tmp_path / "out"), *extra
            )
        err = capsys.readouterr().err
        assert rc == 0
        assert err.splitlines() == ["pervml: warning: split has an empty test side"]
        assert "UserWarning" not in err
        assert ".py:" not in err
        assert not [w for w in caught if issubclass(w.category, UserWarning)]


class TestSettingsFiles:
    @pytest.mark.parametrize("command", ["train", "evaluate", "importance"])
    def test_unknown_params_key_exits_2(self, tmp_path, capsys, command):
        params = tmp_path / "params.txt"
        params.write_text("n_estimators = 5\nfoo = 1\n")
        rc = run_cli(command, "--params", str(params), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown gbrt parameter 'foo'" in err
        assert "Traceback" not in err

    def test_unknown_grid_axis_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.ini"
        grid.write_text("[svr]\nC = 1, 10\nnu = 0.5\n")
        rc = run_cli("tune", "--model", "svr", "--grid", str(grid), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert "axis 'nu'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[svr]\nC = 1\nC = 10\n", "option 'C' in section 'svr' already exists"),
            ("[svr]\nC = 1\n[svr]\nepsilon = 0.1\n", "section 'svr' already exists"),
            ("C = 1, 10\n", "no section headers"),
            ("[svr]\nC = 1%\n", "axis 'C'"),
        ],
        ids=["duplicate-axis", "duplicate-section", "no-section-header", "percent"],
    )
    def test_malformed_grid_file_exits_2(self, tmp_path, capsys, text, message):
        grid = tmp_path / "grid.ini"
        grid.write_text(text)
        rc = run_cli("tune", "--model", "svr", "--grid", str(grid), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{grid}: " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, text, output",
        [
            ("tune", "--grid", "[gbrt]\nn_estimators = 3, 6\nmax_depth = 2\n",
             "cv_results_gbrt_compressive.csv"),
            ("train", "--params", "n_estimators = 4\nmax_depth = 2\n",
             "model_gbrt_compressive.json"),
        ],
        ids=["grid", "params"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, command, flag, text, output):
        """A settings file saved with a UTF-8 byte-order mark gives the same
        output as one without."""
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            out = tmp_path / encoding
            out.mkdir()
            settings = out / "settings.txt"
            settings.write_text(text, encoding=encoding)
            assert run_cli(command, flag, str(settings), "--out", str(out)) == 0
            outputs.append((out / output).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "command, text",
        [
            (["train", "--params"], b"n_estimators = 4\n# caf\xff\n"),
            (["tune", "--model", "gbrt", "--grid"], b"[gbrt]\n# caf\xff\nn_estimators = 3\n"),
            (["stats"], Path(bundled_path()).read_bytes().replace(b"C1,", b"C\xff,", 1)),
        ],
        ids=["params", "grid", "csv"],
    )
    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys, command, text):
        path = tmp_path / "latin1.txt"
        path.write_bytes(text)
        out = [] if command == ["stats"] else ["--out", str(tmp_path / "out")]
        rc = run_cli(*command, str(path), *out)
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}: 'utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "family, setting",
        [("svr", "C = nan"), ("svr", "epsilon = inf"), ("gbrt", "reg_lambda = nan"),
         ("gbrt", "eta = -inf")],
    )
    def test_non_finite_param_exits_2(self, tmp_path, capsys, family, setting):
        params = tmp_path / "params.txt"
        params.write_text(setting + "\n")
        rc = run_cli(
            "evaluate", "--model", family, "--params", str(params), "--out", str(tmp_path)
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "must be finite" in err
        assert "Traceback" not in err


HEADER, FIRST_ROW = Path(bundled_path()).read_text().splitlines()[:2]


class TestInputFileErrors:
    """Each input file error exits 2 with its message naming the file, and
    no traceback. `{}` in the argument and the message stands for the file,
    which is not written when its text is None."""

    @pytest.mark.parametrize(
        "argv, arg, text, message",
        [
            (["tune", "--model", "svr", "--grid"], "{}", "[gbrt]\nn_estimators = 3\n",
             "{}: no [svr] section"),
            (["tune", "--grid"], "{}", "# no section\n", "{}: no [gbrt] or [svr] section found"),
            (["train", "--params"], "{}", "# no pairs\n", "{}: no parameters found"),
            (["stats"], "{}", "", "{}: empty dataset"),
            (["stats"], "{}", ",".join(HEADER.split(",")[::-1]) + "\n" + FIRST_ROW + "\n",
             "{}: header must be exactly " + HEADER),
            (["stats"], "{}", HEADER + "\n" + FIRST_ROW + ",1\n",
             "{}: row 2 has 10 cells, expected 9"),
            (["train", "--split"], "ids:{}", None, "cannot read split id file {}: "),
            (["evaluate", "--model-file"], "{}", None, "cannot read model file {}: "),
            (["evaluate", "--model-file"], "{}", "[]", "corrupt model file {}: expected an object"),
        ],
        ids=[
            "grid-without-model-section", "grid-without-sections", "params-without-pairs",
            "csv-empty", "csv-header-order", "csv-row-cells", "split-ids-unreadable",
            "model-file-unreadable", "model-file-not-object",
        ],
    )
    def test_exits_2_with_message(self, tmp_path, capsys, argv, arg, text, message):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        out = [] if argv == ["stats"] else ["--out", str(tmp_path / "out")]
        rc = run_cli(*argv, arg.format(path), *out)
        err = capsys.readouterr().err
        assert rc == 2
        assert message.format(path) in err
        assert "Traceback" not in err


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
            ("svr", halve_support_vectors, "n_features = 4 value(s) each"),
        ],
        ids=[
            "feature", "feature_names", "degree", "max_passes", "n_features",
            "weight", "bias", "dual_coefs", "converged", "solver", "support_vector_length",
        ],
    )
    def test_mistyped_model_field_exits_2(self, tmp_path, capsys, family, edit, message):
        """A model file whose integer field holds a fraction or a bool, whose
        float field holds a bool or a string, whose `converged` is not a JSON
        bool, whose `solver` is not an object, whose feature names are not a
        list of strings, or whose support vectors are not `n_features` long,
        exits 2 without a traceback."""
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


    # The outputs' sha256s: compressive's are those of the pure-Python fit the
    # compiled one replaced, tensile's were recorded from the compiled fit.
    # No gbrt output depends on numpy's SIMD dispatch.
    DEFAULT_GBRT_DIGESTS = {
        "compressive": {
            "best_params_gbrt_compressive.txt":
                "ed839081f350ed0dc27cbcae17d8c7e6b20dbefb1727631b9ada9e98e3c05f1e",
            "cv_results_gbrt_compressive.csv":
                "2e72c687b6b0600bfab19794826cffa36eb3b9c4738a65034615dc2b4535c7c0",
            "model_gbrt_compressive.json":
                "8b3f683f1bbf766586ecbdb2a6a95f7521733d9952f037a99ccc43a2d844470e",
        },
        "tensile": {
            "best_params_gbrt_tensile.txt":
                "593e11a99f8e36825b5792ef722bd7a0eb0d949e80c2666a15cd41fbc26f3b7c",
            "cv_results_gbrt_tensile.csv":
                "61ec22dc1b194b872e607032f08541decf88426abc1a70bc028626e315664dac",
            "model_gbrt_tensile.json":
                "2a1009c25599e79e992f65c5f0929fd901d7871fcd5d3da5a9a8e90727e4f32c",
        },
    }

    @pytest.mark.parametrize("target", DEFAULT_GBRT_DIGESTS)
    def test_default_gbrt_grid(self, tmp_path, capsys, target):
        out = tmp_path / "out"
        assert run_cli("tune", "--model", "gbrt", "--target", target, "--out", str(out)) == 0
        header, *rows = read_csv(out / f"cv_results_gbrt_{target}.csv")
        assert len(rows) == 3072
        mean, rank = header.index("mean_mse"), header.index("rank")
        assert sorted(int(row[rank]) for row in rows) == list(range(1, 3073))
        best = next(row for row in rows if row[rank] == "1")
        assert float(best[mean]) == min(float(row[mean]) for row in rows)
        assert {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))
        } == self.DEFAULT_GBRT_DIGESTS[target]

    @pytest.mark.parametrize(
        "model, grid",
        [("gbrt", "eta = 0.3, 0.5"), ("svr", "gamma = 0.1, 0.5")],
        ids=["gbrt", "svr"],
    )
    def test_without_a_compiler_builds_once(
        self, tmp_path, capsys, cold_smo_cache, no_compiler, monkeypatch, model, grid
    ):
        # The two combinations are two fit groups, and each fails alike.
        commands = count_compiles(monkeypatch)
        path = tmp_path / "grid.ini"
        path.write_text(f"[{model}]\n{grid}\n")
        out = tmp_path / "out"
        assert run_cli("tune", "--model", model, "--grid", str(path), "--out", str(out)) == 2
        assert len(commands) == 1
        err = capsys.readouterr().err
        assert "every grid combination failed" in err and "pervml needs a C compiler" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::pervml.svr.SvrConvergenceWarning")
    def test_default_svr_grid(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("tune", "--model", "svr", "--out", str(out)) == 0
        header, *rows = read_csv(out / "cv_results_svr_compressive.csv")
        assert len(rows) == 2520
        mean, rank = header.index("mean_mse"), header.index("rank")
        assert sorted(int(row[rank]) for row in rows) == list(range(1, 2521))
        best = next(row for row in rows if row[rank] == "1")
        assert float(best[mean]) == min(float(row[mean]) for row in rows)
        assert "searching 2520 combination(s)" in capsys.readouterr().out

    # Degree 2 hits the SMO cap at max_passes 50.
    @pytest.mark.filterwarnings("ignore::pervml.svr.SvrConvergenceWarning")
    def test_nan_score_is_not_best(self, tmp_path, capsys):
        grid = tmp_path / "grid.ini"
        grid.write_text(
            "[svr]\nkernel = polynomial\ndegree = 400, 2\ngamma = 10\n"
            "coef0 = 1\nC = 1\nmax_passes = 50\n"
        )
        out = tmp_path / "out"
        rc = run_cli("tune", "--model", "svr", "--grid", str(grid), "--out", str(out))
        assert rc == 0
        cv = read_csv(out / "cv_results_svr_compressive.csv")
        # Degree 400 overflows the kernel matrix: its fit fails, mean inf.
        assert [(row[1], row[-3], row[-2]) for row in cv[1:]] == [
            ("400", "inf", "2"),
            ("2", cv[2][-3], "1"),
        ]
        assert cv[1][-1] == "ValueError: polynomial kernel matrix is not finite (overflow)"
        best = (out / "best_params_svr_compressive.txt").read_text()
        assert f"CV mean MSE {cv[2][-3]};" in best
        assert "degree = 2\n" in best

    def test_negative_degree_fails_and_ranks_last(self, tmp_path, capsys):
        # (gamma x.y + coef0) ** -1 is not a kernel: the combination is an error.
        grid = tmp_path / "grid.ini"
        grid.write_text("[svr]\nkernel = polynomial\ndegree = -1, 2\ngamma = 0.5\ncoef0 = 1\n")
        out = tmp_path / "out"
        rc = run_cli("tune", "--model", "svr", "--grid", str(grid), "--out", str(out))
        assert rc == 0
        cv = read_csv(out / "cv_results_svr_compressive.csv")
        assert [(row[1], row[-3], row[-2]) for row in cv[1:]] == [
            ("-1", "inf", "2"),
            ("2", cv[2][-3], "1"),
        ]
        assert cv[1][-1] == "ValueError: degree must be >= 0"
        assert "degree = 2\n" in (out / "best_params_svr_compressive.txt").read_text()

    def test_every_cap_hit_escapes_as_one_warning(self, tmp_path, capsys, monkeypatch):
        # The benchmark's traced run fails when its SvrConvergenceWarning count
        # differs from the SMO cap hits, so neither the CLI nor svr.fit may
        # swallow or merge them. This combination hits the cap in CV.
        grid = tmp_path / "grid.ini"
        grid.write_text("[svr]\nkernel = linear\nC = 200\nepsilon = 0.01\n")
        solve = _kernels.smo_solve
        converged = []

        def counting_solve(*args):
            result = solve(*args)
            converged.append(result[4])
            return result

        monkeypatch.setattr(_kernels, "smo_solve", counting_solve)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli("tune", "--model", "svr", "--grid", str(grid), "--out", str(tmp_path))
        assert rc == 0
        cap_hits = converged.count(False)
        assert cap_hits >= 2
        assert sum(issubclass(w.category, SvrConvergenceWarning) for w in caught) == cap_hits


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

    def test_model_file_without_splits_is_degenerate(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("n_estimators = 0\n")
        out = tmp_path / "out"
        assert run_cli("train", "--params", str(params), "--out", str(out)) == 0
        model_file = out / "model_gbrt_compressive.json"
        capsys.readouterr()
        assert run_cli("importance", "--model-file", str(model_file), "--out", str(out)) == 0
        assert "ensemble has no splits; ranking is degenerate" in capsys.readouterr().out
        rows = read_csv(out / "importance_compressive.csv")
        assert [row[1:4] for row in rows[1:]] == [["0.0", "0.0", "0.0"]] * 4


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

    def test_data_path_gives_same_report(self, tmp_path, capsys):
        copy = tmp_path / "copy.csv"
        copy.write_bytes(open(bundled_path(), "rb").read())
        assert run_cli("reproduce", "--out", str(tmp_path / "bundled")) == 0
        assert run_cli("reproduce", str(copy), "--out", str(tmp_path / "copy")) == 0
        assert (tmp_path / "copy" / "repro_report.csv").read_bytes() == (
            tmp_path / "bundled" / "repro_report.csv"
        ).read_bytes()

    def test_data_without_reference_test_mixture_exits_2(self, tmp_path, capsys):
        lines = open(bundled_path(), encoding="utf-8").read().splitlines()
        path = tmp_path / "no_c11.csv"
        path.write_text("\n".join(l for l in lines if not l.startswith("C11,")) + "\n")
        assert run_cli("reproduce", str(path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "C11" in err
        assert "Traceback" not in err

    # Each band tightened past what any reproduction reaches (5 wins of 4,
    # an R2 of 1.5), and the message its branch alone then reports.
    STRICT_BANDS = {
        "min_gbrt_rmse_wins": (5, r"gbrt test RMSE beats svr on only \d/4 targets \(need 5\)"),
        "gbrt_test_rmse_factor": (0.0, r"gbrt test RMSE for \w+ is [\d.]+ > band 0\.0000"),
        "gbrt_min_train_r2": (1.5, r"gbrt train R2 for \w+ is [\d.]+ < 1\.5"),
        "min_cement_mean_rank_wins": (
            5, r"cement has the best mean importance rank in only \d/4 models \(need 5\)"
        ),
        "min_cement_gain_rank1_wins": (5, r"cement has gain rank 1 in only \d/4 models \(need 5\)"),
    }

    @pytest.mark.parametrize("band", STRICT_BANDS)
    def test_strict_failure_exits_3(self, tmp_path, monkeypatch, capsys, band):
        from pervml import pipeline

        value, message = self.STRICT_BANDS[band]
        original = pipeline.load_reference

        def tightened_reference():
            ref = original()
            ref["bands"][band] = value
            return ref

        monkeypatch.setattr(pipeline, "load_reference", tightened_reference)
        out = tmp_path / "out"
        assert run_cli("reproduce", "--strict", "--out", str(out)) == 3
        failures = [
            line.removeprefix("BAND FAILURE: ")
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("BAND FAILURE: ")
        ]
        assert failures and all(re.fullmatch(message, failure) for failure in failures)

    def test_strict_passes_with_shipped_bands(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("reproduce", "--strict", "--out", str(out)) == 0


class TestReadme:
    def test_evaluate_model_file_needs_its_family(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("train", "--target", "tensile", "--model", "svr", "--out", str(out)) == 0
        model_file = str(out / "model_svr_tensile.json")
        capsys.readouterr()
        rc = run_cli(
            "evaluate", "--target", "tensile", "--model-file", model_file, "--out", str(out)
        )
        assert rc == 2
        assert "model_type 'svr', expected 'gbrt'" in capsys.readouterr().err
        rc = run_cli(
            "evaluate", "--target", "tensile", "--model", "svr", "--model-file", model_file,
            "--out", str(out),
        )
        assert rc == 0

    def test_library_example_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("EvalReport(r2=")
