import math

import numpy as np
import pytest

from pervml import gbrt, svr
from pervml.data import FEATURE_COLUMNS
from pervml.tuning import (
    CvResult,
    HyperGrid,
    default_grid,
    fit_model,
    grid_search,
    kfold_indices,
    make_params,
    read_grid_file,
    read_params_file,
    refit_best,
)


def mse(y, y_hat):
    """Squared-error mean of one fold, the oracle's score."""
    d = y - y_hat
    return float((d * d).mean())


def unshared_grid_search(train, grid, k=5, seed=42):
    """Reference grid search: one fit per combination and fold, nothing shared."""
    n = train.y.shape[0]
    folds = kfold_indices(n, k, seed)
    names = FEATURE_COLUMNS if train.X.shape[1] == len(FEATURE_COLUMNS) else None
    results = []
    for combination in grid.combinations():
        result = CvResult(combination=dict(combination))
        try:
            params = make_params(grid.family, combination, seed=seed)
            fold_scores = []
            for fold in folds:
                holdout = np.zeros(n, dtype=bool)
                holdout[fold] = True
                model = fit_model(
                    grid.family, train.X[~holdout], train.y[~holdout], params, names
                )
                fold_scores.append(mse(train.y[holdout], model.predict(train.X[holdout])))
            result.fold_mse = fold_scores
            result.mean_mse = float(np.mean(fold_scores))
        except Exception as exc:  # noqa: BLE001 - search must survive bad combos
            result.error = f"{type(exc).__name__}: {exc}"
            result.mean_mse = float("inf")
        results.append(result)
    finite = [i for i, r in enumerate(results) if math.isfinite(r.mean_mse)]
    rest = [i for i, r in enumerate(results) if not math.isfinite(r.mean_mse)]
    order = sorted(finite, key=lambda i: (results[i].mean_mse, i)) + rest
    for rank, idx in enumerate(order, start=1):
        results[idx].rank = rank
    return results


def count_fits(monkeypatch, module):
    """Count calls to `module.fit` from here on; returns a one-item list."""
    calls = [0]
    real_fit = module.fit

    def counting_fit(*args, **kwargs):
        calls[0] += 1
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(module, "fit", counting_fit)
    return calls


class TestKfold:
    def test_19_by_5_sizes(self):
        folds = kfold_indices(19, 5, seed=42)
        assert sorted(len(f) for f in folds) == [3, 4, 4, 4, 4]
        assert sorted(np.concatenate(folds)) == list(range(19))

    def test_leave_one_out(self):
        folds = kfold_indices(5, 5, seed=0)
        assert all(len(f) == 1 for f in folds)

    def test_deterministic(self):
        a = kfold_indices(19, 5, seed=7)
        b = kfold_indices(19, 5, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_seed_changes_assignment(self):
        a = np.concatenate(kfold_indices(19, 5, seed=1))
        b = np.concatenate(kfold_indices(19, 5, seed=2))
        assert not np.array_equal(a, b)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kfold_indices(5, 6, seed=0)
        with pytest.raises(ValueError):
            kfold_indices(5, 1, seed=0)


class TestHyperGrid:
    def test_combination_count_and_order(self):
        grid = HyperGrid(family="gbrt", axes={"eta": (0.1, 0.3), "max_depth": (2, 5)})
        assert grid.n_combinations == 4
        combos = list(grid.combinations())
        assert combos[0] == {"eta": 0.1, "max_depth": 2}
        assert combos[1] == {"eta": 0.1, "max_depth": 5}
        assert combos[-1] == {"eta": 0.3, "max_depth": 5}

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError, match="grid needs at least one axis"):
            HyperGrid(family="gbrt", axes={})

    def test_unknown_family_in_params_rejected(self):
        with pytest.raises(ValueError, match="unknown model family 'forest'"):
            make_params("forest", {"eta": 0.1})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            HyperGrid(family="gbrt", axes={"eta": ()})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            HyperGrid(family="forest", axes={"eta": (0.1,)})

    def test_default_grids_contain_reference_optima(self):
        from pervml.pipeline import load_reference

        ref = load_reference()["settings"]
        for family in ("gbrt", "svr"):
            grid = default_grid(family)
            for target, setting in ref[family].items():
                for key, value in setting.items():
                    assert value in grid.axes[key], (family, target, key)


class TestGridSearch:
    def test_single_combination(self, train_slices):
        grid = HyperGrid(
            family="gbrt", axes={"n_estimators": (5,), "max_depth": (2,)}
        )
        best, results = grid_search(train_slices["compressive"], grid, k=5, seed=42)
        assert best == {"n_estimators": 5, "max_depth": 2}
        assert len(results) == 1
        assert results[0].rank == 1
        assert len(results[0].fold_mse) == 5
        assert results[0].mean_mse == pytest.approx(np.mean(results[0].fold_mse))

    def test_two_by_two_ranks(self, train_slices):
        grid = HyperGrid(
            family="gbrt",
            axes={"eta": (0.1, 0.3), "max_depth": (2, 5), "n_estimators": (5,)},
        )
        _, results = grid_search(train_slices["tensile"], grid, k=5, seed=42)
        assert len(results) == 4
        assert sorted(r.rank for r in results) == [1, 2, 3, 4]
        best_mean = min(r.mean_mse for r in results)
        assert [r for r in results if r.rank == 1][0].mean_mse == best_mean

    def test_reference_setting_beats_zero_trees(self, train_slices):
        from pervml.pipeline import load_reference

        setting = load_reference()["settings"]["gbrt"]["compressive"]
        axes = {key: (value,) for key, value in setting.items()}
        axes["n_estimators"] = (setting["n_estimators"], 0)
        grid = HyperGrid(family="gbrt", axes=axes)
        best, results = grid_search(train_slices["compressive"], grid, k=5, seed=42)
        assert best["n_estimators"] == setting["n_estimators"]
        assert len(results) == 2

    def test_failing_combination_recorded(self, train_slices):
        grid = HyperGrid(
            family="svr",
            axes={"C": (1.0, -1.0), "epsilon": (0.1,), "kernel": ("rbf",), "gamma": (0.1,)},
        )
        best, results = grid_search(train_slices["porosity"], grid, k=5, seed=42)
        assert best["C"] == 1.0
        failed = [r for r in results if r.error is not None]
        assert len(failed) == 1
        assert failed[0].combination["C"] == -1.0
        assert failed[0].rank == 2
        assert failed[0].mean_mse == float("inf")

    def test_tie_breaks_by_iteration_order(self, train_slices):
        # Identical combinations produce identical means; earlier wins.
        grid = HyperGrid(
            family="gbrt", axes={"n_estimators": (4, 4), "max_depth": (2,)}
        )
        _, results = grid_search(train_slices["density"], grid, k=5, seed=42)
        assert results[0].mean_mse == results[1].mean_mse
        assert results[0].rank == 1
        assert results[1].rank == 2

    def test_best_has_minimal_mean(self, train_slices):
        grid = HyperGrid(
            family="svr",
            axes={"C": (1.0, 10.0), "epsilon": (0.05, 0.2), "kernel": ("rbf",), "gamma": (0.11,)},
        )
        best, results = grid_search(train_slices["compressive"], grid, k=5, seed=42)
        best_row = [r for r in results if r.rank == 1][0]
        assert best_row.combination == best
        assert all(best_row.mean_mse <= r.mean_mse for r in results)


ORACLE_GRIDS = {
    "n_estimators_not_first": (
        "gbrt",
        {"eta": (0.3, 0.95), "n_estimators": (3, 7, 5), "subsample": (0.7, 1.0)},
    ),
    "duplicate_values": (
        "gbrt",
        {"n_estimators": (18, 18, 6), "max_depth": (2,), "colsample_bytree": (0.7,)},
    ),
    "zero_trees": ("gbrt", {"n_estimators": (0, 4), "max_depth": (3,)}),
    "invalid_value_in_group": (
        "gbrt",
        {"max_depth": (2, 3), "n_estimators": (5, -1, 2), "subsample": (0.7,)},
    ),
    "non_integer_value": ("gbrt", {"n_estimators": (4, 2.5, 3.0), "max_depth": (2,)}),
    "no_n_estimators_axis": ("gbrt", {"max_depth": (1, 2), "eta": (0.3,)}),
    "svr": (
        "svr",
        {"C": (1.0, -1.0, 10.0), "epsilon": (0.1,), "kernel": ("rbf",), "gamma": (0.11,)},
    ),
    # Linear reads no kernel field, so its 16 combinations share one fit;
    # rbf at gamma 0.0 fails alone; int 1 and float 1.0 never share a fit.
    "mixed_kernels": (
        "svr",
        {
            "kernel": ("linear", "polynomial", "rbf", "sigmoid"),
            "gamma": (0.0, 0.5, 1, 1.0),
            "coef0": (0.0, -0.0),
            "degree": (2, 3),
            "max_passes": (50,),
        },
    ),
    # Each path solves its C values in ascending order, whatever the axis
    # order: C = 200 is listed first.
    "svr_c_unsorted": (
        "svr",
        {"C": (200.0, 1.0, 39.0), "epsilon": (0.1,), "kernel": ("rbf", "sigmoid"), "gamma": (0.11,)},
    ),
    # The linear kernel hits the 300-step SMO cap at C 39 and 200.
    "svr_cap_hits": (
        "svr",
        {"C": (1.0, 39.0, 200.0), "epsilon": (0.01, 0.1), "kernel": ("linear",), "max_passes": (300,)},
    ),
    # 39 and 39.0 are one stage, listed apart and out of order. rbf reads
    # neither degree nor coef0, so its 8 combinations are one path; degree
    # 400 overflows the Gram matrix and fails its whole path.
    "svr_c_repeated": (
        "svr",
        {
            "C": (39, 3.0, 39.0, 1.0),
            "kernel": ("polynomial", "rbf"),
            "degree": (400, 2),
            "gamma": (0.5,),
            "coef0": (1.0,),
        },
    ),
    # Degree 400 overflows the Gram matrix: a failed fit, listed first.
    "nan_score_first": (
        "svr",
        {
            "kernel": ("polynomial",),
            "degree": (400, 2),
            "gamma": (10.0,),
            "coef0": (1.0,),
            "C": (1.0,),
            "max_passes": (50,),
        },
    ),
}


class TestSharedFitsMatchUnshared:
    # nan_score_first, mixed_kernels and svr_cap_hits hit the SMO cap. At 10
    # folds a score layout that sums folds or rows in another order than a
    # 1-D array changes last bits; at 5 it does not.
    @pytest.mark.filterwarnings("ignore::pervml.svr.SvrConvergenceWarning")
    @pytest.mark.parametrize(
        "name, k",
        [(name, k) for k in (5, 10) for name in ORACLE_GRIDS],
        ids=[name if k == 5 else f"{name}-k{k}" for k in (5, 10) for name in ORACLE_GRIDS],
    )
    def test_results_identical(self, train_slices, name, k):
        family, axes = ORACLE_GRIDS[name]
        grid = HyperGrid(family=family, axes=axes)
        train = train_slices["compressive"]
        _, results = grid_search(train, grid, k=k, seed=42)
        expected = unshared_grid_search(train, grid, k=k, seed=42)
        assert len(results) == len(expected) == grid.n_combinations
        for got, want in zip(results, expected):
            assert got.combination == want.combination
            assert repr(got.fold_mse) == repr(want.fold_mse)  # NaN equals NaN
            assert repr(got.mean_mse) == repr(want.mean_mse)
            assert got.rank == want.rank
            assert got.error == want.error

    def test_one_gbrt_fit_per_group_and_fold(self, train_slices, monkeypatch):
        grid = HyperGrid(
            family="gbrt",
            axes={"n_estimators": (18, 25, 6, 10), "eta": (0.3, 0.95), "max_depth": (2,)},
        )
        calls = count_fits(monkeypatch, gbrt)
        grid_search(train_slices["density"], grid, k=5, seed=42)
        assert calls[0] == 2 * 5  # not 8 combinations x 5 folds

    # mixed_kernels hits the SMO cap at max_passes 50.
    @pytest.mark.filterwarnings("ignore::pervml.svr.SvrConvergenceWarning")
    @pytest.mark.parametrize(
        "axes, fit_keys",
        [
            # linear ignores gamma, and C is the stage: 1 + 2 paths, not 8
            # combinations
            ({"kernel": ("linear", "rbf"), "gamma": (0.1, 0.5), "C": (1.0, 10.0)}, 1 + 2),
            # linear 1; polynomial 4 gammas x 2 coef0 x 2 degrees; rbf 3 (gamma
            # 0.0 fails before fitting); sigmoid 4 gammas x 2 coef0
            (ORACLE_GRIDS["mixed_kernels"][1], 1 + 16 + 3 + 8),
        ],
        ids=["linear_rbf", "mixed_kernels"],
    )
    def test_one_svr_fit_per_fit_key_and_fold(self, train_slices, monkeypatch, axes, fit_keys):
        # A fit key's fit is its C path, which builds one training Gram matrix.
        builds = [0]
        gram = svr.gram_matrix

        def counting_gram(params, X1, X2):
            builds[0] += X1 is X2
            return gram(params, X1, X2)

        monkeypatch.setattr(svr, "gram_matrix", counting_gram)
        grid_search(train_slices["density"], HyperGrid(family="svr", axes=axes), k=5, seed=42)
        assert builds[0] == fit_keys * 5


class TestNonFiniteRanking:
    # Degree 2 hits the SMO cap at max_passes 50.
    @pytest.mark.filterwarnings("ignore::pervml.svr.SvrConvergenceWarning")
    def test_nan_score_ranks_after_finite(self, train_slices):
        family, axes = ORACLE_GRIDS["nan_score_first"]
        best, results = grid_search(
            train_slices["compressive"], HyperGrid(family=family, axes=axes), k=5, seed=42
        )
        assert results[0].error == (
            "ValueError: polynomial kernel matrix is not finite (overflow)"
        )
        assert results[0].mean_mse == math.inf
        assert [r.rank for r in results] == [2, 1]
        assert best["degree"] == 2

    def test_nan_mean_ranks_after_finite(self, train_slices, monkeypatch):
        real_stage_predictions = svr.stage_predictions
        calls = []

        def first_prediction_nan(X, y, members, X_new):
            predictions = real_stage_predictions(X, y, members, X_new)
            calls.append(None)
            if len(calls) == 1:
                predictions[0, 0] = math.nan
            return predictions

        monkeypatch.setattr(svr, "stage_predictions", first_prediction_nan)
        grid = HyperGrid(family="svr", axes={"C": (1.0, 10.0), "gamma": (0.11,)})
        best, results = grid_search(train_slices["compressive"], grid, k=5, seed=42)
        assert math.isnan(results[0].mean_mse)
        assert results[0].error is None
        assert math.isfinite(results[1].mean_mse)
        assert [r.rank for r in results] == [2, 1]
        assert best["C"] == 10.0

    def test_nan_param_fails_and_ranks_last(self, train_slices):
        grid = HyperGrid(family="svr", axes={"C": (math.nan, 10.0)})
        best, results = grid_search(train_slices["compressive"], grid, k=5, seed=42)
        assert results[0].error == "ValueError: C must be finite, got nan"
        assert results[0].mean_mse == math.inf
        assert [r.rank for r in results] == [2, 1]
        assert best == {"C": 10.0}

    def test_every_combination_failing_raises(self, train_slices):
        # Degree 400 overflows the Gram matrix, failing both C values' path.
        grid = HyperGrid(
            family="svr",
            axes={"C": (1.0, 10.0), "kernel": ("polynomial",), "degree": (400,), "gamma": (10.0,)},
        )
        with pytest.raises(RuntimeError, match="every grid combination failed") as failed:
            grid_search(train_slices["compressive"], grid, k=5, seed=42)
        assert "polynomial kernel matrix is not finite" in str(failed.value)


class TestRefit:
    def test_deterministic_model_file(self, train_slices, tmp_path):
        combo = {"n_estimators": 6, "max_depth": 3, "subsample": 0.7, "seed": 11}
        a = refit_best(train_slices["density"], "gbrt", combo)
        b = refit_best(train_slices["density"], "gbrt", combo)
        gbrt.save_model(a, tmp_path / "a.json")
        gbrt.save_model(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_svr_refit(self, train_slices):
        combo = {"C": 39.0, "gamma": 0.11, "epsilon": 0.1, "kernel": "rbf"}
        model = refit_best(train_slices["tensile"], "svr", combo)
        assert model.converged


class TestConfigFiles:
    def test_grid_file_round_trip(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text(
            "[gbrt]\nn_estimators = 5, 10\neta = 0.1, 0.3\n\n"
            "[svr]\nC = 1, 10\nkernel = rbf, linear\n"
        )
        grids = read_grid_file(path)
        assert grids["gbrt"].axes["n_estimators"] == (5, 10)
        assert grids["gbrt"].axes["eta"] == (0.1, 0.3)
        assert grids["svr"].axes["C"] == (1.0, 10.0)  # case must survive parsing
        assert grids["svr"].axes["kernel"] == ("rbf", "linear")

    def test_grid_file_bad_section(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text("[forest]\nn = 1\n")
        with pytest.raises(ValueError, match="forest"):
            read_grid_file(path)

    def test_params_file(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("# reference compressive setting\nn_estimators = 18\neta = 0.95\n")
        combo = read_params_file(path, "gbrt")
        assert combo == {"n_estimators": 18, "eta": 0.95}
        params = make_params("gbrt", combo, seed=3)
        assert params.n_estimators == 18
        assert params.seed == 3

    def test_values_take_the_declared_types(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("kernel = linear\ndegree = 2\nC = 3\nmax_passes = 70\n")
        combo = read_params_file(path, "svr")
        assert combo == {"kernel": "linear", "degree": 2, "C": 3.0, "max_passes": 70}
        assert [type(v) for v in combo.values()] == [str, int, float, int]

    def test_params_file_unknown_key(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("C = 1\nseed = 1\n")
        with pytest.raises(ValueError, match=r"line 2: unknown svr parameter 'seed'.*max_passes"):
            read_params_file(path, "svr")

    def test_grid_file_unknown_axis(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text("[gbrt]\neta = 0.3\nlearning_rate = 0.1, 0.3\n")
        with pytest.raises(ValueError, match=r"axis 'learning_rate': unknown gbrt parameter"):
            read_grid_file(path)

    def test_params_file_bad_line(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("n_estimators 18\n")
        with pytest.raises(ValueError, match="key = value"):
            read_params_file(path, "gbrt")
