import csv
from dataclasses import replace

import numpy as np
import pytest

from pervml.analysis import (
    ImportanceReport,
    UndefinedCorrelationError,
    importance,
    pearson,
    sensitivity_table,
)
from pervml.data import FEATURE_COLUMNS, Dataset
from pervml.gbrt import GbrtParams, Tree, TreeEnsemble, fit
from pervml.pipeline import write_sensitivity_csv

from test_gbrt import ensemble_of, leaf_tree


class TestPearson:
    def test_positive_affine(self):
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)

    def test_negative_affine(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_affine_invariance_and_sign_flip(self, rng):
        for _ in range(25):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            r = pearson(x, y)
            assert pearson(2.5 * x + 1, y) == pytest.approx(r, abs=1e-12)
            assert pearson(-3.0 * x, y) == pytest.approx(-r, abs=1e-12)

    def test_bounded(self, rng):
        for _ in range(25):
            r = pearson(rng.normal(size=6), rng.normal(size=6))
            assert -1.0 <= r <= 1.0

    def test_constant_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_cement_compressive_positive(self, bundled):
        r = pearson(bundled.column("cement"), bundled.column("compressive"))
        assert r > 0


class TestSensitivityTable:
    def test_published_sign_pattern(self, bundled):
        table = sensitivity_table(bundled)
        # cement and w_c correlate positively with density, compressive, tensile
        for output in ("density", "compressive", "tensile"):
            assert table.value("cement", output) > 0
            assert table.value("w_c", output) > 0
        # only the coarse aggregate mass correlates positively with porosity
        assert table.value("aggregate", "porosity") > 0
        for feature in ("aggregate_size", "cement", "w_c"):
            assert table.value(feature, "porosity") < 0
        # both aggregate size and mass correlate negatively with density
        assert table.value("aggregate_size", "density") < 0
        assert table.value("aggregate", "density") < 0

    def test_entries_bounded(self, bundled):
        table = sensitivity_table(bundled)
        assert np.all(table.values >= -1.0)
        assert np.all(table.values <= 1.0)

    def test_duplication_invariance(self, bundled):
        doubled = Dataset(
            bundled.records
            + tuple(
                type(rec)(**{**rec.__dict__, "id": rec.id + "b"})
                for rec in bundled.records
            )
        )
        a = sensitivity_table(bundled)
        b = sensitivity_table(doubled)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_constant_column_is_nan_and_written(self, bundled, tmp_path):
        ds = Dataset(tuple(replace(rec, cement=200.0) for rec in bundled.records))
        table = sensitivity_table(ds)
        cement = FEATURE_COLUMNS.index("cement")
        assert np.isnan(table.values[cement]).all()
        assert np.isfinite(np.delete(table.values, cement, axis=0)).all()
        path = tmp_path / "sensitivity.csv"
        write_sensitivity_csv(path, table)
        with open(path, newline="") as fh:
            rows = {row[0]: row[1:] for row in csv.reader(fh)}
        assert rows["cement"] == ["nan"] * 4
        assert "nan" not in rows["w_c"]

    def test_too_small_rejected(self, bundled):
        with pytest.raises(ValueError, match="at least 2"):
            sensitivity_table(Dataset(bundled.records[:1]))


def stump_ensemble() -> TreeEnsemble:
    """One stump splitting on feature 2 with gain 0.25 over 2 samples."""
    stump = Tree(
        feature=[2, -1, -1],
        threshold=[0.5, 0.0, 0.0],
        gain=[0.25, 0.0, 0.0],
        cover=[2.0, 0.0, 0.0],
        value=[0.0, -0.5, 0.5],
        right=[2, -1, -1],
    )
    return ensemble_of([stump], feature_names=("a", "b", "c", "d"))


class TestImportance:
    def test_single_stump(self):
        report = importance(stump_ensemble())
        np.testing.assert_array_equal(report.weight, [0, 0, 1, 0])
        np.testing.assert_array_equal(report.gain, [0, 0, 0.25, 0])
        np.testing.assert_array_equal(report.cover, [0, 0, 2.0, 0])
        assert report.rank_gain[2] == 1
        assert report.rank_weight[2] == 1
        assert report.rank_cover[2] == 1
        assert report.mean_rank[2] == 1.0
        assert not report.degenerate
        assert report.best_feature_by_mean_rank() == "c"

    def test_unused_features_rank_last_by_index(self):
        report = importance(stump_ensemble())
        # unused features a, b, d tie at score 0 and rank by index
        assert report.rank_gain[0] == 2
        assert report.rank_gain[1] == 3
        assert report.rank_gain[3] == 4

    def test_zero_split_ensemble_degenerate(self):
        report = importance(ensemble_of([leaf_tree(0.1)], feature_names=("a", "b")))
        assert report.degenerate
        np.testing.assert_array_equal(report.gain, [0, 0])
        np.testing.assert_array_equal(report.weight, [0, 0])

    def test_ranks_are_permutations(self, train_slices):
        train = train_slices["compressive"]
        model = fit(
            train.X,
            train.y,
            GbrtParams(n_estimators=12, max_depth=4, seed=2),
            feature_names=FEATURE_COLUMNS,
        )
        report = importance(model)
        d = len(report.features)
        for ranks in (report.rank_gain, report.rank_weight, report.rank_cover):
            assert sorted(ranks) == list(range(1, d + 1))
        assert np.all(report.mean_rank >= 1.0)
        assert np.all(report.mean_rank <= d)

    def test_weight_totals_equal_internal_nodes(self, train_slices):
        train = train_slices["porosity"]
        model = fit(
            train.X,
            train.y,
            GbrtParams(n_estimators=9, max_depth=3, seed=4),
            feature_names=FEATURE_COLUMNS,
        )
        total = sum(f >= 0 for tree in model.trees for f in tree.feature)
        report = importance(model)
        assert report.weight.sum() == total
