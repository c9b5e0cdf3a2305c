import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pervml.data import (
    ALL_COLUMNS,
    CSV_HEADER,
    Dataset,
    DatasetError,
    MixtureRecord,
    Scaler,
    bundled_path,
    describe,
    fit_scaler,
    load_csv,
    reference_split,
    split,
)

# Published summary table, columns in ALL_COLUMNS order:
# (mean, std, min, q25, q50, q75, max), all checked to +/- 0.001.
SUMMARY_TABLE = {
    "aggregate_size": (14.313, 5.526, 4.5, 9.5, 12.5, 22.0, 22.0),
    "cement": (200.0, 36.116, 150.0, 187.5, 200.0, 212.5, 250.0),
    "w_c": (0.35, 0.026, 0.3, 0.35, 0.35, 0.35, 0.4),
    "aggregate": (1625.0, 111.316, 1500.0, 1575.0, 1600.0, 1650.0, 1800.0),
    "density": (1716.023, 61.29, 1637.62, 1675.138, 1702.675, 1756.463, 1874.94),
    "compressive": (3.0375, 1.55, 1.06, 1.82, 2.625, 3.61, 6.95),
    "tensile": (0.565, 0.289, 0.2, 0.355, 0.48, 0.705, 1.32),
    "porosity": (36.75, 2.893, 30.0, 35.0, 38.0, 38.25, 42.0),
}


def _write_csv(path, rows, header=",".join(CSV_HEADER)):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


GOOD_ROW = "C1,4.5,200,0.35,1600,1780.31,2.21,0.36,35"


class TestLoadCsv:
    def test_bundled_shape(self, bundled):
        assert len(bundled) == 24
        first = bundled.records[0]
        assert first.id == "C1"
        assert first.density == 1780.31

    def test_header_only_is_empty(self, tmp_path):
        path = _write_csv(tmp_path / "empty.csv", [])
        with pytest.raises(DatasetError, match="empty dataset"):
            load_csv(path)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        bad = GOOD_ROW.replace("200", "abc")
        path = _write_csv(tmp_path / "bad.csv", [bad])
        with pytest.raises(DatasetError, match=r"row 2.*cement_kg.*'abc'"):
            load_csv(path)

    def test_duplicate_id_names_rows(self, tmp_path):
        path = _write_csv(tmp_path / "dup.csv", [GOOD_ROW, GOOD_ROW])
        with pytest.raises(DatasetError, match=r"row 3: duplicate id 'C1'"):
            load_csv(path)

    def test_missing_column_reported(self, tmp_path):
        header = ",".join(CSV_HEADER[:-1])
        path = _write_csv(tmp_path / "short.csv", [], header=header)
        with pytest.raises(DatasetError, match="porosity_pct"):
            load_csv(path)

    def test_order_preserved(self, bundled):
        assert bundled.ids[:3] == ("C1", "C2", "C3")
        assert bundled.ids[-1] == "C24"

    def test_byte_order_mark_is_skipped(self, bundled, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + open(bundled_path(), "rb").read())
        ds = load_csv(path)
        assert ds.ids == bundled.ids
        assert describe(ds) == describe(bundled)

    def test_blank_and_whitespace_rows_are_skipped(self, bundled, tmp_path):
        with open(bundled_path(), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[5:5] = ["", " \t "]
        path = tmp_path / "gaps.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_csv(path)
        assert ds.ids == bundled.ids and len(ds) == 24
        assert describe(ds) == describe(bundled)

    def test_nonpositive_value_rejected(self, tmp_path):
        bad = GOOD_ROW.replace("2.21", "-2.21")
        path = _write_csv(tmp_path / "neg.csv", [bad])
        with pytest.raises(DatasetError, match="positive"):
            load_csv(path)


class TestDescribe:
    @pytest.mark.parametrize("column", ALL_COLUMNS)
    def test_matches_published_summary(self, bundled, column):
        s = describe(bundled)[column]
        assert s.count == 24
        got = (s.mean, s.std, s.minimum, s.q25, s.q50, s.q75, s.maximum)
        for value, expected in zip(got, SUMMARY_TABLE[column]):
            assert value == pytest.approx(expected, abs=1e-3)

    def test_quartiles_ordered(self, bundled):
        for s in describe(bundled).values():
            assert s.minimum <= s.q25 <= s.q50 <= s.q75 <= s.maximum

    def test_single_record_flags_constant(self, bundled):
        one = Dataset(bundled.records[:1])
        stats = describe(one)
        for s in stats.values():
            assert s.constant
            assert s.std == 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            describe(Dataset(()))


class TestScaler:
    def test_cement_range(self, full_scaler):
        assert full_scaler.column_range("cement") == (150.0, 250.0)

    def test_porosity_range(self, full_scaler):
        assert full_scaler.column_range("porosity") == (30.0, 42.0)

    def test_midpoint(self, full_scaler):
        assert full_scaler.transform("cement", 200.0) == pytest.approx(0.5)

    def test_boundaries(self, full_scaler):
        assert full_scaler.transform("cement", 150.0) == 0.0
        assert full_scaler.transform("cement", 250.0) == 1.0

    def test_out_of_range_extrapolates(self, full_scaler):
        assert full_scaler.transform("cement", 300.0) == pytest.approx(1.5)
        assert full_scaler.transform("cement", 100.0) == pytest.approx(-0.5)

    def test_round_trip_on_bundled_columns(self, bundled, full_scaler):
        for column in ALL_COLUMNS:
            values = bundled.column(column)
            back = full_scaler.inverse_transform(
                column, full_scaler.transform(column, values)
            )
            np.testing.assert_allclose(back, values, rtol=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip_any_value(self, value):
        ds = Dataset(
            (
                MixtureRecord("A", 1, 150, 0.3, 1500, 1600, 1, 0.2, 30),
                MixtureRecord("B", 30, 250, 0.4, 1800, 1900, 7, 1.4, 42),
            )
        )
        scaler = fit_scaler(ds)
        back = scaler.inverse_transform("cement", scaler.transform("cement", value))
        assert back == pytest.approx(value, rel=1e-12)

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(
            (
                MixtureRecord("A", 5, 200, 0.35, 1600, 1700, 2, 0.3, 35),
                MixtureRecord("B", 9, 200, 0.35, 1650, 1800, 3, 0.4, 36),
            )
        )
        scaler = fit_scaler(ds)
        assert scaler.column_range("cement") == (200.0, 200.0)
        assert scaler.transform("cement", 200.0) == 0.0
        assert scaler.inverse_transform("cement", 0.0) == 200.0


class TestSplit:
    def test_reference_preset_sizes(self, bundled, train_test):
        train, test = train_test
        assert len(train) == 19
        assert len(test) == 5
        assert set(test.ids) == {"C11", "C12", "C15", "C21", "C23"}

    def test_partition_preserves_multiset(self, bundled, train_test):
        train, test = train_test
        assert sorted(train.ids + test.ids) == sorted(bundled.ids)
        assert not set(train.ids) & set(test.ids)

    def test_unknown_id_rejected(self, bundled):
        with pytest.raises(DatasetError, match="C99"):
            split(bundled, frozenset({"C99"}))

    def test_empty_test_side_warns(self, bundled):
        with pytest.warns(UserWarning, match="empty test"):
            train, test = split(bundled, frozenset())
        assert len(train) == 24
        assert len(test) == 0

    def test_empty_train_side_rejected(self, bundled):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="split leaves no training mixtures"):
                split(bundled, frozenset(bundled.ids))

    def test_order_stable(self, bundled, train_test):
        train, _ = train_test
        positions = {mid: i for i, mid in enumerate(bundled.ids)}
        assert [positions[mid] for mid in train.ids] == sorted(
            positions[mid] for mid in train.ids
        )


class TestDatasetErrors:
    def test_duplicate_id(self, bundled):
        with pytest.raises(DatasetError, match="duplicate mixture id 'C1'"):
            Dataset(bundled.records[:2] + bundled.records[:1])

    def test_unknown_column(self, bundled):
        with pytest.raises(DatasetError, match="unknown column 'slump'"):
            bundled.column("slump")

    def test_unfitted_scaler_column(self, full_scaler):
        scaler = Scaler({"cement": full_scaler.column_range("cement")})
        with pytest.raises(DatasetError, match="scaler was not fitted on column 'w_c'"):
            scaler.transform("w_c", 0.35)

    def test_scaler_on_empty_dataset(self):
        with pytest.raises(DatasetError, match="cannot fit scaler on an empty dataset"):
            fit_scaler(Dataset(()))


class TestRecordValidation:
    def test_porosity_bounds(self):
        with pytest.raises(DatasetError, match="porosity"):
            MixtureRecord("X", 5, 200, 0.35, 1600, 1700, 2, 0.3, 105)

    def test_w_c_bounds(self):
        with pytest.raises(DatasetError, match="w_c"):
            MixtureRecord("X", 5, 200, 1.35, 1600, 1700, 2, 0.3, 35)

    def test_nan_rejected(self):
        with pytest.raises(DatasetError, match="finite"):
            MixtureRecord("X", math.nan, 200, 0.35, 1600, 1700, 2, 0.3, 35)
