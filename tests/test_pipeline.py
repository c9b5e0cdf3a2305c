import numpy as np
import pytest

from pervml.data import (
    FEATURE_COLUMNS,
    TARGET_COLUMNS,
    Dataset,
    DatasetError,
    MixtureRecord,
    split,
)
from pervml import pipeline
from pervml.pipeline import (
    deviation,
    load_reference,
    reproduce,
    resolve_split,
    run_model,
    slices,
)
from pervml.svr import SvrParams
from pervml.tuning import make_params


class TestResolveSplit:
    def test_published_preset(self, bundled):
        test_ids = resolve_split(bundled, "paper")
        assert test_ids == frozenset({"C11", "C12", "C15", "C21", "C23"})

    def test_random_split_is_seeded_80_20(self, bundled):
        a = resolve_split(bundled, "random:3")
        b = resolve_split(bundled, "random:3")
        c = resolve_split(bundled, "random:4")
        assert a == b
        assert a != c
        assert a == {"C1", "C13", "C14", "C16", "C24"}

    def test_ids_file(self, bundled, tmp_path):
        path = tmp_path / "test_ids.txt"
        path.write_text("# held-out mixtures\nC1\nC2\n")
        test_ids = resolve_split(bundled, f"ids:{path}")
        assert test_ids == frozenset({"C1", "C2"})
        train, test = split(bundled, test_ids)
        assert len(train) == 22 and len(test) == 2

    def test_ids_file_indented_comment(self, bundled, tmp_path):
        path = tmp_path / "test_ids.txt"
        path.write_text("  # note\nC1\n\t# another\n")
        assert resolve_split(bundled, f"ids:{path}") == frozenset({"C1"})

    def test_ids_file_with_byte_order_mark(self, bundled, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("C11\nC12\n", encoding="utf-8")
        bom = tmp_path / "bom.txt"
        bom.write_text("C11\nC12\n", encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        test_ids = resolve_split(bundled, f"ids:{bom}")
        assert test_ids == resolve_split(bundled, f"ids:{plain}")
        assert test_ids == frozenset({"C11", "C12"})

    def test_unknown_spec_rejected(self, bundled):
        with pytest.raises(DatasetError, match="unknown split"):
            resolve_split(bundled, "everything")

    def test_bad_random_seed_rejected(self, bundled):
        for spec_text in ("random:abc", "random:-1"):
            with pytest.raises(DatasetError, match=f"bad random split seed in '{spec_text}'"):
                resolve_split(bundled, spec_text)


class TestScalerModes:
    def test_modes_coincide_on_reference_split(self, bundled, ref_split):
        # Every column extreme of the bundled table sits in a training row,
        # so full-table and train-only normalization agree here.
        full, _, _ = slices(bundled, "density", ref_split, "full")
        train_only, _, _ = slices(bundled, "density", ref_split, "train")
        for column in FEATURE_COLUMNS + TARGET_COLUMNS:
            assert full.column_range(column) == train_only.column_range(column)

    def test_modes_differ_when_extreme_is_held_out(self):
        records = tuple(
            MixtureRecord(f"M{i}", 5 + i, 150 + 10 * i, 0.35, 1600, 1700 + i, 2, 0.3, 35)
            for i in range(6)
        )
        ds = Dataset(records)
        test_ids = frozenset({records[-1].id})
        full, _, _ = slices(ds, "density", test_ids, "full")
        train_only, _, _ = slices(ds, "density", test_ids, "train")
        assert full.column_range("cement") == (150.0, 200.0)
        assert train_only.column_range("cement") == (150.0, 190.0)

    def test_unknown_mode_rejected(self, bundled, ref_split):
        with pytest.raises(DatasetError, match="scaler mode"):
            slices(bundled, "density", ref_split, "minmax")


class TestRunModel:
    def test_svr_run_structure(self, bundled, ref_split):
        params = SvrParams(C=3.0, epsilon=0.1, gamma=0.02)
        run = run_model(bundled, "compressive", "svr", params, ref_split)
        assert run.train_report.n == 19
        assert run.test_report.n == 5
        assert len(run.rows) == 24
        assert [r[0] for r in run.rows] == list(bundled.ids)
        phases = {r[0]: r[3] for r in run.rows}
        assert phases["C11"] == "test" and phases["C1"] == "train"

    def test_given_model_is_not_refit(self, bundled, ref_split):
        params = SvrParams(C=3.0, epsilon=0.1, gamma=0.02)
        first = run_model(bundled, "compressive", "svr", params, ref_split)
        again = run_model(
            bundled, "compressive", "svr", None, ref_split, model=first.model
        )
        assert again.model is first.model
        assert again.test_report.rmse == first.test_report.rmse

    def test_empty_test_side(self, bundled):
        with pytest.warns(UserWarning, match="empty test side"):
            _, train, test = slices(bundled, "tensile", frozenset(), "train")
        assert test is None
        assert train.ids == bundled.ids
        with pytest.warns(UserWarning, match="empty test side"):
            run = run_model(bundled, "tensile", "svr", SvrParams(), frozenset(), "train")
        assert run.test_report is None
        assert {r[3] for r in run.rows} == {"train"}

    def test_unknown_target_rejected(self, bundled, ref_split):
        with pytest.raises(DatasetError, match="target"):
            run_model(bundled, "hardness", "svr", SvrParams(), ref_split)


class TestReference:
    def test_settings_build_valid_params(self):
        ref = load_reference()
        for family in ("gbrt", "svr"):
            for target, setting in ref["settings"][family].items():
                params = make_params(family, dict(setting), seed=1)
                assert params is not None

    def test_results_cover_all_models(self):
        ref = load_reference()
        for family in ("gbrt", "svr"):
            assert set(ref["results"][family]) == {
                "density",
                "compressive",
                "tensile",
                "porosity",
            }
            for target in ref["results"][family]:
                for phase in ("train", "test"):
                    metrics = ref["results"][family][target][phase]
                    assert set(metrics) == {"r2", "rmse", "mae", "mape"}


class TestReproReport:
    def test_eight_rows_and_deviations(self, repro_report):
        assert len(repro_report.runs) == 8
        for (family, target), run in repro_report.runs.items():
            ref = repro_report.reference[family][target]["test"]["rmse"]
            dev_abs, dev_rel = deviation(run.test_report.rmse, ref)
            assert np.isfinite(dev_abs) and np.isfinite(dev_rel)
            assert dev_abs == run.test_report.rmse - ref
        assert all(np.isnan(deviation(None, 1.0)))

    def test_default_config_passes_bands(self, repro_report):
        assert repro_report.passed
        assert repro_report.band_failures == []

    def test_reference_file_parsed_once(self, bundled, monkeypatch):
        parses = []

        def counted_load_reference():
            parses.append(1)
            return load_reference()

        monkeypatch.setattr(pipeline, "load_reference", counted_load_reference)
        reproduce(bundled)
        assert len(parses) == 1
