"""Acceptance suite: one test per shipped acceptance criterion.

Each test prints a PASS line on success (run with -s or -rA to see them);
a failing criterion shows up as an ordinary pytest failure.
"""

import filecmp
import math

import numpy as np
import pytest

from pervml import cli, gbrt, svr
from pervml.analysis import sensitivity_table
from pervml.data import (
    ALL_COLUMNS,
    MixtureRecord,
    describe,
    fit_scaler,
    reference_split,
    split,
)
from pervml.gbrt import GbrtParams, build_tree, presort
from pervml.metrics import mae, mape, r_squared, rmse
from pervml.pipeline import load_reference
from pervml.svr import SvrParams, kkt_violation
from pervml.tuning import HyperGrid, grid_search, refit_best, target_slice

from test_data import SUMMARY_TABLE
from test_gbrt import enumerate_best_split, random_split_case, stump_params
from test_metrics import oracle_mae, oracle_mape, oracle_r2, oracle_rmse

TARGETS = ("density", "compressive", "tensile", "porosity")


def _pass(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_descriptive_statistics(bundled, capsys):
    stats = describe(bundled)
    for column in ALL_COLUMNS:
        s = stats[column]
        assert s.count == 24
        got = (s.mean, s.std, s.minimum, s.q25, s.q50, s.q75, s.maximum)
        for value, expected in zip(got, SUMMARY_TABLE[column]):
            assert abs(value - expected) <= 1e-3, (column, value, expected)
    # and the CLI surface reports the same numbers
    assert cli.run(["stats"]) == 0
    out = capsys.readouterr().out
    cement = [line for line in out.splitlines() if line.startswith("cement")][0].split()
    assert abs(float(cement[2]) - 200.0) <= 1e-3
    assert abs(float(cement[3]) - 36.116) <= 1e-3
    _pass(1, "descriptive statistics within 0.001 of the published table")


def test_02_metric_oracle(rng):
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-12)
    assert mae([1.0, 3.0], [2.0, 5.0]) == pytest.approx(1.5, rel=1e-12)
    assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(0.1, rel=1e-12)
    for _ in range(100):
        n = int(rng.integers(2, 50))
        y = rng.normal(size=n) * rng.uniform(0.1, 30) + rng.normal()
        p = rng.normal(size=n) * rng.uniform(0.1, 30) + rng.normal()
        assert rmse(y, p) == pytest.approx(oracle_rmse(y, p), rel=1e-10)
        assert mae(y, p) == pytest.approx(oracle_mae(y, p), rel=1e-10)
        assert mape(y, p) == pytest.approx(oracle_mape(y, p), rel=1e-10)
        assert r_squared(y, p) == pytest.approx(oracle_r2(y, p), rel=1e-10)
    _pass(2, "metrics agree with the straight-from-formula oracle")


def test_03_split_finder_oracle(rng):
    splits_seen = 0
    for _ in range(200):
        X, g, params = random_split_case(rng)
        t, _ = build_tree(*presort(X), range(len(X)), g.tolist(), params)
        expected = enumerate_best_split(X, g, params)
        if expected is None:
            assert t.feature == [-1]
            continue
        gain, feature, threshold = expected
        assert (t.feature[0], t.threshold[0], t.gain[0]) == (feature, threshold, gain)
        splits_seen += 1
    assert splits_seen > 50
    _pass(3, f"greedy split equals exhaustive enumeration ({splits_seen} splits, exact)")


def test_04_stump_closed_forms():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = gbrt.fit(X, y, stump_params(eta=1.0))
    np.testing.assert_array_equal(model.predict(X), [0.0, 1.0])
    model = gbrt.fit(X, y, stump_params(eta=0.5))
    np.testing.assert_array_equal(model.predict(X), [0.25, 0.75])
    model = gbrt.fit(X, y, stump_params(gamma=0.3))
    assert model.trees[0].feature == [-1]
    np.testing.assert_array_equal(model.predict(X), [0.5, 0.5])
    _pass(4, "stump closed forms hold exactly")


def test_05_headline_rmse_comparison(repro_report):
    wins = sum(
        1
        for target in TARGETS
        if repro_report.runs[("gbrt", target)].test_report.rmse
        < repro_report.runs[("svr", target)].test_report.rmse
    )
    assert wins >= 3
    _pass(5, f"boosted trees beat svr on test RMSE for {wins}/4 targets")


def test_06_magnitude_bands(repro_report):
    ref = load_reference()["results"]
    for target in TARGETS:
        got = repro_report.runs[("gbrt", target)].test_report.rmse
        limit = 2.0 * ref["gbrt"][target]["test"]["rmse"]
        assert got <= limit, (target, got, limit)
    for target in ("compressive", "tensile", "porosity"):
        r2 = repro_report.runs[("gbrt", target)].train_report.r2
        assert r2 is not None and r2 >= 0.90, (target, r2)
    _pass(6, "test RMSE within 2x reference and train R2 >= 0.90 where required")


def test_07_importance_claim(repro_report):
    mean_rank_wins = sum(
        1
        for target in TARGETS
        if repro_report.importances[target].best_feature_by_mean_rank() == "cement"
    )
    gain_rank1_wins = sum(
        1 for target in TARGETS if repro_report.importances[target].rank_gain[1] == 1
    )
    assert mean_rank_wins >= 3
    assert gain_rank1_wins >= 3
    _pass(
        7,
        f"cement: best mean rank {mean_rank_wins}/4, gain rank 1 {gain_rank1_wins}/4",
    )


def test_08_sensitivity_signs(bundled):
    table = sensitivity_table(bundled)
    for output in ("density", "compressive", "tensile"):
        assert table.value("cement", output) > 0
        assert table.value("w_c", output) > 0
    assert table.value("aggregate", "porosity") > 0
    for feature in ("aggregate_size", "cement", "w_c"):
        assert table.value(feature, "porosity") < 0
    assert table.value("aggregate_size", "density") < 0
    assert table.value("aggregate", "density") < 0
    _pass(8, "sensitivity signs match the published description")


def test_09_svr_correctness(train_slices):
    settings = load_reference()["settings"]["svr"]
    for target in TARGETS:
        setting = settings[target]
        params = SvrParams(
            C=setting["C"],
            epsilon=setting["epsilon"],
            gamma=setting["gamma"],
            kernel=setting["kernel"],
        )
        train = train_slices[target]
        model = svr.fit(train.X, train.y, params)
        assert model.converged
        assert kkt_violation(model, train.X, train.y) <= params.tol, target
        assert abs(model.dual_coefs.sum()) <= 1e-8

    X = np.linspace(0, 1, 8).reshape(-1, 1)
    constant = svr.fit(X, np.full(8, 0.3), SvrParams(epsilon=0.1))
    assert constant.dual_coefs.size == 0
    assert constant.bias == pytest.approx(0.3)
    np.testing.assert_allclose(constant.predict(X), 0.3)

    tube = svr.fit(
        np.array([[0.0], [1.0]]),
        np.array([0.0, 1.0]),
        SvrParams(C=10.0, epsilon=0.5, kernel="linear"),
    )
    np.testing.assert_allclose(tube.predict(np.array([[0.0], [0.7], [1.0]])), 0.5)
    _pass(9, "svr KKT, dual-sum, constant-target and flat-tube checks hold")


def test_10_determinism_and_persistence(tmp_path, train_slices, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(["reproduce", "--out", str(out_a)]) == 0
    assert cli.run(["reproduce", "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert not mismatch and not errors

    train = train_slices["compressive"]
    tree_model = gbrt.fit(train.X, train.y, GbrtParams(n_estimators=12, seed=9))
    gbrt.save_model(tree_model, tmp_path / "tree.json")
    reloaded = gbrt.load_model(tmp_path / "tree.json")
    drift = np.abs(reloaded.predict(train.X) - tree_model.predict(train.X)).max()
    assert drift <= 1e-12

    svr_model = svr.fit(train.X, train.y, SvrParams(C=3.0, epsilon=0.1, gamma=0.02))
    svr.save_model(svr_model, tmp_path / "svr.json")
    reloaded = svr.load_model(tmp_path / "svr.json")
    drift = np.abs(reloaded.predict(train.X) - svr_model.predict(train.X)).max()
    assert drift <= 1e-12
    _pass(10, "byte-identical reruns; save/load drift within 1e-12")


class CountingRecord(MixtureRecord):
    """Counts reads of numeric fields, keyed by mixture id."""

    reads: dict = {}

    def __getattribute__(self, name):
        if name in ALL_COLUMNS:
            counts = CountingRecord.reads
            rid = object.__getattribute__(self, "id")
            counts[rid] = counts.get(rid, 0) + 1
        return object.__getattribute__(self, name)


def test_11_test_set_isolation(bundled):
    from pervml.data import Dataset

    counted = Dataset(
        tuple(
            CountingRecord(**{f: getattr(rec, f) for f in ("id",) + ALL_COLUMNS})
            for rec in bundled.records
        )
    )
    spec = reference_split(counted)
    train_ds, test_ds = split(counted, spec)
    scaler = fit_scaler(counted)  # normalization may see the full table

    CountingRecord.reads = {}
    train = target_slice(train_ds, "compressive", scaler)
    grid = HyperGrid(
        family="gbrt", axes={"n_estimators": (3, 6), "max_depth": (2, 3)}
    )
    best, results = grid_search(train, grid, k=5, seed=42)
    refit_best(train, "gbrt", best)

    test_ids = set(test_ds.ids)
    touched_test = {rid: n for rid, n in CountingRecord.reads.items() if rid in test_ids}
    assert touched_test == {}, f"test rows read during the search: {touched_test}"
    assert all(CountingRecord.reads.get(rid, 0) > 0 for rid in train_ds.ids)
    assert len(results) == 4
    _pass(11, "zero test-row reads during grid search")
