import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pervml.metrics import (
    MAPE_GUARD,
    UndefinedCorrelationError,
    evaluate_all,
    mae,
    pearson,
    mape,
    r_squared,
    rmse,
)


# Straight-from-formula oracles, written independently of the library code.
def oracle_r2(y, p):
    n = len(y)
    ym = sum(y) / n
    pm = sum(p) / n
    num = sum((pi - pm) * (yi - ym) for pi, yi in zip(p, y)) / n
    den = math.sqrt(
        (sum((pi - pm) ** 2 for pi in p) / n) * (sum((yi - ym) ** 2 for yi in y) / n)
    )
    return (num / den) ** 2


def oracle_rmse(y, p):
    return math.sqrt(sum((yi - pi) ** 2 for yi, pi in zip(y, p)) / len(y))


def oracle_mae(y, p):
    return sum(abs(yi - pi) for yi, pi in zip(y, p)) / len(y)


def oracle_mape(y, p):
    return sum(abs(yi - pi) / max(MAPE_GUARD, abs(yi)) for yi, pi in zip(y, p)) / len(y)


class TestHandValues:
    def test_rmse_hand(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
        assert rmse([2.0], [5.0]) == pytest.approx(3.0)
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mae_hand(self):
        assert mae([1.0, 3.0], [2.0, 5.0]) == pytest.approx(1.5)
        assert mae([1.0, 3.0], [1.0, 3.0]) == 0.0

    def test_mape_hand(self):
        assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(0.1)
        assert mape([100.0, 200.0], [100.0, 200.0]) == 0.0

    def test_mape_guards_zero_denominator(self):
        value = mape([0.0, 1.0], [1.0, 1.0])
        assert math.isfinite(value)
        assert value == pytest.approx(0.5 / MAPE_GUARD)

    def test_r2_hand(self):
        assert r_squared([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(1.0)
        y = np.array([1.0, 2.0, 5.0])
        assert r_squared(y, y) == pytest.approx(1.0)
        assert r_squared(y, 2 * y + 1) == pytest.approx(1.0)


class TestOracleAgreement:
    def test_random_pairs(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            y = rng.normal(size=n) * rng.uniform(0.1, 50) + rng.normal()
            p = rng.normal(size=n) * rng.uniform(0.1, 50) + rng.normal()
            assert rmse(y, p) == pytest.approx(oracle_rmse(y, p), rel=1e-10)
            assert mae(y, p) == pytest.approx(oracle_mae(y, p), rel=1e-10)
            assert mape(y, p) == pytest.approx(oracle_mape(y, p), rel=1e-10)
            assert r_squared(y, p) == pytest.approx(oracle_r2(y, p), rel=1e-10)


class TestProperties:
    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=-50, max_value=50),
    )
    def test_r2_affine_invariance(self, a, b):
        y = np.array([0.3, 1.7, 2.2, 5.0, 9.1])
        assert r_squared(y, a * y + b) == pytest.approx(1.0, abs=1e-12)
        assert r_squared(y, -a * y + b) == pytest.approx(1.0, abs=1e-12)

    def test_mae_le_rmse(self, rng):
        for _ in range(100):
            y = rng.normal(size=10)
            p = rng.normal(size=10)
            assert mae(y, p) <= rmse(y, p) + 1e-15

    def test_zero_iff_equal(self, rng):
        y = rng.uniform(1, 5, size=8)
        p = y + 1e-9
        assert rmse(y, p) > 0
        assert mae(y, p) > 0
        assert mape(y, p) > 0

    def test_r2_capped_at_one(self):
        assert r_squared([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]) <= 1.0


class TestErrors:
    def test_constant_vector_r2(self):
        with pytest.raises(UndefinedCorrelationError):
            r_squared([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])

    def test_pearson_length_mismatch(self):
        with pytest.raises(ValueError, match=r"length mismatch: \(2,\) vs \(3,\)"):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            mae([], [])

    def test_single_sample_r2(self):
        with pytest.raises(UndefinedCorrelationError):
            r_squared([1.0], [1.0])


class TestEvaluateAll:
    def test_identical_vectors(self):
        report = evaluate_all([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (report.r2, report.rmse, report.mae, report.mape) == (1.0, 0.0, 0.0, 0.0)
        assert report.n == 3

    def test_constant_predictions_flagged(self):
        report = evaluate_all([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert report.r2 is None
        assert report.rmse > 0
        assert report.mae > 0
