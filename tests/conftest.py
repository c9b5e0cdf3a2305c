import numpy as np
import pytest

from pervml import _kernels
from pervml.data import TARGET_COLUMNS, fit_scaler, load_bundled, reference_split, split
from pervml.pipeline import reproduce
from pervml.tuning import target_slice


@pytest.fixture(scope="session")
def bundled():
    return load_bundled()


@pytest.fixture(scope="session")
def ref_split(bundled):
    return reference_split(bundled)


@pytest.fixture(scope="session")
def train_test(bundled, ref_split):
    return split(bundled, ref_split)


@pytest.fixture(scope="session")
def full_scaler(bundled):
    return fit_scaler(bundled)


@pytest.fixture(scope="session")
def train_slices(train_test, full_scaler):
    """Normalized training slices for each target, reference split."""
    train_ds, _ = train_test
    return {
        target: target_slice(train_ds, target, full_scaler)
        for target in TARGET_COLUMNS
    }


@pytest.fixture(scope="session")
def repro_report(bundled):
    """One shared default reproduction run (8 models, published settings)."""
    return reproduce(bundled)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def cold_smo_cache(monkeypatch, tmp_path):
    """An empty cache directory that the next compiled call builds its library
    into, with no library loaded and no failed build remembered."""
    cache = tmp_path / "smo-cache"
    monkeypatch.setattr(_kernels, "_CACHE", cache)
    monkeypatch.setattr(_kernels, "_lib", None)
    monkeypatch.setattr(_kernels, "_build_error", None)
    return cache


@pytest.fixture()
def no_compiler(monkeypatch, tmp_path):
    """A PATH on which no `cc` can be found, and no failed build remembered."""
    empty = tmp_path / "empty-path"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setattr(_kernels, "_build_error", None)
