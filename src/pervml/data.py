"""Pervious concrete mixture data: CSV ingestion, statistics, scaling, splits.

A split is the frozenset of its test mixture ids; every other id trains.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

FEATURE_COLUMNS = ("aggregate_size", "cement", "w_c", "aggregate")
TARGET_COLUMNS = ("density", "compressive", "tensile", "porosity")
ALL_COLUMNS = FEATURE_COLUMNS + TARGET_COLUMNS

CSV_HEADER = (
    "id",
    "aggregate_size_mm",
    "cement_kg",
    "w_c",
    "aggregate_kg",
    "density_kgm3",
    "compressive_mpa",
    "tensile_mpa",
    "porosity_pct",
)

# Mixtures held out for testing in the originating study.
REFERENCE_TEST_IDS = frozenset({"C11", "C12", "C15", "C21", "C23"})


class DatasetError(ValueError):
    """A problem with input data: malformed CSV, bad value, bad split."""


@dataclass(frozen=True)
class MixtureRecord:
    """One pervious concrete mixture: four mix inputs, four measured outputs."""

    id: str
    aggregate_size: float  # mm
    cement: float  # kg
    w_c: float  # water/cement mass ratio
    aggregate: float  # kg
    density: float  # kg/m3
    compressive: float  # MPa
    tensile: float  # MPa
    porosity: float  # percent

    def __post_init__(self):
        for name in ALL_COLUMNS:
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise DatasetError(
                    f"record {self.id!r}: column {name!r} must be a positive "
                    f"finite number, got {value!r}"
                )
        if not 0 < self.porosity < 100:
            raise DatasetError(
                f"record {self.id!r}: porosity must be in (0, 100), got {self.porosity!r}"
            )
        if not 0 < self.w_c < 1:
            raise DatasetError(
                f"record {self.id!r}: w_c must be in (0, 1), got {self.w_c!r}"
            )


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of mixtures with unique ids."""

    records: tuple[MixtureRecord, ...]

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise DatasetError(f"duplicate mixture id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(rec.id for rec in self.records)

    def column(self, name: str) -> np.ndarray:
        """Values of one column, in record order."""
        if name not in ALL_COLUMNS:
            raise DatasetError(f"unknown column {name!r}")
        return np.array([getattr(rec, name) for rec in self.records], dtype=float)

    def subset(self, ids) -> "Dataset":
        """Records whose id is in `ids`, preserving this dataset's order."""
        wanted = set(ids)
        return Dataset(tuple(rec for rec in self.records if rec.id in wanted))


@dataclass(frozen=True)
class ColumnStats:
    count: int
    mean: float
    std: float  # sample convention (n - 1); 0.0 when flagged constant
    minimum: float
    q25: float
    q50: float
    q75: float
    maximum: float
    constant: bool


def load_csv(path) -> Dataset:
    """Read a mixture table. The header must match the bundled file exactly;
    a leading UTF-8 byte-order mark is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            table = list(reader)
        except csv.Error as exc:  # say a cell over csv's field size limit
            raise DatasetError(f"{path}: row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoding runs ahead of the rows: no row number
            raise DatasetError(f"{path}: {exc}") from None
        if not table:
            raise DatasetError(f"{path}: empty dataset")
        header = table[0]
        if tuple(h.strip() for h in header) != CSV_HEADER:
            missing = set(CSV_HEADER) - {h.strip() for h in header}
            if missing:
                raise DatasetError(
                    f"{path}: missing column(s) {sorted(missing)}; "
                    f"expected header {','.join(CSV_HEADER)}"
                )
            raise DatasetError(
                f"{path}: header must be exactly {','.join(CSV_HEADER)}"
            )
        records = []
        seen_rows: dict[str, int] = {}
        for row_num, row in enumerate(table[1:], start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(CSV_HEADER):
                raise DatasetError(
                    f"{path}: row {row_num} has {len(row)} cells, expected "
                    f"{len(CSV_HEADER)}"
                )
            values = {}
            for col_name, attr, cell in zip(CSV_HEADER[1:], ALL_COLUMNS, row[1:]):
                try:
                    values[attr] = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"{path}: row {row_num}, column {col_name!r}: "
                        f"cannot parse {cell.strip()!r} as a number"
                    ) from None
            rec_id = row[0].strip()
            if rec_id in seen_rows:
                raise DatasetError(
                    f"{path}: row {row_num}: duplicate id {rec_id!r} "
                    f"(first seen at row {seen_rows[rec_id]})"
                )
            seen_rows[rec_id] = row_num
            records.append(MixtureRecord(id=rec_id, **values))
    if not records:
        raise DatasetError(f"{path}: empty dataset")
    return Dataset(tuple(records))


def bundled_path() -> str:
    """Filesystem path of the packaged 24-mixture table."""
    return str(resources.files("pervml.resources").joinpath("pervious.csv"))


def load_bundled() -> Dataset:
    return load_csv(bundled_path())


def describe(ds: Dataset) -> dict[str, ColumnStats]:
    """Per-column summary statistics.

    Standard deviation uses the sample (n - 1) convention; quartiles use
    linear interpolation at position p * (n - 1). A single-record or
    constant column is flagged and reports std 0.
    """
    if len(ds) == 0:
        raise DatasetError("empty dataset")
    stats = {}
    for name in ALL_COLUMNS:
        col = ds.column(name)
        constant = len(col) < 2 or col.min() == col.max()
        std = 0.0 if constant else float(col.std(ddof=1))
        q25, q50, q75 = (float(q) for q in np.percentile(col, [25, 50, 75]))
        stats[name] = ColumnStats(
            count=len(col),
            mean=float(col.mean()),
            std=std,
            minimum=float(col.min()),
            q25=q25,
            q50=q50,
            q75=q75,
            maximum=float(col.max()),
            constant=constant,
        )
    return stats


@dataclass(frozen=True)
class Scaler:
    """Per-column min-max normalization to [0, 1], held as each column's
    (min, max) over the table it was fitted on; `fit_scaler` builds one.

    Out-of-range inputs extrapolate linearly (no clamping), so values beyond
    the fitted range stay distinguishable. A column with min == max maps to
    0, and back to its min.
    """

    ranges: dict[str, tuple[float, float]]

    def column_range(self, column: str) -> tuple[float, float]:
        try:
            return self.ranges[column]
        except KeyError:
            raise DatasetError(f"scaler was not fitted on column {column!r}") from None

    def transform(self, column: str, values):
        lo, hi = self.column_range(column)
        values = np.asarray(values, dtype=float)
        if lo == hi:
            return np.zeros_like(values)
        return (values - lo) / (hi - lo)

    def inverse_transform(self, column: str, values):
        lo, hi = self.column_range(column)
        values = np.asarray(values, dtype=float)
        if lo == hi:
            return np.full_like(values, lo)
        return values * (hi - lo) + lo

    def transform_features(self, ds: Dataset) -> np.ndarray:
        """Normalized feature matrix, columns in FEATURE_COLUMNS order."""
        cols = [self.transform(name, ds.column(name)) for name in FEATURE_COLUMNS]
        return np.column_stack(cols)


def fit_scaler(ds: Dataset) -> Scaler:
    """The (min, max) of every column of `ds`."""
    if len(ds) == 0:
        raise DatasetError("cannot fit scaler on an empty dataset")
    columns = {name: ds.column(name) for name in ALL_COLUMNS}
    return Scaler({name: (float(c.min()), float(c.max())) for name, c in columns.items()})


def reference_split(ds: Dataset) -> frozenset:
    """Test ids of the originating study's 19/5 train/test partition."""
    missing = REFERENCE_TEST_IDS - set(ds.ids)
    if missing:
        raise DatasetError(
            f"dataset lacks reference test mixture(s) {sorted(missing)}"
        )
    return REFERENCE_TEST_IDS


def random_split(ds: Dataset, seed: int) -> frozenset:
    """Test ids of a seeded shuffle split: round(0.2 * n) mixtures."""
    ids = ds.ids
    order = np.random.default_rng(seed).permutation(len(ids))
    return frozenset(ids[i] for i in order[: round(0.2 * len(ids))])


EMPTY_TEST_SIDE = "split has an empty test side"


def split(ds: Dataset, test_ids: frozenset) -> tuple[Dataset, Dataset]:
    """The (train, test) sides of `ds`, each in dataset order. A split with no
    training mixture is an error; one with no test mixture warns."""
    unknown = set(test_ids) - set(ds.ids)
    if unknown:
        raise DatasetError(f"unknown test id(s): {sorted(unknown)}")
    train_ids = set(ds.ids) - test_ids
    if not train_ids:
        raise DatasetError("split leaves no training mixtures")
    if not test_ids:
        warnings.warn(EMPTY_TEST_SIDE, stacklevel=2)
    return ds.subset(train_ids), ds.subset(test_ids)
