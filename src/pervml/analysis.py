"""Input sensitivity (signed correlations) and tree-ensemble feature importance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FEATURE_COLUMNS, TARGET_COLUMNS, Dataset
from .gbrt import TreeEnsemble
from .metrics import UndefinedCorrelationError, pearson


@dataclass(frozen=True)
class SensitivityTable:
    """Correlation of each mix input (row) with each output property (column).

    Entries for constant columns are NaN and listed in `undefined`.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    values: np.ndarray  # (len(inputs), len(outputs))
    undefined: tuple[tuple[str, str], ...] = ()

    def value(self, input_name: str, output_name: str) -> float:
        return float(
            self.values[self.inputs.index(input_name), self.outputs.index(output_name)]
        )


def sensitivity_table(ds: Dataset) -> SensitivityTable:
    """Pearson correlation for every (input, output) pair over all records.

    Raw physical units are used; correlation is scale-invariant, so this
    matches the normalized computation exactly.
    """
    if len(ds) < 2:
        raise ValueError("need at least 2 records")
    values = np.empty((len(FEATURE_COLUMNS), len(TARGET_COLUMNS)))
    undefined = []
    for i, feat in enumerate(FEATURE_COLUMNS):
        for j, targ in enumerate(TARGET_COLUMNS):
            try:
                values[i, j] = pearson(ds.column(feat), ds.column(targ))
            except UndefinedCorrelationError:
                values[i, j] = np.nan
                undefined.append((feat, targ))
    return SensitivityTable(
        inputs=FEATURE_COLUMNS,
        outputs=TARGET_COLUMNS,
        values=values,
        undefined=tuple(undefined),
    )


@dataclass(frozen=True)
class ImportanceReport:
    """Per-feature gain / weight / cover scores with ranks and the mean rank.

    Rank 1 is most important; ties and never-used features fall back to
    feature-index order. `degenerate` marks an ensemble with no splits at
    all (every score zero, ranking meaningless).
    """

    features: tuple[str, ...]
    gain: np.ndarray
    weight: np.ndarray
    cover: np.ndarray
    rank_gain: np.ndarray
    rank_weight: np.ndarray
    rank_cover: np.ndarray
    mean_rank: np.ndarray
    degenerate: bool

    def best_feature_by_mean_rank(self) -> str:
        return self.features[int(np.argmin(self.mean_rank))]


def _rank_scores(scores: np.ndarray) -> np.ndarray:
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    ranks = np.empty(scores.size, dtype=int)
    for position, idx in enumerate(order, start=1):
        ranks[idx] = position
    return ranks


def importance(model: TreeEnsemble) -> ImportanceReport:
    """Rank features by mean split gain, split count, and mean split cover."""
    d = model.n_features
    gain = np.zeros(d)
    weight = np.zeros(d)
    cover = np.zeros(d)
    for tree in model.trees:
        for feature, node_gain, node_cover in zip(tree.feature, tree.gain, tree.cover):
            if feature >= 0:
                weight[feature] += 1
                gain[feature] += node_gain
                cover[feature] += node_cover
    used = weight > 0
    gain[used] /= weight[used]
    cover[used] /= weight[used]

    rank_gain = _rank_scores(gain)
    rank_weight = _rank_scores(weight)
    rank_cover = _rank_scores(cover)
    mean_rank = (rank_gain + rank_weight + rank_cover) / 3.0
    return ImportanceReport(
        features=model.feature_names,
        gain=gain,
        weight=weight,
        cover=cover,
        rank_gain=rank_gain,
        rank_weight=rank_weight,
        rank_cover=rank_cover,
        mean_rank=mean_rank,
        degenerate=not used.any(),
    )
