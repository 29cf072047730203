"""Feature scoring and ranking.

Four indices: chi-squared, information gain, gain ratio (all over
discretized columns) and forest mean-decrease-in-node-impurity (over raw
values). Rankings sort descending with ties broken by ascending column
index so they are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError
from .featurize import FeatureMatrix, bin_column

METHODS = ("chi_squared", "info_gain", "gain_ratio", "mdni", "borda")


def _contingency(binned: np.ndarray, labels: np.ndarray) -> np.ndarray:
    binned = np.asarray(binned, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if binned.shape != labels.shape:
        raise ContractError(
            f"feature/labels length mismatch: {binned.shape} vs {labels.shape}"
        )
    if binned.min() < 0:
        raise ValueError("bin ids must be non-negative")
    n_bins = int(binned.max()) + 1
    table = np.bincount(binned * 2 + labels, minlength=n_bins * 2)
    return table.reshape(n_bins, 2).astype(np.float64)


def score_chi_squared(binned: np.ndarray, labels: np.ndarray) -> float:
    """Pearson chi-squared statistic of the bins-by-labels table.

    Cells with zero expected count contribute nothing; a single-bin
    feature scores 0.
    """
    table = _contingency(binned, labels)
    n = table.sum()
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / n
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    return float(terms.sum())


def _entropy_bits(counts: np.ndarray) -> float:
    counts = counts[counts > 0].astype(np.float64)
    if counts.size <= 1:
        return 0.0
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def score_information_gain(binned: np.ndarray, labels: np.ndarray) -> float:
    """Mutual information I(X; y) in bits: H(y) minus bin-weighted H(y | X)."""
    table = _contingency(binned, labels)
    n = table.sum()
    h_y = _entropy_bits(table.sum(axis=0))
    h_y_given_x = 0.0
    for row in table:
        weight = row.sum() / n
        if weight > 0:
            h_y_given_x += weight * _entropy_bits(row)
    ig = h_y - h_y_given_x
    return max(ig, 0.0)


def score_gain_ratio(binned: np.ndarray, labels: np.ndarray) -> float:
    """Information gain divided by the feature's own entropy; 0 when H(X)=0."""
    table = _contingency(binned, labels)
    h_x = _entropy_bits(table.sum(axis=1))
    if h_x == 0.0:
        return 0.0
    return score_information_gain(binned, labels) / h_x


def score_mdni(forest) -> np.ndarray:
    """Per-feature impurity-decrease mass of a trained forest.

    Sum of weighted Gini decreases at every node splitting on the feature,
    averaged over trees; features never chosen for a split score 0.
    """
    importances = getattr(forest, "importances", None)
    if importances is None:
        raise ContractError("score_mdni expects a trained forest with importances")
    return np.asarray(importances, dtype=np.float64)


@dataclass(frozen=True)
class FeatureScore:
    """One method's scores for every column, raw and max-normalized."""

    method: str
    raw: np.ndarray
    normalized: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=np.float64)
        object.__setattr__(self, "raw", raw)
        top = raw.max() if raw.size else 0.0
        norm = raw / top if top > 0 else np.zeros_like(raw)
        object.__setattr__(self, "normalized", norm)


def _order_by(raw: np.ndarray) -> np.ndarray:
    """Descending by score, ascending column index on ties."""
    idx = np.arange(len(raw))
    return np.lexsort((idx, -raw))


@dataclass
class RankedFeatures:
    column_names: tuple[str, ...]
    order: np.ndarray
    by_method: dict[str, FeatureScore]
    ranking_method: str

    def top(self, k: int) -> tuple[str, ...]:
        if not 1 <= k <= len(self.order):
            raise ValueError(f"k must be in [1, {len(self.order)}], got {k}")
        return tuple(self.column_names[i] for i in self.order[:k])

    def window(self, start: int, width: int) -> tuple[str, ...]:
        """Ranks [start, start+width-1], 1-based."""
        if start < 1 or width < 1 or start + width - 1 > len(self.order):
            raise ValueError(
                f"window {start}-{start + width - 1} out of range for "
                f"{len(self.order)} features"
            )
        return tuple(self.column_names[i] for i in self.order[start - 1 : start - 1 + width])


def _borda(by_method: dict[str, FeatureScore], n: int) -> np.ndarray:
    """Borda-count aggregation: each method awards n-1 .. 0 points by rank."""
    points = np.zeros(n, dtype=np.float64)
    for score in by_method.values():
        order = _order_by(score.raw)
        points[order] += np.arange(n - 1, -1, -1)
    return points


def rank_features(
    matrix: FeatureMatrix,
    labels: np.ndarray,
    ranking_method: str = "mdni",
    n_bins: int = 10,
    forest_params=None,
    methods: Optional[Sequence[str]] = None,
) -> RankedFeatures:
    """Score every column and produce one ordering.

    Filter methods (chi_squared, info_gain, gain_ratio) run on rank-binned
    columns; mdni trains a forest on the raw matrix. "borda" aggregates
    whatever other methods were computed.
    """
    labels = np.asarray(labels)
    if matrix.n_rows != len(labels):
        raise ContractError(
            f"matrix rows {matrix.n_rows} != labels length {len(labels)}"
        )
    if ranking_method not in METHODS:
        raise ValueError(f"unknown ranking method: {ranking_method!r}")
    if methods is None:
        methods = (
            ("chi_squared", "info_gain", "gain_ratio", "mdni")
            if ranking_method == "borda"
            else (ranking_method,)
        )
    if ranking_method != "borda" and ranking_method not in methods:
        methods = tuple(methods) + (ranking_method,)

    by_method: dict[str, FeatureScore] = {}
    filter_methods = [m for m in methods if m in ("chi_squared", "info_gain", "gain_ratio")]
    if filter_methods:
        binned = [bin_column(matrix.values[:, j], n_bins).ids for j in range(matrix.n_columns)]
        scorers = {
            "chi_squared": score_chi_squared,
            "info_gain": score_information_gain,
            "gain_ratio": score_gain_ratio,
        }
        for m in filter_methods:
            raw = np.array([scorers[m](b, labels) for b in binned])
            by_method[m] = FeatureScore(m, raw)
    if "mdni" in methods:
        from .learn import ForestParams, train_forest

        params = forest_params if forest_params is not None else ForestParams(
            n_trees=20, max_depth=8, min_leaf=20, seed=13
        )
        forest = train_forest(matrix, labels, params)
        by_method["mdni"] = FeatureScore("mdni", score_mdni(forest))

    if ranking_method == "borda":
        raw = _borda(by_method, matrix.n_columns)
        by_method["borda"] = FeatureScore("borda", raw)
        order = _order_by(raw)
    else:
        order = _order_by(by_method[ranking_method].raw)

    return RankedFeatures(
        column_names=matrix.column_names,
        order=order,
        by_method=by_method,
        ranking_method=ranking_method,
    )


def ranking_to_csv_text(ranked: RankedFeatures) -> str:
    """rank,column,method,raw,normalized rows for every computed method."""
    lines = ["rank,column,method,raw,normalized"]
    for method in sorted(ranked.by_method):
        score = ranked.by_method[method]
        order = _order_by(score.raw)
        for rank, j in enumerate(order, start=1):
            lines.append(
                f"{rank},{ranked.column_names[j]},{method},"
                f"{repr(float(score.raw[j]))},{repr(float(score.normalized[j]))}"
            )
    return "\n".join(lines) + "\n"
