"""Feature scoring and ranking.

Four indices: chi-squared, information gain, gain ratio (all over
discretized columns) and forest mean-decrease-in-node-impurity (over raw
values). Rankings sort descending with ties broken by ascending column
index so they are reproducible across runs.

`rank_features` codes every column once (`learn._ValueCodes`), from the
matrix's nonzero entries when it holds them so. A column's counts by
(code, label) give its rank bins (`featurize.rank_bins`) and its one
bins-by-labels table, which `_table_scores` scores for every filter
method; the ranking forest grows on the same codes. The per-column
`score_*` functions score a table of given bins with the same
`_table_scores`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError
from .featurize import FeatureMatrix, rank_bins
from .learn import ForestParams, _ValueCodes, train_forest
from .reporting import csv_text

METHODS = ("chi_squared", "info_gain", "gain_ratio", "mdni", "borda")
# The most rank bins a column may be cut into. Bins past a column's row
# count change nothing, and this is over twice the rows of a 30k corpus.
MAX_BINS = 2**16


def _table(codes: np.ndarray, labels: np.ndarray, width: int) -> np.ndarray:
    """The (width, 2) int64 counts of each code 0..width-1 by label."""
    return np.bincount(codes + labels * width, minlength=2 * width).reshape(2, width).T


def _contingency(binned: np.ndarray, labels: np.ndarray) -> np.ndarray:
    binned = np.asarray(binned, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if binned.shape != labels.shape:
        raise ContractError(
            f"feature/labels length mismatch: {binned.shape} vs {labels.shape}"
        )
    if binned.min() < 0:
        raise ValueError("bin ids must be non-negative")
    return _table(binned, labels, int(binned.max()) + 1).astype(np.float64)


def _entropy_bits(counts: np.ndarray) -> np.ndarray:
    """The entropy in bits of the positive counts along the last axis of
    `counts`; 0 where at most one count is positive."""
    positive = counts > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / counts.sum(axis=-1, keepdims=True)
        terms = np.where(positive, p * np.log2(p), 0.0)
    return np.where(positive.sum(axis=-1) > 1, -terms.sum(axis=-1), 0.0)


FILTER_METHODS = ("chi_squared", "info_gain", "gain_ratio")


def _table_scores(tables: np.ndarray, methods: Sequence[str]) -> np.ndarray:
    """The score of each filter method in `methods` on each of a stack of
    bins-by-labels tables of float counts, all with the same bins, shape
    (len(methods), len(tables)). A table's scores are those of the table
    alone: each sum runs along one table's row of the stack, which numpy
    adds as it adds that row alone.

    chi_squared: the Pearson statistic; cells with zero expected count
    contribute nothing, and a single-bin table scores 0. info_gain: the
    mutual information I(X; y) in bits, H(y) minus the bin-weighted
    H(y | X), added bin by bin. gain_ratio: information gain divided by the
    bins' own entropy, 0 when that is 0.
    """
    m, k, _ = tables.shape
    n = tables.reshape(m, 2 * k).sum(axis=1)
    bins = tables.sum(axis=2)
    scores = {}
    if "chi_squared" in methods:
        expected = bins[:, :, None] * tables.sum(axis=1)[:, None, :] / n[:, None, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(expected > 0, (tables - expected) ** 2 / expected, 0.0)
        scores["chi_squared"] = terms.reshape(m, 2 * k).sum(axis=1)
    if "info_gain" in methods or "gain_ratio" in methods:
        h_y_given_x = np.cumsum(bins / n[:, None] * _entropy_bits(tables), axis=1)[:, -1]
        info = np.maximum(_entropy_bits(tables.sum(axis=1)) - h_y_given_x, 0.0)
        h_x = _entropy_bits(bins)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores["gain_ratio"] = np.where(h_x == 0.0, 0.0, info / h_x)
        scores["info_gain"] = info
    return np.array([scores[m] for m in methods])


def score_chi_squared(binned: np.ndarray, labels: np.ndarray) -> float:
    """Pearson chi-squared statistic of the bins-by-labels table."""
    return float(_table_scores(_contingency(binned, labels)[None], ["chi_squared"])[0, 0])


def score_information_gain(binned: np.ndarray, labels: np.ndarray) -> float:
    """Mutual information I(X; y) in bits: H(y) minus bin-weighted H(y | X)."""
    return float(_table_scores(_contingency(binned, labels)[None], ["info_gain"])[0, 0])


def score_gain_ratio(binned: np.ndarray, labels: np.ndarray) -> float:
    """Information gain divided by the feature's own entropy; 0 when H(X)=0."""
    return float(_table_scores(_contingency(binned, labels)[None], ["gain_ratio"])[0, 0])


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


# A cross-validation fold ranks at most this many of its training rows, a
# seeded sample of them; `rank` ranks every admissible row.
RANK_SUBSAMPLE = 1500


def ranking_forest(seed: int) -> ForestParams:
    """The ranking forest of `rank` and of each cross-validation fold."""
    return ForestParams(n_trees=20, max_depth=8, min_leaf=20, seed=seed)


def rank_window(order: Sequence[str], window: Optional[tuple[int, int]]) -> tuple[str, ...]:
    """The 1-based ranks start..start+width-1 of `order` for `window` =
    (start, width), or all of `order` when `window` is None. A window past
    either end of `order` raises ValueError."""
    if window is None:
        return tuple(order)
    start, width = window
    if start < 1 or width < 1 or start + width - 1 > len(order):
        raise ValueError(
            f"ranks {start}-{start + width - 1} are out of range: "
            f"the column order has {len(order)} columns"
        )
    return tuple(order[start - 1 : start - 1 + width])


def _borda(by_method: dict[str, FeatureScore], n: int) -> np.ndarray:
    """Borda-count aggregation: each method awards n-1 .. 0 points by rank."""
    points = np.zeros(n, dtype=np.float64)
    for score in by_method.values():
        order = _order_by(score.raw)
        points[order] += np.arange(n - 1, -1, -1)
    return points


def _filter_scores(
    vc: _ValueCodes, labels: np.ndarray, methods: Sequence[str], n_bins: int
) -> dict[str, FeatureScore]:
    """The scores of each filter method in `methods` on the rank-binned
    columns of the matrix whose value codes are `vc`.

    The counts by (value, label) of the columns that list their nonzeros
    come from one bincount over those, and each one's zero counts the label
    totals minus the rest; every other column takes one bincount of its
    codes. The counts give every column's `rank_bins` at once and, summed
    over each bin's run of values, its one bins-by-labels table; the tables
    with as many bins are scored together, by every method.
    """
    labels = np.asarray(labels, dtype=np.int64)
    listed = vc.zero >= 0
    column = np.repeat(np.arange(len(vc.codes)), np.diff(vc.nz_start))
    key = (vc.offsets[column] + vc.nz_codes) * 2 + labels[vc.nz_rows]
    by_value = np.bincount(key, minlength=2 * vc.offsets[-1]).reshape(-1, 2)
    by_value[(vc.offsets[:-1] + vc.zero)[listed]] = (
        np.bincount(labels, minlength=2) - np.add.reduceat(by_value, vc.offsets[:-1])[listed]
    )
    for j in np.flatnonzero(~listed):
        lo, hi = vc.offsets[j], vc.offsets[j + 1]
        by_value[lo:hi] = _table(vc.codes[j], labels, hi - lo)
    bins = rank_bins(vc.values, by_value.sum(axis=1), n_bins, vc.offsets)
    first = np.zeros(len(bins), dtype=bool)  # each bin's first value
    first[vc.offsets[:-1]] = True
    first[1:] |= bins[1:] != bins[:-1]
    heads = np.flatnonzero(first)
    tables = np.add.reduceat(by_value, heads).astype(np.float64)
    start = np.searchsorted(heads, vc.offsets)
    width = np.diff(start)
    scores = np.empty((len(methods), len(vc.codes)))
    for k in np.unique(width).tolist():
        columns = np.flatnonzero(width == k)
        scores[:, columns] = _table_scores(tables[start[columns, None] + np.arange(k)], methods)
    return {m: FeatureScore(m, raw) for m, raw in zip(methods, scores)}


def rank_features(
    matrix: FeatureMatrix,
    labels: np.ndarray,
    ranking_method: str = "mdni",
    n_bins: int = 10,
    forest_params: Optional[ForestParams] = None,
    methods: Optional[Sequence[str]] = None,
) -> RankedFeatures:
    """Score every column and produce one ordering.

    Filter methods (chi_squared, info_gain, gain_ratio) run on rank-binned
    columns; mdni trains a forest on the raw matrix (by default
    `ranking_forest(13)`). Both read one set of value codes of the matrix.
    "borda" aggregates whatever other methods were computed. `n_bins`
    outside 2..`MAX_BINS` raises ValueError before any column is sorted.
    """
    labels = np.asarray(labels)
    if matrix.n_rows != len(labels):
        raise ContractError(
            f"matrix rows {matrix.n_rows} != labels length {len(labels)}"
        )
    if ranking_method not in METHODS:
        raise ValueError(f"unknown ranking method: {ranking_method!r}")
    if not 2 <= n_bins <= MAX_BINS:
        raise ValueError(f"n_bins must be between 2 and {MAX_BINS}, got {n_bins}")
    if methods is None:
        methods = (
            ("chi_squared", "info_gain", "gain_ratio", "mdni")
            if ranking_method == "borda"
            else (ranking_method,)
        )
    if ranking_method != "borda" and ranking_method not in methods:
        methods = tuple(methods) + (ranking_method,)

    filters = [m for m in methods if m in FILTER_METHODS]
    vc = _ValueCodes.of(matrix)
    by_method = _filter_scores(vc, labels, filters, n_bins) if filters else {}
    if "mdni" in methods:
        params = forest_params if forest_params is not None else ranking_forest(13)
        forest = train_forest(matrix, labels, params, codes=vc)
        by_method["mdni"] = FeatureScore("mdni", forest.importances)

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
    rows = []
    for method in sorted(ranked.by_method):
        score = ranked.by_method[method]
        order = _order_by(score.raw)
        names = [ranked.column_names[j] for j in order]
        rows += zip(range(1, len(names) + 1), names, [method] * len(names),
                    score.raw[order].tolist(), score.normalized[order].tolist())
    return csv_text(["rank", "column", "method", "raw", "normalized"], rows)
