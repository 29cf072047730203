"""Metrics, ROC/AUC, and leakage-safe stratified cross-validation.

Everything label-dependent (reputation tables, feature ranking, binning,
the linear models' standardization, the operating threshold) is fitted
inside each training fold; the held-out chunk only ever gets transformed
and scored. `prepare_folds` fits what model kinds and rank windows share
(per training fold, one reputation table and one ranking); `evaluate`
gathers each fold's window columns and fits and scores one model kind on
them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .corpus import LabeledDataset
from .errors import ContractError, DegenerateLabelsError
from .featurize import (
    FeatureMatrix,
    HashConfig,
    ReputationTable,
    StaticBlock,
    build_reputation_table,
    feature_names,
    gather_features,
    static_feature_block,
)
from .learn import Hyperparams, predict_score, train_model
from .reporting import csv_text
from .select import RANK_SUBSAMPLE, rank_features, rank_window, ranking_forest

# ---------------------------------------------------------------------------
# Point metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class Metrics:
    confusion: ConfusionMatrix
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...] = ()


def classification_metrics(labels: np.ndarray, predicted: np.ndarray) -> Metrics:
    """Precision/recall/F1 from binary labels and binary predictions.

    Zero denominators yield metric 0 and a degeneracy flag rather than an
    error, so aggregate reports stay total.
    """
    labels = np.asarray(labels).astype(np.int64)
    predicted = np.asarray(predicted).astype(np.int64)
    if labels.shape != predicted.shape:
        raise ContractError(
            f"labels/predictions length mismatch: {labels.shape} vs {predicted.shape}"
        )
    tp = int(((labels == 1) & (predicted == 1)).sum())
    fp = int(((labels == 0) & (predicted == 1)).sum())
    tn = int(((labels == 0) & (predicted == 0)).sum())
    fn = int(((labels == 1) & (predicted == 0)).sum())
    flags = []
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, flags = 0.0, flags + ["precision:no-positive-predictions"]
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, flags = 0.0, flags + ["recall:no-positive-labels"]
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, flags = 0.0, flags + ["f1:zero-precision-and-recall"]
    return Metrics(ConfusionMatrix(tp, fp, tn, fn), precision, recall, f1, tuple(flags))


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RocCurve:
    points: np.ndarray  # (k, 2) array of (fpr, tpr), from (0,0) to (1,1)
    auc: float


def roc_and_auc(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """Threshold sweep with tied scores grouped into single steps.

    The trapezoid area is accumulated in integer arithmetic, so the AUC
    equals the pairwise statistic P(s_pos > s_neg) + 0.5 P(tie) exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    if scores.shape != labels.shape:
        raise ContractError(
            f"scores/labels length mismatch: {scores.shape} vs {labels.shape}"
        )
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"AUC undefined: {n_pos} positive and {n_neg} negative labels"
        )
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    boundaries = np.flatnonzero(s[1:] < s[:-1]) + 1
    group_ends = np.concatenate([boundaries, [len(s)]])
    tp = np.concatenate([[0], np.cumsum(y)[group_ends - 1]])
    fp = np.concatenate([[0], group_ends - np.cumsum(y)[group_ends - 1]])

    area2 = int(np.sum((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1])))
    auc = area2 / (2 * n_pos * n_neg)
    points = np.column_stack([fp / n_neg, tp / n_pos])
    return RocCurve(points=points, auc=float(auc))


def threshold_max_f1(scores: np.ndarray, labels: np.ndarray) -> float:
    """Operating threshold maximizing F1 of (score >= threshold).

    Only boundaries between distinct score values are candidates (ties
    cannot be split); among equal-F1 candidates the highest threshold
    wins.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    n = len(s)
    n_pos = int(y.sum())
    if n_pos == 0:
        return math.inf
    cut_sizes = np.concatenate([np.flatnonzero(s[1:] < s[:-1]) + 1, [n]])
    tp = np.cumsum(y)[cut_sizes - 1]
    f1 = 2.0 * tp / (cut_sizes + n_pos)
    best = int(np.argmax(f1))  # first max = fewest predictions = highest threshold
    return float(s[cut_sizes[best] - 1])


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Partition rows into k label-stratified test chunks.

    Positive remainders go to the first folds and negative remainders to
    the last ones, so when n is divisible by k every chunk has exactly n/k
    rows.
    """
    labels = np.asarray(labels).astype(np.int64)
    n = len(labels)
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"k={k} exceeds {n} rows")
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0xF01D]))
    pos = rng.permutation(np.flatnonzero(labels == 1))
    neg = rng.permutation(np.flatnonzero(labels == 0))

    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    q, r = divmod(len(pos), k)
    start = 0
    for i in range(k):
        size = q + (1 if i < r else 0)
        folds[i].append(pos[start : start + size])
        start += size
    q, r = divmod(len(neg), k)
    start = 0
    for i in range(k):
        size = q + (1 if k - 1 - i < r else 0)
        folds[i].append(neg[start : start + size])
        start += size
    return [np.sort(np.concatenate(parts)) for parts in folds]


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Each fold's column order is `frozen_ranking` when set, else the
    fold's ranking by `ranking_method`; with neither, folds have no order
    and models see every column."""

    hash_config: HashConfig = field(default_factory=HashConfig)
    ranking_method: Optional[str] = None
    frozen_ranking: Optional[tuple[str, ...]] = None
    hyper: Hyperparams = field(default_factory=Hyperparams)
    leaky_reputation: bool = False


def check_windows(
    config: PipelineConfig, windows: Sequence[Optional[tuple[int, int]]],
    model_kinds: Sequence[str] = (),
) -> None:
    """Raise the ValueError of the first of `windows` (None: the whole order)
    that the folds' orders under `config` would not hold, or that gives a
    forest among `model_kinds` fewer columns than its `mtry`; before any work."""
    order = config.frozen_ranking
    if order is None:
        order = feature_names(config.hash_config)
    mtry = config.hyper.forest.mtry if "forest" in model_kinds else 0
    for window in windows:
        width = len(rank_window(order, window))
        if mtry > width:
            raise ValueError(f"hyper.forest.mtry {mtry} exceeds the {width} columns a forest sees")


@dataclass
class FoldResult:
    fold: int
    threshold: float
    train: Metrics
    test: Metrics
    train_auc: Optional[float]
    test_auc: Optional[float]
    selected_columns: Optional[tuple[str, ...]]
    flags: tuple[str, ...] = ()

    @property
    def degenerate(self) -> bool:
        return any(f.startswith("degenerate") for f in self.flags)


_METRICS = ("precision", "recall", "f1", "auc")
_NOT_CONVERGED = "did not converge"


@dataclass
class EvalReport:
    model_kind: str
    k: int
    seed: int
    folds: list[FoldResult]
    flags: list[str] = field(default_factory=list)
    pooled_scores: Optional[np.ndarray] = None
    pooled_labels: Optional[np.ndarray] = None

    def _included(self) -> list[FoldResult]:
        return [f for f in self.folds if not f.degenerate]

    def fold_flags(self) -> list[str]:
        """One flag per degenerate fold, which the means leave out, and one
        per fold whose linear fit stopped short of its tolerance."""
        out = []
        for f in self.folds:
            if f.degenerate:
                out.append(f"fold {f.fold} excluded: {'; '.join(f.flags)}")
            out.extend(f"fold {f.fold}: {x}" for x in f.flags if _NOT_CONVERGED in x)
        return out

    def mean(self, which: str, metric: str) -> float:
        vals = self._values(which, metric)
        return float(np.mean(vals)) if vals else math.nan

    def std(self, which: str, metric: str) -> float:
        vals = self._values(which, metric)
        return float(np.std(vals)) if vals else math.nan

    def _values(self, which: str, metric: str) -> list[float]:
        if which not in ("train", "test"):
            raise ValueError("which must be 'train' or 'test'")
        out = []
        for f in self._included():
            if metric == "auc":
                v = f.train_auc if which == "train" else f.test_auc
                if v is not None:
                    out.append(v)
            else:
                out.append(getattr(getattr(f, which), metric))
        return out

    def to_json(self) -> dict:
        def summary(stat) -> dict:
            return {which: {m: stat(which, m) for m in _METRICS} for which in ("train", "test")}

        def block(m: Metrics, auc: Optional[float]) -> dict:
            return {
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "auc": auc,
                "confusion": dataclasses.asdict(m.confusion),
            }

        return {
            "model_kind": self.model_kind,
            "k": self.k,
            "seed": self.seed,
            "flags": list(self.flags),
            "means": summary(self.mean),
            "stds": summary(self.std),
            "folds": [
                {
                    "fold": f.fold,
                    "threshold": f.threshold,
                    "train": block(f.train, f.train_auc),
                    "test": block(f.test, f.test_auc),
                    "flags": list(f.flags),
                }
                for f in self.folds
            ],
        }

    def to_csv_text(self) -> str:
        header = ["fold", "threshold"] + [
            f"{which}_{m}" for which in ("train", "test") for m in _METRICS
        ]
        return csv_text(header + ["flags"], [
            [f.fold, f.threshold, f.train.precision, f.train.recall, f.train.f1, f.train_auc,
             f.test.precision, f.test.recall, f.test.f1, f.test_auc, ";".join(f.flags)]
            for f in self.folds
        ])


# ---------------------------------------------------------------------------
# Fold preparation and evaluation
# ---------------------------------------------------------------------------


def _derived_seeds(seed: int, fold: int) -> tuple[int, int]:
    """The fold's ranking seed and forest seed: words 0 and 2 of a
    three-word state."""
    state = np.random.SeedSequence(
        [seed & 0xFFFFFFFFFFFFFFFF, 0xC5, fold]
    ).generate_state(3)
    return int(state[0]), int(state[2])


@dataclass
class PreparedFold:
    """One fold's rows and what was fitted on its training rows: its
    reputation table and column order. A degenerate fold carries its
    `flags` and no table."""

    fold: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    flags: tuple[str, ...] = ()
    table: Optional[ReputationTable] = None
    order: Optional[tuple[str, ...]] = None


@dataclass
class FoldPlan:
    """What model kinds and rank windows share: the split, the static block
    (its hash part sparse) and each fold's fitted parts. It holds no feature
    matrices; `evaluate` gathers one fold's at a time, as its entries."""

    dataset: LabeledDataset
    labels: np.ndarray
    k: int
    seed: int
    config: PipelineConfig
    static_block: StaticBlock
    folds: list[PreparedFold]
    flags: list[str]

    def features(
        self, rows: np.ndarray, table: ReputationTable, columns: Sequence[str]
    ) -> FeatureMatrix:
        return gather_features(
            self.dataset.records, self.config.hash_config, table, self.static_block, rows, columns
        )


def _stacked_rows(top: FeatureMatrix, bottom: FeatureMatrix) -> FeatureMatrix:
    """The rows of `top` then those of `bottom`, which has the same columns,
    made from their entries so that only the stacked matrix is ever dense."""
    (r_top, c_top, v_top), (r_bottom, c_bottom, v_bottom) = top.entries, bottom.entries
    return FeatureMatrix.from_entries(
        top.column_names, top.n_rows + bottom.n_rows,
        np.concatenate((r_top, r_bottom + top.n_rows)),
        np.concatenate((c_top, c_bottom)), np.concatenate((v_top, v_bottom)),
    )


def prepare_folds(
    dataset: LabeledDataset,
    k: int = 10,
    seed: int = 0,
    config: PipelineConfig = PipelineConfig(),
) -> FoldPlan:
    """Split `dataset` into k stratified folds and fit each training fold's
    reputation table and column order (see `PipelineConfig`). Single-class
    folds are flagged degenerate and get nothing fitted."""
    labels = np.asarray(dataset.labels).astype(np.int64)
    n = len(dataset.records)
    if n != len(labels):
        raise ContractError("dataset records/labels mismatch")
    if labels.sum() == 0 or labels.sum() == n:
        raise DegenerateLabelsError("cross-validation needs both classes present")

    static_block = static_feature_block(dataset.records, config.hash_config)
    plan = FoldPlan(dataset, labels, k, seed, config, static_block, [], list(dataset.flags))
    if config.leaky_reputation:
        plan.flags.append("leaky-reputation: tables fitted on the full dataset")
    all_idx = np.arange(n)
    for fold_id, test_idx in enumerate(stratified_folds(labels, k, seed)):
        test_mask = np.zeros(n, dtype=bool)
        test_mask[test_idx] = True
        fold = PreparedFold(fold_id, all_idx[~test_mask], test_idx)
        plan.folds.append(fold)
        flags = []
        if len(np.unique(labels[fold.train_idx])) < 2:
            flags.append("degenerate: single-class training chunk")
        if len(np.unique(labels[test_idx])) < 2:
            flags.append("degenerate: single-class test chunk")
        if flags:
            fold.flags = tuple(flags)
            continue

        rep_rows = all_idx if config.leaky_reputation else fold.train_idx
        fold.table = build_reputation_table(dataset.records.take(rep_rows), labels[rep_rows])
        if config.frozen_ranking is not None:
            fold.order = config.frozen_ranking
        elif config.ranking_method is not None:
            rank_seed = _derived_seeds(seed, fold_id)[0]
            rows = fold.train_idx
            if len(rows) > RANK_SUBSAMPLE:
                rng = np.random.default_rng(np.random.SeedSequence([rank_seed, 0x7A5C]))
                rows = rows[rng.choice(len(rows), RANK_SUBSAMPLE, replace=False)]
            ranked = rank_features(
                plan.features(rows, fold.table, feature_names(config.hash_config)),
                labels[rows],
                ranking_method=config.ranking_method,
                forest_params=ranking_forest(rank_seed),
            )
            fold.order = tuple(ranked.column_names[i] for i in ranked.order)
    return plan


_EXCLUDED = Metrics(ConfusionMatrix(0, 0, 0, 0), 0.0, 0.0, 0.0, ("degenerate",))


def evaluate(
    plan: FoldPlan, model_kind: str, window: Optional[tuple[int, int]] = None
) -> EvalReport:
    """Fit, score and measure `model_kind` on every fold of `plan`, on the
    1-based (start, width) rank `window` of each fold's order (see
    `rank_window`), or on every column when folds have no order. Each
    fold's train and test matrices are one gather of those columns, held as
    their nonzero entries; the linear models standardize them inside their
    fits, and the fit and the scoring of the training rows read the same
    entries. Degenerate folds are
    flagged and left out, and a linear fit that did not converge is
    flagged but kept."""
    config = plan.config
    if window is not None and config.frozen_ranking is None and config.ranking_method is None:
        raise ContractError("a rank window needs a ranking method or a frozen ranking")
    labels = plan.labels
    report = EvalReport(model_kind, plan.k, plan.seed, folds=[], flags=list(plan.flags))

    pooled = np.full(len(labels), np.nan)
    for fold in plan.folds:
        if fold.table is None:
            report.folds.append(
                FoldResult(fold.fold, math.nan, _EXCLUDED, _EXCLUDED, None, None, None, fold.flags)
            )
            continue
        y_train, y_test = labels[fold.train_idx], labels[fold.test_idx]
        selected = None if fold.order is None else rank_window(fold.order, window)
        columns = feature_names(config.hash_config) if selected is None else selected
        X_train = plan.features(fold.train_idx, fold.table, columns)
        X_test = plan.features(fold.test_idx, fold.table, columns)

        hyper = config.hyper
        forest_seed = _derived_seeds(plan.seed, fold.fold)[1]
        hyper = dataclasses.replace(
            hyper, forest=dataclasses.replace(hyper.forest, seed=forest_seed)
        )
        model = train_model(model_kind, X_train, y_train, hyper)
        linear = {"logistic": hyper.logistic, "linear_svm": hyper.svm}.get(model_kind)
        notes = ()
        if linear is not None:
            norm = model.meta["final_grad_norm"]
            if not norm < linear.tolerance:
                notes = (f"{model_kind} {_NOT_CONVERGED} (gradient norm {norm:.3g})",)
        if model_kind == "forest":  # one pass of the trees over both row sets
            both = predict_score(model, _stacked_rows(X_train, X_test))
            train_scores, test_scores = np.split(both, [X_train.n_rows])
        else:
            train_scores = predict_score(model, X_train)
            test_scores = predict_score(model, X_test)
        pooled[fold.test_idx] = test_scores

        threshold = threshold_max_f1(train_scores, y_train)
        train_metrics = classification_metrics(y_train, train_scores >= threshold)
        test_metrics = classification_metrics(y_test, test_scores >= threshold)
        report.folds.append(
            FoldResult(
                fold=fold.fold,
                threshold=threshold,
                train=train_metrics,
                test=test_metrics,
                train_auc=roc_and_auc(train_scores, y_train).auc,
                test_auc=roc_and_auc(test_scores, y_test).auc,
                selected_columns=selected,
                flags=notes
                + tuple(f"train-{x}" for x in train_metrics.flags)
                + tuple(f"test-{x}" for x in test_metrics.flags),
            )
        )
    report.flags.extend(report.fold_flags())

    if not np.isnan(pooled).any():
        report.pooled_scores = pooled
        report.pooled_labels = labels
    return report


def cross_validate(
    dataset: LabeledDataset,
    model_kind: str,
    k: int = 10,
    seed: int = 0,
    config: PipelineConfig = PipelineConfig(),
    window: Optional[tuple[int, int]] = None,
) -> EvalReport:
    """Stratified k-fold evaluation of one model kind on raw records, on
    the rank `window` of each fold's order (see `evaluate`)."""
    check_windows(config, [window], [model_kind])
    return evaluate(prepare_folds(dataset, k, seed, config), model_kind, window)
