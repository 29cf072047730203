import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from metatriage.corpus import (
    CompositionRecipe,
    Corpus,
    DetectionLabelPolicy,
    LabeledDataset,
    compose_subset,
)
from metatriage.errors import ContractError, DegenerateLabelsError
from metatriage.evaluate import (
    ConfusionMatrix,
    EvalReport,
    FoldResult,
    Metrics,
    PipelineConfig,
    _stacked_rows,
    check_windows,
    classification_metrics,
    cross_validate,
    evaluate,
    prepare_folds,
    roc_and_auc,
    stratified_folds,
    threshold_max_f1,
)
from metatriage.featurize import (
    FeatureMatrix,
    HashConfig,
    build_reputation_table,
    hash_column_names,
)
from metatriage.learn import ForestParams, Hyperparams, LogisticParams, predict_score, train_model

from test_corpus import make_record


# ---------------------------------------------------------------------------
# Metrics


def oracle_metrics(labels, predicted):
    tp = fp = tn = fn = 0
    for y, p in zip(labels, predicted):
        if y == 1 and p == 1:
            tp += 1
        elif y == 0 and p == 1:
            fp += 1
        elif y == 0 and p == 0:
            tn += 1
        else:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return tp, fp, tn, fn, precision, recall, f1


class TestClassificationMetrics:
    def test_worked_example(self):
        # tp=3 fp=1 fn=2 tn=4
        labels = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        predicted = np.array([1, 1, 1, 0, 0, 1, 0, 0, 0, 0])
        m = classification_metrics(labels, predicted)
        assert m.confusion == ConfusionMatrix(tp=3, fp=1, tn=4, fn=2)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
        assert m.flags == ()

    def test_perfect_prediction(self):
        labels = np.array([0, 1, 1, 0])
        m = classification_metrics(labels, labels)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_no_positive_predictions_flagged(self):
        m = classification_metrics(np.array([1, 0]), np.array([0, 0]))
        assert m.precision == 0.0
        assert "precision:no-positive-predictions" in m.flags

    def test_no_positive_labels_flagged(self):
        m = classification_metrics(np.array([0, 0]), np.array([1, 0]))
        assert m.recall == 0.0
        assert "recall:no-positive-labels" in m.flags

    def test_zero_f1_flagged(self):
        m = classification_metrics(np.array([1, 0]), np.array([0, 1]))
        assert m.f1 == 0.0
        assert "f1:zero-precision-and-recall" in m.flags

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(200)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            labels = rng.integers(0, 2, n)
            predicted = rng.integers(0, 2, n)
            m = classification_metrics(labels, predicted)
            tp, fp, tn, fn, precision, recall, f1 = oracle_metrics(labels, predicted)
            assert (m.confusion.tp, m.confusion.fp, m.confusion.tn, m.confusion.fn) == (
                tp, fp, tn, fn,
            )
            assert m.precision == pytest.approx(precision, abs=1e-12)
            assert m.recall == pytest.approx(recall, abs=1e-12)
            assert m.f1 == pytest.approx(f1, abs=1e-12)

    def test_f1_is_the_harmonic_mean(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            labels = rng.integers(0, 2, 40)
            predicted = rng.integers(0, 2, 40)
            m = classification_metrics(labels, predicted)
            if m.precision > 0 and m.recall > 0:
                assert m.f1 == pytest.approx(
                    2.0 / (1.0 / m.precision + 1.0 / m.recall), abs=1e-12
                )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            classification_metrics(np.array([1, 0]), np.array([1]))


# ---------------------------------------------------------------------------
# ROC / AUC


def oracle_auc(scores, labels):
    """Pairwise statistic: P(s_pos > s_neg) + 0.5 P(tie)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        curve = roc_and_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        assert curve.auc == 1.0

    def test_inverted_separation(self):
        curve = roc_and_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0]))
        assert curve.auc == 0.0

    def test_constant_scores_give_half(self):
        curve = roc_and_auc(np.full(10, 0.5), np.array([1, 0] * 5))
        assert curve.auc == 0.5
        assert curve.points.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_worked_three_row_example(self):
        curve = roc_and_auc(np.array([0.9, 0.8, 0.3]), np.array([1, 0, 1]))
        assert curve.auc == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(4, 80))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0], labels[1] = 0, 1
            # quantized scores force plenty of ties
            scores = rng.integers(0, 6, n) / 5.0
            got = roc_and_auc(scores, labels).auc
            assert got == pytest.approx(oracle_auc(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            roc_and_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(203)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        base = roc_and_auc(scores, labels).auc
        assert roc_and_auc(np.exp(scores), labels).auc == base
        assert roc_and_auc(3.0 * scores + 7.0, labels).auc == base

    def test_curve_shape(self):
        rng = np.random.default_rng(204)
        scores = rng.normal(size=60)
        labels = rng.integers(0, 2, 60)
        labels[0], labels[1] = 0, 1
        pts = roc_and_auc(scores, labels).points
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[-1].tolist() == [1.0, 1.0]
        assert (np.diff(pts[:, 0]) >= 0).all()
        assert (np.diff(pts[:, 1]) >= 0).all()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            roc_and_auc(np.array([0.5]), np.array([1, 0]))


# ---------------------------------------------------------------------------
# Operating threshold


class TestThresholdMaxF1:
    def test_worked_example(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        labels = np.array([1, 0, 1, 0])
        # cuts: >=0.9 F1 2/3, >=0.8 F1 1/2, >=0.7 F1 4/5, >=0.6 F1 2/3
        assert threshold_max_f1(scores, labels) == 0.7

    def test_perfect_scores_pick_lowest_positive(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        thr = threshold_max_f1(scores, labels)
        assert thr == 0.8
        m = classification_metrics(labels, scores >= thr)
        assert m.f1 == 1.0

    def test_no_positive_labels_gives_infinity(self):
        assert threshold_max_f1(np.array([0.3, 0.2]), np.array([0, 0])) == math.inf

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(205)
        for _ in range(50):
            n = int(rng.integers(3, 50))
            scores = rng.integers(0, 8, n) / 7.0
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            best_f1, best_thr = -1.0, None
            for thr in sorted(set(scores.tolist()), reverse=True):
                f1 = classification_metrics(labels, scores >= thr).f1
                if f1 > best_f1:  # strict: ties keep the higher threshold
                    best_f1, best_thr = f1, thr
            got = threshold_max_f1(scores, labels)
            assert got == best_thr
            assert classification_metrics(labels, scores >= got).f1 == pytest.approx(
                best_f1, abs=1e-12
            )

    def test_ties_keep_highest_threshold(self):
        # both cuts reach F1 = 1 is impossible; craft equal-F1 ties instead
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        labels = np.array([1, 0, 0, 1])
        # >=0.9: F1 = 2/3; >=0.5: 2*1/(3+2)=0.4; >=0.1: 2*2/(4+2)=2/3 (tie)
        assert threshold_max_f1(scores, labels) == 0.9


# ---------------------------------------------------------------------------
# Folds


class TestStratifiedFolds:
    def test_exact_sizes_when_divisible(self):
        labels = np.array([1] * 30 + [0] * 70)
        folds = stratified_folds(labels, 10, seed=0)
        for fold in folds:
            assert len(fold) == 10
            assert labels[fold].sum() == 3

    def test_partition_property(self):
        rng = np.random.default_rng(206)
        labels = rng.integers(0, 2, 53)
        folds = stratified_folds(labels, 7, seed=1)
        joined = np.concatenate(folds)
        assert len(joined) == 53
        assert np.array_equal(np.sort(joined), np.arange(53))

    def test_four_rows_two_folds(self):
        labels = np.array([0, 1, 0, 1])
        folds = stratified_folds(labels, 2, seed=0)
        for fold in folds:
            assert len(fold) == 2
            assert labels[fold].sum() == 1

    def test_remainders_balance_fold_sizes(self):
        # 7 pos, 7 neg, k=3: positive remainder fills early folds, negative
        # remainder fills late folds, so sizes stay within one row
        labels = np.array([1] * 7 + [0] * 7)
        folds = stratified_folds(labels, 3, seed=2)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 5, 5]
        pos_counts = [int(labels[f].sum()) for f in folds]
        assert sorted(pos_counts) == [2, 2, 3]

    def test_determinism_and_seed_sensitivity(self):
        labels = np.array([0, 1] * 40)
        a = stratified_folds(labels, 5, seed=9)
        b = stratified_folds(labels, 5, seed=9)
        c = stratified_folds(labels, 5, seed=10)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_validation(self):
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError):
            stratified_folds(labels, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_folds(labels, 5, seed=0)


# ---------------------------------------------------------------------------
# Cross-validation


def quick_config(**kwargs):
    return PipelineConfig(
        hyper=Hyperparams(
            logistic=LogisticParams(tolerance=1e-4),
            forest=ForestParams(n_trees=15, max_depth=8, min_leaf=5),
        ),
        **kwargs,
    )


@pytest.fixture(scope="module")
def small_dataset(small_corpus):
    recipe = CompositionRecipe(
        malware_fraction=0.5,
        policy=DetectionLabelPolicy(threshold=1),
        target_size=400,
        seed=3,
    )
    return compose_subset(small_corpus, recipe)


class TestCrossValidate:
    def test_deterministic(self, small_dataset):
        config = quick_config()
        a = cross_validate(small_dataset, "forest", k=5, seed=2, config=config)
        b = cross_validate(small_dataset, "forest", k=5, seed=2, config=config)
        assert a.to_json() == b.to_json()

    def test_planted_signal_beats_shuffled_labels(self, small_dataset):
        config = quick_config()
        real = cross_validate(small_dataset, "forest", k=5, seed=2, config=config)
        rng = np.random.default_rng(0)
        shuffled = LabeledDataset(
            records=small_dataset.records,
            labels=rng.permutation(small_dataset.labels),
        )
        null = cross_validate(shuffled, "forest", k=5, seed=2, config=config)
        assert real.mean("test", "f1") - null.mean("test", "f1") >= 0.3
        assert real.mean("test", "auc") > 0.9

    def test_pooled_scores_cover_every_row(self, small_dataset):
        report = cross_validate(small_dataset, "logistic", k=5, seed=1,
                                config=quick_config())
        assert report.pooled_scores is not None
        assert len(report.pooled_scores) == len(small_dataset)
        pooled_auc = roc_and_auc(report.pooled_scores, report.pooled_labels).auc
        assert 0.5 < pooled_auc <= 1.0

    def test_single_class_dataset_rejected(self):
        records = Corpus.of(make_record(app_id=f"r{i}") for i in range(20))
        dataset = LabeledDataset(records=records, labels=np.zeros(20, dtype=int))
        with pytest.raises(DegenerateLabelsError):
            cross_validate(dataset, "forest", k=2, seed=0)

    def test_single_class_fold_flagged_and_excluded(self):
        # 2 positives, k=3: the last fold's test chunk has no positive
        records = Corpus.of(
            make_record(app_id=f"r{i}", developer_id=f"d{i % 4}",
                        detection_count=(5 if i < 2 else 0))
            for i in range(12)
        )
        labels = np.array([1 if r.detection_count else 0 for r in records])
        dataset = LabeledDataset(records=records, labels=labels)
        report = cross_validate(dataset, "forest", k=3, seed=0, config=quick_config())
        degenerate = [f for f in report.folds if f.degenerate]
        assert len(degenerate) == 1
        assert math.isnan(degenerate[0].threshold)
        assert any("excluded" in flag for flag in report.flags)
        # means come from the two healthy folds only
        healthy = [f for f in report.folds if not f.degenerate]
        assert report.mean("test", "f1") == pytest.approx(
            np.mean([f.test.f1 for f in healthy])
        )
        assert report.pooled_scores is None

    def test_selection_records_chosen_columns(self, small_dataset):
        config = quick_config(ranking_method="info_gain")
        report = cross_validate(small_dataset, "forest", k=3, seed=4, config=config,
                                window=(1, 10))
        for fold in report.folds:
            assert fold.selected_columns is not None
            assert len(fold.selected_columns) == 10

    def test_frozen_columns_are_used_verbatim(self, small_dataset):
        frozen = ("developer_rep", "issuer_rep", "num_permissions", "size_bytes")
        plan = prepare_folds(small_dataset, k=3, seed=4,
                             config=quick_config(frozen_ranking=frozen))
        assert all(fold.order == frozen for fold in plan.folds)
        report = evaluate(plan, "logistic")
        assert all(f.selected_columns == frozen for f in report.folds)
        assert report.flags == []
        for start, width in ((1, 4), (2, 2), (4, 1)):
            report = evaluate(plan, "logistic", (start, width))
            assert all(
                f.selected_columns == frozen[start - 1 : start - 1 + width]
                for f in report.folds
            )

    def test_one_plan_serves_every_window_of_its_ranking(self, small_dataset):
        config = quick_config(ranking_method="info_gain")
        plan = prepare_folds(small_dataset, k=3, seed=4, config=config)
        assert all(len(fold.order) == 512 + 24 for fold in plan.folds)
        report = evaluate(plan, "logistic", (3, 2))
        for fold, result in zip(plan.folds, report.folds):
            assert result.selected_columns == fold.order[2:4]
        assert evaluate(plan, "logistic", (1, 4)).to_json() == cross_validate(
            small_dataset, "logistic", k=3, seed=4, config=config, window=(1, 4)
        ).to_json()
        # a window past the end of the order is refused, not shortened
        with pytest.raises(ValueError, match="ranks 535-537 are out of range"):
            evaluate(plan, "logistic", (535, 3))

    def test_reputation_tables_are_train_only(self, small_corpus):
        records = small_corpus.take(np.arange(100))
        labels = np.array([1 if r.detection_count >= 1 else 0 for r in records])
        dataset = LabeledDataset(records=records, labels=labels)
        plan = prepare_folds(dataset, k=4, seed=6, config=quick_config())
        fitted = [fold for fold in plan.folds if fold.table is not None]
        assert len(fitted) == 4
        for fold in fitted:
            train_idx = fold.train_idx
            rebuilt = build_reputation_table(
                Corpus.of(records[i] for i in train_idx), labels[train_idx], alpha=1.0
            )
            assert fold.table.developers == rebuilt.developers
            assert fold.table.issuers == rebuilt.issuers
            assert fold.table.global_prior == rebuilt.global_prior
            # entities seen only in held-out rows must be absent
            train_devs = {records[i].developer_id for i in train_idx}
            for i in fold.test_idx:
                dev = records[i].developer_id
                if dev not in train_devs:
                    assert dev not in fold.table.developers

    def test_leaky_mode_differs_and_is_flagged(self, small_corpus):
        records = small_corpus.take(np.arange(100))
        labels = np.array([1 if r.detection_count >= 1 else 0 for r in records])
        dataset = LabeledDataset(records=records, labels=labels)
        safe_plan = prepare_folds(dataset, k=4, seed=6, config=quick_config())
        leaky_plan = prepare_folds(
            dataset, k=4, seed=6, config=quick_config(leaky_reputation=True)
        )
        safe = evaluate(safe_plan, "forest")
        leaky = evaluate(leaky_plan, "forest")
        assert any(flag.startswith("leaky-reputation") for flag in leaky.flags)
        assert not any(flag.startswith("leaky-reputation") for flag in safe.flags)
        assert any(
            a.table.developers != b.table.developers
            for a, b in zip(safe_plan.folds, leaky_plan.folds)
        )
        # the leaky table is fitted on everything, so it never changes
        first = leaky_plan.folds[0].table
        assert all(f.table.developers == first.developers for f in leaky_plan.folds)


class TestSparseHashFolds:
    def test_hash_only_evaluation_stays_under_a_quarter_of_the_dense_block(self, small_corpus):
        # The static block keeps its hash part sparse, and linear fits read
        # a fold's nonzero entries alone. A dense 2,000 x 2,048 block would
        # take 32.8 MB; the traced peak of the whole evaluation is about 2.3 MB
        # (0.07 of it); holding the hash part dense makes it about 77 MB.
        records = small_corpus.take(np.arange(2000))
        labels = np.array([int(r.detection_count >= 1) for r in records])
        hash_config = HashConfig(2048)
        config = PipelineConfig(
            hash_config=hash_config, frozen_ranking=hash_column_names(hash_config)
        )
        plan = prepare_folds(LabeledDataset(records, labels), k=3, seed=0, config=config)
        dense_bytes = len(records) * hash_config.n_buckets * 8
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = evaluate(plan, "logistic")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(report.folds) == 3 and not report.flags
        assert peak < dense_bytes / 4

    def test_forest_folds_make_one_dense_matrix(self, small_corpus):
        # A forest is scored on the dense rows of a fold's training and test
        # rows stacked. Made from the folds' entries, that one matrix is the
        # only dense one: the traced peak is about 1.4 times its bytes, where
        # densifying both row sets before stacking them makes it about 3.2.
        records = small_corpus.take(np.arange(2000))
        labels = np.array([int(r.detection_count >= 1) for r in records])
        hash_config = HashConfig(512)
        config = quick_config(
            hash_config=hash_config, frozen_ranking=hash_column_names(hash_config)
        )
        plan = prepare_folds(LabeledDataset(records, labels), k=3, seed=0, config=config)
        dense_bytes = len(records) * hash_config.n_buckets * 8
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = evaluate(plan, "forest")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(report.folds) == 3
        assert peak < 1.6 * dense_bytes


class TestStackedRows:
    def matrices(self, n_top, n_bottom, p=7, seed=0):
        rng = np.random.default_rng(seed)
        names = tuple(f"c{j}" for j in range(p))
        dense = [
            np.where(rng.random((n, p)) < 0.3, rng.normal(size=(n, p)).round(1), 0.0)
            for n in (n_top, n_bottom)
        ]
        sparse = [FeatureMatrix.from_entries(names, len(A), *FeatureMatrix(names, A).entries)
                  for A in dense]
        return dense, sparse

    @pytest.mark.parametrize("n_top, n_bottom", [(40, 9), (40, 0), (1, 1)])
    def test_rows_of_both_from_their_entries(self, n_top, n_bottom):
        (A, B), (top, bottom) = self.matrices(n_top, n_bottom)
        both = _stacked_rows(top, bottom)
        assert both.column_names == top.column_names
        assert np.array_equal(both.values, np.vstack((A, B)))
        assert top._values is None and bottom._values is None

    def test_one_forest_pass_scores_each_row_as_alone(self):
        (A, B), (top, bottom) = self.matrices(300, 60, seed=1)
        labels = (A[:, 0] + A[:, 3] > 0).astype(np.int64)
        model = train_model("forest", top, labels, Hyperparams(forest=ForestParams(n_trees=9)))
        train_scores, test_scores = np.split(
            predict_score(model, _stacked_rows(top, bottom)), [len(A)]
        )
        assert train_scores.tolist() == predict_score(model, top).tolist()
        assert test_scores.tolist() == predict_score(model, bottom).tolist()


class TestCheckWindows:
    def test_valid_windows(self):
        check_windows(PipelineConfig(ranking_method="mdni"), [(1, 536), (522, 15)])
        check_windows(
            PipelineConfig(hash_config=HashConfig(n_buckets=8), ranking_method="mdni"), [(1, 32)]
        )
        check_windows(PipelineConfig(frozen_ranking=("developer_rep", "size_bytes")), [(2, 1)])

    def test_window_past_either_end_is_refused(self):
        # every column, a column count that follows the hash buckets, and a
        # frozen order as long as its list
        for config, n in (
            (PipelineConfig(ranking_method="mdni"), 536),
            (PipelineConfig(hash_config=HashConfig(n_buckets=8), ranking_method="mdni"), 32),
            (PipelineConfig(frozen_ranking=("developer_rep", "issuer_rep", "size_bytes")), 3),
        ):
            for start, width in ((1, n + 1), (n, 2), (0, 1), (1, 0)):
                end = start + width - 1
                with pytest.raises(ValueError, match=f"ranks {start}-{end} .* has {n} columns"):
                    check_windows(config, [(1, 1), (start, width)])

    def test_mtry_is_checked_against_each_forests_columns(self):
        def config(mtry, **kwargs):
            return PipelineConfig(hyper=Hyperparams(forest=ForestParams(mtry=mtry)), **kwargs)

        check_windows(config(16), [None, (1, 16), (3, 16)], ["forest"])
        check_windows(config(16), [(1, 15)], ["logistic", "linear_svm"])  # no forest
        for pipeline, windows, width in (
            (config(16), [(1, 16), (2, 15)], 15),
            (config(537), [None], 536),
            (config(3, frozen_ranking=("f0", "f1")), [None], 2),
        ):
            mtry = pipeline.hyper.forest.mtry
            with pytest.raises(ValueError, match=f"mtry {mtry} exceeds the {width} columns"):
                check_windows(pipeline, windows, ["logistic", "forest"])

    def test_window_needs_an_order(self, small_dataset):
        bare = prepare_folds(small_dataset, k=3, seed=4, config=quick_config())
        assert all(fold.order is None for fold in bare.folds)
        assert all(f.selected_columns is None for f in evaluate(bare, "logistic").folds)
        with pytest.raises(ContractError):
            evaluate(bare, "logistic", (1, 4))

    def test_frozen_order_wins_over_ranking_method(self, small_dataset, monkeypatch):
        monkeypatch.setattr("metatriage.evaluate.rank_features", None)  # never called
        frozen = ("issuer_rep", "developer_rep")
        config = quick_config(ranking_method="mdni", frozen_ranking=frozen)
        plan = prepare_folds(small_dataset, k=3, seed=4, config=config)
        assert all(fold.order == frozen for fold in plan.folds)

    def test_cross_validate_checks_before_ranking(self, small_dataset, monkeypatch):
        monkeypatch.setattr("metatriage.evaluate.rank_features", None)  # never called
        with pytest.raises(ValueError, match="ranks 1-600 .* has 536 columns"):
            cross_validate(small_dataset, "forest", k=3, seed=4,
                           config=quick_config(ranking_method="mdni"), window=(1, 600))


class TestEvalReport:
    def one_fold(self, f1, flags=()):
        m = Metrics(ConfusionMatrix(1, 1, 1, 1), 0.5, 0.5, f1, ())
        return FoldResult(0, 0.5, m, m, 0.9, 0.8, None, flags)

    def test_mean_skips_degenerate_folds(self):
        report = EvalReport(
            model_kind="forest", k=2, seed=0,
            folds=[self.one_fold(0.6), self.one_fold(0.0, ("degenerate: x",))],
        )
        assert report.mean("test", "f1") == pytest.approx(0.6)

    def test_empty_report_means_are_nan(self):
        report = EvalReport(model_kind="forest", k=2, seed=0, folds=[])
        assert math.isnan(report.mean("test", "f1"))

    def test_csv_has_header_and_fold_rows(self):
        report = EvalReport(
            model_kind="forest", k=2, seed=0,
            folds=[self.one_fold(0.6), self.one_fold(0.7)],
        )
        lines = report.to_csv_text().splitlines()
        assert lines[0].startswith("fold,threshold,train_precision")
        assert len(lines) == 3

    def test_json_summarizes_means_and_folds(self):
        report = EvalReport(
            model_kind="forest", k=2, seed=0, folds=[self.one_fold(0.6)],
        )
        doc = report.to_json()
        assert doc["model_kind"] == "forest"
        assert doc["means"]["test"]["f1"] == pytest.approx(0.6)
        assert doc["folds"][0]["test"]["confusion"]["tp"] == 1

    def test_invalid_metric_axis_rejected(self):
        report = EvalReport(model_kind="forest", k=2, seed=0, folds=[])
        with pytest.raises(ValueError):
            report.mean("validation", "f1")
