import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import metatriage.learn
from metatriage.errors import ContractError, decode_section
from metatriage.featurize import FeatureMatrix
from metatriage.learn import (
    ForestModel,
    ForestParams,
    Hyperparams,
    LinearModel,
    LogisticParams,
    SvmParams,
    Tree,
    _best_splits,
    _check_training_inputs,
    _ValueCodes,
    best_split,
    logistic_loss_grad,
    predict_score,
    svm_loss_grad,
    train_forest,
    train_linear_svm,
    train_logistic,
    train_model,
)


def two_clusters(n=200, gap=2.0, seed=0):
    """Linearly separable blobs at +-gap on both axes."""
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n // 2))
    centers = np.where(y[:, None] == 1, gap, -gap)
    X = centers + rng.normal(0, 0.3, size=(n, 2))
    return FeatureMatrix(("x0", "x1"), X), y


def mixed_columns(n=300, seed=3):
    """Six sparse count columns (about 5% nonzero) and three dense normal
    columns with different means and scales, and labels from a noisy
    linear rule on their standardized values."""
    rng = np.random.default_rng(seed)
    sparse = (rng.random((n, 6)) < 0.05) * rng.integers(1, 4, (n, 6))
    dense = rng.normal(size=(n, 3)) * [1.0, 5.0, 0.2] + [0.0, 40.0, -3.0]
    A = np.column_stack([sparse, dense]).astype(float)
    standardized = (A - A.mean(axis=0)) / A.std(axis=0)
    y = (standardized @ rng.normal(size=9) + rng.normal(size=n) > 0).astype(int)
    return FeatureMatrix(tuple(f"c{j}" for j in range(9)), A), y


def codes_of(A):
    """The value codes of the dense matrix `A`."""
    return _ValueCodes.of(FeatureMatrix(tuple(f"c{j}" for j in range(A.shape[1])), A))


def logistic_row_loss(z, y):
    return np.logaddexp(0.0, z) - y * z


def squared_hinge_row_loss(z, y):
    return np.maximum(0.0, 1.0 - (2.0 * y - 1.0) * z) ** 2


def fd_gradient(w, b, X, y, lam, row_loss=logistic_row_loss, eps=1e-6):
    """Central finite differences of a mean row loss plus (lam/2)*||w||^2."""

    def loss_at(wv, bv):
        return float(np.mean(row_loss(X @ wv + bv, y))) + 0.5 * lam * float(wv @ wv)

    gw = np.zeros_like(w)
    for i in range(len(w)):
        step = np.zeros_like(w)
        step[i] = eps
        gw[i] = (loss_at(w + step, b) - loss_at(w - step, b)) / (2 * eps)
    gb = (loss_at(w, b + eps) - loss_at(w, b - eps)) / (2 * eps)
    return gw, gb


class NewtonFitChecks:
    """Checks that hold for both linear kinds, which share one Newton-CG
    solver; each subclass names its trainer, params, objective and row loss."""

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, p = int(rng.integers(5, 30)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            y = rng.integers(0, 2, n).astype(np.float64)
            w = rng.normal(size=p)
            b = float(rng.normal())
            lam = float(rng.uniform(0, 0.5))
            _, gw, gb = self.loss_grad(w, b, X, y, lam)
            fw, fb = fd_gradient(w, b, X, y, lam, self.row_loss)
            assert np.allclose(gw, fw, atol=1e-5)
            assert gb == pytest.approx(fb, abs=1e-5)

    @pytest.mark.parametrize("problem", ["separable", "all_positive", "wide", "noisy"])
    def test_returned_gradient_norm_is_below_tolerance(self, problem):
        rng = np.random.default_rng(11)
        if problem == "separable":
            X, y = two_clusters(n=200, gap=3.0)
        elif problem == "all_positive":
            X = FeatureMatrix(("x0", "x1"), rng.normal(size=(50, 2)))
            y = np.ones(50, dtype=int)
        else:
            # a standardized 1,333 x 2,048 matrix of sparse indicator columns,
            # the shape of one training fold at the sweep's widest point
            n, p = (1333, 2048) if problem == "wide" else (300, 12)
            A = (rng.random((n, p)) < 0.02).astype(float)
            truth = rng.normal(size=p) * (rng.random(p) < 0.3)
            y = (A @ truth + rng.normal(size=n) > 0).astype(int)
            std = A.std(axis=0)
            A = (A - A.mean(axis=0)) / np.where(std > 0, std, 1.0)
            X = FeatureMatrix(tuple(f"f{j}" for j in range(p)), A)
        # The fit minimizes the objective over the explicitly standardized
        # columns; its raw-unit weights w/sd map back, and its bias is b.
        mean, scale = X.values.mean(axis=0), X.values.std(axis=0)
        scale[scale == 0.0] = 1.0
        standardized = (X.values - mean) / scale
        for tolerance in (1e-6, 1e-9):
            model = self.train(X, y, self.params(tolerance=tolerance))
            _, gw, gb = self.loss_grad(
                model.weights * scale,
                model.bias,
                standardized,
                y.astype(np.float64),
                1.0 / len(y),
            )
            norm = np.sqrt(gw @ gw + gb * gb)
            assert norm < tolerance
            assert model.meta["final_grad_norm"] == pytest.approx(norm, rel=1e-6, abs=1e-15)
            assert 1 <= model.meta["epochs_run"] < metatriage.learn._MAX_NEWTON_STEPS

    def test_scores_invariant_to_positive_column_affine_maps(self):
        # A*c + s per column standardizes to the same matrix; the shift
        # also moves the sparse columns into the dense block.
        X, y = mixed_columns()
        rng = np.random.default_rng(9)
        c = rng.uniform(0.01, 100.0, X.n_columns)
        s = rng.normal(0.0, 50.0, X.n_columns)
        moved = FeatureMatrix(X.column_names, X.values * c + s)
        for tolerance in (1e-6, 1e-9):
            a = self.train(X, y, self.params(tolerance=tolerance))
            b = self.train(moved, y, self.params(tolerance=tolerance))
            assert np.allclose(predict_score(a, X), predict_score(b, moved), rtol=0, atol=1e-9)

    def test_raw_scores_keep_precision_on_a_large_mean_column(self):
        X, y = mixed_columns()
        values = X.values.copy()
        values[:, -1] += 1e7  # mean/sd about 5e7
        column = values[:, -1]
        assert column.mean() / column.std() >= 1e6
        raw = FeatureMatrix(X.column_names, values)
        standardized = FeatureMatrix(
            X.column_names, (values - values.mean(axis=0)) / values.std(axis=0)
        )
        for tolerance in (1e-6, 1e-9):
            a = self.train(raw, y, self.params(tolerance=tolerance))
            b = self.train(standardized, y, self.params(tolerance=tolerance))
            assert np.allclose(
                predict_score(a, raw), predict_score(b, standardized), rtol=0, atol=1e-9
            )

    def test_newton_step_cap_stops_short_of_tolerance(self, monkeypatch):
        monkeypatch.setattr(metatriage.learn, "_MAX_NEWTON_STEPS", 1)
        X, y = two_clusters(n=80)
        model = self.train(X, y, self.params())
        assert model.meta["epochs_run"] == 1
        assert model.meta["final_grad_norm"] >= self.params().tolerance

    def test_row_order_invariance(self):
        X, y = two_clusters(n=60)
        perm = np.random.default_rng(5).permutation(60)
        shuffled = FeatureMatrix(X.column_names, X.values[perm])
        a = self.train(X, y, self.params())
        b = self.train(shuffled, y[perm], self.params())
        # full-batch Newton is row-order independent up to summation order
        assert np.allclose(a.weights, b.weights, atol=1e-12)
        assert a.bias == pytest.approx(b.bias, abs=1e-12)

    def test_mismatched_labels_rejected(self):
        X, y = two_clusters()
        with pytest.raises(ContractError):
            self.train(X, y[:-1], self.params())
        with pytest.raises(ContractError):
            self.train(X, y + 1, self.params())


class TestLogistic(NewtonFitChecks):
    train = staticmethod(train_logistic)
    params = LogisticParams
    loss_grad = staticmethod(logistic_loss_grad)
    row_loss = staticmethod(logistic_row_loss)

    def test_separates_clusters(self):
        X, y = two_clusters()
        model = train_logistic(X, y)
        scores = predict_score(model, X)
        assert scores[y == 1].min() > scores[y == 0].max()

    def test_all_positive_labels_drive_bias_up(self):
        X = FeatureMatrix(("x0",), np.zeros((30, 1)))
        y = np.ones(30, dtype=int)
        model = train_logistic(X, y)
        assert model.bias > 0
        assert predict_score(model, X).min() > 0.9


class TestLinearSvm(NewtonFitChecks):
    train = staticmethod(train_linear_svm)
    params = SvmParams
    loss_grad = staticmethod(svm_loss_grad)
    row_loss = staticmethod(squared_hinge_row_loss)

    def test_separates_clusters(self):
        X, y = two_clusters()
        model = train_linear_svm(X, y)
        margins = predict_score(model, X)
        assert ((margins > 0).astype(int) == y).all()

    def test_same_seed_reproduces(self):
        X, y = two_clusters(n=100)
        a = train_linear_svm(X, y)
        b = train_linear_svm(X, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias


def oracle_best_split(A, y, features, min_leaf):
    """Exhaustive split search; strict improvement keeps the first optimum."""
    n = len(y)
    best = None
    for j in features:
        distinct = sorted(set(A[:, j].tolist()))
        for lo, hi in zip(distinct, distinct[1:]):
            thr = (lo + hi) / 2.0
            left = A[:, j] <= thr
            nl = int(left.sum())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            ml = float(y[left].sum())
            mr = float(y[~left].sum())
            cost = ml * (nl - ml) / nl + mr * (nr - mr) / nr
            if best is None or cost < best[2]:
                best = (int(j), thr, cost)
    return best


class TestBestSplit:
    def test_hand_case_perfect_split(self):
        A = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        found = best_split(A, y, np.array([0]), min_leaf=1)
        assert found == (0, 2.5, 0.0)

    def test_tie_prefers_lower_feature_index(self):
        col = np.array([1.0, 2.0, 3.0, 4.0])
        A = np.column_stack([col, col])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        found = best_split(A, y, np.array([0, 1]), min_leaf=1)
        assert found[0] == 0

    def test_tie_prefers_lower_threshold(self):
        # y = [0,1,0,1] over x = [1,2,3,4]: every boundary has equal cost.
        A = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        found = best_split(A, y, np.array([0]), min_leaf=1)
        assert found[1] == 1.5

    def test_min_leaf_restricts_boundaries(self):
        A = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0])
        # the cost-0 boundary (3|1) is forbidden at min_leaf=2
        found = best_split(A, y, np.array([0]), min_leaf=2)
        assert found[1] == 2.5

    def test_constant_column_yields_none(self):
        A = np.ones((6, 1))
        y = np.array([0.0, 1.0] * 3)
        assert best_split(A, y, np.array([0]), min_leaf=1) is None

    def test_min_leaf_too_large_yields_none(self):
        A = np.arange(4, dtype=np.float64).reshape(-1, 1)
        y = np.array([0.0, 1.0, 0.0, 1.0])
        assert best_split(A, y, np.array([0]), min_leaf=3) is None

    def test_min_leaf_zero_matches_the_oracle(self):
        # the last distinct value of a column is never a boundary, so a
        # right side of no rows is not searched even when min_leaf allows it
        A = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 6.0], [4.0, 6.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0])
        assert best_split(A, y, np.array([0, 1]), min_leaf=0) == (0, 3.5, 0.0)
        assert best_split(A, y, np.array([1]), min_leaf=0) == (1, 5.5, 0.5)
        rng = np.random.default_rng(78)
        for _ in range(30):
            n, p = int(rng.integers(2, 30)), int(rng.integers(1, 4))
            A = rng.integers(0, 5, size=(n, p)).astype(np.float64)
            y = rng.integers(0, 2, n).astype(np.float64)
            got = best_split(A, y, np.arange(p), 0)
            want = oracle_best_split(A, y, np.arange(p), 0)
            assert (got is None) == (want is None)
            if want is not None:
                assert got[:2] == want[:2]
                assert got[2] == pytest.approx(want[2], abs=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            p = int(rng.integers(1, 5))
            A = rng.integers(0, 6, size=(n, p)).astype(np.float64)
            y = rng.integers(0, 2, n).astype(np.float64)
            min_leaf = int(rng.integers(1, 4))
            got = best_split(A, y, np.arange(p), min_leaf)
            want = oracle_best_split(A, y, np.arange(p), min_leaf)
            if want is None:
                assert got is None
                continue
            assert got[0] == want[0]
            assert got[1] == want[1]
            assert got[2] == pytest.approx(want[2], abs=1e-12)

    def test_weighted_nodes_match_oracle_on_expanded_rows(self):
        # Several nodes searched in one call, rows counted 1-3 times each
        # (as in a bootstrap sample), against the oracle on the rows
        # repeated by their counts.
        rng = np.random.default_rng(31)
        n, p = 60, 5
        A = rng.integers(0, 6, size=(n, p)).astype(np.float64)
        A[:, 1] += rng.normal(size=n).round(1)
        y = rng.integers(0, 2, n)
        vc = codes_of(A)
        for _ in range(40):
            S, mtry = int(rng.integers(1, 5)), int(rng.integers(1, p + 1))
            min_leaf = int(rng.integers(1, 4))
            nodes = [rng.choice(n, int(rng.integers(2, 20)), replace=False) for _ in range(S)]
            counts = [rng.integers(1, 4, len(r)) for r in nodes]
            tried = np.sort([rng.choice(p, mtry, replace=False) for _ in range(S)], axis=1)
            rows = np.concatenate(nodes)
            found = _best_splits(
                vc, rows, np.concatenate(counts) * (1.0 + y[rows] * metatriage.learn._LABEL_SHIFT),
                np.cumsum([0] + [len(r) for r in nodes]), tried,
                np.array([c.sum() for c in counts], dtype=np.float64),
                np.array([(c * y[r]).sum() for c, r in zip(counts, nodes)], dtype=np.float64),
                min_leaf,
            )
            got = {int(s): (int(f), lc, t, c) for s, f, lc, t, c in zip(*found)}
            for s in range(S):
                rows = np.repeat(nodes[s], counts[s])
                want = oracle_best_split(A[rows], y[rows].astype(np.float64), tried[s], min_leaf)
                if want is None:
                    assert s not in got
                    continue
                feature, left_code, threshold, cost = got[s]
                assert (feature, threshold) == want[:2]
                assert cost == pytest.approx(want[2], abs=1e-12)
                assert np.array_equal(
                    vc.codes[feature, rows] <= left_code, A[rows, feature] <= threshold
                )


def assert_same_trees(a, b):
    assert len(a) == len(b)
    for s, t in zip(a, b):
        for f in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(s, f), getattr(t, f))


class TestTrees:
    def perfect_feature(self, n=100):
        y = np.array([0, 1] * (n // 2), dtype=np.float64)
        A = y.reshape(-1, 1).copy()
        return A, y

    def test_single_tree_on_perfect_feature(self):
        A, y = self.perfect_feature()
        X = FeatureMatrix(("x0",), A)
        model = train_forest(X, y.astype(int), ForestParams(n_trees=1, seed=0))
        scores = predict_score(model, X)
        assert np.array_equal(scores, y)

    def test_single_tree_structure_and_importance(self):
        A, y = self.perfect_feature()
        X = FeatureMatrix(("x0",), A)
        model = train_forest(X, y.astype(int), ForestParams(n_trees=1, seed=0))
        tree = model.trees[0]
        assert tree.n_nodes == 3
        assert tree.feature[0] == 0
        assert tree.left[0] == 1  # breadth-first ids: root, then its children
        assert tree.right[0] == 2
        # the root holds the bootstrap sample; its pure children cost 0
        rng = np.random.default_rng(np.random.SeedSequence([0, 0xF0BE57, 0]))
        m = float(y[rng.integers(0, 100, 100)].sum())
        assert tree.value[0] == m / 100
        expected = 2.0 * (m * (100 - m) / 100) / 100
        assert model.importances[0] == pytest.approx(expected, abs=1e-15)

    def test_pure_labels_give_single_leaf(self):
        X = FeatureMatrix(("x0",), np.arange(20, dtype=np.float64).reshape(-1, 1))
        model = train_forest(X, np.zeros(20, dtype=int), ForestParams(n_trees=3))
        assert all(t.n_nodes == 1 for t in model.trees)
        assert predict_score(model, X).tolist() == [0.0] * 20

    def test_max_depth_one_caps_trees_at_stumps(self):
        X, y = two_clusters(n=60)
        model = train_forest(X, y, ForestParams(n_trees=3, max_depth=1))
        assert all(t.n_nodes <= 3 for t in model.trees)
        with pytest.raises(ValueError):
            ForestParams(max_depth=0)

    def test_min_leaf_limits_growth(self):
        A, y = self.perfect_feature(n=20)
        X = FeatureMatrix(("x0",), A)
        model = train_forest(
            X, y.astype(int), ForestParams(n_trees=1, min_leaf=50)
        )
        assert model.trees[0].n_nodes == 1

    def test_seed_reproducibility(self):
        X, y = two_clusters(n=120)
        a = train_forest(X, y, ForestParams(n_trees=5, seed=3))
        b = train_forest(X, y, ForestParams(n_trees=5, seed=3))
        assert np.array_equal(predict_score(a, X), predict_score(b, X))
        assert np.array_equal(a.importances, b.importances)

    def test_seed_sensitivity(self):
        # predictions saturate on separable data, so compare the fitted
        # structure: bootstrap draws shift the chosen thresholds
        X, y = two_clusters(n=120)
        a = train_forest(X, y, ForestParams(n_trees=5, seed=3))
        b = train_forest(X, y, ForestParams(n_trees=5, seed=4))
        assert not np.array_equal(a.importances, b.importances)

    def test_trees_depend_only_on_seed_and_index(self):
        X, y = two_clusters(n=120, gap=0.3)
        few = train_forest(X, y, ForestParams(n_trees=3, seed=6))
        more = train_forest(X, y, ForestParams(n_trees=5, seed=6))
        assert_same_trees(few.trees, more.trees[:3])

    def test_search_chunk_size_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(12)
        A = rng.integers(0, 8, size=(150, 9)).astype(np.float64)
        A[:, 0] += rng.normal(size=150)
        y = (A[:, 0] + A[:, 1] + rng.normal(size=150) > 7).astype(int)
        X = FeatureMatrix(tuple(f"x{j}" for j in range(9)), A)
        params = ForestParams(n_trees=4, seed=2)
        big = train_forest(X, y, params)
        monkeypatch.setattr(metatriage.learn, "_SEARCH_CHUNK", 5)
        tiny = train_forest(X, y, params)
        assert_same_trees(big.trees, tiny.trees)
        assert np.array_equal(big.importances, tiny.importances)

    def test_given_value_codes_change_nothing(self):
        X, y = mixed_columns()
        params = ForestParams(n_trees=6, seed=5)
        plain = train_forest(X, y, params)
        given = train_forest(X, y, params, codes=_ValueCodes.of(X))
        assert_same_trees(plain.trees, given.trees)
        assert np.array_equal(plain.importances, given.importances)

    def test_value_codes_of_another_matrix_rejected(self):
        X, y = mixed_columns()
        with pytest.raises(ContractError, match="value codes"):
            train_forest(X, y, ForestParams(n_trees=1), codes=codes_of(X.values[:, :4]))

    def test_rows_past_the_label_shift_rejected(self, monkeypatch):
        # positives ride in the row counts' bincount as multiples of the
        # shift, so a fit with as many rows would merge the two counts
        X, y = two_clusters(n=20)
        monkeypatch.setattr(metatriage.learn, "_LABEL_SHIFT", 20)
        with pytest.raises(ContractError, match="fewer than 20 rows"):
            train_forest(X, y, ForestParams(n_trees=1))

    def test_mtry_exceeding_feature_count_rejected(self):
        X, y = two_clusters(n=20)
        with pytest.raises(ContractError):
            train_forest(X, y, ForestParams(n_trees=1, mtry=3))

    def test_no_columns_give_single_leaves(self):
        X = FeatureMatrix((), np.zeros((10, 0)))
        y = np.array([0, 1] * 5)
        params = ForestParams(n_trees=3, seed=2)
        model = train_forest(X, y, params)
        assert_same_trees(model.trees, reference_train_forest(X, y, params).trees)
        assert all(t.n_nodes == 1 for t in model.trees)
        assert predict_score(model, X).shape == (10,)

    def test_importances_are_nonnegative_and_named(self):
        X, y = two_clusters(n=120)
        model = train_forest(X, y, ForestParams(n_trees=10, seed=1))
        assert model.importances.shape == (2,)
        assert (model.importances >= 0).all()
        assert model.importances.sum() > 0


# A simpler level-wise forest, kept as the oracle that `train_forest` must
# match bit for bit: each tree draws its tried columns per level, and each
# split search takes at least one whole node and all of its tried columns.
REFERENCE_CHUNK = 1 << 18
REFERENCE_NO_SPLITS = (np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),) * 2


def reference_best_splits(
    vc: _ValueCodes, y: np.ndarray, rows: np.ndarray, weights: np.ndarray, starts: np.ndarray,
    tried: np.ndarray, n_node: np.ndarray, m_node: np.ndarray, min_leaf: int,
) -> tuple[np.ndarray, ...]:
    """The oracle split search: every group spans its column's codes, and
    positives count in a second run of slots."""
    S, mtry = tried.shape
    sizes = np.diff(starts)
    width = (vc.offsets[tried + 1] - vc.offsets[tried]).ravel()
    group_start = np.cumsum(width) - width
    n_keys = int(width.sum())
    at = np.repeat(tried * vc.codes.shape[1], sizes, axis=0)
    at += rows[:, None]
    key = np.repeat(group_start.reshape(S, mtry), sizes, axis=0)
    key += vc.codes.ravel()[at]
    del at
    key += y[rows][:, None] * n_keys  # positives count in a second run of slots
    counts = np.bincount(key.ravel(), weights=np.repeat(weights, mtry), minlength=2 * n_keys)
    del key  # the search's largest arrays; what follows is per position
    n_at = counts[:n_keys] + counts[n_keys:]
    present = np.flatnonzero(n_at)
    n_at, m_at = n_at[present], counts[n_keys + present]
    group = np.searchsorted(group_start, present, side="right") - 1
    first = np.diff(group, prepend=-1) != 0
    # Prefix sums that restart at each group's first present value.
    head = np.maximum.accumulate(np.where(first, np.arange(len(present)), 0))
    nl, ml = np.cumsum(n_at), np.cumsum(m_at)
    nl -= (nl - n_at)[head]
    ml -= (ml - m_at)[head]
    # A boundary follows every present value but the last of its group.
    b = np.flatnonzero(~first[1:])
    node = group[b] // mtry
    nl, ml = nl[b], ml[b]
    valid = (nl >= min_leaf) & (n_node[node] - nl >= min_leaf)
    b, node, nl, ml = b[valid], node[valid], nl[valid], ml[valid]
    if len(b) == 0:
        return REFERENCE_NO_SPLITS
    nr = n_node[node] - nl
    mr = m_node[node] - ml
    cost = ml * (nl - ml) / nl + mr * (nr - mr) / nr
    # Boundaries come in node order, so each node's first minimum wins.
    new_node = np.r_[True, node[1:] != node[:-1]]
    node_min = np.minimum.reduceat(cost, np.flatnonzero(new_node))
    at_min = np.flatnonzero(cost == node_min[np.cumsum(new_node) - 1])
    win = at_min[np.r_[True, node[at_min[1:]] != node[at_min[:-1]]]]
    b, node = b[win], node[win]
    feature = tried[node, group[b] % mtry]
    shift = vc.offsets[feature] - group_start[group[b]]  # position + shift = value index
    lo, hi = vc.values[present[b] + shift], vc.values[present[b + 1] + shift]
    return node, feature, present[b] + shift - vc.offsets[feature], (lo + hi) / 2.0, cost[win]


def reference_train_forest(X, y, params=ForestParams(), codes=None):
    """The oracle forest: one draw per tree and level, and one search per
    run of whole nodes."""
    y01 = _check_training_inputs(X, y).astype(np.int64)
    n, p = X.n_rows, X.n_columns
    if params.mtry > p:
        raise ContractError(f"mtry {params.mtry} exceeds feature count {p}")
    mtry = min(params.mtry or math.ceil(math.sqrt(p)), p)
    vc = _ValueCodes.of(X) if codes is None else codes
    if vc.codes.shape != (p, n):
        raise ContractError(f"value codes of shape {vc.codes.shape} for a {n} x {p} matrix")
    seed = params.seed & 0xFFFFFFFFFFFFFFFF
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, 0xF0BE57, t]))
            for t in range(params.n_trees)]
    counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for rng in rngs])
    # The frontier holds one depth's nodes, ordered by tree, then node id.
    # Each distinct row of a node is an entry (front, rows, weights), with
    # entries sorted by their node.
    front, rows = np.nonzero(counts)
    weights = counts[front, rows].astype(np.float64)
    del counts  # n_trees x n int64; the entries hold what the fit needs
    f_tree = np.arange(params.n_trees)
    n_nodes = np.ones(params.n_trees, dtype=np.int64)
    importances = np.zeros((params.n_trees, p))
    levels = []
    while len(f_tree):
        F = len(f_tree)
        n_node = np.bincount(front, weights=weights, minlength=F)
        m_node = np.bincount(front, weights=weights * y01[rows], minlength=F)
        grow = (m_node > 0) & (m_node < n_node) & (n_node >= 2 * params.min_leaf)
        if params.max_depth is not None and len(levels) >= params.max_depth:
            grow[:] = False
        cand = np.flatnonzero(grow)
        # Each tree draws the columns its growable nodes try, in node order.
        tried = np.tile(np.arange(mtry), (len(cand), 1))  # every column if mtry == p
        if mtry < p:
            bounds = np.searchsorted(f_tree[cand], np.arange(params.n_trees + 1))
            for t in np.flatnonzero(np.diff(bounds)):
                keys = rngs[t].random((bounds[t + 1] - bounds[t], p))
                tried[bounds[t] : bounds[t + 1]] = np.sort(
                    np.argpartition(keys, mtry - 1, axis=1)[:, :mtry], axis=1
                )

        keep = grow[front]
        rows, weights, front = rows[keep], weights[keep], front[keep]
        starts = np.searchsorted(front, np.append(cand, F))
        load = np.diff(starts) * mtry + (vc.offsets[tried + 1] - vc.offsets[tried]).sum(axis=1)
        ends = np.cumsum(load)
        found, a = [REFERENCE_NO_SPLITS], 0
        while a < len(cand):
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - load[a] + REFERENCE_CHUNK, "right")))
            lo, hi = starts[a], starts[b]
            node, *split = reference_best_splits(
                vc, y01, rows[lo:hi], weights[lo:hi], starts[a : b + 1] - lo,
                tried[a:b], n_node[cand[a:b]], m_node[cand[a:b]], params.min_leaf,
            )
            found.append((cand[a + node], *split))
            a = b
        split, feat, last, thr, cost = (np.concatenate(f) for f in zip(*found))
        m, nn = m_node[split], n_node[split]
        decrease = 2.0 * (m * (nn - m) / nn - cost) / n
        ok = decrease > 0
        split, feat, last, thr, decrease = (v[ok] for v in (split, feat, last, thr, decrease))

        st = f_tree[split]
        np.add.at(importances, (st, feat), decrease)
        feature, last_left, child = (np.full(F, -1, dtype=np.int64) for _ in range(3))
        threshold, left, right = np.zeros(F), feature.copy(), feature.copy()
        feature[split], threshold[split], last_left[split] = feat, thr, last
        left[split] = n_nodes[st] + 2 * (np.arange(len(st)) - np.searchsorted(st, st))
        right[split] = left[split] + 1
        n_nodes += 2 * np.bincount(st, minlength=params.n_trees)
        levels.append((f_tree, feature, threshold, left, right, m_node / n_node))

        # The next frontier is the children, in order; a row goes right when
        # its code is past the split's last left code.
        child[split] = 2 * np.arange(len(split))
        routed = child[front] >= 0
        rows, weights, front = rows[routed], weights[routed], front[routed]
        front = child[front] + (vc.codes[feature[front], rows] > last_left[front])
        order = np.argsort(front, kind="stable")
        rows, weights, front = rows[order], weights[order], front[order]
        del order  # entry-sized, like rows; not kept through the next search
        f_tree = np.repeat(st, 2)

    # Within a tree, nodes were made in breadth-first id order.
    tree_of, *arrays = (np.concatenate(parts) for parts in zip(*levels))
    by_tree = np.split(np.argsort(tree_of, kind="stable"), np.cumsum(n_nodes)[:-1])
    return ForestModel(
        kind="forest",
        trees=[Tree(*(a[ids] for a in arrays)) for ids in by_tree],
        column_names=X.column_names,
        importances=importances.sum(axis=0) / params.n_trees,
    )


def oracle_matrix(n, p, seed):
    """Constant, tied and one-value-per-row columns in turn, and labels
    with both classes from two rows on."""
    rng = np.random.default_rng(seed)
    kinds = (
        lambda: np.full(n, 2.5),
        lambda: rng.integers(0, 4, n).astype(np.float64),
        lambda: rng.permutation(n) / 7.0,
    )
    A = np.column_stack([kinds[(j + seed) % 3]() for j in range(p)])
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1][:n]
    return FeatureMatrix(tuple(f"c{j}" for j in range(p)), A), y


def assert_same_forest(got, want):
    assert_same_trees(got.trees, want.trees)
    assert np.array_equal(got.importances, want.importances)


class TestForestOracle:
    @pytest.mark.parametrize("k,n,p", [
        (4 * i + j, n, p)
        for i, n in enumerate((1, 2, 50, 400))
        for j, p in enumerate((1, 3, 15, 120))
    ])
    def test_trees_and_importances_equal_the_oracle(self, k, n, p):
        X, y = oracle_matrix(n, p, seed=k)
        for m, mtry in enumerate((0, 1, p)):
            params = ForestParams(
                n_trees=(1, 7, 60)[k % 3], max_depth=(None, 1, 8)[(k + m) % 3],
                min_leaf=(1, 20)[(k + m) % 2], mtry=mtry, seed=100 + k,
            )
            assert_same_forest(train_forest(X, y, params), reference_train_forest(X, y, params))

    @pytest.mark.parametrize("draw_bytes", [1, 8 * 15 * 3, 8 * 15 * 50])
    def test_key_block_size_changes_nothing(self, monkeypatch, draw_bytes):
        # blocks of one node, of three nodes (a tree's nodes spread over
        # several blocks) and of fifty (several trees in one block)
        X, y = oracle_matrix(400, 15, seed=3)
        params = ForestParams(n_trees=7, max_depth=6, seed=11)
        want = reference_train_forest(X, y, params)
        monkeypatch.setattr(metatriage.learn, "_DRAW_BYTES", draw_bytes)
        assert_same_forest(train_forest(X, y, params), want)

    def test_search_cap_bounds_memory_and_changes_nothing(self, monkeypatch):
        # The root holds about 1,900 distinct rows x 7 tried columns plus
        # 7 x 3,000 code positions, past 2**14: below that cap it is
        # searched a run of its tried columns at a time, and at 2**10 one
        # column at a time.
        X, y = oracle_matrix(3000, 40, seed=9)
        params = ForestParams(n_trees=1, max_depth=3, seed=4)
        codes = _ValueCodes.of(X)
        want = reference_train_forest(X, y, params, codes)
        peaks = []
        for cap in (1 << 18, 1 << 14, 1 << 10):
            monkeypatch.setattr(metatriage.learn, "_SEARCH_CHUNK", cap)
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                got = train_forest(X, y, params, codes)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                if not tracing:
                    tracemalloc.stop()
            assert_same_forest(got, want)
        assert peaks[0] > peaks[1] > peaks[2]

    @pytest.mark.parametrize("n,p,seed", [(60, 7, 1), (400, 7, 2), (400, 40, 3), (32767, 7, 4),
                                          (32768, 7, 5)])
    def test_sparse_matrices_equal_the_oracle(self, monkeypatch, n, p, seed):
        # Columns at least 95% zeros are counted from their listed rows in
        # nodes with more entries than they list, and gathered in the rest.
        X, y = sparse_matrix(n, p, seed)
        seen = watch_search_sides(monkeypatch)
        for params in (
            ForestParams(n_trees=3, max_depth=None if n < 1000 else 6, min_leaf=1, seed=seed),
            ForestParams(n_trees=2, max_depth=4, min_leaf=5, mtry=p, seed=seed),
        ):
            assert_same_forest(train_forest(X, y, params), reference_train_forest(X, y, params))
        assert seen == {"listed", "gathered"}

    def test_sparse_search_cap_changes_nothing(self, monkeypatch):
        # The root passes 2**14 and 2**10: searched a run of its tried
        # columns at a time, with listed and gathered groups in one search.
        X, y = sparse_matrix(3000, 40, seed=6)
        params = ForestParams(n_trees=2, max_depth=5, seed=8)
        codes = _ValueCodes.of(X)
        want = reference_train_forest(X, y, params, codes)
        for cap in (1 << 18, 1 << 14, 1 << 10):
            monkeypatch.setattr(metatriage.learn, "_SEARCH_CHUNK", cap)
            seen = watch_search_sides(monkeypatch)
            assert_same_forest(train_forest(X, y, params, codes), want)
            assert seen == {"listed", "gathered"}


def sparse_columns(n, p, seed):
    """`p` columns: an all-zero column, a column with no zero, 0.0 beside
    -0.0, and the rest at least 95% zeros, some with negatives beside them;
    labels follow one sparse column and the one with no zero."""
    rng = np.random.default_rng(seed)

    def rare(values):
        return np.where(rng.random(n) < 0.04, values, 0.0)

    kinds = (
        lambda: rare(rng.integers(1, 4, n).astype(np.float64)),
        lambda: rare(rng.integers(-3, 4, n).astype(np.float64)),
        lambda: rare(rng.normal(size=n).round(2)),
    )
    signed_zeros = rng.choice([0.0, -0.0, 2.5], n, p=[0.5, 0.49, 0.01])
    rest = [kinds[j % 3]() for j in range(p - 3)]
    A = np.column_stack([np.zeros(n), rng.permutation(n) + 1.0, signed_zeros] + rest)
    y = ((A[:, 3] > 0) | (A[:, 1] < n / 5) | (rng.random(n) < 0.2)).astype(np.int64)
    return A, y


def from_entries(A):
    """`A` as a matrix made from its nonzero entries."""
    twin = FeatureMatrix(tuple(f"s{j}" for j in range(A.shape[1])), A)
    return FeatureMatrix.from_entries(twin.column_names, len(A), *twin.entries)


def sparse_matrix(n, p, seed):
    """`sparse_columns` as a matrix made from its nonzero entries, and labels."""
    A, y = sparse_columns(n, p, seed)
    return from_entries(A), y


def watch_search_sides(monkeypatch):
    """The set that gets "listed" and "gathered" once the forest's split
    searches have counted a group each way."""
    seen = set()
    search = metatriage.learn._best_splits

    def watched(vc, rows, counted, starts, tried, n_node, m_node, min_leaf, listed, entry):
        seen.update(["listed"] if listed.all() else ["gathered"] if not listed.any()
                    else ["listed", "gathered"])
        return search(vc, rows, counted, starts, tried, n_node, m_node, min_leaf, listed, entry)

    monkeypatch.setattr(metatriage.learn, "_best_splits", watched)
    return seen


class TestValueCodes:
    def columns(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return np.column_stack([
            rng.permutation(n).astype(np.float64),  # all distinct: codes reach n - 1
            rng.integers(0, 3, n).astype(np.float64),
            rng.normal(size=n).round(2),
            rng.choice([0.0, -0.0, 2.5], n),
        ])

    def assert_ranks(self, vc, A):
        for j in range(A.shape[1]):
            distinct, inverse = np.unique(A[:, j], return_inverse=True)
            assert np.array_equal(vc.distinct(j), distinct)
            assert np.array_equal(vc.codes[j], inverse)
        widths = [len(np.unique(col)) for col in A.T]
        assert vc.offsets.tolist() == np.cumsum([0] + widths).tolist()

    @pytest.mark.parametrize("n,dtype", [(32767, np.int16), (32768, np.int32)])
    def test_codes_are_ranks_in_the_narrowest_type(self, n, dtype):
        A = self.columns(n)
        vc = codes_of(A)
        assert vc.codes.dtype == dtype
        self.assert_ranks(vc, A)

    def test_block_size_changes_nothing(self, monkeypatch):
        A = np.hstack([self.columns(200, seed) for seed in range(5)])
        monkeypatch.setattr(metatriage.learn, "_CODE_BLOCK", 1)
        self.assert_ranks(codes_of(A), A)

    def test_empty_matrices(self):
        for shape in [(0, 3), (5, 0)]:
            vc = codes_of(np.zeros(shape))
            assert vc.codes.shape == shape[::-1]
            assert vc.offsets.tolist() == [0] * (shape[1] + 1)

    @pytest.mark.parametrize("n,dtype", [(32767, np.int16), (32768, np.int32)])
    def test_from_entries_codes_equal_the_dense_twins(self, n, dtype):
        A, _ = sparse_columns(n, 9, seed=n)
        X = from_entries(A)
        vc, dense = _ValueCodes.of(X), codes_of(A)
        assert X._values is None
        assert vc.codes.dtype == dtype
        self.assert_ranks(vc, A)
        for field in ("codes", "values", "offsets", "zero"):
            assert np.array_equal(getattr(vc, field), getattr(dense, field))
        for got in (vc, dense):
            self.assert_listed(got, A)

    def test_from_entries_block_size_changes_nothing(self, monkeypatch):
        A, _ = sparse_columns(500, 12, seed=3)
        monkeypatch.setattr(metatriage.learn, "_CODE_BLOCK", 1)
        for vc in (_ValueCodes.of(from_entries(A)), codes_of(A)):
            self.assert_ranks(vc, A)
            self.assert_listed(vc, A)

    def assert_listed(self, vc, A):
        """Columns at most half nonzero list their nonzero rows, with their
        codes and the zero's code; other columns list none."""
        n = len(A)
        for j in range(A.shape[1]):
            rows = vc.nz_rows[vc.nz_start[j] : vc.nz_start[j + 1]]
            if np.count_nonzero(A[:, j]) * 2 > n:
                assert vc.zero[j] == -1 and len(rows) == 0
                continue
            assert vc.distinct(j)[vc.zero[j]] == 0.0
            assert sorted(rows.tolist()) == np.flatnonzero(A[:, j]).tolist()
            codes = vc.nz_codes[vc.nz_start[j] : vc.nz_start[j + 1]]
            assert np.array_equal(codes, vc.codes[j, rows])


class TestStandardizedOperator:
    def columns(self, n=40):
        rng = np.random.default_rng(2)
        single = np.zeros(n)
        single[7] = 4.5
        half = np.where(np.arange(n) % 2 == 0, rng.normal(size=n), 0.0)
        return np.column_stack([
            (rng.random(n) < 0.1) * rng.normal(3.0, 2.0, n),  # sparse
            rng.normal(5.0, 3.0, n),  # dense
            np.full(n, 3.0),  # zero variance, all nonzero
            np.zeros(n),  # all zero
            single,  # a single nonzero
            1.0 + rng.random(n),  # all nonzero
            half,  # exactly half nonzero: kept sparse
            (rng.random(n) < 0.3) * 1e6 + rng.normal(size=n),  # dense, large values
        ])

    def test_products_match_the_dense_standardized_matrix(self):
        values = self.columns()
        mean = values.mean(axis=0)
        scale = values.std(axis=0)
        scale[scale == 0.0] = 1.0
        dense = (values - mean) / scale
        A = metatriage.learn._Standardized(
            FeatureMatrix(tuple(f"c{j}" for j in range(values.shape[1])), values), mean, scale
        )
        assert len(A) == len(values)
        assert A._dense.tolist() == [False, True, True, False, False, True, False, True]
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = rng.normal(size=values.shape[1])
            u = rng.normal(size=values.shape[0])
            want, want_t = dense @ v, dense.T @ u
            np.testing.assert_allclose(A @ v, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            np.testing.assert_allclose(
                A.T @ u, want_t, rtol=1e-12, atol=1e-12 * np.abs(want_t).max()
            )

    def test_dense_block_is_column_major(self):
        # BLAS rounds the block's products differently for each layout, so
        # every linear result hangs on it: a C-ordered block moves scores
        # in their last bits.
        values = self.columns()
        mean, scale = values.mean(axis=0), values.std(axis=0)
        scale[scale == 0.0] = 1.0
        X = FeatureMatrix(tuple(f"c{j}" for j in range(values.shape[1])), values)
        block = metatriage.learn._Standardized(X, mean, scale)._block
        assert block.shape == (len(values), 4)
        assert block.flags.f_contiguous and not block.flags.c_contiguous


def entries_backed(X: FeatureMatrix) -> FeatureMatrix:
    """The same matrix built from its nonzero entries, row-major."""
    rows, cols = np.nonzero(X.values)
    return FeatureMatrix.from_entries(X.column_names, X.n_rows, rows, cols, X.values[rows, cols])


def edge_columns(n=40, seed=5):
    """All-zero, exactly-half-nonzero, near-1e15, sparse and dense columns,
    with three rows that have no nonzeros at all."""
    rng = np.random.default_rng(seed)
    half = np.where(np.arange(n) % 2 == 0, rng.integers(1, 4, n), 0)  # stays sparse
    big = np.where(rng.random(n) < 0.7, 1e15 + rng.integers(0, 1000, n), 0.0)
    sparse = (rng.random(n) < 0.1) * rng.normal(3.0, 2.0, n)
    dense = rng.normal(5.0, 3.0, n)
    values = np.column_stack([np.zeros(n), half, big, sparse, dense, np.zeros(n)])
    values[[3, 17, 31]] = 0.0  # odd rows, so `half` keeps exactly n/2 nonzeros
    std = values.std(axis=0)
    standardized = (values - values.mean(axis=0)) / np.where(std > 0, std, 1.0)
    y = (standardized @ rng.normal(size=6) + rng.normal(size=n) > 0).astype(int)
    return FeatureMatrix(tuple(f"c{j}" for j in range(6)), values), y


def wide_columns(standardize):
    """The 1,333 x 2,048 sparse indicator matrix of the `wide` fit check,
    raw (every column sparse) or standardized (every column dense)."""
    rng = np.random.default_rng(11)
    n, p = 1333, 2048
    A = (rng.random((n, p)) < 0.02).astype(float)
    truth = rng.normal(size=p) * (rng.random(p) < 0.3)
    y = (A @ truth + rng.normal(size=n) > 0).astype(int)
    if standardize:
        std = A.std(axis=0)
        A = (A - A.mean(axis=0)) / np.where(std > 0, std, 1.0)
    return FeatureMatrix(tuple(f"f{j}" for j in range(p)), A), y


class DenseScanOperator:
    """The standardized operator as it is built by scanning a dense matrix:
    nonzeros by `flatnonzero`, the dense columns' block by a column gather.
    The reference that the operator built from entries must equal bit for
    bit."""

    def __init__(self, values, mean, scale):
        n, p = values.shape
        rows, cols = np.divmod(np.flatnonzero(values != 0.0), p)
        self.dense = np.bincount(cols, minlength=p) * 2 > n
        self.block = (values[:, self.dense] - mean[self.dense]) / scale[self.dense]
        sparse = ~self.dense[cols]
        self.rows, self.cols = rows[sparse], cols[sparse]
        self.values = values[self.rows, self.cols]
        self.mean = np.where(self.dense, 0.0, mean)
        self.scale, self.n = scale, n

    def matvec(self, v):
        s = v / self.scale
        out = np.bincount(self.rows, self.values * s[self.cols], self.n) - self.mean @ s
        out += self.block @ v[self.dense]
        return out

    def rmatvec(self, u):
        sums = np.bincount(self.cols, self.values * u[self.rows], len(self.scale))
        out = (sums - self.mean * u.sum()) / self.scale
        out[self.dense] = self.block.T @ u
        return out


class TestSparseEntries:
    """Linear fits read a matrix's nonzero entries alone. From entries or
    from a dense array, a fit and its scores must be the same bits; its
    column statistics must be those of exact sums, and its products those
    of a dense scan."""

    @pytest.mark.parametrize("shape", [(50, 1), (1, 3), (300, 2), (40, 6), (500, 37)])
    @pytest.mark.parametrize("density", [0.05, 0.4, 1.0])
    def test_column_stats_match_an_fsum_oracle(self, shape, density):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        n, p = shape
        values = (rng.random(shape) < density) * rng.normal(1e3, 10 ** rng.uniform(-3, 15, p), shape)
        values[:, p // 2] = 0.0
        X = entries_backed(FeatureMatrix(tuple(f"c{j}" for j in range(p)), values))
        mean, std = metatriage.learn._column_stats(X)
        for j, column in enumerate(values.T.tolist()):
            m = math.fsum(column) / n
            sd = math.sqrt(math.fsum((x - m) ** 2 for x in column) / n)
            assert mean[j] == pytest.approx(m, rel=1e-12, abs=0)
            assert std[j] == pytest.approx(sd, rel=1e-12, abs=0)

    def test_column_stats_do_not_depend_on_the_other_columns(self):
        rng = np.random.default_rng(11)
        n, p = 300, 9
        values = (rng.random((n, p)) < 0.3) * rng.normal(1e3, 10 ** rng.uniform(-3, 6, p), (n, p))

        def stats(v):
            X = entries_backed(FeatureMatrix(tuple(f"c{j}" for j in range(v.shape[1])), v))
            return metatriage.learn._column_stats(X)

        mean, std = stats(values)
        order = rng.permutation(p)
        shuffled = stats(values[:, order])
        assert shuffled[0].tobytes() == mean[order].tobytes()
        assert shuffled[1].tobytes() == std[order].tobytes()
        for j in range(p):
            alone = stats(values[:, [j]])
            assert alone[0].tobytes() == mean[[j]].tobytes()
            assert alone[1].tobytes() == std[[j]].tobytes()

    @pytest.mark.parametrize("case", ["edge", "mixed"])
    def test_operator_products_equal_a_dense_scan(self, case):
        X, _ = edge_columns() if case == "edge" else mixed_columns()
        mean, scale = X.values.mean(axis=0), X.values.std(axis=0)
        scale[scale == 0.0] = 1.0
        A = metatriage.learn._Standardized(entries_backed(X), mean, scale)
        ref = DenseScanOperator(X.values, mean, scale)
        assert A._dense.tolist() == ref.dense.tolist()
        rng = np.random.default_rng(8)
        for _ in range(5):
            v, u = rng.normal(size=X.n_columns), rng.normal(size=X.n_rows)
            assert (A @ v).tobytes() == ref.matvec(v).tobytes()
            assert (A.T @ u).tobytes() == ref.rmatvec(u).tobytes()

    @pytest.mark.parametrize("train", [train_logistic, train_linear_svm])
    @pytest.mark.parametrize("case", ["edge", "mixed", "wide", "wide-raw"])
    def test_fits_from_entries_equal_fits_from_dense(self, train, case):
        if case.startswith("wide"):
            X, y = wide_columns(standardize=case == "wide")
        else:
            X, y = edge_columns() if case == "edge" else mixed_columns()
        sparse = entries_backed(X)
        for held, scanned in zip(sparse.entries, X.entries):
            assert held.tobytes() == scanned.tobytes()
        a, b = train(X, y), train(sparse, y)
        assert a.meta == b.meta
        assert a.bias == b.bias
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.center.tobytes() == b.center.tobytes()
        assert predict_score(a, X).tobytes() == predict_score(b, sparse).tobytes()
        assert sparse._values is None  # no dense matrix was made
        assert sparse.values.tobytes() == X.values.tobytes()


class TestPredictScore:
    def test_column_mismatch_lists_names(self):
        X, y = two_clusters(n=20)
        model = train_logistic(X, y)
        other = FeatureMatrix(("x0", "zz"), X.values)
        with pytest.raises(ContractError, match="zz"):
            predict_score(model, other)

    def test_same_names_wrong_order_rejected(self):
        X, y = two_clusters(n=20)
        model = train_logistic(X, y)
        flipped = FeatureMatrix(("x1", "x0"), X.values[:, ::-1])
        with pytest.raises(ContractError, match="different order"):
            predict_score(model, flipped)

    def test_zero_weight_logistic_scores_half(self):
        model = LinearModel("logistic", np.zeros(2), 0.0, ("a", "b"))
        X = FeatureMatrix(("a", "b"), np.random.default_rng(0).normal(size=(5, 2)))
        assert predict_score(model, X).tolist() == [0.5] * 5

    def test_hand_built_forest_averages_leaves(self):
        leaf = lambda v: Tree(
            feature=np.array([-1]),
            threshold=np.array([0.0]),
            left=np.array([-1]),
            right=np.array([-1]),
            value=np.array([v]),
        )
        model = ForestModel(
            "forest", [leaf(0.0), leaf(1.0)], ("a",), np.zeros(1)
        )
        X = FeatureMatrix(("a",), np.zeros((4, 1)))
        assert predict_score(model, X).tolist() == [0.5] * 4

    def test_scoring_is_idempotent(self):
        X, y = two_clusters(n=40)
        model = train_forest(X, y, ForestParams(n_trees=3, seed=2))
        assert np.array_equal(predict_score(model, X), predict_score(model, X))

    def test_forest_score_equals_per_tree_walks(self):
        X, y = two_clusters(n=80, gap=0.4)
        model = train_forest(X, y, ForestParams(n_trees=7, seed=5))
        total = np.zeros(X.n_rows)
        for tree in model.trees:
            for i, x in enumerate(X.values):
                node = 0
                while tree.feature[node] >= 0:
                    go_left = x[tree.feature[node]] <= tree.threshold[node]
                    node = tree.left[node] if go_left else tree.right[node]
                total[i] += tree.value[node]
        assert np.array_equal(predict_score(model, X), total / 7)

    def test_logistic_score_monotone_in_positive_weight_feature(self):
        model = LinearModel("logistic", np.array([2.0]), 0.0, ("a",))
        X = FeatureMatrix(("a",), np.linspace(-3, 3, 20).reshape(-1, 1))
        scores = predict_score(model, X)
        assert (np.diff(scores) > 0).all()


class TestSerialization:
    def test_train_model_unknown_kind(self):
        X, y = two_clusters(n=10)
        with pytest.raises(ValueError):
            train_model("boosting", X, y)


class TestHyperparams:
    def test_json_round_trip(self):
        hyper = Hyperparams(
            logistic=LogisticParams(tolerance=1e-3),
            svm=SvmParams(tolerance=1e-5),
            forest=ForestParams(n_trees=9, max_depth=3, min_leaf=2, seed=8),
        )
        back = decode_section(Hyperparams(), dataclasses.asdict(hyper), "hyper")
        assert back == hyper

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticParams(tolerance=-1.0)
        with pytest.raises(ValueError):
            SvmParams(tolerance=0.0)
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        ForestParams(n_trees=1000)
        with pytest.raises(ValueError, match="^n_trees must be at most 1000, got 1001$"):
            ForestParams(n_trees=1001)

    @pytest.mark.parametrize("make", [
        lambda: ForestParams(n_trees=True),
        lambda: ForestParams(n_trees=2.5),
        lambda: ForestParams(min_leaf="3"),
        lambda: ForestParams(max_depth=False),
        lambda: LogisticParams(tolerance="1e-6"),
        lambda: LogisticParams(tolerance=float("nan")),
        lambda: LogisticParams(tolerance=True),
        lambda: SvmParams(tolerance=float("inf")),
        lambda: SvmParams(tolerance=None),
        lambda: LogisticParams(tolerance=10**400),  # past the float range
    ])
    def test_wrong_types_rejected(self, make):
        with pytest.raises(TypeError):
            make()
