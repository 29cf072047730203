import numpy as np
import pytest

from metatriage.errors import ContractError, DivergenceError
from metatriage.featurize import FeatureMatrix
from metatriage.learn import (
    ForestModel,
    ForestParams,
    Hyperparams,
    LinearModel,
    LogisticParams,
    SvmParams,
    Tree,
    best_split,
    grow_tree,
    logistic_loss_grad,
    predict_score,
    svm_objective,
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


def fd_gradient(w, b, X, y, lam, eps=1e-6):
    """Central finite differences of the penalized log-loss."""

    def loss_at(wv, bv):
        z = X @ wv + bv
        return float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * lam * float(
            wv @ wv
        )

    gw = np.zeros_like(w)
    for i in range(len(w)):
        step = np.zeros_like(w)
        step[i] = eps
        gw[i] = (loss_at(w + step, b) - loss_at(w - step, b)) / (2 * eps)
    gb = (loss_at(w, b + eps) - loss_at(w, b - eps)) / (2 * eps)
    return gw, gb


class TestLogistic:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, p = int(rng.integers(5, 30)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            y = rng.integers(0, 2, n).astype(np.float64)
            w = rng.normal(size=p)
            b = float(rng.normal())
            lam = float(rng.uniform(0, 0.5))
            _, gw, gb = logistic_loss_grad(w, b, X, y, lam)
            fw, fb = fd_gradient(w, b, X, y, lam)
            assert np.allclose(gw, fw, atol=1e-5)
            assert gb == pytest.approx(fb, abs=1e-5)

    def test_separates_clusters(self):
        X, y = two_clusters()
        model = train_logistic(X, y, LogisticParams(epochs=300))
        scores = predict_score(model, X)
        assert scores[y == 1].min() > scores[y == 0].max()

    def test_loss_non_increasing_along_descent(self):
        X, y = two_clusters(n=80)
        losses = []
        for epochs in (1, 2, 4, 8, 16, 32, 64):
            model = train_logistic(
                X, y, LogisticParams(learning_rate=0.05, epochs=epochs)
            )
            loss, _, _ = logistic_loss_grad(
                model.weights, model.bias, X.values, y.astype(np.float64), 1e-4
            )
            losses.append(loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_all_positive_labels_drive_bias_up(self):
        X = FeatureMatrix(("x0",), np.zeros((30, 1)))
        y = np.ones(30, dtype=int)
        model = train_logistic(X, y, LogisticParams(learning_rate=1.0, epochs=300))
        assert model.bias > 0
        assert predict_score(model, X).min() > 0.9

    def test_divergence_raises(self):
        X, y = two_clusters(n=40)
        with pytest.raises(DivergenceError):
            train_logistic(
                X, y, LogisticParams(learning_rate=1e12, l2_lambda=1.0, epochs=100)
            )

    def test_row_order_invariance(self):
        X, y = two_clusters(n=60)
        perm = np.random.default_rng(5).permutation(60)
        shuffled = FeatureMatrix(X.column_names, X.values[perm])
        a = train_logistic(X, y, LogisticParams(epochs=50))
        b = train_logistic(shuffled, y[perm], LogisticParams(epochs=50))
        # full-batch GD is row-order independent up to summation order
        assert np.allclose(a.weights, b.weights, atol=1e-12)
        assert a.bias == pytest.approx(b.bias, abs=1e-12)

    def test_mismatched_labels_rejected(self):
        X, y = two_clusters()
        with pytest.raises(ContractError):
            train_logistic(X, y[:-1])
        with pytest.raises(ContractError):
            train_logistic(X, y + 1)


class TestLinearSvm:
    def test_separates_clusters(self):
        X, y = two_clusters()
        model = train_linear_svm(X, y, SvmParams(regularization_c=1e-2, epochs=10))
        margins = predict_score(model, X)
        assert ((margins > 0).astype(int) == y).all()

    def test_objective_improves_over_epochs(self):
        X, y = two_clusters()
        params = SvmParams(regularization_c=1e-2, epochs=30)
        model = train_linear_svm(X, y, params)
        y_pm = 2.0 * y - 1.0
        objs = [
            svm_objective(w, b, X.values, y_pm, params.regularization_c)
            for w, b in model.meta["epoch_iterates"]
        ]
        assert len(objs) == 30
        assert np.mean(objs[-10:]) < np.mean(objs[:10])
        assert objs[-1] < objs[0]

    def test_exact_permutation_invariance(self):
        X, y = two_clusters(n=100)
        perm = np.random.default_rng(17).permutation(100)
        shuffled = FeatureMatrix(X.column_names, X.values[perm])
        a = train_linear_svm(X, y, SvmParams(epochs=5))
        b = train_linear_svm(shuffled, y[perm], SvmParams(epochs=5))
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_seed_changes_iterates(self):
        X, y = two_clusters(n=100)
        a = train_linear_svm(X, y, SvmParams(epochs=2, seed=0))
        b = train_linear_svm(X, y, SvmParams(epochs=2, seed=1))
        assert not np.array_equal(a.weights, b.weights)

    def test_same_seed_reproduces(self):
        X, y = two_clusters(n=100)
        a = train_linear_svm(X, y, SvmParams(epochs=3, seed=9))
        b = train_linear_svm(X, y, SvmParams(epochs=3, seed=9))
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

    def test_grow_tree_structure_and_importance(self):
        A, y = self.perfect_feature()
        rng = np.random.default_rng(0)
        tree, imp = grow_tree(A, y, ForestParams(n_trees=1), rng)
        assert tree.n_nodes == 3
        assert tree.feature[0] == 0
        assert tree.left[0] == 1  # left child grown immediately after parent
        assert tree.right[0] == 2
        # balanced root: parent cost 25, pure children, n_total 100
        assert imp[0] == pytest.approx(0.5, abs=1e-15)

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

    def test_mtry_exceeding_feature_count_rejected(self):
        X, y = two_clusters(n=20)
        with pytest.raises(ContractError):
            train_forest(X, y, ForestParams(n_trees=1, mtry=3))

    def test_importances_are_nonnegative_and_named(self):
        X, y = two_clusters(n=120)
        model = train_forest(X, y, ForestParams(n_trees=10, seed=1))
        assert model.importances.shape == (2,)
        assert (model.importances >= 0).all()
        assert model.importances.sum() > 0


class TestPredictScore:
    def test_column_mismatch_lists_names(self):
        X, y = two_clusters(n=20)
        model = train_logistic(X, y, LogisticParams(epochs=5))
        other = FeatureMatrix(("x0", "zz"), X.values)
        with pytest.raises(ContractError, match="zz"):
            predict_score(model, other)

    def test_same_names_wrong_order_rejected(self):
        X, y = two_clusters(n=20)
        model = train_logistic(X, y, LogisticParams(epochs=5))
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
            logistic=LogisticParams(learning_rate=0.2, epochs=77),
            svm=SvmParams(regularization_c=0.5, epochs=4, seed=2),
            forest=ForestParams(n_trees=9, max_depth=3, min_leaf=2, seed=8),
        )
        back = Hyperparams.from_json(hyper.to_json())
        assert back == hyper

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticParams(learning_rate=-1.0)
        with pytest.raises(ValueError):
            SvmParams(regularization_c=0.0)
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
