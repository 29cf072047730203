"""Three classifiers with a uniform scoring interface.

Logistic regression (full-batch gradient descent), a linear SVM (Pegasos
stochastic subgradient), and a random forest (CART, Gini). All are trained
from binary {0,1} labels and produce one monotone malware-ness score per
row: probabilities for logistic, real margins for the SVM, mean leaf
fractions for the forest.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ContractError, DivergenceError
from .featurize import FeatureMatrix


@dataclass(frozen=True)
class LogisticParams:
    learning_rate: float = 0.1
    l2_lambda: float = 1e-4
    epochs: int = 500
    tolerance: float = 1e-6

    def __post_init__(self):
        if min(self.learning_rate, self.l2_lambda, self.tolerance) <= 0 or self.epochs < 1:
            raise ValueError("logistic hyperparameters must be positive")


@dataclass(frozen=True)
class SvmParams:
    # Pegasos regularization weight: objective (c/2)||w||^2 + mean hinge.
    regularization_c: float = 1e-4
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.regularization_c <= 0 or self.epochs < 1:
            raise ValueError("svm hyperparameters must be positive")


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: Optional[int] = None
    min_leaf: int = 1
    mtry: int = 0  # 0 means ceil(sqrt(P)) at fit time
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.min_leaf < 1 or self.mtry < 0:
            raise ValueError("forest hyperparameters must be positive")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive when set")


@dataclass(frozen=True)
class Hyperparams:
    logistic: LogisticParams = field(default_factory=LogisticParams)
    svm: SvmParams = field(default_factory=SvmParams)
    forest: ForestParams = field(default_factory=ForestParams)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "Hyperparams":
        return Hyperparams(
            logistic=LogisticParams(**obj.get("logistic", {})),
            svm=SvmParams(**obj.get("svm", {})),
            forest=ForestParams(**obj.get("forest", {})),
        )


def _check_training_inputs(X: FeatureMatrix, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    if X.n_rows != len(y):
        raise ContractError(f"matrix rows {X.n_rows} != labels length {len(y)}")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be binary 0/1")
    return y.astype(np.float64)


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------


def logistic_loss_grad(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float,
) -> tuple[float, np.ndarray, float]:
    """L2-penalized mean negative log-likelihood and its exact gradient.

    The bias is not penalized. Loss uses logaddexp so large margins cannot
    overflow.
    """
    z = X @ weights + bias
    with np.errstate(over="ignore"):  # saturation is well-defined here
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        loss += 0.5 * l2_lambda * float(weights @ weights)
        p = 1.0 / (1.0 + np.exp(-z))
    residual = p - y
    grad_w = X.T @ residual / len(y) + l2_lambda * weights
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


@dataclass
class LinearModel:
    kind: str  # "logistic" or "linear_svm"
    weights: np.ndarray
    bias: float
    column_names: tuple[str, ...]
    meta: dict = field(default_factory=dict)


def train_logistic(
    X: FeatureMatrix, y: np.ndarray, params: LogisticParams = LogisticParams()
) -> LinearModel:
    """Full-batch gradient descent on the regularized log-loss.

    Stops at the epoch cap or when the gradient norm falls under the
    tolerance. Being full-batch, the result is independent of row order.
    """
    y = _check_training_inputs(X, y)
    A = X.values
    w = np.zeros(X.n_columns)
    b = 0.0
    epochs_run = 0
    grad_norm = math.inf
    for epoch in range(params.epochs):
        loss, gw, gb = logistic_loss_grad(w, b, A, y, params.l2_lambda)
        if not math.isfinite(loss):
            raise DivergenceError(
                f"logistic loss became non-finite at epoch {epoch}; "
                f"reduce learning_rate (currently {params.learning_rate})"
            )
        grad_norm = math.sqrt(float(gw @ gw) + gb * gb)
        epochs_run = epoch + 1
        if grad_norm < params.tolerance:
            break
        w -= params.learning_rate * gw
        b -= params.learning_rate * gb
    return LinearModel(
        kind="logistic",
        weights=w,
        bias=b,
        column_names=X.column_names,
        meta={"epochs_run": epochs_run, "final_grad_norm": grad_norm},
    )


# ---------------------------------------------------------------------------
# Linear SVM (Pegasos)
# ---------------------------------------------------------------------------


def svm_objective(
    weights: np.ndarray, bias: float, X: np.ndarray, y_pm: np.ndarray, c: float
) -> float:
    """Primal objective (c/2)(||w||^2 + b^2) + mean hinge loss."""
    margins = y_pm * (X @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return 0.5 * c * (float(weights @ weights) + bias * bias) + float(hinge)


def _canonical_order(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Content-derived row order: sort by label then feature values.

    Makes stochastic training invariant to the caller's row permutation;
    duplicate rows are interchangeable so their relative order is moot.
    """
    keys = [A[:, j] for j in range(A.shape[1] - 1, -1, -1)] + [y]
    return np.lexsort(keys)


def train_linear_svm(
    X: FeatureMatrix, y: np.ndarray, params: SvmParams = SvmParams()
) -> LinearModel:
    """Pegasos: stochastic subgradient on the hinge loss, step 1/(c*t).

    The bias rides along as an extra regularized coordinate. Rows are
    visited in a seeded shuffle of a canonical content-derived order, and
    end-of-epoch iterates are kept in the model meta so the optimization
    trace can be audited.
    """
    y01 = _check_training_inputs(X, y)
    y_pm = 2.0 * y01 - 1.0
    order = _canonical_order(X.values, y01)
    A = X.values[order]
    t_pm = y_pm[order]
    n, p = A.shape
    c = params.regularization_c

    v = np.zeros(p + 1)  # weights + bias as the last coordinate
    t = 0
    epoch_iterates = []
    for epoch in range(params.epochs):
        rng = np.random.default_rng(
            np.random.SeedSequence([params.seed & 0xFFFFFFFFFFFFFFFF, 0x5E60, epoch])
        )
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (c * t)
            margin = t_pm[i] * (A[i] @ v[:p] + v[p])
            v *= 1.0 - eta * c
            if margin < 1.0:
                v[:p] += eta * t_pm[i] * A[i]
                v[p] += eta * t_pm[i]
        if not np.isfinite(v).all():
            raise DivergenceError(
                f"svm iterate became non-finite at epoch {epoch}; "
                f"increase regularization_c (currently {c})"
            )
        epoch_iterates.append((v[:p].copy(), float(v[p])))

    return LinearModel(
        kind="linear_svm",
        weights=v[:p].copy(),
        bias=float(v[p]),
        column_names=X.column_names,
        meta={
            "seed": params.seed,
            "epochs_run": params.epochs,
            "epoch_iterates": epoch_iterates,
        },
    )


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------


@dataclass
class Tree:
    """Array-encoded binary tree; feature -1 marks a leaf.

    Rows with x[feature] <= threshold go left. `value` holds the malware
    fraction of the node's training sample (leaves are what scoring reads).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def best_split(
    A: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_leaf: int
) -> Optional[tuple[int, float, float]]:
    """Exact Gini split search over the given features.

    Returns (feature, threshold, cost) for the best valid split or None.
    The cost minimized is sum_child m_c*(n_c-m_c)/n_c, which orders splits
    identically to weighted Gini decrease; ties break toward the lower
    feature index, then the lower threshold. Thresholds are midpoints
    between adjacent distinct values.

    All features are searched at once: column-wise stable sorts and prefix
    counts along axis 0, then costs at every boundary between distinct
    values, listed by feature, then by left side size, so the first
    minimum is the tie-break winner.
    """
    n = len(y)
    features = np.asarray(feature_indices, dtype=np.int64)
    lo, hi = max(min_leaf, 1), min(n - min_leaf, n - 1)  # left side sizes
    if len(features) == 0 or lo > hi:
        return None
    cols = A[:, features]
    order = np.argsort(cols, axis=0, kind="stable")
    sv = cols[order, np.arange(len(features))]
    pos = np.cumsum(y[order], axis=0)
    col, row = np.nonzero((sv[lo : hi + 1] > sv[lo - 1 : hi]).T)
    if len(col) == 0:
        return None
    left = row + lo
    nl = left.astype(np.float64)
    nr = n - nl
    ml = pos[left - 1, col].astype(np.float64)
    mr = pos[-1, col] - ml
    cost = ml * (nl - ml) / nl + mr * (nr - mr) / nr
    k = int(np.argmin(cost))
    jj, s = int(col[k]), int(left[k])
    threshold = (sv[s - 1, jj] + sv[s, jj]) / 2.0
    return int(features[jj]), float(threshold), float(cost[k])


def grow_tree(
    A: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
    n_total: Optional[int] = None,
) -> tuple[Tree, np.ndarray]:
    """Grow one CART tree; returns the tree and its per-feature importances.

    Importances are the weighted Gini decreases summed per split feature,
    with weights n_node/n_total.
    """
    n, p = A.shape
    if n_total is None:
        n_total = n
    mtry = params.mtry if params.mtry else math.ceil(math.sqrt(p))
    mtry = min(mtry, p)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    importances = np.zeros(p)

    # Explicit stack avoids recursion limits on deep trees. Children are
    # allocated in push order, so the rng consumption order (and hence the
    # tree) is a pure function of (data, seed).
    stack = [(np.arange(n), 0, -1, False)]  # rows, depth, parent, is_right
    while stack:
        rows, depth, parent, is_right = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            if is_right:
                right[parent] = node_id
            else:
                left[parent] = node_id
        ny = y[rows]
        m = float(ny.sum())
        nn = len(rows)
        frac = m / nn
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(frac)

        if m == 0 or m == nn or nn < 2 * params.min_leaf:
            continue
        if params.max_depth is not None and depth >= params.max_depth:
            continue

        if mtry < p:
            tried = np.sort(rng.choice(p, size=mtry, replace=False))
        else:
            tried = np.arange(p)
        # Gather only the tried columns; `tried` is sorted, so the local
        # feature order (and tie-break) is the global one.
        block = A[rows[:, None], tried]
        found = best_split(block, ny, np.arange(len(tried)), params.min_leaf)
        if found is None:
            continue
        jj, thr, cost = found
        j = int(tried[jj])
        parent_cost = m * (nn - m) / nn
        decrease = 2.0 * (parent_cost - cost) / n_total
        if decrease <= 0:
            continue
        importances[j] += decrease
        feature[node_id] = j
        threshold[node_id] = thr
        go_left = block[:, jj] <= thr
        # Push right first so the left child is grown (and numbered) first.
        stack.append((rows[~go_left], depth + 1, node_id, True))
        stack.append((rows[go_left], depth + 1, node_id, False))

    tree = Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )
    return tree, importances


@dataclass
class ForestModel:
    kind: str
    trees: list[Tree]
    column_names: tuple[str, ...]
    importances: np.ndarray
    meta: dict = field(default_factory=dict)


def train_forest(
    X: FeatureMatrix, y: np.ndarray, params: ForestParams = ForestParams()
) -> ForestModel:
    """Bootstrap-aggregated CART trees.

    Each tree's randomness comes from SeedSequence([seed, tree_index]) so
    the forest is bit-identical however tree training is scheduled.
    """
    y01 = _check_training_inputs(X, y).astype(np.float64)
    A = X.values
    n = X.n_rows
    if params.mtry > X.n_columns:
        raise ContractError(
            f"mtry {params.mtry} exceeds feature count {X.n_columns}"
        )
    trees = []
    importances = np.zeros(X.n_columns)
    for tree_idx in range(params.n_trees):
        rng = np.random.default_rng(
            np.random.SeedSequence([params.seed & 0xFFFFFFFFFFFFFFFF, 0xF0BE57, tree_idx])
        )
        sample = rng.integers(0, n, n)
        tree, imp = grow_tree(A[sample], y01[sample], params, rng, n_total=n)
        trees.append(tree)
        importances += imp
    importances /= params.n_trees
    return ForestModel(
        kind="forest",
        trees=trees,
        column_names=X.column_names,
        importances=importances,
        meta={"seed": params.seed, "n_trees": params.n_trees},
    )


def _tree_scores(tree: Tree, A: np.ndarray) -> np.ndarray:
    node = np.zeros(len(A), dtype=np.int64)
    while True:
        feat = tree.feature[node]
        active = np.flatnonzero(feat >= 0)
        if len(active) == 0:
            return tree.value[node]
        sub = node[active]
        go_left = A[active, tree.feature[sub]] <= tree.threshold[sub]
        node[active] = np.where(go_left, tree.left[sub], tree.right[sub])


Model = Union[LinearModel, ForestModel]


def predict_score(model: Model, X: FeatureMatrix) -> np.ndarray:
    """Row scores under the training-time column contract."""
    if X.column_names != model.column_names:
        missing = [c for c in model.column_names if c not in X.column_names]
        extra = [c for c in X.column_names if c not in model.column_names]
        raise ContractError(
            "feature columns do not match the model: "
            f"missing {missing[:5]}, unexpected {extra[:5]}"
            + ("" if missing or extra else " (same names, different order)")
        )
    if model.kind == "logistic":
        z = X.values @ model.weights + model.bias
        return 1.0 / (1.0 + np.exp(-z))
    if model.kind == "linear_svm":
        return X.values @ model.weights + model.bias
    if model.kind == "forest":
        total = np.zeros(X.n_rows)
        for tree in model.trees:
            total += _tree_scores(tree, X.values)
        return total / len(model.trees)
    raise ContractError(f"unknown model kind: {model.kind!r}")


def train_model(
    kind: str, X: FeatureMatrix, y: np.ndarray, hyper: Hyperparams = Hyperparams()
) -> Model:
    """Uniform entry point over the three kinds."""
    if kind == "logistic":
        return train_logistic(X, y, hyper.logistic)
    if kind == "linear_svm":
        return train_linear_svm(X, y, hyper.svm)
    if kind == "forest":
        return train_forest(X, y, hyper.forest)
    raise ValueError(f"unknown model kind: {kind!r}")
