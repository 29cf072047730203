"""Three classifiers with a uniform scoring interface.

Logistic regression and an L2-loss linear SVM, both fitted by one
Newton-CG solver to a gradient-norm tolerance at LIBLINEAR's C = 1 (the
mean log-loss or the mean squared hinge, plus (0.5/n)*||w||^2), and a
random forest (CART, Gini). All are trained from binary {0,1} labels and
produce one monotone malware-ness score per row: probabilities for
logistic, real margins for the SVM, mean leaf fractions for the forest.

The linear fits own their standardization: they minimize the objective
over the training columns centered and scaled by their training mean and
standard deviation, without making that matrix. They read only the nonzero
entries that a `FeatureMatrix` holds in row-major order, never its dense
`values`. Each column's statistics are sums over its own entries in row
order (`_column_stats`), so they do not depend on the matrix's width.
`_Standardized` is built from the same entries: the columns with more than
half of their rows nonzero become an explicitly standardized block and the
rest stay as their nonzeros, and the solver asks it only for A @ v, A.T @ u
and the row count. The fitted weights are mapped back to raw units, with
the bias taken at the training mean, so a `LinearModel` scores raw columns
through the same operator.

The forest grows all of its trees together, one depth level per pass, over
value codes: each value's rank among its column's distinct values, held as
int16 up to 32,767 rows (`_ValueCodes`; a caller that already holds them,
as ranking does, passes them in). A column with more than half of its rows
nonzero is sorted whole; the others sort only their nonzeros and list
them. Each bootstrap sample is a count per distinct row, the columns a
level's nodes try come from one argpartition of their keys
(`_tried_columns`), and its split searches are bincounts over (node, tried
column, code) keys, a bounded run of nodes, or of one node's tried columns,
at a time. A (node, tried column) group whose column lists fewer nonzero
rows than the node has entries counts only those, and its zero counts the
rest. Splits stay exact, with thresholds midway between adjacent distinct
values present in the node. Nodes are numbered breadth-first within each
tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import ContractError, check_number_fields
from .featurize import FeatureMatrix


@dataclass(frozen=True)
class LogisticParams:
    # Newton-CG stops once the gradient norm of the objective is below this.
    tolerance: float = 1e-6

    def __post_init__(self):
        check_number_fields(self)
        if self.tolerance <= 0:
            raise ValueError("logistic tolerance must be positive")


@dataclass(frozen=True)
class SvmParams:
    # Newton-CG stops once the gradient norm of the objective is below this.
    tolerance: float = 1e-6

    def __post_init__(self):
        check_number_fields(self)
        if self.tolerance <= 0:
            raise ValueError("svm tolerance must be positive")


# The most trees a forest may have, checked before anything is drawn: the
# bootstrap counts alone take trees x rows int64, about 216 MB at 1,000
# trees on a 27k-row fold.
MAX_TREES = 1_000


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: Optional[int] = None
    min_leaf: int = 1
    mtry: int = 0  # 0 means ceil(sqrt(P)) at fit time
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        if self.n_trees < 1 or self.min_leaf < 1 or self.mtry < 0:
            raise ValueError("forest hyperparameters must be positive")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive when set")
        if self.n_trees > MAX_TREES:
            raise ValueError(f"n_trees must be at most {MAX_TREES}, got {self.n_trees}")


@dataclass(frozen=True)
class Hyperparams:
    logistic: LogisticParams = field(default_factory=LogisticParams)
    svm: SvmParams = field(default_factory=SvmParams)
    forest: ForestParams = field(default_factory=ForestParams)


def _check_training_inputs(X: FeatureMatrix, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    if X.n_rows != len(y):
        raise ContractError(f"matrix rows {X.n_rows} != labels length {len(y)}")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be binary 0/1")
    return y.astype(np.float64)


# ---------------------------------------------------------------------------
# Linear models: the shared Newton-CG solver, and logistic regression
# ---------------------------------------------------------------------------


class _Standardized:
    """The matrix (X - mean) / scale as a linear operator that, like an
    ndarray, answers `A @ v`, `A.T @ u` and `len(A)`. It is built from the
    nonzero entries of `X` alone and never reads a dense `X.values`.

    Columns with more than half of their rows nonzero are standardized
    into one dense block. The other columns keep only their nonzeros, and
    their products fold the mean and scale in: A(v/sd) - mu.(v/sd) and
    (A.T u - mu * sum(u)) / sd. Whatever the split, the products are those
    of the explicitly standardized matrix, summed in another order.
    """

    def __init__(self, X: FeatureMatrix, mean: np.ndarray, scale: np.ndarray):
        rows, cols, values = X.entries
        self._n_rows = X.n_rows
        self._dense = np.bincount(cols, minlength=X.n_columns) * 2 > self._n_rows
        in_block = self._dense[cols]
        # Column-major, like the column gather `values[:, dense]`: BLAS
        # rounds the products differently for each layout.
        self._block = np.zeros((self._n_rows, np.count_nonzero(self._dense)), order="F")
        at = np.cumsum(self._dense) - 1  # each dense column's place in the block
        self._block[rows[in_block], at[cols[in_block]]] = values[in_block]
        self._block -= mean[self._dense]
        self._block /= scale[self._dense]
        sparse = ~in_block
        self._rows, self._cols, self._values = rows[sparse], cols[sparse], values[sparse]
        self._mean = np.where(self._dense, 0.0, mean)  # the sparse columns' means
        self._scale = scale

    def __len__(self) -> int:
        return self._n_rows

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        s = v / self._scale  # its dense entries meet only the zeroed means
        out = np.bincount(self._rows, self._values * s[self._cols], self._n_rows) - self._mean @ s
        out += self._block @ v[self._dense]
        return out

    @property
    def T(self) -> "_Transposed":
        return _Transposed(self)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        sums = np.bincount(self._cols, self._values * u[self._rows], len(self._scale))
        out = (sums - self._mean * u.sum()) / self._scale
        out[self._dense] = self._block.T @ u
        return out


class _Transposed:
    """`A.T` of a `_Standardized` A: `A.T @ u` is `A.rmatvec(u)`."""

    def __init__(self, A: _Standardized):
        self._A = A

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self._A.rmatvec(u)


def logistic_loss_grad(
    weights: np.ndarray, bias: float, X: Union[np.ndarray, _Standardized], y: np.ndarray,
    penalty: float,
) -> tuple[float, np.ndarray, float]:
    """Mean negative log-likelihood plus (penalty/2)*||w||^2, and its exact
    gradient. `train_logistic` minimizes it at penalty 1/n: LIBLINEAR's
    primal at C = 1, divided by n.

    The bias is not penalized. Loss uses logaddexp so large margins cannot
    overflow.
    """
    z = X @ weights + bias
    with np.errstate(over="ignore"):  # saturation is well-defined here
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        loss += 0.5 * penalty * float(weights @ weights)
        p = 1.0 / (1.0 + np.exp(-z))
    residual = p - y
    grad_w = X.T @ residual / len(y) + penalty * weights
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


@dataclass
class LinearModel:
    """Scores raw rows x by the margin (x - center) @ weights + bias; a
    `center` of None is the origin. A fit's center is its training mean,
    so large column means are never folded into the bias."""

    kind: str  # "logistic" or "linear_svm"
    weights: np.ndarray
    bias: float
    column_names: tuple[str, ...]
    meta: dict = field(default_factory=dict)
    center: Optional[np.ndarray] = None


# Newton steps before a linear fit gives up short of its tolerance.
_MAX_NEWTON_STEPS = 100


def _column_stats(X: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Each column's mean and standard deviation from the nonzero entries of
    `X`, summed per column in their row-major order: the mean is sum(x) / n,
    and the variance adds zeros * mean**2 to the sum of (x - mean)**2 over
    the nonzeros. A column's bits depend on its own entries alone, not on
    the matrix's width, layout or other columns."""
    n, p = X.n_rows, X.n_columns
    _, cols, values = X.entries
    mean = np.bincount(cols, values, minlength=p) / n
    dev = values - mean[cols]
    zeros = n - np.bincount(cols, minlength=p)
    variance = (np.bincount(cols, dev * dev, minlength=p) + zeros * mean**2) / n
    return mean, np.sqrt(variance)


def _newton_direction(A: _Standardized, curvature: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Truncated conjugate gradient for H d = -g, where H is the (generalized)
    Hessian in (w, b) of a linear model's objective at penalty 1/n and
    `curvature` is the loss's second derivative in each row's margin.

    Runs at most p + 1 Hessian-vector products and stops once the residual
    is under min(0.5, sqrt(||g||)) * ||g||. A step of non-positive
    curvature (only possible through rounding) ends the solve early.
    """
    n = len(A)

    def hessian_times(d: np.ndarray) -> np.ndarray:
        u = curvature * (A @ d[:-1] + d[-1])
        return np.append(A.T @ u + d[:-1], u.sum()) / n

    g_norm = math.sqrt(float(g @ g))
    tol = min(0.5, math.sqrt(g_norm)) * g_norm
    d = np.zeros_like(g)
    r = -g
    s = r.copy()
    rr = float(r @ r)
    for _ in range(len(g)):
        Hs = hessian_times(s)
        sHs = float(s @ Hs)
        if sHs <= 0.0:
            break
        alpha = rr / sHs
        d += alpha * s
        r -= alpha * Hs
        rr, rr_old = float(r @ r), rr
        if math.sqrt(rr) <= tol:
            break
        s = r + (rr / rr_old) * s
    return d if d.any() else -g


def _fit_newton(
    kind: str, X: FeatureMatrix, y: np.ndarray, tolerance: float,
    loss_grad: Callable, curvature: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> LinearModel:
    """Newton-CG on `loss_grad`'s objective at penalty 1/n, C = 1 (Lin, Weng
    and Keerthi 2008, without the trust region), from w = 0, b = 0.

    The objective is taken over A, the columns of `X` standardized by
    their mean and standard deviation (1 where that is 0), which only the
    `_Standardized` operator holds. Each Newton direction comes from
    `_newton_direction`, with `curvature(z, y)` taken at the margins
    z = A w + b; the step along it starts at 1 and halves until the Armijo
    condition (c = 1e-4) holds. Stops once the gradient norm is under
    `tolerance`. A fit that reaches `_MAX_NEWTON_STEPS`, or whose 40
    halvings cannot lower the objective, ends with its gradient norm at or
    above the tolerance; `meta` records the Newton steps taken
    (`epochs_run`) and that norm. The model scores the raw columns of `X`
    by its weights w/sd, its bias b and the center `mean`.
    """
    y = _check_training_inputs(X, y)
    mean, scale = _column_stats(X)
    scale[scale == 0.0] = 1.0
    A = _Standardized(X, mean, scale)
    w = np.zeros(X.n_columns)
    b = 0.0
    penalty = 1.0 / len(y)  # C = 1
    loss, gw, gb = loss_grad(w, b, A, y, penalty)
    g = np.append(gw, gb)
    steps = 0
    while steps < _MAX_NEWTON_STEPS and math.sqrt(float(g @ g)) >= tolerance:
        d = _newton_direction(A, curvature(A @ w + b, y), g)
        slope, t = float(g @ d), 1.0
        for _ in range(40):
            trial_loss, gw, gb = loss_grad(w + t * d[:-1], b + t * d[-1], A, y, penalty)
            if trial_loss <= loss + 1e-4 * t * slope:
                break
            t /= 2.0
        else:
            break  # no step lowers the objective at this precision
        w, b = w + t * d[:-1], b + t * float(d[-1])
        loss, g = trial_loss, np.append(gw, gb)
        steps += 1
    return LinearModel(
        kind=kind,
        weights=w / scale,
        bias=b,
        column_names=X.column_names,
        meta={"epochs_run": steps, "final_grad_norm": math.sqrt(float(g @ g))},
        center=mean,
    )


def _logistic_curvature(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-z))
    return p * (1.0 - p)


def train_logistic(
    X: FeatureMatrix, y: np.ndarray, params: LogisticParams = LogisticParams()
) -> LinearModel:
    """Minimize `logistic_loss_grad`'s objective at penalty 1/n over the
    standardized columns of `X` by Newton-CG (`_fit_newton`), with
    curvature p(1-p) per row. The model scores raw columns."""
    return _fit_newton(
        "logistic", X, y, params.tolerance, logistic_loss_grad, _logistic_curvature
    )


# ---------------------------------------------------------------------------
# Linear SVM (L2-loss)
# ---------------------------------------------------------------------------


def svm_loss_grad(
    weights: np.ndarray, bias: float, X: Union[np.ndarray, _Standardized], y: np.ndarray,
    penalty: float,
) -> tuple[float, np.ndarray, float]:
    """Mean squared hinge max(0, 1 - t*z)^2, with t = 2y - 1 and z the
    margin, plus (penalty/2)*||w||^2, and its exact gradient.
    `train_linear_svm` minimizes it at penalty 1/n: LIBLINEAR's L2-loss
    primal at C = 1, divided by n. The bias is not penalized.
    """
    t = 2.0 * y - 1.0
    slack = np.maximum(0.0, 1.0 - t * (X @ weights + bias))
    loss = float(np.mean(slack * slack)) + 0.5 * penalty * float(weights @ weights)
    residual = -2.0 * t * slack  # d loss_i / d z_i
    grad_w = X.T @ residual / len(y) + penalty * weights
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


def _svm_curvature(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # 2 where the squared hinge is active, 0 elsewhere: the generalized
    # Hessian of Keerthi and DeCoste (2005).
    return np.where((2.0 * y - 1.0) * z < 1.0, 2.0, 0.0)


def train_linear_svm(
    X: FeatureMatrix, y: np.ndarray, params: SvmParams = SvmParams()
) -> LinearModel:
    """Minimize `svm_loss_grad`'s objective at penalty 1/n over the
    standardized columns of `X` by Newton-CG (`_fit_newton`), with
    curvature 2 on rows whose margin is under 1. The model scores raw
    columns."""
    return _fit_newton("linear_svm", X, y, params.tolerance, svm_loss_grad, _svm_curvature)


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


# At most this many (row, tried column) pairs plus code positions go into one
# split search; a group counted from its column's listed rows brings as many
# pairs as the column lists. A level with more is searched a run of its nodes
# at a time, and a node with more a run of its tried columns at a time, so
# only one tried column of one node (its pairs plus its column's distinct
# values) can pass it. Each search holds a few int64 and float64 arrays of
# this length.
_SEARCH_CHUNK = 1 << 18
_NO_SPLITS = (np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),) * 2
# A fit counts a row's positives in the same number as its bootstrap count, as
# multiples of this; the counts stay exact while a fit has fewer rows.
_LABEL_SHIFT = 1 << 26
# Each block of a level's tried-column keys takes at most this many bytes,
# or one node's keys where they take more.
_DRAW_BYTES = 1 << 18
# Columns are sorted in contiguous copies of about this many values.
_CODE_BLOCK = 1 << 17


@dataclass
class _ValueCodes:
    """`codes[j, i]` is the rank of A[i, j] among the distinct values of
    column j, which are `values[offsets[j]:offsets[j + 1]]`, increasing.
    Codes are int16 up to 32,767 rows and int32 above.

    A column with at most half of its rows nonzero is listed: `zero[j]` is
    the code of its zero, and its nonzero rows and their codes are
    `nz_rows` and `nz_codes` at `nz_start[j]:nz_start[j + 1]`. Any other
    column lists none, and its `zero[j]` is -1.
    """

    codes: np.ndarray  # (p, n)
    values: np.ndarray
    offsets: np.ndarray
    zero: np.ndarray
    nz_start: np.ndarray
    nz_rows: np.ndarray
    nz_codes: np.ndarray

    def distinct(self, j: int) -> np.ndarray:
        return self.values[self.offsets[j] : self.offsets[j + 1]]

    @staticmethod
    def of(X: FeatureMatrix) -> "_ValueCodes":
        """The codes of `X`, read from its dense values when it holds them
        and from its nonzero entries otherwise. A column with more than
        half of its rows nonzero is sorted whole; every other column's
        nonzeros are sorted together with theirs, and its zeros take the
        zero's code by a fill."""
        n, p = X.n_rows, X.n_columns
        codes = np.empty((p, n), dtype=np.int16 if n <= np.iinfo(np.int16).max else np.int32)
        width = max(1, _CODE_BLOCK // max(n, 1))
        whole = {}  # column -> its distinct values, for the columns sorted whole
        # (columns, rows, values) of the other columns' nonzeros
        listed = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))]
        if X.holds_values:  # its entries would take up to three times its bytes
            for lo in range(0, p, width):  # sorting contiguous copies is faster
                block = X.values[:, lo : lo + width].T.copy()
                dense = np.count_nonzero(block, axis=1) * 2 > n
                whole.update(_code_columns(block[dense], lo + np.flatnonzero(dense), codes))
                sparse = block[~dense]
                at, rows = np.divmod(np.flatnonzero(sparse != 0.0), max(n, 1))
                listed.append(((lo + np.flatnonzero(~dense))[at], rows, sparse[at, rows]))
        else:
            rows, cols, vals = X.entries
            dense = np.bincount(cols, minlength=p) * 2 > n
            in_block = dense[cols]
            listed.append((cols[~in_block], rows[~in_block], vals[~in_block]))
            columns = np.flatnonzero(dense)
            block = np.zeros((len(columns), n))
            at = (np.cumsum(dense) - 1)[cols[in_block]]
            at *= n
            at += rows[in_block]
            block.ravel()[at] = vals[in_block]
            del at, in_block
            for lo in range(0, len(columns), width):
                whole.update(_code_columns(block[lo : lo + width], columns[lo : lo + width], codes))
            del block
        return _code_listed(codes, whole, listed)


def _code_columns(block: np.ndarray, columns: np.ndarray, codes: np.ndarray) -> dict:
    """Write the value codes of each row k of `block` to `codes[columns[k]]`,
    and return each column's distinct values. One sort per row gives its
    distinct values, and a binary search of each value among them its
    code."""
    ordered = np.sort(block, axis=1)
    first = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    distinct = [s[f] for s, f in zip(ordered, first)]
    for j, column, values in zip(columns.tolist(), block, distinct):
        codes[j] = np.searchsorted(values, column)
    return dict(zip(columns.tolist(), distinct))


def _code_listed(codes: np.ndarray, whole: dict, parts: list) -> _ValueCodes:
    """The value codes of a matrix whose columns in `whole` are coded, given
    their distinct values, and whose other columns have the nonzeros in the
    (columns, rows, values) `parts`, in any order; the parts are let go
    once joined. One sort by (column, value) of those nonzeros gives
    each its code; the zeros of those columns take the zero's code, the
    count of the column's distinct negatives."""
    p, n = codes.shape
    cols, rows, vals = (np.concatenate(part) for part in zip(*parts))
    parts.clear()
    # By value, then stably by column: a radix sort where columns fit in 16 bits.
    order = np.argsort(vals, kind="stable")
    by_column = cols[order].astype(np.uint16 if p <= 1 << 16 else np.intp)
    order = order[np.argsort(by_column, kind="stable")]
    del by_column
    cols = cols[order]  # one at a time, so one copy is alive at once
    rows = rows[order]
    vals = vals[order]
    del order
    new = np.ones(len(vals), dtype=bool)  # the first nonzero of each distinct value
    np.logical_or(cols[1:] != cols[:-1], vals[1:] != vals[:-1], out=new[1:])
    n_distinct = np.bincount(cols[new], minlength=p)
    zero = np.bincount(cols[new & (vals < 0.0)], minlength=p)
    # A nonzero's rank among its column's distinct nonzeros, one up past the zero.
    code = np.cumsum(new)
    code -= (np.cumsum(n_distinct) - n_distinct + 1)[cols]
    code += vals > 0.0
    listed = np.ones(p, dtype=bool)
    listed[list(whole)] = False
    width = np.where(listed, n_distinct + (n > 0), 0)  # with the zero, when there are rows
    for j, distinct in whole.items():
        width[j] = len(distinct)
    offsets = np.concatenate(([0], np.cumsum(width)))
    values = np.empty(offsets[-1])
    values[(offsets[:-1] + zero)[listed & (n > 0)]] = 0.0
    values[offsets[cols[new]] + code[new]] = vals[new]
    for j, distinct in whole.items():
        values[offsets[j] : offsets[j + 1]] = distinct
    codes[listed] = zero[listed, None]
    codes[cols, rows] = code
    nz_start = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=p))))
    return _ValueCodes(
        codes, values, offsets, np.where(listed, zero, -1), nz_start, rows,
        code.astype(codes.dtype),
    )


def _best_splits(
    vc: _ValueCodes, rows: np.ndarray, counted: np.ndarray, starts: np.ndarray,
    tried: np.ndarray, n_node: np.ndarray, m_node: np.ndarray, min_leaf: int,
    listed: Optional[np.ndarray] = None,
    entry: Optional[tuple[np.ndarray, np.ndarray, int]] = None,
) -> tuple[np.ndarray, ...]:
    """Exact Gini split search for several nodes at once.

    Node s holds `rows[starts[s]:starts[s + 1]]`, `n_node[s]` rows in all
    and `m_node[s]` with y = 1, and tries the columns `tried[s]`. A row
    counted w times with label y has `counted` w * (1 + y * `_LABEL_SHIFT`):
    a search counts a position's positives in the same bincount as its
    rows. Each (node, tried column) group spans the codes of
    its column. One bincount over (group, code) keys counts the rows and
    positives at each position; prefix sums that restart at each group give
    the left side of every boundary. The cost minimized is
    sum_child m_c*(n_c-m_c)/n_c, which orders splits identically to weighted
    Gini decrease; ties break toward the earlier tried column, then the
    smaller left side.

    A group where `listed` is true, whose column must list its nonzero rows,
    counts only those rows that are in its node, found by `entry` = (slots,
    base, lo): row r of node s is at `slots[base[s] + r] - lo` in `rows` if
    that lies in the node. Its zero's position then counts the node's
    totals minus the rest, exactly, as every count is an integer below
    2**53. Other groups gather the codes of all of their node's rows.

    Returns, for each node with a valid split, in node order: its index, the
    column, the code of the last value that goes left, the threshold (the
    midpoint of the two adjacent values present) and the cost. Each node
    must count fewer than `_LABEL_SHIFT` rows.
    """
    S, mtry = tried.shape
    sizes = starts[1:] - starts[:-1]
    width = vc.offsets[tried + 1] - vc.offsets[tried]
    group_start = (np.cumsum(width) - width.ravel()).reshape(S, mtry)
    if listed is None or not listed.any():
        # A row's pairs are adjacent, so one bincount's adds go to different
        # groups: a column with few values would otherwise chain its adds.
        if S == 1:  # a copy of the tried columns, then one gather of its rows
            code = np.take(vc.codes[tried[0]], rows, axis=1).T
        else:
            at = np.repeat(tried * vc.codes.shape[1], sizes, axis=0)
            at += rows[:, None]
            code = vc.codes.ravel()[at]
            del at
        key = np.repeat(group_start, sizes, axis=0)
        key += code
        del code
        counts = np.bincount(
            key.ravel(), weights=np.repeat(counted, mtry), minlength=int(width.sum())
        )
        del key  # the search's largest arrays; what follows is per position
    else:
        # The gathered groups' pairs, a group at a time: each row of the node.
        group = np.flatnonzero(~listed)
        node, size = group // mtry, sizes[group // mtry]
        e = _ranges(starts[node], size)
        key = vc.codes.ravel()[np.repeat(tried.ravel()[group] * vc.codes.shape[1], size) + rows[e]]
        key = key + np.repeat(group_start.ravel()[group], size)
        w = counted[e]
        # The listed groups' pairs: the column's listed rows that are in the node.
        group = np.flatnonzero(listed)
        node, column = group // mtry, tried.ravel()[group]
        size = vc.nz_start[column + 1] - vc.nz_start[column]
        slots, base, lo = entry
        at = _ranges(vc.nz_start[column], size)
        e = vc.nz_rows[at]
        e += np.repeat(base[node], size)
        e = slots[e]
        e -= np.repeat(lo + starts[node], size)
        inside = np.flatnonzero(e.view(np.uint64) < np.repeat(sizes[node], size))
        pair = np.repeat(np.arange(len(group)), size)[inside]
        w_listed = counted[e[inside] + starts[node][pair]]
        key = np.concatenate((key, group_start.ravel()[group][pair] + vc.nz_codes[at[inside]]))
        counts = np.bincount(key, weights=np.concatenate((w, w_listed)), minlength=int(width.sum()))
        del key, w, e, at, inside
        # A listed group's zero counts the node's totals minus its listed rows.
        zeros = n_node[node] + m_node[node] * _LABEL_SHIFT
        zeros -= np.bincount(pair, weights=w_listed, minlength=len(group))
        counts[group_start.ravel()[group] + vc.zero[column]] = zeros
    present = np.flatnonzero(counts > 0)  # of a mask: several times faster
    counts = counts[present]
    m_at = np.floor(counts / _LABEL_SHIFT)
    n_at = counts - m_at * _LABEL_SHIFT
    heads = np.searchsorted(present, group_start.ravel())  # no group is empty
    size = np.diff(heads, append=len(present))
    nl, ml = np.cumsum(n_at), np.cumsum(m_at)
    nl -= np.repeat((nl - n_at)[heads], size)
    ml -= np.repeat((ml - m_at)[heads], size)
    per_node = size.reshape(S, mtry).sum(axis=1)
    nr = np.repeat(n_node, per_node) - nl
    mr = np.repeat(m_node, per_node) - ml
    # A group's last position has every row on its left (0/0 on the right),
    # so it is never a boundary, whatever min_leaf.
    with np.errstate(invalid="ignore"):
        cost = ml * (nl - ml) / nl + mr * (nr - mr) / nr
    cost[(nl < min_leaf) | (nr < max(min_leaf, 1))] = np.inf
    group_min = np.minimum.reduceat(cost, heads)
    slot = np.argmin(group_min.reshape(S, mtry), axis=1)  # the first tried column at the minimum
    g = np.arange(S) * mtry + slot
    node = np.flatnonzero(group_min[g] < np.inf)
    g = g[node]
    at_min = np.flatnonzero(cost == np.repeat(group_min, size))
    b = at_min[np.searchsorted(at_min, heads[g])]  # the smallest left side at the minimum
    feature = tried[node, slot[node]]
    last = present[b] - group_start.ravel()[g]
    value = vc.offsets[feature] + last
    threshold = (vc.values[value] + vc.values[value + present[b + 1] - present[b]]) / 2.0
    return node, feature, last, threshold, group_min[g]


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges start[i] .. start[i] + size[i] - 1, one after another."""
    at = np.repeat(start - np.cumsum(size) + size, size)
    at += np.arange(len(at))
    return at


def best_split(
    A: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_leaf: int
) -> Optional[tuple[int, float, float]]:
    """Exact Gini split search over the given features of one node: the
    forest's level-wise search on a single node.

    Returns (feature, threshold, cost) for the best valid split or None.
    Ties break toward the earlier feature, then the lower threshold.
    """
    features = np.asarray(feature_indices, dtype=np.int64)
    n = len(y)
    if n == 0:
        return None
    y01 = np.asarray(y, dtype=np.int64)
    node, local, _, threshold, cost = _best_splits(
        _ValueCodes.of(FeatureMatrix([str(j) for j in features], A[:, features])), np.arange(n),
        1.0 + y01 * _LABEL_SHIFT, np.array([0, n]), np.arange(len(features))[None, :],
        np.array([n]), np.array([y01.sum()]), min_leaf,
    )
    if len(node) == 0:
        return None
    return int(features[local[0]]), float(threshold[0]), float(cost[0])


def _runs(load: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive runs [a, b) of items whose loads sum to at most
    `_SEARCH_CHUNK`, or of one item that alone passes it."""
    ends = np.cumsum(load)
    a = 0
    while a < len(load):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - load[a] + _SEARCH_CHUNK, "right")))
        yield a, b
        a = b


def _tried_columns(rngs: list, tree: np.ndarray, p: int, mtry: int) -> np.ndarray:
    """The columns that nodes of the given nondecreasing trees try, shape
    (len(tree), mtry).

    The nodes of tree t, in node order, take consecutive rows of p uniform
    keys from `rngs[t]`, and a node tries the columns of its `mtry` smallest
    keys, in column order; every column when `mtry` is p. The keys go into
    blocks of at most max(`_DRAW_BYTES`, 8 * p) bytes, filled by one draw
    per tree, and each block takes one argpartition.
    """
    if mtry == p:
        return np.tile(np.arange(p), (len(tree), 1))
    out = np.empty((len(tree), mtry), dtype=np.int64)
    bounds = np.searchsorted(tree, np.arange(len(rngs) + 1)).tolist()
    block = max(1, _DRAW_BYTES // (8 * p))
    for lo in range(0, len(tree), block):
        hi = min(lo + block, len(tree))
        keys = np.empty((hi - lo, p))
        for t in range(tree[lo], tree[hi - 1] + 1):
            a, b = max(bounds[t], lo), min(bounds[t + 1], hi)
            rngs[t].random(out=keys[a - lo : b - lo])
        out[lo:hi] = np.sort(np.argpartition(keys, mtry - 1, axis=1)[:, :mtry], axis=1)
    return out


@dataclass
class ForestModel:
    """A trained forest. `importances` is each column's mean decrease in
    node impurity (mdni): the weighted Gini decreases of the nodes that
    split on it, summed per tree and averaged over trees; 0 for a column
    no node splits on."""

    kind: str
    trees: list[Tree]
    column_names: tuple[str, ...]
    importances: np.ndarray


def train_forest(
    X: FeatureMatrix, y: np.ndarray, params: ForestParams = ForestParams(),
    codes: Optional[_ValueCodes] = None,
) -> ForestModel:
    """Bootstrap-aggregated CART trees, all grown together a level at a time.

    Tree t draws its bootstrap sample, then at each level the columns each
    of its nodes tries, from SeedSequence([seed, 0xF0BE57, t]), so it
    depends on the data, the seed and t alone. One `_best_splits` pass per
    level, over value codes, serves every growable node of every tree; node
    ids are breadth-first per tree. Importances are the weighted Gini
    decreases summed per split feature, with weights n_node/n, averaged
    over the trees. `codes`, when given, must be `_ValueCodes.of(X)`;
    a caller that already holds them saves the sorts.
    """
    y01 = _check_training_inputs(X, y).astype(np.int64)
    n, p = X.n_rows, X.n_columns
    if params.mtry > p:
        raise ContractError(f"mtry {params.mtry} exceeds feature count {p}")
    if n >= _LABEL_SHIFT:
        raise ContractError(f"a forest fits fewer than {_LABEL_SHIFT} rows, got {n}")
    mtry = min(params.mtry or math.ceil(math.sqrt(p)), p)
    vc = _ValueCodes.of(X) if codes is None else codes
    if vc.codes.shape != (p, n):
        raise ContractError(f"value codes of shape {vc.codes.shape} for a {n} x {p} matrix")
    seed = params.seed & 0xFFFFFFFFFFFFFFFF
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, 0xF0BE57, t]))
            for t in range(params.n_trees)]
    # Tree t's bootstrap sample, as a count per row at t * n + row.
    counts = np.concatenate([rng.integers(0, n, n) for rng in rngs])
    counts.reshape(params.n_trees, n)[:] += np.arange(0, params.n_trees * n, n)[:, None]
    counts = np.bincount(counts, minlength=params.n_trees * n)
    # A (node, tried column) group counts its column's listed nonzero rows
    # where they are fewer than the node's entries (a column that lists none
    # counts as n + 1 here); then `slots[t * n + r]` is the level's entry of
    # row r in tree t, or -1.
    n_listed = np.where(vc.zero >= 0, np.diff(vc.nz_start), n + 1)
    slots = None
    # The frontier holds one depth's nodes, ordered by tree, then node id.
    # Each distinct row of a node is an entry (front, rows, counted), with
    # entries sorted by their node and counted its bootstrap count with its
    # positives shifted in (see `_best_splits`).
    rows = np.flatnonzero(counts > 0)
    counted = counts[rows].astype(np.float64)
    del counts  # n_trees x n int64; the entries hold what the fit needs
    front = rows // n
    rows -= front * n
    counted *= 1 + y01[rows] * _LABEL_SHIFT
    f_tree = np.arange(params.n_trees)
    n_nodes = np.ones(params.n_trees, dtype=np.int64)
    importances = np.zeros((params.n_trees, p))
    levels = []
    while len(f_tree):
        F = len(f_tree)
        n_node = np.bincount(front, weights=counted, minlength=F)
        m_node = np.floor(n_node / _LABEL_SHIFT)
        n_node -= m_node * _LABEL_SHIFT
        grow = (m_node > 0) & (m_node < n_node) & (n_node >= 2 * params.min_leaf)
        if mtry == 0 or (params.max_depth is not None and len(levels) >= params.max_depth):
            grow[:] = False  # no column to split on, or the depth cap
        cand = np.flatnonzero(grow)
        tried = _tried_columns(rngs, f_tree[cand], p, mtry)

        keep = grow[front]
        # The entry arrays are replaced one at a time, so one copy is alive at once.
        rows = rows[keep]
        counted = counted[keep]
        front = front[keep]
        starts = np.searchsorted(front, np.append(cand, F))
        sizes = starts[1:] - starts[:-1]
        width = vc.offsets[tried + 1] - vc.offsets[tried]
        listed = n_listed[tried] < sizes[:, None]
        pairs = np.where(listed, n_listed[tried], sizes[:, None])
        # A node lists only where that saves three quarters of its pairs:
        # a listed row costs a few gathers, and gathering all of a node's
        # tried columns keeps a row's pairs together, fewer passes per pair.
        listed &= (pairs.sum(axis=1) * 4 < sizes * mtry)[:, None]
        pairs = np.where(listed, pairs, sizes[:, None])
        load = pairs.sum(axis=1) + width.sum(axis=1)
        if listed.any():
            if slots is None:
                slots = np.empty(params.n_trees * n, dtype=np.intp)
            slots.fill(-1)
            slots[f_tree[front] * n + rows] = np.arange(len(rows))
        found = [_NO_SPLITS]
        for a, b in _runs(load):
            lo, hi = starts[a], starts[b]
            entry = (slots, f_tree[cand[a:b]] * n, lo)
            # A node that alone passes the cap is searched a run of its
            # tried columns at a time; a tie keeps the earlier column.
            node, *split = _NO_SPLITS
            for c, d in _runs(pairs[a] + width[a]) if load[a] > _SEARCH_CHUNK else [(0, mtry)]:
                got = _best_splits(
                    vc, rows[lo:hi], counted[lo:hi], starts[a : b + 1] - lo,
                    tried[a:b, c:d], n_node[cand[a:b]], m_node[cand[a:b]], params.min_leaf,
                    listed[a:b, c:d], entry,
                )
                if len(got[0]) and not (len(node) and split[3][0] <= got[4][0]):
                    node, *split = got
            found.append((cand[a + node], *split))
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
        rows = rows[routed]
        counted = counted[routed]
        front = front[routed]
        at = feature[front]
        at *= n
        at += rows
        goes_right = vc.codes.ravel()[at] > last_left[front]
        del at
        front = child[front] + goes_right
        del goes_right
        order = np.argsort(front, kind="stable")
        rows = rows[order]
        counted = counted[order]
        front = front[order]
        del order  # entry-sized, like rows; not kept through the next search
        f_tree = np.repeat(st, 2)

    # Within a tree, nodes were made in breadth-first id order.
    tree_of, *arrays = (np.concatenate(parts) for parts in zip(*levels))
    order = np.argsort(tree_of, kind="stable")
    arrays = [a[order] for a in arrays]
    ends = np.cumsum(n_nodes).tolist()
    return ForestModel(
        kind="forest",
        trees=[Tree(*(a[e - k : e] for a in arrays)) for k, e in zip(n_nodes.tolist(), ends)],
        column_names=X.column_names,
        importances=importances.sum(axis=0) / params.n_trees,
    )


def _tree_scores(trees: list[Tree], A: np.ndarray) -> np.ndarray:
    """The leaf value of every row in every tree, shape (trees, rows). The
    trees are stacked with node offsets and all (tree, row) pairs are
    routed together, one depth per step."""
    sizes = [t.n_nodes for t in trees]
    offsets = np.cumsum([0] + sizes[:-1])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    # A row at node k moves to child[k, 0] when A[row, feature[k]] <=
    # threshold[k], else to child[k, 1].
    child = np.empty((len(feature), 2), dtype=np.int64)
    child[:, 0] = np.concatenate([t.left for t in trees])
    child[:, 1] = np.concatenate([t.right for t in trees])
    child += np.repeat(offsets, sizes)[:, None]
    child = child.ravel()
    n, p = A.shape
    node = np.repeat(offsets, n)
    at = np.tile(np.arange(n) * p, len(trees))  # where each pair's row starts in A.ravel()
    flat = A.ravel()
    active = np.flatnonzero(feature[node] >= 0)
    while len(active):
        sub = node[active]
        sub = child[2 * sub + ~(flat[at[active] + feature[sub]] <= threshold[sub])]
        node[active] = sub
        active = active[feature[sub] >= 0]
    return np.concatenate([t.value for t in trees])[node].reshape(len(trees), n)


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
    if model.kind in ("logistic", "linear_svm"):
        center = np.zeros(X.n_columns) if model.center is None else model.center
        z = _Standardized(X, center, np.ones(X.n_columns)) @ model.weights + model.bias
        return 1.0 / (1.0 + np.exp(-z)) if model.kind == "logistic" else z
    if model.kind == "forest":
        # Summed over axis 0, the trees' values are added in tree order.
        return _tree_scores(model.trees, X.values).sum(axis=0) / len(model.trees)
    raise ContractError(f"unknown model kind: {model.kind!r}")


MODEL_KINDS = ("logistic", "linear_svm", "forest")  # the kinds `train_model` fits


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
