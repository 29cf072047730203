import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import metatriage.learn
from metatriage.errors import ContractError
from metatriage.featurize import FeatureMatrix, bin_column, rank_bins
from metatriage.learn import ForestParams, _ValueCodes, train_forest
from metatriage.select import (
    FeatureScore,
    RankedFeatures,
    _borda,
    _contingency,
    rank_features,
    rank_window,
    ranking_to_csv_text,
    score_chi_squared,
    score_gain_ratio,
    score_information_gain,
)

from test_featurize import oracle_columns, quantile_bins


# ---------------------------------------------------------------------------
# Independent oracles: dictionary counting plus textbook formulas, written
# without numpy so a shared bug with the implementation is implausible.

def oracle_table(binned, labels):
    counts = Counter(zip((int(b) for b in binned), (int(y) for y in labels)))
    n_bins = max(int(b) for b in binned) + 1
    return [[counts.get((b, y), 0) for y in (0, 1)] for b in range(n_bins)]


def oracle_entropy(counts):
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def oracle_chi_squared(binned, labels):
    table = oracle_table(binned, labels)
    n = sum(sum(row) for row in table)
    row_sums = [sum(row) for row in table]
    col_sums = [sum(row[j] for row in table) for j in (0, 1)]
    stat = 0.0
    for i, row in enumerate(table):
        for j in (0, 1):
            expected = row_sums[i] * col_sums[j] / n
            if expected > 0:
                stat += (row[j] - expected) ** 2 / expected
    return stat


def oracle_information_gain(binned, labels):
    table = oracle_table(binned, labels)
    n = sum(sum(row) for row in table)
    h_y = oracle_entropy([sum(row[j] for row in table) for j in (0, 1)])
    h_cond = sum(sum(row) / n * oracle_entropy(row) for row in table if sum(row))
    return max(h_y - h_cond, 0.0)


def oracle_gain_ratio(binned, labels):
    table = oracle_table(binned, labels)
    h_x = oracle_entropy([sum(row) for row in table])
    if h_x == 0.0:
        return 0.0
    return oracle_information_gain(binned, labels) / h_x


def random_instance(rng):
    n = int(rng.integers(4, 200))
    n_bins = int(rng.integers(1, 8))
    binned = rng.integers(0, n_bins, n)
    labels = rng.integers(0, 2, n)
    return binned, labels


class TestScoreOracles:
    def test_contingency_matches_dict_counting(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            binned, labels = random_instance(rng)
            got = _contingency(binned, labels)
            assert got.tolist() == oracle_table(binned, labels)

    def test_chi_squared_matches_oracle(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            binned, labels = random_instance(rng)
            assert score_chi_squared(binned, labels) == pytest.approx(
                oracle_chi_squared(binned, labels), abs=1e-9
            )

    def test_information_gain_matches_oracle(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            binned, labels = random_instance(rng)
            assert score_information_gain(binned, labels) == pytest.approx(
                oracle_information_gain(binned, labels), abs=1e-9
            )

    def test_gain_ratio_matches_oracle(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            binned, labels = random_instance(rng)
            assert score_gain_ratio(binned, labels) == pytest.approx(
                oracle_gain_ratio(binned, labels), abs=1e-9
            )


class TestWorkedValues:
    def test_chi_squared_cross_table(self):
        # Table [[40, 10], [10, 40]]: every expected cell is 25, so the
        # statistic is 4 * 15^2 / 25 = 36 exactly.
        binned = np.array([0] * 50 + [1] * 50)
        labels = np.array([0] * 40 + [1] * 10 + [0] * 10 + [1] * 40)
        assert score_chi_squared(binned, labels) == pytest.approx(36.0, abs=1e-12)

    def test_chi_squared_uniform_table_is_zero(self):
        binned = np.array([0] * 50 + [1] * 50)
        labels = np.array(([0] * 25 + [1] * 25) * 2)
        assert score_chi_squared(binned, labels) == pytest.approx(0.0, abs=1e-12)

    def test_chi_squared_perfect_balanced_equals_n(self):
        binned = np.array([0] * 50 + [1] * 50)
        labels = binned.copy()
        assert score_chi_squared(binned, labels) == pytest.approx(100.0, abs=1e-9)

    def test_information_gain_worked_example(self):
        # y = [1,1,1,0], x = [0,0,1,1]: H(y) = 0.8113, H(y|x) = 0.5.
        labels = np.array([1, 1, 1, 0])
        binned = np.array([0, 0, 1, 1])
        ig = score_information_gain(binned, labels)
        assert round(ig, 4) == 0.3113
        expected = (-(3 / 4) * math.log2(3 / 4) - (1 / 4) * math.log2(1 / 4)) - 0.5
        assert ig == pytest.approx(expected, abs=1e-12)

    def test_gain_ratio_worked_example(self):
        # H(x) = 1 bit, so the ratio equals the gain here.
        labels = np.array([1, 1, 1, 0])
        binned = np.array([0, 0, 1, 1])
        assert round(score_gain_ratio(binned, labels), 4) == 0.3113

    def test_identical_balanced_feature(self):
        labels = np.array([0, 1] * 30)
        assert score_information_gain(labels, labels) == pytest.approx(1.0)
        assert score_gain_ratio(labels, labels) == pytest.approx(1.0)

    def test_independent_feature_scores_zero(self):
        binned = np.array([0, 0, 1, 1] * 10)
        labels = np.array([0, 1, 0, 1] * 10)
        assert score_information_gain(binned, labels) == pytest.approx(0.0, abs=1e-12)
        assert score_chi_squared(binned, labels) == pytest.approx(0.0, abs=1e-12)

    def test_constant_feature_scores_zero(self):
        binned = np.zeros(20, dtype=int)
        labels = np.array([0, 1] * 10)
        assert score_chi_squared(binned, labels) == 0.0
        assert score_information_gain(binned, labels) == pytest.approx(0.0, abs=1e-12)
        assert score_gain_ratio(binned, labels) == 0.0


class TestScoreInvariances:
    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        binned, labels = rng.integers(0, 4, 120), rng.integers(0, 2, 120)
        perm = rng.permutation(120)
        for score in (score_chi_squared, score_information_gain, score_gain_ratio):
            assert score(binned, labels) == pytest.approx(
                score(binned[perm], labels[perm]), abs=1e-12
            )

    def test_bin_relabel_invariance(self):
        rng = np.random.default_rng(8)
        binned, labels = rng.integers(0, 5, 150), rng.integers(0, 2, 150)
        relabel = np.array([3, 0, 4, 1, 2])
        for score in (score_chi_squared, score_information_gain, score_gain_ratio):
            assert score(binned, labels) == pytest.approx(
                score(relabel[binned], labels), abs=1e-9
            )

    def test_information_gain_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            binned, labels = random_instance(rng)
            ig = score_information_gain(binned, labels)
            h_y = oracle_entropy(np.bincount(labels).tolist())
            h_x = oracle_entropy(np.bincount(binned).tolist())
            assert 0.0 <= ig <= min(h_y, h_x) + 1e-9

    def test_gain_ratio_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            binned, labels = random_instance(rng)
            assert 0.0 <= score_gain_ratio(binned, labels) <= 1.0 + 1e-9

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ContractError):
            score_chi_squared(np.zeros(5, dtype=int), np.zeros(4, dtype=int))


def planted_matrix(n=400, seed=0):
    """x0 mirrors the label, x1 and x2 are noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    x0 = labels + rng.normal(0, 0.05, n)
    x1 = rng.normal(0, 1, n)
    x2 = rng.normal(0, 1, n)
    return FeatureMatrix(("x0", "x1", "x2"), np.column_stack([x0, x1, x2])), labels


class TestMdni:
    def test_perfect_feature_dominates(self):
        matrix, labels = planted_matrix()
        forest = train_forest(matrix, labels, ForestParams(n_trees=10, seed=4))
        scores = forest.importances
        assert scores[0] > 10 * scores[1]
        assert scores[0] > 10 * scores[2]

    def test_unsplit_features_score_zero(self):
        matrix, labels = planted_matrix()
        # mtry = all columns: x0 always wins the root and purifies both
        # sides, so noise columns are never chosen.
        params = ForestParams(n_trees=5, max_depth=2, mtry=3, seed=4)
        forest = train_forest(matrix, labels, params)
        scores = forest.importances
        assert scores[1] == 0.0
        assert scores[2] == 0.0


def ordered(ranked):
    return tuple(ranked.column_names[i] for i in ranked.order)


class TestRanking:
    def test_filter_ranking_puts_planted_feature_first(self):
        matrix, labels = planted_matrix()
        for method in ("chi_squared", "info_gain", "gain_ratio"):
            ranked = rank_features(matrix, labels, ranking_method=method)
            assert ordered(ranked)[0] == "x0"

    def test_mdni_ranking_puts_planted_feature_first(self):
        matrix, labels = planted_matrix()
        ranked = rank_features(matrix, labels, ranking_method="mdni")
        assert ordered(ranked)[0] == "x0"
        assert ranked.ranking_method == "mdni"

    def test_borda_aggregates_all_four_methods(self):
        matrix, labels = planted_matrix()
        ranked = rank_features(matrix, labels, ranking_method="borda")
        assert set(ranked.by_method) == {
            "chi_squared", "info_gain", "gain_ratio", "mdni", "borda",
        }
        assert ordered(ranked)[0] == "x0"

    def test_borda_points_are_rank_sums(self):
        a = FeatureScore("a", np.array([3.0, 2.0, 1.0]))
        b = FeatureScore("b", np.array([1.0, 3.0, 2.0]))
        points = _borda({"a": a, "b": b}, 3)
        # a awards 2,1,0; b awards 0,2,1
        assert points.tolist() == [2.0, 3.0, 1.0]

    def test_ties_break_by_column_index(self):
        matrix = FeatureMatrix(
            ("a", "b"), np.zeros((10, 2))
        )
        labels = np.array([0, 1] * 5)
        ranked = rank_features(matrix, labels, ranking_method="chi_squared")
        assert ordered(ranked) == ("a", "b")

    def test_top_k_equals_full_order_when_k_is_p(self):
        matrix, labels = planted_matrix()
        order = ordered(rank_features(matrix, labels, ranking_method="info_gain"))
        assert rank_window(order, (1, 3)) == rank_window(order, None) == order
        assert sorted(order) == sorted(matrix.column_names)

    def test_window_excludes_leading_ranks(self):
        matrix, labels = planted_matrix()
        order = ordered(rank_features(matrix, labels, ranking_method="info_gain"))
        window = rank_window(order, (2, 2))
        assert "x0" not in window
        assert window == order[1:3]

    def test_window_start_one_equals_top(self):
        order = ("c", "a", "b")
        assert rank_window(order, (1, 2)) == ("c", "a")
        assert rank_window(order, (3, 1)) == ("b",)

    def test_window_out_of_range(self):
        with pytest.raises(ValueError, match="ranks 3-4 are out of range: .* has 3 columns"):
            rank_window(("c", "a", "b"), (3, 2))
        with pytest.raises(ValueError, match="ranks 0-0 "):
            rank_window(("c", "a", "b"), (0, 1))

    def test_top_k_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(ValueError, match=f"ranks 1-{k} .* has 3 columns"):
                rank_window(("c", "a", "b"), (1, k))

    def test_unknown_method_rejected(self):
        matrix, labels = planted_matrix()
        with pytest.raises(ValueError):
            rank_features(matrix, labels, ranking_method="pca")

    def test_row_count_mismatch_rejected(self):
        matrix, labels = planted_matrix()
        with pytest.raises(ContractError):
            rank_features(matrix, labels[:-1])

    def test_normalization_preserves_order(self):
        matrix, labels = planted_matrix()
        ranked = rank_features(matrix, labels, ranking_method="chi_squared")
        score = ranked.by_method["chi_squared"]
        assert np.argsort(-score.raw).tolist() == np.argsort(-score.normalized).tolist()
        assert score.normalized.max() == 1.0

    def test_all_zero_scores_normalize_to_zero(self):
        score = FeatureScore("z", np.zeros(4))
        assert score.normalized.tolist() == [0.0] * 4

    def test_ranking_is_deterministic(self):
        matrix, labels = planted_matrix()
        a = rank_features(matrix, labels, ranking_method="borda")
        b = rank_features(matrix, labels, ranking_method="borda")
        assert a.order.tolist() == b.order.tolist()

    def test_csv_export(self):
        matrix, labels = planted_matrix()
        ranked = rank_features(matrix, labels, ranking_method="info_gain")
        text = ranking_to_csv_text(ranked)
        lines = text.splitlines()
        assert lines[0] == "rank,column,method,raw,normalized"
        assert lines[1].startswith("1,x0,info_gain,")
        assert len(lines) == 1 + matrix.n_columns

    def test_csv_export_writes_each_score_as_its_float_repr(self):
        matrix, labels = planted_matrix()
        ranked = rank_features(matrix, labels, ranking_method="borda")
        want = ["rank,column,method,raw,normalized"]
        for method in sorted(ranked.by_method):
            score = ranked.by_method[method]
            order = np.lexsort((np.arange(len(score.raw)), -score.raw))
            want += [
                f"{rank},{ranked.column_names[j]},{method},"
                f"{repr(float(score.raw[j]))},{repr(float(score.normalized[j]))}"
                for rank, j in enumerate(order, start=1)
            ]
        assert ranking_to_csv_text(ranked) == "\n".join(want) + "\n"


class TestSharedColumnPass:
    """`rank_features` bins and scores each column from its value codes, in
    one pass; every score must equal the per-column scorer on its bins."""

    SCORERS = {
        "chi_squared": score_chi_squared,
        "info_gain": score_information_gain,
        "gain_ratio": score_gain_ratio,
    }

    def matrix(self, n=300):
        values = np.column_stack(oracle_columns(n))
        labels = np.random.default_rng(4).integers(0, 2, n)
        labels[values[:, 2] > 0] = 1  # the tied column carries some signal
        return FeatureMatrix(tuple(f"c{j}" for j in range(values.shape[1])), values), labels

    @pytest.mark.parametrize("n_bins", range(2, 21))
    def test_bins_from_codes_match_quantile_bins(self, n_bins):
        matrix, _ = self.matrix()
        vc = _ValueCodes.of(matrix.values)
        for j, codes in enumerate(vc.codes):
            counts = np.bincount(codes, minlength=len(vc.distinct(j)))
            bins = rank_bins(vc.distinct(j), counts, n_bins)[codes]
            assert np.array_equal(bins, quantile_bins(matrix.values[:, j], n_bins))

    @pytest.mark.parametrize("n_bins", [2, 3, 10, 20, 2**16])
    def test_scores_equal_the_per_column_scorers_exactly(self, n_bins):
        matrix, labels = self.matrix()
        ranked = rank_features(
            matrix, labels, "borda", n_bins=n_bins,
            forest_params=ForestParams(n_trees=2, max_depth=2, seed=0),
        )
        for method, scorer in self.SCORERS.items():
            want = [scorer(bin_column(col, n_bins), labels) for col in matrix.values.T]
            assert ranked.by_method[method].raw.tolist() == want
            alone = rank_features(matrix, labels, method, n_bins=n_bins)
            assert alone.by_method[method].raw.tolist() == want

    def test_peak_memory_stays_under_the_matrix_size(self, monkeypatch):
        # Every column's int64 bins held at once would alone take as much
        # memory as the matrix. The pass holds int16 value codes (a quarter
        # of it) and one block of sorted columns: its traced peak is about
        # 0.77 of the matrix, so the bound leaves a margin of about 0.23.
        monkeypatch.setattr(metatriage.learn, "_SEARCH_CHUNK", 4096)
        rng = np.random.default_rng(0)
        n, p = 20000, 48
        values = rng.normal(size=(n, p)).round(2)
        values[:, ::3] = rng.integers(0, 3, size=(n, p // 3))
        labels = (values[:, 0] + rng.normal(size=n) > 1).astype(np.int64)
        matrix = FeatureMatrix(tuple(f"c{j}" for j in range(p)), values)
        params = ForestParams(n_trees=3, max_depth=4, min_leaf=20, seed=1)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rank_features(matrix, labels, "borda", forest_params=params)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < values.nbytes
