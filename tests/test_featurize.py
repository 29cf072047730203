import io

import numpy as np
import pytest

from metatriage.corpus import MAX_INT, Corpus, GeneratorConfig, generate_synthetic
from metatriage.errors import ContractError
from metatriage.featurize import (
    INTRINSIC_COLUMNS,
    REPUTATION_COLUMNS,
    SOCIAL_COLUMNS,
    FeatureMatrix,
    HashConfig,
    ReputationTable,
    assemble_features,
    bin_column,
    build_reputation_table,
    feature_names,
    gather_features,
    hash_column_names,
    rank_bins,
    reputation_block,
    standardize_fit_apply,
    static_feature_block,
    _hash64,
)
from metatriage.reporting import csv_text, write_matrix_csv

from test_corpus import make_record


def hash_permissions(permissions, config: HashConfig) -> np.ndarray:
    """Reference hashing of one permission set: bucket counts, collisions add."""
    out = np.zeros(config.n_buckets, dtype=np.float64)
    for perm in permissions:
        out[_hash64(perm) % config.n_buckets] += 1.0
    return out


def densify(block) -> np.ndarray:
    """The static block as one dense array in the row layout."""
    out = np.zeros(block.shape)
    block.write_into(out)
    return out


def reference_static_block(records, config: HashConfig) -> np.ndarray:
    """The static block built one record at a time from the row layout."""
    rows = []
    for r in records:
        intrinsic = [float(getattr(r, name)) for name in INTRINSIC_COLUMNS[:10]] + [
            float(len(r.permissions)),
            1.0 if r.issuer_id == r.developer_id else 0.0,
            float(len(r.package_name)),
            float(r.package_name.count(".")),
            float(r.version_code) / (r.age_in_market_days + 1.0),
        ]
        social = [float(v) for v in r.star_votes] + [float(r.total_votes), float(r.mean_star)]
        rows.append(np.concatenate([hash_permissions(r.permissions, config), intrinsic, social]))
    width = config.n_buckets + len(INTRINSIC_COLUMNS) + len(SOCIAL_COLUMNS)
    return np.array(rows, dtype=np.float64).reshape(len(records), width)


class TestHashing:
    def test_hash_is_deterministic(self):
        assert _hash64("android.permission.INTERNET") == _hash64("android.permission.INTERNET")

    def test_bucket_counts_sum_to_permission_count(self):
        config = HashConfig(32)
        perms = {f"perm.{i}" for i in range(50)}
        vec = hash_permissions(perms, config)
        assert vec.sum() == 50
        assert vec.min() >= 0

    @pytest.mark.parametrize("n_buckets", [0, 2**16 + 1, 10**20])
    def test_bucket_count_outside_the_declared_range_is_refused(self, n_buckets):
        with pytest.raises(ValueError, match=f"between 1 and 65536, got {n_buckets}"):
            HashConfig(n_buckets)
        assert HashConfig(2**16).n_buckets == 2**16

    def test_collisions_accumulate(self):
        vec = hash_permissions(["p1"], HashConfig(1))
        assert vec.shape == (1,)
        assert vec[0] == 1
        assert hash_permissions(["p1", "p2", "p3"], HashConfig(1))[0] == 3

    def test_distribution_is_roughly_uniform(self):
        # The avalanche finalizer should spread 5000 tokens over 128
        # buckets without a pathological hot spot.
        config = HashConfig(128)
        counts = np.zeros(128)
        for i in range(5000):
            counts[_hash64(f"com.vendor.perm.{i}") % 128] += 1
        mean = 5000 / 128
        assert counts.max() < 2.0 * mean
        assert counts.min() > 0.3 * mean

    def test_column_names(self):
        assert hash_column_names(HashConfig(4)) == ("f0", "f1", "f2", "f3")

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            HashConfig(0)


class TestReputation:
    def records(self):
        rows = [
            ("dev.a", "iss.x", 1),
            ("dev.a", "iss.x", 1),
            ("dev.a", "iss.y", 0),
            ("dev.b", "iss.y", 0),
            ("dev.b", "iss.y", 0),
        ]
        records = [
            make_record(app_id=f"r{i}", developer_id=d, issuer_id=s)
            for i, (d, s, _) in enumerate(rows)
        ]
        labels = np.array([y for _, _, y in rows])
        return Corpus.of(records), labels

    def test_laplace_smoothed_values(self):
        records, labels = self.records()
        table = build_reputation_table(records, labels, alpha=1.0)
        # dev.a: 2 malware of 3 -> (2+1)/(3+2); dev.b: 0 of 2 -> (0+1)/(2+2)
        assert table.developers == pytest.approx({"dev.a": 3 / 5, "dev.b": 1 / 4})
        # iss.x: 2 of 2 -> 3/4; iss.y: 0 of 3 -> 1/5
        assert table.issuers == pytest.approx({"iss.x": 3 / 4, "iss.y": 1 / 5})

    def test_global_prior_fallback_for_unseen(self):
        records, labels = self.records()
        table = build_reputation_table(records, labels, alpha=1.0)
        # 2 malware of 5 -> (2+1)/(5+2)
        assert table.global_prior == pytest.approx(3 / 7)
        unseen = make_record(developer_id="dev.never-seen", issuer_id="iss.never-seen")
        assert reputation_block(Corpus.of([unseen]), table).tolist() == [[table.global_prior] * 2]

    def test_alpha_shrinks_toward_half(self):
        records, labels = self.records()
        weak = build_reputation_table(records, labels, alpha=0.01)
        strong = build_reputation_table(records, labels, alpha=100.0)
        assert weak.developers["dev.a"] > strong.developers["dev.a"]
        assert abs(strong.developers["dev.a"] - 0.5) < 0.01

    def test_values_stay_in_unit_interval(self):
        records, labels = self.records()
        table = build_reputation_table(records, labels)
        for v in list(table.developers.values()) + list(table.issuers.values()):
            assert 0.0 < v < 1.0

    def test_length_mismatch_raises(self):
        records, labels = self.records()
        with pytest.raises(ContractError):
            build_reputation_table(records, labels[:-1])

    def test_alpha_must_be_positive(self):
        records, labels = self.records()
        with pytest.raises(ValueError):
            build_reputation_table(records, labels, alpha=0.0)


class TestAssembly:
    def test_row_layout(self):
        records = Corpus.of(make_record(app_id=f"r{i}") for i in range(3))
        labels = np.array([1, 0, 0])
        config = HashConfig(16)
        table = build_reputation_table(records, labels)
        matrix = assemble_features(records, config, table)
        assert matrix.column_names == feature_names(config)
        assert matrix.column_names[:16] == hash_column_names(config)
        assert matrix.column_names[16:31] == INTRINSIC_COLUMNS
        assert matrix.column_names[31:38] == SOCIAL_COLUMNS
        assert matrix.column_names[38:] == REPUTATION_COLUMNS
        assert matrix.values.shape == (3, 16 + 15 + 7 + 2)

    def test_default_width_is_536(self):
        records = Corpus.of(make_record(app_id=f"r{i}") for i in range(2))
        table = build_reputation_table(records, np.array([1, 0]))
        matrix = assemble_features(records, HashConfig(), table)
        assert matrix.n_columns == 512 + 15 + 7 + 2 == 536

    def test_intrinsic_values(self):
        records = Corpus.of([make_record(package_name="com.a.b", version_code=10,
                                         age_in_market_days=4)])
        table = build_reputation_table(records, np.array([0]))
        matrix = assemble_features(records, HashConfig(8), table)
        assert matrix.values[0, matrix.column_names.index("num_permissions")] == 2.0
        assert matrix.values[0, matrix.column_names.index("package_depth")] == 2.0
        assert matrix.values[0, matrix.column_names.index("package_name_length")] == 7.0
        assert matrix.values[0, matrix.column_names.index("update_rate")] == pytest.approx(10 / 5)
        assert matrix.values[0, matrix.column_names.index("self_signed")] == 0.0

    def test_self_signed_flag(self):
        records = Corpus.of([make_record(developer_id="d", issuer_id="d")])
        table = build_reputation_table(records, np.array([0]))
        matrix = assemble_features(records, HashConfig(8), table)
        assert matrix.values[0, matrix.column_names.index("self_signed")] == 1.0

    @pytest.mark.parametrize("config", [HashConfig(), HashConfig(64), HashConfig(1)])
    def test_static_block_matches_per_record_reference(self, config):
        records = list(generate_synthetic(GeneratorConfig(n_apps=300), seed=4)) + [
            make_record(app_id="no-perms", permissions=frozenset()),
            make_record(app_id="no-votes", star_votes=(0, 0, 0, 0, 0)),
            make_record(app_id="self", developer_id="d", issuer_id="d", package_name="x"),
        ]
        block = static_feature_block(Corpus.of(records), config)
        assert densify(block).tobytes() == reference_static_block(records, config).tobytes()

    def test_static_block_keeps_exact_means_of_huge_vote_counts(self):
        # Sums of votes past 2**53 round in floats; the block must still
        # hold float() of each field and each record's exact total and mean.
        records = [
            make_record(app_id="a", star_votes=(MAX_INT, 3, 0, 0, MAX_INT - 6), size_bytes=MAX_INT),
            make_record(app_id="b", star_votes=(0, 0, 0, 0, 0)),
            make_record(app_id="c", star_votes=(1, 2, 3, 4, 5)),
        ]
        config = HashConfig(4)
        block = densify(static_feature_block(Corpus.of(records), config))
        assert block.tobytes() == reference_static_block(records, config).tobytes()
        assert block[0, -1] == records[0].mean_star

    def test_colliding_permissions_count_two(self):
        config = HashConfig(16)
        by_bucket = {}
        for i in range(100):
            by_bucket.setdefault(_hash64(f"perm.{i}") % 16, []).append(f"perm.{i}")
        bucket, (a, b, *_) = next((k, v) for k, v in by_bucket.items() if len(v) >= 2)
        records = [make_record(permissions=frozenset({a, b}))]
        block = static_feature_block(Corpus.of(records), config)
        assert block.indptr.tolist() == [0, 1]
        assert block.buckets.tolist() == [bucket]
        assert block.counts.tolist() == [2.0]
        assert densify(block).tobytes() == reference_static_block(records, config).tobytes()

    def test_record_without_permissions_has_an_empty_row(self):
        records = [
            make_record(app_id="a"),
            make_record(app_id="none", permissions=frozenset()),
            make_record(app_id="c"),
        ]
        config = HashConfig(32)
        block = static_feature_block(Corpus.of(records), config)
        assert block.indptr[2] == block.indptr[1] > 0
        assert block.indptr[3] > block.indptr[2]
        assert densify(block).tobytes() == reference_static_block(records, config).tobytes()

    def test_static_block_of_no_records(self):
        assert static_feature_block(Corpus.of([]), HashConfig(8)).shape == (0, 8 + 15 + 7)

    def test_reputation_block_reads_table(self):
        records = [
            make_record(app_id="a", developer_id="dev.a", issuer_id="iss.x"),
            make_record(app_id="b", developer_id="dev.unseen", issuer_id="iss.unseen"),
        ]
        table = ReputationTable(
            global_prior=0.4, developers={"dev.a": 0.9}, issuers={"iss.x": 0.8}
        )
        block = reputation_block(Corpus.of(records), table)
        assert block.tolist() == [[0.9, 0.8], [0.4, 0.4]]

    def test_gather_columns(self):
        records = [
            make_record(app_id=f"r{i}", developer_id=f"d{i % 3}", detection_count=i % 2,
                        size_bytes=1000 + i, permissions=frozenset({f"perm.{i}", "perm.x"}))
            for i in range(8)
        ]
        labels = np.array([r.detection_count for r in records])
        config = HashConfig(16)
        table = build_reputation_table(Corpus.of(records[:5]), labels[:5])
        records = Corpus.of(records)
        full = assemble_features(records, config, table)
        static = static_feature_block(records, config)
        rows = np.array([6, 1, 3])
        for columns in (
            ["issuer_rep", "f3", "size_bytes", "developer_rep", "mean_star"],
            ["f15", "f0", "votes_2"],
            list(feature_names(config)),
        ):
            got = gather_features(records, config, table, static, rows, columns)
            assert got.column_names == tuple(columns)
            idx = [full.column_names.index(c) for c in columns]
            want = full.values[np.ix_(rows, idx)]
            # The gather holds the nonzeros in row-major order, as a scan finds them.
            for held, scanned in zip(got.entries, FeatureMatrix(columns, want).entries):
                assert held.tobytes() == scanned.tobytes()
            assert got.values.tobytes() == want.tobytes()

    def test_gather_missing_column_raises(self):
        records = Corpus.of([make_record()])
        config = HashConfig(4)
        table = build_reputation_table(records, np.array([0]))
        static = static_feature_block(records, config)
        with pytest.raises(KeyError, match="no such column: nope"):
            gather_features(records, config, table, static, np.array([0]), ["f1", "nope"])


class TestFeatureMatrix:
    def test_nan_rejected(self):
        with pytest.raises(ContractError):
            FeatureMatrix(("a",), np.array([[np.nan]]))

    def test_inf_rejected(self):
        with pytest.raises(ContractError):
            FeatureMatrix(("a",), np.array([[np.inf]]))

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            FeatureMatrix(("a", "b"), np.zeros((2, 3)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ContractError):
            FeatureMatrix(("a", "a"), np.zeros((2, 2)))


class TestMatrixCsv:
    def render(self, header, values, labels, **kwargs) -> str:
        fh = io.StringIO()
        write_matrix_csv(fh, header, values, labels, **kwargs)
        return fh.getvalue()

    def reference(self, header, values, labels) -> str:
        rows = [[float(v) for v in row] + [int(lab)] for row, lab in zip(values, labels)]
        return csv_text(header, rows)

    def test_each_value_is_its_float_repr(self):
        column = [0.0, -0.0, 1e-05, 1e16, 0.1 + 0.2, 1 / 3, 0.0, -0.0, 123456789.125, 1e-05]
        values = np.array([column, column[::-1], [float(i) for i in range(10)]]).T
        labels = np.array([0, 1] * 5, dtype=np.int8)
        header = ("a", "b", "c", "label")
        text = self.render(header, values, labels, block_rows=3)
        assert text == self.reference(header, values, labels)
        lines = text.splitlines()
        assert lines[1].split(",")[0] == "0.0" and lines[2].split(",")[0] == "-0.0"
        assert lines[3].startswith("1e-05,") and lines[4].startswith("1e+16,")
        assert lines[5].startswith("0.30000000000000004,")

    def test_generated_feature_matrix(self):
        records = generate_synthetic(GeneratorConfig(n_apps=400), seed=9)
        labels = np.array([r.detection_count > 0 for r in records], dtype=np.int8)
        table = build_reputation_table(records, labels)
        matrix = assemble_features(records, HashConfig(32), table)
        header = matrix.column_names + ("label",)
        text = self.render(header, matrix.values, labels, block_rows=64)
        assert text == self.reference(header, matrix.values, labels)

    def test_no_rows(self):
        assert self.render(("a", "label"), np.zeros((0, 1)), np.zeros(0)) == "a,label\n"

    @pytest.mark.parametrize("block_rows", [1, 3, 2048])
    def test_sparse_leading_columns_read_as_dense(self, block_rows):
        rng = np.random.default_rng(3)
        leading = (rng.random((9, 7)) < 0.3) * rng.choice([1.0, 2.0, 0.5, 1e-05], (9, 7))
        leading[2] = 0.0  # a row without entries
        leading[4, [0, 6]] = [3.0, 1e16]  # entries in the first and last columns
        rows, cols = np.nonzero(leading)
        indptr = np.searchsorted(rows, np.arange(10))
        values = np.column_stack([rng.normal(size=9), np.zeros(9)])
        labels = rng.integers(0, 2, 9)
        header = tuple(f"c{j}" for j in range(9)) + ("label",)
        text = self.render(
            header, values, labels, sparse=(indptr, cols, leading[rows, cols], 7),
            block_rows=block_rows,
        )
        assert text == self.reference(header, np.hstack([leading, values]), labels)

    def test_largest_write_is_bounded_however_wide(self):
        class Recorder:
            largest = 0

            def write(self, text):
                self.largest = max(self.largest, len(text))

        n, width = 64, 65536
        indptr = np.arange(n + 1)  # one entry per row, in column 7 * row
        fh = Recorder()
        write_matrix_csv(
            fh, [f"c{j}" for j in range(width + 2)] + ["label"], np.ones((n, 2)), np.zeros(n),
            sparse=(indptr, 7 * np.arange(n), np.full(n, 2.0), width),
        )
        # Each row is about 4 * 65,536 characters: 64 rows written at once
        # would be 16.8M.
        assert fh.largest < 5 * 2**20

    @pytest.mark.parametrize("where", ["dense", "sparse"])
    def test_non_finite_value_is_refused(self, where):
        values, data = np.zeros((2, 1)), np.array([1.0])
        (values if where == "dense" else data)[0] = np.nan
        sparse = (np.array([0, 1, 1]), np.array([0]), data, 1)
        with pytest.raises(ContractError, match="NaN or infinite"):
            self.render(("s", "d", "label"), values, np.zeros(2), sparse=sparse)


class TestBinning:
    def test_equal_frequency_on_distinct_values(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=1000)
        binned = bin_column(values, n_bins=10)
        counts = np.bincount(binned)
        assert len(counts) == 10
        assert counts.max() - counts.min() <= 2

    def test_constant_column_is_degenerate(self):
        binned = bin_column(np.full(50, 7.0), n_bins=10)
        assert set(binned) == {0}

    def test_heavy_ties_collapse_bins(self):
        values = np.array([0.0] * 90 + [1.0] * 10)
        binned = bin_column(values, n_bins=10)
        assert set(binned) == {0, 1}

    def test_ids_are_compact(self):
        rng = np.random.default_rng(5)
        binned = bin_column(rng.integers(0, 4, 200).astype(float), n_bins=10)
        present = np.unique(binned)
        assert present.tolist() == list(range(len(present)))

    def test_monotone_in_value(self):
        values = np.linspace(0, 1, 100)
        binned = bin_column(values, n_bins=5)
        assert all(np.diff(binned[np.argsort(values)]) >= 0)

    def test_n_bins_validation(self):
        with pytest.raises(ValueError):
            bin_column(np.zeros(5), n_bins=1)
        with pytest.raises(ValueError):
            rank_bins(np.zeros(1), np.array([5]), n_bins=1)

    @pytest.mark.parametrize("n_bins", range(2, 21))
    def test_matches_quantile_edges_exactly(self, n_bins):
        for values in oracle_columns(300):
            assert np.array_equal(bin_column(values, n_bins), quantile_bins(values, n_bins))

    def test_value_counts_give_the_bins_of_the_values(self):
        for values in oracle_columns(300):
            distinct, codes, counts = np.unique(values, return_inverse=True, return_counts=True)
            bins = rank_bins(distinct, counts, 7)
            assert bins.dtype == np.int64
            assert np.array_equal(bins[codes], quantile_bins(values, 7))


def quantile_bins(values, n_bins):
    """Equal-frequency bins from `np.quantile` edges: a value's bin is the
    number of edges below it, renumbered 0.. over the bins present."""
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    ids = np.searchsorted(np.unique(np.quantile(values, qs)), values, side="left")
    present = np.unique(ids)
    remap = np.zeros(int(present.max()) + 1, dtype=np.int64)
    remap[present] = np.arange(len(present))
    return remap[ids]


def oracle_columns(n, seed=8):
    """Columns of `n` values that stress the binning rule's edge cases."""
    rng = np.random.default_rng(seed)
    return [
        np.full(n, 7.0),  # constant
        rng.permutation(np.arange(n, dtype=np.float64)) / 7.0,  # all distinct
        rng.choice([0.0, 1.0, 2.0], n, p=[0.9, 0.07, 0.03]),  # heavily tied
        rng.choice([0.0, -0.0, 1.0, -1.0], n),  # 0.0 and -0.0 are equal
        1e300 * (1.0 + rng.integers(0, 40, n) * 1e-15),  # near 1e300
        -1e300 * (1.0 + rng.integers(0, 3, n) * 1e-16),
        rng.normal(size=n).round(1),
        rng.lognormal(10, 3, n).round(),
    ]


class TestStandardize:
    def test_train_becomes_zero_mean_unit_std(self):
        rng = np.random.default_rng(11)
        train = rng.normal(5.0, 3.0, size=(200, 4))
        (out,) = standardize_fit_apply(train)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_others_use_train_statistics(self):
        train = np.array([[0.0], [2.0]])
        test = np.array([[1.0], [3.0]])
        out_train, out_test = standardize_fit_apply(train, test)
        assert out_train.tolist() == [[-1.0], [1.0]]
        assert out_test.tolist() == [[0.0], [2.0]]

    def test_zero_variance_column_passes_through(self):
        train = np.array([[5.0, 1.0], [5.0, 3.0]])
        (out,) = standardize_fit_apply(train)
        assert np.array_equal(out[:, 0], np.zeros(2))
