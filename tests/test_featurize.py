import numpy as np
import pytest

from metatriage.errors import ContractError
from metatriage.featurize import (
    INTRINSIC_COLUMNS,
    REPUTATION_COLUMNS,
    SOCIAL_COLUMNS,
    BinnedColumn,
    FeatureMatrix,
    HashConfig,
    ReputationTable,
    assemble_features,
    bin_column,
    build_reputation_table,
    feature_names,
    hash_column_names,
    hash_permissions,
    reputation_block,
    standardize_fit_apply,
    static_feature_block,
    _hash64,
)

from test_corpus import make_record


class TestHashing:
    def test_hash_is_deterministic(self):
        assert _hash64("android.permission.INTERNET", 0) == _hash64(
            "android.permission.INTERNET", 0
        )

    def test_seed_changes_bucket_assignment(self):
        config_a, config_b = HashConfig(64, seed=0), HashConfig(64, seed=1)
        perms = [f"perm.{i}" for i in range(200)]
        a = [_hash64(p, config_a.seed) % 64 for p in perms]
        b = [_hash64(p, config_b.seed) % 64 for p in perms]
        assert a != b

    def test_bucket_counts_sum_to_permission_count(self):
        config = HashConfig(32)
        perms = {f"perm.{i}" for i in range(50)}
        vec = hash_permissions(perms, config)
        assert vec.sum() == 50
        assert vec.min() >= 0

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
            counts[_hash64(f"com.vendor.perm.{i}", config.seed) % 128] += 1
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
        return records, labels

    def test_laplace_smoothed_values(self):
        records, labels = self.records()
        table = build_reputation_table(records, labels, alpha=1.0)
        # dev.a: 2 malware of 3 -> (2+1)/(3+2); dev.b: 0 of 2 -> (0+1)/(2+2)
        assert table.developer_rep("dev.a") == pytest.approx(3 / 5)
        assert table.developer_rep("dev.b") == pytest.approx(1 / 4)
        # iss.x: 2 of 2 -> 3/4; iss.y: 0 of 3 -> 1/5
        assert table.issuer_rep("iss.x") == pytest.approx(3 / 4)
        assert table.issuer_rep("iss.y") == pytest.approx(1 / 5)

    def test_global_prior_fallback_for_unseen(self):
        records, labels = self.records()
        table = build_reputation_table(records, labels, alpha=1.0)
        # 2 malware of 5 -> (2+1)/(5+2)
        assert table.global_prior == pytest.approx(3 / 7)
        assert table.developer_rep("dev.never-seen") == pytest.approx(3 / 7)
        assert table.issuer_rep("iss.never-seen") == pytest.approx(3 / 7)

    def test_alpha_shrinks_toward_half(self):
        records, labels = self.records()
        weak = build_reputation_table(records, labels, alpha=0.01)
        strong = build_reputation_table(records, labels, alpha=100.0)
        assert weak.developer_rep("dev.a") > strong.developer_rep("dev.a")
        assert abs(strong.developer_rep("dev.a") - 0.5) < 0.01

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
        records = [make_record(app_id=f"r{i}") for i in range(3)]
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
        records = [make_record(app_id=f"r{i}") for i in range(2)]
        table = build_reputation_table(records, np.array([1, 0]))
        matrix = assemble_features(records, HashConfig(), table)
        assert matrix.n_columns == 512 + 15 + 7 + 2 == 536

    def test_intrinsic_values(self):
        record = make_record(package_name="com.a.b", version_code=10,
                             age_in_market_days=4)
        table = build_reputation_table([record], np.array([0]))
        matrix = assemble_features([record], HashConfig(8), table)
        assert matrix.column("num_permissions")[0] == 2.0
        assert matrix.column("package_depth")[0] == 2.0
        assert matrix.column("package_name_length")[0] == 7.0
        assert matrix.column("update_rate")[0] == pytest.approx(10 / 5)
        assert matrix.column("self_signed")[0] == 0.0

    def test_self_signed_flag(self):
        record = make_record(developer_id="d", issuer_id="d")
        table = build_reputation_table([record], np.array([0]))
        matrix = assemble_features([record], HashConfig(8), table)
        assert matrix.column("self_signed")[0] == 1.0

    def test_static_block_reuse_matches_fresh_assembly(self):
        records = [make_record(app_id=f"r{i}", detection_count=i % 2) for i in range(6)]
        labels = np.array([r.detection_count for r in records])
        config = HashConfig(32)
        table = build_reputation_table(records, labels)
        static = static_feature_block(records, config)
        fresh = assemble_features(records, config, table)
        reused = assemble_features(records, config, table, static_block=static)
        assert np.array_equal(fresh.values, reused.values)

    def test_static_block_shape_mismatch_raises(self):
        records = [make_record(app_id=f"r{i}") for i in range(3)]
        table = build_reputation_table(records, np.array([0, 1, 0]))
        wrong = np.zeros((3, 5))
        with pytest.raises(ContractError):
            assemble_features(records, HashConfig(32), table, static_block=wrong)

    def test_reputation_block_reads_table(self):
        records = [make_record(developer_id="dev.a", issuer_id="iss.x")]
        table = ReputationTable(
            alpha=1.0, global_prior=0.4,
            developers={"dev.a": 0.9}, issuers={"iss.x": 0.8},
        )
        block = reputation_block(records, table)
        assert block[0, 0] == 0.9
        assert block[0, 1] == 0.8


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

    def test_select_columns(self):
        m = FeatureMatrix(("a", "b", "c"), np.array([[1.0, 2.0, 3.0]]))
        sub = m.select_columns(["c", "a"])
        assert sub.column_names == ("c", "a")
        assert sub.values.tolist() == [[3.0, 1.0]]

    def test_select_missing_column_raises(self):
        m = FeatureMatrix(("a",), np.zeros((1, 1)))
        with pytest.raises(KeyError):
            m.select_columns(["nope"])


class TestBinning:
    def test_equal_frequency_on_distinct_values(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=1000)
        binned = bin_column(values, n_bins=10)
        counts = np.bincount(binned.ids)
        assert len(counts) == 10
        assert counts.max() - counts.min() <= 2
        assert not binned.degenerate

    def test_constant_column_is_degenerate(self):
        binned = bin_column(np.full(50, 7.0), n_bins=10)
        assert binned.degenerate
        assert set(binned.ids) == {0}

    def test_heavy_ties_collapse_bins(self):
        values = np.array([0.0] * 90 + [1.0] * 10)
        binned = bin_column(values, n_bins=10)
        assert binned.n_bins == 2
        assert not binned.degenerate

    def test_ids_are_compact(self):
        rng = np.random.default_rng(5)
        binned = bin_column(rng.integers(0, 4, 200).astype(float), n_bins=10)
        present = np.unique(binned.ids)
        assert present.tolist() == list(range(len(present)))

    def test_monotone_in_value(self):
        values = np.linspace(0, 1, 100)
        binned = bin_column(values, n_bins=5)
        assert all(np.diff(binned.ids[np.argsort(values)]) >= 0)

    def test_n_bins_validation(self):
        with pytest.raises(ValueError):
            bin_column(np.zeros(5), n_bins=1)


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
