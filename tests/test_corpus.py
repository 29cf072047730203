import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from metatriage.corpus import (
    AMBIGUOUS,
    GOODWARE,
    MALWARE,
    AppRecord,
    CompositionRecipe,
    DetectionCountModel,
    DetectionLabelPolicy,
    GeneratorConfig,
    SignalStrengths,
    compose_subset,
    corpus_digest,
    detection_histogram,
    generate_synthetic,
    label_record,
    parse_records,
    record_from_dict,
    record_to_dict,
    write_corpus,
    load_corpus,
)
from metatriage.errors import (
    CompositionError,
    DuplicateAppIdError,
    GenerationError,
    ParseError,
)


def make_record(**overrides) -> AppRecord:
    base = dict(
        app_id="app.1",
        package_name="com.example.app",
        developer_id="dev.1",
        issuer_id="iss.1",
        permissions=frozenset({"perm.a", "perm.b"}),
        size_bytes=1000,
        num_files=10,
        num_images=3,
        version_code=2,
        age_in_market_days=100,
        last_update_days=30,
        last_signature_update_days=40,
        time_for_creation_days=20,
        cert_validity_days=365,
        num_downloads=500,
        star_votes=(1, 0, 2, 3, 10),
        detection_count=0,
    )
    base.update(overrides)
    return AppRecord(**base)


class TestAppRecord:
    def test_derived_vote_stats(self):
        record = make_record(star_votes=(2, 0, 0, 0, 2))
        assert record.total_votes == 4
        assert record.mean_star == (2 * 1 + 2 * 5) / 4

    def test_zero_votes_mean_star(self):
        assert make_record(star_votes=(0, 0, 0, 0, 0)).mean_star == 0.0

    def test_validation_catches_negative_int(self):
        record = make_record(size_bytes=-5)
        assert any("size_bytes" in p for p in record.validation_errors())

    def test_validation_catches_empty_id(self):
        record = make_record(developer_id="")
        assert any("developer_id" in p for p in record.validation_errors())

    def test_dict_round_trip(self):
        record = make_record()
        back, problems, unknown = record_from_dict(record_to_dict(record))
        assert problems == [] and unknown == []
        assert back == record

    def test_dict_form_is_canonical(self):
        d = record_to_dict(make_record(permissions=frozenset({"z", "a", "m"})))
        assert d["permissions"] == ["a", "m", "z"]

    def test_csv_string_fields_parse(self):
        d = record_to_dict(make_record())
        d["permissions"] = "perm.a;perm.b"
        d["star_votes"] = "1;0;2;3;10"
        back, problems, _ = record_from_dict(d)
        assert problems == []
        assert back.permissions == frozenset({"perm.a", "perm.b"})
        assert back.star_votes == (1, 0, 2, 3, 10)


class TestParsing:
    def jsonl(self, records) -> str:
        return "\n".join(json.dumps(record_to_dict(r)) for r in records) + "\n"

    def test_parse_jsonlines(self):
        recs = [make_record(app_id=f"a{i}") for i in range(4)]
        result = parse_records(self.jsonl(recs))
        assert [r.app_id for r in result.records] == ["a0", "a1", "a2", "a3"]
        assert result.issues == []

    def test_malformed_json_line_is_skipped_and_reported(self):
        text = self.jsonl([make_record()]) + "{not json\n"
        result = parse_records(text)
        assert len(result.records) == 1
        assert len(result.issues) == 1
        assert result.issues[0].line == 2

    def test_missing_field_reported_with_line(self):
        d = record_to_dict(make_record())
        del d["size_bytes"]
        result = parse_records(json.dumps(d) + "\n")
        assert result.records == []
        assert "size_bytes" in result.issues[0].message

    def test_unknown_fields_counted(self):
        d = record_to_dict(make_record())
        d["mystery"] = 1
        result = parse_records((json.dumps(d) + "\n") * 1)
        assert result.unknown_fields == Counter({"mystery": 1})

    def test_duplicate_app_id_fatal(self):
        text = self.jsonl([make_record(), make_record()])
        with pytest.raises(DuplicateAppIdError):
            parse_records(text)

    def test_error_cap(self):
        # invalid JSON, then valid JSON lines that are not objects
        for text in ("{bad\n" * 12, "[1,2]\n" * 12):
            with pytest.raises(ParseError):
                parse_records(text, max_errors=10)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            parse_records("", format="parquet")

    def test_csv_round_trip(self):
        recs = [make_record(app_id=f"a{i}", detection_count=i) for i in range(3)]
        header = list(record_to_dict(recs[0]).keys())
        lines = [",".join(header)]
        for r in recs:
            d = record_to_dict(r)
            d["permissions"] = ";".join(d["permissions"])
            d["star_votes"] = ";".join(str(v) for v in d["star_votes"])
            lines.append(",".join(str(d[k]) for k in header))
        result = parse_records("\n".join(lines) + "\n", format="csv")
        assert result.records == recs

    def test_file_round_trip(self, tmp_path):
        recs = [make_record(app_id=f"a{i}") for i in range(5)]
        path = tmp_path / "corpus.jsonl"
        write_corpus(recs, str(path))
        result = load_corpus(str(path))
        assert result.records == recs

    def test_digest_is_stable_and_content_sensitive(self):
        a = [make_record(app_id="x")]
        b = [make_record(app_id="y")]
        assert corpus_digest(a) == corpus_digest(a)
        assert corpus_digest(a) != corpus_digest(b)


class TestLabeling:
    def test_zero_detections_is_goodware(self):
        policy = DetectionLabelPolicy(threshold=4)
        assert label_record(make_record(detection_count=0), policy) == GOODWARE

    def test_at_threshold_is_malware(self):
        policy = DetectionLabelPolicy(threshold=4)
        assert label_record(make_record(detection_count=4), policy) == MALWARE

    def test_between_is_ambiguous(self):
        policy = DetectionLabelPolicy(threshold=4)
        for c in (1, 2, 3):
            assert label_record(make_record(detection_count=c), policy) == AMBIGUOUS

    def test_threshold_one_has_no_ambiguous_zone(self):
        policy = DetectionLabelPolicy(threshold=1)
        assert label_record(make_record(detection_count=1), policy) == MALWARE

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DetectionLabelPolicy(threshold=0)
        with pytest.raises(ValueError):
            DetectionLabelPolicy(ambiguous_handling="drop-table")

    def test_malware_sets_nest_across_thresholds(self, small_corpus):
        sets = {}
        for t in (1, 2, 4):
            policy = DetectionLabelPolicy(threshold=t)
            sets[t] = {
                r.app_id for r in small_corpus if label_record(r, policy) == MALWARE
            }
        assert sets[4] <= sets[2] <= sets[1]


class TestComposition:
    def test_exact_fraction_and_size(self, small_corpus):
        recipe = CompositionRecipe(0.25, DetectionLabelPolicy(1), 800, seed=3)
        ds = compose_subset(small_corpus, recipe)
        assert len(ds) == 800
        assert ds.labels.sum() == 200
        assert not ds.shrunk

    def test_deterministic_in_seed(self, small_corpus):
        recipe = CompositionRecipe(0.5, DetectionLabelPolicy(2), 400, seed=9)
        a = compose_subset(small_corpus, recipe)
        b = compose_subset(small_corpus, recipe)
        assert [r.app_id for r in a.records] == [r.app_id for r in b.records]
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_different_subset(self, small_corpus):
        pa = CompositionRecipe(0.5, DetectionLabelPolicy(2), 400, seed=1)
        pb = CompositionRecipe(0.5, DetectionLabelPolicy(2), 400, seed=2)
        a = compose_subset(small_corpus, pa)
        b = compose_subset(small_corpus, pb)
        assert [r.app_id for r in a.records] != [r.app_id for r in b.records]

    def test_shrinks_when_pool_is_short(self, small_corpus):
        recipe = CompositionRecipe(0.5, DetectionLabelPolicy(4), 100000, seed=3)
        ds = compose_subset(small_corpus, recipe)
        assert ds.shrunk
        assert ds.flags and "shrunk" in ds.flags[0]
        assert abs(ds.achieved_fraction - 0.5) <= 0.005

    def test_fraction_tolerance_half_point(self, small_corpus):
        # For any target of at least 100 rows the achieved share sits
        # within half a percentage point of the request.
        for f in (0.02, 0.25, 0.33, 0.5, 0.77):
            recipe = CompositionRecipe(f, DetectionLabelPolicy(1), 150, seed=5)
            ds = compose_subset(small_corpus, recipe)
            assert abs(ds.achieved_fraction - f) <= 0.005

    def test_labels_match_policy(self, small_corpus):
        recipe = CompositionRecipe(0.5, DetectionLabelPolicy(2), 300, seed=11)
        ds = compose_subset(small_corpus, recipe)
        for record, y in zip(ds.records, ds.labels):
            if y == 1:
                assert record.detection_count >= 2
            else:
                assert record.detection_count == 0

    def test_ambiguous_as_goodware_widens_the_pool(self, small_corpus):
        # At a low malware fraction the goodware pool is the binding
        # constraint, so routing ambiguous records to goodware must yield
        # at least as many rows.
        strict = DetectionLabelPolicy(threshold=4)
        loose = DetectionLabelPolicy(threshold=4, ambiguous_handling="goodware")
        a = compose_subset(small_corpus, CompositionRecipe(0.02, strict, 100000, seed=3))
        b = compose_subset(small_corpus, CompositionRecipe(0.02, loose, 100000, seed=3))
        assert len(b) >= len(a)

    def test_no_malware_raises(self):
        records = [make_record(app_id=f"a{i}") for i in range(30)]
        recipe = CompositionRecipe(0.5, DetectionLabelPolicy(1), 20, seed=1)
        with pytest.raises(CompositionError):
            compose_subset(records, recipe)

    def test_no_goodware_raises(self):
        records = [make_record(app_id=f"a{i}", detection_count=5) for i in range(30)]
        recipe = CompositionRecipe(0.5, DetectionLabelPolicy(1), 20, seed=1)
        with pytest.raises(CompositionError):
            compose_subset(records, recipe)

    def test_recipe_validation(self):
        with pytest.raises(ValueError):
            CompositionRecipe(0.0, DetectionLabelPolicy(1), 100, seed=1)
        with pytest.raises(ValueError):
            CompositionRecipe(0.5, DetectionLabelPolicy(1), 1, seed=1)


class TestGenerator:
    def test_deterministic(self):
        config = GeneratorConfig(n_apps=300)
        a = generate_synthetic(config, seed=5)
        b = generate_synthetic(config, seed=5)
        assert corpus_digest(a) == corpus_digest(b)

    def test_seed_changes_output(self):
        config = GeneratorConfig(n_apps=300)
        assert corpus_digest(generate_synthetic(config, seed=5)) != corpus_digest(
            generate_synthetic(config, seed=6)
        )

    def test_unique_app_ids(self, small_corpus):
        ids = [r.app_id for r in small_corpus]
        assert len(set(ids)) == len(ids)

    def test_histogram_monotone_non_increasing(self, small_corpus):
        hist = detection_histogram(small_corpus)
        values = [hist[k] for k in sorted(hist)]
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))

    def test_detection_counts_respect_max(self, small_corpus):
        assert max(r.detection_count for r in small_corpus) <= 53

    def test_goodware_has_zero_detections(self, small_corpus):
        # The generator plants detections on malware rows only.
        hist = detection_histogram(small_corpus)
        assert 0 not in hist

    def test_malware_rate_respected(self):
        records = generate_synthetic(GeneratorConfig(n_apps=4000, malware_rate=0.3), seed=3)
        share = sum(1 for r in records if r.detection_count >= 1) / len(records)
        assert abs(share - 0.3) < 0.03

    def test_permission_count_is_label_independent(self):
        records = generate_synthetic(GeneratorConfig(n_apps=6000), seed=13)
        mal = [len(r.permissions) for r in records if r.detection_count >= 1]
        good = [len(r.permissions) for r in records if r.detection_count == 0]
        assert abs(np.mean(mal) - np.mean(good)) < 0.3

    def test_zero_strengths_remove_the_reputation_signal(self):
        config = GeneratorConfig(
            n_apps=4000,
            signal_strengths=SignalStrengths(0.0, 0.0, 0.0, 0.0),
        )
        records = generate_synthetic(config, seed=17)
        by_dev: dict[str, list[int]] = {}
        for r in records:
            by_dev.setdefault(r.developer_id, []).append(int(r.detection_count >= 1))
        # Developer malware shares should cluster near the global rate, with
        # no heavy tail of pure-malware developers.
        shares = [np.mean(v) for v in by_dev.values() if len(v) >= 5]
        assert np.std(shares) < 0.2

    def test_infeasible_configs_raise(self):
        with pytest.raises(GenerationError):
            generate_synthetic(
                GeneratorConfig(n_apps=100, malware_developer_fraction=0.0), seed=1
            )
        with pytest.raises(GenerationError):
            generate_synthetic(
                GeneratorConfig(n_apps=100, malware_developer_fraction=1.0), seed=1
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_apps=0)
        with pytest.raises(ValueError):
            GeneratorConfig(malware_rate=1.5)
        with pytest.raises(ValueError):
            SignalStrengths(reputation=-0.1)
        with pytest.raises(ValueError):
            DetectionCountModel(exponent=0.0)

    def test_config_json_round_trip(self):
        config = GeneratorConfig(
            n_apps=123,
            signal_strengths=SignalStrengths(0.1, 0.2, 0.3, 0.4),
            engine_count_distribution=DetectionCountModel(exponent=2.0, max_count=9),
        )
        assert GeneratorConfig.from_json(config.to_json()) == config

    def test_self_signed_apps_share_issuer_and_developer(self, small_corpus):
        shared = sum(1 for r in small_corpus if r.issuer_id == r.developer_id)
        assert 0.25 < shared / len(small_corpus) < 0.45
