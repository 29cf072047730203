import csv
import dataclasses
import hashlib
import io
import json
from collections import Counter

import numpy as np
import pytest

import metatriage.corpus
from metatriage.corpus import (
    _INT_FIELDS,
    _extra_permissions,
    FIELD_ORDER,
    MAX_INT,
    AppRecord,
    CompositionRecipe,
    Corpus,
    DetectionCountModel,
    DetectionLabelPolicy,
    GeneratorConfig,
    SignalStrengths,
    compose_subset,
    corpus_digest,
    detection_histogram,
    generate_synthetic,
    label_dataset,
    parse_records,
    record_from_dict,
    write_corpus,
    load_corpus,
    _canonical_lines,
)
from metatriage.errors import (
    CompositionError,
    DuplicateAppIdError,
    GenerationError,
    ParseError,
    UsageError,
    decode_section,
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


def record_to_dict(record: AppRecord) -> dict:
    """A record as its canonical JSON mapping: keys in `FIELD_ORDER`,
    permissions sorted, star votes as a list."""
    out = {name: getattr(record, name) for name in FIELD_ORDER}
    out.update(permissions=sorted(record.permissions), star_votes=list(record.star_votes))
    return out


def row_of(record: AppRecord) -> tuple:
    """The `record_from_dict` row of a record: its four ids, its sorted
    permission names, and its `COUNT_FIELDS` ints."""
    counts = [getattr(record, name) for name in _INT_FIELDS]
    counts[10:10] = record.star_votes
    return (record.app_id, record.package_name, record.developer_id, record.issuer_id,
            sorted(record.permissions), counts)


def record_of(row: tuple) -> AppRecord:
    """The record of a `record_from_dict` row."""
    *ids, permissions, counts = row
    return AppRecord(*ids, frozenset(permissions), *counts[:10], tuple(counts[10:15]), counts[15])


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
        assert back == row_of(record) and record_of(back) == record

    def test_dict_form_is_canonical(self):
        d = record_to_dict(make_record(permissions=frozenset({"z", "a", "m"})))
        assert d["permissions"] == ["a", "m", "z"]

    def test_csv_string_fields_parse(self):
        d = record_to_dict(make_record())
        d["permissions"] = "perm.a;perm.b"
        d["star_votes"] = "1;0;2;3;10"
        back, problems, _ = record_from_dict(d)
        assert problems == []
        assert back[4] == ["perm.a", "perm.b"]
        assert back[5][10:15] == [1, 0, 2, 3, 10]


def _with(**changes) -> dict:
    d = record_to_dict(make_record())
    d.update(changes)
    return d


def _without(name: str) -> dict:
    d = record_to_dict(make_record())
    del d[name]
    return d


class TestParseFastPath:
    """`record_from_dict` converts each field once, takes a value of its
    exact type as it is, and checks the converted values by the rule of
    `validation_errors`."""

    def test_canonical_mappings_take_the_fast_path(self):
        records = list(generate_synthetic(GeneratorConfig(n_apps=200), seed=2)) + [
            make_record(permissions=frozenset(), star_votes=(0, 0, 0, 0, 0)),
        ]
        for record in records:
            d = json.loads(json.dumps(record_to_dict(record)))
            assert record_from_dict(d) == (row_of(record), [], [])

    @pytest.mark.parametrize("obj,record,problems,unknown", [
        (_with(size_bytes=True), None, ["size_bytes is not an integer: True"], []),
        (_with(size_bytes=3.0), make_record(size_bytes=3), [], []),
        (_with(num_files=-2), None, ["num_files must be a non-negative integer, got -2"], []),
        (_with(star_votes=[1, -1, 0, 0, 0]), None,
         ["star_votes[1] must be a non-negative integer, got -1"], []),
        (_with(size_bytes=MAX_INT + 1), None,
         ["size_bytes must be at most 2**53 - 1, got 9007199254740992"], []),
        (_with(star_votes=[1, 10**400, 0, 0, 0]), None,
         [f"star_votes[1] must be at most 2**53 - 1, got {10**400}"], []),
        (_with(star_votes=[1, 2, 3, 4]), None, ["star_votes must have 5 entries, got 4"], []),
        (_with(star_votes=[1.0, 0, 2, 3, 10]), make_record(), [], []),
        (_with(app_id=42), make_record(app_id="42"), [], []),
        (_with(developer_id=""), None, ["developer_id must be a non-empty string"], []),
        (_with(permissions="perm.a;perm.b"), make_record(), [], []),
        (_with(permissions=["perm.a", 5]), make_record(permissions=frozenset({"perm.a", "5"})),
         [], []),
        (_with(mystery=1), make_record(), [], ["mystery"]),
        (_without("size_bytes"), None, ["missing fields: size_bytes"], []),
        (_with(permissions=None), None, ["permissions is not a list: None"], []),
        (_with(permissions=True), None, ["permissions is not a list: True"], []),
        (_with(permissions=5.5), None, ["permissions is not a list: 5.5"], []),
        (_with(permissions={"perm.a": 1}), None, ["permissions is not a list: {'perm.a': 1}"],
         []),
        (_with(num_files=-2, star_votes=None, permissions=None, size_bytes="x", app_id=""), None,
         ["size_bytes is not an integer: 'x'", "star_votes is not a list of integers: None",
          "permissions is not a list: None", "num_files must be a non-negative integer, got -2",
          "app_id must be a non-empty string"], []),
    ], ids=["bool", "integral-float", "negative", "negative-vote", "past-2**53",
            "huge-vote", "four-votes", "float-vote",
            "numeric-id", "empty-id", "permission-string", "numeric-permission", "unknown-field",
            "missing-field", "null-permissions", "bool-permissions", "number-permissions",
            "object-permissions", "message-order"])
    def test_other_mappings_are_converted(self, obj, record, problems, unknown):
        assert record_from_dict(obj) == (record and row_of(record), problems, unknown)
        got = record_from_dict(obj)[0]
        if got is not None:
            assert {type(v) for v in got[5]} == {int}
            assert record_of(got).validation_errors() == []

    def test_largest_exact_integer_is_a_valid_count(self):
        d = _with(size_bytes=MAX_INT, star_votes=[MAX_INT, 0, 0, 0, 0])
        record = make_record(size_bytes=MAX_INT, star_votes=(MAX_INT, 0, 0, 0, 0))
        assert record_from_dict(d) == (row_of(record), [], [])
        # float64 holds MAX_INT exactly, but not every integer above it.
        assert int(float(MAX_INT)) == MAX_INT and float(MAX_INT + 2) == float(MAX_INT + 1)

    def test_issues_and_counts_match_conversion(self):
        lines = [
            record_to_dict(make_record(app_id="g0")),
            _with(app_id="b0", size_bytes=True),
            record_to_dict(make_record(app_id="g1")),
            _with(app_id="b1", num_files=-2),
            _with(app_id="u0", mystery=1),
            _without("num_files"),
            record_to_dict(make_record(app_id="g2")),
        ]
        result = parse_records("".join(json.dumps(d) + "\n" for d in lines))
        assert [r.app_id for r in result.records] == ["g0", "g1", "u0", "g2"]
        assert [(i.line, i.message) for i in result.issues] == [
            (2, "size_bytes is not an integer: True"),
            (4, "num_files must be a non-negative integer, got -2"),
            (6, "missing fields: num_files"),
        ]
        assert result.unknown_fields == Counter({"mystery": 1})
        with pytest.raises(DuplicateAppIdError):
            parse_records(json.dumps(lines[0]) + "\n" + json.dumps(lines[0]) + "\n")


class TestLineDecoder:
    """`parse_records` decodes each line with `json.loads`, through
    `errors.decode_json`: a line that does not decode is skipped with
    `json.loads`'s own message, and one nested too deeply for the decoder
    is invalid JSON too."""

    GOOD = json.dumps(record_to_dict(make_record(app_id="good")))

    def parse(self, text, max_errors=100):
        try:
            return parse_records(text, max_errors=max_errors)
        except ParseError as exc:
            return str(exc)

    @staticmethod
    def expected_problems(line: str) -> list[str]:
        """The problems of one line, decoded by `json.loads` alone."""
        try:
            obj = json.loads(line.strip())
        except ValueError as exc:
            return [f"invalid JSON: {exc}"]
        return record_from_dict(obj)[1] if isinstance(obj, dict) else ["line is not a JSON object"]

    @pytest.mark.parametrize("line", [
        "\ufeff" + GOOD,  # a byte-order mark
        GOOD + " x",  # trailing data
        GOOD + GOOD,  # two objects on one line
        json.dumps(_with(app_id="bad", size_bytes=float("nan"))),
        json.dumps(_with(app_id="bad", size_bytes=float("inf"))),
        json.dumps(_with(app_id="bad", star_votes=[0, float("-inf"), 0, 0, 0])),
        GOOD[:-1] + ', 5: 1}',  # a key that is not a string
        GOOD[:-1] + ', "extra": }',
        '{"app_id": ',
        "[1, 2]",
        '"text"',
        "5",
        "null",
    ], ids=["bom", "trailing", "two-objects", "nan", "infinity", "minus-infinity-vote", "bad-key",
            "missing-value", "truncated", "array", "string", "number", "null"])
    def test_issues_match_json_loads(self, line):
        result = self.parse(f"{self.GOOD}\n  {line}  \n")
        assert [r.app_id for r in result.records] == ["good"]
        assert [(i.line, i.message) for i in result.issues] == [
            (2, p) for p in self.expected_problems(line)
        ]
        assert len(result.issues) == 1
        assert result.unknown_fields == Counter()

    def test_nan_is_not_an_integer(self):
        line = json.dumps(_with(size_bytes=float("nan")))
        assert '"size_bytes": NaN' in line
        result = self.parse(line + "\n")
        assert [i.message for i in result.issues] == ["size_bytes is not an integer: nan"]

    def test_bad_key_message(self):
        result = self.parse(self.GOOD[:-1] + ', 5: 1}\n')
        assert result.issues[0].message.startswith(
            "invalid JSON: Expecting property name enclosed in double quotes"
        )

    def test_integer_past_the_digit_limit_is_a_skipped_record(self):
        line = self.GOOD.replace('"size_bytes": 1000', '"size_bytes": ' + "1" * 5000)
        assert line != self.GOOD
        result = self.parse(f"{line}\n{self.GOOD}\n")
        assert len(result.issues) == 1
        assert result.issues[0].line == 1
        assert result.issues[0].message.startswith("invalid JSON: ")
        assert "4300" in result.issues[0].message
        assert [r.app_id for r in result.records] == ["good"]

    @pytest.mark.parametrize("line", [
        "[" * 100_000,
        "[" * 100_000 + "]" * 100_000,
        '{"app_id": ' + "[" * 100_000,
        json.dumps(_with(app_id="deep", permissions="P")).replace('"P"', "[" * 10**5 + "]" * 10**5),
    ], ids=["open", "closed", "in-object", "in-permissions"])
    def test_too_deep_nesting_is_invalid_json(self, line):
        result = self.parse(f"{line}\n{self.GOOD}\n")
        assert [(i.line, i.message) for i in result.issues] == [
            (1, "invalid JSON: JSON nested too deeply")
        ]
        assert [r.app_id for r in result.records] == ["good"]

    def test_error_budget_matches_json_loads(self):
        lines = [self.GOOD, self.GOOD + " x", "[1]", "\ufeff{}", "{bad", "7", "{}"]
        assert self.parse("\n".join(lines) + "\n", max_errors=4) == (
            "more than 4 malformed records; last at line 6"
        )
        result = self.parse("\n".join(lines) + "\n", max_errors=6)
        assert [(i.line, i.message) for i in result.issues] == [
            (n, p) for n, line in enumerate(lines[1:], 2) for p in self.expected_problems(line)
        ]
        assert len(result.issues) == 6


class TestCanonicalLines:
    def records(self):
        return list(generate_synthetic(GeneratorConfig(n_apps=200), seed=3)) + [
            make_record(app_id='quote"back\\slash', package_name="tab\tnew\nline",
                        developer_id="caf\u00e9", issuer_id="\U0001f600",
                        permissions=frozenset({"z", "\u00e9", "a,b"}),
                        star_votes=(0, 0, 0, 0, 0), size_bytes=MAX_INT),
            make_record(permissions=frozenset()),
        ]

    def test_line_is_compact_json_of_the_canonical_dict(self):
        records = self.records()
        expected = [json.dumps(record_to_dict(r), separators=(",", ":")) + "\n" for r in records]
        assert list(_canonical_lines(Corpus.of(records))) == expected

    @pytest.mark.parametrize("name", ["corpus.jsonl", "corpus.csv"])
    def test_write_returns_the_digest_of_what_it_wrote(self, tmp_path, name):
        records = Corpus.of(self.records()[:-2] + [make_record(app_id="plain")])
        path = tmp_path / name
        digest = write_corpus(records, str(path))
        assert digest == corpus_digest(records) == corpus_digest(load_corpus(str(path)).records)
        if name.endswith(".jsonl"):
            expected = "".join(
                json.dumps(record_to_dict(r), separators=(",", ":")) + "\n" for r in records
            )
            assert path.read_text() == expected


def csv_oracle(records) -> str:
    """A corpus as CSV, one `csv.writer` row per record's `record_to_dict`
    with its two lists joined by `;`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIELD_ORDER)
    for record in records:
        row = record_to_dict(record)
        row["permissions"] = ";".join(row["permissions"])
        row["star_votes"] = ";".join(map(str, row["star_votes"]))
        writer.writerow(row.values())
    return out.getvalue()


class TestCsvWrite:
    def test_bytes_match_the_per_record_writer(self, tmp_path):
        records = TestCanonicalLines().records() + [
            make_record(app_id="none", permissions=frozenset(), star_votes=(0, 0, 0, 0, 0)),
            make_record(app_id="semi", permissions=frozenset({'p;q', 'r"s', "t u"})),
        ]
        path = tmp_path / "corpus.csv"
        for some in (records, []):
            corpus = Corpus.of(some)
            assert write_corpus(corpus, str(path)) == corpus_digest(corpus)
            assert path.read_bytes() == csv_oracle(some).encode()


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
        assert list(result.records) == []
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

    def test_error_cap_counts_records_not_issues(self):
        bad = record_to_dict(make_record())
        bad["size_bytes"] = "big"
        lines = [json.dumps(dict(bad, app_id=f"b{i}")) + "\n" for i in range(101)]
        result = parse_records("".join(lines[:51]))
        assert list(result.records) == []
        # one issue per record: the bad field is not reported again by validation
        assert [i.line for i in result.issues] == list(range(1, 52))
        assert result.issues[0].message == "size_bytes is not an integer: 'big'"
        with pytest.raises(ParseError, match="more than 100 malformed records"):
            parse_records("".join(lines))

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
        assert list(result.records) == recs

    def test_csv_field_past_the_reader_limit_is_a_parse_error(self):
        header = ",".join(FIELD_ORDER)
        row = ",".join(["a" * 200_000] + ["x"] * (len(FIELD_ORDER) - 1))
        with pytest.raises(ParseError, match="unreadable CSV at line 2: field larger than"):
            parse_records(f"{header}\n{row}\n", format="csv")

    @pytest.mark.parametrize("field,value", [
        ("size_bytes", "Infinity"), ("num_files", "-Infinity"), ("version_code", "1e999"),
        ("star_votes", "[1, 2, Infinity, 0, 0]"),
    ])
    def test_non_finite_number_is_a_parse_issue(self, field, value):
        good = json.dumps(record_to_dict(make_record(app_id="ok")))
        bad = record_to_dict(make_record(app_id="bad"))
        bad[field] = "VALUE"
        bad = json.dumps(bad).replace('"VALUE"', value)
        result = parse_records(good + "\n" + bad + "\n")
        assert [r.app_id for r in result.records] == ["ok"]
        assert {i.line for i in result.issues} == {2}
        assert result.issues[0].message.startswith(field)

    @pytest.mark.parametrize("field,value", [
        ("size_bytes", "3.7"), ("num_files", "true"), ("detection_count", "2.5"),
        ("star_votes", "[1.5, 0, 0, 0, true]"), ("star_votes", "[1, 0, 0, 0, true]"),
        ("size_bytes", '"3.7"'),  # the string a CSV cell gives
    ])
    def test_bool_or_non_integral_number_is_a_parse_issue(self, field, value):
        bad = record_to_dict(make_record(app_id="bad"))
        bad[field] = "VALUE"
        result = parse_records(json.dumps(bad).replace('"VALUE"', value) + "\n")
        assert list(result.records) == []
        assert len(result.issues) == 1
        assert result.issues[0].message.startswith(f"{field} is not ")

    def test_integral_json_number_loads_as_an_integer(self):
        d = record_to_dict(make_record(size_bytes=3))
        d["size_bytes"] = 3.0
        (record,) = parse_records(json.dumps(d) + "\n").records
        assert record.size_bytes == 3 and type(record.size_bytes) is int

    def test_csv_file_round_trip(self, tmp_path):
        recs = generate_synthetic(GeneratorConfig(n_apps=300), seed=5)
        path = tmp_path / "corpus.csv"
        write_corpus(recs, str(path))
        assert path.read_text().splitlines()[0] == ",".join(FIELD_ORDER)
        result = load_corpus(str(path))
        assert result.issues == []
        assert list(result.records) == list(recs)
        assert corpus_digest(result.records) == corpus_digest(recs)

    def test_file_round_trip(self, tmp_path):
        recs = [make_record(app_id=f"a{i}") for i in range(5)]
        path = tmp_path / "corpus.jsonl"
        write_corpus(Corpus.of(recs), str(path))
        result = load_corpus(str(path))
        assert list(result.records) == recs

    def test_corpus_of_refuses_an_invalid_record(self):
        records = [make_record(app_id="ok"), make_record(app_id="big", size_bytes=2**70)]
        with pytest.raises(ValueError, match="invalid record 'big': size_bytes must be at most"):
            Corpus.of(records)
        corpus = Corpus.of(records[:1])
        assert corpus.counts.dtype == np.int64 and list(corpus) == records[:1]

    def test_corpus_of_refuses_a_repeated_app_id(self, tmp_path):
        # load_corpus refuses a file with a repeated id, so Corpus.of must
        # not make a corpus that write_corpus would write as one
        records = [make_record(app_id="a"), make_record(app_id="b"), make_record(app_id="a")]
        with pytest.raises(ValueError, match="duplicate app_id 'a'"):
            Corpus.of(records)
        path = tmp_path / "two.jsonl"
        write_corpus(Corpus.of(records[:2]), str(path))
        assert [r.app_id for r in load_corpus(str(path)).records] == ["a", "b"]

    def test_digest_is_stable_and_content_sensitive(self):
        a = Corpus.of([make_record(app_id="x")])
        b = Corpus.of([make_record(app_id="y")])
        assert corpus_digest(a) == corpus_digest(a)
        assert corpus_digest(a) != corpus_digest(b)


MALWARE, GOODWARE, AMBIGUOUS = "malware", "goodware", "ambiguous"


def label_record(record: AppRecord, policy: DetectionLabelPolicy) -> str:
    """Per-record oracle of the label rule: malware at `threshold`
    detections or more, goodware at zero, ambiguous in between."""
    if record.detection_count >= policy.threshold:
        return MALWARE
    return GOODWARE if record.detection_count == 0 else AMBIGUOUS


def dataset_labels(*detection_counts: int, threshold: int) -> list[str]:
    """The label `label_dataset` gives each record of a corpus with these
    detection counts, ambiguous records excluded: AMBIGUOUS where it drops
    the record."""
    corpus = Corpus.of(
        make_record(app_id=f"a{i}", detection_count=c) for i, c in enumerate(detection_counts)
    )
    dataset = label_dataset(corpus, DetectionLabelPolicy(threshold))
    kept = dict(zip((r.app_id for r in dataset.records), dataset.labels.tolist()))
    return [
        AMBIGUOUS if r.app_id not in kept else MALWARE if kept[r.app_id] else GOODWARE
        for r in corpus
    ]


class TestLabeling:
    def test_zero_detections_is_goodware(self):
        policy = DetectionLabelPolicy(threshold=4)
        assert label_record(make_record(detection_count=0), policy) == GOODWARE
        assert dataset_labels(0, threshold=4) == [GOODWARE]

    def test_at_threshold_is_malware(self):
        policy = DetectionLabelPolicy(threshold=4)
        assert label_record(make_record(detection_count=4), policy) == MALWARE
        assert dataset_labels(4, threshold=4) == [MALWARE]

    def test_between_is_ambiguous(self):
        policy = DetectionLabelPolicy(threshold=4)
        for c in (1, 2, 3):
            assert label_record(make_record(detection_count=c), policy) == AMBIGUOUS
        assert dataset_labels(0, 1, 2, 3, threshold=4) == [GOODWARE] + [AMBIGUOUS] * 3

    def test_threshold_one_has_no_ambiguous_zone(self):
        policy = DetectionLabelPolicy(threshold=1)
        assert label_record(make_record(detection_count=1), policy) == MALWARE
        assert dataset_labels(0, 1, 2, threshold=1) == [GOODWARE, MALWARE, MALWARE]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DetectionLabelPolicy(threshold=0)
        with pytest.raises(ValueError):
            DetectionLabelPolicy(ambiguous_handling="drop-table")

    @pytest.mark.parametrize("handling", ["exclude", "goodware"])
    def test_label_dataset_matches_the_per_record_rule(self, small_corpus, handling):
        for threshold in (1, 2, 4):
            policy = DetectionLabelPolicy(threshold, handling)
            dataset = label_dataset(small_corpus, policy)
            want = [
                (r.app_id, int(label == MALWARE)) for r in small_corpus
                if (label := label_record(r, policy)) != AMBIGUOUS or handling == "goodware"
            ]
            assert list(zip((r.app_id for r in dataset.records), dataset.labels.tolist())) == want

    def test_malware_sets_nest_across_thresholds(self, small_corpus):
        sets = {}
        for t in (1, 2, 4):
            dataset = label_dataset(small_corpus, DetectionLabelPolicy(threshold=t))
            sets[t] = set(dataset.records.app_ids[dataset.labels == 1].tolist())
        assert sets[4] < sets[2] < sets[1]


class TestComposition:
    def test_exact_fraction_and_size(self, small_corpus):
        recipe = CompositionRecipe(0.25, DetectionLabelPolicy(1), 800, seed=3)
        ds = compose_subset(small_corpus, recipe)
        assert len(ds) == 800
        assert ds.labels.sum() == 200
        assert not any(f.startswith("shrunk to") for f in ds.flags)

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
        assert ds.flags and ds.flags[0].startswith("shrunk to")
        assert abs(ds.labels.mean() - 0.5) <= 0.005

    def test_fraction_tolerance_half_point(self, small_corpus):
        # For any target of at least 100 rows the achieved share sits
        # within half a percentage point of the request.
        for f in (0.02, 0.25, 0.33, 0.5, 0.77):
            recipe = CompositionRecipe(f, DetectionLabelPolicy(1), 150, seed=5)
            ds = compose_subset(small_corpus, recipe)
            assert abs(ds.labels.mean() - f) <= 0.005

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
        records = Corpus.of(make_record(app_id=f"a{i}") for i in range(30))
        recipe = CompositionRecipe(0.5, DetectionLabelPolicy(1), 20, seed=1)
        with pytest.raises(CompositionError):
            compose_subset(records, recipe)

    def test_no_goodware_raises(self):
        records = Corpus.of(make_record(app_id=f"a{i}", detection_count=5) for i in range(30))
        recipe = CompositionRecipe(0.5, DetectionLabelPolicy(1), 20, seed=1)
        with pytest.raises(CompositionError):
            compose_subset(records, recipe)

    def test_recipe_validation(self):
        with pytest.raises(ValueError):
            CompositionRecipe(0.0, DetectionLabelPolicy(1), 100, seed=1)
        with pytest.raises(ValueError):
            CompositionRecipe(0.5, DetectionLabelPolicy(1), 1, seed=1)


class TestGenerator:
    @pytest.mark.parametrize("n_apps,seed,vocabulary,jsonl,csv", [
        (2000, 1, 800, "84c0dac195c400146f3a12ae3f00da826232e9bdd968527c2bbdf26b49c8d2cb",
         "cbd190e9ef3e9afdf3e67edf1e2ba47aebc13acb6fa71a10c05dd6c2d6a12353"),
        (2000, 7, 800, "05c9148b5bb2f2150f909ea6fe3d25b088691ac674f4ac2ba12c34944103b8b9",
         "f8080a924cd8190b013bf4e55272bbdc9cc90b1a0636fe423e57bc75fab0ef91"),
        # Past 10,000 names the sorted names leave index order: perm.10000 < perm.1001.
        (300, 3, 12000, "5b5be262925e0fdd90f205cd7aa70630141b22d86f289ac8ab8091f7b223f9cd",
         "1b45bd2674815519f96e14c055361a9147a4763d71e4dfb7039ae9f5c37142e2"),
    ])
    def test_written_bytes_are_pinned(self, tmp_path, n_apps, seed, vocabulary, jsonl, csv):
        config = GeneratorConfig(n_apps=n_apps, permission_vocabulary_size=vocabulary)
        corpus = generate_synthetic(config, seed)
        names = corpus.permission_names.tolist()
        assert (names == sorted(names, key=lambda name: int(name[5:]))) == (vocabulary <= 10_000)
        for name, want in (("corpus.jsonl", jsonl), ("corpus.csv", csv)):
            path = tmp_path / name
            assert write_corpus(corpus, str(path)) == jsonl
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want

    @pytest.mark.parametrize("n_apps,digest", [
        (12000, "5b37cec61231867deed04439e17e864dafe43f67192b540a2ab11c608217a163"),
        (30000, "f09a651b252c83838f51bc0bc9e7f5861f18196273e230bde2c31e393c91f0cf"),
    ])
    def test_benchmark_recipe_corpora_are_pinned(self, n_apps, digest):
        # perfbench's corpora: `generate --seed 1 --n-apps N --n-developers 60
        # --n-issuers 40 --s-temporal 0.4`.
        config = GeneratorConfig(
            n_apps=n_apps, n_developers=60, n_issuers=40,
            signal_strengths=SignalStrengths(temporal=0.4),
        )
        assert corpus_digest(generate_synthetic(config, seed=1)) == digest

    def test_generation_makes_no_record(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the generator made an AppRecord")

        monkeypatch.setattr(metatriage.corpus, "AppRecord", refuse)
        corpus = generate_synthetic(GeneratorConfig(n_apps=300), seed=5)
        assert isinstance(corpus, Corpus) and len(corpus) == 300

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

    def test_sizes_are_refused_past_their_maximum(self):
        GeneratorConfig(n_apps=10**6, n_developers=10**6, n_issuers=10**6,
                        permission_vocabulary_size=10**5)
        DetectionCountModel(max_count=10**4)
        for name in ("n_apps", "n_developers", "n_issuers"):
            with pytest.raises(ValueError, match=f"^{name} must be at most 1000000, got 1000001$"):
                GeneratorConfig(**{name: 10**6 + 1})
        with pytest.raises(ValueError, match="^permission_vocabulary_size must be at most 100000"):
            GeneratorConfig(permission_vocabulary_size=10**5 + 1)
        with pytest.raises(ValueError, match="^max_count must be at most 10000, got 10001$"):
            DetectionCountModel(max_count=10**4 + 1)

    def test_config_json_round_trip(self):
        config = GeneratorConfig(
            n_apps=123,
            signal_strengths=SignalStrengths(0.1, 0.2, 0.3, 0.4),
            engine_count_distribution=DetectionCountModel(exponent=2.0, max_count=9),
        )
        assert decode_section(GeneratorConfig(), dataclasses.asdict(config), "generator") == config

    @pytest.mark.parametrize("obj,message", [
        (5, "'generator' must hold a JSON object"),
        ({"signal_strengths": 5}, "'generator.signal_strengths' must hold a JSON object"),
        ({"engine_count_distribution": [1]},
         "'generator.engine_count_distribution' must hold a JSON object"),
        ({"n_app": 5}, "unknown config key 'generator.n_app'"),
        ({"n_apps": "5"}, "n_apps must be an integer"),
        ({"n_apps": 5.0}, "n_apps must be an integer"),
        ({"n_apps": False}, "n_apps must be an integer"),
        ({"malware_rate": float("nan")}, "malware_rate must be a finite number"),
        ({"signal_strengths": {"social": [0.1]}}, "social must be a finite number"),
        ({"engine_count_distribution": {"max_count": 2.5}}, "max_count must be an integer"),
    ])
    def test_config_from_json_names_a_bad_key(self, obj, message):
        with pytest.raises(UsageError) as info:
            decode_section(GeneratorConfig(), obj, "generator")
        assert message in str(info.value)

    def test_config_from_json_takes_an_integer_for_a_real(self):
        config = decode_section(GeneratorConfig(), {"malware_rate": 1}, "generator")
        assert config.malware_rate == 1

    def test_self_signed_apps_share_issuer_and_developer(self, small_corpus):
        shared = sum(1 for r in small_corpus if r.issuer_id == r.developer_id)
        assert 0.25 < shared / len(small_corpus) < 0.45


def reference_extras(rng, k_mal, k_good, mal_pool, good_pool) -> np.ndarray:
    """The generator's permission draw as it was, one `rng.choice` per
    nonzero pool size, app by app and the malicious pool first; the picks
    as one array."""
    extras = [np.zeros(0, dtype=np.int64)]
    for km, kg in zip(k_mal.tolist(), k_good.tolist()):
        if km:
            extras.append(rng.choice(mal_pool, km, replace=False))
        if kg:
            extras.append(rng.choice(good_pool, kg, replace=False))
    return np.concatenate(extras)


def reference_star_votes(rng, total_votes, weights) -> np.ndarray:
    """The generator's star-vote draw as it was, one `rng.multinomial` per
    row with a vote."""
    n = len(total_votes)
    star_votes = np.zeros((n, 5), dtype=np.int64)
    for i in range(n):
        if total_votes[i] > 0:
            star_votes[i] = rng.multinomial(total_votes[i], weights[i])
    return star_votes


def extra_sizes(n_apps: int, vocabulary: int, malware: bool, seed: int = 0):
    """(k_mal, k_good, mal_pool, good_pool) as the generator makes them, for
    apps all malicious or all benign at permission strength 0.5."""
    pool = np.arange(5, vocabulary)
    n_tilted = max(1, round(0.3 * len(pool)))
    mal_pool, good_pool = pool[:n_tilted], pool[n_tilted:]
    q_base = n_tilted / len(pool)
    rng = np.random.default_rng(seed)
    n_extra = np.minimum(rng.poisson(7.0, n_apps), min(len(mal_pool), len(good_pool)) - 1)
    k_mal = rng.binomial(n_extra, q_base + 0.5 * (1 - q_base) if malware else q_base * 0.5)
    return k_mal, n_extra - k_mal, mal_pool, good_pool


def per_app(flat, k_mal, k_good) -> list:
    """Each app's picks as a set."""
    return [set(app.tolist()) for app in np.split(flat, np.cumsum(k_mal + k_good)[:-1])]


class TestArrayDraws:
    """The generator's two array draws against the per-app loops they
    replace: the same picks, and the same random stream consumed."""

    def check_extras(self, rng, k_mal, k_good, mal_pool, good_pool):
        oracle = np.random.default_rng()
        oracle.bit_generator.state = rng.bit_generator.state
        want = reference_extras(oracle, k_mal, k_good, mal_pool, good_pool)
        got = _extra_permissions(rng, k_mal, k_good, mal_pool, good_pool)
        assert per_app(got, k_mal, k_good) == per_app(want, k_mal, k_good)
        # Equal states: the post-shuffle draws, whose values go unused, are taken too.
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("malware", [False, True])
    @pytest.mark.parametrize("n_apps", [1, 50, 3000])
    @pytest.mark.parametrize("vocabulary", [10, 40, 800, 12_000, 100_000])
    def test_extras_match_a_choice_per_app(self, vocabulary, n_apps, malware):
        # 40 names leave pools of 10 and 25, so many draws repeat within a
        # call; 100,000 leaves both pools above 10,000.
        sizes = extra_sizes(n_apps, vocabulary, malware, seed=vocabulary + n_apps)
        self.check_extras(np.random.default_rng(n_apps), *sizes)

    def test_extras_after_a_buffered_half_word(self):
        rng = np.random.default_rng(3)
        rng.integers(0, 5)  # leaves half of a 64-bit draw buffered
        assert rng.bit_generator.state["has_uint32"]
        self.check_extras(rng, *extra_sizes(50, 800, True))

    def test_no_extras_draw_nothing(self):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        zeros = np.zeros(20, dtype=np.int64)
        self.check_extras(rng, zeros, zeros, np.arange(5, 10), np.arange(10, 40))
        assert rng.bit_generator.state == before

    def test_samples_past_floyds_range_are_refused(self):
        # numpy shuffles the whole pool for 241 of 12,000, which the array draw does not copy.
        with pytest.raises(GenerationError, match="Floyd"):
            _extra_permissions(np.random.default_rng(0), np.array([241]), np.array([1]),
                               np.arange(12_000), np.arange(12_000, 12_010))
        _extra_permissions(np.random.default_rng(0), np.array([240]), np.array([1]),
                           np.arange(12_000), np.arange(12_000, 12_010))

    @pytest.mark.parametrize("n", [1, 50, 3000])
    def test_star_votes_match_a_multinomial_per_row(self, n):
        # The generator's `rng.multinomial(total_votes, weights)`: rows of
        # zero votes (about a tenth here) draw nothing.
        rng = np.random.default_rng(n)
        total_votes = np.floor(rng.lognormal(2.8, 1.6, n)).astype(np.int64)
        total_votes[rng.random(n) < 0.1] = 0
        weights = rng.dirichlet(np.ones(5), n)
        oracle = np.random.default_rng()
        oracle.bit_generator.state = rng.bit_generator.state
        want = reference_star_votes(oracle, total_votes, weights)
        np.testing.assert_array_equal(rng.multinomial(total_votes, weights), want)
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_generator_matches_the_per_app_loop(self, monkeypatch):
        configs = [GeneratorConfig(n_apps=400, permission_vocabulary_size=v) for v in (40, 12_000)]
        want = [corpus_digest(generate_synthetic(c, seed=2)) for c in configs]
        monkeypatch.setattr(metatriage.corpus, "_extra_permissions", reference_extras)
        assert [corpus_digest(generate_synthetic(c, seed=2)) for c in configs] == want
