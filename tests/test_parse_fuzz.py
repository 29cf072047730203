"""Differential fuzzing of the columnar corpus parse.

`parse_records` takes whole blocks of canonical lines into its columns and
parses any other block line by line. `reference_parse` below is the parse
as it was before the columns: every line through `json.loads` and
`record_from_dict` into a row. Seeded mutations of a few lines of a
small generated corpus must give both the same rows, issues, unknown-field
counts and raised error, and a digest equal to the hash of the rows'
canonical lines. The mutations change the lines' text, and, in a second
set, set a field to a value of any JSON kind; CSV rows get the same values
and also lose or gain fields. No input may raise anything but a parse
error, and every record kept must be valid.
"""

import csv
import hashlib
import io
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

import metatriage.corpus
from metatriage import cli
from metatriage.corpus import (
    _INT_FIELDS,
    FIELD_ORDER,
    Corpus,
    DuplicateAppIdError,
    GeneratorConfig,
    ParseError,
    _canonical_lines,
    corpus_digest,
    generate_synthetic,
    load_corpus,
    parse_records,
    record_from_dict,
    write_corpus,
)
from test_corpus import record_to_dict

CASES = 500
N_RECORDS = 24


def reference_parse(lines, max_errors=100):
    """(rows, [(line, message)], unknown-field counts) of `lines`, one
    line at a time; raises what the parse raises."""
    rows, issues, unknown_fields, seen, rejected = [], [], Counter(), set(), 0
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            problems = [] if isinstance(obj, dict) else ["line is not a JSON object"]
        except ValueError as exc:
            obj, problems = None, [f"invalid JSON: {exc}"]
        except RecursionError:
            obj, problems = None, ["invalid JSON: JSON nested too deeply"]
        row = None
        if not problems:
            row, problems, unknown = record_from_dict(obj)
            unknown_fields.update(unknown)
        if problems:
            issues.extend((line_no, p) for p in problems)
            rejected += 1
            if rejected > max_errors:
                raise ParseError(
                    f"more than {max_errors} malformed records; last at line {line_no}"
                )
            continue
        if row[0] in seen:
            raise DuplicateAppIdError(f"duplicate app_id {row[0]!r} at line {line_no}")
        seen.add(row[0])
        rows.append(row)
    return rows, issues, unknown_fields


def row_to_dict(row: tuple) -> dict:
    """The `record_to_dict` mapping of a `record_from_dict` row."""
    *ids, permissions, counts = row
    return dict(zip(FIELD_ORDER, (*ids, permissions, *counts[:10], counts[10:15], counts[15])))


def compact(d: dict, **kwargs) -> str:
    return json.dumps(d, separators=(",", ":"), **kwargs) + "\n"


def with_value(d: dict, name: str, text: str) -> str:
    """The compact line of `d` with field `name`'s value written as `text`."""
    return compact(dict(d, **{name: "VALUE"})).replace('"VALUE"', text)


def int_field(rng) -> str:
    return rng.choice(_INT_FIELDS)


def dropped(rng, d: dict) -> dict:
    name = rng.choice(list(d))
    return {k: v for k, v in d.items() if k != name}


# Each mutation maps (rng, the line's record dict, every record dict, the
# line) to the text that replaces the line.
MUTATIONS = {
    "drop-key": lambda rng, d, ds, line: compact(dropped(rng, d)),
    "unknown-key": lambda rng, d, ds, line: compact(dict(d, extra=rng.choice([1, "x", None]))),
    "reordered-keys": lambda rng, d, ds, line: compact(dict(rng.sample(list(d.items()), len(d)))),
    "string-int": lambda rng, d, ds, line: compact(dict(d, **{(f := int_field(rng)): str(d[f])})),
    "float-int": lambda rng, d, ds, line: compact(dict(d, **{(f := int_field(rng)): float(d[f])})),
    "bool-int": lambda rng, d, ds, line: compact(dict(d, **{int_field(rng): True})),
    "nan": lambda rng, d, ds, line: compact(dict(d, **{int_field(rng): math.nan})),
    "infinity": lambda rng, d, ds, line: compact(dict(d, **{int_field(rng): -math.inf})),
    "negative": lambda rng, d, ds, line: compact(dict(d, **{(f := int_field(rng)): -d[f] - 1})),
    "2**53": lambda rng, d, ds, line: compact(dict(d, **{int_field(rng): 2**53})),
    "2**53-1": lambda rng, d, ds, line: compact(dict(d, **{int_field(rng): 2**53 - 1})),
    "huge-int": lambda rng, d, ds, line: with_value(d, int_field(rng), "9" * 4400),
    "vote-2**53": lambda rng, d, ds, line: compact(dict(d, star_votes=[2**53, 0, 0, 0, 0])),
    "15-digit-int": lambda rng, d, ds, line: compact(dict(d, **{int_field(rng): 10**15 - 1})),
    "leading-zero": lambda rng, d, ds, line: with_value(d, int_field(rng), "07"),
    "negative-zero": lambda rng, d, ds, line: with_value(d, int_field(rng), "-0"),
    "empty-permission-name": lambda rng, d, ds, line: compact(
        dict(d, permissions=[""] + d["permissions"])),
    "escaped-quote": lambda rng, d, ds, line: compact(dict(d, app_id=d["app_id"] + '"q')),
    "escaped-e-acute": lambda rng, d, ds, line: compact(dict(d, package_name="café")),
    "raw-utf8": lambda rng, d, ds, line: compact(dict(d, developer_id="dév"), ensure_ascii=False),
    "unsorted-permissions": lambda rng, d, ds, line: compact(
        dict(d, permissions=d["permissions"][::-1])),
    "duplicate-permission": lambda rng, d, ds, line: compact(
        dict(d, permissions=d["permissions"] + d["permissions"][:1])),
    "no-permissions": lambda rng, d, ds, line: compact(dict(d, permissions=[])),
    "four-votes": lambda rng, d, ds, line: compact(dict(d, star_votes=d["star_votes"][:4])),
    "six-votes": lambda rng, d, ds, line: compact(dict(d, star_votes=d["star_votes"] + [1])),
    "inner-whitespace": lambda rng, d, ds, line: json.dumps(d) + "\n",
    "trailing-spaces": lambda rng, d, ds, line: line[:-1] + "  \n",
    "crlf": lambda rng, d, ds, line: line[:-1] + "\r\n",
    "blank-lines": lambda rng, d, ds, line: rng.choice(["\n", "  \n", "\n\n"]) + line,
    "truncated": lambda rng, d, ds, line: line[: rng.randrange(1, len(line) - 1)] + "\n",
    "array": lambda rng, d, ds, line: "[1,2]\n",
    "duplicate-app-id": lambda rng, d, ds, line: compact(dict(d, app_id=rng.choice(ds)["app_id"])),
}


def nested(rng) -> str:
    depth = rng.choice([2, 60, 100_000])  # the last is too deep to decode
    return "[" * depth + "]" * depth


# The JSON text of a value of each kind, drawn from `rng`.
VALUES = {
    "null": lambda rng: "null",
    "bool": lambda rng: rng.choice(["true", "false"]),
    "int": lambda rng: str(rng.choice([0, 1, -1, 5, 2**53, 10**30])),
    "float": lambda rng: rng.choice(["0.0", "3.0", "2.5", "-1.0", "1e308"]),
    "nan": lambda rng: rng.choice(["NaN", "Infinity", "-Infinity"]),
    "string": lambda rng: json.dumps(rng.choice(["", "x", "12", " 7 ", "a;b", "1;2;3;4;5"])),
    "list": lambda rng: rng.choice(["[]", "[1,2,3,4,5]", '["a",1,null]', "[[1]]", "[1.5,0,0,0,0]"]),
    "object": lambda rng: rng.choice(["{}", '{"a":1}', '{"1":1,"2":2,"3":3,"4":4,"5":5}']),
    "nested": nested,
}

# Each sets one field of the line's record to a value of one kind.
VALUE_MUTATIONS = {
    f"value-{kind}": lambda rng, d, ds, line, value=value: with_value(
        d, rng.choice(FIELD_ORDER), value(rng))
    for kind, value in VALUES.items()
}


def make_case(rng, mutations=MUTATIONS):
    """(name, text, max_errors, block lines) of one seeded case."""
    records = generate_synthetic(
        GeneratorConfig(n_apps=N_RECORDS, n_developers=5, n_issuers=4), seed=rng.randrange(50)
    )
    dicts = [record_to_dict(r) for r in records]
    lines = list(_canonical_lines(records))
    kinds = rng.sample(sorted(mutations), rng.randrange(0, 4))
    for kind in kinds:
        i = rng.randrange(len(lines))
        lines[i] = mutations[kind](rng, dicts[i], dicts, lines[i])
    text = "".join(lines)
    if rng.random() < 0.2:
        kinds.append("no-final-newline")
        text = text.rstrip("\n")
    max_errors, block = rng.choice([0, 1, 2, 100]), rng.choice([1, 3, 8, 1024])
    return "+".join(kinds) or "canonical", text, max_errors, block


def outcome(parse, *args):
    try:
        return parse(*args)
    except (ParseError, DuplicateAppIdError) as exc:
        return type(exc), str(exc)


def check_cases(rng, mutations, path, monkeypatch, capsys):
    """Parse 25 cases of `mutations` both ways, from text and from a file,
    and compare."""
    for _ in range(25):
        name, text, max_errors, block = make_case(rng, mutations)
        monkeypatch.setattr(metatriage.corpus, "_BLOCK_LINES", block)
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            inputs = [(text, io.StringIO(text)), (str(path), fh)]
            for source, lines in inputs:
                got = outcome(
                    lambda: (load_corpus(source, max_errors) if source == str(path)
                             else parse_records(source, max_errors=max_errors))
                )
                want = outcome(reference_parse, lines, max_errors)
                if isinstance(want[0], type):
                    assert got == want, name
                    continue
                rows, issues, unknown = want
                dicts = [record_to_dict(r) for r in got.records]
                assert dicts == [row_to_dict(row) for row in rows], name
                assert all(r.validation_errors() == [] for r in got.records), name
                assert [(i.line, i.message) for i in got.issues] == issues, name
                assert got.unknown_fields == unknown, name
                canonical = "".join(compact(row_to_dict(row)) for row in rows).encode()
                assert corpus_digest(got.records) == hashlib.sha256(canonical).hexdigest(), name
        code = cli.main(["histogram", "--corpus", str(path)])
        assert code in (0, 1, 2), name
        capsys.readouterr()


@pytest.mark.parametrize("seed", range(CASES // 25))
def test_columns_match_the_per_line_parse(seed, tmp_path, monkeypatch, capsys):
    check_cases(random.Random(seed), MUTATIONS, tmp_path / "corpus.jsonl", monkeypatch, capsys)


@pytest.mark.parametrize("seed", range(8))
def test_values_of_every_kind_match_the_per_line_parse(seed, tmp_path, monkeypatch, capsys):
    rng = random.Random(1000 + seed)
    check_cases(rng, VALUE_MUTATIONS, tmp_path / "corpus.jsonl", monkeypatch, capsys)


def csv_value(rng) -> str:
    """A CSV cell: the text of a JSON value of any kind, or a text CSV
    itself could hold."""
    if rng.random() < 0.5:
        return rng.choice(list(VALUES.values()))(rng)
    return rng.choice(["", "x", "-3", "1.5", "1e3", "nan", "True", " 4 ", "1;2;3", "a;;b", "9" * 5000])


@pytest.mark.parametrize("seed", range(8))
def test_csv_rows_with_values_of_every_kind_parse_or_are_skipped(seed, tmp_path, capsys):
    rng = random.Random(2000 + seed)
    path = tmp_path / "corpus.csv"
    for _ in range(25):
        records = generate_synthetic(
            GeneratorConfig(n_apps=N_RECORDS, n_developers=5, n_issuers=4),
            seed=rng.randrange(50),
        )
        write_corpus(records, str(path))
        rows = list(csv.reader(io.StringIO(path.read_text())))
        for _ in range(rng.randrange(1, 5)):
            row = rows[rng.randrange(1, len(rows))]
            kind = rng.choice(["value", "short", "long"])
            if kind == "value":
                row[rng.randrange(len(row))] = csv_value(rng)
            elif kind == "short":
                del row[rng.randrange(1, len(row)):]
            else:
                row += [csv_value(rng) for _ in range(rng.randrange(1, 4))]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        path.write_text(out.getvalue())
        result = outcome(lambda: load_corpus(str(path), max_errors=rng.choice([0, 2, 100])))
        if not isinstance(result, tuple):  # not a raised parse error
            assert all(r.validation_errors() == [] for r in result.records)
            assert len(result.records) + len({i.line for i in result.issues}) == len(rows) - 1
        assert cli.main(["histogram", "--corpus", str(path)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err


def test_canonical_corpus_constructs_no_record(tmp_path, monkeypatch):
    records = generate_synthetic(GeneratorConfig(n_apps=3000), seed=3)
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("the load made an AppRecord")

    monkeypatch.setattr(metatriage.corpus, "AppRecord", refuse)
    corpus = load_corpus(str(path)).records
    monkeypatch.undo()
    assert corpus.digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert list(corpus) == list(records)


def test_per_line_parse_and_csv_write_construct_no_record(tmp_path, monkeypatch):
    records = generate_synthetic(GeneratorConfig(n_apps=300), seed=4)
    jsonl, csv_path, written = (tmp_path / n for n in ("c.jsonl", "c.csv", "w.csv"))
    jsonl.write_text("".join(line[:-1] + " \n" for line in _canonical_lines(records)))
    write_corpus(records, str(csv_path))

    def refuse(*args, **kwargs):
        raise AssertionError("the corpus boundary made an AppRecord")

    monkeypatch.setattr(metatriage.corpus, "AppRecord", refuse)
    loaded = [load_corpus(str(path)).records for path in (jsonl, csv_path)]
    write_corpus(records, str(written))
    monkeypatch.undo()
    assert written.read_bytes() == csv_path.read_bytes()
    for corpus in loaded:
        assert corpus.digest is None and list(corpus) == list(records)


def test_csv_corpus_gives_the_same_columns(tmp_path):
    # canonical JSON Lines, the same lines each with a trailing space (so
    # parsed line by line), and CSV
    records = generate_synthetic(GeneratorConfig(n_apps=2000), seed=8)
    canonical, spaced, csv_path = (tmp_path / n for n in ("c.jsonl", "s.jsonl", "c.csv"))
    write_corpus(records, str(canonical))
    spaced.write_text("".join(line[:-1] + " \n" for line in _canonical_lines(records)))
    write_corpus(records, str(csv_path))
    a, b, c = (load_corpus(str(path)).records for path in (canonical, spaced, csv_path))
    assert a.digest is not None and b.digest is None and c.digest is None
    for name in Corpus.__dataclass_fields__:
        if name != "digest":
            for other in (b, c):
                left, right = getattr(a, name), getattr(other, name)
                assert left.dtype == right.dtype and np.array_equal(left, right), name
    assert corpus_digest(a) == corpus_digest(b) == corpus_digest(c) == corpus_digest(records)


GOOD = compact(record_to_dict(next(iter(generate_synthetic(GeneratorConfig(n_apps=2), seed=1)))))


def good_lines(n: int) -> str:
    corpus = generate_synthetic(GeneratorConfig(n_apps=n), seed=5)
    return "".join(compact(record_to_dict(r)) for r in corpus)


@pytest.mark.parametrize("bad", [
    with_value(json.loads(GOOD), "permissions", "null"),
    with_value(json.loads(GOOD), "permissions", "true"),
    with_value(json.loads(GOOD), "permissions", "7"),
    "[" * 100_000 + "\n",
], ids=["null-permissions", "true-permissions", "number-permissions", "nested"])
def test_corpus_line_that_once_raised_is_a_skipped_record(bad, tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(good_lines(40) + bad)
    assert cli.main(["histogram", "--corpus", str(path)]) == 0
    err = capsys.readouterr().err
    assert "warning: 1 malformed records skipped" in err
    assert "Traceback" not in err


def test_csv_row_shorter_than_its_header_is_a_skipped_record(tmp_path, capsys):
    path = tmp_path / "corpus.csv"
    write_corpus(generate_synthetic(GeneratorConfig(n_apps=40), seed=5), str(path))
    header, first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(header + first + ",".join(first.split(",")[:6]) + "\n" + "".join(rest))
    assert cli.main(["histogram", "--corpus", str(path)]) == 0
    err = capsys.readouterr().err
    assert "warning: 1 malformed records skipped" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,code,message", [
    (["histogram", "--corpus", "CORPUS", "--config", "DEEP"], 1,
     "usage error: config file is not valid JSON: JSON nested too deeply"),
    (["report", "--input", "DEEP"], 2,
     "error: report file is not valid JSON: JSON nested too deeply"),
])
def test_too_deeply_nested_json_file_is_an_error(command, code, message, tmp_path, capsys):
    deep, corpus = tmp_path / "deep.json", tmp_path / "corpus.jsonl"
    deep.write_text("[" * 100_000)
    corpus.write_text(good_lines(10))
    names = {"DEEP": str(deep), "CORPUS": str(corpus)}
    assert cli.main([names.get(a, a) for a in command]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
