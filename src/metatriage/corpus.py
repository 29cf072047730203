"""App-metadata corpus: record schema, the columnar `Corpus`, parsing and
writing, labeling, subset composition, and a deterministic synthetic-corpus
generator.

Records carry store metadata only (no code-derived features): package facts,
market/social counters, developer and certificate-issuer identity, and the
number of antivirus engines that flagged the app.

A `Corpus` holds records as columns, and it is what passes between layers:
`generate_synthetic` and `parse_records` return one, and labeling,
composition, digests and every feature block read one. A parsed line, a CSV
row and a hand-made record each reach the columns as one row, a plain tuple
(see `record_from_dict`), and `write_corpus` formats its lines and CSV rows
from the columns. `AppRecord` is one record: what `Corpus[i]` gives, and
what `Corpus.of` makes a corpus of.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import reporting
from .errors import (
    CompositionError,
    DuplicateAppIdError,
    GenerationError,
    MetatriageError,
    ParseError,
    check_number_fields,
    decode_json,
)

_INT_FIELDS = (
    "size_bytes",
    "num_files",
    "num_images",
    "version_code",
    "age_in_market_days",
    "last_update_days",
    "last_signature_update_days",
    "time_for_creation_days",
    "cert_validity_days",
    "num_downloads",
    "detection_count",
)

_STR_FIELDS = ("app_id", "package_name", "developer_id", "issuer_id")
_VOTE_NAMES = tuple(f"star_votes[{i}]" for i in range(5))

# The largest integer a record may hold. Features are float64, which holds
# every integer up to it exactly; a larger one may round, or overflow.
MAX_INT = 2**53 - 1


@dataclass(frozen=True, slots=True)
class AppRecord:
    """One application's raw market metadata."""

    app_id: str
    package_name: str
    developer_id: str
    issuer_id: str
    permissions: frozenset[str]
    size_bytes: int
    num_files: int
    num_images: int
    version_code: int
    age_in_market_days: int
    last_update_days: int
    last_signature_update_days: int
    time_for_creation_days: int
    cert_validity_days: int
    num_downloads: int
    star_votes: tuple[int, int, int, int, int]
    detection_count: int

    @property
    def total_votes(self) -> int:
        return sum(self.star_votes)

    @property
    def mean_star(self) -> float:
        total = self.total_votes
        if total == 0:
            return 0.0
        return sum((i + 1) * v for i, v in enumerate(self.star_votes)) / total

    def validation_errors(self) -> list[str]:
        return _value_errors(_IDS_OF(self), _INTS_OF(self), self.star_votes)


# The canonical key order of a serialized record, and the order of the
# record's constructor arguments.
FIELD_ORDER = tuple(f.name for f in fields(AppRecord))
_FIELD_SET = frozenset(FIELD_ORDER)
_IDS_OF, _INTS_OF = attrgetter(*_STR_FIELDS), attrgetter(*_INT_FIELDS)
_COUNT_VALUES = itemgetter(*_INT_FIELDS)


def _value_errors(ids, counts, votes) -> list[str]:
    """The problems of a record's values by the rule every record keeps:
    `ids` and `counts` hold its `_STR_FIELDS` and `_INT_FIELDS` values."""
    values = (*counts, *votes)
    try:  # only ints sum to an int: another number does not, and a str or None raises
        ints = type(sum(values)) is int
    except TypeError:
        ints = False
    if ints and len(votes) == 5 and all(ids) and min(values) >= 0 and max(values) <= MAX_INT:
        return []
    problems = [
        f"{name} must be a non-negative integer, got {v!r}" if not isinstance(v, int) or v < 0
        else f"{name} must be at most 2**53 - 1, got {v!r}"
        for name, v in zip(_INT_FIELDS + _VOTE_NAMES, values if len(votes) == 5 else counts)
        if not isinstance(v, int) or not 0 <= v <= MAX_INT
    ]
    if len(votes) != 5:
        problems.append(f"star_votes must have 5 entries, got {len(votes)}")
    return problems + [f"{name} must be a non-empty string" for name, v in zip(_STR_FIELDS, ids) if not v]


def _integer(value) -> int:
    """`value` as an int: an integer, an integral JSON number or a decimal
    string (CSV). A bool or a non-integral number raises ValueError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def record_from_dict(obj: dict) -> tuple[Optional[tuple], list[str], list[str]]:
    """(row_or_None, problems, unknown_field_names) of a parsed mapping:
    a JSON object, or a CSV row with `permissions` and `star_votes` joined
    by `;`. The row is (app_id, package_name, developer_id, issuer_id, the
    sorted distinct permission names, the `COUNT_FIELDS` ints as a list).

    Each field is converted once, and a value of its exact type is taken as
    it is. One that does not convert is a problem, with a placeholder that
    passes the rule of `validation_errors`. That rule then checks the
    values, and the row is made only when there is no problem."""
    unknown = [] if obj.keys() == _FIELD_SET else [k for k in obj if k not in _FIELD_SET]
    if len(obj) - len(unknown) < len(FIELD_ORDER):
        missing = [k for k in FIELD_ORDER if k not in obj]
        return None, [f"missing fields: {', '.join(missing)}"], unknown

    problems = []
    ids = [str(obj[name]) for name in _STR_FIELDS]
    counts, votes = list(_COUNT_VALUES(obj)), obj["star_votes"]
    if isinstance(votes, str):
        votes = [v for v in votes.split(";") if v != ""]
    if type(votes) is list and {int}.issuperset(map(type, counts + votes)):
        votes = tuple(votes)
    else:
        for i, value in enumerate(counts):
            try:
                counts[i] = _integer(value)
            except (TypeError, ValueError):
                problems.append(f"{_INT_FIELDS[i]} is not an integer: {value!r}")
                counts[i] = 0
        try:
            votes = tuple(map(_integer, votes))
        except (TypeError, ValueError):
            problems.append(f"star_votes is not a list of integers: {votes!r}")
            votes = (0,) * 5
    permissions = obj["permissions"]
    if isinstance(permissions, str):
        permissions = [p for p in permissions.split(";") if p]
    if not isinstance(permissions, list):
        problems.append(f"permissions is not a list: {permissions!r}")

    problems += _value_errors(ids, counts, votes)
    if problems:
        return None, problems, unknown
    if not {str}.issuperset(map(type, permissions)):
        permissions = map(str, permissions)
    counts[10:10] = votes
    return (*ids, sorted(set(permissions)), counts), [], unknown


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str


# ---------------------------------------------------------------------------
# The columnar corpus
# ---------------------------------------------------------------------------

# The rows of `Corpus.counts`: the integer fields in line order, with
# `star_votes` as its five entries.
COUNT_FIELDS = _INT_FIELDS[:10] + _VOTE_NAMES + _INT_FIELDS[10:]
_VOTES = slice(10, 15)
_DETECTIONS = 15


def row_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the entries of compressed sparse rows `rows`, row
    after row, and each of those rows' entry count."""
    start = indptr[rows]
    sizes = indptr[rows + 1] - start
    return np.repeat(start - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum()), sizes


@dataclass(frozen=True, eq=False)
class Corpus:
    """Records as columns, in record order: what `generate_synthetic` and
    `parse_records` return and every layer up to the fold matrices reads.

    `app_ids` and `package_names` are object arrays of str. Developer and
    issuer ids are codes into `entities`, the sorted distinct ids of both,
    so a self-signed record has equal codes. Permissions are compressed
    sparse rows of codes into `permission_names`, sorted and distinct:
    record i's are `permission_codes[permission_indptr[i]:permission_indptr[i + 1]]`,
    increasing. `counts` holds the integer fields, one row per
    `COUNT_FIELDS` entry, as int64. `digest`, when known, is the
    `corpus_digest`.

    An index gives one record as an `AppRecord`; `take` gives the corpus
    of the records at some indices.
    """

    app_ids: np.ndarray
    package_names: np.ndarray
    entities: np.ndarray
    developer_codes: np.ndarray
    issuer_codes: np.ndarray
    permission_names: np.ndarray
    permission_indptr: np.ndarray
    permission_codes: np.ndarray
    counts: np.ndarray
    digest: Optional[str] = None

    @staticmethod
    def of(records: Iterable[AppRecord]) -> "Corpus":
        """The corpus of hand-made records, in order. A record that
        `validation_errors` rejects, or that repeats an app id, raises
        ValueError."""
        rows, seen = [], set()
        for record in records:
            if problems := record.validation_errors():
                raise ValueError(f"invalid record {record.app_id!r}: {'; '.join(problems)}")
            if record.app_id in seen:
                raise ValueError(f"duplicate app_id {record.app_id!r}")
            seen.add(record.app_id)
            ints = _INTS_OF(record)
            counts = [*ints[:10], *record.star_votes, ints[10]]
            rows.append((*_IDS_OF(record), sorted(record.permissions), counts))
        builder = _CorpusBuilder()
        builder.add_rows(rows)
        return builder.finish()

    def __len__(self) -> int:
        return len(self.app_ids)

    def __getitem__(self, i: int) -> AppRecord:
        i = range(len(self))[i]
        a, b = self.permission_indptr[i : i + 2]
        counts = self.counts[:, i].tolist()
        return AppRecord(
            self.app_ids[i], self.package_names[i], self.entities[self.developer_codes[i]],
            self.entities[self.issuer_codes[i]],
            frozenset(self.permission_names[self.permission_codes[a:b]].tolist()),
            *counts[:10], tuple(counts[_VOTES]), counts[_DETECTIONS],
        )

    def __iter__(self) -> Iterator[AppRecord]:
        return map(self.__getitem__, range(len(self)))

    @property
    def detection_counts(self) -> np.ndarray:
        return self.counts[_DETECTIONS]

    def take(self, rows) -> "Corpus":
        """The corpus of records `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        at, sizes = row_positions(self.permission_indptr, rows)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        return Corpus(
            self.app_ids[rows], self.package_names[rows], self.entities,
            self.developer_codes[rows], self.issuer_codes[rows], self.permission_names,
            indptr, self.permission_codes[at], self.counts[:, rows],
        )


class _CorpusBuilder:
    """Collects records, a block at a time and in order, as columns; names
    get first-seen codes, and `finish` renumbers them in sorted order."""

    def __init__(self):
        self.app_ids, self.package_names = [], []
        self.entity_code, self.permission_code = {}, {}
        # Per added block, after an empty one: developer and issuer codes,
        # permission counts, permission codes and the (records, 16) integer fields.
        self.developers, self.issuers, self.sizes, self.permissions = (
            [np.zeros(0, dtype=np.intp)] for _ in range(4)
        )
        self.counts = [np.zeros((0, len(COUNT_FIELDS)), dtype=np.int64)]

    @staticmethod
    def _codes(code: dict, names: Sequence[str]) -> np.ndarray:
        for name in set(names).difference(code):
            code[name] = len(code)
        return np.fromiter(map(code.__getitem__, names), np.intp, len(names))

    @staticmethod
    def _ranks(code: dict) -> np.ndarray:
        """Each code's place among the names in `code`, sorted."""
        ranks = np.empty(len(code), dtype=np.intp)
        in_order = np.fromiter(map(code.__getitem__, sorted(code)), np.intp, len(code))
        ranks[in_order] = np.arange(len(code))
        return ranks

    def _add(self, ids, packages, developers, issuers, sizes, permissions, counts) -> None:
        """Add records given by their columns, permissions as codes."""
        self.app_ids += ids
        self.package_names += packages
        self.developers.append(self._codes(self.entity_code, developers))
        self.issuers.append(self._codes(self.entity_code, issuers))
        self.sizes.append(sizes)
        self.permissions.append(permissions)
        self.counts.append(counts.reshape(-1, len(COUNT_FIELDS)))

    def add_canonical(self, rows: list[tuple[str, ...]], seen_ids: set[str]) -> bool:
        """Add the records of `_CANONICAL` match groups and their ids to
        `seen_ids`; or add nothing and return False when an id is in
        `seen_ids` or repeats, or a record's permissions are not sorted
        and distinct."""
        ids, packages, developers, issuers, permissions, counts = zip(*rows)
        if len(set(ids)) != len(ids) or not seen_ids.isdisjoint(ids):
            return False
        # Quoted names hold no '"', so each holds two.
        sizes = np.fromiter(map(str.count, permissions, repeat('"')), np.int64, len(rows)) // 2
        joined = ",".join(filter(None, permissions))
        # A block refused below is parsed line by line, and its records then
        # hold every name added here.
        codes = self._codes(self.permission_code, joined[1:-1].split('","') if joined else [])
        rank = self._ranks(self.permission_code)[codes]  # must rise within a record
        first = np.zeros(len(codes), dtype=bool)
        first[(np.cumsum(sizes) - sizes)[sizes > 0]] = True
        if ((rank[1:] <= rank[:-1]) & ~first[1:]).any():
            return False
        seen_ids.update(ids)
        digits = ",".join(counts).encode().translate(_DIGITS)
        counts = np.fromstring(digits, dtype=np.int64, sep=" ")
        self._add(ids, packages, developers, issuers, sizes, codes, counts)
        return True

    def add_columns(self, ids, packages, developers, issuers, sizes, permissions, counts) -> None:
        """Add records given by their columns: `permissions` holds each
        record's names, sorted and distinct, record after record, and
        `sizes` how many each has."""
        codes = self._codes(self.permission_code, permissions)
        self._add(ids, packages, developers, issuers, sizes, codes, counts)

    def add_rows(self, rows: list[tuple]) -> None:
        """Add records given as `record_from_dict` rows."""
        if rows:
            ids, packages, developers, issuers, permissions, counts = zip(*rows)
            self.add_columns(
                ids, packages, developers, issuers,
                np.fromiter(map(len, permissions), np.int64, len(rows)),
                list(chain.from_iterable(permissions)), np.array(counts, dtype=np.int64),
            )

    def finish(self, digest: Optional[str] = None) -> Corpus:
        entity, permission = self._ranks(self.entity_code), self._ranks(self.permission_code)
        indptr = np.zeros(len(self.app_ids) + 1, dtype=np.int64)
        np.cumsum(np.concatenate(self.sizes), out=indptr[1:])
        return Corpus(
            np.array(self.app_ids, dtype=object), np.array(self.package_names, dtype=object),
            np.array(sorted(self.entity_code), dtype=object),
            entity[np.concatenate(self.developers)], entity[np.concatenate(self.issuers)],
            np.array(sorted(self.permission_code), dtype=object), indptr,
            permission[np.concatenate(self.permissions)],
            np.ascontiguousarray(np.concatenate(self.counts).T),
            digest,
        )


# ---------------------------------------------------------------------------
# Parsing and writing
# ---------------------------------------------------------------------------


@dataclass
class ParseResult:
    """Parsed records plus non-fatal issues collected along the way."""

    records: Corpus
    issues: list[ParseIssue] = field(default_factory=list)
    unknown_fields: Counter = field(default_factory=Counter)


def _template(value) -> str:
    """A record's line, `value(name)` standing for each field's value."""
    return "{" + ",".join(f'"{name}":' + value(name) for name in FIELD_ORDER) + "}\n"


# A record as one line of compact JSON, to be filled with its ints, its
# strings quoted as `json.dumps` quotes them, and the items of its two lists.
_LINE = _template(
    lambda name: "%d" if name in _INT_FIELDS else "%s" if name in _STR_FIELDS else "[%s]"
)

_NAME = r'"[ !#-\[\]-~]*"'
_COUNT = "(?:0|[1-9][0-9]{0,14})"


def _pattern(name: str) -> str:
    if name in _STR_FIELDS:
        return r'"([ !#-\[\]-~]+)"'
    if name == "permissions":
        return rf"\[((?:{_NAME})(?:,{_NAME})*)?\]"
    if name in _INT_FIELDS:
        return _COUNT
    return r"\[" + ",".join([_COUNT] * 5) + r"\]"


# Exactly the lines `_LINE` gives the valid records whose strings are
# printable ASCII without '"' or '\' (which `_quote` leaves as they are) and
# whose integers have at most 15 digits (so are below `MAX_INT`). The
# groups: the four id strings, the quoted permissions, and the text of the
# integer fields.
_CANONICAL = re.compile(
    r"\{" + _template(_pattern)[1:-2].replace('"size_bytes"', '("size_bytes"', 1) + r")\}" + "\n"
)
# Each byte of the integers' text: digits stay, the rest become spaces.
_DIGITS = bytes(c if 48 <= c <= 57 else 32 for c in range(256))
_BLOCK_LINES = 1024


def parse_records(stream, format: str = "jsonlines", max_errors: int = 100) -> ParseResult:
    """Parse a corpus stream into its `Corpus`.

    `stream` may be a str, a text file object, or an iterable of str lines.
    Malformed records are skipped and reported in the result, up to
    `max_errors` of them; a duplicate app_id aborts parsing immediately.

    JSON Lines are read `_BLOCK_LINES` lines at a time. A block of lines
    that are all `_CANONICAL`, with new app ids and sorted distinct
    permissions, goes into the columns at once. Any other block is parsed
    line by line, each line through `decode_json` and `record_from_dict`
    into a row, with the issues, unknown-field counts and errors each line
    gives; so is each CSV row. No `AppRecord` is made. A CSV that the
    `csv` module cannot read raises ParseError. When every
    block was canonical, the corpus's digest is the sha256 of the lines
    read: for a file with line-feed line ends, of its bytes.
    """
    if format not in ("jsonlines", "csv"):
        raise ValueError(f"unknown corpus format: {format!r}")
    lines = iter(io.StringIO(stream) if isinstance(stream, str) else stream)

    issues: list[ParseIssue] = []
    unknown_fields: Counter = Counter()
    builder = _CorpusBuilder()
    seen_ids: set[str] = set()
    rejected = 0

    def reject(line_no: int, problems: list[str]) -> None:
        nonlocal rejected
        issues.extend(ParseIssue(line_no, p) for p in problems)
        rejected += 1
        if rejected > max_errors:
            raise ParseError(
                f"more than {max_errors} malformed records; last at line {line_no}"
            )

    def handle(obj: dict, line_no: int, kept: list[tuple]) -> None:
        row, problems, unknown = record_from_dict(obj)
        if unknown:
            unknown_fields.update(unknown)
        if problems:
            reject(line_no, problems)
            return
        if row[0] in seen_ids:
            raise DuplicateAppIdError(f"duplicate app_id {row[0]!r} at line {line_no}")
        seen_ids.add(row[0])
        kept.append(row)

    def handle_line(line: str, line_no: int, kept: list[tuple]) -> None:
        line = line.strip()
        if not line:
            return
        try:
            obj = decode_json(line)
        except ValueError as exc:
            reject(line_no, [f"invalid JSON: {exc}"])
            return
        if not isinstance(obj, dict):
            reject(line_no, ["line is not a JSON object"])
            return
        handle(obj, line_no, kept)

    digest = None
    if format == "jsonlines":
        start, digest = 1, hashlib.sha256()
        while block := list(islice(lines, _BLOCK_LINES)):
            matches = list(map(_CANONICAL.fullmatch, block))
            rows = [m.groups("") for m in matches] if all(matches) else None
            if rows and builder.add_canonical(rows, seen_ids):
                if digest is not None:
                    digest.update("".join(block).encode())
            else:
                digest, kept = None, []
                for line_no, line in enumerate(block, start):
                    handle_line(line, line_no, kept)
                builder.add_rows(kept)
            start += len(block)
    else:
        kept, rows = [], csv.DictReader(lines)
        try:
            for line_no, row in enumerate(rows, start=2):
                handle({k: v for k, v in row.items() if k is not None}, line_no, kept)
        except csv.Error as exc:  # e.g. a field past the csv module's size limit
            raise ParseError(f"unreadable CSV at line {rows.reader.line_num}: {exc}") from None
        builder.add_rows(kept)
    records = builder.finish(None if digest is None else digest.hexdigest())
    return ParseResult(records, issues, unknown_fields)


def load_corpus(path: str, max_errors: int = 100) -> ParseResult:
    """Parse a corpus file, picking the format from its extension."""
    fmt = "csv" if str(path).endswith(".csv") else "jsonlines"
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh, fmt, max_errors=max_errors)


def write_corpus(corpus: Corpus, path: str) -> str:
    """Write a corpus with canonical field order: CSV for a `.csv` path, with
    `permissions` and `star_votes` joined by `;`, otherwise JSON Lines.
    Returns `corpus_digest(corpus)`; for JSON Lines it is the hash of the
    bytes written."""
    h = hashlib.sha256()

    def jsonl(fh) -> None:
        lines = _canonical_lines(corpus)
        while data := "".join(islice(lines, _BLOCK_LINES)).encode():
            fh.buffer.write(data)
            h.update(data)

    def rows(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIELD_ORDER)
        writer.writerows(_rows(corpus, str, ";"))

    is_csv = str(path).endswith(".csv")
    reporting.write_file(path, rows if is_csv else jsonl)
    return corpus_digest(corpus) if is_csv else h.hexdigest()


def corpus_digest(corpus: Corpus) -> str:
    """sha256 over the canonical serialization, each record's canonical
    line (see `_canonical_lines`) in record order; stable across processes.
    A parsed corpus whose lines were all canonical holds it already;
    otherwise the lines are formatted from the columns."""
    if corpus.digest is not None:
        return corpus.digest
    h = hashlib.sha256()
    for line in _canonical_lines(corpus):
        h.update(line.encode())
    return h.hexdigest()


def _rows(corpus: Corpus, quote, sep: str) -> Iterator[tuple]:
    """Each record's values in `FIELD_ORDER`, from the columns: every string
    through `quote`, and the permission names and the star votes each
    joined by `sep`."""
    entities = list(map(quote, corpus.entities.tolist()))
    names = np.array(list(map(quote, corpus.permission_names.tolist())), dtype=object)
    permissions = names[corpus.permission_codes].tolist()
    bounds = corpus.permission_indptr.tolist()
    votes = sep.join(["%d"] * 5)  # formats faster than joining each vote's str
    rows = zip(
        corpus.app_ids.tolist(), corpus.package_names.tolist(), corpus.developer_codes.tolist(),
        corpus.issuer_codes.tolist(), bounds, bounds[1:], corpus.counts.T.tolist(),
    )
    for app_id, package, developer, issuer, a, b, counts in rows:
        yield (
            quote(app_id), quote(package), entities[developer], entities[issuer],
            sep.join(permissions[a:b]), *counts[:10], votes % tuple(counts[_VOTES]),
            counts[_DETECTIONS],
        )


def _canonical_lines(corpus: Corpus) -> Iterator[str]:
    """Each record's canonical line, formatted from the columns: `_LINE`,
    compact JSON with the keys in `FIELD_ORDER`, its permissions sorted and
    its strings quoted as `json.dumps` quotes them, plus a newline."""
    return map(_LINE.__mod__, _rows(corpus, _quote, ","))


# ---------------------------------------------------------------------------
# Labeling and composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionLabelPolicy:
    """Ground-truth rule: at least `threshold` engine detections means malware."""

    threshold: int = 1
    ambiguous_handling: str = "exclude"  # or "goodware"

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be a positive integer")
        if self.ambiguous_handling not in ("exclude", "goodware"):
            raise ValueError(f"unknown ambiguous_handling: {self.ambiguous_handling!r}")


@dataclass(frozen=True)
class CompositionRecipe:
    malware_fraction: float
    policy: DetectionLabelPolicy
    target_size: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.malware_fraction < 1.0:
            raise ValueError("malware_fraction must be in (0, 1)")
        if self.target_size < 2:
            raise ValueError("target_size must be at least 2")


@dataclass
class LabeledDataset:
    """A composed subset: raw records plus binary labels (1 = malware).

    Feature matrices are assembled later (per training fold) so that
    entity-reputation statistics never see held-out rows.
    """

    records: Corpus
    labels: np.ndarray
    flags: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


def _pools(corpus: Corpus, policy: DetectionLabelPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the records the policy calls malware, and of those it
    admits as goodware."""
    detections = corpus.detection_counts
    malware = detections >= policy.threshold
    goodware = ~malware if policy.ambiguous_handling == "goodware" else detections == 0
    return malware, goodware


def label_dataset(corpus: Corpus, policy: DetectionLabelPolicy) -> LabeledDataset:
    """Every record admissible under `policy`, in input order, labeled 1 for
    malware and 0 for goodware; ambiguous records count as goodware when
    the policy says so and are dropped otherwise."""
    malware, goodware = _pools(corpus, policy)
    kept = malware | goodware
    if not kept.any():
        raise MetatriageError("no records admissible under the label policy")
    if not kept.all():
        corpus, malware = corpus.take(np.flatnonzero(kept)), malware[kept]
    return LabeledDataset(records=corpus, labels=malware.astype(np.int8))


def compose_subset(corpus: Corpus, recipe: CompositionRecipe) -> LabeledDataset:
    """Draw a seeded subset with the requested malware share.

    Malware is sampled from records meeting the policy threshold, goodware
    from zero-detection records (plus ambiguous ones when the policy maps
    them to goodware). If either pool is too small, the total shrinks while
    preserving the requested fraction, and the result is flagged.
    """
    policy = recipe.policy
    malware, goodware = _pools(corpus, policy)
    mal_pool, good_pool = np.flatnonzero(malware), np.flatnonzero(goodware)

    if not len(mal_pool):
        raise CompositionError(
            f"no malware available at threshold {policy.threshold}"
        )
    if not len(good_pool):
        raise CompositionError("no goodware available in the corpus")

    f = recipe.malware_fraction
    total = min(
        recipe.target_size,
        int(len(mal_pool) / f),
        int(len(good_pool) / (1.0 - f)),
    )
    shrunk = total < recipe.target_size
    n_mal = round(f * total)
    n_mal = min(max(n_mal, 1), len(mal_pool))
    n_good = total - n_mal
    n_good = min(max(n_good, 1), len(good_pool))
    if n_mal < 1 or n_good < 1:
        raise CompositionError("target composition leaves a class empty")

    rng = np.random.default_rng(np.random.SeedSequence([recipe.seed & 0xFFFFFFFFFFFFFFFF, 0x5EED]))
    mal_idx = rng.choice(mal_pool, size=n_mal, replace=False)
    good_idx = rng.choice(good_pool, size=n_good, replace=False)

    chosen = np.concatenate([mal_idx, good_idx])
    labels = np.concatenate([np.ones(n_mal, dtype=np.int8), np.zeros(n_good, dtype=np.int8)])
    order = rng.permutation(len(chosen))
    chosen, labels = chosen[order], labels[order]

    flags = []
    if shrunk:
        flags.append(
            f"shrunk to {n_mal + n_good} rows (requested {recipe.target_size}): "
            f"pools malware={len(mal_pool)} goodware={len(good_pool)}"
        )
    return LabeledDataset(records=corpus.take(chosen), labels=labels, flags=flags)


def detection_histogram(corpus: Corpus) -> dict[int, int]:
    """Frequency of each detection count over flagged records (count >= 1)."""
    detections = corpus.detection_counts
    counts, apps = np.unique(detections[detections >= 1], return_counts=True)
    return dict(zip(counts.tolist(), apps.tolist()))


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------


# The largest sizes a generator config may ask for, checked before any
# array is drawn: about 7 times the apps of the paper's 140k-app corpus (and
# as many developers or issuers), and far more distinct permissions and
# detecting engines than a store or a scanner has.
MAX_APPS, MAX_PERMISSIONS, MAX_DETECTIONS = 10**6, 10**5, 10**4


@dataclass(frozen=True)
class SignalStrengths:
    """Per-group weights in [0, 1] controlling feature/label coupling.

    Zero everywhere makes every feature statistically independent of the
    label; 1.0 plants the strongest version of that group's signal.
    """

    reputation: float = 0.8
    temporal: float = 0.6
    permissions: float = 0.5
    social: float = 0.25

    def __post_init__(self):
        check_number_fields(self)
        for name in ("reputation", "temporal", "permissions", "social"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"signal strength {name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class DetectionCountModel:
    """Zipf-like law for engine detections of malicious apps."""

    exponent: float = 1.6
    max_count: int = 53

    def __post_init__(self):
        check_number_fields(self)
        if self.exponent <= 0 or self.max_count < 1:
            raise ValueError("invalid detection-count distribution")
        if self.max_count > MAX_DETECTIONS:
            raise ValueError(f"max_count must be at most {MAX_DETECTIONS}, got {self.max_count}")


@dataclass(frozen=True)
class GeneratorConfig:
    n_apps: int = 30_000
    n_developers: int = 600
    n_issuers: int = 400
    malware_developer_fraction: float = 0.3
    malware_rate: float = 0.5
    permission_vocabulary_size: int = 800
    self_signed_fraction: float = 0.35
    signal_strengths: SignalStrengths = field(default_factory=SignalStrengths)
    engine_count_distribution: DetectionCountModel = field(default_factory=DetectionCountModel)

    def __post_init__(self):
        check_number_fields(self)
        if self.n_apps < 1 or self.n_developers < 1 or self.n_issuers < 1:
            raise ValueError("n_apps, n_developers, n_issuers must be positive")
        if not 0.0 <= self.malware_developer_fraction <= 1.0:
            raise ValueError("malware_developer_fraction must be in [0, 1]")
        if not 0.0 <= self.malware_rate <= 1.0:
            raise ValueError("malware_rate must be in [0, 1]")
        if self.permission_vocabulary_size < 10:
            raise ValueError("permission_vocabulary_size must be at least 10")
        for name, bound in (
            ("n_apps", MAX_APPS), ("n_developers", MAX_APPS), ("n_issuers", MAX_APPS),
            ("permission_vocabulary_size", MAX_PERMISSIONS),
        ):
            if getattr(self, name) > bound:
                raise ValueError(f"{name} must be at most {bound}, got {getattr(self, name)}")


def _zipf_multiset(n: int, model: DetectionCountModel) -> np.ndarray:
    """Deterministic detection-count multiset for `n` malicious apps.

    Bin frequencies follow the truncated power law with largest-remainder
    rounding, then are sorted descending so the realized histogram is
    monotone non-increasing by construction.
    """
    ks = np.arange(1, model.max_count + 1)
    p = ks.astype(float) ** -model.exponent
    p /= p.sum()
    exact = p * n
    counts = np.floor(exact).astype(int)
    remainder = n - counts.sum()
    order = np.argsort(-(exact - np.floor(exact)), kind="stable")
    counts[order[:remainder]] += 1
    counts = np.sort(counts)[::-1]
    return np.repeat(ks, counts)


def _mix_lognormal(rng, y, strength, base_mu, base_sigma, alt_mu, alt_sigma):
    """Integer feature: malware rows switch to the alternative law w.p. strength."""
    n = len(y)
    base = rng.lognormal(base_mu, base_sigma, n)
    alt = rng.lognormal(alt_mu, alt_sigma, n)
    affected = (rng.random(n) < strength) & (y == 1)
    return np.floor(np.where(affected, alt, base)).astype(np.int64)


def _extra_permissions(rng, k_mal, k_good, mal_pool, good_pool) -> np.ndarray:
    """Each app's extra permissions, app after app: what
    `rng.choice(mal_pool, k_mal[i], replace=False)` and then
    `rng.choice(good_pool, k_good[i], replace=False)` pick for app i, each
    call made only for a nonzero size, and each call's picks in Floyd's
    order rather than shuffled.

    One array draw takes exactly the bounded integers those calls take, in
    their order: per call of size k on a pool of size pop, Floyd's k draws
    in [0, j] for j = pop - k ... pop - 1, then the k - 1 draws of numpy's
    post-shuffle, in [0, j] for j = k - 1 ... 1, whose values go unused.
    Floyd's rule then keeps each draw unless an earlier position of the same
    call picked it, in which case that position picks its bound j."""
    sizes = np.column_stack([k_mal, k_good]).ravel()
    pools = np.tile([len(mal_pool), len(good_pool)], len(k_mal))
    # numpy draws by Floyd's algorithm only for a pool of at most 10,000 or
    # k <= pool // 50; past that it shuffles the pool, which is not copied here.
    if ((pools > 10_000) & (sizes > pools // 50)).any():
        raise GenerationError("a permission sample leaves the range numpy draws by Floyd's algorithm")
    offsets = np.repeat(np.tile([0, len(mal_pool)], len(k_mal)), sizes)
    sizes, pools = sizes[sizes > 0], pools[sizes > 0]
    lens = 2 * sizes - 1  # each call's draws: k by Floyd, k - 1 by the shuffle
    start = np.cumsum(lens) - lens
    at = np.arange(lens.sum())
    floyd = np.repeat(start + sizes, lens) > at
    bounds = np.where(
        floyd, np.repeat(pools - sizes - start, lens) + at, np.repeat(lens + start, lens) - at
    )
    picked, bounds = rng.integers(0, bounds + 1)[floyd], bounds[floyd]
    first = np.cumsum(sizes) - sizes  # each call's first position in `picked`
    for t in range(1, int(sizes.max(initial=0))):
        pos = first[sizes > t] + t
        seen = (picked[pos[:, None] - np.arange(1, t + 1)] == picked[pos, None]).any(axis=1)
        picked[pos[seen]] = bounds[pos[seen]]
    return np.concatenate([mal_pool, good_pool])[picked + offsets]


def generate_synthetic(config: GeneratorConfig, seed: int) -> Corpus:
    """Deterministically generate a corpus with configurable planted signals,
    built from the drawn columns.

    Label first, features second: each feature group is drawn from a
    label-conditional mixture whose mixing weight is that group's signal
    strength, so zero strength yields exact independence. Malicious
    developers/issuers emit malware at elevated rates via pool alignment;
    detection counts of malware follow the configured zipf-like law. The
    total permission count per app is label-independent by construction
    (only the identity of the permissions carries signal).
    """
    n = config.n_apps
    s = config.signal_strengths
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0x9E37]))

    n_mal_devs = round(config.malware_developer_fraction * config.n_developers)
    if config.malware_rate > 0 and n_mal_devs == 0:
        raise GenerationError(
            "malware requested but the malicious developer pool is empty "
            "(malware_developer_fraction too small)"
        )
    if config.malware_rate < 1 and n_mal_devs == config.n_developers:
        raise GenerationError("goodware requested but every developer is malicious")

    y = (rng.random(n) < config.malware_rate).astype(np.int8)

    # Developer alignment: with probability s.reputation the app's developer
    # comes from the pool matching its label, otherwise from the whole pool.
    def entity_assignment(n_entities, n_malicious, strength):
        aligned = rng.random(n) < strength
        from_mal = rng.integers(0, max(n_malicious, 1), n)
        from_good = rng.integers(n_malicious, n_entities, n) if n_malicious < n_entities else from_mal
        from_any = rng.integers(0, n_entities, n)
        idx = np.where(aligned & (y == 1), from_mal, np.where(aligned, from_good, from_any))
        return idx

    dev_idx = entity_assignment(config.n_developers, n_mal_devs, s.reputation)
    n_mal_iss = round(config.malware_developer_fraction * config.n_issuers)
    iss_idx = entity_assignment(config.n_issuers, max(n_mal_iss, 1), s.reputation * 0.85)
    self_signed = rng.random(n) < config.self_signed_fraction

    # Detection counts: zero for goodware, monotone zipf-like multiset for malware.
    detection = np.zeros(n, dtype=np.int64)
    mal_rows = np.flatnonzero(y == 1)
    if len(mal_rows):
        multiset = _zipf_multiset(len(mal_rows), config.engine_count_distribution)
        detection[mal_rows] = rng.permutation(multiset)

    # Temporal / intrinsic group. Malware skews newer, faster-built, and
    # (non-monotonically) toward a narrow default certificate-validity band.
    age = _mix_lognormal(rng, y, s.temporal, 5.6, 0.8, 3.4, 0.7)
    last_sig = _mix_lognormal(rng, y, s.temporal, 4.8, 0.8, 2.4, 0.8)
    creation = _mix_lognormal(rng, y, s.temporal, 4.4, 0.9, 1.0, 0.9)
    last_upd = _mix_lognormal(rng, y, s.temporal, 4.3, 0.9, 5.7, 0.6)
    cert_base = rng.lognormal(7.6, 0.9, n)
    cert_band = rng.normal(9970.0, 60.0, n)
    cert_affected = (rng.random(n) < s.temporal) & (y == 1)
    cert = np.clip(np.floor(np.where(cert_affected, cert_band, cert_base)), 0, None).astype(np.int64)
    size_bytes = _mix_lognormal(rng, y, s.temporal * 0.4, 14.8, 1.2, 14.1, 1.0)
    num_files = np.floor(rng.lognormal(4.0, 1.0, n)).astype(np.int64)
    num_images = np.floor(rng.lognormal(2.5, 1.2, n)).astype(np.int64)
    version = 1 + _mix_lognormal(rng, y, s.temporal * 0.3, 1.6, 1.0, 0.6, 0.8)
    downloads = _mix_lognormal(rng, y, s.social * 0.4, 5.5, 2.0, 4.4, 1.8)

    # Social group: vote volume is label-independent; rating quality dips for
    # affected malware.
    total_votes = np.floor(rng.lognormal(2.8, 1.6, n)).astype(np.int64)
    social_affected = (rng.random(n) < s.social) & (y == 1)
    quality = np.clip(3.7 - 1.2 * social_affected + rng.normal(0.0, 0.5, n), 1.0, 5.0)
    stars = np.arange(1, 6, dtype=float)
    weights = np.exp(-0.5 * ((stars[None, :] - quality[:, None]) / 0.9) ** 2)
    weights /= weights.sum(axis=1, keepdims=True)
    # A row of zero votes draws nothing, as a call per nonzero row would.
    star_votes = rng.multinomial(total_votes, weights)

    # Permissions: a handful of near-universal entries plus extras whose
    # identity (not count) is tilted toward a malware-leaning vocabulary slice.
    n_base = 5
    base_popularity = np.array([0.96, 0.91, 0.55, 0.54, 0.40])
    pool = np.arange(n_base, config.permission_vocabulary_size)
    n_tilted = max(1, round(0.3 * len(pool)))
    mal_pool, good_pool = pool[:n_tilted], pool[n_tilted:]
    q_base = len(mal_pool) / len(pool)
    q = np.where(
        y == 1,
        q_base + s.permissions * (1.0 - q_base),
        q_base * (1.0 - s.permissions),
    )
    base_mask = rng.random((n, n_base)) < base_popularity[None, :]
    cap = min(len(mal_pool), len(good_pool)) - 1
    n_extra = np.minimum(rng.poisson(7.0, n), cap)
    k_mal = rng.binomial(n_extra, q)
    # Exact within Floyd's range only: a sample size, at most a Poisson(7)
    # draw, would have to pass 200 to leave it (probability below 1e-200).
    extras = _extra_permissions(rng, k_mal, n_extra - k_mal, mal_pool, good_pool)
    # Each app's permission names in sorted order: the distinct keys (row,
    # the name's rank among the sorted names), sorted.
    vocab = np.array([f"perm.{i:04d}" for i in range(config.permission_vocabulary_size)], dtype=object)
    by_name = np.argsort(vocab)
    base_rows, base_perms = np.nonzero(base_mask)
    keys = np.concatenate([base_rows, np.repeat(np.arange(n), n_extra)]) * len(vocab)
    keys += np.argsort(by_name)[np.concatenate([base_perms, extras])]
    keys.sort()
    names = vocab[by_name][keys % len(vocab)]

    # Each developer and issuer name formatted once.
    devs, dev_at = np.unique(dev_idx, return_inverse=True)
    issuers, iss_at = np.unique(iss_idx, return_inverse=True)
    dev_names = np.array([f"dev.{d:05d}" for d in devs.tolist()], dtype=object)[dev_at]
    iss_names = np.array([f"iss.{i:05d}" for i in issuers.tolist()], dtype=object)[iss_at]
    builder = _CorpusBuilder()
    builder.add_columns(
        [f"app.{i:07d}" for i in range(n)],
        [f"com.d{d}.app{i}" for i, d in enumerate(dev_idx.tolist())],
        dev_names.tolist(),
        np.where(self_signed, dev_names, iss_names).tolist(),
        base_mask.sum(axis=1) + n_extra,
        names.tolist(),
        np.column_stack([
            size_bytes, num_files, num_images, version, age, last_upd, last_sig, creation,
            cert, downloads, star_votes, detection,
        ]),
    )
    return builder.finish()
