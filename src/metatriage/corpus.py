"""App-metadata corpus: record schema, parsing, labeling, subset composition,
and a deterministic synthetic-corpus generator.

Records carry store metadata only (no code-derived features): package facts,
market/social counters, developer and certificate-issuer identity, and the
number of antivirus engines that flagged the app.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (
    CompositionError,
    DuplicateAppIdError,
    GenerationError,
    MetatriageError,
    ParseError,
)

MALWARE = "malware"
GOODWARE = "goodware"
AMBIGUOUS = "ambiguous"

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

FIELD_ORDER = _STR_FIELDS + ("permissions",) + _INT_FIELDS[:-1] + ("star_votes", "detection_count")


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
        problems = []
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                problems.append(f"{name} must be a non-negative integer, got {value!r}")
        if len(self.star_votes) != 5:
            problems.append(f"star_votes must have 5 entries, got {len(self.star_votes)}")
        else:
            for i, v in enumerate(self.star_votes):
                if not isinstance(v, int) or v < 0:
                    problems.append(f"star_votes[{i}] must be a non-negative integer, got {v!r}")
        for name in _STR_FIELDS:
            if not getattr(self, name):
                problems.append(f"{name} must be a non-empty string")
        return problems


def record_to_dict(record: AppRecord) -> dict:
    """Canonical JSON-safe mapping with stable key order and sorted permissions."""
    out = {}
    for name in FIELD_ORDER:
        value = getattr(record, name)
        if name == "permissions":
            value = sorted(value)
        elif name == "star_votes":
            value = list(value)
        out[name] = value
    return out


def record_from_dict(obj: dict) -> tuple[Optional[AppRecord], list[str], list[str]]:
    """Build a record from a parsed mapping.

    Returns (record_or_None, problems, unknown_field_names)."""
    problems = []
    unknown = [k for k in obj if k not in FIELD_ORDER]
    missing = [k for k in FIELD_ORDER if k not in obj]
    if missing:
        return None, [f"missing fields: {', '.join(missing)}"], unknown

    kwargs = {}
    for name in _STR_FIELDS:
        kwargs[name] = str(obj[name])
    perms = obj["permissions"]
    if isinstance(perms, str):
        perms = [p for p in perms.split(";") if p]
    kwargs["permissions"] = frozenset(str(p) for p in perms)
    for name in _INT_FIELDS:
        try:
            kwargs[name] = int(obj[name])
        except (TypeError, ValueError):
            problems.append(f"{name} is not an integer: {obj[name]!r}")
            kwargs[name] = -1
    votes = obj["star_votes"]
    if isinstance(votes, str):
        votes = [v for v in votes.split(";") if v != ""]
    try:
        kwargs["star_votes"] = tuple(int(v) for v in votes)
    except (TypeError, ValueError):
        problems.append(f"star_votes is not a list of integers: {votes!r}")
        kwargs["star_votes"] = (-1,) * 5

    record = AppRecord(**kwargs)
    problems.extend(record.validation_errors())
    if problems:
        return None, problems, unknown
    return record, [], unknown


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str


@dataclass
class ParseResult:
    """Parsed records plus non-fatal issues collected along the way."""

    records: list[AppRecord]
    issues: list[ParseIssue] = field(default_factory=list)
    unknown_fields: Counter = field(default_factory=Counter)


def _iter_lines(stream) -> Iterator[str]:
    if isinstance(stream, (bytes, bytearray)):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    for raw in stream:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        yield raw


def parse_records(stream, format: str = "jsonlines", max_errors: int = 100) -> ParseResult:
    """Parse a corpus stream into records.

    `stream` may be a file object, a str, bytes, or an iterable of lines.
    Malformed records are skipped and reported in the result, up to
    `max_errors`; a duplicate app_id aborts parsing immediately.
    """
    if format not in ("jsonlines", "csv"):
        raise ValueError(f"unknown corpus format: {format!r}")

    result = ParseResult(records=[])
    seen_ids: set[str] = set()

    def reject(line_no: int, problems: list[str]) -> None:
        result.issues.extend(ParseIssue(line_no, p) for p in problems)
        if len(result.issues) > max_errors:
            raise ParseError(
                f"more than {max_errors} malformed records; last at line {line_no}"
            )

    def handle(obj: dict, line_no: int) -> None:
        record, problems, unknown = record_from_dict(obj)
        for name in unknown:
            result.unknown_fields[name] += 1
        if problems:
            reject(line_no, problems)
            return
        if record.app_id in seen_ids:
            raise DuplicateAppIdError(f"duplicate app_id {record.app_id!r} at line {line_no}")
        seen_ids.add(record.app_id)
        result.records.append(record)

    if format == "jsonlines":
        for line_no, line in enumerate(_iter_lines(stream), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                reject(line_no, [f"invalid JSON: {exc}"])
                continue
            if not isinstance(obj, dict):
                reject(line_no, ["line is not a JSON object"])
                continue
            handle(obj, line_no)
    else:
        reader = csv.DictReader(_iter_lines(stream))
        if reader.fieldnames is None:
            return result
        for line_no, row in enumerate(reader, start=2):
            handle({k: v for k, v in row.items() if k is not None}, line_no)

    return result


def load_corpus(path: str, max_errors: int = 100) -> ParseResult:
    """Parse a corpus file, picking the format from its extension."""
    fmt = "csv" if str(path).endswith(".csv") else "jsonlines"
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh, fmt, max_errors=max_errors)


def write_corpus(records: Iterable[AppRecord], path: str) -> None:
    """Write records as JSON Lines with canonical field order."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), separators=(",", ":")))
            fh.write("\n")


def corpus_digest(records: Iterable[AppRecord]) -> str:
    """sha256 over the canonical serialization; stable across processes."""
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record_to_dict(record), separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


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


def label_record(record: AppRecord, policy: DetectionLabelPolicy) -> str:
    """Classify one record as malware/goodware/ambiguous under a policy.

    Goodware is strictly zero detections; counts in (0, threshold) are
    ambiguous.
    """
    if record.detection_count >= policy.threshold:
        return MALWARE
    if record.detection_count == 0:
        return GOODWARE
    return AMBIGUOUS


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

    records: list[AppRecord]
    labels: np.ndarray
    recipe: Optional[CompositionRecipe] = None
    shrunk: bool = False
    flags: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_malware(self) -> int:
        return int(self.labels.sum())

    @property
    def achieved_fraction(self) -> float:
        return self.n_malware / len(self.records) if self.records else 0.0


def label_dataset(
    records: Iterable[AppRecord], policy: DetectionLabelPolicy
) -> LabeledDataset:
    """Every record admissible under `policy`, in input order, labeled 1 for
    malware and 0 for goodware; ambiguous records count as goodware when
    the policy says so and are dropped otherwise."""
    kept, labels = [], []
    for record in records:
        lab = label_record(record, policy)
        if lab == AMBIGUOUS and policy.ambiguous_handling != "goodware":
            continue
        kept.append(record)
        labels.append(lab == MALWARE)
    if not kept:
        raise MetatriageError("no records admissible under the label policy")
    return LabeledDataset(records=kept, labels=np.array(labels, dtype=np.int8))


def compose_subset(corpus: list[AppRecord], recipe: CompositionRecipe) -> LabeledDataset:
    """Draw a seeded subset with the requested malware share.

    Malware is sampled from records meeting the policy threshold, goodware
    from zero-detection records (plus ambiguous ones when the policy maps
    them to goodware). If either pool is too small, the total shrinks while
    preserving the requested fraction, and the result is flagged.
    """
    policy = recipe.policy
    mal_pool, good_pool = [], []
    for i, record in enumerate(corpus):
        lab = label_record(record, policy)
        if lab == MALWARE:
            mal_pool.append(i)
        elif lab == GOODWARE or policy.ambiguous_handling == "goodware":
            good_pool.append(i)

    if not mal_pool:
        raise CompositionError(
            f"no malware available at threshold {policy.threshold}"
        )
    if not good_pool:
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
    mal_idx = rng.choice(np.asarray(mal_pool), size=n_mal, replace=False)
    good_idx = rng.choice(np.asarray(good_pool), size=n_good, replace=False)

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
    return LabeledDataset(
        records=[corpus[i] for i in chosen],
        labels=labels,
        recipe=recipe,
        shrunk=shrunk,
        flags=flags,
    )


def detection_histogram(corpus: Iterable[AppRecord]) -> dict[int, int]:
    """Frequency of each detection count over flagged records (count >= 1)."""
    counts = Counter(r.detection_count for r in corpus if r.detection_count >= 1)
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------


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
        if self.exponent <= 0 or self.max_count < 1:
            raise ValueError("invalid detection-count distribution")


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
        if self.n_apps < 1 or self.n_developers < 1 or self.n_issuers < 1:
            raise ValueError("n_apps, n_developers, n_issuers must be positive")
        if not 0.0 <= self.malware_developer_fraction <= 1.0:
            raise ValueError("malware_developer_fraction must be in [0, 1]")
        if not 0.0 <= self.malware_rate <= 1.0:
            raise ValueError("malware_rate must be in [0, 1]")
        if self.permission_vocabulary_size < 10:
            raise ValueError("permission_vocabulary_size must be at least 10")

    @staticmethod
    def from_json(obj: dict) -> "GeneratorConfig":
        obj = dict(obj)
        if "signal_strengths" in obj:
            obj["signal_strengths"] = SignalStrengths(**obj["signal_strengths"])
        if "engine_count_distribution" in obj:
            obj["engine_count_distribution"] = DetectionCountModel(
                **obj["engine_count_distribution"]
            )
        return GeneratorConfig(**obj)

    def to_json(self) -> dict:
        return {
            "n_apps": self.n_apps,
            "n_developers": self.n_developers,
            "n_issuers": self.n_issuers,
            "malware_developer_fraction": self.malware_developer_fraction,
            "malware_rate": self.malware_rate,
            "permission_vocabulary_size": self.permission_vocabulary_size,
            "self_signed_fraction": self.self_signed_fraction,
            "signal_strengths": {
                "reputation": self.signal_strengths.reputation,
                "temporal": self.signal_strengths.temporal,
                "permissions": self.signal_strengths.permissions,
                "social": self.signal_strengths.social,
            },
            "engine_count_distribution": {
                "exponent": self.engine_count_distribution.exponent,
                "max_count": self.engine_count_distribution.max_count,
            },
        }


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


def generate_synthetic(config: GeneratorConfig, seed: int) -> list[AppRecord]:
    """Deterministically generate a corpus with configurable planted signals.

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
    star_votes = np.zeros((n, 5), dtype=np.int64)
    for i in range(n):
        if total_votes[i] > 0:
            star_votes[i] = rng.multinomial(total_votes[i], weights[i])

    # Permissions: a handful of near-universal entries plus extras whose
    # identity (not count) is tilted toward a malware-leaning vocabulary slice.
    vocab = [f"perm.{i:04d}" for i in range(config.permission_vocabulary_size)]
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
    permissions: list[frozenset[str]] = []
    for i in range(n):
        chosen = [vocab[j] for j in range(n_base) if base_mask[i, j]]
        km = int(k_mal[i])
        kg = int(n_extra[i]) - km
        if km:
            chosen.extend(vocab[j] for j in rng.choice(mal_pool, km, replace=False))
        if kg:
            chosen.extend(vocab[j] for j in rng.choice(good_pool, kg, replace=False))
        permissions.append(frozenset(chosen))

    records = []
    for i in range(n):
        dev = f"dev.{dev_idx[i]:05d}"
        issuer = dev if self_signed[i] else f"iss.{iss_idx[i]:05d}"
        records.append(
            AppRecord(
                app_id=f"app.{i:07d}",
                package_name=f"com.d{dev_idx[i]}.app{i}",
                developer_id=dev,
                issuer_id=issuer,
                permissions=permissions[i],
                size_bytes=int(size_bytes[i]),
                num_files=int(num_files[i]),
                num_images=int(num_images[i]),
                version_code=int(version[i]),
                age_in_market_days=int(age[i]),
                last_update_days=int(last_upd[i]),
                last_signature_update_days=int(last_sig[i]),
                time_for_creation_days=int(creation[i]),
                cert_validity_days=int(cert[i]),
                num_downloads=int(downloads[i]),
                star_votes=tuple(int(v) for v in star_votes[i]),
                detection_count=int(detection[i]),
            )
        )
    return records
