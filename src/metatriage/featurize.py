"""Feature assembly: permission hashing, intrinsic/social columns, and
entity-reputation encoding.

The row layout is fixed: hash buckets f0..f{H-1}, then 15 intrinsic columns,
then 7 social columns, then developer_rep and issuer_rep. Reputation columns
are the only ones that depend on labels, so the rest of the block can be
computed once per dataset and reused across folds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import AppRecord
from .errors import ContractError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF

INTRINSIC_COLUMNS = (
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
    "num_permissions",
    "self_signed",
    "package_name_length",
    "package_depth",
    "update_rate",
)

SOCIAL_COLUMNS = (
    "votes_1",
    "votes_2",
    "votes_3",
    "votes_4",
    "votes_5",
    "total_votes",
    "mean_star",
)

REPUTATION_COLUMNS = ("developer_rep", "issuer_rep")


@dataclass(frozen=True)
class HashConfig:
    """Feature-hashing layout: bucket count and hash seed."""

    n_buckets: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.n_buckets < 1:
            raise ValueError("n_buckets must be positive")


@lru_cache(maxsize=65536)
def _hash64(token: str, seed: int) -> int:
    """Seeded 64-bit FNV-1a with an avalanche finalizer.

    The finalizer (splitmix64 style) spreads low-entropy FNV outputs so
    that modulo small bucket counts stays close to uniform.
    """
    h = (_FNV_OFFSET ^ (seed & _MASK)) & _MASK
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK
    h ^= h >> 31
    return h


def hash_permissions(permissions: Iterable[str], config: HashConfig) -> np.ndarray:
    """Fold a permission set into bucket counts (collisions add)."""
    out = np.zeros(config.n_buckets, dtype=np.float64)
    for perm in permissions:
        out[_hash64(perm, config.seed) % config.n_buckets] += 1.0
    return out


def hash_column_names(config: HashConfig) -> tuple[str, ...]:
    return tuple(f"f{i}" for i in range(config.n_buckets))


# ---------------------------------------------------------------------------
# Entity reputation
# ---------------------------------------------------------------------------


@dataclass
class ReputationTable:
    """Smoothed malware share per developer and certificate issuer.

    rep(e) = (malware_e + alpha) / (total_e + 2*alpha); entities unseen at
    fit time fall back to the smoothed global prior. Built from training
    rows only; applying it to its own fit rows leaks label information,
    which is why cross-validation refits it inside each fold.
    """

    alpha: float
    global_prior: float
    developers: dict[str, float] = field(default_factory=dict)
    issuers: dict[str, float] = field(default_factory=dict)
    n_fit_rows: int = 0

    def developer_rep(self, developer_id: str) -> float:
        return self.developers.get(developer_id, self.global_prior)

    def issuer_rep(self, issuer_id: str) -> float:
        return self.issuers.get(issuer_id, self.global_prior)


def build_reputation_table(
    records: Sequence[AppRecord],
    labels: np.ndarray,
    alpha: float = 1.0,
) -> ReputationTable:
    """Fit reputation statistics from (records, labels) pairs."""
    if len(records) != len(labels):
        raise ContractError(
            f"records/labels length mismatch: {len(records)} vs {len(labels)}"
        )
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    labels = np.asarray(labels)
    n = len(records)
    global_prior = (float(labels.sum()) + alpha) / (n + 2.0 * alpha)

    dev_total: dict[str, int] = {}
    dev_mal: dict[str, int] = {}
    iss_total: dict[str, int] = {}
    iss_mal: dict[str, int] = {}
    for record, y in zip(records, labels):
        dev_total[record.developer_id] = dev_total.get(record.developer_id, 0) + 1
        iss_total[record.issuer_id] = iss_total.get(record.issuer_id, 0) + 1
        if y == 1:
            dev_mal[record.developer_id] = dev_mal.get(record.developer_id, 0) + 1
            iss_mal[record.issuer_id] = iss_mal.get(record.issuer_id, 0) + 1

    developers = {
        d: (dev_mal.get(d, 0) + alpha) / (t + 2.0 * alpha) for d, t in dev_total.items()
    }
    issuers = {
        s: (iss_mal.get(s, 0) + alpha) / (t + 2.0 * alpha) for s, t in iss_total.items()
    }
    return ReputationTable(
        alpha=alpha,
        global_prior=global_prior,
        developers=developers,
        issuers=issuers,
        n_fit_rows=n,
    )


# ---------------------------------------------------------------------------
# Column blocks
# ---------------------------------------------------------------------------


def _intrinsic_row(record: AppRecord) -> list[float]:
    return [
        float(record.size_bytes),
        float(record.num_files),
        float(record.num_images),
        float(record.version_code),
        float(record.age_in_market_days),
        float(record.last_update_days),
        float(record.last_signature_update_days),
        float(record.time_for_creation_days),
        float(record.cert_validity_days),
        float(record.num_downloads),
        float(len(record.permissions)),
        1.0 if record.issuer_id == record.developer_id else 0.0,
        float(len(record.package_name)),
        float(record.package_name.count(".")),
        float(record.version_code) / (record.age_in_market_days + 1.0),
    ]


def _social_row(record: AppRecord) -> list[float]:
    votes = [float(v) for v in record.star_votes]
    return votes + [float(record.total_votes), float(record.mean_star)]


def static_feature_block(
    records: Sequence[AppRecord], hash_config: HashConfig
) -> np.ndarray:
    """Label-free columns: hash buckets + intrinsic + social.

    Safe to compute once per dataset and slice per fold.
    """
    n = len(records)
    width = hash_config.n_buckets + len(INTRINSIC_COLUMNS) + len(SOCIAL_COLUMNS)
    out = np.zeros((n, width), dtype=np.float64)
    h = hash_config.n_buckets
    for i, record in enumerate(records):
        out[i, :h] = hash_permissions(record.permissions, hash_config)
        out[i, h : h + len(INTRINSIC_COLUMNS)] = _intrinsic_row(record)
        out[i, h + len(INTRINSIC_COLUMNS) :] = _social_row(record)
    return out


def reputation_block(
    records: Sequence[AppRecord], table: ReputationTable
) -> np.ndarray:
    """developer_rep and issuer_rep columns from a fitted table."""
    out = np.empty((len(records), 2), dtype=np.float64)
    for i, record in enumerate(records):
        out[i, 0] = table.developer_rep(record.developer_id)
        out[i, 1] = table.issuer_rep(record.issuer_id)
    return out


@dataclass
class FeatureMatrix:
    """A named, validated float matrix; the unit every model consumes."""

    column_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ContractError(f"feature matrix must be 2-D, got {self.values.ndim}-D")
        if self.values.shape[1] != len(self.column_names):
            raise ContractError(
                f"{self.values.shape[1]} columns but {len(self.column_names)} names"
            )
        if len(set(self.column_names)) != len(self.column_names):
            raise ContractError("duplicate column names")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("feature matrix contains NaN or infinite values")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.values[:, self.column_names.index(name)]
        except ValueError:
            raise KeyError(f"no such column: {name}") from None

    def select_columns(self, names: Sequence[str]) -> "FeatureMatrix":
        idx = []
        for name in names:
            try:
                idx.append(self.column_names.index(name))
            except ValueError:
                raise KeyError(f"no such column: {name}") from None
        return FeatureMatrix(tuple(names), self.values[:, idx])

    def select_rows(self, rows: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(self.column_names, self.values[rows])


def feature_names(hash_config: HashConfig) -> tuple[str, ...]:
    return (
        hash_column_names(hash_config)
        + INTRINSIC_COLUMNS
        + SOCIAL_COLUMNS
        + REPUTATION_COLUMNS
    )


def assemble_features(
    records: Sequence[AppRecord],
    hash_config: HashConfig,
    table: ReputationTable,
    static_block: Optional[np.ndarray] = None,
) -> FeatureMatrix:
    """Full row layout: [hash | intrinsic | social | reputation].

    Pass a precomputed `static_block` (from `static_feature_block` on the
    same records, in the same order) to skip rehashing; only the two
    reputation columns are recomputed.
    """
    if static_block is None:
        static_block = static_feature_block(records, hash_config)
    expected = hash_config.n_buckets + len(INTRINSIC_COLUMNS) + len(SOCIAL_COLUMNS)
    if static_block.shape != (len(records), expected):
        raise ContractError(
            f"static block shape {static_block.shape} does not match "
            f"{len(records)} records x {expected} columns"
        )
    rep = reputation_block(records, table)
    return FeatureMatrix(feature_names(hash_config), np.hstack([static_block, rep]))


# ---------------------------------------------------------------------------
# Discretization and scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinnedColumn:
    """Integer bin ids for one column plus the edges that produced them."""

    ids: np.ndarray
    edges: np.ndarray
    degenerate: bool

    @property
    def n_bins(self) -> int:
        return int(self.ids.max()) + 1 if len(self.ids) else 0


def bin_column(values: np.ndarray, n_bins: int = 10) -> BinnedColumn:
    """Rank-based (equal-frequency) discretization.

    Duplicate quantile edges collapse, so heavily tied columns produce
    fewer bins; a column with a single distinct value is flagged
    degenerate and maps everything to bin 0.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    values = np.asarray(values, dtype=np.float64)
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.unique(np.quantile(values, qs))
    if len(edges) == 0:
        return BinnedColumn(np.zeros(len(values), dtype=np.int64), edges, True)
    ids = np.searchsorted(edges, values, side="left")
    # Compact ids so every bin in range is non-empty.
    present = np.unique(ids)
    remap = np.zeros(int(present.max()) + 1, dtype=np.int64)
    remap[present] = np.arange(len(present))
    ids = remap[ids]
    return BinnedColumn(ids, edges, len(present) < 2)


def standardize_fit_apply(
    train: np.ndarray, *others: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Center/scale by training statistics; zero-variance columns pass through.

    Returns the transformed train matrix followed by each transformed
    `others` matrix in order.
    """
    train = np.asarray(train, dtype=np.float64)
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    out = [(train - mean) / std]
    for m in others:
        out.append((np.asarray(m, dtype=np.float64) - mean) / std)
    return tuple(out)
