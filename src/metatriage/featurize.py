"""Feature assembly: permission hashing, intrinsic/social columns, and
entity-reputation encoding, all read from the columns of a `Corpus`.

The row layout is fixed: hash buckets f0..f{H-1}, then 15 intrinsic columns,
then 7 social columns, then developer_rep and issuer_rep. Reputation columns
are the only ones that depend on labels, so the rest, the static block, is
computed once per dataset (`static_feature_block`) and gathered per fold
(`gather_features`).

The static block keeps its hash part sparse, as compressed sparse rows: each
record's nonzero buckets, increasing, with their permission counts. The 22
intrinsic and social columns sit beside it as one dense array. A gathered
`FeatureMatrix` holds its nonzero entries in row-major order and makes its
dense `values` only when they are first read, by forest scoring or the CSV
export; ranking, the forest fits and the linear models read the entries.
`assemble_features`, behind the CLI's whole-corpus matrix, is the gather of
every record, so there is one hashing path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, row_positions
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
# The most permission-hash buckets a layout may have: 32 times the largest
# default of the hash-size sweep.
MAX_HASH_BUCKETS = 2**16


@dataclass(frozen=True)
class HashConfig:
    """Feature-hashing layout: the bucket count."""

    n_buckets: int = 512

    def __post_init__(self):
        if not 1 <= self.n_buckets <= MAX_HASH_BUCKETS:
            raise ValueError(
                f"n_buckets must be between 1 and {MAX_HASH_BUCKETS}, got {self.n_buckets}"
            )


@lru_cache(maxsize=65536)
def _hash64(token: str) -> int:
    """64-bit FNV-1a with an avalanche finalizer.

    The finalizer (splitmix64 style) spreads low-entropy FNV outputs so
    that modulo small bucket counts stays close to uniform.
    """
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK
    h ^= h >> 31
    return h


def hash_column_names(config: HashConfig) -> tuple[str, ...]:
    return tuple(f"f{i}" for i in range(config.n_buckets))


# ---------------------------------------------------------------------------
# Entity reputation
# ---------------------------------------------------------------------------


@dataclass
class ReputationTable:
    """Smoothed malware share per developer and certificate issuer.

    rep(e) = (malware_e + alpha) / (total_e + 2*alpha), with the `alpha` of
    `build_reputation_table`; entities unseen at fit time fall back to the
    smoothed global prior. Built from training rows only; applying it to
    its own fit rows leaks label information, which is why cross-validation
    refits it inside each fold.
    """

    global_prior: float
    developers: dict[str, float] = field(default_factory=dict)
    issuers: dict[str, float] = field(default_factory=dict)


def build_reputation_table(
    records: Corpus,
    labels: np.ndarray,
    alpha: float = 1.0,
) -> ReputationTable:
    """Fit reputation statistics from (records, labels) pairs: per entity,
    a count of its records and of their malware labels."""
    if len(records) != len(labels):
        raise ContractError(
            f"records/labels length mismatch: {len(records)} vs {len(labels)}"
        )
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    labels = np.asarray(labels)
    n = len(records)
    global_prior = (float(labels.sum()) + alpha) / (n + 2.0 * alpha)
    malware = labels == 1

    def rates(codes: np.ndarray) -> dict[str, float]:
        total = np.bincount(codes, minlength=len(records.entities))
        seen = np.flatnonzero(total)
        mal = np.bincount(codes[malware], minlength=len(total))[seen]
        rate = (mal + alpha) / (total[seen] + 2.0 * alpha)
        return dict(zip(records.entities[seen].tolist(), rate.tolist()))

    return ReputationTable(
        global_prior, rates(records.developer_codes), rates(records.issuer_codes)
    )


# ---------------------------------------------------------------------------
# Column blocks
# ---------------------------------------------------------------------------


def _hash_rows(
    records: Corpus, config: HashConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each record's permission counts per bucket as compressed sparse rows
    (indptr, buckets, counts), buckets increasing within a row; colliding
    permissions add up. Each distinct permission is hashed once."""
    bucket = np.fromiter(
        (_hash64(p) % config.n_buckets for p in records.permission_names.tolist()),
        np.int64, len(records.permission_names),
    )
    # One key per (record, bucket) pair, ordered as the row-major layout.
    key = np.repeat(np.arange(len(records), dtype=np.int64), np.diff(records.permission_indptr))
    key *= config.n_buckets
    key += bucket[records.permission_codes]
    key, counts = np.unique(key, return_counts=True)
    rows, buckets = np.divmod(key, config.n_buckets)
    indptr = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(records)), out=indptr[1:])
    return indptr, buckets, counts.astype(np.float64)


@dataclass(frozen=True)
class StaticBlock:
    """The label-free columns of n records: `static_feature_block`'s result.

    The hash part is compressed sparse rows: record i's nonzero buckets are
    `buckets[indptr[i]:indptr[i + 1]]`, increasing, and `counts` holds their
    permission counts at the same positions. `dense` holds the intrinsic and
    social columns, one row per record.
    """

    n_buckets: int
    indptr: np.ndarray
    buckets: np.ndarray
    counts: np.ndarray
    dense: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.dense), self.n_buckets + self.dense.shape[1]


def static_feature_block(records: Corpus, hash_config: HashConfig) -> StaticBlock:
    """Label-free columns: hash buckets + intrinsic + social.

    Safe to compute once per dataset and gather per fold.
    """
    dense = np.zeros((len(records), len(INTRINSIC_COLUMNS) + len(SOCIAL_COLUMNS)))
    _fill_dense(dense, records)
    return StaticBlock(hash_config.n_buckets, *_hash_rows(records, hash_config), dense)


def _fill_dense(out: np.ndarray, records: Corpus):
    """Write the intrinsic and social columns into the zeroed `out`, one
    row per record."""
    column = dict(zip(INTRINSIC_COLUMNS + SOCIAL_COLUMNS, out.T))  # views into `out`
    # The record's ten counts of the same names, then its five star votes.
    for name, counts in zip(INTRINSIC_COLUMNS[:10] + SOCIAL_COLUMNS[:5], records.counts):
        column[name][:] = counts
    names = records.package_names.tolist()
    column["num_permissions"][:] = np.diff(records.permission_indptr)
    column["self_signed"][:] = records.issuer_codes == records.developer_codes
    column["package_name_length"][:] = list(map(len, names))
    column["package_depth"][:] = [name.count(".") for name in names]
    column["update_rate"][:] = column["version_code"] / (column["age_in_market_days"] + 1.0)
    votes = [column[name] for name in SOCIAL_COLUMNS[:5]]
    total, mean = column["total_votes"], column["mean_star"]
    total[:] = sum(votes)
    stars = sum(i * star for i, star in enumerate(votes, start=1))
    np.divide(stars, total, out=mean, where=total > 0)
    # Below 2**53 every float sum is an exact integer, so the mean is the
    # record's `mean_star` to the bit; past it, take the integer sums.
    if len(records) and stars.max() >= 2.0**53:
        total[:] = [r.total_votes for r in records]
        mean[:] = [r.mean_star for r in records]


def reputation_block(records: Corpus, table: ReputationTable) -> np.ndarray:
    """developer_rep and issuer_rep columns from a fitted table: each
    entity's rate, gathered by the records' codes."""
    out = np.empty((len(records), 2), dtype=np.float64)
    entities = records.entities.tolist()
    for j, (rates, codes) in enumerate(
        ((table.developers, records.developer_codes), (table.issuers, records.issuer_codes))
    ):
        rate = np.array([rates.get(e, table.global_prior) for e in entities], dtype=np.float64)
        out[:, j] = rate[codes]
    return out


class FeatureMatrix:
    """A named, validated float matrix; the unit every model consumes.

    It is made from a dense array, or by `from_entries` from its nonzero
    entries in row-major order. Either form is derived from the other when
    first read, then kept: `values` for the forest, ranking and the CSV
    export, `entries` for the linear models. Neither may be written to.
    """

    def __init__(self, column_names: Sequence[str], values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ContractError(f"feature matrix must be 2-D, got {values.ndim}-D")
        self._values, self._entries = values, None
        self._validate(column_names, values.shape, values)

    @classmethod
    def from_entries(
        cls, column_names: Sequence[str], n_rows: int,
        rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
    ) -> "FeatureMatrix":
        """The n_rows x len(column_names) matrix that is `vals[i]` at
        (`rows[i]`, `cols[i]`) and 0 elsewhere. The entries must be the
        matrix's nonzeros, each once, in row-major order."""
        matrix = cls.__new__(cls)
        vals = np.asarray(vals, dtype=np.float64)
        matrix._values, matrix._entries = None, (rows, cols, vals)
        matrix._validate(column_names, (n_rows, len(column_names)), vals)
        return matrix

    def _validate(self, column_names: Sequence[str], shape: tuple[int, int], values: np.ndarray):
        """Set the names and shape, after checking them and that `values`,
        the matrix's values or its nonzeros, are finite."""
        self.column_names = tuple(column_names)
        self.n_rows, self.n_columns = shape
        if self.n_columns != len(self.column_names):
            raise ContractError(f"{self.n_columns} columns but {len(self.column_names)} names")
        if len(set(self.column_names)) != len(self.column_names):
            raise ContractError("duplicate column names")
        if not np.all(np.isfinite(values)):
            raise ContractError("feature matrix contains NaN or infinite values")

    @property
    def holds_values(self) -> bool:
        """Whether the dense `values` are at hand, given or already derived."""
        return self._values is not None

    @property
    def values(self) -> np.ndarray:
        """The dense n_rows x n_columns array."""
        if self._values is None:
            rows, cols, vals = self._entries
            self._values = np.zeros((self.n_rows, self.n_columns))
            self._values[rows, cols] = vals
        return self._values

    @property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of every nonzero entry, in row-major order."""
        if self._entries is None:
            # flatnonzero of a mask is about ten times faster than np.nonzero.
            flat = np.flatnonzero(self._values != 0.0)
            rows, cols = np.divmod(flat, max(self.n_columns, 1))
            self._entries = (rows, cols, self._values[rows, cols])
        return self._entries


@lru_cache(maxsize=32)
def feature_names(hash_config: HashConfig) -> tuple[str, ...]:
    return (
        hash_column_names(hash_config)
        + INTRINSIC_COLUMNS
        + SOCIAL_COLUMNS
        + REPUTATION_COLUMNS
    )


@lru_cache(maxsize=32)
def _column_positions(hash_config: HashConfig) -> dict[str, int]:
    """Each `feature_names(hash_config)` name's position; shared, so read only."""
    return {name: j for j, name in enumerate(feature_names(hash_config))}


def assemble_features(
    records: Corpus, hash_config: HashConfig, table: ReputationTable
) -> FeatureMatrix:
    """Full row layout: [hash | intrinsic | social | reputation], as the
    nonzero entries that `gather_features` gives for every record."""
    return gather_features(
        records, hash_config, table, static_feature_block(records, hash_config),
        np.arange(len(records)), feature_names(hash_config),
    )


def gather_features(
    records: Corpus,
    hash_config: HashConfig,
    table: ReputationTable,
    static_block: StaticBlock,
    rows: np.ndarray,
    columns: Sequence[str],
) -> FeatureMatrix:
    """The matrix of `records[rows]` over `columns`, in their order, as its
    nonzero entries. Hash columns come from `static_block`'s (of all
    `records`) sparse rows, the others from one gather of its dense columns
    and of `table`'s reputation columns, which are computed only when asked
    for. Names are those of `feature_names(hash_config)`; an unknown one
    raises KeyError."""
    position = _column_positions(hash_config)
    try:
        idx = np.array([position[name] for name in columns], dtype=np.intp)
    except KeyError as exc:
        raise KeyError(f"no such column: {exc.args[0]}") from None
    rows = np.asarray(rows, dtype=np.intp)
    h, p = hash_config.n_buckets, max(len(idx), 1)
    # Hash columns: the entries of the rows' sparse rows whose bucket is asked for.
    hashed = idx < h
    out_column = np.full(h, -1, dtype=np.intp)
    out_column[idx[hashed]] = np.flatnonzero(hashed)
    at, sizes = row_positions(static_block.indptr, rows)
    cols = out_column[static_block.buckets[at]]
    keep = cols >= 0
    key = [np.repeat(np.arange(len(rows)) * p, sizes)[keep] + cols[keep]]
    vals = [static_block.counts[at[keep]]]
    # The other columns: one dense gather, then its nonzeros.
    other = np.flatnonzero(~hashed)
    if len(other):
        static = idx[other] - h
        n_static = static_block.dense.shape[1]
        # Reputation columns gather the last static column, then are overwritten.
        part = static_block.dense.take(rows, axis=0).take(np.minimum(static, n_static - 1), axis=1)
        reputation = static >= n_static
        if reputation.any():
            block = reputation_block(records, table)[rows]
            part[:, reputation] = block[:, static[reputation] - n_static]
        at_row, at_col = np.divmod(np.flatnonzero(part != 0.0), len(other))
        key.append(at_row * p + other[at_col])
        vals.append(part[at_row, at_col])
    key, vals = np.concatenate(key), np.concatenate(vals)
    order = np.argsort(key, kind="stable")  # merges the two row-major parts
    entry_rows, entry_cols = np.divmod(key[order], p)
    return FeatureMatrix.from_entries(columns, len(rows), entry_rows, entry_cols, vals[order])


# ---------------------------------------------------------------------------
# Discretization and scaling
# ---------------------------------------------------------------------------


def rank_bins(
    distinct: np.ndarray, counts: np.ndarray, n_bins: int = 10,
    offsets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rank-based (equal-frequency) discretization of one column, given as
    its distinct values in increasing order and how often each occurs: the
    bin id of each distinct value. With `offsets`, `distinct` and `counts`
    hold several columns of as many rows end to end, column j at
    offsets[j]:offsets[j + 1], and each column's ids start at 0.

    The bin edges are the column's quantiles at 1/n_bins, 2/n_bins, ...,
    interpolated between order statistics exactly as `np.quantile` does by
    default. A value's bin is the number of edges below it. Duplicate edges
    collapse and the ids are compacted, so heavily tied columns produce
    fewer bins, and a column with a single distinct value maps everything
    to bin 0.

    A value's bin is one past the bin of the value below it exactly when an
    edge lies in [the value below, the value). So the cost is in the
    distinct values, not in `n_bins`: an edge between two order statistics
    of one value is that value, and of the edges interpolated between two
    adjacent values, which are nondecreasing, only the first and the last
    are computed.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    if len(distinct) == 0:  # no columns
        return np.zeros(0, dtype=np.int64)
    if offsets is None:
        offsets = np.array([0, len(distinct)])
    width = np.diff(offsets)
    ends = np.cumsum(counts)  # value a is the order statistics ends[a - 1]..ends[a] - 1
    ends -= np.repeat(ends[offsets[:-1]] - counts[offsets[:-1]], width)
    at = _quantile_positions(int(ends[offsets[1] - 1]) - 1, n_bins)
    # Edges k0[a]..k1[a] - 1 interpolate between values a and a + 1; those
    # from k1[a - 1] to k0[a] lie between two order statistics of value a.
    last = ends[:-1] - 1
    k0, k1 = np.searchsorted(at, last), np.searchsorted(at, ends[:-1])
    apart = offsets[1:-1] - 1  # the last value of a column and the next column's first
    k1[apart] = 0
    lo, hi = distinct[:-1], distinct[1:]
    crossed = k0 < k1
    first, final = (_lerp(lo, hi, at[np.minimum(k, len(at) - 1)] - last) for k in (k0, k1 - 1))
    step = k0 > np.concatenate(([0], k1[:-1]))  # an edge at value a itself
    step |= crossed & (lo <= first) & (first < hi)
    step[1:] |= (crossed & (final == hi))[:-1]  # an edge at value a + 1 itself
    step[apart] = False
    ids = np.concatenate(([0], np.cumsum(step)))
    return ids - np.repeat(ids[offsets[:-1]], width)


@lru_cache(maxsize=8)
def _quantile_positions(last: int, n_bins: int) -> np.ndarray:
    """Where `np.quantile` takes the quantiles at 1/n_bins, 2/n_bins, ...
    among the order statistics 0..last: a shared, read-only array."""
    at = last * np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    at.flags.writeable = False
    return at


def _lerp(lo: np.ndarray, hi: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`np.quantile`'s linear interpolation, which works from the upper end
    for t >= 0.5."""
    return np.where(t >= 0.5, hi - (hi - lo) * (1 - t), lo + (hi - lo) * t)


def bin_column(values: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """Rank-based (equal-frequency) discretization of one column: each
    value's `rank_bins` id."""
    values = np.asarray(values, dtype=np.float64)
    distinct, codes, counts = np.unique(values, return_inverse=True, return_counts=True)
    return rank_bins(distinct, counts, n_bins)[codes]


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
