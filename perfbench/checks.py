"""Output checks for the benchmark workloads.

Every check is either computed apart from the program (the corpus-rank
checks re-derive counts, labels and reputation rates from the corpus JSON
with the `json` module) or rests on a property the method must have (the
planted signals of the synthetic corpus). None compares against a stored
copy of an earlier output, so a change that legitimately alters output bytes
still passes.

Each check function returns a list of `(operation, message)` pairs, one per
failure; an empty list means the outputs passed. An operation is one result
row (grid cell x model, sweep point, rank window) or one command.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter

import numpy as np

ALL_F1 = 2.0 / 3.0  # F1 of flagging every app in a 50% malware subset
RANK_METHODS = ("borda", "chi_squared", "gain_ratio", "info_gain", "mdni")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _report_flags(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)["flags"]


def _number(row, key):
    value = row.get(key)
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _flag_failures(out_dir):
    """Failed or infeasible points are flagged in report.json; their rows are
    missing too, which fails the operation itself."""
    return [
        (("report",), f"report flag: {flag}")
        for flag in _report_flags(out_dir)
        if "failed" in flag or "infeasible" in flag
    ]


# ---------------------------------------------------------------------------
# grid


def grid_ops(models, fractions, thresholds):
    return [("grid", m, f, t) for m in models for f in fractions for t in thresholds]


def check_grid(out_dir, models, fractions, thresholds, subset_size):
    ops = grid_ops(models, fractions, thresholds)
    failures = _flag_failures(out_dir)
    cells = {}
    for row in read_csv(os.path.join(out_dir, "results.csv")):
        key = ("grid", row["model"], float(row["malware_fraction"]), int(row["threshold"]))
        if key in cells:
            failures.append((key, "duplicate result row"))
        cells[key] = row
    for op in ops:
        if op not in cells:
            failures.append((op, "missing result row"))
            continue
        row = cells[op]
        if not 0 < int(row["n_rows"]) <= subset_size:
            failures.append((op, f"n_rows {row['n_rows']} outside (0, {subset_size}]"))
        for col in ("mean_train_f1", "mean_test_f1", "mean_test_precision", "mean_test_recall"):
            if not 0.0 <= _number(row, col) <= 1.0:
                failures.append((op, f"{col} {row[col]} outside [0, 1]"))
    for m in models:
        for t in thresholds:
            hi, lo = ("grid", m, 0.5, t), ("grid", m, 0.02, t)
            if hi not in cells or lo not in cells:
                continue
            f1_hi = _number(cells[hi], "mean_test_f1")
            if not f1_hi > ALL_F1:
                failures.append((hi, f"50% test F1 {f1_hi:.4f} does not beat flag-all {ALL_F1:.4f}"))
            f1_lo = _number(cells[lo], "mean_test_f1")
            if not f1_lo < f1_hi:
                failures.append((hi, f"test F1 does not rise from 2% ({f1_lo:.4f}) to 50% ({f1_hi:.4f})"))
    return failures


# ---------------------------------------------------------------------------
# robustness


def robustness_ops(thresholds, starts):
    return [("window", t, s) for t in thresholds for s in starts]


def check_robustness(out_dir, thresholds, starts, width):
    ops = robustness_ops(thresholds, starts)
    failures = _flag_failures(out_dir)
    rows = {}
    for row in read_csv(os.path.join(out_dir, "results.csv")):
        rows[("window", int(row["threshold"]), int(row["window_start"]))] = row
    for op in ops:
        if op not in rows:
            failures.append((op, "missing result row"))
            continue
        row = rows[op]
        if int(row["window_end"]) != op[2] + width - 1:
            failures.append((op, f"window_end {row['window_end']} != start + width - 1"))
        if not 0.0 <= _number(row, "mean_test_f1") <= 1.0:
            failures.append((op, f"mean_test_f1 {row['mean_test_f1']} outside [0, 1]"))
    for t in thresholds:
        first, last = ("window", t, starts[0]), ("window", t, starts[-1])
        if first in rows and last in rows:
            f1_first = _number(rows[first], "mean_test_f1")
            f1_last = _number(rows[last], "mean_test_f1")
            if not f1_first > f1_last:
                failures.append(
                    (first, f"first window F1 {f1_first:.4f} does not exceed last {f1_last:.4f}")
                )
    return failures


# ---------------------------------------------------------------------------
# sweep


def sweep_ops(sizes):
    return [("size", s) for s in sizes]


def check_sweep(out_dir, sizes):
    ops = sweep_ops(sizes)
    failures = _flag_failures(out_dir)
    rows = {("size", int(r["size"])): r for r in read_csv(os.path.join(out_dir, "results.csv"))}
    for op in ops:
        if op not in rows:
            failures.append((op, "missing result row"))
            continue
        auc = _number(rows[op], "pooled_auc")
        if not 0.5 < auc <= 1.0:
            failures.append((op, f"pooled AUC {rows[op]['pooled_auc']} outside (0.5, 1]"))
    small, large = ("size", min(sizes)), ("size", max(sizes))
    if small in rows and large in rows:
        auc_small = _number(rows[small], "pooled_auc")
        auc_large = _number(rows[large], "pooled_auc")
        if not auc_large > auc_small:
            failures.append(
                (large, f"AUC at {large[1]} buckets ({auc_large:.4f}) does not beat "
                        f"{small[1]} buckets ({auc_small:.4f})")
            )
    return failures


# ---------------------------------------------------------------------------
# corpus-rank


def read_corpus_json(path):
    """The corpus as plain dicts, read with the json module alone."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_histogram(path, corpus):
    op = ("command", "histogram")
    expected = Counter(r["detection_count"] for r in corpus if r["detection_count"] >= 1)
    got = {}
    for row in read_csv(path):
        got[int(row["detections"])] = int(row["apps"])
    if got != dict(expected):
        wrong = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
        return [(op, f"histogram counts differ at detections {wrong[:5]}")]
    return []


def check_featurize(path, corpus, threshold, hash_buckets):
    """Rows, labels, per-row permission counts and reputation rates."""
    op = ("command", "featurize")
    kept = [r for r in corpus if r["detection_count"] == 0 or r["detection_count"] >= threshold]
    labels = [1 if r["detection_count"] >= threshold else 0 for r in kept]
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    if header[:hash_buckets] != [f"f{i}" for i in range(hash_buckets)] or header[-1] != "label":
        return [(op, "header does not start with the hash columns and end with label")]
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if values.shape != (len(kept), len(header)):
        return [(op, f"export has shape {values.shape}, expected {(len(kept), len(header))} "
                     "admissible rows x header columns")]
    failures = []
    if not np.array_equal(values[:, -1], np.array(labels, dtype=float)):
        failures.append((op, "label column differs from the detection threshold"))
    n_perms = np.array([len(r["permissions"]) for r in kept], dtype=float)
    bad = np.flatnonzero(values[:, :hash_buckets].sum(axis=1) != n_perms)
    if len(bad):
        failures.append((op, f"{len(bad)} rows whose f* sum differs from their permission count"))
    for column, key in (("developer_rep", "developer_id"), ("issuer_rep", "issuer_id")):
        total, malware = Counter(), Counter()
        for r, y in zip(kept, labels):
            total[r[key]] += 1
            malware[r[key]] += y
        expected = np.array([(malware[r[key]] + 1) / (total[r[key]] + 2) for r in kept])
        got = values[:, header.index(column)]
        if not np.allclose(got, expected, rtol=1e-12, atol=0.0):
            failures.append((op, f"{column} differs from (malware+1)/(total+2)"))
    return failures


def check_ranking(path, columns):
    """Every column ranked exactly once per method; reputation leads borda."""
    op = ("command", "rank")
    by_method = {}
    for row in read_csv(path):
        by_method.setdefault(row["method"], []).append(row)
    failures = []
    if sorted(by_method) != sorted(RANK_METHODS):
        failures.append((op, f"methods {sorted(by_method)} != {sorted(RANK_METHODS)}"))
    for method, rows in sorted(by_method.items()):
        ranks = sorted(int(r["rank"]) for r in rows)
        if sorted(r["column"] for r in rows) != sorted(columns) or ranks != list(
            range(1, len(columns) + 1)
        ):
            failures.append((op, f"{method} does not rank every column exactly once"))
    borda = sorted(by_method.get("borda", []), key=lambda r: int(r["rank"]))
    if {r["column"] for r in borda[:2]} != {"developer_rep", "issuer_rep"}:
        failures.append(
            (op, f"borda top-2 is {[r['column'] for r in borda[:2]]}, not the reputation columns")
        )
    return failures
