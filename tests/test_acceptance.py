"""Acceptance gate: one test per headline requirement.

Each test prints one line, ACCEPTANCE <name>: PASS|FAIL (detail), so the
run log doubles as a checklist. Oracle criteria run in milliseconds; the
three trend criteria train real models on planted-signal corpora and
dominate the suite's runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from metatriage.bench import grid_benchmark, hash_size_sweep, \
    robustness_windows
from metatriage.cli import main as cli_main
from metatriage.corpus import (
    CompositionRecipe,
    DetectionLabelPolicy,
    LabeledDataset,
    compose_subset,
    label_dataset,
)
from metatriage.evaluate import (
    PipelineConfig,
    classification_metrics,
    prepare_folds,
    roc_and_auc,
)
from metatriage.learn import best_split, logistic_loss_grad
from metatriage.select import (
    score_chi_squared,
    score_gain_ratio,
    score_information_gain,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Metric oracles


def test_metric_oracles():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    worst_metric = 0.0
    worst_auc = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[1 % n] = 0
        predicted = rng.integers(0, 2, n)
        scores = rng.integers(0, int(rng.integers(2, 12)), n).astype(float)

        m = classification_metrics(labels, predicted)
        tp = int(((labels == 1) & (predicted == 1)).sum())
        fp = int(((labels == 0) & (predicted == 1)).sum())
        fn = int(((labels == 1) & (predicted == 0)).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        worst_metric = max(
            worst_metric,
            abs(m.precision - precision),
            abs(m.recall - recall),
            abs(m.f1 - f1),
        )

        # pairwise definition, computed directly
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        pairwise = (wins + 0.5 * ties) / (len(pos) * len(neg))
        worst_auc = max(worst_auc, abs(roc_and_auc(scores, labels).auc - pairwise))
    elapsed = time.monotonic() - t0
    ok = worst_metric <= 1e-12 and worst_auc <= 1e-12 and elapsed < 10.0
    _report(
        "metric-oracles",
        ok,
        f"200 instances, max metric err {worst_metric:.2e}, "
        f"max AUC err {worst_auc:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Selection oracles


def test_selection_oracles():
    def entropy(counts):
        total = sum(counts)
        return -sum(c / total * math.log2(c / total) for c in counts if c)

    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 150))
        binned = rng.integers(0, int(rng.integers(1, 8)), n)
        labels = rng.integers(0, 2, n)

        table = {}
        for b, y in zip(binned.tolist(), labels.tolist()):
            table[(b, y)] = table.get((b, y), 0) + 1
        bins = sorted({b for b, _ in table})
        rows = [[table.get((b, 0), 0), table.get((b, 1), 0)] for b in bins]
        col = [sum(r[j] for r in rows) for j in (0, 1)]

        chi = 0.0
        for r in rows:
            for j in (0, 1):
                expected = sum(r) * col[j] / n
                if expected > 0:
                    chi += (r[j] - expected) ** 2 / expected
        h_y = entropy([c for c in col if c])
        h_cond = sum(sum(r) / n * entropy([v for v in r if v]) for r in rows if sum(r))
        ig = max(h_y - h_cond, 0.0)
        h_x = entropy([sum(r) for r in rows])
        gr = ig / h_x if h_x > 0 else 0.0

        worst = max(
            worst,
            abs(score_chi_squared(binned, labels) - chi),
            abs(score_information_gain(binned, labels) - ig),
            abs(score_gain_ratio(binned, labels) - gr),
        )

    # worked examples: cross table [[40,10],[10,40]] and the 4-row gain case
    chi_binned = np.array([0] * 50 + [1] * 50)
    chi_labels = np.array([0] * 40 + [1] * 10 + [0] * 10 + [1] * 40)
    chi_worked = score_chi_squared(chi_binned, chi_labels)
    ig_worked = score_information_gain(np.array([0, 0, 1, 1]), np.array([1, 1, 1, 0]))
    gr_worked = score_gain_ratio(np.array([0, 0, 1, 1]), np.array([1, 1, 1, 0]))
    worked_ok = (
        chi_worked == 36.0
        and round(ig_worked, 4) == 0.3113
        and round(gr_worked, 4) == 0.3113
    )
    ok = worst <= 1e-9 and worked_ok
    _report(
        "selection-oracles",
        ok,
        f"100 instances, max err {worst:.2e}; worked chi2 {chi_worked}, "
        f"IG {ig_worked:.4f}, GR {gr_worked:.4f}",
    )


# ---------------------------------------------------------------------------
# 3. Logistic gradient


def test_logistic_gradient_finite_differences():
    rng = np.random.default_rng(1003)
    eps = 1e-6
    worst = 0.0
    for _ in range(20):
        n, p = int(rng.integers(5, 40)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 2, n).astype(np.float64)
        w = rng.normal(size=p)
        b = float(rng.normal())
        lam = float(rng.uniform(0, 0.3))

        def loss_at(wv, bv):
            z = X @ wv + bv
            return float(
                np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * lam * wv @ wv
            )

        _, gw, gb = logistic_loss_grad(w, b, X, y, lam)
        fd = np.zeros(p + 1)
        for i in range(p):
            step = np.zeros(p)
            step[i] = eps
            fd[i] = (loss_at(w + step, b) - loss_at(w - step, b)) / (2 * eps)
        fd[p] = (loss_at(w, b + eps) - loss_at(w, b - eps)) / (2 * eps)
        analytic = np.concatenate([gw, [gb]])
        rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8)
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(
        "logistic-gradient", ok, f"20 problems, max relative error {worst:.2e}"
    )


# ---------------------------------------------------------------------------
# 4. Forest split oracle


def test_forest_split_matches_brute_force():
    rng = np.random.default_rng(1004)
    checked = 0
    mismatch = None
    for _ in range(50):
        n = 30
        p = int(rng.integers(1, 6))
        A = rng.integers(0, 7, size=(n, p)).astype(np.float64)
        y = rng.integers(0, 2, n).astype(np.float64)

        best = None
        for j in range(p):
            distinct = sorted(set(A[:, j].tolist()))
            for lo, hi in zip(distinct, distinct[1:]):
                thr = (lo + hi) / 2.0
                left = A[:, j] <= thr
                nl = int(left.sum())
                nr = n - nl
                ml = float(y[left].sum())
                mr = float(y[~left].sum())
                cost = ml * (nl - ml) / nl + mr * (nr - mr) / nr
                if best is None or cost < best[2]:
                    best = (j, thr, cost)

        got = best_split(A, y, np.arange(p), min_leaf=1)
        if best is None:
            same = got is None
        else:
            same = (
                got is not None
                and got[0] == best[0]
                and got[1] == best[1]
                and abs(got[2] - best[2]) <= 1e-12
            )
        if not same and mismatch is None:
            mismatch = (got, best)
        checked += 1
    ok = mismatch is None
    _report(
        "forest-split-oracle",
        ok,
        f"{checked} random 30-row instances, mtry=all"
        + ("" if ok else f", first mismatch {mismatch}"),
    )


# ---------------------------------------------------------------------------
# 5. Label-policy monotonicity


def test_label_monotonicity(small_corpus, permission_corpus):
    violations = 0
    total = 0
    for corpus in (small_corpus, permission_corpus):
        # each record's malware flag under `label_dataset` at each threshold
        mal = {}
        for t in (1, 2, 4):
            dataset = label_dataset(corpus, DetectionLabelPolicy(threshold=t))
            mal[t] = np.isin(corpus.app_ids, dataset.records.app_ids[dataset.labels == 1])
        total += len(corpus)
        # exhaustive per record: flagged at a high bar implies flagged lower
        violations += int((mal[4] & ~mal[2]).sum() + (mal[2] & ~mal[1]).sum())
    ok = violations == 0
    _report(
        "label-monotonicity",
        ok,
        f"{total} records over 2 corpora, thresholds 1<=2<=4, "
        f"{violations} violations",
    )


# ---------------------------------------------------------------------------
# 6. Planted-signal end-to-end grid


def test_planted_grid_trends(default_corpus):
    t0 = time.monotonic()
    report = grid_benchmark(
        default_corpus,
        seed=11,
        top_k=15,
        ranking_method="mdni",
        k=10,
        threads=4,
    )
    elapsed = time.monotonic() - t0

    cell = {
        (r["model"], r["malware_fraction"], r["threshold"]): r
        for r in report.rows
    }
    assert len(cell) == 27, f"expected 27 grid rows, got {len(cell)}"

    rf = cell[("forest", 0.50, 4)]["mean_test_f1"]
    lr = cell[("logistic", 0.50, 4)]["mean_test_f1"]
    cond_a = rf >= 0.85 and rf >= lr

    cond_b = all(
        cell[(m, 0.02, t)]["mean_test_f1"] < cell[(m, 0.50, t)]["mean_test_f1"]
        for m in ("logistic", "linear_svm", "forest")
        for t in (1, 2, 4)
    )

    def gap(m, f, t):
        row = cell[(m, f, t)]
        return row["mean_train_f1"] - row["mean_test_f1"]

    cond_c = all(
        gap(m, 0.02, t) > gap(m, 0.50, t)
        for m in ("logistic", "linear_svm", "forest")
        for t in (1, 2, 4)
    )

    ok = cond_a and cond_b and cond_c and elapsed < 600.0
    _report(
        "planted-grid",
        ok,
        f"RF(50%,4-AV) F1 {rf:.4f} vs LR {lr:.4f}; "
        f"2%<50% {'all 9' if cond_b else 'VIOLATED'}; "
        f"gap ordering {'all 9' if cond_c else 'VIOLATED'}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Hash-sweep trend


def test_hash_sweep_trend(permission_corpus):
    t0 = time.monotonic()
    recipe = CompositionRecipe(
        malware_fraction=0.5,
        policy=DetectionLabelPolicy(threshold=1),
        target_size=3000,
        seed=5,
    )
    dataset = compose_subset(permission_corpus, recipe)
    report = hash_size_sweep(dataset, sizes=(32, 256, 2048), k=5, seed=9, threads=3)
    elapsed = time.monotonic() - t0
    auc = {r["size"]: r["pooled_auc"] for r in report.rows}
    ok = (
        auc[2048] >= auc[32] - 0.02
        and auc[256] >= 0.65
        and elapsed < 180.0
    )
    _report(
        "hash-sweep-trend",
        ok,
        f"AUC 32/256/2048 = {auc[32]:.4f}/{auc[256]:.4f}/{auc[2048]:.4f}, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Robustness trend


def test_robustness_trend(default_corpus):
    report = robustness_windows(
        default_corpus,
        thresholds=(4,),
        subset_size=3000,
        k=5,
        seed=3,
        threads=4,
    )
    rows = [r for r in report.rows if r["threshold"] == 4]
    assert [r["window_start"] for r in rows] == [1, 3, 5, 7, 9, 11, 13]
    f1 = [r["mean_test_f1"] for r in rows]
    breaches = [
        (a, b) for a, b in zip(f1, f1[1:]) if b > a + 0.03
    ]
    ok = not breaches
    _report(
        "robustness-trend",
        ok,
        "windows 1-15..13-27 F1 " + "/".join(f"{v:.3f}" for v in f1)
        + (", non-increasing within +0.03" if ok else f", breaches {breaches}"),
    )


# ---------------------------------------------------------------------------
# 9. CLI determinism


def test_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    assert cli_main([
        "generate", "--out", str(corpus), "--n-apps", "600", "--seed", "3",
    ]) == 0

    def run(tag, threads):
        out = tmp_path / tag
        code = cli_main([
            "sweep-hashes", "--corpus", str(corpus), "--sizes", "8,32",
            "--k", "3", "--subset-size", "300", "--seed", "11",
            "--threads", threads, "--out", str(out),
        ])
        assert code == 0
        return (
            (out / "results.csv").read_bytes(),
            (out / "provenance.json").read_bytes(),
        )

    first = run("run-a", "1")
    second = run("run-b", "1")
    threaded = run("run-c", "8")
    ok = first == second == threaded
    _report(
        "cli-determinism",
        ok,
        "results.csv and provenance.json byte-identical across two runs "
        "and --threads 1 vs 8",
    )


# ---------------------------------------------------------------------------
# 10. Leakage guard


def test_leakage_guard(small_corpus):
    records = small_corpus.take(np.arange(100))
    labels = np.array([1 if r.detection_count >= 1 else 0 for r in records])
    dataset = LabeledDataset(records=records, labels=labels)
    plan = prepare_folds(dataset, k=5, seed=17, config=PipelineConfig())
    fitted = [fold for fold in plan.folds if fold.table is not None]
    assert len(fitted) == 5

    checked_entities = 0
    leaks = 0
    for fold in fitted:
        train_idx = set(fold.train_idx.tolist())
        test_idx = set(fold.test_idx.tolist())
        table = fold.table

        # direct counting oracle over training rows only
        dev_counts: dict = {}
        iss_counts: dict = {}
        for i in train_idx:
            r = records[i]
            d = dev_counts.setdefault(r.developer_id, [0, 0])
            d[0] += int(labels[i])
            d[1] += 1
            s = iss_counts.setdefault(r.issuer_id, [0, 0])
            s[0] += int(labels[i])
            s[1] += 1
        n_mal = sum(int(labels[i]) for i in train_idx)
        prior = (n_mal + 1.0) / (len(train_idx) + 2.0)
        if table.global_prior != prior:
            leaks += 1
        for dev, (m, t) in dev_counts.items():
            checked_entities += 1
            if table.developers[dev] != (m + 1.0) / (t + 2.0):
                leaks += 1
        for iss, (m, t) in iss_counts.items():
            checked_entities += 1
            if table.issuers[iss] != (m + 1.0) / (t + 2.0):
                leaks += 1
        # entities appearing only in held-out rows must be absent
        train_devs = {records[i].developer_id for i in train_idx}
        train_iss = {records[i].issuer_id for i in train_idx}
        for i in test_idx:
            if records[i].developer_id not in train_devs:
                checked_entities += 1
                if records[i].developer_id in table.developers:
                    leaks += 1
            if records[i].issuer_id not in train_iss:
                checked_entities += 1
                if records[i].issuer_id in table.issuers:
                    leaks += 1
        if len(table.developers) != len(dev_counts):
            leaks += 1
        if len(table.issuers) != len(iss_counts):
            leaks += 1
    ok = leaks == 0
    _report(
        "leakage-guard",
        ok,
        f"100-row corpus, 5 folds, {checked_entities} entity checks, "
        f"{leaks} leaks",
    )
