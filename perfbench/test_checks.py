"""Tests of the benchmark's own output checks and of the layer tracer.

    python3 -m pytest perfbench/test_checks.py

Each check must pass the program's genuine output and reject a tampered
copy of it. The grid, robustness and sweep outputs are written here from
plausible values, since the real commands need minutes; the corpus-rank
outputs come from running the CLI on a small corpus.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from metatriage.cli import main as cli_main  # noqa: E402


def write_outputs(out_dir, columns, rows, flags=()):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"rows": rows, "flags": list(flags)}, fh)


def failed_ops(failures):
    return {op for op, _ in failures}


# ---------------------------------------------------------------------------
# grid

GRID_COLUMNS = ["model", "malware_fraction", "threshold", "n_rows", "mean_train_f1",
                "mean_test_f1", "mean_test_precision", "mean_test_recall"]


def grid_rows():
    f1 = {0.02: 0.2, 0.25: 0.6, 0.5: 0.85}
    return [
        {"model": m, "malware_fraction": f, "threshold": t, "n_rows": 300,
         "mean_train_f1": 1.0, "mean_test_f1": f1[f], "mean_test_precision": f1[f],
         "mean_test_recall": f1[f]}
        for m in run.GRID_MODELS for f in run.GRID_FRACTIONS for t in run.GRID_THRESHOLDS
    ]


def check_grid(out_dir):
    return checks.check_grid(out_dir, run.GRID_MODELS, run.GRID_FRACTIONS,
                             run.GRID_THRESHOLDS, run.GRID_SUBSET)


def test_grid_passes_plausible_output(tmp_path):
    write_outputs(tmp_path, GRID_COLUMNS, grid_rows())
    assert check_grid(tmp_path) == []


def test_grid_rejects_dropped_row(tmp_path):
    rows = grid_rows()
    dropped = rows.pop(5)
    write_outputs(tmp_path, GRID_COLUMNS, rows)
    op = ("grid", dropped["model"], dropped["malware_fraction"], dropped["threshold"])
    assert op in failed_ops(check_grid(tmp_path))


def test_grid_rejects_half_malware_cell_below_flag_all(tmp_path):
    rows = grid_rows()
    row = next(r for r in rows if r["malware_fraction"] == 0.5)
    row["mean_test_f1"] = 0.6
    write_outputs(tmp_path, GRID_COLUMNS, rows)
    assert ("grid", row["model"], 0.5, row["threshold"]) in failed_ops(check_grid(tmp_path))


def test_grid_rejects_f1_not_rising(tmp_path):
    rows = grid_rows()
    row = next(r for r in rows if r["malware_fraction"] == 0.02 and r["model"] == "forest")
    row["mean_test_f1"] = 0.9
    write_outputs(tmp_path, GRID_COLUMNS, rows)
    assert ("grid", "forest", 0.5, row["threshold"]) in failed_ops(check_grid(tmp_path))


def test_grid_rejects_failed_flag(tmp_path):
    write_outputs(tmp_path, GRID_COLUMNS, grid_rows(),
                  flags=["cell (0.02, 4-AV) forest failed: degenerate labels"])
    assert check_grid(tmp_path) != []


# ---------------------------------------------------------------------------
# robustness

WINDOW_COLUMNS = ["model", "threshold", "window_start", "window_end", "mean_test_f1"]


def window_rows(f1s):
    return [
        {"model": "forest", "threshold": t, "window_start": s,
         "window_end": s + run.WINDOW_WIDTH - 1, "mean_test_f1": f1}
        for t in run.WINDOW_THRESHOLDS for s, f1 in zip(run.WINDOW_STARTS, f1s)
    ]


def check_robustness(out_dir):
    return checks.check_robustness(out_dir, run.WINDOW_THRESHOLDS, run.WINDOW_STARTS,
                                   run.WINDOW_WIDTH)


def test_robustness_passes_decaying_f1(tmp_path):
    write_outputs(tmp_path, WINDOW_COLUMNS, window_rows([0.9, 0.85, 0.8, 0.7, 0.6, 0.5, 0.45]))
    assert check_robustness(tmp_path) == []


def test_robustness_rejects_last_window_beating_first(tmp_path):
    write_outputs(tmp_path, WINDOW_COLUMNS, window_rows([0.6, 0.85, 0.8, 0.7, 0.6, 0.5, 0.65]))
    assert check_robustness(tmp_path) != []


def test_robustness_rejects_dropped_window(tmp_path):
    write_outputs(tmp_path, WINDOW_COLUMNS, window_rows([0.9, 0.85, 0.8, 0.7, 0.6, 0.5]))
    last = ("window", run.WINDOW_THRESHOLDS[0], run.WINDOW_STARTS[-1])
    assert last in failed_ops(check_robustness(tmp_path))


# ---------------------------------------------------------------------------
# sweep

SWEEP_COLUMNS = ["size", "pooled_auc"]


def sweep_rows(aucs):
    return [{"size": s, "pooled_auc": a} for s, a in zip(run.SWEEP_SIZES, aucs)]


AUCS = [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.88]


def test_sweep_passes_rising_auc(tmp_path):
    write_outputs(tmp_path, SWEEP_COLUMNS, sweep_rows(AUCS))
    assert checks.check_sweep(tmp_path, run.SWEEP_SIZES) == []


def test_sweep_rejects_auc_below_half(tmp_path):
    aucs = list(AUCS)
    aucs[3] = 0.4
    write_outputs(tmp_path, SWEEP_COLUMNS, sweep_rows(aucs))
    assert failed_ops(checks.check_sweep(tmp_path, run.SWEEP_SIZES)) == {("size", 256)}


def test_sweep_rejects_largest_not_beating_smallest(tmp_path):
    aucs = list(AUCS)
    aucs[-1] = 0.55
    write_outputs(tmp_path, SWEEP_COLUMNS, sweep_rows(aucs))
    assert ("size", 2048) in failed_ops(checks.check_sweep(tmp_path, run.SWEEP_SIZES))


# ---------------------------------------------------------------------------
# corpus-rank, on genuine CLI output


@pytest.fixture(scope="module")
def corpus_rank(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus-rank")
    corpus = str(out / "corpus.jsonl")
    assert cli_main(["generate", "--out", corpus, "--n-apps", "3000", "--seed", "5",
                     *run.RECIPE]) == 0
    for _, argv in run._corpus_rank_commands(5, corpus, str(out)):
        assert cli_main(argv) == 0
    return out, checks.read_corpus_json(corpus)


def test_corpus_rank_passes_genuine_output(corpus_rank):
    out, corpus = corpus_rank
    assert run._check_corpus_rank(str(out), str(out / "corpus.jsonl")) == []


def rewrite(path, edit, tmp_path):
    """Copy `path` into tmp_path with edit(lines) applied; return the copy."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    copy = tmp_path / os.path.basename(path)
    copy.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return str(copy)


def test_histogram_rejects_wrong_count(corpus_rank, tmp_path):
    out, corpus = corpus_rank

    def bump(lines):
        detections, apps = lines[1].split(",")
        return [lines[0], f"{detections},{int(apps) + 1}", *lines[2:]]

    assert checks.check_histogram(rewrite(out / "histogram.csv", bump, tmp_path), corpus)


def _featurize(path, corpus):
    return checks.check_featurize(path, corpus, run.RANK_THRESHOLD, run.HASH_BUCKETS)


def test_featurize_rejects_dropped_row(corpus_rank, tmp_path):
    out, corpus = corpus_rank
    path = rewrite(out / "features.csv", lambda lines: lines[:-1], tmp_path)
    assert _featurize(path, corpus)


def test_featurize_rejects_flipped_label(corpus_rank, tmp_path):
    out, corpus = corpus_rank

    def flip(lines):
        head, label = lines[1].rsplit(",", 1)
        return [lines[0], f"{head},{1 - int(float(label))}", *lines[2:]]

    assert _featurize(rewrite(out / "features.csv", flip, tmp_path), corpus)


def test_featurize_rejects_wrong_reputation(corpus_rank, tmp_path):
    out, corpus = corpus_rank

    def shift(lines):
        header = lines[0].split(",")
        j = header.index("issuer_rep")
        cells = lines[1].split(",")
        cells[j] = repr(float(cells[j]) + 1e-3)
        return [lines[0], ",".join(cells), *lines[2:]]

    assert _featurize(rewrite(out / "features.csv", shift, tmp_path), corpus)


def test_featurize_rejects_extra_permission_count(corpus_rank, tmp_path):
    out, corpus = corpus_rank

    def add(lines):
        cells = lines[1].split(",")
        cells[0] = repr(float(cells[0]) + 1.0)
        return [lines[0], ",".join(cells), *lines[2:]]

    assert _featurize(rewrite(out / "features.csv", add, tmp_path), corpus)


def _columns(out):
    with open(out / "features.csv", encoding="utf-8") as fh:
        return fh.readline().rstrip("\n").split(",")[:-1]


def test_ranking_rejects_duplicate_column(corpus_rank, tmp_path):
    out, _ = corpus_rank

    def duplicate(lines):
        rank, _, method, raw, norm = lines[2].split(",")
        first_column = lines[1].split(",")[1]
        return [lines[0], lines[1], ",".join([rank, first_column, method, raw, norm]),
                *lines[3:]]

    path = rewrite(out / "ranking.csv", duplicate, tmp_path)
    assert checks.check_ranking(path, _columns(out))


def test_ranking_rejects_reputation_not_leading_borda(corpus_rank, tmp_path):
    out, _ = corpus_rank

    def demote(lines):
        rows = [line.split(",") for line in lines[1:]]
        borda = [r for r in rows if r[2] == "borda"]
        borda[1][1], borda[2][1] = borda[2][1], borda[1][1]
        return [lines[0], *(",".join(r) for r in rows)]

    path = rewrite(out / "ranking.csv", demote, tmp_path)
    assert checks.check_ranking(path, _columns(out))


# ---------------------------------------------------------------------------
# tracer


def test_tracer_records_layers_and_keeps_output_bytes(corpus_rank, tmp_path):
    out, _ = corpus_rank
    corpus = str(out / "corpus.jsonl")
    trace = tmp_path / "trace.json"
    traced_out = tmp_path / "histogram.csv"
    env = dict(os.environ, PYTHONPATH=run.SRC)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "layertrace.py"), str(trace), "--",
         "histogram", "--corpus", corpus, "--out", str(traced_out)],
        check=True, env=env, timeout=120,
    )
    assert traced_out.read_bytes() == (out / "histogram.csv").read_bytes()
    record = json.loads(trace.read_text())
    assert record["functions"]["cli.main"]["calls"] == 1
    assert record["functions"]["corpus.load_corpus"]["calls"] == 1
    assert record["counters"]["corpus.records_parsed"] == 3000
    names = {span["name"] for span in record["spans"]}
    assert {"cli.main", "corpus.load_corpus", "corpus.detection_histogram"} <= names
    metrics = run.layertrace.layer_metrics(run.layertrace.merge([record]))
    assert metrics["cli.commands"] == 1 and metrics["corpus.load_s"] > 0
