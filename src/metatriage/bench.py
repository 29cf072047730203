"""Benchmark experiments: hash-size sweep, feature-count curve, the
nine-cell composition grid, and ranked-window robustness.

Every experiment consumes raw records, derives all randomness from its
seed, and produces a BenchReport; `emit_report` renders it to
byte-identical files through `reporting`. The four experiments share one
scaffold: `_new_report` pins config, corpus digest and provenance,
`_selection` chooses between a frozen column slice and a per-fold ranking,
`_cross_validate` turns a failed run into a flag message, and `_completed`
runs the cells or points in forked worker processes and merges their
results in task order, so the worker count never changes output bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import reporting
from .corpus import (
    AppRecord,
    CompositionRecipe,
    DetectionLabelPolicy,
    LabeledDataset,
    compose_subset,
    corpus_digest,
)
from .errors import CompositionError, MetatriageError
from .evaluate import (
    EvalReport,
    PipelineConfig,
    SelectionSpec,
    cross_validate,
    roc_and_auc,
)
from .featurize import HashConfig, hash_column_names, static_feature_block
from .learn import ForestParams, Hyperparams, LogisticParams

DEFAULT_SWEEP_SIZES = (32, 64, 128, 256, 512, 1024, 2048)
# Default hyperparameters of the experiments and of `cv`: a 60-tree forest,
# and for the permission-only hash sweep, 300 logistic epochs.
DEFAULT_HYPER = Hyperparams(forest=ForestParams(n_trees=60))
SWEEP_HYPER = Hyperparams(logistic=LogisticParams(epochs=300))


@dataclass(frozen=True)
class BenchmarkGrid:
    """The composition grid: malware share x detection threshold."""

    malware_fractions: tuple[float, ...] = (0.02, 0.25, 0.50)
    thresholds: tuple[int, ...] = (1, 2, 4)
    subset_size: int = 5000
    model_kinds: tuple[str, ...] = ("logistic", "linear_svm", "forest")
    seed: int = 0

    @property
    def n_cells(self) -> int:
        return len(self.malware_fractions) * len(self.thresholds)


@dataclass
class BenchReport:
    experiment: str
    config: dict
    columns: list[str]
    rows: list[dict]
    curves: list[dict] = field(default_factory=list)
    ranking_table: list[dict] = field(default_factory=list)
    reference: list[dict] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "BenchReport":
        return BenchReport(
            experiment=obj["experiment"],
            config=obj["config"],
            columns=list(obj["columns"]),
            rows=list(obj["rows"]),
            curves=list(obj.get("curves", [])),
            ranking_table=list(obj.get("ranking_table", [])),
            reference=list(obj.get("reference", [])),
            flags=list(obj.get("flags", [])),
            provenance=obj.get("provenance", {}),
        )


def _config_digest(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _provenance(experiment: str, config: dict, seed: int, digest: str) -> dict:
    from . import __version__

    return {
        "tool": f"metatriage {__version__}",
        "experiment": experiment,
        "seed": seed,
        "corpus_digest": digest,
        "config_digest": _config_digest(config),
        "config": config,
    }


def _derive_seed(seed: int, *path: int) -> int:
    return int(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *path]).generate_state(1)[0]
    )


def _downsample_curve(points: np.ndarray, cap: int = 512) -> np.ndarray:
    if len(points) <= cap:
        return points
    idx = np.linspace(0, len(points) - 1, cap).round().astype(int)
    return points[np.unique(idx)]


# The (tasks, fn) of the running `_map_ordered`. Forked workers inherit it,
# so only task indices go to them and only results come back; the corpus,
# subsets and static blocks the tasks refer to are shared copy-on-write.
_job: Optional[tuple[Sequence, Callable]] = None


def _run_index(i: int):
    tasks, fn = _job
    return fn(tasks[i])


def _exit_with(parent: int) -> None:
    """Worker initializer: exit once `parent` is gone. An idle worker waits
    on a queue whose write end it shares, so it would not notice otherwise."""

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _map_ordered(tasks: Sequence, fn: Callable, threads: int) -> list:
    """Run fn over tasks, preserving task order in the results.

    With `threads` > 1 and more than one task, up to `threads` forked worker
    processes run the tasks, and every worker has exited when this returns.
    The work is Python and small numpy calls that hold the interpreter lock,
    so threads would not overlap it. `fork`, rather than `spawn`, lets `fn`
    be a closure and keeps the tasks' data unpickled; where the platform
    has no `fork`, the tasks run serially. An exception raised by `fn`
    reaches the caller; a worker that dies raises `MetatriageError`; and
    the workers exit if the caller is killed.
    """
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # Imported here, not at the top: together they add about 20 ms to every
    # CLI start, and only the experiments' pools need them.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(t) for t in tasks]
    global _job
    _job = (tasks, fn)
    try:
        with ProcessPoolExecutor(
            min(threads, len(tasks)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with,
            initargs=(os.getpid(),),
        ) as pool:
            return list(pool.map(_run_index, range(len(tasks))))
    except BrokenProcessPool:
        raise MetatriageError("a worker process exited abruptly") from None
    finally:
        _job = None


# ---------------------------------------------------------------------------
# The shared experiment scaffold
# ---------------------------------------------------------------------------


def _new_report(
    experiment: str,
    config: dict,
    seed: int,
    records: Sequence[AppRecord],
    columns: list[str],
    flags: Sequence[str] = (),
) -> BenchReport:
    """An empty report whose provenance pins the config, seed and corpus."""
    report = BenchReport(
        experiment=experiment,
        config=config,
        columns=columns,
        rows=[],
        flags=list(flags),
        provenance=_provenance(experiment, config, seed, corpus_digest(records)),
    )
    if config.get("frozen_ranking"):
        report.flags.append("frozen-ranking: fixed feature order reused across folds")
    return report


def _selection(
    ranking_method: str, frozen_ranking: Optional[Sequence[str]], **ranks
) -> SelectionSpec:
    """`top_k=k` or `window_start=s, window_width=w` (1-based ranks) of a
    ranking refitted in each training fold, or of `frozen_ranking`."""
    if not frozen_ranking:
        return SelectionSpec(method=ranking_method, **ranks)
    first = ranks.get("window_start", 1) - 1
    width = ranks.get("top_k", ranks.get("window_width"))
    return SelectionSpec(columns=tuple(frozen_ranking[first : first + width]))


def _cross_validate(
    label: str, dataset: LabeledDataset, model_kind: str, **kwargs
) -> tuple[Optional[EvalReport], Optional[str]]:
    """(cross_validate(dataset, model_kind, **kwargs), None), or (None, a
    flag naming `label`) when that run fails."""
    try:
        return cross_validate(dataset, model_kind, **kwargs), None
    except (MetatriageError, ValueError) as exc:
        return None, f"{label} failed: {exc}"


def _completed(
    report: BenchReport, tasks: Sequence, fn: Callable, threads: int
) -> Iterator[tuple]:
    """Yield (task, outcome) in task order for every task that succeeded.

    The tasks run in up to `threads` worker processes (see `_map_ordered`).
    `fn` returns (outcome, error message); each error becomes a report flag,
    in task order with whatever flags the caller adds per outcome.
    """
    for task, (outcome, error) in zip(tasks, _map_ordered(tasks, fn, threads)):
        if error is None:
            yield task, outcome
        else:
            report.flags.append(error)


def _curve(name: str, kind: str, rows: list[dict], x: str, y: str = "mean_test_f1") -> dict:
    return {
        "name": name,
        "kind": kind,
        "x": [float(r[x]) for r in rows],
        "y": [r[y] for r in rows],
    }


# ---------------------------------------------------------------------------
# Experiment 1: hash-size sweep
# ---------------------------------------------------------------------------


def hash_size_sweep(
    dataset: LabeledDataset,
    sizes: Sequence[int] = DEFAULT_SWEEP_SIZES,
    model_kind: str = "logistic",
    k: int = 5,
    seed: int = 0,
    hyper: Hyperparams = SWEEP_HYPER,
    threads: int = 1,
) -> BenchReport:
    """Cross-validated AUC of permission-hash features alone per bucket count.

    Models see ONLY the f* columns, so the curve isolates how much identity
    information survives hashing at each size. ROC points are pooled from
    held-out scores across folds.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    config = {
        "sizes": list(sizes),
        "model_kind": model_kind,
        "k": k,
        "seed": seed,
        "hyper": hyper.to_json(),
    }
    report = _new_report(
        "hash-size-sweep", config, seed, dataset.records,
        ["size", "pooled_auc", "mean_test_auc", "std_test_auc", "mean_test_f1"],
        flags=dataset.flags,
    )

    def run_point(size: int):
        hash_config = HashConfig(n_buckets=size, seed=0)
        pipeline = PipelineConfig(
            hash_config=hash_config,
            selection=SelectionSpec(columns=hash_column_names(hash_config)),
            hyper=hyper,
        )
        ev, error = _cross_validate(
            f"size {size}", dataset, model_kind, k=k, seed=_derive_seed(seed, size),
            config=pipeline,
        )
        if ev is None:
            return None, error
        if ev.pooled_scores is None:
            return (ev, None), None
        return (ev, roc_and_auc(ev.pooled_scores, ev.pooled_labels)), None

    for size, (ev, roc) in _completed(report, list(sizes), run_point, threads):
        report.rows.append(
            {
                "size": size,
                "pooled_auc": None if roc is None else roc.auc,
                "mean_test_auc": ev.mean("test", "auc"),
                "std_test_auc": ev.std("test", "auc"),
                "mean_test_f1": ev.mean("test", "f1"),
            }
        )
        if roc is not None:
            points = _downsample_curve(roc.points)
            report.curves.append(
                {
                    "name": f"ROC {size} buckets",
                    "kind": "roc",
                    "x": [float(p) for p in points[:, 0]],
                    "y": [float(p) for p in points[:, 1]],
                }
            )
        report.flags.extend(f"size {size}: {f}" for f in ev.flags)
    report.curves.append(_curve("pooled AUC", "auc-vs-size", report.rows, "size", "pooled_auc"))
    return report


# ---------------------------------------------------------------------------
# Experiment 2: feature-count curve
# ---------------------------------------------------------------------------


def feature_count_curve(
    dataset: LabeledDataset,
    ks: Sequence[int],
    model_kinds: Sequence[str] = ("logistic", "linear_svm", "forest"),
    ranking_method: str = "mdni",
    k: int = 10,
    seed: int = 0,
    hyper: Hyperparams = DEFAULT_HYPER,
    hash_config: HashConfig = HashConfig(),
    frozen_ranking: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> BenchReport:
    """Cross-validated F1 per model at each top-k feature count.

    By default the ranking is refitted inside each training fold
    (leakage-safe). Passing `frozen_ranking` (an ordered column list)
    reuses that fixed order for every fold and flags the report.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    config = {
        "ks": list(ks),
        "model_kinds": list(model_kinds),
        "ranking_method": ranking_method,
        "k": k,
        "seed": seed,
        "hash_buckets": hash_config.n_buckets,
        "frozen_ranking": list(frozen_ranking) if frozen_ranking else None,
        "hyper": hyper.to_json(),
    }
    report = _new_report(
        "feature-count-curve", config, seed, dataset.records,
        ["model", "top_k", "mean_train_f1", "mean_test_f1", "std_test_f1"],
        flags=dataset.flags,
    )
    static = static_feature_block(dataset.records, hash_config)
    tasks = [(m, top_k) for m in model_kinds for top_k in ks]

    def run_point(task):
        model_kind, top_k = task
        spec = _selection(ranking_method, frozen_ranking, top_k=top_k)
        pipeline = PipelineConfig(hash_config=hash_config, selection=spec, hyper=hyper)
        return _cross_validate(
            f"model {model_kind} top_k {top_k}", dataset, model_kind, k=k,
            seed=_derive_seed(seed, top_k), config=pipeline, static_block=static,
        )

    for (model_kind, top_k), ev in _completed(report, tasks, run_point, threads):
        report.rows.append(
            {
                "model": model_kind,
                "top_k": top_k,
                "mean_train_f1": ev.mean("train", "f1"),
                "mean_test_f1": ev.mean("test", "f1"),
                "std_test_f1": ev.std("test", "f1"),
            }
        )
    for model_kind in model_kinds:
        rows = [r for r in report.rows if r["model"] == model_kind]
        label = reporting.MODEL_LABELS.get(model_kind, model_kind)
        report.curves.append(_curve(label, "f1-vs-k", rows, "top_k"))
    return report


# ---------------------------------------------------------------------------
# Experiment 3: nine-cell grid
# ---------------------------------------------------------------------------


def grid_benchmark(
    corpus: Sequence[AppRecord],
    grid: BenchmarkGrid = BenchmarkGrid(),
    top_k: int = 15,
    ranking_method: str = "mdni",
    k: int = 10,
    hyper: Hyperparams = DEFAULT_HYPER,
    hash_config: HashConfig = HashConfig(),
    frozen_ranking: Optional[Sequence[str]] = None,
    threads: int = 1,
    ambiguous_handling: str = "exclude",
    leaky_reputation: bool = False,
) -> BenchReport:
    """Compose each (fraction, threshold) cell and cross-validate every model.

    Each cell gets its own seeded subset; infeasible cells (a class pool
    too small even after shrinking) are flagged and skipped while the rest
    of the grid proceeds.
    """
    corpus = list(corpus)
    config = {
        "malware_fractions": list(grid.malware_fractions),
        "thresholds": list(grid.thresholds),
        "subset_size": grid.subset_size,
        "model_kinds": list(grid.model_kinds),
        "seed": grid.seed,
        "top_k": top_k,
        "ranking_method": ranking_method,
        "k": k,
        "hash_buckets": hash_config.n_buckets,
        "frozen_ranking": list(frozen_ranking) if frozen_ranking else None,
        "ambiguous_handling": ambiguous_handling,
        "leaky_reputation": leaky_reputation,
        "hyper": hyper.to_json(),
    }
    report = _new_report(
        "benchmark-grid", config, grid.seed, corpus,
        [
            "model", "malware_fraction", "threshold", "n_rows",
            "mean_train_precision", "mean_train_recall", "mean_train_f1",
            "mean_test_precision", "mean_test_recall", "mean_test_f1",
            "std_test_f1",
            "reference_train_f1", "reference_test_f1",
        ],
    )
    if leaky_reputation:
        report.flags.append("leaky-reputation: tables fitted on full subsets")
    pipeline = PipelineConfig(
        hash_config=hash_config,
        selection=_selection(ranking_method, frozen_ranking, top_k=top_k),
        hyper=hyper,
        leaky_reputation=leaky_reputation,
    )
    cells = [
        (ci, fraction, threshold)
        for ci, (fraction, threshold) in enumerate(
            (f, t) for f in grid.malware_fractions for t in grid.thresholds
        )
    ]

    def run_cell(cell):
        ci, fraction, threshold = cell
        where = f"cell ({fraction}, {threshold}-AV)"
        recipe = CompositionRecipe(
            malware_fraction=fraction,
            policy=DetectionLabelPolicy(threshold=threshold, ambiguous_handling=ambiguous_handling),
            target_size=grid.subset_size,
            seed=_derive_seed(grid.seed, ci),
        )
        try:
            subset = compose_subset(corpus, recipe)
        except CompositionError as exc:
            return None, f"{where} infeasible: {exc}"
        static = static_feature_block(subset.records, hash_config)
        cell_rows, cell_flags = [], list(subset.flags)
        for model_kind in grid.model_kinds:
            ev, error = _cross_validate(
                f"{where} {model_kind}", subset, model_kind, k=k,
                seed=_derive_seed(grid.seed, ci, 1), config=pipeline, static_block=static,
            )
            if ev is None:
                cell_flags.append(error)
                continue
            ref = reporting.GRID_REFERENCE.get((model_kind, fraction, threshold), {})
            ref_f1 = ref.get("f1", (None, None))
            cell_rows.append(
                {
                    "model": model_kind,
                    "malware_fraction": fraction,
                    "threshold": threshold,
                    "n_rows": len(subset),
                    "mean_train_precision": ev.mean("train", "precision"),
                    "mean_train_recall": ev.mean("train", "recall"),
                    "mean_train_f1": ev.mean("train", "f1"),
                    "mean_test_precision": ev.mean("test", "precision"),
                    "mean_test_recall": ev.mean("test", "recall"),
                    "mean_test_f1": ev.mean("test", "f1"),
                    "std_test_f1": ev.std("test", "f1"),
                    "reference_train_f1": ref_f1[0],
                    "reference_test_f1": ref_f1[1],
                }
            )
            cell_flags.extend(f"{where} {model_kind}: {f}" for f in ev.flags)
        return (cell_rows, cell_flags), None

    for _, (cell_rows, cell_flags) in _completed(report, cells, run_cell, threads):
        report.rows.extend(cell_rows)
        report.flags.extend(cell_flags)

    # Model-major ordering like the published table: model, fraction, threshold.
    order = {m: i for i, m in enumerate(grid.model_kinds)}
    report.rows.sort(
        key=lambda r: (order[r["model"]], r["malware_fraction"], r["threshold"])
    )
    for model_kind in grid.model_kinds:
        for fraction in grid.malware_fractions:
            for threshold in grid.thresholds:
                ref = reporting.GRID_REFERENCE.get((model_kind, fraction, threshold))
                if ref:
                    report.reference.append(
                        {
                            "model": model_kind,
                            "malware_fraction": fraction,
                            "threshold": threshold,
                            **{
                                metric: {"train": pair[0], "test": pair[1]}
                                for metric, pair in sorted(ref.items())
                            },
                        }
                    )
    for model_kind in grid.model_kinds:
        label = reporting.MODEL_LABELS.get(model_kind, model_kind)
        for threshold in grid.thresholds:
            rows = [
                r
                for r in report.rows
                if r["model"] == model_kind and r["threshold"] == threshold
            ]
            if rows:
                report.curves.append(
                    _curve(f"{label}, {threshold}-AV", "f1-vs-fraction", rows, "malware_fraction")
                )
    return report


# ---------------------------------------------------------------------------
# Experiment 4: ranked-window robustness
# ---------------------------------------------------------------------------


def robustness_windows(
    corpus: Sequence[AppRecord],
    window_width: int = 15,
    step: int = 2,
    n_windows: int = 7,
    model_kind: str = "forest",
    thresholds: Sequence[int] = (1, 2, 4),
    malware_fraction: float = 0.5,
    subset_size: int = 5000,
    k: int = 10,
    seed: int = 0,
    ranking_method: str = "mdni",
    hyper: Hyperparams = DEFAULT_HYPER,
    hash_config: HashConfig = HashConfig(),
    frozen_ranking: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> BenchReport:
    """F1 of sliding rank windows: how fast performance decays without the
    best features.

    Windows start at ranks 1, 1+step, ... (n_windows of them). One subset
    is composed per threshold and reused across that row's windows.
    """
    corpus = list(corpus)
    starts = [1 + step * i for i in range(n_windows)]
    config = {
        "window_width": window_width,
        "step": step,
        "starts": starts,
        "model_kind": model_kind,
        "thresholds": list(thresholds),
        "malware_fraction": malware_fraction,
        "subset_size": subset_size,
        "k": k,
        "seed": seed,
        "ranking_method": ranking_method,
        "hash_buckets": hash_config.n_buckets,
        "frozen_ranking": list(frozen_ranking) if frozen_ranking else None,
        "hyper": hyper.to_json(),
    }
    report = _new_report(
        "robustness-windows", config, seed, corpus,
        [
            "model", "threshold", "window_start", "window_end",
            "mean_train_f1", "mean_test_f1", "std_test_f1",
            "reference_train_f1", "reference_test_f1",
        ],
    )

    tasks = []
    for ti, threshold in enumerate(thresholds):
        recipe = CompositionRecipe(
            malware_fraction=malware_fraction,
            policy=DetectionLabelPolicy(threshold=threshold),
            target_size=subset_size,
            seed=_derive_seed(seed, ti),
        )
        try:
            subset = compose_subset(corpus, recipe)
        except CompositionError as exc:
            report.flags.append(f"threshold {threshold}-AV infeasible: {exc}")
            continue
        report.flags.extend(f"{threshold}-AV: {f}" for f in subset.flags)
        static = static_feature_block(subset.records, hash_config)
        for start in starts:
            tasks.append((threshold, start, subset, static, ti))

    def run_window(task):
        threshold, start, subset, static, ti = task
        spec = _selection(
            ranking_method, frozen_ranking, window_start=start, window_width=window_width
        )
        pipeline = PipelineConfig(hash_config=hash_config, selection=spec, hyper=hyper)
        return _cross_validate(
            f"{threshold}-AV window {start}", subset, model_kind, k=k,
            seed=_derive_seed(seed, ti, 1), config=pipeline, static_block=static,
        )

    for (threshold, start, *_), ev in _completed(report, tasks, run_window, threads):
        ref = reporting.WINDOW_REFERENCE.get((threshold, start), (None, None))
        report.rows.append(
            {
                "model": model_kind,
                "threshold": threshold,
                "window_start": start,
                "window_end": start + window_width - 1,
                "mean_train_f1": ev.mean("train", "f1"),
                "mean_test_f1": ev.mean("test", "f1"),
                "std_test_f1": ev.std("test", "f1"),
                "reference_train_f1": ref[0],
                "reference_test_f1": ref[1],
            }
        )
    report.rows.sort(key=lambda r: (r["threshold"], r["window_start"]))
    for threshold in thresholds:
        for start in starts:
            pair = reporting.WINDOW_REFERENCE.get((threshold, start))
            if pair:
                report.reference.append(
                    {
                        "threshold": threshold,
                        "window_start": start,
                        "f1": {"train": pair[0], "test": pair[1]},
                    }
                )
    for threshold in thresholds:
        rows = [r for r in report.rows if r["threshold"] == threshold]
        if rows:
            report.curves.append(_curve(f"{threshold}-AV", "f1-vs-window", rows, "window_start"))
    return report


def emit_report(
    report: BenchReport,
    out_dir: str,
    formats: Sequence[str] = reporting.FORMATS,
) -> list[str]:
    """Write results.csv, report.md, charts, provenance.json and report.json
    together (see `reporting.write_files`); returns the paths written."""
    return reporting.write_files(out_dir, reporting.report_files(report, formats))
