"""Benchmark experiments: hash-size sweep, feature-count curve, the
nine-cell composition grid, and ranked-window robustness.

Every experiment consumes a `Corpus` or a labeled dataset, derives all
randomness from its seed, and produces a BenchReport; `emit_report`
renders it to byte-identical files through `reporting`. The four
experiments share one scaffold: `_new_report` pins the columns, config,
corpus digest and provenance, `_prepare` builds one fold plan per
dataset and seed, `_evaluate` runs each model kind or rank window on it
and turns a failed run into a flag message, and `_completed` runs the
cells or points in forked worker processes and merges their results in
task order, so the worker count never changes output bytes. The three
that train on rank windows call `check_windows` first, so a window past
the column order fails before any work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import reporting
from .corpus import (
    CompositionRecipe,
    Corpus,
    DetectionLabelPolicy,
    LabeledDataset,
    compose_subset,
    corpus_digest,
)
from .errors import CompositionError, MetatriageError, ParseError
from .evaluate import (
    EvalReport,
    FoldPlan,
    PipelineConfig,
    check_windows,
    evaluate,
    prepare_folds,
    roc_and_auc,
)
from .featurize import HashConfig, hash_column_names
from .learn import MODEL_KINDS, ForestParams, Hyperparams

DEFAULT_SWEEP_SIZES = (32, 64, 128, 256, 512, 1024, 2048)
DEFAULT_KS = (1, 2, 3, 5, 7, 10, 15, 20, 27, 40)
# Default hyperparameters of the experiments and of `cv`: a 60-tree forest.
DEFAULT_HYPER = Hyperparams(forest=ForestParams(n_trees=60))

# Each experiment's result columns, in order.
COLUMNS = {
    "hash-size-sweep": ("size", "pooled_auc", "mean_test_auc", "std_test_auc", "mean_test_f1"),
    "feature-count-curve": ("model", "top_k", "mean_train_f1", "mean_test_f1", "std_test_f1"),
    "benchmark-grid": (
        "model", "malware_fraction", "threshold", "n_rows",
        "mean_train_precision", "mean_train_recall", "mean_train_f1",
        "mean_test_precision", "mean_test_recall", "mean_test_f1",
        "std_test_f1",
        "reference_train_f1", "reference_test_f1",
    ),
    "robustness-windows": (
        "model", "threshold", "window_start", "window_end",
        "mean_train_f1", "mean_test_f1", "std_test_f1",
        "reference_train_f1", "reference_test_f1",
    ),
}
# The columns that hold null where a point has no pooled ROC or no
# published figure. `model` holds a string, every other column a number.
_NULLABLE = ("pooled_auc", "reference_train_f1", "reference_test_f1")


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
        """The report `obj` holds; a missing required key or a value of the
        wrong type, down to the items of a list, raises ParseError. So does
        content that no experiment writes (see `_check_content`)."""
        if not isinstance(obj, dict):
            raise ParseError("a report must be a JSON object")
        missing = [k for k in ("experiment", "config", "columns", "rows") if k not in obj]
        if missing:
            raise ParseError(f"report is missing key(s): {', '.join(missing)}")
        kwargs = {}
        for name, kind in get_type_hints(BenchReport).items():
            if name not in obj:
                continue
            value, item = obj[name], get_args(kind)
            if not isinstance(value, get_origin(kind) or kind) or (
                item and not all(isinstance(v, item[0]) for v in value)
            ):
                what = kind if item else kind.__name__
                raise ParseError(f"report key {name!r} must be a {what}, got {value!r:.60}")
            kwargs[name] = value
        report = BenchReport(**kwargs)
        _check_content(report)
        return report


def _number(value) -> bool:
    """Whether `value` is a JSON number, not a bool, that a float holds."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _check_content(report: BenchReport) -> None:
    """Raise ParseError unless `report` is laid out as its experiment writes
    it: one of the four experiments, its `COLUMNS`, each row holding every
    column, curves with a name, a kind, finite x values (positive on a
    log2 axis) and y values that are numbers or null, and string digests."""
    columns = COLUMNS.get(report.experiment)
    if columns is None:
        raise ParseError(
            f"unknown experiment {report.experiment!r:.60}; expected one of {', '.join(COLUMNS)}"
        )
    if report.columns != list(columns):
        raise ParseError(f"a {report.experiment} report has the columns {', '.join(columns)}")
    for i, row in enumerate(report.rows):
        for name in columns:
            value = row.get(name, ...)
            if not (
                isinstance(value, str) if name == "model"
                else _number(value) or value is None and name in _NULLABLE
            ):
                raise ParseError(f"report row {i} lacks a valid {name!r}")
    log_x = {spec[0] for spec in reporting.CHART_SPECS[report.experiment] if spec[-1]}
    for i, curve in enumerate(report.curves):
        x, y = curve.get("x"), curve.get("y")
        if not (
            isinstance(curve.get("name"), str) and isinstance(curve.get("kind"), str)
            and isinstance(x, list) and isinstance(y, list)
            and all(_number(v) and math.isfinite(v) and (v > 0 or curve["kind"] not in log_x)
                    for v in x)
            and all(v is None or _number(v) for v in y)
        ):
            raise ParseError(f"report curve {i} must hold a name, a kind, finite x values "
                             "(positive on a log2 axis) and y values that are numbers or null")
    for key in ("config_digest", "corpus_digest"):
        if not isinstance(report.provenance.get(key, ""), str):
            raise ParseError(f"report provenance {key!r} must be a string")


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
# subsets and fold plans the tasks refer to are shared copy-on-write.
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
    experiment: str, config: dict, seed: int, corpus: Corpus, flags: Sequence[str] = ()
) -> BenchReport:
    """An empty report with the experiment's columns, whose provenance pins
    the config, seed and corpus."""
    report = BenchReport(
        experiment=experiment,
        config=config,
        columns=list(COLUMNS[experiment]),
        rows=[],
        flags=list(flags),
        provenance=_provenance(experiment, config, seed, corpus_digest(corpus)),
    )
    if config.get("frozen_ranking"):
        report.flags.append("frozen-ranking: fixed feature order reused across folds")
    return report


def _prepare(
    dataset: LabeledDataset, k: int, seed: int, config: PipelineConfig
) -> Union[FoldPlan, MetatriageError, ValueError]:
    """prepare_folds(dataset, k, seed, config), or the error it raised."""
    try:
        return prepare_folds(dataset, k, seed, config)
    except (MetatriageError, ValueError) as exc:
        return exc


def _evaluate(
    label: str, plan: Union[FoldPlan, Exception], model_kind: str,
    window: Optional[tuple[int, int]] = None,
) -> tuple[Optional[EvalReport], Optional[str]]:
    """(evaluate(plan, model_kind, window), None), or (None, a flag naming
    `label`) when that run or the preparation of `plan` failed; a failed
    preparation is flagged for every run that shares it."""
    if isinstance(plan, Exception):
        return None, f"{label} failed: {plan}"
    try:
        return evaluate(plan, model_kind, window), None
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
    hyper: Hyperparams = DEFAULT_HYPER,
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
    report = _new_report("hash-size-sweep", config, seed, dataset.records, dataset.flags)

    def run_point(size: int):
        hash_config = HashConfig(n_buckets=size, seed=0)
        pipeline = PipelineConfig(
            hash_config=hash_config, frozen_ranking=hash_column_names(hash_config), hyper=hyper
        )
        plan = _prepare(dataset, k, _derive_seed(seed, size), pipeline)
        ev, error = _evaluate(f"size {size}", plan, model_kind)
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
        report.flags.extend(f"size {size}: {f}" for f in ev.fold_flags())
    report.curves.append(_curve("pooled AUC", "auc-vs-size", report.rows, "size", "pooled_auc"))
    return report


# ---------------------------------------------------------------------------
# Experiment 2: feature-count curve
# ---------------------------------------------------------------------------


def feature_count_curve(
    dataset: LabeledDataset,
    ks: Sequence[int] = DEFAULT_KS,
    model_kinds: Sequence[str] = MODEL_KINDS,
    ranking_method: str = "mdni",
    k: int = 10,
    seed: int = 0,
    hyper: Hyperparams = DEFAULT_HYPER,
    frozen_ranking: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> BenchReport:
    """Cross-validated F1 per model at each top-k feature count.

    By default the ranking is refitted inside each training fold
    (leakage-safe). Passing `frozen_ranking` (an ordered column list)
    reuses that fixed order for every fold and flags the report. A top-k
    past the end of the order raises ValueError before any work.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    # One plan orders each training fold's columns once; every (model,
    # top-k) run then takes its top-k of that order.
    frozen = tuple(frozen_ranking) if frozen_ranking else None
    pipeline = PipelineConfig(ranking_method=ranking_method, frozen_ranking=frozen, hyper=hyper)
    check_windows(pipeline, [(1, top_k) for top_k in ks])
    config = {
        "ks": list(ks),
        "model_kinds": list(model_kinds),
        "ranking_method": ranking_method,
        "k": k,
        "seed": seed,
        "hash_buckets": HashConfig().n_buckets,
        "frozen_ranking": list(frozen) if frozen else None,
        "hyper": hyper.to_json(),
    }
    report = _new_report("feature-count-curve", config, seed, dataset.records, dataset.flags)

    plan = _prepare(dataset, k, seed, pipeline)
    tasks = [(model_kind, top_k) for model_kind in model_kinds for top_k in ks]

    def run(task):
        model_kind, top_k = task
        return _evaluate(f"model {model_kind} top_k {top_k}", plan, model_kind, (1, top_k))

    for (model_kind, top_k), ev in _completed(report, tasks, run, threads):
        report.flags.extend(f"model {model_kind} top_k {top_k}: {f}" for f in ev.fold_flags())
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
    corpus: Corpus,
    malware_fractions: Sequence[float] = (0.02, 0.25, 0.50),
    thresholds: Sequence[int] = (1, 2, 4),
    subset_size: int = 5000,
    model_kinds: Sequence[str] = MODEL_KINDS,
    seed: int = 0,
    top_k: int = 15,
    ranking_method: str = "mdni",
    k: int = 10,
    hyper: Hyperparams = DEFAULT_HYPER,
    frozen_ranking: Optional[Sequence[str]] = None,
    threads: int = 1,
    ambiguous_handling: str = "exclude",
    leaky_reputation: bool = False,
) -> BenchReport:
    """Compose each (fraction, threshold) cell and cross-validate every model
    on the top-k of each fold's column order.

    Each cell gets its own seeded subset; infeasible cells (a class pool
    too small even after shrinking) are flagged and skipped while the rest
    of the grid proceeds.
    """
    frozen = tuple(frozen_ranking) if frozen_ranking else None
    pipeline = PipelineConfig(
        ranking_method=ranking_method, frozen_ranking=frozen, hyper=hyper,
        leaky_reputation=leaky_reputation,
    )
    check_windows(pipeline, [(1, top_k)])
    config = {
        "malware_fractions": list(malware_fractions),
        "thresholds": list(thresholds),
        "subset_size": subset_size,
        "model_kinds": list(model_kinds),
        "seed": seed,
        "top_k": top_k,
        "ranking_method": ranking_method,
        "k": k,
        "hash_buckets": HashConfig().n_buckets,
        "frozen_ranking": list(frozen) if frozen else None,
        "ambiguous_handling": ambiguous_handling,
        "leaky_reputation": leaky_reputation,
        "hyper": hyper.to_json(),
    }
    report = _new_report("benchmark-grid", config, seed, corpus)
    if leaky_reputation:
        report.flags.append("leaky-reputation: tables fitted on full subsets")
    cells = [
        (ci, fraction, threshold)
        for ci, (fraction, threshold) in enumerate(
            (f, t) for f in malware_fractions for t in thresholds
        )
    ]

    def run_cell(cell):
        ci, fraction, threshold = cell
        where = f"cell ({fraction}, {threshold}-AV)"
        recipe = CompositionRecipe(
            malware_fraction=fraction,
            policy=DetectionLabelPolicy(threshold=threshold, ambiguous_handling=ambiguous_handling),
            target_size=subset_size,
            seed=_derive_seed(seed, ci),
        )
        try:
            subset = compose_subset(corpus, recipe)
        except CompositionError as exc:
            return None, f"{where} infeasible: {exc}"
        plan = _prepare(subset, k, _derive_seed(seed, ci, 1), pipeline)
        cell_rows, cell_flags = [], [f"{where}: {f}" for f in subset.flags]
        for model_kind in model_kinds:
            ev, error = _evaluate(f"{where} {model_kind}", plan, model_kind, (1, top_k))
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
            cell_flags.extend(f"{where} {model_kind}: {f}" for f in ev.fold_flags())
        return (cell_rows, cell_flags), None

    for _, (cell_rows, cell_flags) in _completed(report, cells, run_cell, threads):
        report.rows.extend(cell_rows)
        report.flags.extend(cell_flags)

    # Model-major ordering like the published table: model, fraction, threshold.
    order = {m: i for i, m in enumerate(model_kinds)}
    report.rows.sort(
        key=lambda r: (order[r["model"]], r["malware_fraction"], r["threshold"])
    )
    for model_kind in model_kinds:
        for fraction in malware_fractions:
            for threshold in thresholds:
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
    for model_kind in model_kinds:
        label = reporting.MODEL_LABELS.get(model_kind, model_kind)
        for threshold in thresholds:
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
    corpus: Corpus,
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
    frozen_ranking: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> BenchReport:
    """F1 of sliding rank windows: how fast performance decays without the
    best features.

    Windows start at ranks 1, 1+step, ... (n_windows of them). One subset
    is composed per threshold and reused across that row's windows.
    """
    for name, value in (("window_width", window_width), ("step", step), ("n_windows", n_windows)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    starts = [1 + step * i for i in range(n_windows)]
    # Each threshold's plan orders each training fold's columns once; every
    # window then takes its own ranks of that order.
    frozen = tuple(frozen_ranking) if frozen_ranking else None
    pipeline = PipelineConfig(ranking_method=ranking_method, frozen_ranking=frozen, hyper=hyper)
    check_windows(pipeline, [(start, window_width) for start in starts])
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
        "hash_buckets": HashConfig().n_buckets,
        "frozen_ranking": list(frozen) if frozen else None,
        "hyper": hyper.to_json(),
    }
    report = _new_report("robustness-windows", config, seed, corpus)

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
        plan = _prepare(subset, k, _derive_seed(seed, ti, 1), pipeline)
        tasks.extend((threshold, start, plan) for start in starts)

    def run_window(task):
        threshold, start, plan = task
        return _evaluate(
            f"{threshold}-AV window {start}", plan, model_kind, (start, window_width)
        )

    for (threshold, start, _), ev in _completed(report, tasks, run_window, threads):
        report.flags.extend(f"{threshold}-AV window {start}: {f}" for f in ev.fold_flags())
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
