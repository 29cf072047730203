"""Benchmark experiments: hash-size sweep, feature-count curve, the
nine-cell composition grid, and ranked-window robustness.

Every experiment consumes a `Corpus` or a labeled dataset, derives all
randomness from its seed, and produces a BenchReport; `emit_report`
renders it to byte-identical files through `reporting`. Each experiment
states only its tasks, its rows' key fields, and how its rows sort and
group; one runner does the rest. `_new_report` pins the columns, config
and provenance; `_ranked_pipeline` checks every rank window, and a
forest's `mtry` against it, before any work; `_compose` draws a seeded
subset; `_run` evaluates one model kind or rank window on a fold plan and
flags a failure; `_run_tasks` runs the tasks in forked worker processes
and adds their results in task order, so the worker count never changes
output bytes. `_rows`, `_reference` and `_curves` build every row,
published entry and curve by one rule each.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

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
    the workers exit if the caller is killed. Each worker inherits the one
    BLAS thread that importing the package sets (README, "Threads"), so N
    workers keep to about N cores.
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
# The experiment runner
# ---------------------------------------------------------------------------

# The published table of each experiment that has one, and the row fields
# that key it (see `reporting`).
_REFERENCES = {
    "benchmark-grid": (reporting.GRID_REFERENCE, ("model", "malware_fraction", "threshold")),
    "robustness-windows": (reporting.WINDOW_REFERENCE, ("threshold", "window_start")),
}


def _new_report(
    experiment: str, corpus: Corpus, flags: Sequence[str] = (), **params
) -> BenchReport:
    """An empty report with the experiment's columns and `params` as its
    config, as JSON holds them (sequences as lists, hyperparameters as
    objects of their fields), whose provenance pins that config, its seed and the corpus."""
    from . import __version__

    config = json.loads(json.dumps(params, default=asdict))
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, separators=(",", ":")).encode())
    report = BenchReport(
        experiment=experiment, config=config, columns=list(COLUMNS[experiment]), rows=[],
        flags=list(flags),
        provenance={
            "tool": f"metatriage {__version__}", "experiment": experiment, "seed": config["seed"],
            "corpus_digest": corpus_digest(corpus), "config_digest": digest.hexdigest(),
            "config": config,
        },
    )
    if config.get("frozen_ranking"):
        report.flags.append("frozen-ranking: fixed feature order reused across folds")
    if config.get("leaky_reputation"):
        report.flags.append("leaky-reputation: tables fitted on full subsets")
    return report


def _ranked_pipeline(
    ranking_method: str, frozen_ranking: Optional[Sequence[str]], hyper: Hyperparams,
    windows: Sequence[tuple[int, int]], model_kinds: Sequence[str], leaky_reputation: bool = False,
) -> PipelineConfig:
    """The pipeline that orders each training fold's columns by
    `ranking_method`, or by `frozen_ranking` when that is given. A window of
    `windows` past that order, or narrower than the `mtry` of a forest among
    `model_kinds`, raises ValueError here, before any work."""
    frozen = tuple(frozen_ranking) if frozen_ranking else None
    pipeline = PipelineConfig(
        ranking_method=ranking_method, frozen_ranking=frozen, hyper=hyper,
        leaky_reputation=leaky_reputation,
    )
    check_windows(pipeline, windows, model_kinds)
    return pipeline


def _compose(
    corpus: Corpus, seed: int, index: int, fraction: float, threshold: int, size: int,
    label: str, infeasible: str, ambiguous_handling: str = "exclude",
) -> tuple[Optional[LabeledDataset], list[str]]:
    """The `index`-th subset of an experiment seeded with `seed`, and its
    flags prefixed with `label`; or None and the flag that `infeasible`
    cannot be composed from `corpus`."""
    policy = DetectionLabelPolicy(threshold, ambiguous_handling)
    try:
        subset = compose_subset(
            corpus, CompositionRecipe(fraction, policy, size, seed=_derive_seed(seed, index))
        )
    except CompositionError as exc:
        return None, [f"{infeasible} infeasible: {exc}"]
    return subset, [f"{label}: {f}" for f in subset.flags]


def _prepare(
    dataset: LabeledDataset, k: int, seed: int, config: PipelineConfig
) -> Union[FoldPlan, MetatriageError, ValueError]:
    """prepare_folds(dataset, k, seed, config), or the error it raised."""
    try:
        return prepare_folds(dataset, k, seed, config)
    except (MetatriageError, ValueError) as exc:
        return exc


def _run(
    label: str, plan: Union[FoldPlan, Exception], model_kind: str,
    window: Optional[tuple[int, int]] = None,
) -> tuple[Optional[EvalReport], list[str]]:
    """evaluate(plan, model_kind, window) and its fold flags prefixed with
    `label`; or None and a flag naming `label` when that run or the
    preparation of `plan` failed, so a failed preparation is flagged for
    every run that shares it."""
    if isinstance(plan, Exception):
        return None, [f"{label} failed: {plan}"]
    try:
        ev = evaluate(plan, model_kind, window)
    except (MetatriageError, ValueError) as exc:
        return None, [f"{label} failed: {exc}"]
    return ev, [f"{label}: {f}" for f in ev.fold_flags()]


def _rows(experiment: str, ev: Optional[EvalReport], **keys) -> list[dict]:
    """No row for a failed run (`ev` None), else the one row of `ev`: each
    of `experiment`'s columns is its value in `keys`, or the run's
    `<mean|std>_<split>_<metric>`, or the published
    `reference_<split>_<metric>` for the row's keys (None where none is)."""
    if ev is None:
        return []
    table, fields = _REFERENCES.get(experiment, ({}, ()))
    published = table.get(tuple(keys[f] for f in fields), {})
    row = {}
    for column in COLUMNS[experiment]:
        if column in keys:
            row[column] = keys[column]
            continue
        stat, split, metric = column.split("_", 2)
        if stat == "reference":
            row[column] = published.get(metric, (None, None))[split == "test"]
        else:
            row[column] = (ev.mean if stat == "mean" else ev.std)(split, metric)
    return [row]


def _reference(experiment: str, *values: Sequence) -> list[dict]:
    """The published entries, in order, for every combination of `values`
    of the key fields of `experiment`'s table."""
    table, fields = _REFERENCES[experiment]
    return [
        {
            **dict(zip(fields, key)),
            **{metric: {"train": pair[0], "test": pair[1]} for metric, pair in sorted(ref.items())},
        }
        for key in itertools.product(*values)
        if (ref := table.get(key))
    ]


def _curves(
    rows: list[dict], kind: str, x: str, groups: Sequence[tuple[str, dict]],
    y: str = "mean_test_f1",
) -> list[dict]:
    """One curve of `y` against `x` per (name, fields) of `groups` over the
    rows that match those fields; a group with no rows has no curve."""
    curves = []
    for name, fields in groups:
        points = [r for r in rows if all(r[f] == v for f, v in fields.items())]
        if points:
            curves.append({
                "name": name, "kind": kind,
                "x": [float(r[x]) for r in points], "y": [r[y] for r in points],
            })
    return curves


def _run_tasks(report: BenchReport, tasks: Sequence, fn: Callable, threads: int) -> None:
    """Add the (rows, flags, curves) that `fn` returns for each task to
    `report`, in task order; the tasks run in up to `threads` worker
    processes (see `_map_ordered`)."""
    for rows, flags, curves in _map_ordered(tasks, fn, threads):
        report.rows.extend(rows)
        report.flags.extend(flags)
        report.curves.extend(curves)


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
    held-out scores across folds. A size that `HashConfig` refuses, or one
    below a forest's `mtry`, raises ValueError before any point runs.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    pipelines = [PipelineConfig(c, frozen_ranking=hash_column_names(c), hyper=hyper)
                 for c in map(HashConfig, sizes)]
    for pipeline in pipelines:
        check_windows(pipeline, [None], [model_kind])
    report = _new_report(
        "hash-size-sweep", dataset.records, dataset.flags,
        sizes=sizes, model_kind=model_kind, k=k, seed=seed, hyper=hyper,
    )

    def run_point(pipeline: PipelineConfig):
        size = pipeline.hash_config.n_buckets
        plan = _prepare(dataset, k, _derive_seed(seed, size), pipeline)
        ev, flags = _run(f"size {size}", plan, model_kind)
        if ev is None or ev.pooled_scores is None:
            return _rows(report.experiment, ev, size=size, pooled_auc=None), flags, []
        roc = roc_and_auc(ev.pooled_scores, ev.pooled_labels)
        x, y = _downsample_curve(roc.points).T.tolist()
        curve = {"name": f"ROC {size} buckets", "kind": "roc", "x": x, "y": y}
        return _rows(report.experiment, ev, size=size, pooled_auc=roc.auc), flags, [curve]

    _run_tasks(report, pipelines, run_point, threads)
    report.curves += _curves(report.rows, "auc-vs-size", "size", [("pooled AUC", {})], "pooled_auc")
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
    windows = [(1, top_k) for top_k in ks]
    pipeline = _ranked_pipeline(ranking_method, frozen_ranking, hyper, windows, model_kinds)
    report = _new_report(
        "feature-count-curve", dataset.records, dataset.flags,
        ks=ks, model_kinds=model_kinds, ranking_method=ranking_method, k=k, seed=seed,
        hash_buckets=pipeline.hash_config.n_buckets, frozen_ranking=pipeline.frozen_ranking,
        hyper=hyper,
    )
    # One plan orders each training fold's columns once; every (model,
    # top-k) run then takes its top-k of that order.
    plan = _prepare(dataset, k, seed, pipeline)

    def run(task):
        model_kind, top_k = task
        ev, flags = _run(f"model {model_kind} top_k {top_k}", plan, model_kind, (1, top_k))
        return _rows(report.experiment, ev, model=model_kind, top_k=top_k), flags, []

    _run_tasks(report, [(m, top_k) for m in model_kinds for top_k in ks], run, threads)
    report.curves += _curves(report.rows, "f1-vs-k", "top_k", [
        (reporting.MODEL_LABELS.get(m, m), {"model": m}) for m in model_kinds
    ])
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
    pipeline = _ranked_pipeline(
        ranking_method, frozen_ranking, hyper, [(1, top_k)], model_kinds, leaky_reputation
    )
    report = _new_report(
        "benchmark-grid", corpus,
        malware_fractions=malware_fractions, thresholds=thresholds, subset_size=subset_size,
        model_kinds=model_kinds, seed=seed, top_k=top_k, ranking_method=ranking_method, k=k,
        hash_buckets=pipeline.hash_config.n_buckets, frozen_ranking=pipeline.frozen_ranking,
        ambiguous_handling=ambiguous_handling, leaky_reputation=leaky_reputation, hyper=hyper,
    )
    cells = list(enumerate(itertools.product(malware_fractions, thresholds)))

    def run_cell(cell):
        ci, (fraction, threshold) = cell
        where = f"cell ({fraction}, {threshold}-AV)"
        subset, flags = _compose(
            corpus, seed, ci, fraction, threshold, subset_size, where, where, ambiguous_handling
        )
        if subset is None:
            return [], flags, []
        plan = _prepare(subset, k, _derive_seed(seed, ci, 1), pipeline)
        rows = []
        for model_kind in model_kinds:
            ev, run_flags = _run(f"{where} {model_kind}", plan, model_kind, (1, top_k))
            flags += run_flags
            rows += _rows(
                report.experiment, ev, model=model_kind, malware_fraction=fraction,
                threshold=threshold, n_rows=len(subset),
            )
        return rows, flags, []

    _run_tasks(report, cells, run_cell, threads)
    # Model-major ordering like the published table: model, fraction, threshold.
    order = {m: i for i, m in enumerate(model_kinds)}
    report.rows.sort(key=lambda r: (order[r["model"]], r["malware_fraction"], r["threshold"]))
    report.reference = _reference(report.experiment, model_kinds, malware_fractions, thresholds)
    report.curves += _curves(report.rows, "f1-vs-fraction", "malware_fraction", [
        (f"{reporting.MODEL_LABELS.get(m, m)}, {t}-AV", {"model": m, "threshold": t})
        for m in model_kinds for t in thresholds
    ])
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
    # The last window ends furthest down the order, so it is the one to check.
    last = (1 + step * (n_windows - 1), window_width)
    pipeline = _ranked_pipeline(ranking_method, frozen_ranking, hyper, [last], [model_kind])
    starts = [1 + step * i for i in range(n_windows)]
    report = _new_report(
        "robustness-windows", corpus,
        window_width=window_width, step=step, starts=starts, model_kind=model_kind,
        thresholds=thresholds, malware_fraction=malware_fraction, subset_size=subset_size, k=k,
        seed=seed, ranking_method=ranking_method, hash_buckets=pipeline.hash_config.n_buckets,
        frozen_ranking=pipeline.frozen_ranking, hyper=hyper,
    )
    # Each threshold's plan orders each training fold's columns once; every
    # window then takes its own ranks of that order.
    tasks = []
    for ti, threshold in enumerate(thresholds):
        subset, flags = _compose(
            corpus, seed, ti, malware_fraction, threshold, subset_size,
            f"{threshold}-AV", f"threshold {threshold}-AV",
        )
        report.flags += flags
        if subset is not None:
            plan = _prepare(subset, k, _derive_seed(seed, ti, 1), pipeline)
            tasks += [(threshold, start, plan) for start in starts]

    def run_window(task):
        threshold, start, plan = task
        ev, flags = _run(f"{threshold}-AV window {start}", plan, model_kind, (start, window_width))
        return _rows(
            report.experiment, ev, model=model_kind, threshold=threshold, window_start=start,
            window_end=start + window_width - 1,
        ), flags, []

    _run_tasks(report, tasks, run_window, threads)
    report.rows.sort(key=lambda r: (r["threshold"], r["window_start"]))
    report.reference = _reference(report.experiment, thresholds, starts)
    report.curves += _curves(report.rows, "f1-vs-window", "window_start", [
        (f"{t}-AV", {"threshold": t}) for t in thresholds
    ])
    return report


def emit_report(
    report: BenchReport,
    out_dir: str,
    formats: Sequence[str] = reporting.FORMATS,
) -> list[str]:
    """Write results.csv, report.md, charts, provenance.json and report.json
    together (see `reporting.write_files`); returns the paths written."""
    return reporting.write_files(out_dir, reporting.report_files(report, formats))
