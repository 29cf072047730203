"""Per-layer tracing of one metatriage command, from outside the package.

Run as a script, it wraps the public functions of each metatriage module,
runs `metatriage.cli.main` on the remaining arguments and, when the command
ends, writes what it recorded to a JSON file:

    python3 perfbench/layertrace.py TRACE.json -- histogram --corpus c.jsonl

Nothing under `src/` is changed: each wrapper replaces the function object in
every metatriage module namespace that holds it, so calls through
`from .x import f` names are caught as well. Two private functions are
wrapped because no public one marks their boundary: `bench._map_ordered`
(the task pool) and `cli._write_text` (the CLI's output writer). Wrappers only read arguments and
return values, so the command's outputs are the same bytes as untraced.

What is recorded:
- per function: calls, busy time, and self time (busy time minus the time
  of nested wrapped calls on the same thread);
- one span per call of a boundary function (id, parent span, name, thread,
  start, end), kept in memory and written out when the command ends; the
  spans of one command share its trace file;
- hot inner functions (`best_split`, the filter scorers, the metrics,
  `bin_column`, ...) are counted and timed in aggregate only, never as spans;
- counters read from arguments and returned values: records parsed, rows
  hashed, trees and nodes grown, logistic epochs and non-converged fits,
  rows scored, folds, pool tasks and busy time, bytes written, and a digest
  of every `rank_features` input so repeated rankings can be counted.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter

import numpy as np

# (module, function, hot). Hot functions are aggregated without spans.
TARGETS = (
    ("cli", "main", False),
    ("cli", "_write_text", False),
    ("corpus", "generate_synthetic", False),
    ("corpus", "write_corpus", False),
    ("corpus", "load_corpus", False),
    ("corpus", "corpus_digest", False),
    ("corpus", "compose_subset", False),
    ("corpus", "detection_histogram", False),
    ("featurize", "static_feature_block", False),
    ("featurize", "build_reputation_table", False),
    ("featurize", "assemble_features", False),
    ("featurize", "bin_column", True),
    ("featurize", "standardize_fit_apply", True),
    ("select", "rank_features", False),
    ("select", "score_chi_squared", True),
    ("select", "score_information_gain", True),
    ("select", "score_gain_ratio", True),
    ("select", "ranking_to_csv_text", False),
    ("learn", "train_forest", False),
    ("learn", "best_split", True),
    ("learn", "train_logistic", False),
    ("learn", "train_linear_svm", False),
    ("learn", "predict_score", True),
    ("evaluate", "cross_validate", False),
    ("evaluate", "classification_metrics", True),
    ("evaluate", "roc_and_auc", True),
    ("evaluate", "threshold_max_f1", True),
    ("bench", "hash_size_sweep", False),
    ("bench", "feature_count_curve", False),
    ("bench", "grid_benchmark", False),
    ("bench", "robustness_windows", False),
    ("bench", "_map_ordered", False),
    ("bench", "emit_report", False),
    ("reporting", "csv_text", True),
    ("reporting", "markdown_table", True),
    ("reporting", "svg_line_chart", True),
)


class Tracer:
    """Wrappers, per-thread call stacks and the records they fill."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._threads: dict[int, int] = {}
        self.functions: dict[str, list[float]] = {}  # name -> [calls, busy_s, self_s]
        self.counters: Counter = Counter()
        self.rank_inputs: set[str] = set()
        self.spans: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        import metatriage.cli  # noqa: F401  (imports every module)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "metatriage"]
        for module_name, attr, hot in TARGETS:
            module = sys.modules[f"metatriage.{module_name}"]
            original = getattr(module, attr)
            fn = self._pool(original) if attr == "_map_ordered" else original
            wrapper = self._wrap(f"{module_name}.{attr}", fn, hot, _AFTER.get(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, hot, after):
        signature = inspect.signature(fn)
        self.functions[name] = [0, 0.0, 0.0]

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][1] if stack else 0
            span = parent if hot else next(self._span_ids)
            frame = [0.0, span]  # nested wrapped time, span id
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                busy = t1 - t0
                with self._lock:
                    record = self.functions[name]
                    record[0] += 1
                    record[1] += busy
                    record[2] += busy - frame[0]
                if not hot:
                    self.spans.append((span, parent, name, self._thread_index(), t0, t1))
                if stack:
                    stack[-1][0] += busy
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = after(bound.arguments, result, self)
                if counts:
                    with self._lock:
                        self.counters.update(counts)
                if stack:
                    # Counting is tracer overhead: keep it out of the parent's self time.
                    stack[-1][0] += time.perf_counter() - t1
            return result

        return wrapper

    def _pool(self, map_ordered):
        """Count pool tasks and their thread CPU time against pool capacity."""

        def pooled(tasks, fn, threads):
            busy = []

            def task(item):
                c0 = time.thread_time()
                try:
                    return fn(item)
                finally:
                    busy.append(time.thread_time() - c0)

            t0 = time.perf_counter()
            result = map_ordered(tasks, task, threads)
            wall = time.perf_counter() - t0
            width = min(threads, len(tasks)) if threads > 1 and len(tasks) > 1 else 1
            with self._lock:
                self.counters.update(
                    {"bench.tasks": len(tasks), "bench.task_busy_s": sum(busy),
                     "bench.pool_capacity_s": wall * width}
                )
            return result

        return pooled

    # -- output --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "functions": {
                name: {"calls": int(c), "busy_s": b, "self_s": s}
                for name, (c, b, s) in sorted(self.functions.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "rank_inputs": sorted(self.rank_inputs),
            "spans": [
                dict(zip(("id", "parent", "name", "thread", "start", "end"), s))
                for s in self.spans
            ],
        }


# -- counters read from arguments and returned values --------------------------


def _records_parsed(args, result, tracer):
    return {"corpus.records_parsed": len(result.records)}


def _static_rows(args, result, tracer):
    return {"featurize.static_block_rows": len(args["records"])}


def _rank_input(args, result, tracer):
    matrix = args["matrix"]
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((matrix.column_names, matrix.values.shape, args["ranking_method"],
                   args["n_bins"], args["forest_params"], args["methods"])).encode())
    h.update(matrix.values.tobytes())
    h.update(np.asarray(args["labels"], dtype=np.int64).tobytes())
    with tracer._lock:
        tracer.rank_inputs.add(h.hexdigest())
    return None


def _forest(args, result, tracer):
    return {"learn.trees": len(result.trees),
            "learn.tree_nodes": sum(t.n_nodes for t in result.trees)}


def _logistic(args, result, tracer):
    converged = result.meta["final_grad_norm"] < args["params"].tolerance
    return {"learn.logistic_epochs": result.meta["epochs_run"],
            "learn.logistic_not_converged": 0 if converged else 1}


def _predict(args, result, tracer):
    return {"learn.predict_rows": args["X"].n_rows}


def _folds(args, result, tracer):
    return {"evaluate.folds": len(result.folds)}


def _emitted(args, result, tracer):
    return {"reporting.bytes_written": sum(os.path.getsize(p) for p in result)}


def _text_written(args, result, tracer):
    return {"reporting.bytes_written": len(args["text"].encode("utf-8"))}


_AFTER = {
    "load_corpus": _records_parsed,
    "static_feature_block": _static_rows,
    "rank_features": _rank_input,
    "train_forest": _forest,
    "train_logistic": _logistic,
    "predict_score": _predict,
    "cross_validate": _folds,
    "emit_report": _emitted,
    "_write_text": _text_written,
}


# -- per-layer metrics ---------------------------------------------------------

REPORTING = ("cli._write_text", "select.ranking_to_csv_text", "bench.emit_report",
             "reporting.csv_text", "reporting.markdown_table", "reporting.svg_line_chart")


def merge(traces: list[dict]) -> dict:
    """Sum the records of several traced commands."""
    functions: dict[str, dict] = {}
    counters: Counter = Counter()
    rank_inputs: set[str] = set()
    for trace in traces:
        for name, rec in trace["functions"].items():
            into = functions.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += rec[key]
        counters.update(trace["counters"])
        rank_inputs.update(trace["rank_inputs"])
    return {"functions": functions, "counters": counters, "rank_inputs": rank_inputs}


def layer_metrics(merged: dict) -> dict:
    """The per-layer metrics, named `<layer>.<metric>`, from merged traces."""
    f, c = merged["functions"], merged["counters"]

    def busy(*names):
        return sum(f.get(n, {}).get("busy_s", 0.0) for n in names)

    def calls(name):
        return f.get(name, {}).get("calls", 0)

    def own(*names):
        return sum(f.get(n, {}).get("self_s", 0.0) for n in names)

    rank_calls = calls("select.rank_features")
    capacity = c.get("bench.pool_capacity_s", 0.0)
    return {
        "corpus.generate_s": busy("corpus.generate_synthetic", "corpus.write_corpus"),
        "corpus.load_s": busy("corpus.load_corpus"),
        "corpus.records_parsed": c.get("corpus.records_parsed", 0),
        "corpus.digest_s": busy("corpus.corpus_digest"),
        "corpus.digest_calls": calls("corpus.corpus_digest"),
        "corpus.compose_s": busy("corpus.compose_subset"),
        "corpus.compose_calls": calls("corpus.compose_subset"),
        "featurize.static_block_s": busy("featurize.static_feature_block"),
        "featurize.static_block_rows": c.get("featurize.static_block_rows", 0),
        "featurize.reputation_s": busy("featurize.build_reputation_table"),
        "featurize.reputation_calls": calls("featurize.build_reputation_table"),
        "featurize.assemble_s": busy("featurize.assemble_features"),
        "featurize.assemble_calls": calls("featurize.assemble_features"),
        "featurize.bin_s": busy("featurize.bin_column"),
        "featurize.bin_calls": calls("featurize.bin_column"),
        "featurize.standardize_s": busy("featurize.standardize_fit_apply"),
        "select.rank_s": busy("select.rank_features"),
        "select.rank_calls": rank_calls,
        "select.rank_distinct_inputs": len(merged["rank_inputs"]),
        "select.rank_reuse_ratio": len(merged["rank_inputs"]) / rank_calls if rank_calls else 0.0,
        "select.filter_score_s": busy("select.score_chi_squared", "select.score_information_gain",
                                      "select.score_gain_ratio"),
        "learn.forest_fit_s": busy("learn.train_forest"),
        "learn.forest_fits": calls("learn.train_forest"),
        "learn.trees": c.get("learn.trees", 0),
        "learn.tree_nodes": c.get("learn.tree_nodes", 0),
        "learn.best_split_calls": calls("learn.best_split"),
        "learn.best_split_s": busy("learn.best_split"),
        "learn.logistic_fit_s": busy("learn.train_logistic"),
        "learn.logistic_fits": calls("learn.train_logistic"),
        "learn.logistic_epochs": c.get("learn.logistic_epochs", 0),
        "learn.logistic_not_converged": c.get("learn.logistic_not_converged", 0),
        "learn.svm_fit_s": busy("learn.train_linear_svm"),
        "learn.svm_fits": calls("learn.train_linear_svm"),
        "learn.predict_s": busy("learn.predict_score"),
        "learn.predict_rows": c.get("learn.predict_rows", 0),
        "evaluate.cv_calls": calls("evaluate.cross_validate"),
        "evaluate.folds": c.get("evaluate.folds", 0),
        "evaluate.cv_self_s": own("evaluate.cross_validate"),
        "evaluate.metrics_s": busy("evaluate.classification_metrics", "evaluate.roc_and_auc",
                                   "evaluate.threshold_max_f1"),
        "bench.tasks": c.get("bench.tasks", 0),
        "bench.task_busy_s": c.get("bench.task_busy_s", 0.0),
        "bench.pool_utilization": c.get("bench.task_busy_s", 0.0) / capacity if capacity else 0.0,
        "reporting.emit_s": own(*REPORTING),
        "reporting.bytes_written": c.get("reporting.bytes_written", 0),
        "cli.commands": calls("cli.main"),
        "cli.self_s": own("cli.main"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layertrace.py TRACE.json -- <metatriage arguments>", file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    import metatriage.cli

    try:
        return metatriage.cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
