"""Benchmark of the metatriage CLI, run as its users run it.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a checkout. Each run first sets up its workload's
corpus with `metatriage generate` (three times, to time set-up), then runs
whole rounds of the workload's commands until `--seconds` have passed.
Every command is a child process, timed from outside: wall time,
user+system CPU time and peak RSS come from `os.wait4`. After each round the
outputs are checked (see checks.py). The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones, medians over rounds.
With `--trace 1` the run makes one untraced and one traced round with the
same seed, checks that their outputs are byte-identical, and reports the
per-layer metrics of the traced round (see layertrace.py) plus the tracing
overhead.

Inputs depend only on `--seed`: the corpus is generated with that seed and
every command gets it as its `--seed`.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layertrace  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s

# Generator settings. Fewer developers and issuers than the default, so that
# per-fold reputation carries signal in subsets of a few hundred rows, and a
# weaker temporal signal, so that reputation is the strongest planted signal.
RECIPE = ("--n-developers", "60", "--n-issuers", "40", "--s-temporal", "0.4")
SMALL_CORPUS = ("--n-apps", "12000", *RECIPE)
FULL_CORPUS = ("--n-apps", "30000", *RECIPE)

GRID_MODELS = ("logistic", "linear_svm", "forest")
GRID_FRACTIONS = (0.02, 0.25, 0.5)
GRID_THRESHOLDS = (1, 2, 4)
GRID_SUBSET = 300
WINDOW_STARTS = tuple(1 + 2 * i for i in range(7))
WINDOW_WIDTH = 15
WINDOW_THRESHOLDS = (4,)
SWEEP_SIZES = (32, 64, 128, 256, 512, 1024, 2048)
RANK_THRESHOLD = 2
HASH_BUCKETS = 512  # the CLI default, used by featurize and rank


@dataclass
class Workload:
    """Corpus, commands per round, output checks and the files compared
    between an untraced and a traced round."""

    corpus: tuple
    commands: Callable  # (seed, corpus, out_dir) -> [(command name, argv)]
    check: Callable  # (out_dir, corpus) -> [(op, message)]
    ops: list
    compared: tuple


def _grid_commands(seed, corpus, out):
    return [("benchmark-grid", [
        "benchmark-grid", "--corpus", corpus, "--seed", str(seed), "--threads", "1",
        "--subset-size", str(GRID_SUBSET), "--k", "3", "--top-k", "15", "--method", "mdni",
        "--out", out])]


def _robustness_commands(seed, corpus, out):
    return [("robustness", [
        "robustness", "--corpus", corpus, "--seed", str(seed), "--threads", "2",
        "--model", "forest", "--thresholds", ",".join(map(str, WINDOW_THRESHOLDS)),
        "--subset-size", "400", "--k", "2", "--n-windows", str(len(WINDOW_STARTS)),
        "--window-width", str(WINDOW_WIDTH), "--step", "2", "--out", out])]


def _sweep_commands(seed, corpus, out):
    return [("sweep-hashes", [
        "sweep-hashes", "--corpus", corpus, "--seed", str(seed), "--threads", "1",
        "--model", "logistic", "--sizes", ",".join(map(str, SWEEP_SIZES)),
        "--subset-size", "2000", "--k", "3", "--threshold", "1", "--out", out])]


def _corpus_rank_commands(seed, corpus, out):
    return [
        ("histogram", ["histogram", "--corpus", corpus, "--out", os.path.join(out, "histogram.csv")]),
        ("featurize", ["featurize", "--corpus", corpus, "--threshold", str(RANK_THRESHOLD),
                       "--out", os.path.join(out, "features.csv")]),
        ("rank", ["rank", "--corpus", corpus, "--method", "borda", "--seed", str(seed),
                  "--threshold", str(RANK_THRESHOLD), "--out", os.path.join(out, "ranking.csv")]),
    ]


def _check_corpus_rank(out, corpus_path):
    corpus = checks.read_corpus_json(corpus_path)
    features = os.path.join(out, "features.csv")
    failures = checks.check_histogram(os.path.join(out, "histogram.csv"), corpus)
    failures += checks.check_featurize(features, corpus, RANK_THRESHOLD, HASH_BUCKETS)
    with open(features, encoding="utf-8") as fh:
        columns = fh.readline().rstrip("\n").split(",")[:-1]
    return failures + checks.check_ranking(os.path.join(out, "ranking.csv"), columns)


WORKLOADS = {
    "grid": Workload(
        SMALL_CORPUS, _grid_commands,
        lambda out, corpus: checks.check_grid(
            out, GRID_MODELS, GRID_FRACTIONS, GRID_THRESHOLDS, GRID_SUBSET),
        checks.grid_ops(GRID_MODELS, GRID_FRACTIONS, GRID_THRESHOLDS),
        ("results.csv", "report.json"),
    ),
    "robustness": Workload(
        SMALL_CORPUS, _robustness_commands,
        lambda out, corpus: checks.check_robustness(
            out, WINDOW_THRESHOLDS, WINDOW_STARTS, WINDOW_WIDTH),
        checks.robustness_ops(WINDOW_THRESHOLDS, WINDOW_STARTS),
        ("results.csv", "report.json"),
    ),
    "sweep": Workload(
        SMALL_CORPUS, _sweep_commands,
        lambda out, corpus: checks.check_sweep(out, SWEEP_SIZES),
        checks.sweep_ops(SWEEP_SIZES),
        ("results.csv", "report.json"),
    ),
    "corpus-rank": Workload(
        FULL_CORPUS, _corpus_rank_commands, _check_corpus_rank,
        [("command", name) for name in ("histogram", "featurize", "rank")],
        ("histogram.csv", "features.csv", "ranking.csv"),
    ),
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path, deadline, trace_path=None):
    """Run one metatriage command; kill it if it would pass the deadline."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "metatriage.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "layertrace.py"), trace_path, "--", *argv]
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_env(), stdout=log, stderr=log, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode)


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failures: list = field(default_factory=list)


def run_round(workload, seed, corpus, out, deadline, trace_dir=None):
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result = Round()
    commands = workload.commands(seed, corpus, out)
    start = time.perf_counter()
    for name, argv in commands:
        trace = None if trace_dir is None else os.path.join(trace_dir, f"{name}.json")
        m = run_child(argv, os.path.join(out, "commands.log"), deadline, trace)
        result.cpu_s += m.cpu_s
        result.peak_rss_mb = max(result.peak_rss_mb, m.peak_rss_mb)
        if m.code != 0:
            result.failures += [(op, f"{name} exited with code {m.code}") for op in
                                _ops_of(workload, name)]
    result.wall_s = time.perf_counter() - start
    if not result.failures:
        try:
            result.failures = workload.check(out, corpus)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result.failures = [(op, f"output check raised {exc!r}") for op in workload.ops]
    return result


def _ops_of(workload, command_name):
    """The operations a command produces: all of them, unless the workload
    counts commands as operations."""
    if ("command", command_name) in workload.ops:
        return [("command", command_name)]
    return list(workload.ops)


def setup(workload, seed, work, deadline, trace_path=None):
    """Generate the corpus SETUP_REPEATS times; return its path and the times."""
    corpus = os.path.join(work, "corpus.jsonl")
    times = []
    for _ in range(SETUP_REPEATS):
        m = run_child(["generate", "--out", corpus, "--seed", str(seed), *workload.corpus],
                      os.path.join(work, "setup.log"), deadline)
        if m.code != 0:
            raise RuntimeError(f"metatriage generate exited with code {m.code}; "
                               f"see {os.path.join(work, 'setup.log')}")
        times.append(m.wall_s)
    if trace_path is not None:
        traced = os.path.join(work, "corpus-traced.jsonl")
        run_child(["generate", "--out", traced, "--seed", str(seed), *workload.corpus],
                  os.path.join(work, "setup.log"), deadline, trace_path)
    return corpus, times


def _tally(workload, rounds):
    """(correct, attempted, failed) over rounds; a failure that names no
    operation (a report flag) still makes the run incorrect."""
    failed = 0
    correct = True
    for r in rounds:
        failed_ops = {op for op, _ in r.failures if op in workload.ops}
        failed += len(failed_ops)
        correct = correct and not r.failures
    return correct, len(workload.ops) * len(rounds), failed


def measure(name, seed, seconds):
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    corpus, setup_times = setup(workload, seed, work, deadline)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, seed, corpus, os.path.join(work, "out"), deadline))
        if time.perf_counter() - start >= seconds:
            break
    correct, attempted, failed = _tally(workload, rounds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "cpu_s": statistics.median(r.cpu_s for r in rounds),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
    }
    details = {"rounds": len(rounds), "round_wall_s": [r.wall_s for r in rounds],
               "setup_times_s": setup_times,
               "failures": [f"{op}: {msg}" for r in rounds for op, msg in r.failures][:20]}
    return correct, attempted, failed, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, details


def measure_traced(name, seed):
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir)
    corpus, _ = setup(workload, seed, work, deadline, os.path.join(trace_dir, "generate.json"))
    plain_dir, traced_dir = os.path.join(work, "out"), os.path.join(work, "out-traced")
    plain = run_round(workload, seed, corpus, plain_dir, deadline)
    traced = run_round(workload, seed, corpus, traced_dir, deadline, trace_dir)
    same = [("corpus-traced.jsonl", corpus, os.path.join(work, "corpus-traced.jsonl"))]
    same += [(f, os.path.join(plain_dir, f), os.path.join(traced_dir, f)) for f in workload.compared]
    for label, a, b in same:
        if not _same_bytes(a, b):
            traced.failures.append((("trace",), f"{label} differs between untraced and traced runs"))
    correct, attempted, failed = _tally(workload, [plain, traced])
    traces = []
    for entry in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, entry), encoding="utf-8") as fh:
            traces.append(json.load(fh))
    metrics = layertrace.layer_metrics(layertrace.merge(traces))
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    details = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
               "failures": [f"{op}: {msg}" for r in (plain, traced) for op, msg in r.failures][:20]}
    return correct, attempted, failed, {k: (v, layer_unit(k)) for k, v in metrics.items()}, details


def layer_unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_utilization")):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def _same_bytes(a, b):
    return os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)


# ---------------------------------------------------------------------------
# Entry point


def environment():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def run_one(name, seed, seconds, trace):
    if trace:
        correct, attempted, failed, metrics, details = measure_traced(name, seed)
    else:
        correct, attempted, failed, metrics, details = measure(name, seed, seconds)
    print(json.dumps({"workload": name, "seed": seed, "trace": trace, **environment(),
                      **details}))
    for metric, (value, unit) in metrics.items():
        print(f"{name:12s} {metric:32s} {value:14.6f} {unit}")
    print(f"{name:12s} attempted {attempted}, failed {failed}, correct {str(correct).lower()}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "metatriage", "cli.py")):
        print(f"error: no metatriage sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_one(n, args.seed, args.seconds, args.trace) for n in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
