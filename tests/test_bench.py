import contextlib
import hashlib
import inspect
import json
import multiprocessing
import os
import shutil
import signal
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

import metatriage
import metatriage.bench
from metatriage.bench import (
    BenchReport,
    _derive_seed,
    _downsample_curve,
    _map_ordered,
    emit_report,
    feature_count_curve,
    grid_benchmark,
    hash_size_sweep,
    robustness_windows,
)
from metatriage.corpus import (
    CompositionRecipe,
    Corpus,
    DetectionLabelPolicy,
    GeneratorConfig,
    compose_subset,
    generate_synthetic,
)
from metatriage.errors import ContractError, MetatriageError, UsageError
from metatriage.evaluate import PipelineConfig, cross_validate
from metatriage.featurize import HashConfig
from metatriage.learn import ForestParams, Hyperparams, LogisticParams
from metatriage.reporting import report_markdown, write_files

from test_corpus import make_record


def small_hyper():
    return Hyperparams(
        logistic=LogisticParams(tolerance=1e-4),
        forest=ForestParams(n_trees=15, max_depth=8, min_leaf=5),
    )


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once it has run `seconds`, so a hung
    worker pool fails the test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rank_calls(monkeypatch):
    """Counts the rankings cross-validation computes."""
    import metatriage.evaluate

    calls = []
    real = metatriage.evaluate.rank_features

    def counting(*args, **kwargs):
        calls.append(kwargs["ranking_method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(metatriage.evaluate, "rank_features", counting)
    return calls


@pytest.fixture(scope="module")
def bench_dataset(small_corpus):
    recipe = CompositionRecipe(
        malware_fraction=0.5,
        policy=DetectionLabelPolicy(threshold=1),
        target_size=800,
        seed=8,
    )
    return compose_subset(small_corpus, recipe)


@pytest.fixture(scope="module")
def permission_dataset(permission_corpus):
    recipe = CompositionRecipe(
        malware_fraction=0.5,
        policy=DetectionLabelPolicy(threshold=1),
        target_size=800,
        seed=8,
    )
    return compose_subset(permission_corpus, recipe)


class TestHelpers:
    def test_derive_seed_is_deterministic_and_path_sensitive(self):
        assert _derive_seed(7, 3) == _derive_seed(7, 3)
        assert _derive_seed(7, 3) != _derive_seed(7, 4)
        assert _derive_seed(7, 3) != _derive_seed(8, 3)
        assert _derive_seed(7, 3, 1) != _derive_seed(7, 3)

    def test_downsample_caps_point_count(self):
        points = np.arange(4000).reshape(-1, 2)
        down = _downsample_curve(points, cap=100)
        assert len(down) <= 100
        assert down[0].tolist() == [0, 1]
        assert down[-1].tolist() == [3998, 3999]

    def test_downsample_keeps_short_curves(self):
        points = np.arange(10).reshape(-1, 2)
        assert _downsample_curve(points, cap=100) is points

    def test_map_ordered_preserves_task_order(self):
        tasks = list(range(20))
        serial = _map_ordered(tasks, lambda t: t * t, threads=1)
        threaded = _map_ordered(tasks, lambda t: t * t, threads=8)
        assert serial == threaded == [t * t for t in tasks]

    def test_map_ordered_reraises_a_worker_exception(self):
        def fn(t):
            if t == 3:
                raise ContractError(f"task {t} rejected")
            return t

        with deadline(60), pytest.raises(ContractError, match="^task 3 rejected$"):
            _map_ordered(list(range(6)), fn, threads=3)
        assert not multiprocessing.active_children()

    def test_map_ordered_reports_a_dead_worker(self):
        start = time.monotonic()
        with deadline(60), pytest.raises(MetatriageError, match="exited abruptly"):
            _map_ordered(list(range(6)), lambda t: os._exit(3) if t == 2 else t, threads=3)
        assert time.monotonic() - start < 10
        assert not multiprocessing.active_children()

    @pytest.mark.skipif(shutil.which("ps") is None, reason="reads process states with ps")
    def test_map_ordered_workers_exit_when_the_caller_is_killed(self, tmp_path):
        script = (
            "import os, sys, time\n"
            "from metatriage.bench import _map_ordered\n"
            "def task(t):\n"
            "    open(os.path.join(sys.argv[1], str(os.getpid())), 'w').close()\n"
            "    time.sleep(120)\n"
            "_map_ordered([0, 1], task, threads=2)\n"
        )
        src = os.path.dirname(os.path.dirname(metatriage.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        caller = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env)

        def alive(pid):
            # an exited orphan that is not reaped yet shows as a zombie (Z)
            state = subprocess.run(
                ["ps", "-o", "stat=", "-p", str(pid)], capture_output=True, text=True
            ).stdout.strip()
            return bool(state) and not state.startswith("Z")

        try:
            with deadline(60):
                while len(os.listdir(tmp_path)) < 2:
                    time.sleep(0.05)
        finally:
            caller.kill()
            caller.wait(timeout=10)
        workers = [int(name) for name in os.listdir(tmp_path)]
        start = time.monotonic()
        while any(alive(pid) for pid in workers) and time.monotonic() - start < 10:
            time.sleep(0.1)
        assert not any(alive(pid) for pid in workers)

    def test_map_ordered_uses_at_most_threads_worker_processes(self):
        with deadline(60):
            pids = _map_ordered(list(range(6)), lambda t: os.getpid(), threads=3)
        assert 1 <= len(set(pids)) <= 3
        assert os.getpid() not in pids
        assert not multiprocessing.active_children()


class TestBenchReport:
    def sample(self):
        return BenchReport(
            experiment="hash-size-sweep",
            config={"sizes": [8]},
            columns=["size", "pooled_auc", "mean_test_auc", "std_test_auc", "mean_test_f1"],
            rows=[{"size": 8, "pooled_auc": 0.75, "mean_test_auc": 0.7, "std_test_auc": 0.01,
                   "mean_test_f1": 0.5}],
            curves=[{"name": "a", "kind": "roc", "x": [0.0, 1.0], "y": [0.0, 1.0]}],
            flags=["note"],
            provenance={"tool": "metatriage test", "config_digest": "x",
                        "corpus_digest": "y"},
        )

    def test_json_round_trip(self):
        report = self.sample()
        back = BenchReport.from_json(json.loads(json.dumps(report.to_json())))
        assert back.to_json() == report.to_json()

    def test_grid_defaults(self):
        grid = inspect.signature(grid_benchmark).parameters
        assert len(grid["malware_fractions"].default) * len(grid["thresholds"].default) == 9
        assert grid["subset_size"].default == 5000


class TestWriteFiles:
    """`write_files` moves no file into place until every file is written,
    and removes every staged file on any failure."""

    def existing(self, tmp_path):
        (tmp_path / "a.txt").write_text("old a\n")
        (tmp_path / "b.txt").write_text("old b\n")
        return {"a.txt": "new a\n"}

    def assert_untouched(self, tmp_path):
        assert (tmp_path / "a.txt").read_text() == "old a\n"
        assert (tmp_path / "b.txt").read_text() == "old b\n"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("second", ["missing/b.txt", "a-directory"])
    def test_second_file_not_writable(self, tmp_path, second):
        files = {**self.existing(tmp_path), second: "new\n"}
        (tmp_path / "a-directory").mkdir()
        with pytest.raises(UsageError, match=f"cannot write {tmp_path / second}: "):
            write_files(str(tmp_path), files)
        self.assert_untouched(tmp_path)

    def test_writing_function_raises(self, tmp_path):
        def fails(fh):
            fh.write("partial")
            raise RuntimeError("refused")

        with pytest.raises(RuntimeError, match="refused"):
            write_files(str(tmp_path), {**self.existing(tmp_path), "b.txt": fails})
        self.assert_untouched(tmp_path)

    def test_text_and_functions_make_parents(self, tmp_path):
        out = tmp_path / "x" / "y"
        written = write_files(str(out), {
            "t.txt": "caf\u00e9\n", "f.bin": lambda fh: fh.buffer.write(b"\x00\r\n"),
        })
        assert written == [str(out / "t.txt"), str(out / "f.bin")]
        assert (out / "t.txt").read_bytes() == "caf\u00e9\n".encode()
        assert (out / "f.bin").read_bytes() == b"\x00\r\n"
        assert sorted(os.listdir(out)) == ["f.bin", "t.txt"]

    def test_symlink_is_written_through_with_its_targets_mode(self, tmp_path):
        target = tmp_path / "real.txt"
        target.write_text("old\n")
        target.chmod(0o600)
        (tmp_path / "out").mkdir()
        link = tmp_path / "out" / "link.txt"
        link.symlink_to(target)
        write_files(str(tmp_path / "out"), {"link.txt": "new\n"})
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "new\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert not list(tmp_path.rglob("*.tmp"))

    def test_new_file_gets_the_umask_default_mode(self, tmp_path):
        umask = os.umask(0o027)
        try:
            write_files(str(tmp_path), {"a.txt": "a\n"})
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == 0o640

    def test_fifo_is_written_through_not_replaced(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open
        try:
            write_files(str(tmp_path), {"out.fifo": "through\n"})
            assert os.read(reader, 100) == b"through\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["out.fifo"]

    def test_staged_name_never_takes_an_existing_file(self, tmp_path):
        (tmp_path / "a.txt.tmp").write_text("mine\n")
        write_files(str(tmp_path), {"a.txt": "new a\n"})
        assert (tmp_path / "a.txt.tmp").read_text() == "mine\n"
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "a.txt.tmp"]


class TestEmitReport:
    def test_writes_all_formats(self, tmp_path):
        report = TestBenchReport().sample()
        written = emit_report(report, str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert {"results.csv", "report.md", "provenance.json",
                "report.json"} <= names
        assert "roc_curves.svg" in names
        csv_lines = (tmp_path / "results.csv").read_text().splitlines()
        assert csv_lines[0] == "size,pooled_auc,mean_test_auc,std_test_auc,mean_test_f1"
        assert csv_lines[1] == "8,0.75,0.7,0.01,0.5"
        assert not list(tmp_path.glob("*.tmp"))

    def test_emission_is_byte_identical(self, tmp_path):
        report = TestBenchReport().sample()
        emit_report(report, str(tmp_path / "a"))
        emit_report(report, str(tmp_path / "b"))
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_report(self, tmp_path):
        report = BenchReport(
            experiment="benchmark-grid", config={}, columns=["model"], rows=[],
            flags=["cell (0.5, 4-AV) infeasible: empty pool"],
        )
        emit_report(report, str(tmp_path))
        assert (tmp_path / "results.csv").read_text() == "model\n"
        md = (tmp_path / "report.md").read_text()
        assert "_No results" in md
        assert "infeasible" in md

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(TestBenchReport().sample(), str(tmp_path), formats=("pdf",))

    def test_selected_formats_only(self, tmp_path):
        emit_report(TestBenchReport().sample(), str(tmp_path), formats=("csv",))
        present = set(os.listdir(tmp_path))
        assert "results.csv" in present
        assert "report.md" not in present
        # provenance and the JSON dump always materialize
        assert "provenance.json" in present
        assert "report.json" in present


class TestHashSizeSweep:
    def test_sweep_rows_and_monotone_gain(self, permission_dataset):
        report = hash_size_sweep(
            permission_dataset, sizes=(1, 256), k=3, seed=9,
            hyper=small_hyper(), threads=1,
        )
        assert [r["size"] for r in report.rows] == [1, 256]
        auc = {r["size"]: r["pooled_auc"] for r in report.rows}
        # one bucket collapses every permission into a count; the corpus
        # keeps counts label-independent, so that point is near chance
        assert abs(auc[1] - 0.5) < 0.12
        assert auc[256] > auc[1] + 0.15
        kinds = {c["kind"] for c in report.curves}
        assert kinds == {"roc", "auc-vs-size"}
        # the columns are fixed by design, so no size is flagged frozen-ranking
        assert report.flags == []

    def test_sweep_is_thread_count_invariant(self, permission_dataset):
        a = hash_size_sweep(permission_dataset, sizes=(8, 16), k=3, seed=9,
                            hyper=small_hyper(), threads=1)
        b = hash_size_sweep(permission_dataset, sizes=(8, 16), k=3, seed=9,
                            hyper=small_hyper(), threads=4)
        assert a.to_json() == b.to_json()

    def test_empty_sizes_rejected(self, permission_dataset):
        with pytest.raises(ValueError):
            hash_size_sweep(permission_dataset, sizes=())

    @pytest.mark.parametrize("bad", [0, 2**16 + 1])
    def test_refused_size_fails_before_any_point(self, permission_dataset, monkeypatch, bad):
        calls = []
        monkeypatch.setattr("metatriage.bench.prepare_folds", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=f"n_buckets must be between 1 and 65536, got {bad}"):
            hash_size_sweep(permission_dataset, sizes=(16, bad), threads=2)
        assert calls == []


class TestFeatureCountCurve:
    def test_curve_rows_per_model_and_k(self, bench_dataset):
        report = feature_count_curve(
            bench_dataset, ks=(1, 8), model_kinds=("logistic",),
            ranking_method="info_gain", k=3, seed=5, hyper=small_hyper(),
        )
        assert [(r["model"], r["top_k"]) for r in report.rows] == [
            ("logistic", 1), ("logistic", 8),
        ]
        # the single best feature carries real signal, and widening to the
        # top 8 adds more; exact levels need production-scale subsets
        assert report.rows[0]["mean_test_f1"] > 0.6
        assert report.rows[1]["mean_test_f1"] > 0.75
        assert report.rows[1]["mean_test_f1"] > report.rows[0]["mean_test_f1"]
        assert report.curves[0]["kind"] == "f1-vs-k"

    def test_frozen_ranking_matches_explicit_columns(self, bench_dataset):
        frozen = ["developer_rep", "issuer_rep", "cert_validity_days",
                  "age_in_market_days"]
        report = feature_count_curve(
            bench_dataset, ks=(2,), model_kinds=("forest",),
            k=3, seed=5, hyper=small_hyper(), frozen_ranking=frozen,
        )
        assert any(f.startswith("frozen-ranking") for f in report.flags)
        ev = cross_validate(
            bench_dataset, "forest", k=3, seed=5,
            config=PipelineConfig(frozen_ranking=tuple(frozen), hyper=small_hyper()),
            window=(1, 2),
        )
        assert report.rows[0]["mean_test_f1"] == ev.mean("test", "f1")

    def test_one_ranking_per_fold_serves_every_k(self, bench_dataset, rank_calls):
        report = feature_count_curve(
            bench_dataset, ks=(1, 2, 4), model_kinds=("logistic", "forest"),
            ranking_method="info_gain", k=3, seed=5, hyper=small_hyper(),
        )
        assert rank_calls == ["info_gain"] * 3  # one per fold, not per top-k
        assert [(r["model"], r["top_k"]) for r in report.rows] == [
            (m, t) for m in ("logistic", "forest") for t in (1, 2, 4)
        ]

    def test_curve_is_thread_count_invariant(self, bench_dataset):
        runs = [
            feature_count_curve(
                bench_dataset, ks=(1, 3), model_kinds=("logistic", "linear_svm"),
                ranking_method="info_gain", k=3, seed=5, hyper=small_hyper(), threads=threads,
            ).to_json()
            for threads in (1, 3)
        ]
        assert runs[0] == runs[1]

    def test_empty_ks_rejected(self, bench_dataset):
        with pytest.raises(ValueError):
            feature_count_curve(bench_dataset, ks=())

    def test_degenerate_folds_are_flagged_per_run(self, small_corpus):
        # 4 malware rows in 5 folds: fold 4 holds no malware
        recipe = CompositionRecipe(
            malware_fraction=0.02, policy=DetectionLabelPolicy(threshold=1),
            target_size=200, seed=3,
        )
        dataset = compose_subset(small_corpus, recipe)
        assert int(dataset.labels.sum()) == 4
        report = feature_count_curve(
            dataset, ks=(2, 4), model_kinds=("logistic", "forest"),
            ranking_method="info_gain", k=5, seed=5, hyper=small_hyper(),
        )
        assert report.flags == [
            f"model {m} top_k {t}: fold 4 excluded: degenerate: single-class test chunk"
            for m in ("logistic", "forest") for t in (2, 4)
        ]
        assert "fold 4 excluded" in report_markdown(report)


class TestGridBenchmark:
    def test_small_grid(self, small_corpus):
        grid = dict(
            malware_fractions=(0.25, 0.5), thresholds=(1,), subset_size=200,
            model_kinds=("logistic",), seed=4,
        )
        report = grid_benchmark(
            small_corpus, **grid, top_k=5, ranking_method="info_gain",
            k=3, hyper=small_hyper(),
        )
        assert len(report.rows) == 2
        assert [r["malware_fraction"] for r in report.rows] == [0.25, 0.5]
        for row in report.rows:
            assert row["n_rows"] == 200
            assert 0.0 <= row["mean_test_f1"] <= 1.0
        # both cells belong to the published grid
        assert all(row["reference_test_f1"] is not None for row in report.rows)
        assert report.curves and report.curves[0]["kind"] == "f1-vs-fraction"

    def test_infeasible_cell_is_flagged_and_skipped(self):
        # detection counts never reach 4, so the 4-AV pool is empty
        corpus = Corpus.of(
            make_record(app_id=f"r{i}", developer_id=f"d{i % 7}",
                        issuer_id=f"i{i % 5}",
                        detection_count=(1 if i % 2 else 0),
                        size_bytes=1000 + 13 * i)
            for i in range(120)
        )
        grid = dict(
            malware_fractions=(0.5,), thresholds=(1, 4), subset_size=150,
            model_kinds=("logistic", "forest"), seed=2,
        )
        report = grid_benchmark(
            corpus, **grid, top_k=3, ranking_method="chi_squared",
            k=3, hyper=small_hyper(),
        )
        # the 1-AV cell shrinks to both pools; its flag is filed once, under its label
        assert report.flags == [
            "cell (0.5, 1-AV): shrunk to 120 rows (requested 150): pools malware=60 goodware=60",
            "cell (0.5, 4-AV) infeasible: no malware available at threshold 4",
        ]
        assert [r["threshold"] for r in report.rows] == [1, 1]

    def test_grid_is_thread_count_invariant(self, small_corpus):
        # no record reaches 54 detections, so the 54-AV cells are infeasible
        # and their flags come back from the workers
        grid = dict(
            malware_fractions=(0.25, 0.5), thresholds=(1, 54), subset_size=200,
            model_kinds=("logistic", "forest"), seed=4,
        )
        a, b = (
            grid_benchmark(
                small_corpus, **grid, top_k=5, ranking_method="info_gain",
                k=3, hyper=small_hyper(), threads=threads,
            )
            for threads in (1, 3)
        )
        assert a.to_json() == b.to_json()
        assert len(a.rows) == 4
        assert sum("54-AV) infeasible" in f for f in a.flags) == 2

    def test_model_kinds_share_one_ranking_per_fold(self, small_corpus, rank_calls):
        grid = dict(
            malware_fractions=(0.5,), thresholds=(1,), subset_size=200,
            model_kinds=("logistic", "linear_svm", "forest"), seed=4,
        )
        report = grid_benchmark(
            small_corpus, **grid, top_k=5, ranking_method="info_gain",
            k=3, hyper=small_hyper(),
        )
        assert len(report.rows) == 3
        assert rank_calls == ["info_gain"] * 3  # one per fold, not per model

    def test_rows_sorted_model_major(self, small_corpus):
        grid = dict(
            malware_fractions=(0.5,), thresholds=(1, 2), subset_size=200,
            model_kinds=("logistic", "forest"), seed=4,
        )
        report = grid_benchmark(
            small_corpus, **grid, top_k=5, ranking_method="info_gain",
            k=3, hyper=small_hyper(),
        )
        assert [(r["model"], r["threshold"]) for r in report.rows] == [
            ("logistic", 1), ("logistic", 2), ("forest", 1), ("forest", 2),
        ]

    def test_markdown_has_model_blocks_and_reference_note(self, small_corpus):
        grid = dict(
            malware_fractions=(0.5,), thresholds=(1,), subset_size=200,
            model_kinds=("logistic", "forest"), seed=4,
        )
        report = grid_benchmark(
            small_corpus, **grid, top_k=5, ranking_method="info_gain",
            k=3, hyper=small_hyper(),
        )
        md = report_markdown(report)
        assert "## Logistic Regression (train/test)" in md
        assert "## Random Forest (train/test)" in md
        assert "never asserted" in md


def test_logistic_not_converged_is_flagged_in_every_experiment(
    small_corpus, bench_dataset, monkeypatch
):
    monkeypatch.setattr("metatriage.learn._MAX_NEWTON_STEPS", 1)
    shared = dict(k=3, hyper=small_hyper())
    for model in ("logistic", "linear_svm"):
        reports = {
            "size 64": hash_size_sweep(
                bench_dataset, sizes=(64,), model_kind=model, seed=9, **shared
            ),
            f"model {model} top_k 2": feature_count_curve(
                bench_dataset, ks=(2,), model_kinds=(model,), ranking_method="info_gain",
                seed=5, **shared,
            ),
            f"cell (0.5, 1-AV) {model}": grid_benchmark(
                small_corpus, malware_fractions=(0.5,), thresholds=(1,), subset_size=200,
                model_kinds=(model,), seed=4, top_k=5, ranking_method="info_gain", **shared,
            ),
            "1-AV window 1": robustness_windows(
                small_corpus, window_width=3, n_windows=1, model_kind=model, thresholds=(1,),
                subset_size=200, seed=6, ranking_method="info_gain", **shared,
            ),
        }
        for label, report in reports.items():
            flags = [f for f in report.flags if "converge" in f]
            assert [f.rsplit(" (gradient norm ", 1)[0] for f in flags] == [
                f"{label}: fold {i}: {model} did not converge" for i in range(3)
            ]
            # flagged, not excluded
            assert len(report.rows) == 1
            assert all(v == v for v in report.rows[0].values() if isinstance(v, float))


def test_a_group_whose_runs_all_failed_has_no_curve(
    bench_dataset, permission_dataset, monkeypatch
):
    real = metatriage.bench.evaluate

    def evaluate(plan, model_kind, window=None):
        if model_kind == "logistic":
            raise ValueError("refused")
        return real(plan, model_kind, window)

    monkeypatch.setattr(metatriage.bench, "evaluate", evaluate)
    curve = feature_count_curve(
        bench_dataset, ks=(2,), model_kinds=("logistic", "forest"),
        ranking_method="info_gain", k=3, hyper=small_hyper(),
    )
    assert curve.flags == ["model logistic top_k 2 failed: refused"]
    assert [c["name"] for c in curve.curves] == ["Random Forest"]
    sweep = hash_size_sweep(permission_dataset, sizes=(8,), k=3, hyper=small_hyper())
    assert sweep.flags == ["size 8 failed: refused"]
    assert sweep.rows == [] and sweep.curves == []


class TestRobustnessWindows:
    @pytest.mark.parametrize("bad", [
        {"step": 0}, {"n_windows": 0}, {"window_width": 0}, {"step": -2},
    ])
    def test_window_counts_below_one_rejected(self, small_corpus, bad):
        name, value = next(iter(bad.items()))
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
            robustness_windows(small_corpus, **bad)

    def test_default_starts(self, small_corpus):
        report = robustness_windows(
            small_corpus, window_width=3, step=2, n_windows=2,
            thresholds=(1,), subset_size=200, k=3, seed=6,
            ranking_method="info_gain", hyper=small_hyper(),
        )
        assert report.config["starts"] == [1, 3]
        assert [(r["window_start"], r["window_end"]) for r in report.rows] == [
            (1, 3), (3, 5),
        ]
        # published pairs exist for (1, 1) and (1, 3)
        assert all(r["reference_test_f1"] is not None for r in report.rows)
        assert report.curves[0]["kind"] == "f1-vs-window"

    def test_windows_are_thread_count_invariant(self, small_corpus):
        a, b = (
            robustness_windows(
                small_corpus, window_width=3, step=2, n_windows=3,
                thresholds=(1, 2), subset_size=200, k=3, seed=6,
                ranking_method="info_gain", hyper=small_hyper(), threads=threads,
            )
            for threads in (1, 3)
        )
        assert a.to_json() == b.to_json()
        assert len(a.rows) == 6

    def test_windows_share_one_ranking_per_fold(self, small_corpus, rank_calls):
        report = robustness_windows(
            small_corpus, window_width=3, step=2, n_windows=3,
            thresholds=(1, 2), subset_size=200, k=3, seed=6,
            ranking_method="info_gain", hyper=small_hyper(),
        )
        assert len(report.rows) == 6
        # k rankings per threshold, not k per window
        assert rank_calls == ["info_gain"] * (2 * 3)

    def test_degenerate_folds_are_flagged_per_window(self, small_corpus):
        report = robustness_windows(
            small_corpus, window_width=3, step=2, n_windows=2, thresholds=(1,),
            malware_fraction=0.02, subset_size=200, k=5, seed=6,
            ranking_method="info_gain", hyper=small_hyper(),
        )
        assert len(report.rows) == 2
        assert report.flags == [
            f"1-AV window {start}: fold 4 excluded: degenerate: single-class test chunk"
            for start in (1, 3)
        ]

    def test_published_start_schedule(self):
        # the full 7-window schedule used by the published study
        starts = [1 + 2 * i for i in range(7)]
        assert starts == [1, 3, 5, 7, 9, 11, 13]

    def test_frozen_ranking_windows_slice_the_list(self, small_corpus):
        frozen = ["developer_rep", "issuer_rep", "cert_validity_days",
                  "age_in_market_days", "last_update_days"]
        report = robustness_windows(
            small_corpus, window_width=3, step=2, n_windows=2,
            thresholds=(1,), subset_size=200, k=3, seed=6,
            frozen_ranking=frozen, hyper=small_hyper(),
        )
        assert any(f.startswith("frozen-ranking") for f in report.flags)
        recipe = CompositionRecipe(
            malware_fraction=0.5, policy=DetectionLabelPolicy(threshold=1),
            target_size=200, seed=_derive_seed(6, 0),
        )
        subset = compose_subset(small_corpus, recipe)
        ev = cross_validate(
            subset, "forest", k=3, seed=_derive_seed(6, 0, 1),
            config=PipelineConfig(frozen_ranking=tuple(frozen), hyper=small_hyper()),
            window=(3, 3),
        )
        row = [r for r in report.rows if r["window_start"] == 3][0]
        assert row["mean_test_f1"] == ev.mean("test", "f1")


# sha256 of results.csv and report.json per experiment. Forest runs only:
# the linear fits' last bits depend on the BLAS build. The grid has one
# infeasible cell and robustness one infeasible threshold.
PINNED_OUTPUTS = {
    1: {
        "hash-size-sweep": (
            "82b0e8cc5b5f72efe97f085ce338899381d56946b7c53712a19222df0692092b",
            "9b8b7c511d5208a0488a62d96371c0f31f6fe5c2b0a9da818ea1ba798a25009b"),
        "feature-count-curve": (
            "dd5133c953c86fde13758d5fe2a590ad6346f08dda12a975eb4dc8085b4ba062",
            "65dcddfd4b009907983c60dcf827f54b8e899e669b7098f2ae5eefcc2b53ce6a"),
        "benchmark-grid": (
            "cddff32a4950e6dbc9eb93754ff7f6d0c795a7a6106a4ee0f570feb36ff3acfb",
            "8f339aa18d771481f476e9dbba145c95caa64b56b6db87800db478efc7590b0e"),
        "robustness-windows": (
            "a1ceedad6978777c9c45cd75da02c1290d1825134c69865f258e23d69d9899f2",
            "5d9317fd21e33feea748ea2a9b48ce20da00c9271aff19c35642db7619aef44c"),
    },
    7: {
        "hash-size-sweep": (
            "6cf82c19b72b749dbda777864ba19e9977e19ebbabb6f81b71b8fad764eee3f3",
            "595594242ca4d334c15cf2572824c3dd14f58375a011af06d4ac7613ce4bdaad"),
        "feature-count-curve": (
            "426d4ba9df9d8e181c61deda169c91996060e7ab5adcf5ef90f5dbbba85333c1",
            "4da3bf664d25124157ebde9457ad0fb23f62c2972e3b0e4a19f179747b102015"),
        "benchmark-grid": (
            "22d89bb15f14d5b37057047fced5f7509b49ca221eacc34dad817e5b3c6345b2",
            "efeee11595b89abdc80565fae87e94b83ad67bf52692720835bc9d5a32128d1d"),
        "robustness-windows": (
            "9be416b0e9c21c7169f7c14312161295429cf3111ce9a39d2f1f99014531f067",
            "c60b62b1b1c5ee592d7604f806b66ee2b77cab81978565c13d7094c3789a6831"),
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_OUTPUTS))
def test_experiment_output_bytes_are_pinned(tmp_path, seed):
    corpus = generate_synthetic(GeneratorConfig(n_apps=600), seed)
    dataset = compose_subset(
        corpus, CompositionRecipe(0.5, DetectionLabelPolicy(1), 300, seed=seed)
    )
    shared = dict(
        k=3, seed=seed, hyper=Hyperparams(forest=ForestParams(n_trees=5, max_depth=6, min_leaf=3))
    )
    reports = [
        hash_size_sweep(dataset, sizes=(16, 64), model_kind="forest", **shared),
        feature_count_curve(dataset, ks=(2, 6), model_kinds=("forest",), **shared),
        grid_benchmark(
            corpus, malware_fractions=(0.5,), thresholds=(1, 4, 10_000), subset_size=200,
            model_kinds=("forest",), top_k=5, **shared,
        ),
        robustness_windows(
            corpus, window_width=3, step=2, n_windows=2, thresholds=(4, 10_000),
            subset_size=200, **shared,
        ),
    ]
    assert sum("infeasible" in f for r in reports for f in r.flags) == 2
    for report in reports:
        out = tmp_path / report.experiment
        emit_report(report, str(out), formats=("csv",))
        digests = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("results.csv", "report.json")
        )
        assert digests == PINNED_OUTPUTS[seed][report.experiment], report.experiment
