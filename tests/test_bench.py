import contextlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import metatriage
from metatriage.bench import (
    BenchmarkGrid,
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
    DetectionLabelPolicy,
    compose_subset,
)
from metatriage.errors import ContractError, MetatriageError
from metatriage.evaluate import PipelineConfig, SelectionSpec, cross_validate
from metatriage.featurize import HashConfig
from metatriage.learn import ForestParams, Hyperparams, LogisticParams, SvmParams
from metatriage.reporting import report_markdown

from test_corpus import make_record


def small_hyper():
    return Hyperparams(
        logistic=LogisticParams(epochs=100),
        svm=SvmParams(epochs=5),
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
            columns=["size", "pooled_auc"],
            rows=[{"size": 8, "pooled_auc": 0.75}],
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
        grid = BenchmarkGrid()
        assert grid.n_cells == 9
        assert grid.subset_size == 5000


class TestEmitReport:
    def test_writes_all_formats(self, tmp_path):
        report = TestBenchReport().sample()
        written = emit_report(report, str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert {"results.csv", "report.md", "provenance.json",
                "report.json"} <= names
        assert "roc_curves.svg" in names
        csv_lines = (tmp_path / "results.csv").read_text().splitlines()
        assert csv_lines[0] == "size,pooled_auc"
        assert csv_lines[1] == "8,0.75"
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

    def test_sweep_is_thread_count_invariant(self, permission_dataset):
        a = hash_size_sweep(permission_dataset, sizes=(8, 16), k=3, seed=9,
                            hyper=small_hyper(), threads=1)
        b = hash_size_sweep(permission_dataset, sizes=(8, 16), k=3, seed=9,
                            hyper=small_hyper(), threads=4)
        assert a.to_json() == b.to_json()

    def test_empty_sizes_rejected(self, permission_dataset):
        with pytest.raises(ValueError):
            hash_size_sweep(permission_dataset, sizes=())


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
        spec = SelectionSpec(columns=tuple(frozen[:2]))
        ev = cross_validate(
            bench_dataset, "forest", k=3, seed=_derive_seed(5, 2),
            config=PipelineConfig(selection=spec, hyper=small_hyper()),
        )
        assert report.rows[0]["mean_test_f1"] == ev.mean("test", "f1")

    def test_empty_ks_rejected(self, bench_dataset):
        with pytest.raises(ValueError):
            feature_count_curve(bench_dataset, ks=())


class TestGridBenchmark:
    def test_small_grid(self, small_corpus):
        grid = BenchmarkGrid(
            malware_fractions=(0.25, 0.5), thresholds=(1,), subset_size=200,
            model_kinds=("logistic",), seed=4,
        )
        report = grid_benchmark(
            small_corpus, grid, top_k=5, ranking_method="info_gain",
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
        corpus = [
            make_record(app_id=f"r{i}", developer_id=f"d{i % 7}",
                        issuer_id=f"i{i % 5}",
                        detection_count=(1 if i % 2 else 0),
                        size_bytes=1000 + 13 * i)
            for i in range(120)
        ]
        grid = BenchmarkGrid(
            malware_fractions=(0.5,), thresholds=(1, 4), subset_size=60,
            model_kinds=("forest",), seed=2,
        )
        report = grid_benchmark(
            corpus, grid, top_k=3, ranking_method="chi_squared",
            k=3, hyper=small_hyper(),
        )
        assert any("infeasible" in f and "4-AV" in f for f in report.flags)
        assert [r["threshold"] for r in report.rows] == [1]

    def test_grid_is_thread_count_invariant(self, small_corpus):
        # no record reaches 54 detections, so the 54-AV cells are infeasible
        # and their flags come back from the workers
        grid = BenchmarkGrid(
            malware_fractions=(0.25, 0.5), thresholds=(1, 54), subset_size=200,
            model_kinds=("logistic", "forest"), seed=4,
        )
        a, b = (
            grid_benchmark(
                small_corpus, grid, top_k=5, ranking_method="info_gain",
                k=3, hyper=small_hyper(), threads=threads,
            )
            for threads in (1, 3)
        )
        assert a.to_json() == b.to_json()
        assert len(a.rows) == 4
        assert sum("54-AV) infeasible" in f for f in a.flags) == 2

    def test_rows_sorted_model_major(self, small_corpus):
        grid = BenchmarkGrid(
            malware_fractions=(0.5,), thresholds=(1, 2), subset_size=200,
            model_kinds=("logistic", "forest"), seed=4,
        )
        report = grid_benchmark(
            small_corpus, grid, top_k=5, ranking_method="info_gain",
            k=3, hyper=small_hyper(),
        )
        assert [(r["model"], r["threshold"]) for r in report.rows] == [
            ("logistic", 1), ("logistic", 2), ("forest", 1), ("forest", 2),
        ]

    def test_markdown_has_model_blocks_and_reference_note(self, small_corpus):
        grid = BenchmarkGrid(
            malware_fractions=(0.5,), thresholds=(1,), subset_size=200,
            model_kinds=("logistic", "forest"), seed=4,
        )
        report = grid_benchmark(
            small_corpus, grid, top_k=5, ranking_method="info_gain",
            k=3, hyper=small_hyper(),
        )
        md = report_markdown(report)
        assert "## Logistic Regression (train/test)" in md
        assert "## Random Forest (train/test)" in md
        assert "never asserted" in md


class TestRobustnessWindows:
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
        subset = compose_subset(list(small_corpus), recipe)
        spec = SelectionSpec(columns=tuple(frozen[2:5]))  # window start 3
        ev = cross_validate(
            subset, "forest", k=3, seed=_derive_seed(6, 0, 1),
            config=PipelineConfig(selection=spec, hyper=small_hyper()),
        )
        row = [r for r in report.rows if r["window_start"] == 3][0]
        assert row["mean_test_f1"] == ev.mean("test", "f1")
