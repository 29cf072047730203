import json
import os

import numpy as np
import pytest

from metatriage.cli import main
from metatriage.corpus import write_corpus

from test_corpus import make_record


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_path(work):
    path = work / "corpus.jsonl"
    code = main([
        "generate", "--out", str(path), "--n-apps", "600", "--seed", "3",
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def goodware_path(work):
    """A corpus with no detections at all."""
    records = [
        make_record(app_id=f"clean{i}", developer_id=f"d{i % 5}",
                    size_bytes=900 + 31 * i)
        for i in range(40)
    ]
    path = work / "goodware.jsonl"
    write_corpus(records, str(path))
    return path


class TestGenerate:
    def test_round_trips_deterministically(self, work, corpus_path, capsys):
        twin = work / "twin.jsonl"
        assert main(["generate", "--out", str(twin), "--n-apps", "600",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "corpus digest:" in out
        assert twin.read_bytes() == corpus_path.read_bytes()

    def test_seed_changes_output(self, work, corpus_path):
        other = work / "other-seed.jsonl"
        assert main(["generate", "--out", str(other), "--n-apps", "600",
                     "--seed", "4"]) == 0
        assert other.read_bytes() != corpus_path.read_bytes()

    def test_missing_out_is_a_usage_error(self):
        assert main(["generate", "--n-apps", "50"]) == 1

    def test_generator_flags_reach_the_config(self, work, capsys):
        path = work / "tiny.jsonl"
        assert main([
            "generate", "--out", str(path), "--n-apps", "200",
            "--n-developers", "12", "--seed", "1",
        ]) == 0
        capsys.readouterr()
        devs = {json.loads(line)["developer_id"]
                for line in path.read_text().splitlines()}
        assert len(devs) <= 12


class TestHistogram:
    def test_stdout_csv(self, corpus_path, capsys):
        assert main(["histogram", "--corpus", str(corpus_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "detections,apps"
        counts = [tuple(map(int, ln.split(","))) for ln in lines[1:]]
        assert all(c[0] >= 1 for c in counts)
        assert sum(c[1] for c in counts) > 0

    def test_out_file(self, corpus_path, work, capsys):
        out = work / "hist.csv"
        assert main(["histogram", "--corpus", str(corpus_path),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("detections,apps\n")


class TestFeaturize:
    def test_matrix_export(self, corpus_path, work, capsys):
        out = work / "features.csv"
        assert main(["featurize", "--corpus", str(corpus_path),
                     "--out", str(out), "--hash-buckets", "32"]) == 0
        capsys.readouterr()
        header, first = out.read_text().splitlines()[:2]
        columns = header.split(",")
        assert len(columns) == 32 + 15 + 7 + 2 + 1
        assert columns[0] == "f0"
        assert columns[-1] == "label"
        assert first.split(",")[-1] in ("0", "1")

    def test_no_admissible_records_is_a_data_error(self, work, capsys):
        # every record sits between goodware (0) and the 4-AV threshold
        records = [
            make_record(app_id=f"amb{i}", detection_count=2) for i in range(10)
        ]
        path = work / "ambiguous.jsonl"
        write_corpus(records, str(path))
        for command in ("featurize", "rank"):
            out = work / f"never-{command}.csv"
            assert main([command, "--corpus", str(path), "--out", str(out),
                         "--threshold", "4"]) == 2
            err = capsys.readouterr().err
            assert "error: no records admissible under the label policy" in err
            assert not out.exists()


class TestRank:
    def test_reputation_tops_the_info_gain_ranking(self, corpus_path, work, capsys):
        out = work / "ranking.csv"
        assert main(["rank", "--corpus", str(corpus_path), "--out", str(out),
                     "--method", "info_gain"]) == 0
        err = capsys.readouterr().err
        assert "top-15 (info_gain):" in err
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,column,method,raw,normalized"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "developer_rep"


class TestCv:
    def test_writes_artifacts(self, corpus_path, work, capsys):
        out = work / "cv-out"
        code = main([
            "cv", "--corpus", str(corpus_path), "--model", "logistic",
            "--k", "3", "--subset-size", "300", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        assert "test F1" in capsys.readouterr().out
        eval_doc = json.loads((out / "eval.json").read_text())
        assert eval_doc["model_kind"] == "logistic"
        assert eval_doc["k"] == 3
        assert len(eval_doc["folds"]) == 3
        folds = (out / "folds.csv").read_text().splitlines()
        assert folds[0].startswith("fold,threshold")
        assert len(folds) == 4
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["subcommand"] == "cv"
        assert len(prov["corpus_digest"]) == 64

    def test_provenance_records_merged_hyper(self, corpus_path, work, capsys):
        config = work / "cv-hyper.json"
        config.write_text(json.dumps({"hyper": {"logistic": {"epochs": 50}}}))
        out = work / "cv-hyper"
        assert main([
            "cv", "--corpus", str(corpus_path), "--model", "logistic",
            "--k", "2", "--subset-size", "200", "--config", str(config),
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        hyper = json.loads((out / "provenance.json").read_text())["options"]["hyper"]
        assert hyper["logistic"]["epochs"] == 50
        assert hyper["logistic"]["learning_rate"] == 0.1
        assert hyper["forest"]["n_trees"] == 60

    @pytest.mark.parametrize("hyper", [
        {"logistic": {"foo": 1}},
        {"boosting": {"n_trees": 5}},
        {"forest": {"n_trees": "5"}},
    ])
    def test_bad_config_hyper_is_a_usage_error(self, corpus_path, work, capsys, hyper):
        config = work / "cv-bad-hyper.json"
        config.write_text(json.dumps({"hyper": hyper}))
        assert main([
            "cv", "--corpus", str(corpus_path), "--model", "logistic",
            "--k", "2", "--subset-size", "200", "--config", str(config),
        ]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_single_class_corpus_is_a_data_error(self, goodware_path, capsys):
        code = main(["cv", "--corpus", str(goodware_path), "--k", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_paper_leaky_is_flagged(self, corpus_path, work, capsys):
        out = work / "cv-leaky"
        code = main([
            "cv", "--corpus", str(corpus_path), "--model", "logistic",
            "--k", "2", "--subset-size", "200", "--paper-leaky",
            "--out", str(out),
        ])
        assert code == 2 or code == 0  # single-class folds cannot happen here
        err = capsys.readouterr().err
        assert "leaky-reputation" in err
        doc = json.loads((out / "eval.json").read_text())
        assert any("leaky" in f for f in doc["flags"])


class TestExitCodes:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_flag(self, capsys):
        assert main(["cv", "--definitely-not-a-flag"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1
        capsys.readouterr()

    def test_missing_corpus_argument(self, capsys):
        assert main(["cv", "--k", "2"]) == 1
        assert "corpus" in capsys.readouterr().err

    def test_nonexistent_corpus_file(self, capsys):
        assert main(["cv", "--corpus", "/no/such/file.jsonl"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_json(self, work, capsys):
        bad = work / "bad-config.json"
        bad.write_text("{not json")
        assert main(["cv", "--corpus", "x.jsonl", "--config", str(bad)]) == 1
        capsys.readouterr()

    def test_config_must_be_an_object(self, work, capsys):
        arr = work / "array-config.json"
        arr.write_text("[1, 2]")
        assert main(["cv", "--corpus", "x.jsonl", "--config", str(arr)]) == 1
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "metatriage" in capsys.readouterr().out


class TestDryRun:
    def test_prints_config_and_touches_nothing(self, corpus_path, work, capsys):
        out = work / "never-created"
        code = main([
            "cv", "--corpus", str(corpus_path), "--model", "forest",
            "--k", "4", "--out", str(out), "--dry-run",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["subcommand"] == "cv"
        assert doc["tool"].startswith("metatriage ")
        assert doc["options"]["model"] == "forest"
        assert doc["options"]["k"] == 4
        assert not out.exists()

    def test_echoes_config_file_keys(self, work, capsys):
        config = work / "run-config.json"
        config.write_text(json.dumps({"k": 7, "model": "linear_svm"}))
        code = main(["cv", "--corpus", "unused.jsonl", "--config", str(config),
                     "--dry-run"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["options"]["k"] == 7
        assert doc["options"]["model"] == "linear_svm"


class TestConfigPrecedence:
    def test_cli_flag_beats_config_file(self, corpus_path, work, capsys):
        config = work / "precedence.json"
        config.write_text(json.dumps({"k": 3, "subset_size": 200}))
        out = work / "cv-precedence"
        code = main([
            "cv", "--corpus", str(corpus_path), "--config", str(config),
            "--model", "logistic", "--k", "2", "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        doc = json.loads((out / "eval.json").read_text())
        assert doc["k"] == 2  # CLI flag wins
        # subset size came from the config file
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["options"]["subset_size"] == 200


class TestBenchCommands:
    def test_sweep_writes_report_bundle(self, corpus_path, work, capsys):
        out = work / "sweep"
        code = main([
            "sweep-hashes", "--corpus", str(corpus_path), "--sizes", "8,16",
            "--k", "2", "--subset-size", "300", "--seed", "11",
            "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        present = set(os.listdir(out))
        assert {"results.csv", "report.md", "provenance.json",
                "report.json"} <= present
        assert any(name.endswith(".svg") for name in present)
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[0].startswith("size,")
        assert len(rows) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["hyper"]["logistic"]["epochs"] == 300

    def test_sweep_applies_config_hyper(self, corpus_path, work, capsys):
        config = work / "sweep-hyper.json"
        config.write_text(json.dumps({"hyper": {"logistic": {"epochs": 1}}}))
        out = work / "sweep-hyper"
        assert main([
            "sweep-hashes", "--corpus", str(corpus_path), "--sizes", "8",
            "--k", "2", "--subset-size", "200", "--seed", "11",
            "--config", str(config), "--out", str(out),
        ]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["hyper"]["logistic"]["epochs"] == 1

    def test_config_hyper_overrides_only_the_keys_it_names(self, corpus_path, work, capsys):
        config = work / "sweep-forest-hyper.json"
        config.write_text(json.dumps({"hyper": {"forest": {"n_trees": 5}}}))
        out = work / "sweep-forest-hyper"
        assert main([
            "sweep-hashes", "--corpus", str(corpus_path), "--sizes", "8",
            "--k", "2", "--subset-size", "200", "--seed", "11",
            "--config", str(config), "--out", str(out),
        ]) == 0
        capsys.readouterr()
        hyper = json.loads((out / "report.json").read_text())["config"]["hyper"]
        assert hyper["forest"]["n_trees"] == 5
        assert hyper["logistic"]["epochs"] == 300

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_a_usage_error(self, corpus_path, work, capsys, threads):
        out = work / f"sweep-threads{threads}"
        assert main([
            "sweep-hashes", "--corpus", str(corpus_path), "--sizes", "8",
            "--k", "2", "--subset-size", "200", "--threads", threads,
            "--out", str(out),
        ]) == 1
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()
        assert main([
            "sweep-hashes", "--corpus", str(corpus_path), "--threads", threads, "--dry-run",
        ]) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_sweep_is_deterministic_across_threads(self, corpus_path, work, capsys):
        a, b = work / "sweep-t1", work / "sweep-t8"
        for out, threads in ((a, "1"), (b, "8")):
            assert main([
                "sweep-hashes", "--corpus", str(corpus_path), "--sizes", "8,16",
                "--k", "2", "--subset-size", "300", "--seed", "11",
                "--threads", threads, "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "provenance.json").read_bytes() == (b / "provenance.json").read_bytes()

    def test_report_rerender_matches_original(self, corpus_path, work, capsys):
        src = work / "sweep-src"
        assert main([
            "sweep-hashes", "--corpus", str(corpus_path), "--sizes", "8",
            "--k", "2", "--subset-size", "200", "--seed", "11",
            "--out", str(src),
        ]) == 0
        dst = work / "sweep-rerender"
        assert main([
            "report", "--input", str(src / "report.json"), "--out", str(dst),
        ]) == 0
        capsys.readouterr()
        for name in ("results.csv", "report.md", "provenance.json"):
            assert (src / name).read_bytes() == (dst / name).read_bytes()

    def test_report_missing_input(self, capsys):
        assert main(["report", "--input", "/no/such/report.json"]) == 1
        capsys.readouterr()

    def test_tiny_benchmark_grid(self, corpus_path, work, capsys):
        out = work / "grid"
        code = main([
            "benchmark-grid", "--corpus", str(corpus_path),
            "--fractions", "0.5", "--thresholds", "1",
            "--models", "logistic", "--subset-size", "200",
            "--top-k", "4", "--method", "info_gain", "--k", "2",
            "--seed", "13", "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("logistic,0.5,1,200,")

    def test_tiny_robustness(self, corpus_path, work, capsys):
        out = work / "robustness"
        code = main([
            "robustness", "--corpus", str(corpus_path),
            "--thresholds", "1", "--n-windows", "2", "--window-width", "3",
            "--subset-size", "200", "--k", "2", "--method", "info_gain",
            "--seed", "13", "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert [r["window_start"] for r in report["rows"]] == [1, 3]

    def test_frozen_ranking_file(self, corpus_path, work, capsys):
        frozen = work / "frozen.txt"
        frozen.write_text("developer_rep\nissuer_rep\ncert_validity_days\n")
        out = work / "curve-frozen"
        code = main([
            "curve-features", "--corpus", str(corpus_path), "--ks", "2",
            "--models", "logistic", "--subset-size", "200", "--k", "2",
            "--frozen-ranking", str(frozen), "--seed", "13", "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert any(f.startswith("frozen-ranking") for f in report["flags"])

    def test_frozen_ranking_file_missing(self, corpus_path, capsys):
        assert main([
            "curve-features", "--corpus", str(corpus_path), "--ks", "2",
            "--frozen-ranking", "/no/such/frozen.txt",
        ]) == 1
        capsys.readouterr()
