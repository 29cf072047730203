import contextlib
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import metatriage
from metatriage import bench
from metatriage.cli import main
from metatriage.corpus import (
    Corpus, DetectionLabelPolicy, corpus_digest, label_dataset, load_corpus, write_corpus,
)
from metatriage.featurize import HashConfig, assemble_features, build_reputation_table

from test_corpus import make_record


@contextlib.contextmanager
def address_space_headroom(extra=2 << 30):
    """Cap this process's address space at its current size plus `extra`
    bytes while the body runs, so a check that fails too late raises
    MemoryError instead of exhausting the host's memory."""
    try:
        import resource

        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (ImportError, OSError):
        yield
        return
    previous = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra
    if previous[1] != resource.RLIM_INFINITY:
        cap = min(cap, previous[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, previous[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, previous)


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
    records = Corpus.of(
        make_record(app_id=f"clean{i}", developer_id=f"d{i % 5}",
                    size_bytes=900 + 31 * i)
        for i in range(40)
    )
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

    @pytest.mark.parametrize("name", ["digest.jsonl", "digest.csv"])
    def test_printed_digest_is_the_digest_of_the_loaded_corpus(self, work, capsys, name):
        path = work / name
        assert main(["generate", "--out", str(path), "--n-apps", "300", "--seed", "8"]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        digest = corpus_digest(load_corpus(str(path)).records)
        assert printed == f"corpus digest: {digest}"

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

    @pytest.mark.parametrize("generator,message", [
        ({"signal_strengths": 5}, "'generator.signal_strengths' must hold a JSON object"),
        ({"engine_count_distribution": "zipf"},
         "'generator.engine_count_distribution' must hold a JSON object"),
        (5, "'generator' must hold a JSON object"),
        ({"n_appz": 10}, "unknown config key 'generator.n_appz'"),
        ({"n_apps": "10"}, "n_apps must be an integer"),
        ({"n_apps": 10.5}, "n_apps must be an integer"),
        ({"malware_rate": True}, "malware_rate must be a finite number"),
        ({"signal_strengths": {"social": None}}, "social must be a finite number"),
        ({"engine_count_distribution": {"max": 3}},
         "unknown config key 'generator.engine_count_distribution.max'"),
    ])
    def test_bad_generator_config_is_a_usage_error(self, work, capsys, generator, message):
        config = work / "bad-generator.json"
        config.write_text(json.dumps({"generator": generator}))
        out = work / "bad-generator.jsonl"
        assert main(["generate", "--config", str(config), "--out", str(out),
                     "--s-social", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert message in err
        assert not out.exists()

    def test_flags_override_generator_config_sections(self, work, capsys):
        config = work / "generator.json"
        config.write_text(json.dumps({"generator": {
            "n_apps": 300, "signal_strengths": {"social": 0.5},
            "engine_count_distribution": {"max_count": 4},
        }}))
        a, b = work / "gen-config.jsonl", work / "gen-flags.jsonl"
        assert main(["generate", "--config", str(config), "--out", str(a),
                     "--n-apps", "120", "--s-social", "0.9", "--zipf-exponent", "1.2"]) == 0
        assert main(["generate", "--out", str(b), "--n-apps", "120", "--s-social", "0.9",
                     "--zipf-exponent", "1.2", "--zipf-max", "4"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert max(json.loads(line)["detection_count"] for line in a.read_text().splitlines()) <= 4


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

    def test_export_is_the_float_repr_of_every_value(self, corpus_path, work, capsys):
        out = work / "features-t2.csv"
        assert main(["featurize", "--corpus", str(corpus_path), "--out", str(out),
                     "--hash-buckets", "64", "--threshold", "2", "--alpha", "0.5"]) == 0
        capsys.readouterr()
        dataset = label_dataset(load_corpus(str(corpus_path)).records, DetectionLabelPolicy(2))
        table = build_reputation_table(dataset.records, dataset.labels, alpha=0.5)
        matrix = assemble_features(dataset.records, HashConfig(64), table)
        lines = [",".join(matrix.column_names + ("label",))] + [
            ",".join(repr(float(v)) for v in row) + f",{int(label)}"
            for row, label in zip(matrix.values, dataset.labels)
        ]
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_no_admissible_records_is_a_data_error(self, work, capsys):
        # every record sits between goodware (0) and the 4-AV threshold
        records = Corpus.of(
            make_record(app_id=f"amb{i}", detection_count=2) for i in range(10)
        )
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
        config.write_text(json.dumps({"hyper": {"logistic": {"tolerance": 1e-4}}}))
        out = work / "cv-hyper"
        assert main([
            "cv", "--corpus", str(corpus_path), "--model", "logistic",
            "--k", "2", "--subset-size", "200", "--config", str(config),
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        hyper = json.loads((out / "provenance.json").read_text())["options"]["hyper"]
        assert hyper["logistic"] == {"tolerance": 1e-4}
        assert hyper["forest"]["n_trees"] == 60

    @pytest.mark.parametrize("model,removed", [
        pytest.param("logistic", "epochs", id="epochs"),
        pytest.param("logistic", "learning_rate", id="learning_rate"),
        pytest.param("logistic", "l2_lambda", id="l2_lambda"),
        pytest.param("svm", "epochs", id="svm-epochs"),
        pytest.param("svm", "regularization_c", id="svm-regularization_c"),
        pytest.param("svm", "seed", id="svm-seed"),
    ])
    def test_removed_logistic_settings_are_usage_errors(
        self, corpus_path, work, capsys, model, removed
    ):
        config = work / "cv-removed.json"
        config.write_text(json.dumps({"hyper": {model: {removed: 1}}}))
        assert main([
            "cv", "--corpus", str(corpus_path), "--model", "logistic",
            "--k", "2", "--subset-size", "200", "--config", str(config),
        ]) == 1
        assert f"unknown config key 'hyper.{model}.{removed}'" in capsys.readouterr().err

    def test_logistic_not_converged_is_flagged(self, corpus_path, work, capsys, monkeypatch):
        monkeypatch.setattr("metatriage.learn._MAX_NEWTON_STEPS", 1)
        for model in ("logistic", "linear_svm"):
            out = work / f"cv-capped-{model}"
            assert main([
                "cv", "--corpus", str(corpus_path), "--model", model,
                "--k", "2", "--subset-size", "200", "--out", str(out),
            ]) == 0
            err = capsys.readouterr().err
            doc = json.loads((out / "eval.json").read_text())
            for fold in (0, 1):
                flag = next(f for f in doc["flags"] if f.startswith(f"fold {fold}: "))
                assert flag.startswith(f"fold {fold}: {model} did not converge (gradient norm ")
                assert f"flag: {flag}" in err
            # flagged, not excluded: both folds count in the means
            test_f1 = [f["test"]["f1"] for f in doc["folds"]]
            assert doc["means"]["test"]["f1"] == pytest.approx(np.mean(test_f1))

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

    @pytest.mark.parametrize("n_trees", [True, 2.5, "3"])
    def test_forest_tree_count_must_be_an_integer(self, corpus_path, work, capsys, n_trees):
        config = work / "cv-bad-trees.json"
        config.write_text(json.dumps({"hyper": {"forest": {"n_trees": n_trees}}}))
        assert main([
            "cv", "--corpus", str(corpus_path), "--model", "forest",
            "--k", "2", "--subset-size", "200", "--config", str(config),
        ]) == 1
        assert "n_trees must be an integer" in capsys.readouterr().err

    def test_non_finite_size_is_a_skipped_record(self, corpus_path, work, capsys):
        lines = corpus_path.read_text().splitlines()
        lines[0] = re.sub(r'"size_bytes":\d+', '"size_bytes":Infinity', lines[0])
        path = work / "infinite-size.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main([
            "cv", "--corpus", str(path), "--model", "forest", "--k", "2",
            "--subset-size", "100",
        ]) == 0
        assert "warning: 1 malformed records skipped" in capsys.readouterr().err

    def test_integer_past_float64_is_a_skipped_record(self, corpus_path, work, capsys):
        # 10**400 has no float64 value; featurizing it raised OverflowError.
        lines = corpus_path.read_text().splitlines()[:400]
        lines[7] = re.sub(r'"size_bytes":\d+', f'"size_bytes":{10**400}', lines[7])
        path = work / "huge-size.jsonl"
        path.write_text("\n".join(lines) + "\n")
        out = work / "huge-size-features.csv"
        assert main([
            "featurize", "--corpus", str(path), "--threshold", "1", "--out", str(out),
        ]) == 0
        assert "warning: 1 malformed records skipped" in capsys.readouterr().err

    def test_integers_past_float64_count_against_the_error_budget(
        self, corpus_path, work, capsys
    ):
        # 10**308 fits a float64 but overflows when standardized; 300 such
        # records pass the 100-record budget and the load fails.
        lines = corpus_path.read_text().splitlines()
        lines[::2] = [re.sub(r'"size_bytes":\d+', f'"size_bytes":{10**308}', line)
                      for line in lines[::2]]
        path = work / "huge-sizes.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["cv", "--corpus", str(path), "--model", "logistic", "--k", "3"]) == 2
        assert "more than 100 malformed records" in capsys.readouterr().err

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
        err = capsys.readouterr().err
        assert "cannot read corpus file /no/such/file.jsonl: No such file or directory" in err

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


class TestOptionTypes:
    @pytest.mark.parametrize("command,config", [
        ("cv", {"k": "3"}),
        ("curve-features", {"k": "3"}),
        ("benchmark-grid", {"k": "3"}),
        ("cv", {"k": 2.5}),
        ("benchmark-grid", {"k": True}),
        ("cv", {"top_k": "5"}),
        ("cv", {"seed": "x"}),
        ("cv", {"threshold": "2"}),
        ("cv", {"subset_size": "100"}),
        ("cv", {"hash_buckets": "8"}),
        ("cv", {"malware_fraction": "0.5"}),
        ("cv", {"paper_leaky": "no"}),
        ("cv", {"subsetsize": 100}),
        ("benchmark-grid", {"thresholds": 2}),
        ("benchmark-grid", {"models": "logistic"}),
        ("curve-features", {"ks": "1,2"}),
        ("sweep-hashes", {"threads": True}),
        ("report", {"formats": "csv"}),
        ("featurize", {"alpha": 10**400}),
        ("benchmark-grid", {"fractions": [0.5, -(10**309)]}),
    ])
    def test_bad_config_value_is_a_usage_error(self, corpus_path, work, capsys, command, config):
        (key,) = config
        path = work / "bad-value.json"
        path.write_text(json.dumps(config))
        out = work / "bad-value-out"
        source = ["--input", str(work / "report.json")] if command == "report" else [
            "--corpus", str(corpus_path)]
        assert main([command, *source, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert f"config key {key!r}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value,message", [
        ("benchmark-grid", "--models", "logistic,boosting", "--models must be a list"),
        ("cv", "--k", "2.5", "--k must be an integer"),
        ("benchmark-grid", "--fractions", "0.5,x", "--fractions must be a list"),
        ("cv", "--malware-fraction", "nan", "--malware-fraction must be a finite number"),
        ("robustness", "--step", "0", "step must be at least 1, got 0"),
        ("robustness", "--n-windows", "0", "n_windows must be at least 1, got 0"),
    ])
    def test_bad_flag_value_is_a_usage_error(
        self, corpus_path, work, capsys, command, flag, value, message
    ):
        out = work / "bad-flag-out"
        assert main([command, "--corpus", str(corpus_path), "--subset-size", "200",
                     "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command,args,message", [
        ("cv", ["--k", "1"], "--k must be an integer of at least 2, got '1'"),
        ("cv", ["--top-k", "0"], "--top-k must be an integer of at least 1, got '0'"),
        ("benchmark-grid", ["--k", "1", "--fractions", "0.5", "--thresholds", "1",
                            "--models", "logistic"], "--k must be an integer of at least 2"),
        ("curve-features", ["--ks", "0"],
         "--ks must be a list whose items are each an integer of at least 1, got '0'"),
        ("robustness", ["--config", "K1"], "config key 'k' must be an integer of at least 2"),
    ])
    def test_counts_below_their_minimum_are_usage_errors(
        self, corpus_path, work, capsys, command, args, message
    ):
        config = work / "k1.json"
        config.write_text(json.dumps({"k": 1}))
        args = [str(config) if a == "K1" else a for a in args]
        out = work / f"below-minimum-{command}"
        assert main([command, "--corpus", str(corpus_path), "--subset-size", "200",
                     "--out", str(out), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command,args,config,message", [
        ("robustness", ["--thresholds", "1,1", "--n-windows", "2", "--window-width", "3"], None,
         "--thresholds repeats 1"),
        ("sweep-hashes", ["--sizes", "16,16"], None, "--sizes repeats 16"),
        ("benchmark-grid", [], {"fractions": [0.25, 0.5, 0.25]},
         "config key 'fractions' repeats 0.25"),
        ("curve-features", [], {"models": ["forest", "logistic", "forest"]},
         "config key 'models' repeats 'forest'"),
    ])
    def test_repeated_list_items_are_usage_errors(
        self, corpus_path, work, capsys, command, args, config, message
    ):
        if config is not None:
            path = work / "repeated.json"
            path.write_text(json.dumps(config))
            args = ["--config", str(path)]
        out = work / f"repeated-{command}"
        assert main([command, "--corpus", str(corpus_path), "--out", str(out), *args]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: {message}\n"
        assert not out.exists()

    def test_dry_run_prints_the_options_a_run_records(self, corpus_path, work, capsys):
        out = work / "cv-dry"
        argv = ["cv", "--corpus", str(corpus_path), "--model", "logistic", "--k", "2",
                "--subset-size", "200", "--seed", "5", "--out", str(out)]
        assert main([*argv, "--dry-run"]) == 0
        dry = json.loads(capsys.readouterr().out)
        assert not out.exists()
        assert main(argv) == 0
        capsys.readouterr()
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["options"] == dry["options"]
        assert {"method", "malware_fraction", "hyper"} <= set(dry["options"])

    # bench parameter -> the option that sets it, where the names differ
    OPTION_OF = {"model_kind": "model", "model_kinds": "models", "malware_fractions": "fractions",
                 "ranking_method": "method", "leaky_reputation": "paper_leaky"}

    @pytest.mark.parametrize("command,experiment", [
        ("sweep-hashes", bench.hash_size_sweep),
        ("curve-features", bench.feature_count_curve),
        ("benchmark-grid", bench.grid_benchmark),
        ("robustness", bench.robustness_windows),
    ])
    def test_defaults_match_the_bench_signature(self, corpus_path, capsys, command, experiment):
        assert main([command, "--corpus", str(corpus_path), "--dry-run"]) == 0
        options = json.loads(capsys.readouterr().out)["options"]
        expected = {}
        for name, param in inspect.signature(experiment).parameters.items():
            default = param.default
            if default is inspect.Parameter.empty:
                continue
            if name == "ambiguous_handling":
                expected["ambiguous_as_goodware"] = default == "goodware"
            else:
                expected[self.OPTION_OF.get(name, name)] = (
                    asdict(default) if name == "hyper" else default)
        expected = json.loads(json.dumps(expected))
        assert {name: options[name] for name in expected} == expected


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


class TestConfigSections:
    """`hyper` and `generator` are decoded by one rule: a bad key or value
    is a usage error that names its full path, in every subcommand."""

    def run(self, work, corpus_path, capsys, doc, command="cv"):
        config = work / "sections.json"
        config.write_text(json.dumps(doc))
        argv = ["generate", "--out", str(work / "sections.jsonl")] if command == "generate" else [
            "cv", "--corpus", str(corpus_path), "--model", "logistic", "--k", "2",
            "--subset-size", "200"]
        code = main([*argv, "--config", str(config)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cv", "generate"])
    @pytest.mark.parametrize("doc,path", [
        ({"generator": {"n_appz": 10}}, "generator.n_appz"),
        ({"generator": {"signal_strengths": {"socail": 0.1}}},
         "generator.signal_strengths.socail"),
        ({"hyper": {"forest": {"n_treez": 5}}}, "hyper.forest.n_treez"),
        ({"hyper": {"svm": {"C": 1}}}, "hyper.svm.C"),
        ({"hyper": {"boosting": {"n_trees": 5}}}, "hyper.boosting"),
    ])
    def test_unknown_key_is_named_by_its_full_path(
        self, work, corpus_path, capsys, command, doc, path
    ):
        code, err = self.run(work, corpus_path, capsys, doc, command)
        assert code == 1
        assert err == f"usage error: unknown config key {path!r}\n"

    @pytest.mark.parametrize("doc,path", [
        ({"hyper": 5}, "hyper"),
        ({"hyper": {"forest": [1]}}, "hyper.forest"),
        ({"generator": "zipf"}, "generator"),
        ({"generator": {"engine_count_distribution": None}}, "generator.engine_count_distribution"),
    ])
    def test_non_object_section_is_named_by_its_path(self, work, corpus_path, capsys, doc, path):
        code, err = self.run(work, corpus_path, capsys, doc)
        assert code == 1
        assert err.startswith(f"usage error: config key {path!r} must hold a JSON object, got ")

    @pytest.mark.parametrize("doc,message", [
        ({"hyper": {"forest": {"min_leaf": 0}}},
         "config key 'hyper.forest': forest hyperparameters must be positive"),
        ({"hyper": {"logistic": {"tolerance": True}}},
         "config key 'hyper.logistic': tolerance must be a finite number, got True"),
        ({"generator": {"n_developers": 10**30}},
         f"config key 'generator': n_developers must be at most 1000000, got {10**30}"),
        ({"generator": {"signal_strengths": {"social": 2}}},
         "config key 'generator.signal_strengths': signal strength social must be in [0, 1]"),
        # once an OverflowError traceback from the detection-count law
        ({"generator": {"engine_count_distribution": {"exponent": 10**400}}},
         "config key 'generator.engine_count_distribution': exponent must be a finite number"),
    ])
    def test_refused_value_is_named_by_its_section(self, work, corpus_path, capsys, doc, message):
        code, err = self.run(work, corpus_path, capsys, doc)
        assert code == 1
        assert err.startswith(f"usage error: {message}")


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
        assert report["config"]["hyper"]["logistic"] == {"tolerance": 1e-6}

    def test_sweep_applies_config_hyper(self, corpus_path, work, capsys):
        config = work / "sweep-hyper.json"
        config.write_text(json.dumps({"hyper": {"logistic": {"tolerance": 0.5}}}))
        out = work / "sweep-hyper"
        assert main([
            "sweep-hashes", "--corpus", str(corpus_path), "--sizes", "8",
            "--k", "2", "--subset-size", "200", "--seed", "11",
            "--config", str(config), "--out", str(out),
        ]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["hyper"]["logistic"]["tolerance"] == 0.5

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
        assert hyper["logistic"]["tolerance"] == 1e-6

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

    @pytest.mark.parametrize("doc,missing", [
        ({}, "experiment, config, columns, rows"),
        ({"experiment": "sweep", "config": {}, "columns": ["a"]}, "rows"),
    ])
    def test_report_with_missing_keys_is_a_data_error(self, work, capsys, doc, missing):
        path = work / "partial-report.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--input", str(path), "--out", str(work / "partial")]) == 2
        assert f"report is missing key(s): {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("rows", 5), ("rows", [1]), ("columns", ["a", 2]), ("experiment", 3),
        ("config", []), ("flags", "x"), ("curves", [[]]), ("provenance", []),
    ])
    def test_report_with_a_wrong_type_is_a_data_error(self, work, capsys, key, value):
        doc = {"experiment": "sweep", "config": {}, "columns": ["a"], "rows": [], key: value}
        path = work / "mistyped-report.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--input", str(path), "--out", str(work / "mistyped")]) == 2
        assert f"error: report key {key!r} must be a " in capsys.readouterr().err
        assert not (work / "mistyped").exists()

    @staticmethod
    def sweep_report() -> dict:
        """A hash-size-sweep report.json as `sweep-hashes` writes it."""
        return {
            "experiment": "hash-size-sweep", "config": {"sizes": [8, 16]},
            "columns": ["size", "pooled_auc", "mean_test_auc", "std_test_auc", "mean_test_f1"],
            "rows": [
                {"size": size, "pooled_auc": auc, "mean_test_auc": 0.7,
                 "std_test_auc": 0.01, "mean_test_f1": 0.6}
                for size, auc in ((8, 0.71), (16, None))
            ],
            "curves": [
                {"name": "ROC 8 buckets", "kind": "roc", "x": [0.0, 0.5, 1.0],
                 "y": [0.0, 0.75, 1.0]},
                {"name": "pooled AUC", "kind": "auc-vs-size", "x": [8.0], "y": [0.71]},
            ],
            "provenance": {"config_digest": "c", "corpus_digest": "d"},
        }

    @pytest.mark.parametrize("mutate,message", [
        (lambda doc: doc["rows"][0].pop("mean_test_f1"),
         "report row 0 lacks a valid 'mean_test_f1'"),
        (lambda doc: doc["curves"][0].pop("y"), "report curve 0 must hold"),
        (lambda doc: doc["curves"][0].update(x=["0", "1"], y=["a", "b"]), "report curve 0 must hold"),
        (lambda doc: doc["curves"][1].update(x=[0.0, 8.0], y=[0.5, 0.71]),
         "report curve 1 must hold a name, a kind, finite x values (positive on a log2 axis)"),
    ], ids=["row-lacks-a-column", "curve-without-y", "curve-of-strings", "log-x-at-zero"])
    def test_report_that_cannot_render_is_a_data_error(self, work, capsys, mutate, message):
        doc = self.sweep_report()
        mutate(doc)
        path = work / "bad-report.json"
        path.write_text(json.dumps(doc))
        out = work / "bad-report"
        assert main(["report", "--input", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_report_with_an_overlong_integer_is_a_data_error(self, work, capsys):
        path = work / "overlong-report.json"
        path.write_text(json.dumps(self.sweep_report()).replace("0.71", "9" * 5000, 1))
        assert main(["report", "--input", str(path), "--out", str(work / "overlong")]) == 2
        assert "error: report file is not valid JSON" in capsys.readouterr().err

    def test_report_curve_at_one_huge_x_renders(self, work, capsys):
        doc = self.sweep_report()
        doc["curves"][0].update(x=[1e30, 1e30])
        path = work / "huge-x-report.json"
        path.write_text(json.dumps(doc))
        out = work / "huge-x"
        assert main(["report", "--input", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert "<polyline" in (out / "roc_curves.svg").read_text()

    def test_report_of_an_unknown_experiment_writes_nothing(self, work, capsys, monkeypatch):
        doc = dict(self.sweep_report(), experiment="../escaped")
        path = work / "escaping-report.json"
        path.write_text(json.dumps(doc))
        cwd = work / "escape-cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["report", "--input", str(path)]) == 2
        assert "unknown experiment '../escaped'" in capsys.readouterr().err
        assert list(cwd.iterdir()) == []

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

    @pytest.mark.parametrize("command", ["curve-features", "robustness", "benchmark-grid"])
    @pytest.mark.parametrize("names,message", [
        ("developer_rep\nbogus\n", "names no feature column: 'bogus'"),
        ("developer_rep\nissuer_rep\ndeveloper_rep\n", "names 'developer_rep' twice"),
    ])
    def test_frozen_ranking_names_must_be_distinct_columns(
        self, corpus_path, work, capsys, command, names, message
    ):
        frozen = work / "frozen-bad.txt"
        frozen.write_text(names)
        out = work / f"frozen-bad-{command}"
        assert main([
            command, "--corpus", str(corpus_path), "--subset-size", "200", "--k", "2",
            "--frozen-ranking", str(frozen), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()

    # Each command's flags for rank windows whose last rank is `last`.
    WINDOW_FLAGS = {
        "cv": lambda last: ["--top-k", str(last), "--model", "logistic", "--hash-buckets", "8"],
        "curve-features": lambda last: ["--ks", f"1,{last}", "--models", "logistic"],
        "benchmark-grid": lambda last: [
            "--top-k", str(last), "--fractions", "0.5", "--thresholds", "1",
            "--models", "logistic",
        ],
        "robustness": lambda last: [
            "--window-width", str(last - 1), "--step", "1", "--n-windows", "2",
            "--thresholds", "1", "--model", "logistic",
        ],
    }

    @pytest.mark.parametrize("past_end", [False, True])
    @pytest.mark.parametrize("command,frozen", [
        ("cv", False),  # cv has no frozen ranking
        ("curve-features", False), ("curve-features", True),
        ("benchmark-grid", False), ("benchmark-grid", True),
        ("robustness", False), ("robustness", True),
    ])
    def test_rank_windows_end_within_the_column_order(
        self, corpus_path, work, capsys, command, frozen, past_end
    ):
        # a ranked order holds every column: 512 hash buckets + 24, or 8 + 24
        # for this cv; a frozen order holds the names of its file
        n = 3 if frozen else 32 if command == "cv" else 536
        last = n + past_end
        out = work / f"window-{command}-{frozen}-{past_end}"
        argv = [
            command, "--corpus", str(corpus_path), "--subset-size", "200", "--k", "2",
            "--method", "info_gain", "--seed", "13", "--out", str(out),
            *self.WINDOW_FLAGS[command](last),
        ]
        if frozen:
            path = work / "frozen-three.txt"
            path.write_text("developer_rep\nissuer_rep\ncert_validity_days\n")
            argv += ["--frozen-ranking", str(path)]
        code = main(argv)
        err = capsys.readouterr().err
        if not past_end:
            assert code == 0
            assert out.exists()
            return
        assert code == 1
        first = 2 if command == "robustness" else 1
        assert err.startswith(f"usage error: ranks {first}-{last} are out of range")
        assert f"the column order has {n} columns" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,message", [
        # each once ended in a traceback: OverflowError in the hashing, and
        # MemoryError in naming 10**9 columns and in listing 10**12 starts
        ("featurize", ["--hash-buckets", str(10**20)],
         "n_buckets must be between 1 and 65536, got 100000000000000000000"),
        ("sweep-hashes", ["--sizes", "32," + str(10**9)],
         "n_buckets must be between 1 and 65536, got 1000000000"),
        ("robustness", ["--n-windows", str(10**12), "--thresholds", "1"],
         "ranks 1999999999999-2000000000013 are out of range"),
    ])
    def test_huge_counts_fail_before_any_work(self, corpus_path, work, capsys, command, flags,
                                              message):
        out = work / f"huge-{command}"
        with address_space_headroom():
            code = main([command, "--corpus", str(corpus_path), "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"usage error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,message", [
        # each once ended in a traceback (MemoryError) or in numpy's
        # "Maximum allowed size exceeded", which names no option
        ("generate", ["--n-apps", str(10**12)], "n_apps must be at most 1000000"),
        ("generate", ["--permission-vocabulary-size", str(10**10)],
         "permission_vocabulary_size must be at most 100000"),
        ("generate", ["--zipf-max", str(10**19)], "max_count must be at most 10000"),
        ("rank", ["--method", "borda", "--n-bins", str(10**12)],
         "n_bins must be between 2 and 65536, got 1000000000000"),
        ("rank", ["--n-bins", "1"], "n_bins must be between 2 and 65536, got 1"),
        # numpy's "high is out of bounds for int64", which names no option
        ("generate", ["--n-apps", "50", "--n-developers", str(10**30)],
         "n_developers must be at most 1000000"),
        ("generate", ["--n-apps", "50", "--n-issuers", str(10**30)],
         "n_issuers must be at most 1000000"),
    ])
    def test_sizes_past_their_maximum_fail_before_any_work(
        self, corpus_path, work, capsys, command, flags, message
    ):
        out = work / f"past-maximum-{command}"
        source = [] if command == "generate" else ["--corpus", str(corpus_path)]
        with address_space_headroom():
            code = main([command, *source, "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"usage error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,mtry,bound", [
        # the first two once exited 2 at fit time; the third exited 0 with
        # no rows and a "failed" flag
        ("cv", ["--k", "3"], 10**12, 536),
        ("cv", ["--k", "3", "--top-k", "15"], 16, 15),
        ("robustness", ["--subset-size", "60", "--k", "2", "--thresholds", "1",
                        "--n-windows", "1"], 16, 15),
        ("benchmark-grid", ["--models", "logistic,forest", "--top-k", "4"], 5, 4),
        ("curve-features", ["--models", "forest", "--ks", "8,3"], 4, 3),
        ("sweep-hashes", ["--model", "forest", "--sizes", "64,32"], 33, 32),
    ])
    def test_mtry_past_a_forests_columns_fails_before_any_fold(
        self, corpus_path, work, capsys, monkeypatch, command, flags, mtry, bound
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a fold was prepared")

        monkeypatch.setattr("metatriage.evaluate.prepare_folds", refuse)
        monkeypatch.setattr("metatriage.bench.prepare_folds", refuse)
        config = work / f"mtry-{command}.json"
        config.write_text(json.dumps({"hyper": {"forest": {"mtry": mtry}}}))
        out = work / f"mtry-{command}"
        code = main([command, "--corpus", str(corpus_path), "--config", str(config),
                     "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(
            f"usage error: hyper.forest.mtry {mtry} exceeds the {bound} columns a forest sees")
        assert not out.exists()

    def test_tree_count_past_its_maximum_fails_before_any_work(self, corpus_path, work, capsys):
        # 10**8 trees once ran past a 30 s timeout under a 2 GB address-space cap
        config = work / "huge-forest.json"
        config.write_text(json.dumps({"hyper": {"forest": {"n_trees": 10**8}}}))
        out = work / "huge-forest"
        with address_space_headroom():
            code = main(["cv", "--corpus", str(corpus_path), "--subset-size", "200", "--k", "2",
                         "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(
            "usage error: config key 'hyper.forest': n_trees must be at most 1000, got 100000000")
        assert not out.exists()

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_1_without_a_traceback(self, corpus_path, unbuffered):
        # buffered, the write fails only when stdout is flushed
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first byte
        src = os.path.dirname(os.path.dirname(metatriage.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            child = subprocess.run(
                [sys.executable, "-m", "metatriage.cli", "histogram", "--corpus", str(corpus_path)],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert child.returncode == 1
        assert "Traceback" not in child.stderr
        assert "Exception ignored" not in child.stderr

    def test_frozen_ranking_file_missing(self, corpus_path, capsys):
        assert main([
            "curve-features", "--corpus", str(corpus_path), "--ks", "2",
            "--frozen-ranking", "/no/such/frozen.txt",
        ]) == 1
        capsys.readouterr()


class TestFileBoundary:
    """Every input file is read by one rule and every output written by one
    staged writer: a path that cannot be read or written ends in exit 1 and
    one stderr line naming it, with no traceback and nothing partial left."""

    def refused(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert err.startswith(f"usage error: {message}"), err

    @pytest.fixture(scope="class")
    def report_path(self, corpus_path, work):
        out = work / "boundary-sweep"
        assert main([
            "sweep-hashes", "--corpus", str(corpus_path), "--sizes", "8", "--k", "2",
            "--subset-size", "200", "--out", str(out),
        ]) == 0
        return out / "report.json"

    @pytest.mark.parametrize("command,flags", [
        ("generate", ["--n-apps", "200"]),
        ("histogram", ["--corpus", "{corpus}"]),
        ("rank", ["--corpus", "{corpus}", "--method", "info_gain"]),
        ("featurize", ["--corpus", "{corpus}"]),
    ])
    def test_a_directory_as_output_file(self, corpus_path, work, capsys, command, flags):
        target = work / f"{command}-out-dir"
        target.mkdir()
        argv = [command, *(f.format(corpus=corpus_path) for f in flags), "--out", str(target)]
        self.refused(capsys, argv, f"cannot write {target}: Is a directory")
        assert not list(target.iterdir()) and not list(work.glob("*.tmp"))

    @pytest.mark.parametrize("command,flags", [
        ("cv", ["--corpus", "{corpus}", "--model", "logistic", "--k", "2"]),
        ("robustness", [
            "--corpus", "{corpus}", "--thresholds", "1", "--n-windows", "1", "--window-width",
            "3", "--subset-size", "200", "--k", "2", "--method", "info_gain",
        ]),
        ("report", ["--input", "{report}"]),
    ])
    def test_a_file_as_output_directory(
        self, corpus_path, report_path, work, capsys, command, flags
    ):
        target = work / f"{command}-out-file"
        target.write_text("kept\n")
        flags = [f.format(corpus=corpus_path, report=report_path) for f in flags]
        self.refused(capsys, [command, *flags, "--out", str(target)],
                     f"cannot write {target}: File exists")
        assert target.read_text() == "kept\n"

    def test_generate_makes_missing_parents(self, work, capsys):
        out = work / "no-such-dir" / "deeper" / "c.jsonl"
        assert main(["generate", "--out", str(out), "--n-apps", "200"]) == 0
        digest = capsys.readouterr().out.split("corpus digest: ")[1].strip()
        assert corpus_digest(load_corpus(str(out)).records) == digest
        assert os.listdir(out.parent) == ["c.jsonl"]

    def test_a_symlinked_output_is_written_through(self, corpus_path, work, capsys):
        target = work / "histogram-target.csv"
        target.write_text("old\n")
        target.chmod(0o600)
        link = work / "histogram-link.csv"
        link.symlink_to(target)
        assert main(["histogram", "--corpus", str(corpus_path), "--out", str(link)]) == 0
        capsys.readouterr()
        assert link.is_symlink() and target.read_text().startswith("detections,apps\n")
        assert target.stat().st_mode & 0o777 == 0o600
        assert not list(work.glob("*.tmp"))

    @pytest.mark.parametrize("what,argv", [
        ("corpus file", ["histogram", "--corpus", "{path}"]),
        ("config file", ["histogram", "--corpus", "{corpus}", "--config", "{path}"]),
        ("frozen ranking file", [
            "curve-features", "--corpus", "{corpus}", "--ks", "2", "--frozen-ranking", "{path}",
        ]),
        ("report file", ["report", "--input", "{path}"]),
    ])
    @pytest.mark.parametrize("kind", ["directory", "non-UTF-8", "missing"])
    def test_an_unreadable_input_file(self, corpus_path, work, capsys, what, argv, kind):
        path = work / f"{what.replace(' ', '-')}-{kind}"
        reason = "No such file or directory"
        if kind == "directory":
            path.mkdir(exist_ok=True)
            reason = "Is a directory"
        elif kind == "non-UTF-8":
            path.write_bytes(b'{"app_id": "\xff"}\n')
            reason = "'utf-8' codec can't decode byte 0xff"
        argv = [a.format(path=path, corpus=corpus_path) for a in argv]
        self.refused(capsys, argv, f"cannot read {what} {path}: {reason}")


class TestThreadPolicy:
    """Importing the package pins BLAS to one thread per process, before
    numpy loads, unless the caller has chosen a count."""

    NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    PROBE = (
        "import json, os, metatriage; print(json.dumps(["
        f"len(os.listdir('/proc/self/task')), [os.environ.get(k) for k in {NAMES!r}]]))"
    )

    def probe(self, **preset):
        if not sys.platform.startswith("linux") or not os.path.isdir("/proc/self/task"):
            pytest.skip("counts threads through /proc/self/task")
        src = os.path.dirname(os.path.dirname(metatriage.__file__))
        env = {k: v for k, v in os.environ.items() if k not in self.NAMES}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env.update(preset)
        child = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True,
                               text=True, env=env, timeout=60)
        assert child.returncode == 0, child.stderr
        return json.loads(child.stdout)

    def test_import_leaves_one_thread(self):
        threads, values = self.probe()
        assert threads == 1
        assert values == ["1", "1", "1"]

    def test_a_preset_count_is_left_unchanged(self):
        _, values = self.probe(OPENBLAS_NUM_THREADS="2")
        assert values == ["2", "1", "1"]


# sha256 of the ranking.csv that `rank --method M --seed S` writes for the
# generated 2,000-app corpus of seed S.
RANK_PINS = {
    (1, "borda"): "78c7a752d776d94a2710c0b21f6049e559fdb71218809fc2d832f9101e0013b4",
    (1, "mdni"): "4f85ea69efae107a7b0c11f0d374ccf721812b5227f06027e3f4f9d7d30826db",
    (7, "borda"): "6462b840963696b1ce032180bf9492d092c4163e5c81fb2341bb091d5ebd2b2c",
    (7, "mdni"): "691c01aafbd3ea3eb39cfd159e6b217a420be1b064bb98c1235e4f9700997394",
}


@pytest.mark.parametrize("seed", [1, 7])
def test_rank_output_bytes_are_pinned(tmp_path, seed):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["generate", "--out", str(corpus), "--n-apps", "2000", "--seed", str(seed)]) == 0
    for method in ("borda", "mdni"):
        out = tmp_path / f"{method}.csv"
        assert main([
            "rank", "--corpus", str(corpus), "--method", method, "--seed", str(seed),
            "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RANK_PINS[seed, method]
