"""Seeded fuzzing of the CLI's JSON inputs other than corpora: config files
and report.json.

Each case applies one to three mutations to a valid document: a dropped
key, a value of the wrong type, NaN, Infinity, a huge integer, wrong
nesting, a duplicated key or list item, or truncation of the text. Then
`cli.main` runs it in-process and must return, never raise. A config file
is a usage error (exit 1) or resolves to options that `--dry-run` prints as
strict JSON; `--dry-run` also means a fuzzed `threads` never starts a pool.
A report.json is a data error (exit 2) that writes nothing, or renders.
"""

import copy
import json
import math
import random

import pytest

from metatriage import cli

CASES = 500
BATCH = 25

# Each case keeps the keys that its subcommand reads.
CONFIG = {
    "corpus": "corpus.jsonl", "out": "out", "input": "report.json", "seed": 3, "threads": 2,
    "k": 3, "top_k": 5, "threshold": 2, "thresholds": [1, 2], "fractions": [0.25, 0.5],
    "models": ["logistic", "forest"], "model": "forest", "method": "mdni", "hash_buckets": 64,
    "subset_size": 200, "malware_fraction": 0.5, "ambiguous_as_goodware": False, "alpha": 1.0,
    "n_bins": 10, "ks": [1, 2], "sizes": [8, 16], "window_width": 3, "step": 2, "n_windows": 2,
    "paper_leaky": False, "frozen_ranking": "ranking.txt", "formats": ["csv", "svg"],
    "n_apps": 500, "s_temporal": 0.4, "zipf_max": 20,
    "hyper": {"forest": {"n_trees": 10, "max_depth": 4}, "logistic": {"tolerance": 1e-5},
              "svm": {"tolerance": 1e-4}},
    "generator": {"n_developers": 60, "signal_strengths": {"reputation": 0.5},
                  "engine_count_distribution": {"max_count": 20}},
}

REPORTS = [
    {
        "experiment": "hash-size-sweep", "config": {"sizes": [8, 16]},
        "columns": ["size", "pooled_auc", "mean_test_auc", "std_test_auc", "mean_test_f1"],
        "rows": [{"size": 8, "pooled_auc": 0.71, "mean_test_auc": 0.7, "std_test_auc": 0.01,
                  "mean_test_f1": 0.6},
                 {"size": 16, "pooled_auc": None, "mean_test_auc": 0.72, "std_test_auc": 0.02,
                  "mean_test_f1": 0.61}],
        "curves": [{"name": "ROC 8 buckets", "kind": "roc", "x": [0.0, 0.5, 1.0],
                    "y": [0.0, 0.75, 1.0]},
                   {"name": "pooled AUC", "kind": "auc-vs-size", "x": [8.0, 16.0],
                    "y": [0.71, None]}],
        "flags": ["size 16: no pooled ROC"],
        "provenance": {"config_digest": "c", "corpus_digest": "d", "seed": 3},
    },
    {
        "experiment": "benchmark-grid", "config": {"seed": 3},
        "columns": [
            "model", "malware_fraction", "threshold", "n_rows", "mean_train_precision",
            "mean_train_recall", "mean_train_f1", "mean_test_precision", "mean_test_recall",
            "mean_test_f1", "std_test_f1", "reference_train_f1", "reference_test_f1",
        ],
        "rows": [{"model": "forest", "malware_fraction": 0.25, "threshold": 1, "n_rows": 300,
                  "mean_train_precision": 0.9, "mean_train_recall": 0.8, "mean_train_f1": 0.85,
                  "mean_test_precision": 0.7, "mean_test_recall": 0.6, "mean_test_f1": 0.65,
                  "std_test_f1": 0.05, "reference_train_f1": 0.99, "reference_test_f1": 0.73}],
        "curves": [{"name": "Random Forest, 1-AV", "kind": "f1-vs-fraction", "x": [0.25],
                    "y": [0.65]}],
        "reference": [{"model": "forest", "malware_fraction": 0.25, "threshold": 1,
                       "f1": {"train": 0.99, "test": 0.73}}],
        "provenance": {"config_digest": "c", "corpus_digest": "d"},
    },
]


class Pairs(list):
    """A JSON object given as its (key, value) pairs, which may repeat a key."""


class Digits(str):
    """A JSON integer given as its digits, past what `int` converts to text."""


def dumps(node) -> str:
    """JSON text of `node`, with `Pairs` as objects and `Digits` as integers;
    NaN and infinities as `json.dumps` writes them."""
    if isinstance(node, Digits):
        return str(node)
    if isinstance(node, dict):
        node = Pairs(node.items())
    if isinstance(node, Pairs):
        return "{" + ",".join(f"{json.dumps(k)}:{dumps(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ",".join(map(dumps, node)) + "]"
    return json.dumps(node)


def nodes(doc, path=()):
    """The path of every value in `doc`, the document itself first; a
    `Pairs` object is one value."""
    yield path
    items = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, value in items:
        yield from nodes(value, path + (key,))


def replace(doc, path, value):
    """`doc` with the value at `path` replaced by `value`."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


HUGE = [2**63, -(2**63) - 1, 10**30, 10**309, 10**400, Digits("9" * 5000)]
WRONG = ["x", "", True, None, [], {}, 3, -1, 2.5, 0]


def drop_key(rng, doc):
    paths = [p for p in nodes(doc) if isinstance(at(doc, p), dict) and at(doc, p)]
    if paths:
        target = at(doc, rng.choice(paths))
        del target[rng.choice(sorted(target))]
    return doc


def wrong_nesting(rng, doc, path):
    value = at(doc, path)
    if isinstance(value, (list, dict)) and value and rng.random() < 0.5:
        inner = value[0] if isinstance(value, list) else value[rng.choice(sorted(value))]
        return replace(doc, path, inner)  # one level too few
    return replace(doc, path, rng.choice([[value], {"value": value}]))  # one too many


def duplicate(rng, doc, path):
    value = at(doc, path)
    if isinstance(value, list) and value:
        value.insert(rng.randrange(len(value) + 1), copy.deepcopy(rng.choice(value)))
    elif isinstance(value, dict) and value:
        key = rng.choice(sorted(value))
        other = rng.choice([value[key], rng.choice(WRONG), rng.choice(HUGE)])
        pairs = Pairs(value.items())
        pairs.insert(rng.randrange(len(pairs) + 1), (key, other))
        return replace(doc, path, pairs)
    return doc


MUTATIONS = {
    "drop-key": lambda rng, doc, path: drop_key(rng, doc),
    "wrong-type": lambda rng, doc, path: replace(doc, path, rng.choice(WRONG)),
    "nan": lambda rng, doc, path: replace(doc, path, math.nan),
    "infinity": lambda rng, doc, path: replace(doc, path, rng.choice([math.inf, -math.inf])),
    "huge-int": lambda rng, doc, path: replace(doc, path, rng.choice(HUGE)),
    "wrong-nesting": wrong_nesting,
    "duplicate": duplicate,
}


def mutated(rng, doc) -> tuple[str, str]:
    """(name, JSON text) of one seeded mutation of `doc`."""
    doc, kinds = copy.deepcopy(doc), []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(sorted(MUTATIONS) + ["truncated"])
        kinds.append(kind)
        if kind != "truncated":
            doc = MUTATIONS[kind](rng, doc, rng.choice(list(nodes(doc))))
    text = dumps(doc)
    if "truncated" in kinds:
        text = text[: rng.randrange(len(text))]
    return "+".join(kinds), text


def run(name, argv, capsys) -> tuple[int, str, str]:
    try:
        code = cli.main(argv)
    except Exception as exc:
        pytest.fail(f"{name}: {argv[0]} raised {exc!r}")
    out, err = capsys.readouterr()
    return code, out, err


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_the_unmutated_documents_are_valid(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    for subcommand in cli.SUBCOMMANDS:
        code, out, err = run("valid", [subcommand, "--config", str(path), "--dry-run"], capsys)
        assert code == 0, (subcommand, err)
        strict_json(out)
    for i, doc in enumerate(REPORTS):
        path = tmp_path / f"report-{i}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"rendered-{i}"
        code, _, err = run("valid", ["report", "--input", str(path), "--out", str(out)], capsys)
        assert code == 0, err
        assert (out / "report.json").exists() and list(out.glob("*.svg"))


@pytest.mark.parametrize("batch", range(CASES // 2 // BATCH))
def test_fuzzed_config_file(batch, tmp_path, capsys):
    rng = random.Random(1000 + batch)
    path = tmp_path / "config.json"
    for _ in range(BATCH):
        subcommand = rng.choice(sorted(cli.SUBCOMMANDS))
        read = cli.SUBCOMMANDS[subcommand][1]
        name, text = mutated(rng, {k: v for k, v in CONFIG.items() if k in read})
        path.write_text(text)
        code, out, err = run(name, [subcommand, "--config", str(path), "--dry-run"], capsys)
        assert code in (0, 1), (name, subcommand, err)
        if code == 0:
            options = strict_json(out)["options"]
            assert options, (name, subcommand)
        else:
            assert err.startswith("usage error: ") and "Traceback" not in err, (name, err)


@pytest.mark.parametrize("batch", range(CASES // 2 // BATCH))
def test_fuzzed_report(batch, tmp_path, capsys):
    rng = random.Random(2000 + batch)
    path = tmp_path / "report.json"
    for i in range(BATCH):
        name, text = mutated(rng, rng.choice(REPORTS))
        path.write_text(text)
        out = tmp_path / f"out-{i}"
        code, _, err = run(name, ["report", "--input", str(path), "--out", str(out)], capsys)
        assert code in (0, 2), (name, err)
        if code == 0:
            assert (out / "report.json").exists(), name
        else:
            assert err.startswith("error: ") and not out.exists(), (name, err)
