"""Seeded fuzzing of `cv` on tiny corpora at the edges of the record rule.

Each case takes a small generated corpus and, by its seed, sets integer
fields to 0, 10**15 or 2**53 - 1 (on every app or on some), gives every
app one developer and one issuer, or takes every permission away. Then
`cv` runs it with logistic regression, the linear SVM and the forest at
k = 3. Every run must end in exit code 0, 1 or 2, and an eval.json it
writes must hold no NaN or Infinity.
"""

import json
import random

import pytest

from metatriage.cli import main
from metatriage.corpus import GeneratorConfig, generate_synthetic
from test_corpus import record_to_dict

CASES = 30
EDGES = (0, 10**15, 2**53 - 1)


def mutated_corpus(seed: int) -> list[dict]:
    rng = random.Random(seed)
    records = [record_to_dict(r) for r in generate_synthetic(GeneratorConfig(n_apps=45), seed)]
    ints = [name for name, value in records[0].items() if type(value) is int]
    for name in rng.sample(ints + ["star_votes"], rng.randint(1, 4)):
        value, every = rng.choice(EDGES), rng.random() < 0.5
        for record in records:
            if every or rng.random() < 0.3:
                if name == "star_votes":
                    record[name][rng.randrange(5)] = value
                else:
                    record[name] = value
    if rng.random() < 0.5:
        for record in records:
            record["developer_id"] = record["issuer_id"] = "the-one-account"
    if rng.random() < 0.5:
        for record in records:
            record["permissions"] = []
    return records


@pytest.mark.parametrize("case", range(CASES))
def test_cv_ends_in_an_exit_code_with_finite_results(tmp_path, capsys, case):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in mutated_corpus(case)))
    for model in ("logistic", "linear_svm", "forest"):
        out = tmp_path / model
        code = main([
            "cv", "--corpus", str(corpus), "--model", model, "--k", "3", "--seed", str(case),
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (model, code, err)
        if code == 0:
            text = (out / "eval.json").read_text()
            assert "NaN" not in text and "Infinity" not in text, model
