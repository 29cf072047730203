"""Seeded fuzzing of the CLI's integer and path options, run for real.

Integer options run at 0, 1, their bound, bound + 1 and 10**12. The bound is
the option's declared maximum, or, for an option that only the data bounds,
the size the tiny corpus gives it. Path options name a directory, a file
under a missing directory, a file under an existing file, or a file that is
not UTF-8. Each case has a directory of its own, holding those files.

Each batch of cases runs in one child process. It caps its own address
space (RLIMIT_AS), so a case that allocates without bound raises
MemoryError instead of exhausting the host, and it calls `cli.main` on each
case in turn. Every case passes `--threads 1` where the command takes it,
so none can start a pool of processes. Every case must end in exit code 0,
1 or 2 with no traceback.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import metatriage
from metatriage.cli import main
from metatriage.corpus import MAX_APPS, MAX_DETECTIONS, MAX_PERMISSIONS, DetectionCountModel
from metatriage.featurize import MAX_HASH_BUCKETS, HashConfig, feature_names
from metatriage.select import MAX_BINS

TINY = 90  # apps in the corpus every case reads
COLUMNS = len(feature_names(HashConfig()))
MOST_DETECTIONS = DetectionCountModel().max_count  # the generator's default
BATCHES = 5

# Each command at its cheapest on the tiny corpus. A case appends its flag,
# and the last of a repeated flag wins.
BASE = {
    "generate": ["generate", "--out", "{dir}/g.jsonl", "--n-apps", "60"],
    "histogram": ["histogram", "--corpus", "{corpus}"],
    "featurize": ["featurize", "--corpus", "{corpus}", "--out", "{dir}/f.csv"],
    "rank": ["rank", "--corpus", "{corpus}", "--method", "info_gain"],
    "cv": ["cv", "--corpus", "{corpus}", "--model", "logistic", "--k", "3",
           "--method", "info_gain"],
    "sweep-hashes": ["sweep-hashes", "--corpus", "{corpus}", "--sizes", "8", "--k", "2",
                     "--threads", "1", "--out", "{dir}/sweep"],
    "curve-features": ["curve-features", "--corpus", "{corpus}", "--ks", "2", "--k", "2",
                       "--models", "logistic", "--method", "info_gain", "--threads", "1",
                       "--out", "{dir}/curve"],
    "benchmark-grid": ["benchmark-grid", "--corpus", "{corpus}", "--fractions", "0.5",
                       "--thresholds", "1", "--models", "logistic", "--subset-size", "40",
                       "--top-k", "3", "--method", "info_gain", "--k", "2", "--threads", "1",
                       "--out", "{dir}/grid"],
    "robustness": ["robustness", "--corpus", "{corpus}", "--thresholds", "1", "--n-windows",
                   "1", "--window-width", "3", "--subset-size", "40", "--k", "2", "--model",
                   "logistic", "--method", "info_gain", "--threads", "1", "--out", "{dir}/rob"],
    "report": ["report", "--input", "{report}", "--out", "{dir}/report"],
}

# Integer option -> (the command that runs it, its bound).
INTEGERS = {
    "n_apps": ("generate", MAX_APPS),
    "n_developers": ("generate", 60),
    "n_issuers": ("generate", 60),
    "permission_vocabulary_size": ("generate", MAX_PERMISSIONS),
    "zipf_max": ("generate", MAX_DETECTIONS),
    "seed": ("generate", 2**64 - 1),
    "hash_buckets": ("featurize", MAX_HASH_BUCKETS),
    "threshold": ("featurize", MOST_DETECTIONS),
    "n_bins": ("rank", MAX_BINS),
    "k": ("cv", TINY),
    "top_k": ("cv", COLUMNS),
    "subset_size": ("cv", TINY),
    "sizes": ("sweep-hashes", MAX_HASH_BUCKETS),
    "ks": ("curve-features", COLUMNS),
    "thresholds": ("benchmark-grid", MOST_DETECTIONS),
    "window_width": ("robustness", COLUMNS),
    "step": ("robustness", COLUMNS),
    "n_windows": ("robustness", COLUMNS),
}

# Path option -> the commands that take it. `--out` names a file for the
# first four and a directory for the rest.
PATHS = {
    "corpus": ["histogram", "cv"],
    "config": ["histogram", "generate"],
    "frozen_ranking": ["curve-features"],
    "input": ["report"],
    "out": ["generate", "histogram", "rank", "featurize", "cv", "sweep-hashes", "report"],
}
PATH_KINDS = {
    "directory": "{dir}/a-directory",
    "missing parent": "{dir}/no-such-dir/x",
    "file as a directory": "{dir}/a-file/x",
    "non-UTF-8 file": "{dir}/latin1.txt",
}


def flag(name):
    return "--" + name.replace("_", "-")


def cases():
    out = []
    for name, (command, bound) in INTEGERS.items():
        # A million apps would take minutes to generate; only its bound + 1 runs.
        values = [0, 1, bound + 1, 10**12] + ([bound] if bound != MAX_APPS else [])
        out += [BASE[command] + [flag(name), str(v)] for v in values]
    for name, commands in PATHS.items():
        out += [BASE[c] + [flag(name), path] for c in commands for path in PATH_KINDS.values()]
    random.Random(24).shuffle(out)
    return out


CHILD = r"""
import contextlib, io, json, os, resource, sys, traceback

from metatriage.cli import main

with open("/proc/self/statm") as fh:
    size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS, (size + (2 << 30), size + (2 << 30)))
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException:
            code = None
            traceback.print_exc()
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The corpus and the report.json that every case may read."""
    root = tmp_path_factory.mktemp("option-fuzz")
    corpus = str(root / "corpus.jsonl")
    assert main(["generate", "--out", corpus, "--n-apps", str(TINY)]) == 0
    assert main(["sweep-hashes", "--corpus", corpus, "--sizes", "8", "--k", "2",
                 "--out", str(root / "sweep")]) == 0
    return {"corpus": corpus, "report": str(root / "sweep" / "report.json")}


def case_dir(path):
    """A directory holding a directory, a file and a file that is not UTF-8."""
    (path / "a-directory").mkdir(parents=True)
    (path / "a-file").write_text("a file\n")
    (path / "latin1.txt").write_bytes("café\n".encode("latin-1"))
    return str(path)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("batch", range(BATCHES))
def test_batch_ends_in_an_exit_code(inputs, tmp_path, batch):
    argvs = []
    for i, argv in enumerate(cases()[batch::BATCHES]):
        fill = {**inputs, "dir": case_dir(tmp_path / str(i))}
        argvs.append([a.format(**fill) for a in argv])
    src = os.path.dirname(os.path.dirname(metatriage.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(argvs), capture_output=True,
        text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    for argv, (code, err) in zip(argvs, json.loads(child.stdout)):
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
