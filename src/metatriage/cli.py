"""Command-line entry point.

One executable, ten subcommands, strict exit codes: 0 success, 1 usage
error, 2 data/contract error. Every subcommand taking --seed is
end-to-end deterministic. --threads sets how many worker processes an
experiment forks; it only changes wall time, never output bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__, bench, reporting
from .corpus import (
    CompositionRecipe,
    DetectionLabelPolicy,
    GeneratorConfig,
    LabeledDataset,
    compose_subset,
    corpus_digest,
    detection_histogram,
    generate_synthetic,
    label_dataset,
    load_corpus,
    write_corpus,
)
from .errors import MetatriageError
from .evaluate import PipelineConfig, SelectionSpec, cross_validate
from .featurize import FeatureMatrix, HashConfig, assemble_features, build_reputation_table
from .learn import Hyperparams
from .select import RankingParams, rank_features, ranking_to_csv_text


class UsageError(Exception):
    """Bad flags or flag combinations; exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our code
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _str_list(text: str) -> list[str]:
    return [x for x in text.split(",") if x]


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="metatriage",
        description="Metadata-driven app triage experiments",
    )
    parser.add_argument("--version", action="version", version=f"metatriage {__version__}")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    def common(p, needs_corpus=True, seeded=True, threaded=False):
        if needs_corpus:
            p.add_argument("--corpus", help="input corpus (.jsonl or .csv)")
        p.add_argument("--config", help="JSON config file (flags override it)")
        if seeded:
            p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--out", help="output file or directory")
        if threaded:
            p.add_argument("--threads", type=int, help="worker processes (default 1)")
        p.add_argument("--dry-run", action="store_const", const=True,
                       help="print the resolved run config and do nothing")

    p = sub.add_parser("generate", help="write a deterministic synthetic corpus")
    common(p, needs_corpus=False)
    p.add_argument("--n-apps", type=int)
    p.add_argument("--n-developers", type=int)
    p.add_argument("--n-issuers", type=int)
    p.add_argument("--malware-rate", type=float)
    p.add_argument("--malware-developer-fraction", type=float)
    p.add_argument("--permission-vocabulary-size", type=int)
    p.add_argument("--s-reputation", type=float)
    p.add_argument("--s-temporal", type=float)
    p.add_argument("--s-permissions", type=float)
    p.add_argument("--s-social", type=float)
    p.add_argument("--zipf-exponent", type=float)
    p.add_argument("--zipf-max", type=int)

    p = sub.add_parser("histogram", help="detection-count histogram of flagged apps")
    common(p, seeded=False)

    p = sub.add_parser("featurize", help="export the feature matrix as CSV")
    common(p, seeded=False)
    p.add_argument("--hash-buckets", type=int)
    p.add_argument("--threshold", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--ambiguous-as-goodware", action="store_const", const=True)

    p = sub.add_parser("rank", help="score and rank features")
    common(p)
    p.add_argument("--method", choices=["chi_squared", "info_gain", "gain_ratio", "mdni", "borda"])
    p.add_argument("--hash-buckets", type=int)
    p.add_argument("--threshold", type=int)
    p.add_argument("--n-bins", type=int)
    p.add_argument("--ambiguous-as-goodware", action="store_const", const=True)

    p = sub.add_parser("cv", help="stratified cross-validation of one model")
    common(p)
    p.add_argument("--model", choices=["logistic", "linear_svm", "forest"])
    p.add_argument("--k", type=int)
    p.add_argument("--top-k", type=int)
    p.add_argument("--method", choices=["chi_squared", "info_gain", "gain_ratio", "mdni", "borda"])
    p.add_argument("--hash-buckets", type=int)
    p.add_argument("--threshold", type=int)
    p.add_argument("--malware-fraction", type=float)
    p.add_argument("--subset-size", type=int)
    p.add_argument("--paper-leaky", action="store_const", const=True,
                   help="fit reputation tables on the full dataset (leaky)")
    p.add_argument("--ambiguous-as-goodware", action="store_const", const=True)

    p = sub.add_parser("sweep-hashes", help="AUC vs hash-bucket count")
    common(p, threaded=True)
    p.add_argument("--sizes", type=_int_list)
    p.add_argument("--model", choices=["logistic", "linear_svm", "forest"])
    p.add_argument("--k", type=int)
    p.add_argument("--threshold", type=int)
    p.add_argument("--malware-fraction", type=float)
    p.add_argument("--subset-size", type=int)

    p = sub.add_parser("curve-features", help="F1 vs top-k feature count")
    common(p, threaded=True)
    p.add_argument("--ks", type=_int_list)
    p.add_argument("--models", type=_str_list)
    p.add_argument("--method", choices=["chi_squared", "info_gain", "gain_ratio", "mdni", "borda"])
    p.add_argument("--k", type=int)
    p.add_argument("--threshold", type=int)
    p.add_argument("--malware-fraction", type=float)
    p.add_argument("--subset-size", type=int)
    p.add_argument("--frozen-ranking", help="file with one column name per line")

    p = sub.add_parser("benchmark-grid", help="the 9-cell composition benchmark")
    common(p, threaded=True)
    p.add_argument("--fractions", type=_float_list)
    p.add_argument("--thresholds", type=_int_list)
    p.add_argument("--subset-size", type=int)
    p.add_argument("--models", type=_str_list)
    p.add_argument("--top-k", type=int)
    p.add_argument("--method", choices=["chi_squared", "info_gain", "gain_ratio", "mdni", "borda"])
    p.add_argument("--k", type=int)
    p.add_argument("--frozen-ranking")
    p.add_argument("--paper-leaky", action="store_const", const=True)
    p.add_argument("--ambiguous-as-goodware", action="store_const", const=True)

    p = sub.add_parser("robustness", help="F1 across sliding rank windows")
    common(p, threaded=True)
    p.add_argument("--thresholds", type=_int_list)
    p.add_argument("--window-width", type=int)
    p.add_argument("--step", type=int)
    p.add_argument("--n-windows", type=int)
    p.add_argument("--malware-fraction", type=float)
    p.add_argument("--subset-size", type=int)
    p.add_argument("--model", choices=["logistic", "linear_svm", "forest"])
    p.add_argument("--method", choices=["chi_squared", "info_gain", "gain_ratio", "mdni", "borda"])
    p.add_argument("--k", type=int)
    p.add_argument("--frozen-ranking")

    p = sub.add_parser("report", help="re-render a saved report.json")
    common(p, needs_corpus=False, seeded=False)
    p.add_argument("--input", help="path to report.json")
    p.add_argument("--formats", type=_str_list)

    return parser


# ---------------------------------------------------------------------------
# Option resolution: CLI flag > config file > default
# ---------------------------------------------------------------------------


class _Options:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_config: dict = {}
        if getattr(args, "config", None):
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    self.file_config = json.load(fh)
            except FileNotFoundError:
                raise UsageError(f"config file not found: {args.config}") from None
            except json.JSONDecodeError as exc:
                raise UsageError(f"config file is not valid JSON: {exc}") from None
            if not isinstance(self.file_config, dict):
                raise UsageError("config file must hold a JSON object")
        self.resolved: dict = {}

    def get(self, name: str, default=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.file_config.get(name, default)
        self.resolved[name] = value
        return value

    def require(self, name: str):
        value = self.get(name)
        if value is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")
        return value

    def hyperparams(self) -> Hyperparams:
        """`bench.DEFAULT_HYPER` with the keys that the config file's `hyper`
        section names replaced; a model or key it lacks is an error."""
        merged = bench.DEFAULT_HYPER.to_json()
        section = self.file_config.get("hyper", {})
        if not isinstance(section, dict):
            raise UsageError("config key 'hyper' must hold a JSON object")
        for model, values in section.items():
            if model not in merged:
                raise UsageError(
                    f"unknown hyper section {model!r}; expected one of {', '.join(merged)}"
                )
            if not isinstance(values, dict):
                raise UsageError(f"hyper section {model!r} must hold a JSON object")
            unknown = sorted(set(values) - set(merged[model]))
            if unknown:
                raise UsageError(f"unknown {model} hyperparameter(s): {', '.join(unknown)}")
            merged[model].update(values)
        self.resolved["hyper"] = merged
        try:
            return Hyperparams.from_json(merged)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid hyper section: {exc}") from None

    def threads(self) -> int:
        """The experiment's worker process count, at least 1."""
        threads = self.get("threads", 1)
        if not isinstance(threads, int) or threads < 1:
            raise UsageError(f"--threads must be a positive integer, got {threads!r}")
        return threads

    def run_record(self) -> dict:
        """The tool, the subcommand and every option resolved so far."""
        return {
            "tool": f"metatriage {__version__}",
            "subcommand": self.args.subcommand,
            "options": self.resolved,
        }


def _policy(opts: _Options) -> DetectionLabelPolicy:
    threshold = opts.get("threshold", 1)
    handling = "goodware" if opts.get("ambiguous_as_goodware", False) else "exclude"
    return DetectionLabelPolicy(threshold=threshold, ambiguous_handling=handling)


def _load_records(opts: _Options):
    path = opts.require("corpus")
    try:
        result = load_corpus(path)
    except FileNotFoundError:
        raise UsageError(f"corpus file not found: {path}") from None
    if result.issues:
        skipped = len({issue.line for issue in result.issues})
        print(f"warning: {skipped} malformed records skipped", file=sys.stderr)
    return result.records


def _load_dataset(opts: _Options, seed: int) -> LabeledDataset:
    """Label the corpus; compose a subset when --subset-size is given,
    otherwise keep every admissible record in file order."""
    records = _load_records(opts)
    policy = _policy(opts)
    subset_size = opts.get("subset_size")
    if subset_size is None:
        return label_dataset(records, policy)
    recipe = CompositionRecipe(
        malware_fraction=opts.get("malware_fraction", 0.5),
        policy=policy,
        target_size=subset_size,
        seed=seed,
    )
    return compose_subset(records, recipe)


def _corpus_features(opts: _Options, alpha: float = 1.0) -> tuple[FeatureMatrix, np.ndarray]:
    """The feature matrix and labels of every admissible record, with the
    reputation table fitted on all of them (unlike evaluation, which
    refits it per fold)."""
    dataset = label_dataset(_load_records(opts), _policy(opts))
    hash_config = HashConfig(n_buckets=opts.get("hash_buckets", 512))
    table = build_reputation_table(dataset.records, dataset.labels, alpha=alpha)
    return assemble_features(dataset.records, hash_config, table), dataset.labels


def _read_frozen_ranking(path: Optional[str]) -> Optional[list[str]]:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
    except FileNotFoundError:
        raise UsageError(f"frozen ranking file not found: {path}") from None
    if not names:
        raise UsageError(f"frozen ranking file is empty: {path}")
    return names


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _output(opts: _Options, text: str, what: str) -> None:
    """Write `text` to --out when given, else to stdout."""
    out = opts.get("out")
    if out:
        _write_text(out, text)
        print(f"{what} -> {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(opts: _Options) -> int:
    def flags(**keys) -> dict:
        """{key: the value of its flag} for each flag that was given."""
        given = {key: getattr(opts.args, flag) for key, flag in keys.items()}
        return {key: value for key, value in given.items() if value is not None}

    try:
        config = GeneratorConfig.from_json(opts.file_config.get("generator", {}))
    except TypeError as exc:
        raise UsageError(f"invalid generator section: {exc}") from None
    config = dataclasses.replace(
        config,
        signal_strengths=dataclasses.replace(config.signal_strengths, **flags(
            reputation="s_reputation", temporal="s_temporal",
            permissions="s_permissions", social="s_social",
        )),
        engine_count_distribution=dataclasses.replace(
            config.engine_count_distribution,
            **flags(exponent="zipf_exponent", max_count="zipf_max"),
        ),
        **flags(**{key: key for key in (
            "n_apps", "n_developers", "n_issuers", "malware_rate",
            "malware_developer_fraction", "permission_vocabulary_size",
        )}),
    )
    seed = opts.get("seed", 0)
    out = opts.require("out")
    opts.resolved["generator"] = config.to_json()
    records = generate_synthetic(config, seed)
    write_corpus(records, out)
    print(f"{len(records)} records -> {out}")
    print(f"corpus digest: {corpus_digest(records)}")
    return 0


def _cmd_histogram(opts: _Options) -> int:
    records = _load_records(opts)
    hist = detection_histogram(records)
    text = reporting.csv_text(
        ["detections", "apps"], [[k, v] for k, v in hist.items()]
    )
    _output(opts, text, "histogram")
    return 0


def _cmd_featurize(opts: _Options) -> int:
    """Whole-file export for inspection."""
    matrix, y = _corpus_features(opts, alpha=opts.get("alpha", 1.0))
    out = opts.require("out")
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(",".join(matrix.column_names + ("label",)))
        fh.write("\n")
        for row, lab in zip(matrix.values, y):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write(f",{int(lab)}\n")
    print(f"{matrix.n_rows} rows x {matrix.n_columns} features -> {out}")
    return 0


def _cmd_rank(opts: _Options) -> int:
    matrix, y = _corpus_features(opts)
    seed = opts.get("seed", 0)
    ranked = rank_features(
        matrix,
        y,
        ranking_method=opts.get("method", "mdni"),
        n_bins=opts.get("n_bins", 10),
        forest_params=RankingParams().forest(seed),
    )
    _output(opts, ranking_to_csv_text(ranked), "ranking")
    top = [ranked.column_names[i] for i in ranked.order[:15]]
    print(f"top-15 ({ranked.ranking_method}): {', '.join(top)}", file=sys.stderr)
    return 0


def _cmd_cv(opts: _Options) -> int:
    seed = opts.get("seed", 0)
    dataset = _load_dataset(opts, seed)
    model = opts.get("model", "forest")
    k = opts.get("k", 10)
    selection = None
    top_k = opts.get("top_k")
    if top_k is not None:
        selection = SelectionSpec(method=opts.get("method", "mdni"), top_k=top_k)
    config = PipelineConfig(
        hash_config=HashConfig(n_buckets=opts.get("hash_buckets", 512)),
        selection=selection,
        hyper=opts.hyperparams(),
        leaky_reputation=bool(opts.get("paper_leaky", False)),
    )
    report = cross_validate(dataset, model, k=k, seed=seed, config=config)
    out = opts.get("out")
    if out:
        provenance = {**opts.run_record(), "corpus_digest": corpus_digest(dataset.records)}
        reporting.write_files(out, {
            "eval.json": reporting.json_text(report.to_json()),
            "folds.csv": report.to_csv_text(),
            "provenance.json": reporting.json_text(provenance),
        })
    print(
        f"{model} {k}-fold: test F1 {report.mean('test', 'f1'):.4f} "
        f"(precision {report.mean('test', 'precision'):.4f}, "
        f"recall {report.mean('test', 'recall'):.4f}, "
        f"auc {report.mean('test', 'auc'):.4f})"
    )
    for flag in report.flags:
        print(f"flag: {flag}", file=sys.stderr)
    return 0


def _emit(
    report: bench.BenchReport, opts: _Options, formats: Sequence[str] = reporting.FORMATS
) -> int:
    """Write the report bundle to --out, by default reports/<experiment>."""
    out = opts.get("out", os.path.join("reports", report.experiment))
    written = bench.emit_report(report, out, formats=formats)
    print(f"{report.experiment}: {len(report.rows)} result rows -> {out}")
    for path in written:
        print(f"  {path}")
    return 0


def _cmd_sweep_hashes(opts: _Options) -> int:
    seed = opts.get("seed", 0)
    dataset = _load_dataset(opts, seed)
    report = bench.hash_size_sweep(
        dataset,
        sizes=opts.get("sizes", list(bench.DEFAULT_SWEEP_SIZES)),
        model_kind=opts.get("model", "logistic"),
        k=opts.get("k", 5),
        seed=seed,
        hyper=opts.hyperparams(),
        threads=opts.threads(),
    )
    return _emit(report, opts)


def _cmd_curve_features(opts: _Options) -> int:
    seed = opts.get("seed", 0)
    dataset = _load_dataset(opts, seed)
    report = bench.feature_count_curve(
        dataset,
        ks=opts.get("ks", [1, 2, 3, 5, 7, 10, 15, 20, 27, 40]),
        model_kinds=opts.get("models", ["logistic", "linear_svm", "forest"]),
        ranking_method=opts.get("method", "mdni"),
        k=opts.get("k", 10),
        seed=seed,
        hyper=opts.hyperparams(),
        frozen_ranking=_read_frozen_ranking(opts.get("frozen_ranking")),
        threads=opts.threads(),
    )
    return _emit(report, opts)


def _cmd_benchmark_grid(opts: _Options) -> int:
    records = _load_records(opts)
    grid = bench.BenchmarkGrid(
        malware_fractions=tuple(opts.get("fractions", [0.02, 0.25, 0.50])),
        thresholds=tuple(opts.get("thresholds", [1, 2, 4])),
        subset_size=opts.get("subset_size", 5000),
        model_kinds=tuple(opts.get("models", ["logistic", "linear_svm", "forest"])),
        seed=opts.get("seed", 0),
    )
    report = bench.grid_benchmark(
        records,
        grid,
        top_k=opts.get("top_k", 15),
        ranking_method=opts.get("method", "mdni"),
        k=opts.get("k", 10),
        hyper=opts.hyperparams(),
        frozen_ranking=_read_frozen_ranking(opts.get("frozen_ranking")),
        threads=opts.threads(),
        ambiguous_handling="goodware" if opts.get("ambiguous_as_goodware") else "exclude",
        leaky_reputation=bool(opts.get("paper_leaky", False)),
    )
    return _emit(report, opts)


def _cmd_robustness(opts: _Options) -> int:
    records = _load_records(opts)
    report = bench.robustness_windows(
        records,
        window_width=opts.get("window_width", 15),
        step=opts.get("step", 2),
        n_windows=opts.get("n_windows", 7),
        model_kind=opts.get("model", "forest"),
        thresholds=opts.get("thresholds", [1, 2, 4]),
        malware_fraction=opts.get("malware_fraction", 0.5),
        subset_size=opts.get("subset_size", 5000),
        k=opts.get("k", 10),
        seed=opts.get("seed", 0),
        ranking_method=opts.get("method", "mdni"),
        hyper=opts.hyperparams(),
        frozen_ranking=_read_frozen_ranking(opts.get("frozen_ranking")),
        threads=opts.threads(),
    )
    return _emit(report, opts)


def _cmd_report(opts: _Options) -> int:
    path = opts.require("input")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"report file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise MetatriageError(f"report file is not valid JSON: {exc}") from None
    report = bench.BenchReport.from_json(doc)
    return _emit(report, opts, opts.get("formats", reporting.FORMATS))


_HANDLERS = {
    "generate": _cmd_generate,
    "histogram": _cmd_histogram,
    "featurize": _cmd_featurize,
    "rank": _cmd_rank,
    "cv": _cmd_cv,
    "sweep-hashes": _cmd_sweep_hashes,
    "curve-features": _cmd_curve_features,
    "benchmark-grid": _cmd_benchmark_grid,
    "robustness": _cmd_robustness,
    "report": _cmd_report,
}


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return 1
    opts = _Options(args)
    if getattr(args, "dry_run", None):
        # Resolve the subcommand's common options, then echo every explicit
        # flag and any config-file key so the printout shows what a real run
        # would use.
        for name, default in (("seed", 0), ("out", None)):
            if name in vars(args):
                opts.get(name, default)
        if "threads" in vars(args):
            opts.threads()
        for key, value in sorted(vars(args).items()):
            if key in ("subcommand", "dry_run", "config") or value is None:
                continue
            opts.resolved.setdefault(key, value)
        for key, value in sorted(opts.file_config.items()):
            opts.resolved.setdefault(key, value)
        sys.stdout.write(reporting.json_text(opts.run_record()))
        return 0
    return _HANDLERS[args.subcommand](opts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else list(argv))
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MetatriageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
