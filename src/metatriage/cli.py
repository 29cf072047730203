"""Command-line entry point.

One executable, ten subcommands, strict exit codes: 0 success, 1 usage
error, 2 data/contract error. Every subcommand taking --seed is
end-to-end deterministic. --threads sets how many worker processes an
experiment forks; it only changes wall time, never output bytes.

Each option is declared once, in `OPTIONS`, and each subcommand lists the
options it reads with their defaults in `SUBCOMMANDS`. `_Options` resolves
all of them before the handler runs: the flag, else the config-file key of
the same snake_case name, else the default.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import NamedTuple, Optional, Sequence

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
from .errors import MetatriageError, UsageError, decode_json, file_error
from .evaluate import PipelineConfig, cross_validate
from .featurize import (
    HashConfig, ReputationTable, assemble_features, build_reputation_table, feature_names,
    reputation_block, static_feature_block,
)
from .learn import MODEL_KINDS, Hyperparams
from .select import METHODS, rank_features, ranking_forest, ranking_to_csv_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our code
        raise UsageError(message)


# ---------------------------------------------------------------------------
# The options: flag --a-b is config key a_b
# ---------------------------------------------------------------------------


class _Option(NamedTuple):
    """One option's value type: `kind` is the JSON type of the value, or of
    each item when `many` (a comma-separated flag, a JSON array key). A bool
    option is a flag without a value, or `true`/`false` in a config file."""

    kind: type
    help: str = ""
    choices: tuple = ()
    many: bool = False
    minimum: Optional[int] = None
    field: str = ""  # the `generator` section field the option overrides


# `version`, `config` and `dry_run` are flags only: no subcommand lists them
# in `SUBCOMMANDS`, so no config key sets them.
OPTIONS = {
    "version": _Option(bool, "print the version and exit"),
    "config": _Option(str, "JSON config file (flags override it)"),
    "dry_run": _Option(bool, "print every resolved option as JSON and do nothing"),
    "corpus": _Option(str, "input corpus (.jsonl or .csv)"),
    "out": _Option(str, "output file or directory (experiments: reports/<experiment>)"),
    "seed": _Option(int, "master seed"),
    "threads": _Option(int, "worker processes", minimum=1),
    "n_apps": _Option(int, "apps to generate", field="n_apps"),
    "n_developers": _Option(int, "developer accounts", field="n_developers"),
    "n_issuers": _Option(int, "certificate issuers", field="n_issuers"),
    "malware_rate": _Option(float, "malware share", field="malware_rate"),
    "malware_developer_fraction": _Option(
        float, "malicious developer share", field="malware_developer_fraction"
    ),
    "permission_vocabulary_size": _Option(
        int, "distinct permissions", field="permission_vocabulary_size"
    ),
    "s_reputation": _Option(float, "reputation signal", field="signal_strengths.reputation"),
    "s_temporal": _Option(float, "temporal signal", field="signal_strengths.temporal"),
    "s_permissions": _Option(float, "permission signal", field="signal_strengths.permissions"),
    "s_social": _Option(float, "social signal", field="signal_strengths.social"),
    "zipf_exponent": _Option(
        float, "detection-count exponent", field="engine_count_distribution.exponent"
    ),
    "zipf_max": _Option(int, "max detection count", field="engine_count_distribution.max_count"),
    "hash_buckets": _Option(int, "permission hash buckets"),
    "threshold": _Option(int, "detections that make an app malware"),
    "thresholds": _Option(int, "detection thresholds", many=True),
    "ambiguous_as_goodware": _Option(bool, "label apps flagged below the threshold as goodware"),
    "alpha": _Option(float, "reputation smoothing"),
    "n_bins": _Option(int, "bins per column for the filter scores"),
    "method": _Option(str, "feature ranking method", METHODS),
    "model": _Option(str, "model kind", MODEL_KINDS),
    "models": _Option(str, "model kinds", MODEL_KINDS, many=True),
    "k": _Option(int, "cross-validation folds", minimum=2),
    "top_k": _Option(int, "keep the top-k ranked features (default: all)", minimum=1),
    "ks": _Option(int, "top-k feature counts", many=True, minimum=1),
    "sizes": _Option(int, "hash bucket counts", many=True),
    "fractions": _Option(float, "malware shares of the grid", many=True),
    "malware_fraction": _Option(float, "malware share of a composed subset"),
    "subset_size": _Option(int, "apps per composed subset (cv, sweep, curve: default all)"),
    "paper_leaky": _Option(bool, "fit reputation tables on the full dataset (leaky)"),
    "frozen_ranking": _Option(str, "file with one column name per line"),
    "window_width": _Option(int, "ranks per window"),
    "step": _Option(int, "ranks between window starts"),
    "n_windows": _Option(int, "windows per threshold"),
    "input": _Option(str, "path to report.json"),
    "formats": _Option(str, "output formats", reporting.FORMATS, many=True),
}

_REQUIRED = object()  # the default of an option that has none
_EXPECTED = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="metatriage", description="Metadata-driven app triage experiments")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)
    targets = [(parser, ["version"])] + [
        (sub.add_parser(name, help=handler.__doc__), ["config", "dry_run", *defaults])
        for name, (handler, defaults) in SUBCOMMANDS.items()
    ]
    for target, names in targets:
        for name in filter(OPTIONS.__contains__, names):  # sections have no flag
            opt = OPTIONS[name]
            if name == "version":
                kwargs = {"action": "version", "version": f"metatriage {__version__}"}
            elif opt.kind is bool:
                kwargs = {"action": "store_const", "const": True}
            else:
                kwargs = {"metavar": "{" + ",".join(opt.choices) + "}" if opt.choices else None}
            target.add_argument(_flag(name), help=opt.help, **kwargs)
    return parser


def _value(name: str, raw, from_flag: bool):
    """Option `name`'s value from its flag text or its config-file JSON
    value; a value of another type, or outside its choices or minimum, or a
    repeated item of a list, is a usage error naming the flag or key."""
    opt = OPTIONS[name]

    def item(x):
        if from_flag:
            try:
                x = opt.kind(x)
            except ValueError:
                return None
        elif isinstance(x, bool) != (opt.kind is bool):
            return None
        elif opt.kind is int and isinstance(x, float) and x.is_integer():
            x = int(x)
        elif opt.kind is float and isinstance(x, int):
            try:
                x = float(x)
            except OverflowError:  # past the float range
                return None
        if (
            isinstance(x, opt.kind)
            and (not opt.choices or x in opt.choices)
            and (opt.minimum is None or x >= opt.minimum)
            and (opt.kind is not float or math.isfinite(x))
        ):
            return x
        return None

    if not opt.many:
        values = [item(raw)]
    elif from_flag:
        values = [item(x) for x in raw.split(",") if x]
    else:
        values = [item(x) for x in raw] if isinstance(raw, list) else [None]
    where = _flag(name) if from_flag else f"config key {name!r}"
    if None not in values:
        if not opt.many:
            return values[0]
        for i, x in enumerate(values):
            if x in values[:i]:
                raise UsageError(f"{where} repeats {x!r}")
        return values
    expected = f"one of {', '.join(opt.choices)}" if opt.choices else _EXPECTED[opt.kind]
    if opt.minimum is not None:
        expected += f" of at least {opt.minimum}"
    if opt.many:
        expected = f"a list whose items are each {expected}"
    raise UsageError(f"{where} must be {expected}, got {raw!r}")


def _hyper(section) -> Hyperparams:
    """`bench.DEFAULT_HYPER` with the keys that the `hyper` section names
    replaced; a model or key it lacks is an error."""
    merged = bench.DEFAULT_HYPER.to_json()
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
    try:
        return Hyperparams.from_json(merged)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid hyper section: {exc}") from None


def _generator(section, given: dict) -> GeneratorConfig:
    """The `generator` section's config, with each field option in `given`
    that is not None in place of its field."""
    try:
        doc = GeneratorConfig.from_json(section).to_json()
    except TypeError as exc:
        raise UsageError(f"invalid generator section: {exc}") from None
    for name, value in given.items():
        if value is not None:
            *parent, key = OPTIONS[name].field.split(".")  # at most one level deep
            (doc[parent[0]] if parent else doc)[key] = value
    return GeneratorConfig.from_json(doc)


class _Options:
    """Every option and config section of one subcommand, resolved."""

    def __init__(self, args: argparse.Namespace):
        self.subcommand = args.subcommand
        config = {}
        if args.config:
            try:
                config = decode_json(_read_text("config file", args.config))
            except ValueError as exc:
                raise UsageError(f"config file is not valid JSON: {exc}") from None
            if not isinstance(config, dict):
                raise UsageError("config file must hold a JSON object")
        known = {name for _, names in SUBCOMMANDS.values() for name in names}
        for key in config:
            if key not in known:
                raise UsageError(f"unknown config key {key!r}")
        keys = {key: _value(key, value, False) for key, value in config.items() if key in OPTIONS}
        defaults = SUBCOMMANDS[self.subcommand][1]
        self.values = {}
        for name, default in defaults.items():
            if name not in OPTIONS:  # a section, resolved below
                continue
            flag = getattr(args, name)
            value = _value(name, flag, True) if flag is not None else keys.get(name, default)
            if value is _REQUIRED:
                raise UsageError(f"{_flag(name)} is required")
            self.values[name] = value
        given = {n: self.values.pop(n) for n in list(self.values) if OPTIONS[n].field}
        sections = {
            "hyper": _hyper(config.get("hyper", {})),
            "generator": _generator(config.get("generator", {}), given),
        }
        self.values.update((name, value) for name, value in sections.items() if name in defaults)

    def __getitem__(self, name: str):
        return self.values[name]

    def pick(self, *names: str) -> dict:
        """The named options, for a callee whose parameters share their names."""
        return {name: self.values[name] for name in names}

    def run_record(self) -> dict:
        """The tool, the subcommand and every resolved option."""
        options = {
            name: value.to_json() if name in ("hyper", "generator") else value
            for name, value in self.values.items()
        }
        tool = f"metatriage {__version__}"
        return {"tool": tool, "subcommand": self.subcommand, "options": options}


def _policy(opts: _Options) -> DetectionLabelPolicy:
    handling = "goodware" if opts["ambiguous_as_goodware"] else "exclude"
    return DetectionLabelPolicy(threshold=opts["threshold"], ambiguous_handling=handling)


@contextlib.contextmanager
def _reading(what: str, path: str):
    """The one input file rule: an unreadable or non-UTF-8 file is a usage error."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise file_error(f"read {what}", path, exc) from None


def _read_text(what: str, path: str) -> str:
    with _reading(what, path), open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_records(opts: _Options):
    with _reading("corpus file", opts["corpus"]):
        result = load_corpus(opts["corpus"])
    if result.issues:
        skipped = len({issue.line for issue in result.issues})
        print(f"warning: {skipped} malformed records skipped", file=sys.stderr)
    return result.records


def _load_dataset(opts: _Options) -> LabeledDataset:
    """Label the corpus; compose a subset when --subset-size is given,
    otherwise keep every admissible record in file order."""
    records = _load_records(opts)
    policy = _policy(opts)
    if opts["subset_size"] is None:
        return label_dataset(records, policy)
    recipe = CompositionRecipe(
        opts["malware_fraction"], policy, target_size=opts["subset_size"], seed=opts["seed"]
    )
    return compose_subset(records, recipe)


def _corpus_features(
    opts: _Options, alpha: float = 1.0
) -> tuple[LabeledDataset, HashConfig, ReputationTable]:
    """Every admissible record, labeled, with the hashing layout and the
    reputation table fitted on all of them (unlike evaluation, which refits
    it per fold)."""
    dataset = label_dataset(_load_records(opts), _policy(opts))
    table = build_reputation_table(dataset.records, dataset.labels, alpha=alpha)
    return dataset, HashConfig(n_buckets=opts["hash_buckets"]), table


def _read_frozen_ranking(path: Optional[str]) -> Optional[list[str]]:
    """The column names in file `path`, one per line; each must be a
    column of the experiments' feature matrix, and appear once."""
    if path is None:
        return None
    names = [n for n in map(str.strip, _read_text("frozen ranking file", path).split("\n")) if n]
    if not names:
        raise UsageError(f"frozen ranking file is empty: {path}")
    columns = set(feature_names(HashConfig()))
    for i, name in enumerate(names):
        if name not in columns:
            raise UsageError(f"frozen ranking file {path} names no feature column: {name!r}")
        if name in names[:i]:
            raise UsageError(f"frozen ranking file {path} names {name!r} twice")
    return names


def _write_text(path: str, text: str) -> None:
    reporting.write_file(path, text)


def _output(opts: _Options, text: str, what: str) -> None:
    """Write `text` to --out when given, else to stdout."""
    out = opts["out"]
    if out:
        _write_text(out, text)
        print(f"{what} -> {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(opts: _Options) -> int:
    """write a deterministic synthetic corpus"""
    records = generate_synthetic(opts["generator"], opts["seed"])
    digest = write_corpus(records, opts["out"])
    print(f"{len(records)} records -> {opts['out']}")
    print(f"corpus digest: {digest}")
    return 0


def _cmd_histogram(opts: _Options) -> int:
    """detection-count histogram of flagged apps"""
    records = _load_records(opts)
    hist = detection_histogram(records)
    text = reporting.csv_text(["detections", "apps"], [[k, v] for k, v in hist.items()])
    _output(opts, text, "histogram")
    return 0


def _cmd_featurize(opts: _Options) -> int:
    """export the feature matrix as CSV"""
    dataset, hash_config, table = _corpus_features(opts, alpha=opts["alpha"])
    static = static_feature_block(dataset.records, hash_config)
    rest = np.hstack([static.dense, reputation_block(dataset.records, table)])
    names = feature_names(hash_config)
    reporting.write_file(opts["out"], lambda fh: reporting.write_matrix_csv(
        fh, names + ("label",), rest, dataset.labels,
        sparse=(static.indptr, static.buckets, static.counts, static.n_buckets),
    ))
    print(f"{len(rest)} rows x {len(names)} features -> {opts['out']}")
    return 0


def _cmd_rank(opts: _Options) -> int:
    """score and rank features"""
    dataset, hash_config, table = _corpus_features(opts)
    ranked = rank_features(
        assemble_features(dataset.records, hash_config, table), dataset.labels,
        ranking_method=opts["method"], n_bins=opts["n_bins"],
        forest_params=ranking_forest(opts["seed"]),
    )
    _output(opts, ranking_to_csv_text(ranked), "ranking")
    top = [ranked.column_names[i] for i in ranked.order[:15]]
    print(f"top-15 ({ranked.ranking_method}): {', '.join(top)}", file=sys.stderr)
    return 0


def _cmd_cv(opts: _Options) -> int:
    """stratified cross-validation of one model"""
    dataset = _load_dataset(opts)
    model, k, top_k = opts["model"], opts["k"], opts["top_k"]
    config = PipelineConfig(
        hash_config=HashConfig(n_buckets=opts["hash_buckets"]),
        ranking_method=None if top_k is None else opts["method"],
        hyper=opts["hyper"],
        leaky_reputation=opts["paper_leaky"],
    )
    window = None if top_k is None else (1, top_k)
    report = cross_validate(dataset, model, k=k, seed=opts["seed"], config=config, window=window)
    out = opts["out"]
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
    out = opts["out"] or os.path.join("reports", report.experiment)
    written = bench.emit_report(report, out, formats=formats)
    print(f"{report.experiment}: {len(report.rows)} result rows -> {out}")
    for path in written:
        print(f"  {path}")
    return 0


def _cmd_sweep_hashes(opts: _Options) -> int:
    """AUC vs hash-bucket count"""
    report = bench.hash_size_sweep(
        _load_dataset(opts), model_kind=opts["model"],
        **opts.pick("sizes", "k", "seed", "hyper", "threads"),
    )
    return _emit(report, opts)


def _cmd_curve_features(opts: _Options) -> int:
    """F1 vs top-k feature count"""
    report = bench.feature_count_curve(
        _load_dataset(opts), model_kinds=opts["models"], ranking_method=opts["method"],
        frozen_ranking=_read_frozen_ranking(opts["frozen_ranking"]),
        **opts.pick("ks", "k", "seed", "hyper", "threads"),
    )
    return _emit(report, opts)


def _cmd_benchmark_grid(opts: _Options) -> int:
    """the 9-cell composition benchmark"""
    report = bench.grid_benchmark(
        _load_records(opts), malware_fractions=opts["fractions"], model_kinds=opts["models"],
        ranking_method=opts["method"], frozen_ranking=_read_frozen_ranking(opts["frozen_ranking"]),
        ambiguous_handling="goodware" if opts["ambiguous_as_goodware"] else "exclude",
        leaky_reputation=opts["paper_leaky"],
        **opts.pick("thresholds", "subset_size", "seed", "top_k", "k", "hyper", "threads"),
    )
    return _emit(report, opts)


def _cmd_robustness(opts: _Options) -> int:
    """F1 across sliding rank windows"""
    report = bench.robustness_windows(
        _load_records(opts), model_kind=opts["model"], ranking_method=opts["method"],
        frozen_ranking=_read_frozen_ranking(opts["frozen_ranking"]),
        **opts.pick(
            "window_width", "step", "n_windows", "thresholds", "malware_fraction",
            "subset_size", "k", "seed", "hyper", "threads",
        ),
    )
    return _emit(report, opts)


def _cmd_report(opts: _Options) -> int:
    """re-render a saved report.json"""
    try:
        doc = decode_json(_read_text("report file", opts["input"]))
    except ValueError as exc:
        raise MetatriageError(f"report file is not valid JSON: {exc}") from None
    report = bench.BenchReport.from_json(doc)
    return _emit(report, opts, opts["formats"])


# Each subcommand's handler (its docstring is the subcommand's help) and the
# options it reads, with their defaults. `hyper` and `generator` are
# config-file sections with no flag; `_Options` resolves them. `_DATASET`
# holds the options `_load_dataset` reads.
_DATASET = dict(
    corpus=_REQUIRED, threshold=1, ambiguous_as_goodware=False, subset_size=None,
    malware_fraction=0.5, seed=0,
)
SUBCOMMANDS = {
    "generate": (_cmd_generate, dict(
        out=_REQUIRED, seed=0, generator=None,
        **{name: None for name, opt in OPTIONS.items() if opt.field},
    )),
    "histogram": (_cmd_histogram, dict(corpus=_REQUIRED, out=None)),
    "featurize": (_cmd_featurize, dict(
        corpus=_REQUIRED, out=_REQUIRED, hash_buckets=512, threshold=1, alpha=1.0,
        ambiguous_as_goodware=False,
    )),
    "rank": (_cmd_rank, dict(
        corpus=_REQUIRED, out=None, seed=0, method="mdni", hash_buckets=512, threshold=1,
        n_bins=10, ambiguous_as_goodware=False,
    )),
    "cv": (_cmd_cv, dict(
        _DATASET, out=None, model="forest", k=10, top_k=None, method="mdni", hash_buckets=512,
        paper_leaky=False, hyper=None,
    )),
    "sweep-hashes": (_cmd_sweep_hashes, dict(
        _DATASET, out=None, threads=1, sizes=list(bench.DEFAULT_SWEEP_SIZES), model="logistic",
        k=5, hyper=None,
    )),
    "curve-features": (_cmd_curve_features, dict(
        _DATASET, out=None, threads=1, ks=list(bench.DEFAULT_KS), models=list(MODEL_KINDS),
        method="mdni", k=10, frozen_ranking=None, hyper=None,
    )),
    "benchmark-grid": (_cmd_benchmark_grid, dict(
        corpus=_REQUIRED, out=None, seed=0, threads=1, fractions=[0.02, 0.25, 0.5],
        thresholds=[1, 2, 4], subset_size=5000, models=list(MODEL_KINDS), top_k=15,
        method="mdni", k=10, frozen_ranking=None, paper_leaky=False,
        ambiguous_as_goodware=False, hyper=None,
    )),
    "robustness": (_cmd_robustness, dict(
        corpus=_REQUIRED, out=None, seed=0, threads=1, thresholds=[1, 2, 4], window_width=15,
        step=2, n_windows=7, malware_fraction=0.5, subset_size=5000, model="forest",
        method="mdni", k=10, frozen_ranking=None, hyper=None,
    )),
    "report": (_cmd_report, dict(
        input=_REQUIRED, out=None, formats=list(reporting.FORMATS),
    )),
}


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return 1
    opts = _Options(args)
    if args.dry_run:
        sys.stdout.write(reporting.json_text(opts.run_record()))
        return 0
    return SUBCOMMANDS[args.subcommand][0](opts)


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
