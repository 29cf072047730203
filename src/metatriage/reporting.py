"""Deterministic report rendering and writing: CSV, Markdown, JSON, a
minimal SVG plotter, and the staged all-or-nothing file writer.

Rendering is pure string generation: no timestamps, no locale, no float
formatting that could drift between runs, so identical inputs give
byte-identical files.

The *_REFERENCE constants are the benchmark figures reported by the
published study this pipeline reproduces. They are displayed next to
locally computed results for orientation and are never asserted against:
that study's corpus (140K market apps joined with antivirus verdicts) is
proprietary, so local numbers come from synthetic corpora.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Sequence, TextIO

import numpy as np

from .errors import ContractError

# (model kind, malware fraction, detection threshold) ->
#   metric -> (train, test) as published.
GRID_REFERENCE: dict[tuple[str, float, int], dict[str, tuple[float, float]]] = {
    ("logistic", 0.02, 1): {"f1": (0.82, 0.11), "precision": (0.80, 0.07), "recall": (0.85, 0.22)},
    ("logistic", 0.25, 1): {"f1": (0.89, 0.62), "precision": (0.93, 0.61), "recall": (0.85, 0.63)},
    ("logistic", 0.50, 1): {"f1": (0.93, 0.75), "precision": (0.97, 0.91), "recall": (0.89, 0.64)},
    ("logistic", 0.02, 2): {"f1": (0.65, 0.23), "precision": (0.95, 0.27), "recall": (0.50, 0.19)},
    ("logistic", 0.25, 2): {"f1": (0.89, 0.70), "precision": (0.94, 0.67), "recall": (0.85, 0.74)},
    ("logistic", 0.50, 2): {"f1": (0.94, 0.83), "precision": (0.98, 0.90), "recall": (0.90, 0.76)},
    ("logistic", 0.02, 4): {"f1": (0.81, 0.29), "precision": (0.81, 0.22), "recall": (0.81, 0.42)},
    ("logistic", 0.25, 4): {"f1": (0.91, 0.76), "precision": (0.95, 0.72), "recall": (0.87, 0.79)},
    ("logistic", 0.50, 4): {"f1": (0.95, 0.86), "precision": (0.99, 0.86), "recall": (0.92, 0.86)},
    ("linear_svm", 0.02, 1): {"f1": (0.86, 0.08), "precision": (0.78, 0.05), "recall": (0.96, 0.23)},
    ("linear_svm", 0.25, 1): {"f1": (0.92, 0.67), "precision": (0.91, 0.62), "recall": (0.93, 0.71)},
    ("linear_svm", 0.50, 1): {"f1": (0.95, 0.81), "precision": (0.96, 0.88), "recall": (0.94, 0.76)},
    ("linear_svm", 0.02, 2): {"f1": (0.83, 0.18), "precision": (0.75, 0.11), "recall": (0.93, 0.38)},
    ("linear_svm", 0.25, 2): {"f1": (0.92, 0.70), "precision": (0.92, 0.62), "recall": (0.91, 0.80)},
    ("linear_svm", 0.50, 2): {"f1": (0.95, 0.85), "precision": (0.97, 0.89), "recall": (0.93, 0.81)},
    ("linear_svm", 0.02, 4): {"f1": (0.85, 0.27), "precision": (0.76, 0.18), "recall": (0.96, 0.53)},
    ("linear_svm", 0.25, 4): {"f1": (0.93, 0.76), "precision": (0.93, 0.69), "recall": (0.92, 0.84)},
    ("linear_svm", 0.50, 4): {"f1": (0.96, 0.87), "precision": (0.98, 0.87), "recall": (0.94, 0.88)},
    ("forest", 0.02, 1): {"f1": (0.99, 0.12), "precision": (0.99, 0.08), "recall": (0.99, 0.32)},
    ("forest", 0.25, 1): {"f1": (0.99, 0.73), "precision": (0.99, 0.70), "recall": (0.99, 0.76)},
    ("forest", 0.50, 1): {"f1": (0.99, 0.83), "precision": (0.99, 0.87), "recall": (0.99, 0.80)},
    ("forest", 0.02, 2): {"f1": (0.99, 0.22), "precision": (0.99, 0.15), "recall": (0.99, 0.45)},
    ("forest", 0.25, 2): {"f1": (0.99, 0.78), "precision": (0.99, 0.74), "recall": (0.99, 0.82)},
    ("forest", 0.50, 2): {"f1": (0.99, 0.87), "precision": (0.99, 0.89), "recall": (0.99, 0.85)},
    ("forest", 0.02, 4): {"f1": (0.99, 0.32), "precision": (0.99, 0.22), "recall": (0.99, 0.58)},
    ("forest", 0.25, 4): {"f1": (0.99, 0.82), "precision": (0.99, 0.77), "recall": (0.99, 0.86)},
    ("forest", 0.50, 4): {"f1": (0.99, 0.89), "precision": (0.99, 0.88), "recall": (0.99, 0.90)},
}

# (detection threshold, window start rank) -> metric -> (train, test) for
# the published forest robustness sweep over 15-feature windows.
WINDOW_REFERENCE: dict[tuple[int, int], dict[str, tuple[float, float]]] = {
    (1, 1): {"f1": (0.99, 0.83)}, (1, 3): {"f1": (0.99, 0.86)}, (1, 5): {"f1": (0.99, 0.84)},
    (1, 7): {"f1": (0.99, 0.74)}, (1, 9): {"f1": (0.96, 0.72)}, (1, 11): {"f1": (0.88, 0.67)},
    (1, 13): {"f1": (0.80, 0.64)},
    (2, 1): {"f1": (0.99, 0.87)}, (2, 3): {"f1": (0.99, 0.87)}, (2, 5): {"f1": (0.99, 0.86)},
    (2, 7): {"f1": (0.99, 0.79)}, (2, 9): {"f1": (0.96, 0.75)}, (2, 11): {"f1": (0.88, 0.71)},
    (2, 13): {"f1": (0.75, 0.66)},
    (4, 1): {"f1": (0.99, 0.89)}, (4, 3): {"f1": (0.99, 0.88)}, (4, 5): {"f1": (0.99, 0.87)},
    (4, 7): {"f1": (0.99, 0.80)}, (4, 9): {"f1": (0.96, 0.77)}, (4, 11): {"f1": (0.89, 0.73)},
    (4, 13): {"f1": (0.77, 0.69)},
}

MODEL_LABELS = {
    "logistic": "Logistic Regression",
    "linear_svm": "Linear SVM",
    "forest": "Random Forest",
}


def fmt(value) -> str:
    """Stable cell formatting: full-precision repr for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def fmt4(value: Optional[float]) -> str:
    """Markdown-friendly 4-decimal formatting."""
    if value is None or value != value:
        return "-"
    return f"{value:.4f}"


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _distinct_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of float64 `values`, increasing, and
    `repr` of each as an object array."""
    ordered = np.sort(values.view(np.uint64))
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    return distinct, np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)


def _texts(values: np.ndarray, suffix: str = "") -> np.ndarray:
    """`repr` of each of float64 `values`, plus `suffix`, as an object array;
    each distinct bit pattern is formatted once."""
    distinct, texts = _distinct_texts(values)
    if suffix:
        texts = texts + suffix
    return texts[np.searchsorted(distinct, values.view(np.uint64))]


def write_matrix_csv(
    fh: TextIO, header: Sequence[str], values: np.ndarray, labels: np.ndarray,
    sparse: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = None,
    block_rows: int = 2048,
) -> None:
    """Write the lines `csv_text(header, rows)` would give, where each row is
    the row's `sparse` cells, then its row of `values`, then its int label:
    every value is written as `repr(float(v))`. `sparse`, when given, is
    (indptr, columns, data, width): `width` leading columns as compressed
    sparse rows, row i's entries at `indptr[i]:indptr[i + 1]` with columns
    increasing. A value that is not finite raises ContractError.

    Each column's distinct values (by bit pattern, so 0.0 and -0.0 keep
    their own text) are formatted once, and a row's run of sparse zeros is
    written as one repeated string. Rows are joined and written
    `block_rows` at a time, so the text is never held whole."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    if sparse is None:
        sparse = (np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), 0)
    indptr, columns, data, width = sparse
    data = np.asarray(data, dtype=np.float64)
    if not (np.isfinite(values).all() and np.isfinite(data).all()):
        raise ContractError("feature matrix contains NaN or infinite values")
    dense = [_distinct_texts(column) for column in values.T]
    labels = np.asarray(labels, dtype=np.int64).tolist()
    label_texts = np.array([f"{label}\n" for label in labels], dtype=object)
    fh.write(",".join(header) + "\n")
    cells = np.empty((min(block_rows, n), values.shape[1] + 1), dtype=object)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        block = cells[: stop - start]
        for j, (distinct, texts) in enumerate(dense):
            block[:, j] = texts[np.searchsorted(distinct, values[start:stop, j].view(np.uint64))]
        block[:, -1] = label_texts[start:stop]
        tails = np.array(list(map(",".join, block.tolist())), dtype=object)
        # Sparse rows: each entry is its run of zeros and its text; each
        # row's last run of zeros goes before the rest of the row.
        bounds = indptr[start : stop + 1] - indptr[start]
        cols = columns[indptr[start] : indptr[stop]]
        row = np.repeat(np.arange(stop - start), np.diff(bounds))
        filled = bounds[1:] > bounds[:-1]
        previous = np.empty_like(cols)
        previous[1:] = cols[:-1]
        previous[bounds[:-1][filled]] = -1
        last = np.full(stop - start, -1, dtype=np.int64)
        last[filled] = cols[bounds[1:][filled] - 1]
        runs = np.concatenate([cols - previous - 1, width - 1 - last])
        kinds, run_of = np.unique(runs, return_inverse=True)
        zeros = np.array(["0.0," * k for k in kinds.tolist()], dtype=object)[run_of]
        pieces = np.empty(len(runs), dtype=object)
        at_entry = np.arange(len(cols)) + row
        at_tail = bounds[1:] + np.arange(stop - start)
        pieces[at_entry] = zeros[: len(cols)] + _texts(data[indptr[start] : indptr[stop]], ",")
        pieces[at_tail] = zeros[len(cols) :] + tails
        fh.write("".join(pieces.tolist()))


def markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_PALETTE = ("#1b6ca8", "#c84b31", "#2d6a4f", "#7b2d8b", "#b8860b", "#444444", "#008b8b")

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 30, 44, 56  # margins around the plot area


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _tick_label(v: float) -> str:
    return f"{v:g}" if abs(v) >= 1e-4 or v == 0 else f"{v:.1e}"


def svg_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
    y_range: tuple[float, float],
    log_x: bool = False,
) -> str:
    """Multi-series line chart as a standalone SVG document string.

    Coordinates are rounded to 0.01 px so output bytes are stable.
    """
    import math

    def tx(x: float) -> float:
        return math.log2(x) if log_x else x

    xs_all = [tx(x) for _, xs, _ in series for x in xs] or [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = y_range
    if x_hi <= x_lo:  # past 2**53, adding 1.0 leaves x_lo as it is
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x: float) -> float:
        return round(_ML + (tx(x) - x_lo) / (x_hi - x_lo) * pw, 2)

    def py(y: float) -> float:
        return round(_MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph, 2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # Axes and grid.
    for v in _ticks(y_lo, y_hi):
        y = py(v)
        parts.append(
            f'<line x1="{_ML}" y1="{y}" x2="{_W - _MR}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4}" text-anchor="end" font-size="11">'
            f"{_tick_label(v)}</text>"
        )
    x_tick_vals: list[float]
    if log_x:
        lo_p, hi_p = math.ceil(x_lo - 1e-9), math.floor(x_hi + 1e-9)
        x_tick_vals = [float(2**p) for p in range(int(lo_p), int(hi_p) + 1)]
    else:
        x_tick_vals = _ticks(x_lo, x_hi)
    for v in x_tick_vals:
        x = px(v) if not log_x else round(_ML + (math.log2(v) - x_lo) / (x_hi - x_lo) * pw, 2)
        parts.append(
            f'<line x1="{x}" y1="{_MT}" x2="{x}" y2="{_H - _MB}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{_H - _MB + 18}" text-anchor="middle" font-size="11">'
            f"{_tick_label(v)}</text>"
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_ML + pw / 2}" y="{_H - 14}" text-anchor="middle" font-size="12">'
        f"{x_label}</text>"
    )
    parts.append(
        f'<text x="18" y="{_MT + ph / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {_MT + ph / 2})">{y_label}</text>'
    )
    # Series.
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="{color}"/>')
        ly = _MT + 10 + 16 * i
        parts.append(
            f'<line x1="{_W - _MR - 130}" y1="{ly}" x2="{_W - _MR - 106}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 100}" y="{ly + 4}" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Experiment reports
# ---------------------------------------------------------------------------

FORMATS = ("csv", "markdown", "svg")

# experiment -> charts: (curve kind, file name, title, x label, y label,
# y range, log2 x axis).
CHART_SPECS = {
    "hash-size-sweep": [
        ("roc", "roc_curves.svg", "Held-out ROC by hash size",
         "false positive rate", "true positive rate", (0.0, 1.0), False),
        ("auc-vs-size", "auc_vs_size.svg", "Pooled test AUC vs hash size",
         "hash buckets (log2)", "AUC", (0.4, 1.0), True),
    ],
    "feature-count-curve": [
        ("f1-vs-k", "f1_vs_feature_count.svg", "Mean test F1 vs top-k features",
         "top-k features", "mean test F1", (0.0, 1.0), False),
    ],
    "benchmark-grid": [
        ("f1-vs-fraction", "f1_by_cell.svg", "Mean test F1 by malware share",
         "malware fraction", "mean test F1", (0.0, 1.0), False),
    ],
    "robustness-windows": [
        ("f1-vs-window", "f1_vs_window.svg", "Mean test F1 by window start rank",
         "window start rank", "mean test F1", (0.0, 1.0), False),
    ],
}


def report_markdown(report) -> str:
    """report.md for a `bench.BenchReport`: result tables, then the
    published-reference note and the flags."""
    lines = [f"# {report.experiment}", ""]
    lines.append("Configuration digest: `" + report.provenance.get("config_digest", "") + "`")
    lines.append("Corpus digest: `" + report.provenance.get("corpus_digest", "") + "`")
    lines.append("")
    if not report.rows:
        lines.append("_No results: every point failed or was infeasible "
                     "(see flags below)._")
        lines.append("")
    else:
        if report.experiment == "benchmark-grid":
            model_order = []
            for row in report.rows:
                if row["model"] not in model_order:
                    model_order.append(row["model"])
            for model in model_order:
                lines.append(f"## {MODEL_LABELS.get(model, model)} (train/test)")
                lines.append("")
                header = ["malware", "threshold", "F1", "precision", "recall",
                          "reference F1"]
                rows = []
                for r in (x for x in report.rows if x["model"] == model):
                    ref = ""
                    if None not in (r["reference_train_f1"], r["reference_test_f1"]):
                        ref = (f"{r['reference_train_f1']:.2f}/"
                               f"{r['reference_test_f1']:.2f}")
                    rows.append([
                        f"{r['malware_fraction']:.0%}",
                        f"{r['threshold']}-AV",
                        f"{fmt4(r['mean_train_f1'])}/{fmt4(r['mean_test_f1'])}",
                        f"{fmt4(r['mean_train_precision'])}/{fmt4(r['mean_test_precision'])}",
                        f"{fmt4(r['mean_train_recall'])}/{fmt4(r['mean_test_recall'])}",
                        ref,
                    ])
                lines.append(markdown_table(header, rows))
        else:
            rows = [[fmt4(r[c]) if isinstance(r[c], float) else ("" if r[c] is None else str(r[c]))
                     for c in report.columns] for r in report.rows]
            lines.append(markdown_table(report.columns, rows))
        lines.append("")
    if report.reference:
        lines.append("## Published reference values")
        lines.append("")
        lines.append(
            "_Reported by the original study on its proprietary corpus; "
            "shown for orientation only, never asserted._"
        )
        lines.append("")
    if report.flags:
        lines.append("## Flags")
        lines.append("")
        for f in report.flags:
            lines.append(f"- {f}")
        lines.append("")
    return "\n".join(lines)


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_files(report, formats: Sequence[str] = FORMATS) -> dict[str, str]:
    """File name -> text for a `bench.BenchReport`: the selected formats,
    plus provenance.json and report.json always."""
    unknown = set(formats) - set(FORMATS)
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}")
    files: dict[str, str] = {}
    if "csv" in formats:
        rows = [[r.get(c) for c in report.columns] for r in report.rows]
        files["results.csv"] = csv_text(report.columns, rows)
    if "markdown" in formats:
        files["report.md"] = report_markdown(report)
    if "svg" in formats:
        for kind, name, title, xl, yl, y_range, log_x in CHART_SPECS.get(
            report.experiment, []
        ):
            series = [
                (c["name"], c["x"], c["y"])
                for c in report.curves
                if c.get("kind") == kind and None not in c["y"]
            ]
            if series:
                files[name] = svg_line_chart(
                    series, title, xl, yl, y_range=y_range, log_x=log_x
                )
    files["provenance.json"] = json_text(report.provenance)
    files["report.json"] = json_text(report.to_json())
    return files


def write_files(out_dir: str, files: dict[str, str]) -> list[str]:
    """Write every file into `out_dir`, all or nothing; returns the paths.

    All content is staged to temporary files first and moved into place
    together, so a failure leaves no partial outputs behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    staged = []
    written = []
    try:
        for name, text in files.items():
            tmp = os.path.join(out_dir, name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            staged.append((tmp, os.path.join(out_dir, name)))
        for tmp, final in staged:
            os.replace(tmp, final)
            written.append(final)
    except OSError:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    return written
