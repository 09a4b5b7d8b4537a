"""The metric-correlation study: metrics tables, their Pearson matrix, and the
bundled published benchmark data.

The package ships a transcription of the published VCC2020 intra-lingual
A2O results (Taco2-AR decoder, one row per upstream, the mel and PPG
baselines included) plus the published pairwise correlation coefficients.
All 16 rows reproduce the ten published coefficients to within 0.0125.

The study needs only numpy: importing this module loads no other part of the
pipeline.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import CorrelationFileError, VoiceConversionError, naming

METRIC_LABELS = ("MCD", "WER", "ASV", "NAT", "SIM")

PAIR_ORDER = tuple(itertools.combinations(METRIC_LABELS, 2))


@dataclass(frozen=True)
class MetricsRow:
    """One system's objective and subjective scores."""

    system: str
    mcd: float
    wer: float
    asv: float
    naturalness: float
    similarity: float

    def __post_init__(self):
        # false for nan; the strict upper bound rejects inf
        if not (0.0 <= self.mcd < math.inf and 0.0 <= self.wer < math.inf):
            raise VoiceConversionError(
                f"mcd and wer must be finite and non-negative, got {self.mcd} and {self.wer}"
            )
        if not 0.0 <= self.asv <= 100.0:
            raise VoiceConversionError(f"asv must be a percentage, got {self.asv}")
        if not 1.0 <= self.naturalness <= 5.0:
            raise VoiceConversionError(
                f"naturalness must be a 1..5 score, got {self.naturalness}"
            )
        if not 0.0 <= self.similarity <= 100.0:
            raise VoiceConversionError(
                f"similarity must be a percentage, got {self.similarity}"
            )


# --- metrics table I/O -----------------------------------------------------------

_TABLE_COLUMNS = ("system", "mcd", "wer", "asv", "naturalness", "similarity")


def read_metrics_table(path) -> list[MetricsRow]:
    """Read a tab-separated metrics table; blank and # lines are skipped.

    The first other line names the columns: each of ``_TABLE_COLUMNS``
    once, in any order.  Every row has a cell in every column and names a
    system no other row names.  Text that is not UTF-8, an unknown, repeated
    or missing column, a row with another number of cells, an empty
    ``system`` cell, a repeated system (also naming the line of its first
    row), a score cell that is not a number and a score out of range raise
    ``CorrelationFileError`` naming the file and the line.
    """
    with naming(path, CorrelationFileError):
        try:
            text = Path(path).read_text("utf-8")
        except UnicodeDecodeError as exc:
            raise VoiceConversionError(f"not UTF-8 text ({exc})") from None
        rows = []
        first_line: dict[str, int] = {}  # system name -> line of its row
        header: list[str] | None = None
        for line_no, line in enumerate(text.split("\n"), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            with naming(f"line {line_no}", VoiceConversionError):
                parts = line.split("\t")
                if header is None:
                    header = [p.strip().lower() for p in parts]
                    for name in header:
                        if name not in _TABLE_COLUMNS or header.count(name) > 1:
                            raise VoiceConversionError(f"unknown or repeated column {name!r}")
                    if missing := [name for name in _TABLE_COLUMNS if name not in header]:
                        raise VoiceConversionError(f"missing columns {missing}")
                    continue
                if len(parts) != len(header):
                    raise VoiceConversionError(f"{len(parts)} cells for {len(header)} columns")
                values = dict(zip(header, (p.strip() for p in parts)))
                system = values["system"]
                if not system:
                    raise VoiceConversionError("empty system name")
                if system in first_line:
                    raise VoiceConversionError(
                        f"system {system!r} already named on line {first_line[system]}")
                first_line[system] = line_no
                scores = {}
                for key in _TABLE_COLUMNS[1:]:
                    raw = values[key]
                    try:
                        scores[key] = float(raw)
                    except ValueError:
                        raise VoiceConversionError(
                            f"column {key!r} value {raw!r} is not a number") from None
                rows.append(MetricsRow(system, **scores))
        return rows


def _data_file(name: str):
    return resources.files("recsynvc.data").joinpath(name)


def load_benchmark_rows() -> list[MetricsRow]:
    """The bundled 16-system metrics table."""
    with resources.as_file(_data_file("vcc2020_a2o_taco2ar_intra.tsv")) as path:
        return read_metrics_table(path)


def published_correlations(path=None) -> dict[tuple[str, str], float]:
    """The ten published upper-triangle coefficients, keyed by label pair.

    Reads the bundled set, or the JSON file ``path``: an object whose
    ``"coefficients"`` object maps ``"A:B"``, for each pair ``(A, B)`` of
    ``PAIR_ORDER``, to a finite number in [-1, 1].  A file of any other form
    raises ``CorrelationFileError`` naming it.
    """
    source = _data_file("published_correlations.json") if path is None else Path(path)
    with naming(source, CorrelationFileError):
        try:
            raw = json.loads(source.read_text("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise VoiceConversionError(f"not UTF-8 JSON ({exc})") from None
        coefficients = raw.get("coefficients") if isinstance(raw, dict) else None
        if not isinstance(coefficients, dict):
            raise VoiceConversionError("no 'coefficients' object")
        pairs = {f"{a}:{b}": (a, b) for a, b in PAIR_ORDER}
        if coefficients.keys() != pairs.keys():
            raise VoiceConversionError(f"'coefficients' keys {', '.join(coefficients)} "
                                       f"are not {', '.join(pairs)}")
        for key, value in coefficients.items():
            # json reads NaN and Infinity as floats; the range test is false for both
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not -1.0 <= value <= 1.0):
                raise VoiceConversionError(f"{key!r} value {value!r} is not a number in [-1, 1]")
    return {pairs[key]: float(value) for key, value in coefficients.items()}


# --- correlation analysis ----------------------------------------------------------

def correlation_matrix(rows) -> np.ndarray:
    """The 5x5 Pearson correlation matrix of the score columns, in ``METRIC_LABELS`` order.

    Fewer than 3 rows, or a column of zero variance (named by its label),
    raises ``CorrelationFileError``.
    """
    rows = list(rows)
    if len(rows) < 3:
        raise CorrelationFileError(
            f"need at least 3 rows for a correlation matrix, got {len(rows)}"
        )
    columns = np.array([[r.mcd, r.wer, r.asv, r.naturalness, r.similarity]
                        for r in rows]).T
    for label, column in zip(METRIC_LABELS, columns):
        if float(column.std()) == 0.0:
            raise CorrelationFileError(f"column {label} has zero variance")
    return np.corrcoef(columns)


def _pairs(matrix, published):
    """``(pair, computed, published, |gap|)`` for each pair of ``PAIR_ORDER``."""
    cells = itertools.combinations(range(len(METRIC_LABELS)), 2)
    for (i, j), pair in zip(cells, PAIR_ORDER):
        ours = float(matrix[i, j])
        yield pair, ours, published[pair], abs(ours - published[pair])


def max_deviation(matrix, published) -> float:
    """The largest |computed - published| over the pairs of ``PAIR_ORDER``."""
    return max(gap for *_, gap in _pairs(matrix, published))


def comparison_report(matrix, published) -> list[dict]:
    """Per-pair rows: computed vs published coefficient and the deviation."""
    return [{"pair": f"{a}-{b}", "computed": round(ours, 4), "published": ref,
             "deviation": round(gap, 4)}
            for (a, b), ours, ref, gap in _pairs(matrix, published)]
