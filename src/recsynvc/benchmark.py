"""Bundled published benchmark data and the correlation reproduction study.

The package ships a transcription of the published VCC2020 intra-lingual
A2O results (Taco2-AR decoder, one row per upstream) plus the published
pairwise correlation coefficients.  Because the published description of the
correlation analysis leaves open whether the mel and PPG baselines were
included, ``best_matching_subset`` evaluates every plausible row subset and
picks the one that fits all ten published coefficients best.
"""

from __future__ import annotations

import itertools
import json
from importlib import resources
from pathlib import Path

from .errors import CorrelationFileError
from .evaluator import (
    METRIC_LABELS,
    CorrelationResult,
    MetricsRow,
    correlation_matrix,
    read_metrics_table,
)

PAIR_ORDER = tuple(itertools.combinations(METRIC_LABELS, 2))

_BASELINE_SYSTEMS = ("mel", "PPG (TIMIT)")


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
    ``PAIR_ORDER``, to a number.  A file of any other form raises
    ``CorrelationFileError`` naming it.
    """
    source = _data_file("published_correlations.json") if path is None else Path(path)
    try:
        raw = json.loads(source.read_text("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorrelationFileError(f"{source}: not UTF-8 JSON ({exc})") from None
    coefficients = raw.get("coefficients") if isinstance(raw, dict) else None
    if not isinstance(coefficients, dict):
        raise CorrelationFileError(f"{source}: no 'coefficients' object")
    pairs = {f"{a}:{b}": (a, b) for a, b in PAIR_ORDER}
    if coefficients.keys() != pairs.keys():
        raise CorrelationFileError(f"{source}: 'coefficients' keys {', '.join(coefficients)} "
                                   f"are not {', '.join(pairs)}")
    for key, value in coefficients.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CorrelationFileError(f"{source}: {key!r} value {value!r} is not a number")
    return {pairs[key]: float(value) for key, value in coefficients.items()}


def upper_triangle(result: CorrelationResult) -> dict[tuple[str, str], float]:
    index = {label: i for i, label in enumerate(result.labels)}
    return {
        (a, b): float(result.matrix[index[a], index[b]]) for a, b in PAIR_ORDER
    }


def candidate_subsets(rows) -> dict[str, list[MetricsRow]]:
    """Plausible interpretations of "results over different upstreams"."""
    rows = list(rows)
    by_system = {r.system: r for r in rows}
    mel = by_system.get("mel")
    ppg = by_system.get("PPG (TIMIT)")
    s3r = [r for r in rows if r.system not in _BASELINE_SYSTEMS]
    subsets = {"all": rows}
    if ppg is not None:
        subsets["s3r+ppg"] = [r for r in rows if r is not mel]
    if mel is not None:
        subsets["s3r+mel"] = [r for r in rows if r is not ppg]
    subsets["s3r_only"] = s3r
    return subsets


def subset_deviation(rows, published) -> tuple[CorrelationResult, float]:
    """Max absolute gap between computed and published coefficients."""
    result = correlation_matrix(rows)
    computed = upper_triangle(result)
    gap = max(abs(computed[pair] - published[pair]) for pair in published)
    return result, gap


def best_matching_subset(rows=None, published=None):
    """Pick the row subset whose correlations best match the published set.

    Returns ``(name, rows, result, max_deviation)``; candidates are searched
    in a fixed order so ties resolve deterministically.
    """
    if rows is None:
        rows = load_benchmark_rows()
    if published is None:
        published = published_correlations()
    best = None
    for name, subset in candidate_subsets(rows).items():
        result, gap = subset_deviation(subset, published)
        if best is None or gap < best[3]:
            best = (name, subset, result, gap)
    return best


def comparison_report(result: CorrelationResult, published) -> list[dict]:
    """Per-pair rows: computed vs published coefficient and the deviation."""
    computed = upper_triangle(result)
    report = []
    for pair in PAIR_ORDER:
        ours, ref = computed[pair], published[pair]
        report.append({
            "pair": f"{pair[0]}-{pair[1]}",
            "computed": round(ours, 4),
            "published": ref,
            "deviation": round(abs(ours - ref), 4),
        })
    return report
