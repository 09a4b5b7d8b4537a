"""Bundled benchmark table and the correlation reproduction study."""

from recsynvc.benchmark import (
    METRIC_LABELS,
    PAIR_ORDER,
    comparison_report,
    correlation_matrix,
    load_benchmark_rows,
    max_deviation,
    published_correlations,
)


def _triangle(matrix) -> dict[tuple[str, str], float]:
    """A matrix's coefficients keyed as ``published_correlations`` keys them."""
    index = {label: i for i, label in enumerate(METRIC_LABELS)}
    return {(a, b): float(matrix[index[a], index[b]]) for a, b in PAIR_ORDER}


def test_bundled_rows():
    rows = load_benchmark_rows()
    assert len(rows) == 16
    systems = {r.system for r in rows}
    assert "mel" in systems
    assert "PPG (TIMIT)" in systems
    for row in rows:
        assert row.naturalness is not None
        assert row.similarity is not None
        assert 0.0 < row.mcd < 20.0
        assert 0.0 <= row.wer <= 100.0


def test_published_coefficients():
    published = published_correlations()
    assert set(published) == set(PAIR_ORDER)
    for value in published.values():
        assert -1.0 <= value <= 1.0


def test_upper_triangle_matches_matrix():
    """The report reads each pair from the matrix's upper triangle, in ``PAIR_ORDER``."""
    matrix = correlation_matrix(load_benchmark_rows())
    own = _triangle(matrix)
    report = comparison_report(matrix, own)
    assert [entry["pair"] for entry in report] == [f"{a}-{b}" for a, b in PAIR_ORDER]
    for entry, pair in zip(report, PAIR_ORDER):
        assert (entry["computed"], entry["published"]) == (round(own[pair], 4), own[pair])
        assert entry["deviation"] == 0.0


def test_all_rows_match_the_published_coefficients():
    matrix = correlation_matrix(load_benchmark_rows())
    published = published_correlations()
    gap = max_deviation(matrix, published)
    assert gap <= 0.02
    # the deviation is recomputable from the matrix
    own = _triangle(matrix)
    assert max(abs(own[pair] - published[pair]) for pair in PAIR_ORDER) == gap


def test_leaving_out_a_baseline_fits_worse():
    """All 16 rows fit within 0.0125; without mel, PPG or both the largest
    gaps are 0.065, 0.207 and 0.184, so the published study used every row."""
    rows = load_benchmark_rows()
    published = published_correlations()
    for dropped in ({"mel"}, {"PPG (TIMIT)"}, {"mel", "PPG (TIMIT)"}):
        subset = [r for r in rows if r.system not in dropped]
        assert len(subset) == len(rows) - len(dropped)
        assert max_deviation(correlation_matrix(subset), published) > 0.05


def test_comparison_report_structure():
    matrix = correlation_matrix(load_benchmark_rows())
    report = comparison_report(matrix, published_correlations())
    assert [entry["pair"] for entry in report] == [f"{a}-{b}" for a, b in PAIR_ORDER]
    for entry in report:
        assert entry["published"] is not None
        assert entry["deviation"] is not None
        assert entry["deviation"] <= 0.02 + 1e-9
        assert abs(entry["computed"]) <= 1.0
