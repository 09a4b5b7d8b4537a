"""Bundled benchmark table and the correlation reproduction study."""

from recsynvc.benchmark import (
    METRIC_LABELS,
    PAIR_ORDER,
    best_matching_subset,
    comparison_report,
    correlation_matrix,
    load_benchmark_rows,
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


def test_candidate_subsets():
    """Given one candidate's own coefficients, the search picks exactly that candidate."""
    rows = load_benchmark_rows()
    dropped = {"all": set(), "s3r+ppg": {"mel"}, "s3r+mel": {"PPG (TIMIT)"},
               "s3r_only": {"mel", "PPG (TIMIT)"}}
    sizes = {"all": 16, "s3r+ppg": 15, "s3r+mel": 15, "s3r_only": 14}
    for name, systems in dropped.items():
        subset = [r for r in rows if r.system not in systems]
        own = _triangle(correlation_matrix(subset))
        found, found_rows, matrix, gap = best_matching_subset(rows, own)
        assert (found, len(found_rows), gap) == (name, sizes[name], 0.0)
        assert found_rows == subset


def test_best_matching_subset_close():
    name, rows, matrix, gap = best_matching_subset()
    assert name in {"all", "s3r+ppg", "s3r+mel", "s3r_only"}
    assert gap <= 0.02
    # the winner's deviation is recomputable from its rows
    published = published_correlations()
    own = _triangle(correlation_matrix(rows))
    assert max(abs(own[pair] - published[pair]) for pair in PAIR_ORDER) == gap


def test_comparison_report_structure():
    name, rows, matrix, gap = best_matching_subset()
    report = comparison_report(matrix, published_correlations())
    assert [entry["pair"] for entry in report] == [f"{a}-{b}" for a, b in PAIR_ORDER]
    for entry in report:
        assert entry["published"] is not None
        assert entry["deviation"] is not None
        assert entry["deviation"] <= 0.02 + 1e-9
        assert abs(entry["computed"]) <= 1.0
