"""
Metric correlation study
========================

Reproduces the published pairwise correlations between objective and
subjective voice conversion metrics from the bundled benchmark table:
16 systems (14 self-supervised upstreams plus mel and PPG baselines)
scored on MCD, WER, ASV accept rate, naturalness, and similarity.
"""

from recsynvc.benchmark import (
    METRIC_LABELS,
    comparison_report,
    correlation_matrix,
    load_benchmark_rows,
    max_deviation,
    published_correlations,
)

rows = load_benchmark_rows()
print(f"benchmark table: {len(rows)} systems")
for row in rows[:4]:
    print(f"  {row.system:<14} mcd={row.mcd:.2f} wer={row.wer:.1f} "
          f"asv={row.asv:.1f} nat={row.naturalness:.2f} "
          f"sim={row.similarity:.1f}")
print("  ...")

# every row enters the correlation, the mel and PPG baselines included
matrix = correlation_matrix(rows)
published = published_correlations()
print(f"\nall {len(rows)} rows: "
      f"max |computed - published| = {max_deviation(matrix, published):.4f}")

print(f"\n{'pair':<10} {'computed':>9} {'published':>10} {'gap':>7}")
for entry in comparison_report(matrix, published):
    print(f"{entry['pair']:<10} {entry['computed']:>+9.3f} "
          f"{entry['published']:>+10.3f} {entry['deviation']:>7.4f}")

# strongest relationships: distortion against perceived naturalness and
# speaker accept rate against perceived similarity
index = {label: i for i, label in enumerate(METRIC_LABELS)}
print(f"\ncorr(MCD, NAT) = {matrix[index['MCD'], index['NAT']]:+.3f}")
print(f"corr(ASV, SIM) = {matrix[index['ASV'], index['SIM']]:+.3f}")

# same study from the command line:
#   recsynvc correlate --out correlations.json
