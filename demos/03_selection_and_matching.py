"""From a frame to its selection matrix to a doubled column choice.

Rows of the selection matrix are frame vectors, columns are root
multiplicity slots, and an entry is 1 when the root does not vanish on
the vector.  The greedy pass then picks two 1-entries per row, all in
distinct columns, skipping a leftmost pair only when the rows still
pending could not be matched after it; an exact augmenting-path
matching cross-checks existence.
"""

from rootmatch import (
    build_matrix,
    greedy_match,
    make_frame,
    oracle_match,
    space,
    verify_properties,
)
from rootmatch.cli import column_label
from rootmatch.matcher import validate

sl4 = space("SL(4,R)")
frame = make_frame(sl4, [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
matrix = build_matrix(frame)

labels = [column_label(root, slot) for root, slot in matrix.col_labels]
print("columns:", " ".join(labels))
for i, row in enumerate(matrix.entries):
    print(f"row {i} {frame.vectors[i]!s:18s}", row)
print()

report = verify_properties(matrix, sl4)
print("five structural properties:", report.verdicts)
print()

result, trace = greedy_match(matrix)
for stage in trace.stages:
    chosen = [labels[c] for c in stage.chosen]
    print(f"stage {stage.stage} (phase {stage.phase}): row {stage.top_row} takes {chosen}")
print("deferred pairs:", trace.repairs or "none")
print("valid:", validate(matrix, result))
print("oracle agrees:", oracle_match(matrix) is not None)
print()

# On a frame of three maximal walls the leftmost pair of the first row
# would starve the rows after it, so the guard skips that pair; the rows
# that block it would have fewer than two columns each left.
wall_frame = make_frame(sl4, [(-3, 1, 1, 1), (1, -3, 1, 1), (1, 1, -3, 1)])
wall_matrix = build_matrix(wall_frame)
wall_labels = [column_label(root, slot) for root, slot in wall_matrix.col_labels]
result, trace = greedy_match(wall_matrix)
print("all-wall frame pairs:", result.pairs)
for d in trace.repairs:
    taken = {c for s in trace.stages if s.stage < d.stage for c in s.chosen} | set(d.pair)
    held = [
        wall_labels[c]
        for c in range(wall_matrix.cols)
        if c not in taken and any(wall_matrix.entries[i][c] for i in d.blocking_rows)
    ]
    print(
        f"stage {d.stage}: row {d.row} skips {[wall_labels[c] for c in d.pair]};"
        f" rows {list(d.blocking_rows)} would have only {held} left"
    )
