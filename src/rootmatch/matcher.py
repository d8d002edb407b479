"""Choosing two columns per row, all distinct.

Two independent routes certify the same statement.  ``greedy_match`` is
a staged greedy pass: rows are processed lightest first, the top row of
each stage takes its two leftmost live entries, and two repair moves
(one per phase) rescue the known failure modes by revising an earlier
choice.  ``oracle_match`` is a plain augmenting-path bipartite matching
over two copies of each row, exact and hypothesis free, used to
cross-check existence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import NoMatchingError
from .framematrix import SelectionMatrix, masks_from_rows

MatrixLike = Union[SelectionMatrix, Sequence[Sequence[int]]]


def _rows_of(matrix: MatrixLike) -> tuple[tuple[int, ...], int]:
    """Row bitmasks and column count; raw 0/1 rows are validated first."""
    if isinstance(matrix, SelectionMatrix):
        return matrix.masks, matrix.cols
    return masks_from_rows(matrix)


def _low_bits(mask: int, count: int) -> list[int]:
    """Indices of the lowest ``count`` set bits of ``mask``, ascending."""
    out = []
    while mask and len(out) < count:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class MatchResult:
    """Per row a pair of distinct column indices, all 2n globally distinct."""

    pairs: tuple[tuple[int, int], ...]

    def columns(self) -> list[int]:
        return [c for pair in self.pairs for c in pair]


@dataclass(frozen=True)
class StageRecord:
    stage: int
    phase: int
    order: tuple[int, ...]
    top_row: int
    counts: tuple[tuple[int, int], ...]  # (row, live entries) at stage start
    chosen: tuple[int, int]


@dataclass(frozen=True)
class RepairRecord:
    kind: str  # "last_row_swap" or "put_back"
    stage: int
    failing_row: int
    donor_row: int
    column_restored: int
    column_taken: int


@dataclass(frozen=True)
class AlgoTrace:
    stages: tuple[StageRecord, ...]
    repairs: tuple[RepairRecord, ...]


def greedy_match(matrix: MatrixLike) -> tuple[MatchResult, AlgoTrace]:
    """Run the staged greedy selection, with both repairs, and trace it.

    Phase 1 processes the rows whose weight equals the number of rows;
    phase 2 continues with the remaining rows without resetting the
    stage counter.  Tie-breaks are deterministic: stages take the
    lightest surviving row (stable in the original row index) and the
    top row takes its two leftmost live entries.  On inputs violating
    the structural properties the run is best effort and may raise
    ``NoMatchingError``; it never loops.
    """
    rows, m = _rows_of(matrix)
    n = len(rows)
    weights = [row.bit_count() for row in rows]
    surviving = (1 << m) - 1  # columns no row holds right now
    removed_ever = 0  # columns some row has held
    assigned: dict[int, list[int]] = {}
    processed: list[int] = []
    stages: list[StageRecord] = []
    repairs: list[RepairRecord] = []
    repair_used = {1: False, 2: False}
    pending = {
        1: [i for i in range(n) if weights[i] == n],
        2: [i for i in range(n) if weights[i] != n],
    }

    def fail(stage: int):
        trace = AlgoTrace(stages=tuple(stages), repairs=tuple(repairs))
        raise NoMatchingError(f"greedy selection failed at stage {stage}", trace=trace)

    def repair_last_row_swap(failing: int, stage: int) -> bool:
        # Revise the first phase-1 choice: hand the failing row back the
        # column it shared with that row, and let the donor take one of
        # its entries no other row uses.
        nonlocal surviving, removed_ever
        if repair_used[1]:
            return False
        phase1_done = [i for i in processed if weights[i] == n]
        if not phase1_done:
            return False
        donor = phase1_done[0]
        pair = assigned[donor]
        overlap = [c for c in pair if rows[failing] >> c & 1]
        if not overlap:
            return False
        restored = overlap[0]
        others = 0
        for i in range(n):
            if i != donor:
                others |= rows[i]
        private = rows[donor] & surviving & ~others & ~sum(1 << c for c in pair)
        if not private:
            return False
        taken = _low_bits(private, 1)[0]
        pair.remove(restored)
        pair.append(taken)
        surviving |= 1 << restored
        surviving &= ~(1 << taken)
        removed_ever |= 1 << taken
        repairs.append(
            RepairRecord("last_row_swap", stage, failing, donor, restored, taken)
        )
        repair_used[1] = True
        return True

    def repair_put_back(failing: int, stage: int) -> bool:
        # Take the lowest never-removed columns holding a 1 of an already
        # processed row (those rows can donate: they have a chosen pair),
        # hand them to their owners, and put back the higher-indexed
        # column of each donor pair.  Two such columns exist in the
        # analyzed failure mode; a single one still rescues a failing row
        # that kept one live entry.
        nonlocal surviving, removed_ever
        if repair_used[2]:
            return False
        held = 0
        for i in processed:
            held |= rows[i]
        fresh = _low_bits(held & ~removed_ever, 2)
        if not fresh:
            return False
        plan = []
        pair_copies = {i: list(assigned[i]) for i in processed}
        newly_taken: set[int] = set()
        for c in fresh:
            donor = next(i for i in processed if rows[i] >> c & 1)
            options = [x for x in pair_copies[donor] if x not in newly_taken]
            if not options:
                return False
            put_back = max(options)
            pair_copies[donor].remove(put_back)
            pair_copies[donor].append(c)
            newly_taken.add(c)
            plan.append((donor, put_back, c))
        for donor, put_back, c in plan:
            assigned[donor].remove(put_back)
            assigned[donor].append(c)
            surviving |= 1 << put_back
            surviving &= ~(1 << c)
            removed_ever |= 1 << c
            repairs.append(
                RepairRecord("put_back", stage, failing, donor, put_back, c)
            )
        repair_used[2] = True
        return True

    t = 1
    phase = 1 if pending[1] else 2
    while pending[1] or pending[2]:
        if phase == 1 and not pending[1]:
            phase = 2
        pool = pending[phase]  # ascending row indices, so the sort below is by (count, row)
        counts = {i: (rows[i] & surviving).bit_count() for i in pool}
        order = sorted(pool, key=counts.__getitem__)
        top = order[0]
        candidates = _low_bits(rows[top] & surviving, 2)
        if len(candidates) < 2:
            if phase == 1:
                repaired = repair_last_row_swap(top, t)
            else:
                repaired = repair_put_back(top, t)
            if repaired:
                candidates = _low_bits(rows[top] & surviving, 2)
            if len(candidates) < 2:
                fail(t)
        chosen = (candidates[0], candidates[1])
        stages.append(
            StageRecord(
                stage=t,
                phase=phase,
                order=tuple(order),
                top_row=top,
                counts=tuple(counts.items()),
                chosen=chosen,
            )
        )
        assigned[top] = list(chosen)
        chosen_mask = (1 << chosen[0]) | (1 << chosen[1])
        surviving &= ~chosen_mask
        removed_ever |= chosen_mask
        pool.remove(top)
        processed.append(top)
        t += 1

    pairs = tuple((min(assigned[i]), max(assigned[i])) for i in range(n))
    trace = AlgoTrace(stages=tuple(stages), repairs=tuple(repairs))
    return MatchResult(pairs=pairs), trace


def oracle_match(matrix: MatrixLike) -> MatchResult | None:
    """Exact existence check via augmenting paths on doubled row nodes.

    Each search tries a row's columns in ascending order and visits a
    column at most once; ``visited`` is the bitmask of the columns the
    current search has visited.
    """
    rows, m = _rows_of(matrix)
    n = len(rows)
    match_col: list[tuple[int, int] | None] = [None] * m
    visited = 0

    def augment(node: tuple[int, int]) -> bool:
        nonlocal visited
        row = rows[node[0]]
        todo = row & ~visited
        while todo:
            low = todo & -todo
            c = low.bit_length() - 1
            visited |= low
            holder = match_col[c]
            # a holder with no unvisited column left cannot move
            if holder is None or (rows[holder[0]] & ~visited and augment(holder)):
                match_col[c] = node
                return True
            todo = row & ~visited & -(low << 1)  # unvisited columns above c
        return False

    matched = 0
    for i in range(n):
        for copy in (0, 1):
            visited = 0
            if augment((i, copy)):
                matched += 1
    if matched < 2 * n:
        return None
    cols_by_row: dict[int, list[int]] = {i: [] for i in range(n)}
    for c, holder in enumerate(match_col):
        if holder is not None:
            cols_by_row[holder[0]].append(c)
    pairs = tuple(
        (min(cols_by_row[i]), max(cols_by_row[i])) for i in range(n)
    )
    return MatchResult(pairs=pairs)


def validate(matrix: MatrixLike, result: MatchResult) -> bool:
    """True iff the pairs hit 1-entries, are distinct per row, 2n overall."""
    rows, m = _rows_of(matrix)
    if len(result.pairs) != len(rows):
        return False
    seen = 0
    for row, (j, k) in zip(rows, result.pairs):
        if j == k:
            return False
        for c in (j, k):
            if not 0 <= c < m or not row >> c & 1:
                return False
            seen |= 1 << c
    return seen.bit_count() == 2 * len(rows)
