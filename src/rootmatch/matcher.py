"""Choosing two columns per row, all distinct.

Two independent routes certify the same statement.  ``greedy_match`` is
a staged greedy pass: rows are processed lightest first, the top row of
each stage takes its two leftmost live entries, and two repair moves
(one per phase) rescue the known failure modes by revising an earlier
choice.  ``oracle_match`` is an exact, hypothesis-free b-matching in
which each row holds two columns, used to cross-check existence;
``deficient_rows`` runs the same search and, when no matching exists,
names rows S whose 1-entries lie in fewer than 2|S| columns.
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


def _two_per_row(rows: Sequence[int], m: int) -> tuple[list[int] | None, int]:
    """Capacity-two b-matching of rows into columns.

    Returns ``(held, 0)``, ``held[i]`` being the mask of the two columns
    row i holds, or ``(None, reached)`` with ``reached`` the mask of the
    rows a failed search reached.  Each unit of a row's capacity takes
    the row's lowest free column; when none is free, a breadth-first
    search over owners looks for a path to a free column (Hopcroft and
    Karp 1973).  When that search fails, every column of a reached row
    is held by a reached row, and those rows hold fewer than 2|S|
    columns, so the reached set S has |N(S)| < 2|S| (Konig 1931).
    """
    free = (1 << m) - 1
    owner = [0] * m
    held = [0] * len(rows)
    for i, row in enumerate(rows):
        for _unit in (0, 1):
            r, avail = i, row & free
            if not avail:
                # breadth first over owners: the rows reached, the columns
                # they hold, and per row the row and column it was reached by
                reached, covered, via, queue = 1 << i, held[i], {}, [i]
                for r in queue:
                    avail = rows[r] & free
                    if avail:
                        break
                    todo = rows[r] & ~covered
                    while todo:
                        low = todo & -todo
                        todo ^= low
                        o = owner[low.bit_length() - 1]
                        if not reached >> o & 1:
                            reached |= 1 << o
                            covered |= held[o]
                            via[o] = (r, low)
                            queue.append(o)
                else:
                    return None, reached
            # r takes its lowest free column; each row on the path back to
            # i hands the column it was reached by to the row before it
            low = avail & -avail
            free ^= low
            while True:
                held[r] |= low
                owner[low.bit_length() - 1] = r
                if r == i:
                    break
                prev, given = via[r]
                held[r] ^= given
                r, low = prev, given
    return held, 0


def oracle_match(matrix: MatrixLike) -> MatchResult | None:
    """Exact existence check: a two-per-row matching, or None."""
    rows, m = _rows_of(matrix)
    held, _reached = _two_per_row(rows, m)
    if held is None:
        return None
    # each mask holds two bits: the lowest and the highest
    return MatchResult(pairs=tuple(((h & -h).bit_length() - 1, h.bit_length() - 1) for h in held))


def deficient_rows(matrix: MatrixLike) -> tuple[int, ...] | None:
    """Rows S with |N(S)| < 2|S| (0-based), or None when a matching exists."""
    rows, m = _rows_of(matrix)
    held, reached = _two_per_row(rows, m)
    if held is not None:
        return None
    return tuple(i for i in range(len(rows)) if reached >> i & 1)


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
