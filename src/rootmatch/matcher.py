"""Choosing two columns per row, all distinct.

Two independent routes certify the same statement.  ``greedy_match`` is
a staged greedy pass: rows are processed lightest first, and the top row
of each stage takes its leftmost live pair after which the rows still
pending can be matched (Hall's guard).  Each pair the guard skips is
recorded with the rows that rule it out.  The pass keeps one (top row,
pair) per stage; ``AlgoTrace.stages``, the stage records with each
stage's live counts and order, is derived from them on first read, so a
caller that reads only the pairs pays nothing for it.  ``oracle_match``
is an exact, hypothesis-free b-matching in which each row holds two
columns, used to cross-check existence; ``deficient_rows`` runs the same
search and, when no matching exists, names rows S whose 1-entries lie in
fewer than 2|S| columns.

The greedy pass is one staged loop, ``_pass``: the plain pass is that
loop with Hall's guard skipped, and only when it strands a row does the
loop run again with the guard on.  The b-matching is one search,
``_two_per_row``, behind the oracle, Hall's guard and
``deficient_rows``: one owner table of the held columns per call, and
per unit of a row's capacity the row's lowest free column or else a
breadth-first search for an augmenting path.  Its only fast path is the
oracle's: while each row in turn has two free columns it takes its two
lowest, as the search would, and at the first row with fewer the search
runs over all the rows.  A ``SelectionMatrix`` has checked its masks
when it is made, and raw 0/1 rows are checked by ``masks_from_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence, Union

from .errors import NoMatchingError
from .framematrix import SelectionMatrix, masks_from_rows

MatrixLike = Union[SelectionMatrix, Sequence[Sequence[int]]]


def _rows_of(matrix: MatrixLike) -> tuple[tuple[int, ...], int]:
    """Row bitmasks and column count; raw 0/1 rows are validated first."""
    if isinstance(matrix, SelectionMatrix):
        return matrix.masks, matrix.cols
    return masks_from_rows(matrix)


@dataclass(frozen=True)
class MatchResult:
    """Per row a pair of distinct column indices, all 2n globally distinct."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class StageRecord:
    stage: int
    phase: int
    order: tuple[int, ...]
    top_row: int
    counts: tuple[tuple[int, int], ...]  # (row, live entries) at stage start
    chosen: tuple[int, int]


@dataclass(frozen=True)
class DeferralRecord:
    """A live pair the top row skipped: once ``pair`` is taken, the
    pending rows ``blocking_rows`` (S) have fewer than 2|S| of the
    columns left, so no matching of them exists (Hall's theorem)."""

    stage: int
    row: int
    pair: tuple[int, int]
    blocking_rows: tuple[int, ...]
    kind: str = "deferred"


def _phases(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """Phase-1 rows (weight equal to the number of rows) and phase-2 rows,
    each in ascending row index."""
    n = len(rows)
    first: list[int] = []
    second: list[int] = []
    for i, row in enumerate(rows):
        (first if row.bit_count() == n else second).append(i)
    return first, second


@dataclass(frozen=True)
class AlgoTrace:
    """A greedy pass as run: the row bitmasks and column count it read,
    one ``(top row, pair)`` per completed stage in stage order, and the
    pairs Hall's guard deferred.

    ``stages`` is derived from the picks on first read and kept: it
    replays them over the rows, so that each ``StageRecord`` gives the
    live counts and the order of its stage's pool.  A failed plain pass
    has fewer picks than rows.
    """

    rows: tuple[int, ...]
    cols: int
    picks: tuple[tuple[int, tuple[int, int]], ...]
    repairs: tuple[DeferralRecord, ...]

    @cached_property
    def stages(self) -> tuple[StageRecord, ...]:
        rows = self.rows
        surviving = (1 << self.cols) - 1
        pools = _phases(rows)
        records = []
        for t, (top, chosen) in enumerate(self.picks, start=1):
            phase = 1 if pools[0] else 2
            pool = pools[phase - 1]  # ascending row indices, so the sort is by (count, row)
            counts = tuple((i, (rows[i] & surviving).bit_count()) for i in pool)
            order = tuple(i for i, _count in sorted(counts, key=lambda c: c[1]))
            if order[0] != top:
                raise RuntimeError("picks do not follow the stage rule")
            records.append(StageRecord(t, phase, order, top, counts, chosen))
            pool.remove(top)
            surviving &= ~(1 << chosen[0]) & ~(1 << chosen[1])
        return tuple(records)


def _pass(rows: Sequence[int], m: int, guarded: bool):
    """One staged pass; returns ``(pairs, picks, deferrals)``: the pair of
    each row, one ``(top, pair)`` per stage, and the pairs Hall's guard
    deferred.  Each top row takes its leftmost live pair, or, with the
    guard, its leftmost live pair after which the pending rows still
    match.  A top row with fewer than two live entries ends the pass with
    fewer picks than rows, which the guard never lets happen."""
    surviving = (1 << m) - 1  # columns no row holds yet
    pairs = [None] * len(rows)  # by row
    picks: list[tuple[int, tuple[int, int]]] = []
    deferrals: list[DeferralRecord] = []
    pools = _phases(rows)
    for pool in pools:
        while pool:
            # the lightest row, the lowest index among equals
            least = m + 1
            for i in pool:
                count = (rows[i] & surviving).bit_count()
                if count < least:
                    top, least = i, count
            pool.remove(top)
            live = rows[top] & surviving
            low = live & -live
            high = live ^ low
            if not high:
                return pairs, picks, deferrals
            high &= -high
            chosen = (low.bit_length() - 1, high.bit_length() - 1)
            rest = surviving ^ low ^ high  # the columns left once the pair is taken
            if guarded:
                # from the leftmost on, the first pair after which the
                # pending rows have a matching
                others = pools[0] + pools[1]
                for chosen in combinations([c for c in range(m) if live >> c & 1], 2):
                    rest = surviving & ~(1 << chosen[0]) & ~(1 << chosen[1])
                    held, reached = _two_per_row([rows[i] & rest for i in others], m)
                    if held is not None:
                        break
                    blocking = tuple(sorted(i for b, i in enumerate(others) if reached >> b & 1))
                    deferrals.append(DeferralRecord(len(picks) + 1, top, chosen, blocking))
                else:
                    raise AssertionError("Hall's guard rejected every pair")
            pairs[top] = chosen
            picks.append((top, chosen))
            surviving = rest
    return pairs, picks, deferrals


def greedy_match(matrix: MatrixLike) -> tuple[MatchResult, AlgoTrace]:
    """Run the staged greedy selection with Hall's guard, and trace it.

    Phase 1 processes the rows whose weight equals the number of rows;
    phase 2 continues with the remaining rows without resetting the
    stage counter.  Stages take the lightest surviving row (stable in
    the original row index), and the top row takes the lexicographically
    first live pair after which the pending rows, on the columns left,
    still have a two-per-row matching; each pair skipped is a
    ``DeferralRecord`` in ``trace.repairs``.  The pass runs first with
    the guard skipped, and again with it only when that plain pass
    strands a row, because a completed plain pass is a matching of every
    residual, so the guard would have passed each of its pairs.  The
    trace keeps one ``(top row, pair)`` per stage; its ``stages`` records
    are derived from them on first read.  Raises ``NoMatchingError``
    exactly when the matrix has no two-per-row matching; its ``trace``
    is the stranded plain pass.
    """
    rows, m = _rows_of(matrix)
    pairs, picks, deferrals = _pass(rows, m, False)
    if len(picks) < len(rows):
        pairs, picks, deferrals = _stranded(rows, m, picks)
    return MatchResult(tuple(pairs)), AlgoTrace(rows, m, tuple(picks), tuple(deferrals))


def _stranded(rows: Sequence[int], m: int, picks: list):
    """The guarded pass over rows whose plain pass stranded a row after
    ``picks``, when a matching exists; else a ``NoMatchingError`` that
    carries the plain pass."""
    held, reached = _two_per_row(rows, m)
    if held is None:
        blocking = [i for i in range(len(rows)) if reached >> i & 1]
        raise NoMatchingError(
            f"greedy selection failed at stage {len(picks) + 1}: no matching"
            f" exists, rows {blocking} hold fewer than {2 * len(blocking)} columns",
            trace=AlgoTrace(rows, m, tuple(picks), ()),
        )
    return _pass(rows, m, True)


def _two_per_row(rows: Sequence[int], m: int) -> tuple[list[int] | None, int]:
    """Capacity-two b-matching of rows into columns.

    Returns ``(held, 0)``, ``held[i]`` being the mask of the two columns
    row i holds, or ``(None, reached)`` with ``reached`` the mask of the
    rows a failed search reached.  Each unit of a row's capacity takes
    the row's lowest free column, or else a breadth-first search over the
    owners of the held columns finds a path to a free column (Hopcroft
    and Karp 1973).  When that search fails, every column of a reached
    row is held by a reached row, and those rows hold fewer than 2|S|
    columns, so the reached set S has |N(S)| < 2|S| (Konig 1931).
    """
    free = (1 << m) - 1
    owner = [0] * m  # the row that holds each held column
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
    """Exact existence check: a two-per-row matching, or None.

    While each row in turn has two free columns it takes its two lowest,
    as ``_two_per_row`` would; at the first row with fewer, ``_two_per_row``
    runs over all the rows."""
    rows, m = _rows_of(matrix)
    free = (1 << m) - 1
    pairs = []
    for row in rows:
        avail = row & free
        low = avail & -avail
        avail ^= low
        high = avail & -avail
        if not high:
            break
        free ^= low | high
        pairs.append((low.bit_length() - 1, high.bit_length() - 1))
    else:
        return MatchResult(tuple(pairs))
    held, _reached = _two_per_row(rows, m)
    if held is None:
        return None
    # each mask holds two bits: the lowest and the highest
    return MatchResult(tuple([((h & -h).bit_length() - 1, h.bit_length() - 1) for h in held]))


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
