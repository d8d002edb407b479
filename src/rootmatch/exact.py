"""Small exact linear algebra kernel over the rationals.

Everything here is deliberately dependency free: vectors are tuples of
ints or ``fractions.Fraction`` and eliminations are done symbolically so
that zero tests are decisions, not tolerance checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

Rat = Union[int, Fraction]


def dot(x: Sequence[Rat], y: Sequence[Rat]) -> Rat:
    if len(x) != len(y):
        raise ValueError("dimension mismatch in exact dot product")
    return sum(a * b for a, b in zip(x, y))


_INT = {int}


def integer_row(row: Sequence[Rat]) -> list[int]:
    """Scale a row by the lcm of its denominators: an integer row on the same ray.

    ints and Fractions are scaled through their numerator and
    denominator; any other rational goes through ``Fraction(x)`` first.
    Entries come out as Python ints, also where a numerator is a numpy
    integer, which would wrap around in the elimination.
    """
    if set(map(type, row)) <= _INT:
        return list(row)
    fracs = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row]
    scale = lcm(*(f.denominator for f in fracs))
    return [int(f.numerator) * (scale // f.denominator) for f in fracs]


def integer_rows(rows: Sequence[Sequence[Rat]]) -> list[list[int]]:
    """``integer_row`` of each row (the rank is unchanged)."""
    return [integer_row(row) for row in rows]


def exact_rank(rows: Sequence[Sequence[Rat]]) -> int:
    """Rank of a small rational matrix, fraction free.

    Bareiss elimination over integers: every intermediate entry is a
    minor of the (row-scaled) input, so the division below is exact and
    entries stay polynomially bounded.
    """
    work = integer_rows(rows)
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        for i in range(r + 1, len(work)):
            f = work[i][c]
            work[i] = [(lead * a - f * b) // prev for a, b in zip(work[i], work[r])]
        prev = lead
        r += 1
        if r == len(work):
            break
    return r


def solve_unique(
    rows: Sequence[Sequence[Rat]], rhs: Sequence[Rat]
) -> tuple[Fraction, ...]:
    """Solve a consistent rational system with a unique solution.

    Accepts more equations than unknowns; raises ``ValueError`` when the
    system is inconsistent or underdetermined.
    """
    return solve_unique_many(rows, [rhs])[0]


def solve_unique_many(
    rows: Sequence[Sequence[Rat]], rhss: Sequence[Sequence[Rat]]
) -> tuple[tuple[Fraction, ...], ...]:
    """``solve_unique`` for several right-hand sides, in one elimination."""
    m = len(rows)
    if any(len(rhs) != m for rhs in rhss):
        raise ValueError("system shape mismatch")
    n = len(rows[0]) if m else 0
    aug = [
        [Fraction(x) for x in row] + [Fraction(rhs[i]) for rhs in rhss]
        for i, row in enumerate(rows)
    ]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        lead = aug[r][c]
        aug[r] = [a / lead for a in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if any(aug[i][n:]):
            raise ValueError("inconsistent system")
    if len(pivots) != n:
        raise ValueError("underdetermined system")
    solutions = []
    for k in range(n, n + len(rhss)):
        sol = [Fraction(0)] * n
        for i, c in enumerate(pivots):
            sol[c] = aug[i][k]
        solutions.append(tuple(sol))
    return tuple(solutions)


def primitive_integer(vec: Sequence[Rat]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same ray)."""
    ints = integer_row(vec)
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def in_span(vec: Sequence[Rat], basis: Sequence[Sequence[Rat]]) -> bool:
    """Exact membership of ``vec`` in the span of ``basis``."""
    if not basis:
        return all(Fraction(x) == 0 for x in vec)
    base = exact_rank(basis)
    return exact_rank(list(basis) + [vec]) == base
