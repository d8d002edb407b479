"""Small exact linear algebra kernel over the rationals.

Everything here is deliberately dependency free: vectors are tuples of
ints or ``fractions.Fraction`` and eliminations are done symbolically so
that zero tests are decisions, not tolerance checks.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

from .errors import InvalidParamsError

Rat = Union[int, Fraction]


def as_int(x, what: str, least: int | None = None) -> int:
    """``operator.index(x)``, the one reading of an integer argument: a
    bool, a value without ``__index__`` or one below ``least`` is an
    ``InvalidParamsError``."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise InvalidParamsError(f"{what} must be an integer, got {x!r}")
    x = operator.index(x)
    if least is not None and x < least:
        raise InvalidParamsError(f"{what} must be at least {least}, got {x}")
    return x


_INT = {int}
_EXACT = {int, Fraction}


def integer_row(row: Sequence[Rat]) -> list[int]:
    """Scale a row by the lcm of its denominators: an integer row on the same ray.

    This is how a vector of the flat is read (``rootdata.flat_row``): a
    row of ints is copied; any entry other than an int or a Fraction goes
    through ``Fraction(x)`` first, as a frame file's entries do.  The
    scaling runs on the ``as_integer_ratio()`` pairs with one lcm, and
    entries come out as Python ints, also where the input held numpy
    integers, which would wrap around in the elimination.
    """
    types = set(map(type, row))
    if types <= _INT:
        return list(row)
    if not types <= _EXACT:
        row = list(map(Fraction, row))
    ratios = [x.as_integer_ratio() for x in row]
    scale = lcm(*[d for _, d in ratios])
    return [int(n) * (scale // d) for n, d in ratios]


def integer_rows(rows: Sequence[Sequence[Rat]]) -> list[list[int]]:
    """``integer_row`` of each row (the rank is unchanged)."""
    return [integer_row(row) for row in rows]


def exact_rank(rows: Sequence[Sequence[Rat]]) -> int:
    """Rank of a small rational matrix: ``integer_rank`` of its integer rows."""
    return integer_rank(integer_rows(rows))


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix of Python ints, fraction free; ``rows`` is left as is.

    Bareiss elimination (Bareiss 1968): every intermediate entry is a
    minor of the input, so the division below is exact and entries stay
    polynomially bounded.  A step replaces whole rows of a list of its
    own and never writes into a row it was given.
    """
    work = list(rows)
    m = len(work)
    if not m:
        return 0
    r = 0
    prev = 1
    for c in range(len(work[0])):
        for i in range(r, m):
            if work[i][c]:
                break
        else:
            continue
        top = work[i]
        work[i] = work[r]
        work[r] = top
        r += 1
        if r == m:
            break
        lead = top[c]
        for i in range(r, m):
            row = work[i]
            f = row[c]
            work[i] = [(lead * a - f * b) // prev for a, b in zip(row, top)]
        prev = lead
    return r


def solve_unique_many(
    rows: Sequence[Sequence[Rat]], rhss: Sequence[Sequence[Rat]]
) -> tuple[tuple[Fraction, ...], ...]:
    """Solve a consistent rational system with a unique solution, for
    several right-hand sides in one elimination.

    Accepts more equations than unknowns; raises ``ValueError`` when the
    system is inconsistent or underdetermined.
    """
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
