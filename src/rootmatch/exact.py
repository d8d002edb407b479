"""Small exact linear algebra kernel over the rationals.

Everything here is deliberately dependency free.  A rational row
(ints or ``fractions.Fraction``) is read once as an integer row on the
same ray; rank and inverse are both fraction-free Bareiss eliminations
on Python ints, so zero tests are decisions, not tolerance checks, and
there is no rational solve.
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


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(adj, det)`` for a square matrix of Python ints: ``det = |det(rows)|``
    and ``adj = det * rows^-1``, an integer matrix; ``ValueError`` when
    ``rows`` is singular or not square.

    Fraction-free Gauss-Jordan on ``[rows | I]`` (Bareiss 1968): after
    step k every entry is a minor of order k + 1, so the division by the
    previous pivot is exact, and the left block ends as ``d * I`` with
    ``d = +-det``; one sign flip makes ``det`` positive.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for c in range(n):
        for i in range(c, n):
            if work[i][c]:
                break
        else:
            raise ValueError("matrix is singular")
        top = work[i]
        work[i] = work[c]
        work[c] = top
        lead = top[c]
        for i in range(n):
            if i != c:
                row = work[i]
                f = row[c]
                work[i] = [(lead * a - f * b) // prev for a, b in zip(row, top)]
        prev = lead
    sign = 1 if prev > 0 else -1
    return tuple(tuple(sign * x for x in row[n:]) for row in work), sign * prev


def primitive_integer(vec: Sequence[Rat]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same ray)."""
    ints = integer_row(vec)
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)
