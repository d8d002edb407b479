import itertools
from decimal import Decimal
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmatch.errors import InvalidParamsError
from rootmatch.exact import (
    cayley,
    exact_rank,
    integer_inverse,
    integer_rank,
    integer_rows,
    primitive_integer,
)

from oracles import fraction_inverse


def test_rank_full_and_deficient():
    assert exact_rank([(1, 0), (0, 1)]) == 2
    assert exact_rank([(1, 2), (2, 4)]) == 1
    assert exact_rank([(0, 0), (0, 0)]) == 0
    assert exact_rank([]) == 0
    # near-singular for floats, exact for us
    assert exact_rank([(1, 1), (1, Fraction(10**12 + 1, 10**12))]) == 2


def test_rank_rectangular():
    rows = [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)]
    assert exact_rank(rows) == 3
    assert exact_rank(rows + [(2, 0, 2, -4)]) == 3  # row0 + row2


def _fraction_rank(rows):
    """Independent oracle: plain Gaussian elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / lead
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def test_rank_against_fraction_oracle():
    rng = np.random.default_rng(31)
    for trial in range(500):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        mat = rng.integers(-9, 10, size=(n, m))
        if rng.random() < 0.5 and n >= 2:
            # force dependence to exercise column skipping
            mat[n - 1] = mat[0] * int(rng.integers(-3, 4))
        if trial % 3 == 0:
            mat[:, : int(rng.integers(0, m + 1))] = 0  # leading zero columns
        dens = rng.integers(1, 13, size=(n, m))
        forms = {
            "int": [tuple(int(x) for x in row) for row in mat],
            "int64": mat,
            "int64 rows": [tuple(row) for row in mat],
            # Fractions over denominators that differ within a row
            "Fraction": [
                tuple(Fraction(int(x), int(d)) for x, d in zip(row, drow))
                for row, drow in zip(mat, dens)
            ],
        }
        for name, rows in forms.items():
            before = [list(row) for row in rows]
            assert exact_rank(rows) == _fraction_rank(rows), name
            assert [list(row) for row in rows] == before, name
        ints = integer_rows(forms["Fraction"])
        before = [list(row) for row in ints]
        expected = _fraction_rank(forms["Fraction"])
        assert integer_rank(ints) == integer_rank(tuple(map(tuple, ints))) == expected
        assert ints == before  # the kernel writes into no row it was given


@st.composite
def _matrices(draw):
    """Integer n x n matrices, n = 1..9, entries in [-9, 9].  A zero
    leading z x z block, z <= n / 2, makes the first pivots come from
    lower rows; about one draw in four repeats a row up to sign, so it
    is singular; the determinant's sign is left to the entries."""
    n = draw(st.integers(1, 9))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    z = draw(st.integers(0, n // 2))
    for r in rows[:z]:
        r[:z] = [0] * z
    if n > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[j] = [draw(st.sampled_from((-1, 1))) * x for x in rows[i]]
    return rows


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_matrices())
def test_integer_inverse_matches_fraction_inverse(rows):
    before = [list(row) for row in rows]
    want = fraction_inverse(rows)
    if want is None:
        with pytest.raises(ValueError, match="singular"):
            integer_inverse(rows)
    else:
        adj, det = integer_inverse(rows)
        assert det > 0
        assert all(type(x) is int for row in adj for x in row)
        assert [[Fraction(x, det) for x in row] for row in adj] == want
    assert rows == before  # the kernel writes into no row it was given


def test_integer_inverse_swaps_rows_and_flips_the_sign():
    # a zero leading pivot and a negative determinant
    adj, det = integer_inverse([[0, 1], [1, 0]])
    assert (adj, det) == (((0, 1), (1, 0)), 1)
    adj, det = integer_inverse([[0, 2, 0], [3, 0, 0], [0, 0, 1]])
    assert det == 6 and adj == ((0, 2, 0), (3, 0, 0), (0, 0, 6))
    assert integer_inverse([]) == ((), 1)
    for singular in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 1]]):
        with pytest.raises(ValueError, match="singular"):
            integer_inverse(singular)
    with pytest.raises(ValueError, match="not square"):
        integer_inverse([[1, 0, 0], [0, 1, 0]])


@st.composite
def _skews(draw):
    """Integer skew-symmetric n x n matrices, n = 1..6, entries in [-9, 9]."""
    n = draw(st.integers(1, 6))
    skew = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        skew[i][j] = draw(st.integers(-9, 9))
        skew[j][i] = -skew[i][j]
    return skew


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_skews(), st.integers(1, 5))
def test_cayley_matches_fraction_inverse(skew, d):
    n = len(skew)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    s = [[Fraction(x, d) for x in row] for row in skew]
    inverse = fraction_inverse([[e + x for e, x in zip(*rows)] for rows in zip(eye, s)])
    minus = [[e - x for e, x in zip(*rows)] for rows in zip(eye, s)]
    want = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in minus]
    num, det = cayley(skew, d)
    assert det > 0
    assert all(type(x) is int for row in num for x in row)
    assert [[Fraction(x, det) for x in row] for row in num] == want
    gram = [[sum(a * b for a, b in zip(r, q)) for q in num] for r in num]
    assert gram == [[det * det * e for e in row] for row in eye]


def test_cayley_refuses_what_is_not_skew():
    assert cayley([], 1) == ((), 1)
    assert cayley(np.array([[0, 1], [-1, 0]]), 1) == (((0, -2), (2, 0)), 2)
    for skew in ([[0, 1], [1, 0]], [[1]], [[0, 1]], [[0, 1], [-1]], [[0.0]], [[True]]):
        with pytest.raises(InvalidParamsError):
            cayley(skew, 1)
    for d in (0, -1, 1.0, True):
        with pytest.raises(InvalidParamsError):
            cayley([[0, 1], [-1, 0]], d)


def test_primitive_integer():
    assert primitive_integer((Fraction(1, 4), Fraction(1, 4), Fraction(-3, 4), Fraction(1, 4))) == (1, 1, -3, 1)
    assert primitive_integer((4, 6)) == (2, 3)
    assert primitive_integer((0, 0)) == (0, 0)
    assert primitive_integer((Fraction(-2, 3),)) == (-1,)
    assert primitive_integer((-4, Fraction(6, 1), 0)) == (-2, 3, 0)
    assert primitive_integer(()) == ()


def _old_integer_rows(rows):
    """The former formula: every entry as ``int(Fraction(x) * lcm)``."""
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs))
        out.append([int(f * scale) for f in fracs])
    return out


def test_integer_rows_matches_fraction_formula():
    big = 2**61 - 1  # coprime to the other large denominator below
    rows = [
        (1, -2, 0, 7),
        (Fraction(1, 2), -3, 0, Fraction(-5, 6)),
        (0, Fraction(-7, 9), Fraction(4, 15), 2),
        (Fraction(3, big), Fraction(-1, 3**40), 0, 5),
        (Fraction(-(2**70), 7), Fraction(2**65 + 1, 11), -(2**80), 0),
        (Fraction(6, 3), Fraction(-4, 2), 0, 1),  # Fractions that are ints
    ]
    for n in range(1, len(rows) + 1):
        got = integer_rows(rows[:n])
        assert got == _old_integer_rows(rows[:n])
        assert all(type(x) is int for row in got for x in row)
    assert integer_rows(rows[3:4]) == [[3 * 3**40, -big, 0, 5 * big * 3**40]]


def test_integer_rows_other_rationals_go_through_fraction():
    # floats and Decimals have no numerator and denominator to scale by,
    # and bools and numpy integers are not of type int: Fraction(x) first
    rows = [
        (0.5, Fraction(1, 3), -2, 0),
        (Decimal("-1.25"), 3, Decimal("0")),
        (True, False, 2),
        (np.int64(-4), Fraction(3, 8), 0),
    ]
    for row in rows:
        assert integer_rows([row]) == _old_integer_rows([row])
    assert integer_rows(rows[:1]) == [[3, 2, -12, 0]]
    assert integer_rows(rows[1:3]) == [[-5, 12, 0], [1, 0, 2]]
    assert all(type(x) is int for row in integer_rows(rows) for x in row)
    # numpy integers, alone or inside a Fraction, become Python ints: in
    # int64 the elimination below would wrap 2**64 to 0 and lose a rank
    wide = [[2**32, 0, -(2**32)], [0, 2**32, -(2**32)]]
    assert exact_rank(np.array(wide, dtype=np.int64)) == 2
    inner = Fraction(np.int64(2**40), 3)
    assert type(integer_rows([(inner, 1)])[0][0]) is int


def in_span(vec, basis):
    """Oracle: exact membership of ``vec`` in the span of ``basis``."""
    return exact_rank([*basis, vec]) == exact_rank(basis)


def test_in_span():
    basis = [(1, 0, -1), (0, 1, -1)]
    assert in_span((1, 1, -2), basis)
    assert not in_span((1, 1, 1), basis)
    assert in_span((0, 0, 0), [])
    assert not in_span((1, 0, 0), [])
