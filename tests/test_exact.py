from fractions import Fraction

import pytest

from rootmatch.exact import (
    dot,
    exact_rank,
    in_span,
    primitive_integer,
    solve_unique,
    solve_unique_many,
)


def test_dot_exact():
    assert dot((1, -1, 0), (5, 2, 9)) == 3
    assert dot((Fraction(1, 2), 1), (1, Fraction(1, 3))) == Fraction(5, 6)
    with pytest.raises(ValueError):
        dot((1, 2), (1,))


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
    import numpy as np

    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        mat = rng.integers(-9, 10, size=(n, m))
        if rng.random() < 0.5 and n >= 2:
            # force dependence to exercise column skipping
            mat[n - 1] = mat[0] * int(rng.integers(-3, 4))
        rows = [tuple(int(x) for x in row) for row in mat]
        assert exact_rank(rows) == _fraction_rank(rows)


def test_solve_unique_square():
    sol = solve_unique([(2, 0), (1, 1)], (3, 1))
    assert sol == (Fraction(3, 2), Fraction(-1, 2))


def test_solve_unique_overdetermined_consistent():
    # x = 1, y = 2 seen through three consistent equations
    sol = solve_unique([(1, 0), (0, 1), (1, 1)], (1, 2, 3))
    assert sol == (Fraction(1), Fraction(2))


def test_solve_unique_errors():
    with pytest.raises(ValueError):
        solve_unique([(1, 0), (1, 0)], (1, 2))  # inconsistent
    with pytest.raises(ValueError):
        solve_unique([(1, 1)], (1,))  # underdetermined


def test_solve_unique_many_matches_single_solves():
    rows = [(1, -1, 0), (0, 1, -1), (1, 1, 1), (2, 0, 0)]
    rhss = [(1, 0, 1, 2), (-1, 1, 1, 0), (-1, -1, 6, 2)]  # x = e1, e2, (1, 2, 3)
    assert solve_unique_many(rows, rhss) == ((1, 0, 0), (0, 1, 0), (1, 2, 3))
    assert solve_unique_many(rows, rhss) == tuple(solve_unique(rows, b) for b in rhss)
    with pytest.raises(ValueError):
        solve_unique_many(rows, [(1, 0, 1, 2), (0, 1, 0, 1)])  # second inconsistent
    with pytest.raises(ValueError):
        solve_unique_many(rows, [(1, 0, 0)])


def test_primitive_integer():
    assert primitive_integer((Fraction(1, 4), Fraction(1, 4), Fraction(-3, 4), Fraction(1, 4))) == (1, 1, -3, 1)
    assert primitive_integer((4, 6)) == (2, 3)
    assert primitive_integer((0, 0)) == (0, 0)
    assert primitive_integer((Fraction(-2, 3),)) == (-1,)
    assert primitive_integer((-4, Fraction(6, 1), 0)) == (-2, 3, 0)
    assert primitive_integer(()) == ()


def test_in_span():
    basis = [(1, 0, -1), (0, 1, -1)]
    assert in_span((1, 1, -2), basis)
    assert not in_span((1, 1, 1), basis)
    assert in_span((0, 0, 0), [])
    assert not in_span((1, 0, 0), [])
