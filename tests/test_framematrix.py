import dataclasses
import hashlib
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction
from numbers import Integral

import numpy as np
import pytest

from rootmatch import framematrix
from rootmatch.chamber import stabilizer_codim
from rootmatch.errors import (
    DimensionMismatchError,
    EmptyFrameError,
    ExcludedSpaceError,
    FrameFileError,
    InvalidParamsError,
    MalformedMatrixError,
    NotInFlatError,
    ZeroVectorError,
)
from rootmatch.exact import exact_rank, integer_rows
from rootmatch.framematrix import (
    _P,
    SelectionMatrix,
    _spans_mod_p,
    build_matrix,
    load_frame,
    make_frame,
    parse_frame_vectors,
    random_frames,
    verify_properties,
)
from rootmatch.rootdata import build_root_system, catalogue, space

from oracles import evaluate_root, random_frames_by_attempt

SL4 = space("SL(4,R)")


def _sl4_matrix(vectors):
    return build_matrix(make_frame(SL4, vectors))


def test_column_order_is_pair_lexicographic():
    labels = [root.support for root, _slot in SL4.rootsys.column_labels]
    assert labels == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_generic_frame_all_ones():
    m = _sl4_matrix([(1, 2, 3, -6), (1, -1, 2, -2), (5, 1, -2, -4)])
    assert m.entries == tuple((1,) * 6 for _ in range(3))


def test_sign_frame_matrix():
    m = _sl4_matrix([(1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)])
    assert m.entries == (
        (0, 1, 1, 1, 1, 0),
        (1, 0, 1, 1, 0, 1),
        (1, 1, 0, 0, 1, 1),
    )


def test_wall_frame_matrix():
    m = _sl4_matrix([(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    assert m.entries == (
        (0, 0, 1, 0, 1, 1),
        (1, 1, 1, 0, 0, 0),
        (1, 0, 1, 1, 0, 1),
    )
    assert m.row_weights == (3, 3, 4)


def test_multiplicity_slots_share_columns():
    su = space("SU(3,2)")
    frame = make_frame(su, [(1, 0), (0, 1)])
    m = build_matrix(frame)
    assert m.cols == su.dim_x - su.rank
    by_root = {}
    for col, (root, _slot) in enumerate(m.col_labels):
        by_root.setdefault(root.coords, []).append(
            tuple(row[col] for row in m.entries)
        )
    for cols in by_root.values():
        assert len(set(cols)) == 1


def test_rational_and_integer_paths_agree():
    ints = [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)]
    fracs = [tuple(Fraction(x, 2) for x in v) for v in ints]
    assert _sl4_matrix(ints).entries == _sl4_matrix(fracs).entries


def test_large_entries_take_the_exact_path():
    # entries far above any machine word; the zero pattern is that of the
    # small vectors on the same rays
    ints = [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)]
    big = [tuple(x * 2**70 for x in v) for v in ints]
    # scaled to integers, these become x * (3**45 + 1), above 2**71
    fracs = [tuple(Fraction(x * (3**45 + 1), 3**45) for x in v) for v in ints]
    assert _sl4_matrix(big).masks == _sl4_matrix(ints).masks
    assert _sl4_matrix(fracs).masks == _sl4_matrix(ints).masks


def test_masks_and_entries_agree():
    m = _sl4_matrix([(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    # column j is bit j
    assert m.masks == (0b110100, 0b000111, 0b101101)
    assert m.entries == tuple(
        tuple(mask >> j & 1 for j in range(m.cols)) for mask in m.masks
    )
    assert dataclasses.replace(m, entries=m.entries) == m
    # the columns are the space's own
    assert m.col_labels is SL4.rootsys.column_labels
    assert [f.name for f in dataclasses.fields(SelectionMatrix)] == ["space", "masks"]


def test_replaced_entries_are_validated():
    m = _sl4_matrix([(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    for rows in (
        [],
        [[1, 0, 1, 0, 1, 1], [1, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1]],  # ragged
        [[0, 0, 2, 0, 1, 1], [1, 1, 1, 0, 0, 0], [1, 0, 1, 1, 0, 1]],  # not 0/1
        [[0, 0, 1, 0, 1], [1, 1, 1, 0, 0], [1, 0, 1, 1, 0]],  # 5 of 6 columns
        [[0, 0, 1, 0, 1, 1, 0], [1, 1, 1, 0, 0, 0, 0], [1, 0, 1, 1, 0, 1, 0]],  # 7 columns
        [[0, 0, 1, 0, 1, 1], [1, 1, 1, 0, 0, 0]],  # 2 of 3 rows
        [[0, 0, 1, 0, 1, 1]] * 4,  # 4 rows
    ):
        with pytest.raises(MalformedMatrixError):
            dataclasses.replace(m, entries=rows)


def test_masks_are_validated():
    # a tuple of at least one row, each mask an int (not a bool) in [0, 2**cols)
    for masks in (
        (),
        [7, 56, 63],  # a list would make the frozen matrix unhashable
        5,
        (0b1111111, 0b1111111, 0b111111),  # bits at and past column 6
        (64,),
        (-1, 3, 5),
        (True, 3, 5),
        (3.0, 5),
        (Fraction(3), 5),
        (np.int64(3), 5),
        ("3", 5),
    ):
        with pytest.raises(MalformedMatrixError):
            SelectionMatrix(SL4, masks)
    assert SelectionMatrix(SL4, (0, 63)).entries == ((0,) * 6, (1,) * 6)


def test_replace_entries_rebuilds_masks():
    m = _sl4_matrix([(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    rows = [list(r) for r in m.entries]
    rows[1][2] ^= 1
    planted = dataclasses.replace(m, entries=rows)
    assert planted.masks == (m.masks[0], m.masks[1] ^ 0b100, m.masks[2])
    assert planted.entries == tuple(tuple(r) for r in rows)
    with pytest.raises(MalformedMatrixError):
        dataclasses.replace(m, entries=rows[:2])


def test_entries_match_per_root_evaluation():
    # independent oracle: rebuild every entry by direct root evaluation
    for name in ("SL(5,R)", "SU(3,2)", "SO(2,4)"):
        s = space(name)
        for frame in random_frames(s, 20, seed=21):
            m = build_matrix(frame)
            for i, v in enumerate(frame.vectors):
                for j, (root, _slot) in enumerate(m.col_labels):
                    expected = 1 if evaluate_root(root, v) != 0 else 0
                    assert m.entries[i][j] == expected


def _expected_entries(s, v):
    value = {root: evaluate_root(root, v) for root in s.rootsys.positives}
    return tuple(1 if value[root] != 0 else 0 for root, _slot in s.rootsys.column_labels)


def _hand_vectors(s):
    """Integer vectors with zero, repeated and opposite coordinates."""
    d = s.coord_dim
    bases = [
        [3, 0, 3, -3, 0, 5, -5, 5, 1],
        [0, 2, -2, 2, 0, -2, 7, 0, 7],
        [4, -4, 4, -4, 4, -4, 4, -4, 4],
        [0] * (d - 1) + [1],
        list(range(1, 10)),
    ]
    for base in bases:
        v = base[:d]
        if s.rootsys.family == "A":  # into the trace-zero flat; equalities stay
            v = [d * x - sum(v) for x in v]
        if any(v):
            yield v


def _encodings(v):
    """The same ray as ints, as mixed ints and Fractions of denominators
    2, 3 and 6, and with entries of 2**70 and more."""
    yield tuple(v)
    yield tuple(Fraction(x, 6) if x % 6 else x // 6 for x in v)
    yield tuple(x * (2**70 + 1) for x in v)
    yield tuple(Fraction(x * 3**45, 2**70 + 1) for x in v)


def test_build_kernel_matches_root_evaluation_on_the_catalogue():
    # every non-excluded space of rank 2..8: A, D, C, B with short_mult
    # 1..3, BC with p = q and p > q
    spaces = [s for s in catalogue() if not s.excluded and 2 <= s.rank <= 8]
    kinds = {(s.rootsys.family, s.param("r") if s.rootsys.family == "B" else 0) for s in spaces}
    assert kinds >= {("A", 0), ("D", 0), ("C", 0), ("BC", 0), ("B", 1), ("B", 2), ("B", 3)}
    assert any(s.rootsys.family == "BC" and s.param("p") == s.param("q") for s in spaces)
    assert any(s.rootsys.family == "BC" and s.param("p") > s.param("q") for s in spaces)
    for s in spaces:
        frames = random_frames(s, 20, seed=3)
        frames += [make_frame(s, [w]) for v in _hand_vectors(s) for w in _encodings(v)]
        for frame in frames:
            m = build_matrix(frame)
            assert m.entries == tuple(_expected_entries(s, v) for v in frame.vectors), (
                s.name,
                frame.vectors,
            )


def test_random_frames_deterministic():
    a = random_frames(SL4, 25, seed=13)
    b = random_frames(SL4, 25, seed=13)
    assert [f.vectors for f in a] == [f.vectors for f in b]
    c = random_frames(SL4, 25, seed=14)
    assert [f.vectors for f in a] != [f.vectors for f in c]


def _count_calls(monkeypatch, name):
    """Replace ``framematrix.<name>`` by a wrapper; return its call list."""
    calls, wrapped = [], getattr(framematrix, name)
    monkeypatch.setattr(framematrix, name, lambda *a: calls.append(a) or wrapped(*a))
    return calls


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(count=-1),
        dict(count=2.5),
        dict(count=True),
        dict(seed=-1),
        dict(seed=2.5),
        dict(seed=True),
        dict(singular_fraction=float("nan")),
        dict(singular_fraction=1.5),
        dict(singular_fraction=-0.1),
        dict(singular_fraction=True),
        dict(max_attempts=0),
        dict(max_attempts=-1),
    ],
    ids=repr,
)
def test_random_frames_refuse_bad_arguments_before_drawing(monkeypatch, kwargs):
    draws = _count_calls(monkeypatch, "_draw_attempts")
    with pytest.raises(InvalidParamsError):
        random_frames(SL4, **{"count": 5, "seed": 1, **kwargs})
    assert draws == []


SL2 = dataclasses.replace(SL4, name="SL(2,R)", rank=1, rootsys=build_root_system("A", 1))


@pytest.mark.parametrize("fraction", [1e-9, 0.5, 1.0])
def test_random_frames_refuse_singular_frames_at_rank_1(monkeypatch, fraction):
    # a rank-1 space has no proper nonempty face mask to draw a face from
    draws = _count_calls(monkeypatch, "_draw_attempts")
    with pytest.raises(InvalidParamsError, match="rank 1"):
        random_frames(SL2, 5, seed=1, singular_fraction=fraction)
    assert draws == []


def test_random_frames_draw_regular_frames_at_rank_1(monkeypatch):
    # SL(2,R): a collision always makes the vector zero, and its attempt
    # is rejected
    draws = _count_calls(monkeypatch, "_draw_attempts")
    frames = [f.vectors for f in random_frames(SL2, 300, seed=2, singular_fraction=0.0)]
    assert draws
    assert frames == random_frames_by_attempt(SL2, 300, 2, singular_fraction=0.0)
    assert all(any(v) for (v,) in frames)


def test_random_frames_pinned():
    # digests of repr([f.vectors ...]) of the word layout's first frames
    pinned = {
        "SL(4,R)": "2e4baa68e494a256",
        "Sp(6,R)": "7639efb668255f7f",
        "SO(5,7)": "aa1b613b13e36a89",
        "SU(6,6)": "d7706bf32fdac29d",
    }
    for name, want in pinned.items():
        vectors = [f.vectors for f in random_frames(space(name), 200, seed=1)]
        assert hashlib.sha256(repr(vectors).encode()).hexdigest()[:16] == want, name


def test_random_frames_match_generator_oracle():
    # the numpy build against the bit generator's words read one attempt
    # at a time
    spaces = [s for s in catalogue() if not s.excluded and 2 <= s.rank <= 6]
    assert len(spaces) == 42
    for seed in (1, 6, 12):
        for s in spaces:
            frames = random_frames(s, 200, seed=seed)
            assert all(f.spanning and f.space is s for f in frames)
            assert [f.vectors for f in frames] == random_frames_by_attempt(s, 200, seed), (
                s.name,
                seed,
            )


def _outcome(sample):
    try:
        return sample()
    except RuntimeError as exc:
        return str(exc)


def test_random_frames_max_attempts_outcome():
    # max_attempts counts consecutive rejections, as in the oracle: the
    # same frames, or the same RuntimeError, for every budget
    raised = succeeded = 0
    for name in ("SL(4,R)", "Sp(4,R)", "SU(3,2)", "SO(4,4)"):
        s = space(name)
        for max_attempts in (1, 2, 3):
            for seed in range(6):
                for fraction in (0.5, 1.0):
                    kwargs = dict(singular_fraction=fraction, max_attempts=max_attempts)
                    got = _outcome(
                        lambda: [f.vectors for f in random_frames(s, 30, seed, **kwargs)]
                    )
                    want = _outcome(lambda: random_frames_by_attempt(s, 30, seed, **kwargs))
                    assert got == want, (name, max_attempts, seed, fraction)
                    if isinstance(got, str):
                        raised += 1
                    else:
                        succeeded += 1
    assert raised > 10 and succeeded > 10


def test_random_frames_are_a_prefix_of_longer_corpora():
    # each attempt reads its own span of words, so the chunk sizes that a
    # count leads to cannot change a frame
    for name in ("SL(4,R)", "SO(3,5)", "SU(3,3)", "Sp(4,R)"):
        s = space(name)
        short = [f.vectors for f in random_frames(s, 37, seed=9)]
        assert short == [f.vectors for f in random_frames(s, 500, seed=9)][:37], name


def test_random_frames_pinned_whole_corpora():
    # the corpora of `rootmatch all` at its first seeds, 42 spaces x 1,000
    # frames each
    spaces = [s for s in catalogue() if not s.excluded and 2 <= s.rank <= 6]
    assert len(spaces) == 42
    pinned = {1: "5a69fb5b0c28b7a4", 6: "80004afa4ec39322", 12: "28a687fa57789724"}
    for seed, want in pinned.items():
        corpus = [(s.name, [f.vectors for f in random_frames(s, 1000, seed=seed)]) for s in spaces]
        assert hashlib.sha256(repr(corpus).encode()).hexdigest()[:16] == want, seed


class _PlantedPCG64:
    """A bit generator's raw words with chosen 32-bit halves replaced:
    ``planted`` maps a stream index (2 * word, plus 1 for a high half) to
    the value of that half."""

    def __init__(self, bitgen, planted):
        self._bitgen = bitgen
        self._planted = planted
        self._drawn = 0  # words handed out so far

    def random_raw(self, size):
        words = self._bitgen.random_raw(size)
        for half, value in self._planted.items():
            at = half - 2 * self._drawn
            if 0 <= at < 2 * size:
                shift = 32 * (at % 2)
                word = int(words[at // 2]) & ~(0xFFFFFFFF << shift)
                words[at // 2] = word | value << shift
        self._drawn += size
        return words


def test_random_frames_reject_a_planted_zero_vector(monkeypatch):
    # slot 0 of attempt 2 gets zero coordinates and no collision: the zero
    # vector is not drawn again, and its attempt counts as rejected
    s = space("Sp(6,R)")
    k, dim = s.rank, s.coord_dim
    used = 2 + k * (1 + k + dim + 4)
    coordinates = 2 * 2 * ((used + 1) // 2) + 2 + 1 + k  # stream index of the first
    zero = -(-9 * 2**32 // 19)  # the least half h with -9 + (h * 19 >> 32) == 0
    planted = {coordinates + c: zero for c in range(dim)}
    planted[coordinates + dim] = 2**32 - 1  # the collision test
    options = dict(singular_fraction=0.0, max_attempts=1)
    # attempts 0 to 10 of this stream all span
    unplanted = [f.vectors for f in random_frames(s, 11, seed=3, **options)]
    real = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: _PlantedPCG64(real(seed), planted))
    assert [f.vectors for f in random_frames(s, 2, seed=3, **options)] == unplanted[:2]
    with pytest.raises(RuntimeError):
        random_frames(s, 3, seed=3, **options)
    frames = [f.vectors for f in random_frames(s, 10, seed=3, singular_fraction=0.0)]
    assert frames == unplanted[:2] + unplanted[3:]
    assert frames == random_frames_by_attempt(s, 10, 3, singular_fraction=0.0)


def test_spans_mod_p_products_fit_in_int64():
    # entries mod p are below p, so lead * a - f * b stays exact in int64
    assert 2 * (_P - 1) ** 2 < 2**63


def test_spans_mod_p_defers_to_exact_rank():
    # full rank over Q but singular mod p: a zero row mod p, and a
    # determinant of exactly p; then a rational dependency, and a generic frame
    multiple = [[_P, 0, 0], [0, 1, 0], [0, 0, 1]]
    det_p = [[1, 1, 0], [1, 1 + _P, 0], [0, 0, 1]]
    dependent = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    generic = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    assert _spans_mod_p([multiple, det_p, dependent, generic], 3).tolist() == [
        False,
        False,
        False,
        True,
    ]
    assert exact_rank(multiple) == exact_rank(det_p) == 3
    assert exact_rank(dependent) == 2


def test_random_frames_decide_rank_deficient_mod_p_exactly(monkeypatch):
    # if every attempt looked singular mod p, exact_rank alone would decide
    # and the corpus would not change
    import rootmatch.framematrix as fm

    s = space("SO(3,5)")
    want = [f.vectors for f in random_frames(s, 50, seed=2)]
    monkeypatch.setattr(
        fm, "_spans_mod_p", lambda attempts, k: np.zeros(len(attempts), dtype=bool)
    )
    assert [f.vectors for f in random_frames(s, 50, seed=2)] == want


def test_spans_mod_p_matches_exact_rank_on_small_entries():
    # entries of at most 9 keep every k x k minor (k <= 4) below p, so the
    # test mod p is then exact
    rng = np.random.default_rng(8)
    for k in (1, 2, 3, 4):
        batch = rng.integers(-9, 10, size=(300, k, 5))
        batch[::3, -1] = batch[::3, 0] * rng.integers(-1, 2, size=(100, 1))
        batch[1::7, :, 1:] = 0
        attempts = batch.tolist()
        expected = [exact_rank(a) == k for a in attempts]
        assert False in expected and True in expected
        assert _spans_mod_p(attempts, k).tolist() == expected


def test_row_weight_equals_stabilizer_codim():
    for frame in random_frames(SL4, 40, seed=5):
        m = build_matrix(frame)
        for i, v in enumerate(frame.vectors):
            assert m.row_weights[i] == stabilizer_codim(SL4, v)


def test_properties_on_wall_frame():
    m = _sl4_matrix([(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    report = verify_properties(m, SL4)
    assert report.passed
    # rows 0 and 1 are light (weight 3 < 2n-2 = 4) and share one column
    shared = sum(a & b for a, b in zip(m.entries[0], m.entries[1]))
    assert shared == 1


def test_properties_all_ones():
    m = _sl4_matrix([(1, 2, 3, -6), (1, -1, 2, -2), (5, 1, -2, -4)])
    assert verify_properties(m, SL4).passed


def test_property_one_fails_on_zero_column():
    m = _sl4_matrix([(1, 2, 3, -6), (1, -1, 2, -2), (5, 1, -2, -4)])
    broken = dataclasses.replace(m, entries=[(1, 1, 0, 1, 1, 1)] * 3)
    report = verify_properties(broken, SL4)
    assert not report.verdicts[0]
    assert "property 1: all-zero columns [2]" in report.witnesses


def test_properties_refuse_another_space():
    m = _sl4_matrix([(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    with pytest.raises(InvalidParamsError):
        verify_properties(m, space("Sp(6,R)"))
    # an equal space that is another object is the same space
    assert verify_properties(m, dataclasses.replace(SL4)).passed


def test_properties_reject_excluded_space():
    sl3 = space("SL(3,R)")
    m = build_matrix(make_frame(sl3, [(1, 0, -1), (0, 1, -1)]))
    with pytest.raises(ExcludedSpaceError):
        verify_properties(m, sl3)


def test_row_permutation_permutes_rows():
    vecs = [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)]
    m1 = _sl4_matrix(vecs)
    m2 = _sl4_matrix([vecs[2], vecs[0], vecs[1]])
    assert m2.entries == (m1.entries[2], m1.entries[0], m1.entries[1])
    r1 = verify_properties(m1, SL4)
    r2 = verify_properties(m2, SL4)
    assert r1.verdicts == r2.verdicts


def test_weyl_symmetry_permutes_columns():
    vecs = [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)]
    perm = (2, 0, 3, 1)
    permuted = [tuple(v[p] for p in perm) for v in vecs]
    m1 = _sl4_matrix(vecs)
    m2 = _sl4_matrix(permuted)
    cols1 = sorted(tuple(row[j] for row in m1.entries) for j in range(6))
    cols2 = sorted(tuple(row[j] for row in m2.entries) for j in range(6))
    assert cols1 == cols2
    assert verify_properties(m1, SL4).verdicts == verify_properties(m2, SL4).verdicts


def test_signed_weyl_symmetry_permutes_columns():
    sp6 = space("Sp(6,R)")
    vecs = [(1, 0, 0), (1, 1, -2), (3, -1, 2)]
    signs, perm = (1, -1, 1), (2, 0, 1)
    image = [tuple(signs[k] * v[perm[k]] for k in range(3)) for v in vecs]
    m1 = build_matrix(make_frame(sp6, vecs))
    m2 = build_matrix(make_frame(sp6, image))
    cols1 = sorted(tuple(row[j] for row in m1.entries) for j in range(m1.cols))
    cols2 = sorted(tuple(row[j] for row in m2.entries) for j in range(m2.cols))
    assert cols1 == cols2
    assert (
        verify_properties(m1, sp6).verdicts == verify_properties(m2, sp6).verdicts
    )


def test_fuzz_small_sample_passes_properties():
    for name in ("SL(4,R)", "Sp(4,R)", "SO(2,4)", "SU(3,2)", "SO(4,4)"):
        s = space(name)
        frames = random_frames(s, 60, seed=11)
        assert len(frames) == 60
        singular = 0
        for frame in frames:
            assert frame.spanning
            m = build_matrix(frame)
            report = verify_properties(m, s)
            assert report.passed, (name, frame.vectors, report.witnesses)
            if any(w < s.dim_x - s.rank for w in m.row_weights):
                singular += 1
        assert singular > 10  # face-snapped frames are really in the mix


def test_make_frame_validation():
    with pytest.raises(EmptyFrameError):
        make_frame(SL4, [])
    with pytest.raises(DimensionMismatchError):
        make_frame(SL4, [(1, 0, -1)])
    with pytest.raises(ZeroVectorError):
        make_frame(SL4, [(0, 0, 0, 0)])
    # numpy int64 entries are summed exactly: 4 * 2**62 wraps to 0 in int64
    for vector in [(1, 0, 0, 0), (np.int64(2**62),) * 4]:
        with pytest.raises(NotInFlatError):
            make_frame(SL4, [vector])
    with pytest.raises(InvalidParamsError):
        make_frame(
            SL4,
            [(1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0)],
        )
    spanning = make_frame(SL4, [(1, -1, 0, 0), (0, 1, -1, 0)])
    assert spanning.spanning
    degenerate = make_frame(SL4, [(1, -1, 0, 0), (2, -2, 0, 0)])
    assert not degenerate.spanning


def test_parse_frame_vectors():
    vectors = parse_frame_vectors('[["1","1","1","-3"],["1/2","-1/2","1/2","-1/2"]]')
    assert vectors[0] == (1, 1, 1, -3)
    assert vectors[1] == (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(FrameFileError):
        parse_frame_vectors("not json")
    with pytest.raises(FrameFileError):
        parse_frame_vectors("[]")
    with pytest.raises(FrameFileError):
        parse_frame_vectors('[["x"]]')


# Entry texts around the plain-rational fast path: signs, spaces, decimal
# and exponent forms, digit separators, non-ASCII digits, a bad
# denominator sign, zero denominators, empty parts, and JSON values that
# are not strings.
GRAMMAR_CORPUS = [
    "3/4", "-0", "+3", " 3/4 ", "1.5", "1e-3", "1_0", "\u0663", "3/-4", "3 /4",
    "1/0", "", "/3", "007", "-12/8", "0/5", "12345678901234567890123/7",
    1.5, True, None, 42, -7, [1],
]


@pytest.mark.parametrize("entry", GRAMMAR_CORPUS, ids=repr)
def test_parse_frame_vectors_accepts_what_fraction_accepts(entry):
    text = json.dumps([[entry]])
    try:
        expected = Fraction(str(json.loads(text)[0][0]))
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FrameFileError):
            parse_frame_vectors(text)
        return
    (got,), = parse_frame_vectors(text)
    assert type(got) is Fraction
    assert got == expected


def _parse_oracle(text):
    """Each entry as ``Fraction(str(entry))``, one at a time: the vectors,
    or the message of the frame-file error for the first bad entry."""
    try:
        return [tuple(Fraction(str(x)) for x in row) for row in json.loads(text)]
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad rational entry in frame file: {exc}"


# Files that repeat entry texts, and values spelled as different texts
# (1 and "1", 1.5 and "1.5", " 3/4 " and "3/4"), for the per-file cache
# of entry values; the bad entries appear twice, and true, equal to 1 as
# a dict key, must not be read as the 1 before it.
REPEATED_ENTRY_FILES = {
    "spellings": [[1, "1", 1.5, "1.5"], [" 3/4 ", "3/4", "1", 1], ["1.5", 1.5, " 3/4 ", "-1/4"]],
    "bad_twice": [["3/4", "-1/4"], ["3/4", "x"], ["x", "-1/4"]],
    "bad_twice_in_a_row": [["-1/4", "1/0", "1/0"]],
    "true_after_one": [[1, "1"], [True, 1]],
}


@pytest.mark.parametrize("name", sorted(REPEATED_ENTRY_FILES))
def test_parse_frame_vectors_reads_repeated_entries_like_fraction(name):
    text = json.dumps(REPEATED_ENTRY_FILES[name])
    expected = _parse_oracle(text)
    if isinstance(expected, str):
        with pytest.raises(FrameFileError) as info:
            parse_frame_vectors(text)
        assert str(info.value) == expected
        return
    got = parse_frame_vectors(text)
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)


# Exponent forms around int()'s default 4,300-digit limit, each beside
# its value written out in digits: the two are accepted or rejected
# together.  Kept apart from GRAMMAR_CORPUS, whose oracle would build
# the huge powers of ten.
LIMIT = 4300
EXPONENT_SPELLINGS = [
    ("1e4299", "1" + "0" * 4299),
    ("1e4300", "1" + "0" * 4300),
    ("-1e20000", "-1" + "0" * 20000),
    ("1.5e4299", "15" + "0" * 4298),
    ("1.5e4300", "15" + "0" * 4299),
    ("1_0e4299", "10" + "0" * 4299),
    ("0e5000", "0" * 5001),
    ("1e-4299", "1/1" + "0" * 4299),
    ("1e-4300", "1/1" + "0" * 4300),
    ("-25e-20000", "-25/1" + "0" * 20000),
    ("2.5e-4298", "25/1" + "0" * 4299),
    ("2.5e-4299", "25/1" + "0" * 4300),
]


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LIMIT)
    yield
    sys.set_int_max_str_digits(old)


def _parsed_or_error(entry):
    try:
        return parse_frame_vectors(json.dumps([[entry]]))[0][0]
    except FrameFileError:
        return FrameFileError


@pytest.mark.parametrize(
    "exponent_form, written", EXPONENT_SPELLINGS, ids=[form for form, _ in EXPONENT_SPELLINGS]
)
def test_exponent_forms_past_the_digit_limit_are_rejected_as_written(digit_limit, exponent_form, written):
    got = _parsed_or_error(exponent_form)
    assert got == _parsed_or_error(written)
    digits = max(len(part.lstrip("-")) for part in written.split("/"))
    assert (got is FrameFileError) == (digits > LIMIT)


def test_huge_exponent_is_rejected_before_fraction_builds_it(digit_limit):
    for entry in ("1e100000000", "-7.5e-100000000"):
        start = time.perf_counter()
        with pytest.raises(FrameFileError, match="past the 4300-digit limit"):
            parse_frame_vectors(json.dumps([[entry, "0"]]))
        assert time.perf_counter() - start < 1.0
    # with no limit (0) there is no cap, as int() has none
    sys.set_int_max_str_digits(0)
    assert parse_frame_vectors('[["1e20000"]]') == [(Fraction(10**20000),)]


def _old_is_traceless(v):
    return sum(
        x if type(x) is int or type(x) is Fraction
        else int(x) if isinstance(x, Integral) else Fraction(x)
        for x in v
    ) == 0


def _old_make_frame(space, vectors):
    """make_frame's checks before frames were scaled to integers once:
    the spanning verdict, or the error."""
    vecs = tuple(tuple(v) for v in vectors)
    if not vecs:
        raise EmptyFrameError
    if len(vecs) > space.rank:
        raise InvalidParamsError
    for v in vecs:
        if len(v) != space.coord_dim:
            raise DimensionMismatchError
        if not any(x != 0 for x in v):
            raise ZeroVectorError
        if space.rootsys.family == "A" and not _old_is_traceless(v):
            raise NotInFlatError
    return exact_rank(vecs) == min(len(vecs), space.rank)


def _make_outcome(make, space, vectors):
    try:
        return make(space, vectors)
    except Exception as exc:  # the error class is the outcome
        return type(exc)


NAN, INF = float("nan"), float("inf")
BIG = np.int64(2**62)
MAKE_FRAME_CASES = {
    "SL(4,R)": [
        [(1, -1, 0, 0), (0, 1, -1, 0)],
        [(1, -1, 0, 0), (2, -2, 0, 0)],
        [(Fraction(1, 2), Fraction(-1, 2), 0, 0), (0, Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))],
        [(Fraction(1, 2), Fraction(1, 2), 0, 0)],
        [(BIG,) * 4],
        [(BIG, -BIG, 0, 0), (0, BIG, np.int64(-1), -BIG + 1)],
        [(0.5, -0.5, 0.0, 0.0), (1e-3, -1e-3, 1.0, -1.0), (3.0, 1.0, -2.0, -2.0)],
        [(0.1, 0.2, -0.3, 0.0)],  # not traceless in binary
        [(NAN, 1, 0, 0)],
        [(INF, 1, 0, 0)],
        [(Decimal("1.5"), Decimal("-1.5"), 0, 0)],
        [(True, False, False, -1)],
        [("0", "0", "0", "0")],  # strings: zero to Fraction
        [(0, 0, 0, 0), (1, 2, 3)],
        [(1, 2, 3), (0, 0, 0, 0)],
        [(1, 1, 1, 1), (0, 0, 0, 0)],
        [(1, -1, 0, 0), (0.0, 0.0, 0.0, 0.0)],
        [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (1, 0, 0, -1), (0, 0, 0, 0)],
        [],
    ],
    "Sp(4,R)": [
        [(1, 2), (3, 4)],
        [(NAN, 1), (0, 0)],  # the nan is read before the later zero vector
        [(NAN, 1), (1, 2)],
        [(INF, 1), (1,)],  # the inf is read before the later short vector
        [(Fraction(1, 3), 0.25), (BIG, BIG)],
        [(BIG, BIG), (np.int64(2**61) * 2, BIG)],
    ],
}


# Cases where make_frame now differs from the former checks by design:
# each vector is read in full by Fraction(x) (rootdata.flat_row) before
# the next vector is looked at, so a zero of strings is a zero vector and
# a nan or inf is a NotInFlatError at its own vector.
CHANGED_OUTCOMES = {
    ("SL(4,R)", 8): NotInFlatError,  # was ValueError from Fraction(nan)
    ("SL(4,R)", 9): NotInFlatError,  # was OverflowError from Fraction(inf)
    ("SL(4,R)", 11): NotInFlatError,  # was accepted, the bools read as 1 and 0
    ("SL(4,R)", 12): ZeroVectorError,  # was accepted, a frame with a zero row
    ("Sp(4,R)", 1): NotInFlatError,  # was ZeroVectorError from the later vector
    ("Sp(4,R)", 2): NotInFlatError,  # was ValueError from Fraction(nan)
    ("Sp(4,R)", 3): NotInFlatError,  # was DimensionMismatchError from the later vector
}


@pytest.mark.parametrize(
    "name, index",
    [(name, i) for name, cases in MAKE_FRAME_CASES.items() for i in range(len(cases))],
)
def test_make_frame_matches_former_checks(name, index):
    s = space(name)
    vectors = MAKE_FRAME_CASES[name][index]
    expected = CHANGED_OUTCOMES.get((name, index)) or _make_outcome(_old_make_frame, s, vectors)
    got = _make_outcome(make_frame, s, vectors)
    if isinstance(expected, bool):
        assert got.spanning is expected
        assert got.vectors == tuple(map(tuple, vectors))
        assert got.integer_vectors == tuple(map(tuple, integer_rows(vectors)))
    else:
        assert got is expected


def test_integer_vectors_are_the_integer_rows_of_every_frame():
    sp6 = space("Sp(6,R)")
    made = [
        make_frame(SL4, [(Fraction(1, 2), Fraction(-1, 6), Fraction(-1, 3), 0), (1, -1, 0, 0)]),
        make_frame(sp6, [(0.5, 1, Fraction(-3, 4)), (BIG, 1, 0)]),
    ]
    drawn = random_frames(SL4, 20, seed=5) + random_frames(sp6, 20, seed=5)
    for frame in made + drawn:
        assert frame.integer_vectors == tuple(map(tuple, integer_rows(frame.vectors)))
        assert all(type(x) is int for row in frame.integer_vectors for x in row)
        # a frame made by replace computes its own rows, never the old ones
        reversed_ = frame.vectors[::-1]
        for replaced in (dataclasses.replace(frame), dataclasses.replace(frame, vectors=reversed_)):
            assert "integer_vectors" not in replaced.__dict__
            assert replaced.integer_vectors == tuple(map(tuple, integer_rows(replaced.vectors)))
        assert dataclasses.replace(frame) == frame
        assert "integer_vectors" not in repr(frame)


def test_replaced_frame_vectors_are_checked():
    # a frame made by replace reads its vectors through rootdata.flat_row
    # before any mask is built
    frame = make_frame(SL4, [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    for vector, error in (
        ((True, True, True, -3), NotInFlatError),
        ((1, 1, 1), DimensionMismatchError),
        ((0, 0, 0, 0), ZeroVectorError),
        ((1, 1, 1, 1), NotInFlatError),
    ):
        replaced = dataclasses.replace(frame, vectors=(vector,) + frame.vectors[1:])
        with pytest.raises(error):
            build_matrix(replaced)


def test_load_frame(tmp_path):
    path = tmp_path / "frame.json"
    path.write_text('[["1","1","1","-3"],["-3","1","1","1"],["1","-1","1","-1"]]')
    frame = load_frame(str(path), SL4)
    assert frame.spanning
    with pytest.raises(FrameFileError):
        load_frame(str(tmp_path / "missing.json"), SL4)
    # make_frame's validation errors surface as frame-file errors
    for text in ('[["1","-1","0"]]', '[["1","1","1","1"]]', '[["0","0","0","0"]]'):
        path.write_text(text)
        with pytest.raises(FrameFileError):
            load_frame(str(path), SL4)
