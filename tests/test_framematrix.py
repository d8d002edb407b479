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
from rootmatch.chamber import fundamental_coweights, stabilizer_codim
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
from rootmatch.exact import exact_rank, integer_rows, primitive_integer
from rootmatch.framematrix import (
    _P,
    SelectionMatrix,
    _Draws,
    _spans_mod_p,
    build_matrix,
    load_frame,
    make_frame,
    parse_frame_vectors,
    random_frames,
    verify_properties,
)
from rootmatch.rootdata import build_root_system, catalogue, space

from oracles import evaluate_root

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
    assert SelectionMatrix.from_entries(SL4, m.entries, m.col_labels) == m


def test_from_entries_validates():
    labels = SL4.rootsys.column_labels
    with pytest.raises(MalformedMatrixError):
        SelectionMatrix.from_entries(SL4, [], labels[:0])
    with pytest.raises(MalformedMatrixError):
        SelectionMatrix.from_entries(SL4, [[1, 0], [1]], labels[:2])
    with pytest.raises(MalformedMatrixError):
        SelectionMatrix.from_entries(SL4, [[1, 2]], labels[:2])
    with pytest.raises(MalformedMatrixError):
        SelectionMatrix.from_entries(SL4, [[1, 0, 1]], labels[:2])


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
    draws = []
    monkeypatch.setattr(framematrix, "_Draws", lambda seed: draws.append(seed) or _Draws(seed))
    with pytest.raises(InvalidParamsError):
        random_frames(SL4, **{"count": 5, "seed": 1, **kwargs})
    assert draws == []


def test_random_frames_pinned():
    # The draw stream is fixed: same rng calls in the same order.  These
    # digests of repr([f.vectors ...]) were taken before the sampler's
    # per-call lookups were hoisted out of its per-vector helpers.
    pinned = {
        "SL(4,R)": "65232ab3473aed20",
        "Sp(6,R)": "1a40b829b255a9a2",
        "SO(5,7)": "06a062def9182622",
        "SU(6,6)": "f0adcb4e4a32ad17",
    }
    for name, want in pinned.items():
        vectors = [f.vectors for f in random_frames(space(name), 200, seed=1)]
        assert hashlib.sha256(repr(vectors).encode()).hexdigest()[:16] == want, name


# ---------------------------------------------------------------------------
# The raw-word sampler against numpy's Generator.


def _oracle_random_frames(
    space_, count, seed, *, singular_fraction=0.5, max_attempts=200, zero_draws=None
):
    """The sampler written on ``np.random.default_rng``: one numpy call per
    draw and one exact rank per attempt.  Each regular vector drawn as
    zero, and so drawn again, is appended to the list ``zero_draws``."""
    rng = np.random.default_rng(seed)
    k, dim, family = space_.rank, space_.coord_dim, space_.rootsys.family
    coweights = [primitive_integer(w) for w in fundamental_coweights(space_.rootsys)]

    def regular_vector():
        while True:
            v = rng.integers(-9, 10, size=dim).tolist()
            if rng.random() < 0.3 and dim >= 2:
                i, j = rng.choice(dim, size=2, replace=False)
                choice = rng.random()
                if family == "A" or choice < 0.5:
                    v[j] = v[i]
                elif choice < 0.8:
                    v[j] = -v[i]
                else:
                    v[j] = 0
            if family == "A":
                total = sum(v)
                v = [dim * x - total for x in v]
            if any(v):
                return v
            if zero_draws is not None:
                zero_draws.append(v)

    def face_vector():
        while True:
            smask = int(rng.integers(1, 1 << k))
            outside = [i for i in range(k) if not smask >> i & 1]
            if not outside:
                continue
            v = [0] * dim
            for i in outside:
                c = int(rng.integers(1, 5))
                for n, x in enumerate(coweights[i]):
                    v[n] += c * x
            if any(v):
                return v

    frames = []
    for _ in range(count):
        for _attempt in range(max_attempts):
            n_singular = 0
            if rng.random() < singular_fraction:
                n_singular = int(rng.integers(1, k + 1))
            vectors = [face_vector() for _ in range(n_singular)]
            vectors += [regular_vector() for _ in range(k - n_singular)]
            if exact_rank(vectors) == k:
                frames.append(tuple(tuple(v) for v in vectors))
                break
        else:
            raise RuntimeError(f"could not sample a spanning frame for {space_.name}")
    return frames


def test_random_frames_match_generator_oracle():
    spaces = [s for s in catalogue() if not s.excluded and 2 <= s.rank <= 6]
    assert len(spaces) == 42
    for seed in (1, 6, 12):
        for s in spaces:
            frames = random_frames(s, 200, seed=seed)
            assert all(f.spanning and f.space is s for f in frames)
            assert [f.vectors for f in frames] == _oracle_random_frames(s, 200, seed), (
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
                    want = _outcome(lambda: _oracle_random_frames(s, 30, seed, **kwargs))
                    assert got == want, (name, max_attempts, seed, fraction)
                    if isinstance(got, str):
                        raised += 1
                    else:
                        succeeded += 1
    assert raised > 10 and succeeded > 10


def test_random_frames_pinned_whole_corpora():
    # the corpora of `rootmatch all` at its first seeds, 42 spaces x 1,000
    # frames each, as the per-draw sampler drew them
    spaces = [s for s in catalogue() if not s.excluded and 2 <= s.rank <= 6]
    assert len(spaces) == 42
    pinned = {1: "cdd4740734f08f55", 6: "9fc8e9a7af4879cc", 12: "58bf7f4e1d3c8fb4"}
    for seed, want in pinned.items():
        corpus = [(s.name, [f.vectors for f in random_frames(s, 1000, seed=seed)]) for s in spaces]
        assert hashlib.sha256(repr(corpus).encode()).hexdigest()[:16] == want, seed
    # the corpus whose frame 991 strands leftmost greedy (CI's fuzz sweep)
    vectors = [f.vectors for f in random_frames(SL4, 1000, seed=6)]
    assert hashlib.sha256(repr(vectors).encode()).hexdigest()[:16] == "08658bf4fbcf68b5"


def _count_calls(monkeypatch, name):
    """Replace ``framematrix.<name>`` by a wrapper; return its call list."""
    calls, wrapped = [], getattr(framematrix, name)
    monkeypatch.setattr(framematrix, name, lambda *a: calls.append(a) or wrapped(*a))
    return calls


@pytest.mark.parametrize("name", ["SL(4,R)", "SO(2,3)", "Sp(4,R)", "SU(2,2)"])
def test_random_frames_redraw_zero_vectors_in_the_decision_pass(monkeypatch, name):
    # the oracle draws zero regular vectors in these corpora (a collision
    # onto a 0 in dim 2, four equal coordinates in SL(4,R)); the decision
    # pass redraws them itself, without rewinding to the per-draw code
    s = space(name)
    zero_draws = []
    want = _oracle_random_frames(s, 1000, 1, zero_draws=zero_draws)
    rewinds = _count_calls(monkeypatch, "_draw_attempt")
    assert [f.vectors for f in random_frames(s, 1000, seed=1)] == want
    assert zero_draws and rewinds == []


def test_random_frames_redraw_zero_vectors_of_the_a_family_in_dim_2():
    # SL(2,R): a collision always makes the vector zero, so two coordinates
    # other than the collided one do not exist to be compared
    sl2 = dataclasses.replace(SL4, name="SL(2,R)", rank=1, rootsys=build_root_system("A", 1))
    zero_draws = []
    want = _oracle_random_frames(sl2, 300, 2, singular_fraction=0.0, zero_draws=zero_draws)
    assert [f.vectors for f in random_frames(sl2, 300, seed=2, singular_fraction=0.0)] == want
    assert len(zero_draws) > 50


class _PlantedPCG64:
    """PCG64's raw words, with the half-word of stream index ``half``
    (2 * word, plus 1 for a high half) set to 0."""

    def __init__(self, seed, half):
        self._bitgen = np.random.PCG64(seed)
        self._half = half
        self._drawn = 0  # words handed out so far

    def random_raw(self, size):
        words = self._bitgen.random_raw(size)
        at = self._half - 2 * self._drawn
        if 0 <= at < 2 * size:
            words[at // 2] &= np.uint64(0xFFFFFFFF << 32 if at % 2 == 0 else 0xFFFFFFFF)
        self._drawn += size
        return words


def test_chunk_decoder_rewinds_at_a_rejected_coordinate(monkeypatch):
    # Lemire's method rejects h = 0 at range 19 (19 * 0 mod 2**32 < 6) and
    # draws again, which moves every later draw; the build finds the
    # rejected half-word, keeps the attempts before it and redraws its
    # attempt with the per-draw code
    s = space("SO(4,6)")
    k, dim, family = s.rank, s.coord_dim, s.rootsys.family
    coweights = framematrix._integer_coweights(s.rootsys)
    # the third coordinate of the first regular vector from attempt 30 on
    # of a fresh stream, whose block indices are stream indices
    n_singulars, _masks, runs, _collisions = framematrix._decide(_Draws(5), 40, k, dim, family, 0.5)
    at = next(a for a in range(30, 40) if n_singulars[a] < k)
    half = (runs[at * k + n_singulars[at]] & 0xFFFFFFFF) + 1

    def planted_draws():
        draws = _Draws(5)
        draws._bitgen = _PlantedPCG64(5, half)
        return draws

    draws = planted_draws()
    want = [framematrix._draw_attempt(draws, k, dim, family, coweights, 0.5) for _ in range(40)]
    draws = _Draws(5)
    unplanted = [framematrix._draw_attempt(draws, k, dim, family, coweights, 0.5) for _ in range(40)]
    assert want[:at] == unplanted[:at] and want[at + 1 :] != unplanted[at + 1 :]

    rewinds = _count_calls(monkeypatch, "_draw_attempt")
    draws = planted_draws()
    first = framematrix._draw_chunk(draws, s, 40, 0.5)
    assert len(first) == at + 1 and len(rewinds) == 1
    rest = framematrix._draw_chunk(draws, s, 40 - len(first), 0.5)
    assert np.concatenate((first, rest)).tolist() == want
    assert len(rewinds) == 1


def test_chunk_decoder_carries_a_half_word_across_a_block_refill(monkeypatch):
    # one word per refill: a run whose first draw is the high half of a
    # word read before a refill, and whose second draw is read after it
    monkeypatch.setattr(framematrix, "_WORDS", 1)
    crossings = 0
    refills = []
    extend, decide = _Draws._extend, framematrix._decide

    def counting_extend(self, end):
        refills.append(len(self.block))  # the index of the first new word
        extend(self, end)

    def counting_decide(draws, *args):
        nonlocal crossings
        refills.clear()
        decided = decide(draws, *args)
        for run in decided[2]:
            first, rest = run >> 32, run & 0xFFFFFFFF
            crossings += first % 2 == 1 and any(first // 2 < b <= rest // 2 for b in refills)
        return decided

    monkeypatch.setattr(_Draws, "_extend", counting_extend)
    monkeypatch.setattr(framematrix, "_decide", counting_decide)
    for name in ("SL(5,R)", "SO(3,4)"):
        s = space(name)
        assert [f.vectors for f in random_frames(s, 100, seed=4)] == _oracle_random_frames(s, 100, 4)
    assert crossings > 100


def _half_words(seed, count):
    """The first 32-bit draws of a fresh PCG64 stream: low half, then high."""
    words = np.random.PCG64(seed).random_raw(count).tolist()
    return [half for w in words for half in (w & 0xFFFFFFFF, w >> 32)]


def test_draws_lemire_rejection_path():
    # at range 3 * 2**30 a half-word h is rejected when h * n mod 2**32 is
    # below 2**32 mod n = 2**30, about a quarter of the time
    n = 3 * 2**30
    rejected = sum(h * n % 2**32 < 2**30 for h in _half_words(7, 200))
    assert rejected > 50
    draws, rng = _Draws(7), np.random.default_rng(7)
    assert [draws.integers(0, n) for _ in range(400)] == [
        int(rng.integers(0, n)) for _ in range(400)
    ]


def test_draws_carry_half_word_across_random():
    # integers takes the low half of word 0, random() takes all of word 1,
    # and the next integers takes the carried high half of word 0
    words = np.random.PCG64(3).random_raw(3).tolist()
    draws = _Draws(3)
    assert draws.integers(0, 19) == (words[0] & 0xFFFFFFFF) * 19 >> 32
    assert draws.random() == (words[1] >> 11) * 2.0**-53
    assert draws.integers(0, 19) == (words[0] >> 32) * 19 >> 32
    assert draws.integers(0, 19) == (words[2] & 0xFFFFFFFF) * 19 >> 32
    # and the same interleaving, at length, against the Generator
    draws, rng = _Draws(4), np.random.default_rng(4)
    for step in range(3000):
        if step % 3 == 1:
            assert draws.random() == rng.random()
        elif step % 7 == 0:
            assert draws.integer_list(-9, 10, 5) == rng.integers(-9, 10, size=5).tolist()
        else:
            assert draws.integers(1, 2 + step % 9) == int(rng.integers(1, 2 + step % 9))


def test_draws_pair_matches_choice():
    draws, rng = _Draws(5), np.random.default_rng(5)
    for step in range(2000):
        n = 2 + step % 8
        assert draws.pair(n) == tuple(int(x) for x in rng.choice(n, size=2, replace=False))
        if step % 3 == 0:  # move the half-word carry around
            assert draws.integers(0, 19) == int(rng.integers(0, 19))


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
    broken = SelectionMatrix.from_entries(
        SL4, ((1, 1, 0), (1, 1, 0)), SL4.rootsys.column_labels[:3]
    )
    report = verify_properties(broken, SL4)
    assert not report.verdicts[0]
    assert any("property 1" in w for w in report.witnesses)


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
