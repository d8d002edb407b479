"""Selection matrices built from frames in the flat.

Row i of the matrix corresponds to the i-th frame vector, and there is
one column per multiplicity slot of each positive root, in a fixed
deterministic order.  An entry is 1 exactly when the root does not
vanish on the frame vector, decided in exact arithmetic.  Each row is
held as one int bitmask, column j being bit j.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import re
import sys
from dataclasses import InitVar, dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    EmptyFrameError,
    ExcludedSpaceError,
    FrameFileError,
    InvalidParamsError,
    MalformedMatrixError,
    RootmatchError,
)
from .exact import Rat, as_int, integer_rank, integer_row
from .rootdata import KTYPE_SO, Root, RootSystem, SpaceDescriptor, flat_row

Vector = tuple[Rat, ...]


@dataclass(frozen=True)
class FrameSpec:
    """A frame of k <= rank exact vectors in the flat of a space.

    ``integer_vectors`` is each vector scaled to an integer vector on the
    same ray (``exact.integer_row``), the one form the checks and
    ``build_matrix`` read.  ``make_frame`` and ``random_frames`` fill it
    as they build the frame; a frame made any other way, such as by
    ``dataclasses.replace``, computes it on first read.
    """

    vectors: tuple[Vector, ...]
    space: SpaceDescriptor
    spanning: bool

    @functools.cached_property
    def integer_vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(integer_row(v)) for v in self.vectors)


def make_frame(space: SpaceDescriptor, vectors: Iterable[Sequence[Rat]]) -> FrameSpec:
    """A checked frame: each vector in turn through ``rootdata.flat_row``
    (its length, its entries read by ``Fraction(x)`` unless ints, nonzero,
    and for the A family a zero coordinate sum), then whether the frame
    spans, from the rank of the integer rows that ``flat_row`` returns.
    """
    vecs = tuple(map(tuple, vectors))
    if not vecs:
        raise EmptyFrameError("a frame needs at least one vector")
    if len(vecs) > space.rank:
        raise InvalidParamsError(
            f"frame has {len(vecs)} vectors but the rank is {space.rank}"
        )
    traceless = space.rootsys.family == "A"
    dim = space.coord_dim
    ints = tuple(flat_row(v, dim, traceless) for v in vecs)
    spanning = integer_rank(ints) == min(len(vecs), space.rank)
    frame = FrameSpec(vectors=vecs, space=space, spanning=spanning)
    frame.__dict__["integer_vectors"] = ints  # fills the cached property
    return frame


class _Entries:
    """``SelectionMatrix.entries``: the rows as 0/1 tuples, derived from
    ``masks`` on first read and kept.  As an init-only argument (default
    None) 0/1 rows replace ``masks``, so that
    ``dataclasses.replace(matrix, entries=rows)`` gives a matrix with
    those rows.
    """

    def __get__(self, matrix, owner=None):
        if matrix is None:
            return None
        rows = tuple(
            tuple(int(b) for b in format(mask, f"0{matrix.cols}b")[::-1])
            for mask in matrix.masks
        )
        matrix.__dict__["entries"] = rows
        return rows


def masks_from_rows(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Validate rows of 0/1 entries; return their column bitmasks and width."""
    rows = [tuple(row) for row in rows]
    if not rows:
        raise MalformedMatrixError("matrix has no rows")
    width = len(rows[0])
    if width == 0:
        raise MalformedMatrixError("matrix has no columns")
    masks = []
    for row in rows:
        if len(row) != width:
            raise MalformedMatrixError("ragged matrix")
        if any(x not in (0, 1) for x in row):
            raise MalformedMatrixError("entries must be 0 or 1")
        masks.append(sum(1 << j for j, x in enumerate(row) if x))
    return tuple(masks), width


@dataclass(frozen=True)
class SelectionMatrix:
    """0/1 incidence of frame vectors against root multiplicity slots.

    Row i is the int ``masks[i]``: bit j is set when the entry in column
    j is 1.  ``build_matrix`` output is trusted as built; hand-made
    matrices go through the validating ``from_entries``.
    """

    space: SpaceDescriptor
    rows: int
    cols: int
    masks: tuple[int, ...]
    col_labels: tuple[tuple[Root, int], ...]
    entries: InitVar[Optional[Sequence[Sequence[int]]]] = _Entries()

    def __post_init__(self, entries):
        if entries is not None:
            masks, width = masks_from_rows(entries)
            if len(masks) != self.rows or width != self.cols:
                raise MalformedMatrixError("entries do not match the rows and cols fields")
            object.__setattr__(self, "masks", masks)

    @classmethod
    def from_entries(
        cls,
        space: SpaceDescriptor,
        entries: Sequence[Sequence[int]],
        col_labels: Sequence[tuple[Root, int]],
    ) -> SelectionMatrix:
        """A hand-made matrix from rectangular 0/1 rows, one label per column."""
        masks, width = masks_from_rows(entries)
        if len(col_labels) != width:
            raise MalformedMatrixError(f"{len(col_labels)} column labels for {width} columns")
        return cls(
            space=space,
            rows=len(masks),
            cols=width,
            masks=masks,
            col_labels=tuple(col_labels),
        )

    @property
    def row_weights(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.masks)


def build_matrix(frame: FrameSpec) -> SelectionMatrix:
    """Build the selection matrix of a frame.

    Each frame vector is read as its integer vector on the same ray
    (``frame.integer_vectors``), which keeps every root's zero pattern,
    and its row is that vector's ``RootSystem.row_masks`` mask.
    """
    space = frame.space
    labels = space.rootsys.column_labels
    masks = space.rootsys.row_masks(frame.integer_vectors)
    return SelectionMatrix(
        space=space,
        rows=len(masks),
        cols=len(labels),
        masks=masks,
        col_labels=labels,
    )


@dataclass(frozen=True)
class PropertyReport:
    """Verdicts for the five structural properties of a selection matrix.

    1. every column contains a 1;
    2. every row weight is at least n;
    3. if K is not of SO(n+1) type, every row weight is at least 2n-2;
    4. equal rows have weight at least 2n-1;
    5. two rows of weight below 2n-2 share at most one column.
    """

    space: str
    verdicts: tuple[bool, bool, bool, bool, bool]
    witnesses: tuple[str, ...]
    equal_row_pairs: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return all(self.verdicts)


def verify_properties(matrix: SelectionMatrix, space: SpaceDescriptor) -> PropertyReport:
    if space.excluded:
        raise ExcludedSpaceError(f"{space.name} is excluded from property checks")
    n = space.rank
    masks = matrix.masks
    weights = [mask.bit_count() for mask in masks]
    witnesses: list[str] = []

    union = 0
    for mask in masks:
        union |= mask
    ok1 = union == (1 << matrix.cols) - 1
    if not ok1:
        empty_cols = [j for j in range(matrix.cols) if not union >> j & 1]
        witnesses.append(f"property 1: all-zero columns {empty_cols}")

    light = [i for i, w in enumerate(weights) if w < n]
    ok2 = not light
    if not ok2:
        witnesses.append(f"property 2: rows {light} have weight below {n}")

    low = [i for i, w in enumerate(weights) if w < 2 * n - 2]
    ok3 = True
    if space.ktype != KTYPE_SO:
        ok3 = not low
        if not ok3:
            witnesses.append(f"property 3: rows {low} have weight below {2 * n - 2}")

    ok4 = True
    equal_pairs = []
    for i in range(matrix.rows):
        for j in range(i + 1, matrix.rows):
            if masks[i] == masks[j]:
                equal_pairs.append((i, j))
                if weights[i] < 2 * n - 1:
                    ok4 = False
                    witnesses.append(
                        f"property 4: equal rows {(i, j)} have weight {weights[i]}"
                    )

    ok5 = True
    for a, i in enumerate(low):
        for j in low[a + 1 :]:
            shared = (masks[i] & masks[j]).bit_count()
            if shared > 1:
                ok5 = False
                witnesses.append(
                    f"property 5: light rows {(i, j)} share {shared} columns"
                )

    return PropertyReport(
        space=space.name,
        verdicts=(ok1, ok2, ok3, ok4, ok5),
        witnesses=tuple(witnesses),
        equal_row_pairs=tuple(equal_pairs),
    )


# ---------------------------------------------------------------------------
# Random spanning frames for fuzzing.
#
# The draws are exactly those of ``np.random.default_rng(seed)``, read
# from the raw words of its bit generator (PCG64, O'Neill 2014).
# ``_draw_attempt`` defines an attempt a draw at a time through
# ``_Draws``; ``_draw_chunk`` draws up to ``_CHUNK`` attempts at once, in
# two steps over the same stream state:
#
# - ``_decide``, one Python pass, makes the draws that steer the stream:
#   whether an attempt is singular and how many face vectors it has,
#   each face mask (drawn again when it keeps no coweight), and each
#   regular vector's collision test, pair and choice.  The coefficients
#   of a face vector and the coordinates of a regular vector are runs of
#   bounded draws of one half-word each: the pass notes where each run
#   starts and steps over it.  A regular vector that comes out zero is
#   drawn again, as in ``_random_vector``.  For that test the block's
#   half-words are also kept mapped onto [-9, 9] (``_coordinate_bytes``,
#   one numpy map per refill); one or two of them rule zero out for
#   almost every vector, and only the rest are read in full.
# - ``_build`` turns the runs into one (attempts, k, dim) int64 array:
#   the coordinates gathered from that map, the collisions by fancy
#   indexing, the A-family detrace, and the face vectors as coefficient
#   rows times the integer coweights.
#
# The pass takes every coordinate half-word as accepted by Lemire's
# method; one in about 7e8 is not (19 h mod 2**32 < 6), and the rest of
# the chunk then reads the wrong draws.  The build finds the first
# attempt that holds one: the attempts before it are kept, the pass is
# replayed from the chunk's start to that attempt, and that attempt alone
# is drawn by ``_draw_attempt``.  Face coefficients (range 4) are never
# rejected, and a face vector is never zero: the coweights are
# independent and the coefficients positive.
#
# The block starts at the first word a chunk reads and grows by
# ``_WORDS`` words as the pass needs them, so it holds about one chunk's
# draws (some 4,600 words at rank 6); a single frame, as ``verify``
# draws, reads one refill.

_WORDS = 1024  # raw PCG64 words added to the block at a time
_CHUNK = 128  # most attempts drawn and tested for spanning together
_P = 2**31 - 1  # prime modulus of the batched spanning test
# entries mod p are below 2**31, so lead * a - f * b stays exact in int64
assert 2 * (_P - 1) ** 2 < 2**63
_LOW = 0xFFFFFFFF
# a coordinate draw maps a half-word h to _COORD_LOW + (h * _SPAN >> 32),
# unless h * _SPAN mod 2**32 is below _REJECT_BELOW, where Lemire's
# method draws again
_SPAN = 19
_COORD_LOW = -9
_REJECT_BELOW = 2**32 % _SPAN
_REJECTED = 255  # in _coordinate_bytes: no coordinate


def _coordinate_bytes(words: np.ndarray) -> bytes:
    """Each half-word of ``words``, low half first, read as a coordinate
    draw by Lemire's method: the coordinate minus ``_COORD_LOW``, or
    ``_REJECTED`` where the method rejects the half-word."""
    halves = words.astype("<u8", copy=False).view("<u4").astype(np.int64) * _SPAN
    coordinates = (halves >> 32).astype(np.uint8)
    coordinates[halves % 2**32 < _REJECT_BELOW] = _REJECTED
    return coordinates.tobytes()


class _Draws:
    """The ``Generator`` calls the sampler makes, from raw PCG64 words.

    The words are read from ``block``, a uint64 array that grows by
    ``_WORDS`` words when a draw runs past its end and drops the words
    already used when a chunk begins (``trim``); ``pos`` is the index of
    the next unread word.  ``random()`` takes a whole word.  A bounded
    integer takes a 32-bit half-word, low half first; the upper half is
    kept for the next bounded draw, also across ``random()`` calls, as
    ``carry``, the index of its word (-1 for none).  The half-word is
    mapped to the range by Lemire's multiply-and-reject method (Lemire
    2019), as numpy does for ranges up to 2**32.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.PCG64(seed)
        self.block = np.empty(0, dtype=np.uint64)
        self._words = memoryview(self.block)  # reads words as Python ints
        self.coordinates = b""  # _coordinate_bytes of the block
        self.pos = 0
        self.carry = -1

    def _extend(self, end: int) -> None:
        """Grow the block to at least ``end`` words."""
        short = end - len(self.block)
        if short > 0:
            fresh = self._bitgen.random_raw(-(-short // _WORDS) * _WORDS)
            self.block = np.concatenate((self.block, fresh))
            self._words = memoryview(self.block)
            self.coordinates += _coordinate_bytes(fresh)

    def trim(self) -> None:
        """Drop the words before the carried one or, with none, the next."""
        keep = self.carry if self.carry >= 0 else self.pos
        if keep:
            self.block = self.block[keep:]
            self._words = memoryview(self.block)
            self.coordinates = self.coordinates[2 * keep :]
            self.pos -= keep
            if self.carry >= 0:
                self.carry = 0

    def _uint32(self) -> int:
        carry = self.carry
        if carry >= 0:
            self.carry = -1
            return self._words[carry] >> 32
        pos = self.carry = self.pos
        if pos == len(self.block):
            self._extend(pos + 1)
        self.pos = pos + 1
        return self._words[pos] & _LOW

    def _below(self, n: int) -> int:
        """Uniform on range(n), 1 <= n <= 2**32; n == 1 draws nothing."""
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & _LOW < n:
            threshold = 2**32 % n
            while m & _LOW < threshold:
                m = self._uint32() * n
        return m >> 32

    def random(self) -> float:
        """``Generator.random()``."""
        pos = self.pos
        if pos == len(self.block):
            self._extend(pos + 1)
        self.pos = pos + 1
        return (self._words[pos] >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``."""
        return low + self._below(high - low)

    def integer_list(self, low: int, high: int, size: int) -> list[int]:
        """``Generator.integers(low, high, size=size).tolist()``."""
        return [low + self._below(high - low) for _ in range(size)]

    def pair(self, n: int) -> tuple[int, int]:
        """``Generator.choice(n, 2, replace=False)``: Floyd's algorithm,
        then the one-step shuffle of the two picks."""
        i = self._below(n - 1)
        j = self._below(n)
        if j == i:
            j = n - 1
        if self._below(2) == 0:
            i, j = j, i
        return i, j


@functools.lru_cache(maxsize=None)
def _integer_coweights(rootsys: RootSystem) -> tuple[tuple[int, ...], ...]:
    from .chamber import fundamental_coweights
    from .exact import primitive_integer

    return tuple(primitive_integer(w) for w in fundamental_coweights(rootsys))


@functools.lru_cache(maxsize=None)
def _coefficient_order(rank: int) -> np.ndarray:
    """Per face mask, for each coweight, which of the face's coefficients
    multiplies it: t for the t-th coweight outside the mask, and ``rank``,
    a zero column, for those inside.  A (2**rank, rank) array."""
    order = np.full((1 << rank, rank), rank)
    for smask in range(1 << rank):
        outside = [i for i in range(rank) if not smask >> i & 1]
        order[smask, outside] = range(len(outside))
    order.flags.writeable = False  # shared by every caller
    return order


def _detrace(v: list[int], dim: int) -> list[int]:
    s = sum(v)
    return [dim * x - s for x in v]


def _random_vector(dim: int, family: str, draws: _Draws) -> list[int]:
    while True:
        v = draws.integer_list(_COORD_LOW, _COORD_LOW + _SPAN, dim)
        if draws.random() < 0.3 and dim >= 2:
            # Deliberately collide coordinates to land on or near walls.
            i, j = draws.pair(dim)
            choice = draws.random()
            if family == "A" or choice < 0.5:
                v[j] = v[i]
            elif choice < 0.8:
                v[j] = -v[i]
            else:
                v[j] = 0
        if family == "A":
            v = _detrace(v, dim)
        if any(v):
            return v


def _random_face_vector(
    rank: int, dim: int, coweights: Sequence[Sequence[int]], draws: _Draws
) -> list[int]:
    while True:
        smask = draws.integers(1, 1 << rank)  # nonempty, proper after filter
        outside = [i for i in range(rank) if not smask >> i & 1]
        if not outside:
            continue
        v = [0] * dim
        for i in outside:
            c = draws.integers(1, 5)
            v = [a + c * x for a, x in zip(v, coweights[i])]
        if any(v):
            return v


def _draw_attempt(
    draws: _Draws, k: int, dim: int, family: str, coweights, singular_fraction: float
) -> list[list[int]]:
    """One attempt, a draw at a time: the definition ``_decide`` and
    ``_build`` follow."""
    n_singular = 0
    if draws.random() < singular_fraction:
        n_singular = draws.integers(1, k + 1)
    vectors = [_random_face_vector(k, dim, coweights, draws) for _ in range(n_singular)]
    vectors += [_random_vector(dim, family, draws) for _ in range(k - n_singular)]
    return vectors


def _decide(
    draws: _Draws, attempts: int, k: int, dim: int, family: str, singular_fraction: float
):
    """The decision pass over ``attempts`` attempts of ``_draw_attempt``.

    Slot s is vector s % k of attempt s // k; the attempt's first
    ``n_singular`` vectors are face vectors.  A slot's run of coefficient
    or coordinate draws is noted as the half-word indices (2 * word, plus
    1 for a high half) of its first two draws, first << 32 | second; the
    rest follow the second in order.  Returns, as lists of ints, each
    attempt's ``n_singular``, each face vector's mask, each slot's run,
    and each collision as its slot, i, j and factor, for
    v[j] = factor * v[i].  The stream state is kept in locals and
    written back at the end.
    """
    n_singulars, masks, runs, collisions = [], [], [], []
    note = runs.append
    full = (1 << k) - 1
    equal = family == "A"  # zero vectors have equal coordinates, not zero ones
    words, coordinates, pos, carry = draws._words, draws.coordinates, draws.pos, draws.carry
    end = len(words)

    def grow():
        nonlocal words, coordinates, end
        draws._extend(pos + 1)
        words, coordinates = draws._words, draws.coordinates
        end = len(words)

    def random():
        # _Draws.random
        nonlocal pos
        if pos == end:
            grow()
        pos += 1
        return (words[pos - 1] >> 11) * 2.0**-53

    def below(n):
        # _Draws._below
        nonlocal pos, carry
        if n == 1:
            return 0
        if carry >= 0:
            m = (words[carry] >> 32) * n
            carry = -1
        else:
            if pos == end:
                grow()
            m = (words[pos] & _LOW) * n
            carry = pos
            pos += 1
        if m & _LOW < n:
            draws.pos, draws.carry = pos, carry
            while m & _LOW < 2**32 % n:
                m = draws._uint32() * n
            pos, carry = draws.pos, draws.carry
            grow()  # the redraws may have grown the block
        return m >> 32

    def is_zero(first, rest, j):
        # whether the regular vector with this coordinate run and
        # collision target j (-1 for none) is zero: every coordinate but
        # j is 0 or, for the A family, equal; False when a coordinate
        # is rejected, for the build to find
        drawn = coordinates[first : first + 1] + coordinates[rest : rest + dim - 1]
        target = drawn[1 if j == 0 else 0] if equal else zero
        if target == _REJECTED:
            return False
        if j < 0:
            return drawn.count(target) == dim
        return drawn[j] != _REJECTED and drawn.count(target) - (drawn[j] == target) == dim - 1

    def skip(size):
        # steps over size bounded draws and notes their run
        nonlocal pos, carry
        if carry >= 0:
            note((2 * carry + 1) << 32 | 2 * pos)
            size -= 1
            carry = -1
        else:
            note(2 * pos << 32 | 2 * pos + 1)
        pos += size >> 1
        if size & 1:
            carry = pos
            pos += 1
        if pos >= end:
            grow()

    # random() < t read off the raw word w: (w >> 11) * 2**-53 < t
    # exactly when w < ceil(t * 2**53) << 11
    singular_below = math.ceil(singular_fraction * 2**53) << 11
    collide_below = math.ceil(0.3 * 2**53) << 11 if dim >= 2 else 0
    zero = -_COORD_LOW  # a zero coordinate, in _coordinate_bytes
    for slot in range(0, attempts * k, k):
        if pos == end:
            grow()
        pos += 1
        n_singular = 1 + below(k) if words[pos - 1] < singular_below else 0
        n_singulars.append(n_singular)
        for _ in range(n_singular):
            smask = full
            while smask == full:
                smask = 1 + below(full)
            masks.append(smask)
            skip(k - smask.bit_count())
        for s in range(slot + n_singular, slot + k):
            while True:  # _random_vector
                # skip(dim), inline: most draws are made here
                if carry >= 0:
                    first, rest = 2 * carry + 1, 2 * pos
                    carry = -1
                    pos += (dim - 1) >> 1
                    if not dim & 1:
                        carry = pos
                        pos += 1
                else:
                    first = 2 * pos
                    rest = first + 1
                    pos += dim >> 1
                    if dim & 1:
                        carry = pos
                        pos += 1
                if pos >= end:
                    grow()
                pos += 1
                j = -1
                if words[pos - 1] < collide_below:
                    # _Draws.pair(dim), then the choice
                    i = below(dim - 1)
                    j = below(dim)
                    if j == i:
                        j = dim - 1
                    if below(2) == 0:
                        i, j = j, i
                    choice = random()
                    factor = 1 if equal or choice < 0.5 else -1 if choice < 0.8 else 0
                # a zero vector's coordinates other than j are 0 or, for
                # the A family, equal: test one or two of them first
                a = rest if j == 0 else first
                if equal:
                    maybe = dim == 2 and j >= 0 or (
                        coordinates[a] == coordinates[rest + 1 if 0 <= j <= 1 else rest]
                    )
                else:
                    maybe = coordinates[a] == zero
                if not (maybe and is_zero(first, rest, j)):
                    break
            note(first << 32 | rest)
            if j >= 0:
                collisions.extend((s, i, j, factor))
    draws.pos, draws.carry = pos, carry
    draws._extend(pos + k // 2 + 1)  # the build reads k half-words per face run
    return n_singulars, masks, runs, collisions


def _run_index(runs: np.ndarray, size: int) -> np.ndarray:
    """The half-word indices of the first ``size`` draws of each run that
    ``_decide`` notes, one row per run."""
    index = (runs % 2**32)[:, None] + np.arange(-1, size - 1)
    index[:, 0] = runs >> 32
    return index


def _build(draws: _Draws, attempts: int, k: int, dim: int, family: str, coweights, decided):
    """The numpy build of ``_decide``'s attempts: an (attempts, k, dim)
    int64 array, and the first attempt with a rejected coordinate
    half-word (``attempts`` when there is none), from which on the
    array is wrong."""
    n_singulars, masks, runs, collisions = decided
    runs = np.array(runs, dtype=np.int64)
    face = (np.arange(k) < np.array(n_singulars)[:, None]).ravel()
    regular = ~face
    coordinates = np.frombuffer(draws.coordinates, dtype=np.uint8)[_run_index(runs[regular], dim)]
    rejected = (coordinates == _REJECTED).any(axis=1)
    # in place from here on: face rows are filled in last
    vectors = np.zeros((attempts * k, dim), dtype=np.int64)
    vectors[regular] = coordinates
    vectors += _COORD_LOW
    if collisions:
        slot, i, j, factor = np.array(collisions, dtype=np.int64).reshape(-1, 4).T
        vectors[slot, j] = factor * vectors[slot, i]
    if family == "A":
        total = vectors.sum(axis=1, keepdims=True)
        vectors *= dim
        vectors -= total
    if masks:
        # the range 4 divides 2**32: Lemire's method takes every
        # half-word h, and a coefficient is 1 + (h >> 30)
        index = _run_index(runs[face], k)
        words = draws.block.view(np.int64)
        coefficients = np.zeros((len(masks), k + 1), dtype=np.int64)
        coefficients[:, :k] = (words[index >> 1] >> index % 2 * 32 + 30) % 4 + 1
        order = _coefficient_order(k)[masks]
        coefficients = np.take_along_axis(coefficients, order, axis=1)
        vectors[face] = (coefficients[:, :, None] * coweights).sum(axis=1)
    first = np.flatnonzero(regular)[rejected.argmax()] // k if rejected.any() else attempts
    return vectors.reshape(attempts, k, dim), int(first)


def _draw_chunk(
    draws: _Draws, space: SpaceDescriptor, attempts: int, singular_fraction: float
) -> np.ndarray:
    """Up to ``attempts`` attempts as one (attempts, k, dim) int64 array:
    all of them or, when ``_build`` finds a rejected coordinate draw,
    those before its attempt and that attempt drawn by ``_draw_attempt``."""
    k, dim, family = space.rank, space.coord_dim, space.rootsys.family
    draws.trim()
    start = draws.pos, draws.carry
    decided = _decide(draws, attempts, k, dim, family, singular_fraction)
    coweights = _integer_coweights(space.rootsys)
    vectors, first = _build(draws, attempts, k, dim, family, np.array(coweights), decided)
    if first < attempts:
        draws.pos, draws.carry = start
        _decide(draws, first, k, dim, family, singular_fraction)  # to the start of attempt first
        redrawn = _draw_attempt(draws, k, dim, family, coweights, singular_fraction)
        vectors = np.concatenate((vectors[:first], np.array([redrawn], dtype=np.int64)))
    return vectors


def _spans_mod_p(attempts, k: int) -> np.ndarray:
    """Per attempt of k integer vectors, True when they are independent mod p.

    ``attempts`` is an (attempts, k, dim) int64 array or nested lists.
    Fraction-free elimination row by row, for the whole batch at once:
    row i's first nonzero entry is its pivot and clears that column from
    the rows below it.  A row that is zero by its turn depends on the
    rows above it, mod p.  A k x k minor that is nonzero mod p is
    nonzero over the integers, so True proves rank k; False may be an
    accident of the modulus and must be decided exactly.
    """
    work = np.asarray(attempts, dtype=np.int64) % _P
    batch = np.arange(len(work))
    spans = np.ones(len(work), dtype=bool)
    for i in range(k):
        row = work[:, i, :]
        nonzero = row != 0
        spans &= nonzero.any(axis=1)
        if i + 1 == k:
            break
        col = nonzero.argmax(axis=1)
        lead = row[batch, col][:, None, None]
        below = work[:, i + 1 :, :]
        factor = below[batch, :, col][:, :, None]
        work[:, i + 1 :, :] = (lead * below - factor * row[:, None, :]) % _P
    return spans


def random_frames(
    space: SpaceDescriptor,
    count: int,
    seed: int,
    *,
    singular_fraction: float = 0.5,
    max_attempts: int = 200,
) -> list[FrameSpec]:
    """Deterministic spanning frames, a share of them snapped onto faces.

    Each frame is the next attempt that spans; ``max_attempts`` rejected
    attempts in a row raise ``RuntimeError``.  The draws of an attempt do
    not depend on earlier verdicts, so attempts are drawn in chunks
    (``_draw_chunk``) and tested for spanning together: mod p first,
    then exactly for the attempts that look rank deficient mod p.
    ``count`` and ``max_attempts`` are integers of at least 1, ``seed``
    a nonnegative integer and ``singular_fraction`` a real number in
    [0, 1], not a bool, all checked before any draw.
    """
    count = as_int(count, "frame count", 1)
    seed = as_int(seed, "seed", 0)
    max_attempts = as_int(max_attempts, "max_attempts", 1)
    if isinstance(singular_fraction, bool) or not (
        isinstance(singular_fraction, numbers.Real) and 0 <= singular_fraction <= 1
    ):
        raise InvalidParamsError(f"singular_fraction must lie in [0, 1], got {singular_fraction!r}")
    draws = _Draws(seed)
    frames: list[FrameSpec] = []
    k = space.rank
    rejected = 0
    while len(frames) < count:
        need = count - len(frames)
        attempts = _draw_chunk(draws, space, min(_CHUNK, need + need // 8 + 4), singular_fraction)
        for vectors, spans in zip(attempts.tolist(), _spans_mod_p(attempts, k).tolist()):
            if rejected >= max_attempts:
                raise RuntimeError(f"could not sample a spanning frame for {space.name}")
            if spans or integer_rank(vectors) == k:
                vecs = tuple(map(tuple, vectors))
                frame = FrameSpec(vecs, space, True)
                frame.__dict__["integer_vectors"] = vecs  # drawn as ints
                frames.append(frame)
                rejected = 0
                if len(frames) == count:
                    break
            else:
                rejected += 1
    return frames


# ---------------------------------------------------------------------------
# Frame files: JSON array of arrays of rational strings.

# An entry's text that is a plain integer or integer ratio in ASCII
# digits; Fraction(text) would build the same value from the same int()
# parts, after a longer regex.  Every other text goes to Fraction(text),
# which defines the accepted grammar.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# Fraction's grammar for a decimal with an exponent: the whole digits,
# the fraction digits and the exponent, each with optional underscores.
_EXPONENT_FORM = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
    r"[eE]([-+]?\d+(?:_\d+)*)\s*"
)


def _check_exponent(text: str, whole: str, fraction: str, exponent: str) -> None:
    """Reject an exponent form whose value, written out by moving the
    decimal point, has more digits than ``int()`` accepts: the numerator
    when the exponent moves the point past the fraction digits, else the
    denominator, a power of ten with one digit more than the places left
    after the point.  Without this check ``Fraction`` builds
    ``10**exponent`` first, whatever its size.
    """
    # 0 means no limit, as on Pythons before 3.10.7, which have none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    shift = int(exponent)
    places = len(fraction.replace("_", ""))
    written = len(whole.replace("_", "")) + shift if shift > places else 1 + places - shift
    if written > limit:
        raise ValueError(
            f"{text!r} written out has {written} digits, past the {limit}-digit limit of int()"
        )


def _rational(text: str) -> Fraction:
    plain = _PLAIN_RATIONAL.fullmatch(text)
    if plain is None:
        exponent = _EXPONENT_FORM.fullmatch(text)
        if exponent is not None:
            _check_exponent(text, *(part or "" for part in exponent.groups()))
        return Fraction(text)
    num, den = plain.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def parse_frame_vectors(text: str) -> list[tuple[Fraction, ...]]:
    """The vectors of a frame file, each entry read as
    ``Fraction(str(entry))`` after the exponent cap of ``_check_exponent``.
    Each distinct entry text is read once per call: wall frames repeat a
    few texts such as ``-1/4`` in every row.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:  # also numbers past int's digit limit
        raise FrameFileError(f"frame file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FrameFileError("frame file nests arrays or objects too deeply to read") from exc
    if not isinstance(data, list) or not data:
        raise FrameFileError("frame file must be a nonempty JSON array of vectors")
    values: dict[str, Fraction] = {}  # entry text -> its value
    vectors = []
    for row in data:
        if not isinstance(row, list):
            raise FrameFileError("each frame vector must be a JSON array")
        vector = []
        for entry in row:
            key = str(entry)
            value = values.get(key)
            if value is None:
                try:
                    value = values[key] = _rational(key)
                except (ValueError, ZeroDivisionError) as exc:
                    raise FrameFileError(f"bad rational entry in frame file: {exc}") from exc
            vector.append(value)
        vectors.append(tuple(vector))
    return vectors


def load_frame(path: str, space: SpaceDescriptor) -> FrameSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FrameFileError(f"cannot read frame file {path!r}: {exc}") from exc
    vectors = parse_frame_vectors(text)
    try:
        return make_frame(space, vectors)
    except RootmatchError as exc:  # make_frame raises only validation errors
        raise FrameFileError(f"bad frame in {path!r}: {exc}") from exc
