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
from .exact import Rat, as_int, integer_rank
from .rootdata import KTYPE_SO, Root, RootSystem, SpaceDescriptor, flat_row

Vector = tuple[Rat, ...]


@dataclass(frozen=True)
class FrameSpec:
    """A frame of k <= rank exact vectors in the flat of a space.

    ``integer_vectors`` is each vector scaled to an integer vector on the
    same ray (``exact.integer_row``), the one form the checks and
    ``build_matrix`` read.  ``make_frame`` and ``random_frames`` fill it
    as they build the frame; a frame made any other way, such as by
    ``dataclasses.replace``, computes it on first read through
    ``rootdata.flat_row``, whose checks of each vector raise as they do
    in ``make_frame``.
    """

    vectors: tuple[Vector, ...]
    space: SpaceDescriptor
    spanning: bool

    @functools.cached_property
    def integer_vectors(self) -> tuple[tuple[int, ...], ...]:
        dim, traceless = self.space.coord_dim, self.space.rootsys.family == "A"
        return tuple(tuple(flat_row(v, dim, traceless)) for v in self.vectors)


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
    """0/1 incidence of frame vectors against the columns of ``space``,
    its ``rootsys.column_labels``: one per root multiplicity slot.

    Row i is the int ``masks[i]``: bit j is set when the entry in column
    j is 1.  ``masks`` is a tuple of at least one row, and each mask is an
    int (not a bool) in [0, 2**cols); hand-made rows can go in through
    ``entries``, which checks that they are 0/1 and of the matrix's shape.
    """

    space: SpaceDescriptor
    masks: tuple[int, ...]
    entries: InitVar[Optional[Sequence[Sequence[int]]]] = _Entries()

    def __post_init__(self, entries):
        if entries is not None:
            masks, width = masks_from_rows(entries)
            if len(masks) != self.rows or width != self.cols:
                raise MalformedMatrixError(f"entries are not {self.rows} x {self.cols}")
            object.__setattr__(self, "masks", masks)
            return
        masks = self.masks
        if type(masks) is not tuple:
            raise MalformedMatrixError(f"row masks must be a tuple, got {type(masks).__name__}")
        if not masks:
            raise MalformedMatrixError("matrix has no rows")
        full = (1 << self.cols) - 1
        for mask in masks:
            if type(mask) is not int or mask & full != mask:
                raise MalformedMatrixError(
                    f"row masks must be ints in [0, 2**{self.cols}), got {masks!r}"
                )

    @property
    def rows(self) -> int:
        return len(self.masks)

    @property
    def cols(self) -> int:
        return len(self.space.rootsys.column_labels)

    @property
    def col_labels(self) -> tuple[tuple[Root, int], ...]:
        return self.space.rootsys.column_labels

    @property
    def row_weights(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.masks)


def build_matrix(frame: FrameSpec) -> SelectionMatrix:
    """Build the selection matrix of a frame.

    Each frame vector is read as its integer vector on the same ray
    (``frame.integer_vectors``), which keeps every root's zero pattern,
    and its row is that vector's ``RootSystem.row_masks`` mask.
    """
    return SelectionMatrix(frame.space, frame.space.rootsys.row_masks(frame.integer_vectors))


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
    """The five properties of ``matrix``, judged for its own space, which
    ``space`` must be: another space is an ``InvalidParamsError``."""
    if space is not matrix.space and space != matrix.space:
        raise InvalidParamsError(f"a {matrix.space.name} matrix cannot be judged as {space.name}")
    if space.excluded:
        raise ExcludedSpaceError(f"{space.name} is excluded from property checks")
    n = space.rank
    masks = matrix.masks
    cols = matrix.cols
    witnesses: list[str] = []

    union = 0
    least = cols  # the least row weight
    for mask in masks:
        union |= mask
        weight = mask.bit_count()
        if weight < least:
            least = weight
    ok1 = union == (1 << cols) - 1
    if not ok1:
        empty_cols = [j for j in range(cols) if not union >> j & 1]
        witnesses.append(f"property 1: all-zero columns {empty_cols}")

    # the row lists of properties 2, 3 and 5, built only when a row is light
    weights = low = ()
    if least < n or least < 2 * n - 2:
        weights = [mask.bit_count() for mask in masks]
        low = [i for i, w in enumerate(weights) if w < 2 * n - 2]

    ok2 = least >= n
    if not ok2:
        light = [i for i, w in enumerate(weights) if w < n]
        witnesses.append(f"property 2: rows {light} have weight below {n}")

    ok3 = True
    if space.ktype != KTYPE_SO:
        ok3 = not low
        if not ok3:
            witnesses.append(f"property 3: rows {low} have weight below {2 * n - 2}")

    ok4 = True
    equal_pairs = []
    if len(set(masks)) < len(masks):
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                if masks[i] == masks[j]:
                    equal_pairs.append((i, j))
                    weight = masks[i].bit_count()
                    if weight < 2 * n - 1:
                        ok4 = False
                        witnesses.append(f"property 4: equal rows {(i, j)} have weight {weight}")

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
# Attempt a reads the raw words [a * W, (a + 1) * W) of
# ``np.random.PCG64(seed).random_raw`` (O'Neill 2014) as 32-bit halves,
# low half first.  An attempt uses H = 2 + k * (1 + k + dim + 4) halves,
# and W = ceil(H / 2) is fixed for each (k, dim), whatever the attempt
# draws.  The halves, in order:
#
# - the singular test, h < ceil(singular_fraction * 2**32), and
#   n_singular = 1 + (h * k >> 32) when it holds, else 0;
# - for each of the k slots: a face mask, 1 + (h * (2**k - 2) >> 32), one
#   of the proper nonempty masks; k coefficients, 1 + (h >> 30);
#   dim coordinates, -9 + (h * 19 >> 32); the collision test,
#   h < ceil(0.3 * 2**32); the pair i = h * dim >> 32 and
#   j = (i + 1 + (h' * (dim - 1) >> 32)) mod dim; and the choice of
#   v[j] = v[i], -v[i] or 0, below 1/2, below 8/10 or else of 2**32
#   (always v[i] for the A family).
#
# The first n_singular slots are face vectors: the sum, over the clear
# bits i of the mask, of coefficient i times integer coweight i.  The
# others are regular vectors: the coordinates with the collision, if
# any, applied and, for the A family, detraced.  A half h becomes a draw
# from range(n) by multiply-shift, h * n >> 32, with no rejection: each
# value has probability within 2**-32 of 1/n, a bias below n * 2**-32.
# A regular vector that comes out zero is not drawn again; its attempt
# does not span and is rejected like any other.  Since every attempt
# reads a fixed span of words, the chunking cannot change a corpus, and
# the frames for a count N are a prefix of those for any larger count.

_CHUNK = 128  # most attempts drawn and tested for spanning together
_P = 2**31 - 1  # prime modulus of the batched spanning test
# entries mod p are below 2**31, so lead * a - f * b stays exact in int64
# (tests/test_framematrix.py checks 2 * (p - 1)**2 < 2**63)


@functools.lru_cache(maxsize=None)
def _integer_coweights(rootsys: RootSystem) -> np.ndarray:
    """The fundamental coweights as primitive integer rows, a read-only
    (rank, dim) int64 array shared by every caller."""
    from .chamber import integer_coweights
    from .exact import primitive_integer

    rows = np.array([primitive_integer(w) for w in integer_coweights(rootsys)[0]], dtype=np.int64)
    rows.flags.writeable = False
    return rows


def _draw_attempts(
    bitgen: np.random.PCG64, space: SpaceDescriptor, attempts: int, singular_fraction: float
) -> np.ndarray:
    """The next ``attempts`` attempts of the word layout above, as one
    (attempts, k, dim) int64 array: the one reader of the stream."""
    k, dim = space.rank, space.coord_dim
    per_slot = 1 + k + dim + 4
    used = 2 + k * per_slot
    words = bitgen.random_raw(attempts * -(-used // 2))
    halves = words.astype("<u8", copy=False).view("<u4").reshape(attempts, -1)
    h = halves[:, :used].astype(np.int64)
    singular = h[:, 0] < math.ceil(singular_fraction * 2**32)
    n_singular = np.where(singular, 1 + (h[:, 1] * k >> 32), 0)
    h = h[:, 2:].reshape(attempts, k, per_slot)

    masks = 1 + (h[..., :1] * (2**k - 2) >> 32)
    coefficients = np.where(masks >> np.arange(k) & 1, 0, 1 + (h[..., 1 : 1 + k] >> 30))
    face = coefficients @ _integer_coweights(space.rootsys)

    regular = -9 + (h[..., 1 + k : 1 + k + dim] * 19 >> 32)
    collide, pick_i, pick_j, choice = h[..., -4:].transpose(2, 0, 1)
    a, s = np.nonzero(collide < (math.ceil(0.3 * 2**32) if dim >= 2 else 0))
    i = pick_i[a, s] * dim >> 32
    j = (i + 1 + (pick_j[a, s] * (dim - 1) >> 32)) % dim
    if space.rootsys.family == "A":
        regular[a, s, j] = regular[a, s, i]
        regular = dim * regular - regular.sum(axis=2, keepdims=True)
    else:
        c = choice[a, s]
        factor = np.where(c < 2**31, 1, np.where(c < math.ceil(0.8 * 2**32), -1, 0))
        regular[a, s, j] = factor * regular[a, s, i]
    is_face = np.arange(k) < n_singular[:, None]
    return np.where(is_face[..., None], face, regular)


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
    (``_draw_attempts``) and tested for spanning together: mod p first,
    then exactly for the attempts that look rank deficient mod p.
    ``count`` and ``max_attempts`` are integers of at least 1, ``seed``
    a nonnegative integer and ``singular_fraction`` a real number in
    [0, 1], not a bool, and 0 for a rank-1 space, which has no proper
    nonempty face mask; all are checked before any draw.
    """
    count = as_int(count, "frame count", 1)
    seed = as_int(seed, "seed", 0)
    max_attempts = as_int(max_attempts, "max_attempts", 1)
    if isinstance(singular_fraction, bool) or not (
        isinstance(singular_fraction, numbers.Real) and 0 <= singular_fraction <= 1
    ):
        raise InvalidParamsError(f"singular_fraction must lie in [0, 1], got {singular_fraction!r}")
    if singular_fraction > 0 and space.rank < 2:
        raise InvalidParamsError(
            f"{space.name} has rank 1 and no proper face: singular_fraction must be 0"
        )
    bitgen = np.random.PCG64(seed)
    frames: list[FrameSpec] = []
    k = space.rank
    rejected = 0
    while len(frames) < count:
        need = count - len(frames)
        size = min(_CHUNK, need + need // 8 + 4)
        attempts = _draw_attempts(bitgen, space, size, singular_fraction)
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
