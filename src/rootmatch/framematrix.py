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
from dataclasses import InitVar, dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyFrameError,
    ExcludedSpaceError,
    FrameFileError,
    InvalidParamsError,
    MalformedMatrixError,
    NotInFlatError,
    RootmatchError,
    ZeroVectorError,
)
from .exact import Rat, exact_rank, integer_rows
from .rootdata import (
    KTYPE_SO,
    Root,
    RootSystem,
    SpaceDescriptor,
    evaluate_root,
    is_traceless,
)

Vector = tuple[Rat, ...]


@dataclass(frozen=True)
class FrameSpec:
    """A frame of k <= rank exact vectors in the flat of a space."""

    vectors: tuple[Vector, ...]
    space: SpaceDescriptor
    spanning: bool


def make_frame(space: SpaceDescriptor, vectors: Iterable[Sequence[Rat]]) -> FrameSpec:
    vecs = tuple(tuple(v) for v in vectors)
    if not vecs:
        raise EmptyFrameError("a frame needs at least one vector")
    if len(vecs) > space.rank:
        raise InvalidParamsError(
            f"frame has {len(vecs)} vectors but the rank is {space.rank}"
        )
    for v in vecs:
        if len(v) != space.coord_dim:
            raise DimensionMismatchError(
                f"frame vector length {len(v)} != coordinate dimension {space.coord_dim}"
            )
        if not any(Fraction(x) != 0 for x in v):
            raise ZeroVectorError("frame vectors must be nonzero")
        if space.rootsys.family == "A" and not is_traceless(v):
            raise NotInFlatError("A-family frame vectors must have zero coordinate sum")
    spanning = exact_rank(vecs) == min(len(vecs), space.rank)
    return FrameSpec(vectors=vecs, space=space, spanning=spanning)


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
    row_labels: tuple[int, ...]
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
            row_labels=tuple(range(len(masks))),
        )

    @property
    def row_weights(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.masks)


def build_matrix(frame: FrameSpec) -> SelectionMatrix:
    """Build the selection matrix of a frame.

    Each frame vector is first scaled to an integer vector on the same
    ray, which keeps every root's zero pattern.  Entries below 2**60 go
    through one int64 product with the root coordinates; larger ones
    fall back to exact per-root evaluation.  A row is the sum of the
    column masks of the roots that do not vanish on it (the masks are
    disjoint, so the sum is their union).
    """
    space = frame.space
    rootsys = space.rootsys
    vectors = integer_rows(frame.vectors)
    root_masks = rootsys.column_masks
    labels = rootsys.column_labels
    # products of a root (entries <= 2, two terms) with a vector must
    # stay inside int64 for the vectorized path to be exact
    if max(abs(x) for v in vectors for x in v) < 2**60:
        values = (np.array(vectors, dtype=np.int64) @ rootsys.coords_t).tolist()
    else:
        values = [[evaluate_root(root, v) for root in rootsys.positives] for v in vectors]
    return SelectionMatrix(
        space=space,
        rows=len(vectors),
        cols=len(labels),
        masks=tuple(sum(compress(root_masks, row)) for row in values),
        col_labels=labels,
        row_labels=tuple(range(len(vectors))),
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


@functools.lru_cache(maxsize=None)
def _integer_coweights(rootsys: RootSystem) -> tuple[tuple[int, ...], ...]:
    from .chamber import fundamental_coweights
    from .exact import primitive_integer

    return tuple(primitive_integer(w) for w in fundamental_coweights(rootsys))


def _detrace(v: list[int], dim: int) -> list[int]:
    s = sum(v)
    return [dim * x - s for x in v]


def _random_vector(dim: int, family: str, rng: np.random.Generator) -> list[int]:
    while True:
        v = rng.integers(-9, 10, size=dim).tolist()
        if rng.random() < 0.3 and dim >= 2:
            # Deliberately collide coordinates to land on or near walls.
            i, j = rng.choice(dim, size=2, replace=False)
            choice = rng.random()
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
    rank: int, dim: int, coweights: Sequence[Sequence[int]], rng: np.random.Generator
) -> list[int]:
    while True:
        smask = int(rng.integers(1, 1 << rank))  # nonempty, proper after filter
        outside = [i for i in range(rank) if not smask >> i & 1]
        if not outside:
            continue
        v = [0] * dim
        for i in outside:
            c = int(rng.integers(1, 5))
            for k, x in enumerate(coweights[i]):
                v[k] += c * x
        if any(v):
            return v


def random_frames(
    space: SpaceDescriptor,
    count: int,
    seed: int,
    *,
    singular_fraction: float = 0.5,
    max_attempts: int = 200,
) -> list[FrameSpec]:
    """Deterministic spanning frames, a share of them snapped onto faces."""
    rng = np.random.default_rng(seed)
    frames = []
    k = space.rank
    dim = space.coord_dim
    family = space.rootsys.family
    coweights = _integer_coweights(space.rootsys)
    for _ in range(count):
        for _attempt in range(max_attempts):
            n_singular = 0
            if rng.random() < singular_fraction:
                n_singular = int(rng.integers(1, k + 1))
            vectors = [_random_face_vector(k, dim, coweights, rng) for _ in range(n_singular)]
            vectors += [_random_vector(dim, family, rng) for _ in range(k - n_singular)]
            if exact_rank(vectors) == k:
                frames.append(
                    FrameSpec(
                        vectors=tuple(tuple(v) for v in vectors),
                        space=space,
                        spanning=True,
                    )
                )
                break
        else:
            raise RuntimeError(f"could not sample a spanning frame for {space.name}")
    return frames


# ---------------------------------------------------------------------------
# Frame files: JSON array of arrays of rational strings.


def parse_frame_vectors(text: str) -> list[tuple[Fraction, ...]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrameFileError(f"frame file is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise FrameFileError("frame file must be a nonempty JSON array of vectors")
    vectors = []
    for row in data:
        if not isinstance(row, list):
            raise FrameFileError("each frame vector must be a JSON array")
        try:
            vectors.append(tuple(Fraction(str(x)) for x in row))
        except (ValueError, ZeroDivisionError) as exc:
            raise FrameFileError(f"bad rational entry in frame file: {exc}") from exc
    return vectors


def load_frame(path: str, space: SpaceDescriptor) -> FrameSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FrameFileError(f"cannot read frame file {path!r}: {exc}") from exc
    vectors = parse_frame_vectors(text)
    try:
        return make_frame(space, vectors)
    except RootmatchError as exc:  # make_frame raises only validation errors
        raise FrameFileError(f"bad frame in {path!r}: {exc}") from exc
