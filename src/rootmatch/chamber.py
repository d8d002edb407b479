"""Weyl-chamber faces, stabilizer codimensions, and codimension bounds.

A face class is indexed by a subset S of the simple roots; its vanishing
set is the set of positive roots lying in span(S), and its codimension
is the total multiplicity of the surviving roots.  Its witness is the
sum of the fundamental coweights outside S, and both are read from the
witness's ``RootSystem.row_masks`` mask, as is the codimension of any
flat vector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ExcludedSpaceError
from .exact import Rat, integer_inverse, primitive_integer
from .rootdata import (
    KTYPE_SO,
    KTYPE_SO_PAIR,
    Root,
    RootSystem,
    SpaceDescriptor,
    flat_row,
)


def simple_system(rootsys: RootSystem) -> tuple[Root, ...]:
    """The simple roots: positives that are not a sum of two positives.

    Which positives they are depends only on the roots' coordinates, not
    on their multiplicities, so spaces that share the coordinates share
    one derivation (``_simple_positions``); each gets its own ``Root``
    objects back.
    """
    positives = rootsys.positives
    positions = _simple_positions(tuple(r.coords for r in positives))
    if len(positions) != rootsys.rank:
        raise RuntimeError("simple system size must equal the rank")
    return tuple(positives[p] for p in positions)


@functools.lru_cache(maxsize=None)
def _simple_positions(coords: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The positions in ``coords`` of the roots that are not a sum of two."""
    coord_set = set(coords)
    positions = []
    for p, root in enumerate(coords):
        for other in coords:
            rest = tuple(a - b for a, b in zip(root, other))
            if any(rest) and rest in coord_set:
                break  # decomposable
        else:
            positions.append(p)
    return tuple(positions)


def fundamental_coweights(rootsys: RootSystem) -> tuple[tuple[Fraction, ...], ...]:
    """Exact dual basis to the simple roots inside the flat, as
    ``Fraction(x, det)`` of the rows of ``integer_coweights``: one integer
    inverse per set of simple roots' coordinates, and no rational solve."""
    rows, det = integer_coweights(rootsys)
    return tuple(tuple(Fraction(x, det) for x in row) for row in rows)


def integer_coweights(rootsys: RootSystem) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(rows, det)``: row i is ``det`` times fundamental coweight i, an
    integer vector on the same ray, and ``det > 0``.

    For the A family the flat is the trace-zero hyperplane, so the
    defining matrix carries the extra trace row.  One integer inverse
    gives every coweight, once per set of simple roots' coordinates
    (``_coweights``), which multiplicities do not change.
    """
    simples = tuple(s.coords for s in simple_system(rootsys))
    return _coweights(simples, rootsys.family == "A")


@functools.lru_cache(maxsize=None)
def _coweights(
    simples: tuple[tuple[int, ...], ...], traceless: bool
) -> tuple[tuple[tuple[int, ...], ...], int]:
    rows = [list(s) for s in simples]
    if traceless:
        rows.append([1] * len(simples[0]))
    adj, det = integer_inverse(rows)
    # coweight i solves rows @ w = e_i, so det * w is column i of adj
    return tuple(zip(*adj))[: len(simples)], det


@dataclass(frozen=True)
class FaceClass:
    """One chamber face: vanishing simple subset, roots killed, witness."""

    simple_subset: tuple[int, ...]
    vanishing: tuple[Root, ...]
    codim: int
    witness: tuple[int, ...]

    @property
    def vanishing_count(self) -> int:
        return len(self.vanishing)


def enumerate_faces(space: SpaceDescriptor) -> list[FaceClass]:
    """All 2^rank face classes of one fixed simple system.

    The empty subset is the regular class; the full subset is the zero
    face (its witness is the zero vector).
    """
    rootsys = space.rootsys
    # integer vectors on the rays of the coweights, all scaled by one
    # det > 0, so sums of them keep the rays of the rational sums
    coweights, _det = integer_coweights(rootsys)
    rank = rootsys.rank
    sums = []
    for smask in range(1 << rank):
        acc = [0] * rootsys.coord_dim
        for i in range(rank):
            if not smask >> i & 1:
                acc = [a + x for a, x in zip(acc, coweights[i])]
        sums.append(acc)
    # the witness of S sums the coweights outside S and a positive root
    # has nonnegative simple coefficients, so a root vanishes on it
    # exactly when it lies in span(S)
    first_columns = [c for c, (_root, slot) in enumerate(rootsys.column_labels) if slot == 1]
    faces = []
    for smask, (acc, mask) in enumerate(zip(sums, rootsys.row_masks(sums))):
        faces.append(
            FaceClass(
                simple_subset=tuple(i for i in range(rank) if smask >> i & 1),
                vanishing=tuple(
                    root
                    for root, c in zip(rootsys.positives, first_columns)
                    if not mask >> c & 1
                ),
                codim=mask.bit_count(),
                witness=primitive_integer(acc),
            )
        )
    return faces


def stabilizer_codim(space: SpaceDescriptor, v: list[Rat] | tuple[Rat, ...]) -> int:
    """Total multiplicity of the positive roots not vanishing on ``v``.

    This equals dim K - dim K_v for the stabilizer K_v of the vector.
    ``v`` is checked by ``rootdata.flat_row``.
    """
    row = flat_row(v, space.coord_dim, space.rootsys.family == "A")
    return space.rootsys.row_masks([row])[0].bit_count()


@dataclass(frozen=True)
class FaceBound:
    simple_subset: tuple[int, ...]
    vanishing_count: int
    codim: int
    bound: int
    ok: bool
    attains_rank: bool


@dataclass(frozen=True)
class BoundReport:
    space: str
    ktype: str
    rank: int
    entries: tuple[FaceBound, ...]
    passed: bool
    min_codim: int | None

    @property
    def faces_at_rank(self) -> tuple[FaceBound, ...]:
        return tuple(e for e in self.entries if e.attains_rank)


def verify_codim_bounds(space: SpaceDescriptor) -> BoundReport:
    """Check the stabilizer codimension bound on every singular face.

    Faces with a zero witness (all simple roots vanishing) are skipped:
    their stabilizer is all of K, not the stabilizer of a nonzero
    vector.  The bound depends on the type of K: for SO(n+1) each
    codimension is either >= 2n-2 or exactly n; for SO(n) x SO(n+r) it
    is >= 2n-2+r; otherwise >= 2n-1.
    """
    if space.excluded:
        raise ExcludedSpaceError(f"{space.name} is excluded from the bound check")
    if space.rank < 2:
        raise ValueError("bound check needs rank >= 2")
    n = space.rank
    if space.ktype == KTYPE_SO_PAIR:
        bound = 2 * n - 2 + space.param("r")
    elif space.ktype == KTYPE_SO:
        bound = 2 * n - 2
    else:
        bound = 2 * n - 1

    entries = []
    full = tuple(range(n))
    for face in enumerate_faces(space):
        if not face.simple_subset or face.simple_subset == full:
            continue
        d = face.codim
        if space.ktype == KTYPE_SO:
            ok = d >= bound or d == n
        else:
            ok = d >= bound
        entries.append(
            FaceBound(
                simple_subset=face.simple_subset,
                vanishing_count=face.vanishing_count,
                codim=d,
                bound=bound,
                ok=ok,
                attains_rank=(d == n),
            )
        )
    codims = [e.codim for e in entries]
    return BoundReport(
        space=space.name,
        ktype=space.ktype,
        rank=n,
        entries=tuple(entries),
        passed=all(e.ok for e in entries),
        min_codim=min(codims) if codims else None,
    )
