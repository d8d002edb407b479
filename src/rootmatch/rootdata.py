"""Restricted root systems with multiplicities and the space catalogue.

Roots are stored as exact integer coordinate vectors on the flat.  For
the A family the flat is the trace-zero hyperplane of R^(rank+1), so
coordinates there have length rank+1; for B/C/D/BC they have length
rank.  All dimension bookkeeping is validated against independently
entered dimension formulas, so a transcription error in either source
fails loudly at construction time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NotInFlatError,
    UnknownFamilyError,
    UnknownSpaceError,
    ZeroVectorError,
)
from .exact import Rat, integer_row

FAMILIES = ("A", "B", "C", "D", "BC")

KTYPE_SO = "so_n_plus_1"
KTYPE_SO_PAIR = "so_n_x_so_n_plus_r"
KTYPE_OTHER = "other"


@dataclass(frozen=True)
class Root:
    """A positive restricted root: integer coordinates plus multiplicity."""

    coords: tuple[int, ...]
    multiplicity: int

    def __post_init__(self):
        if not any(self.coords):
            raise InvalidParamsError("root coordinates must be nonzero")
        if self.multiplicity < 1:
            raise InvalidParamsError("root multiplicity must be >= 1")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c)


def _sort_key(coords: tuple[int, ...]):
    # Orders e1-e2 < e1-e3 < ... < e2-e3 < ..., i.e. by nonzero positions.
    return (tuple(i for i, c in enumerate(coords) if c), coords)


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    positives: tuple[Root, ...]

    @property
    def coord_dim(self) -> int:
        return len(self.positives[0].coords)

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.positives)

    # Selection-matrix layout, computed on first use and kept on the
    # instance: one column per multiplicity slot, roots in order.

    @functools.cached_property
    def column_labels(self) -> tuple[tuple[Root, int], ...]:
        return tuple(
            (root, slot) for root in self.positives for slot in range(1, root.multiplicity + 1)
        )

    @functools.cached_property
    def zero_masks(self) -> tuple[tuple, tuple, tuple[int, ...]]:
        """Column masks of the roots that vanish on a coordinate equality.

        Every positive root is c(e_i - e_j), c(e_i + e_j) or c e_i, which
        vanish exactly when v_i = v_j, v_i = -v_j or v_i = 0.  Returns
        ``(minus, plus, axis)``: ``minus[i][j]`` and ``plus[i][j]`` (both
        symmetric) are the masks of the roots of the first two forms on
        coordinates i and j, ``axis[i]`` that of the roots on coordinate i.
        """
        dim = self.coord_dim
        minus = [[0] * dim for _ in range(dim)]
        plus = [[0] * dim for _ in range(dim)]
        axis = [0] * dim
        start = 0  # first column of the root
        for root in self.positives:
            mask = ((1 << root.multiplicity) - 1) << start
            start += root.multiplicity
            c, support = root.coords, root.support
            if len(support) == 1:
                axis[support[0]] |= mask
            elif len(support) == 2 and abs(c[support[0]]) == abs(c[support[1]]):
                i, j = support
                table = minus if c[i] == -c[j] else plus
                table[i][j] |= mask
                table[j][i] |= mask
            else:
                raise InvalidParamsError(f"root {c} is not c(e_i - e_j), c(e_i + e_j) or c e_i")
        return tuple(map(tuple, minus)), tuple(map(tuple, plus)), tuple(axis)

    def row_masks(self, rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """For each integer row, the mask of the columns whose root does
        not vanish on it: the one test of root vanishing.

        Every root vanishes exactly on one coordinate equality (v_i = v_j,
        v_i = -v_j or v_i = 0), so a mask is the full mask less the
        ``zero_masks`` of the equalities the row meets.  The A family has
        only roots of the first form, found by grouping the coordinates
        by value; the others group them by absolute value, and a zero
        coordinate also meets its axis roots.  Each bit stands for one
        multiplicity slot, so a mask's ``bit_count()`` is the total
        multiplicity of the roots that do not vanish.
        """
        minus, plus, axis = self.zero_masks
        full = (1 << len(self.column_labels)) - 1
        masks = []
        if self.family == "A":
            for row in rows:
                at: dict[int, list[int]] = {}  # coordinate value -> indices so far
                vanishing = 0
                for i, x in enumerate(row):
                    equal = at.get(x)
                    if equal is None:
                        at[x] = [i]
                    else:
                        minus_i = minus[i]
                        for j in equal:
                            vanishing |= minus_i[j]
                        equal.append(i)
                masks.append(full ^ vanishing)
            return tuple(masks)
        for row in rows:
            at = {}  # absolute value -> indices so far
            vanishing = 0
            for i, x in enumerate(row):
                if not x:
                    vanishing |= axis[i]
                size = -x if x < 0 else x
                group = at.get(size)
                if group is None:
                    at[size] = [i]
                    continue
                minus_i, plus_i = minus[i], plus[i]
                for j in group:
                    # v_j is x or -x, and both when x is 0
                    if row[j] == x:
                        vanishing |= minus_i[j]
                    if row[j] == -x:
                        vanishing |= plus_i[j]
                group.append(i)
            masks.append(full ^ vanishing)
        return tuple(masks)


def _unit(dim: int, i: int, value: int = 1) -> list[int]:
    v = [0] * dim
    v[i] = value
    return v


def build_root_system(
    family: str,
    rank: int,
    *,
    short_mult: int = 1,
    p: int | None = None,
    q: int | None = None,
) -> RootSystem:
    """Construct the complete positive system of a classical family.

    ``short_mult`` is the multiplicity of the short roots e_i (B family);
    ``p``, ``q`` select the SU(p,q) multiplicities for the BC family.
    Either set for another family is an ``InvalidParamsError``.
    """
    if family not in FAMILIES:
        raise UnknownFamilyError(f"unknown family {family!r}")
    if rank < 1:
        raise InvalidParamsError("rank must be >= 1")
    if family == "D" and rank < 2:
        raise InvalidParamsError("D family needs rank >= 2")
    if family != "B" and short_mult != 1:
        raise InvalidParamsError("short_mult applies to the B family only")
    if short_mult < 1:
        raise InvalidParamsError("short_mult must be >= 1")
    if family != "BC" and (p is not None or q is not None):
        raise InvalidParamsError("p and q apply to the BC family only")
    if family == "BC":  # realized by SU(p,q)
        if p is None or q is None:
            raise InvalidParamsError("BC family needs p and q")
        if not (p >= q >= 1):
            raise InvalidParamsError("BC family needs p >= q >= 1")
        if rank != q:
            raise InvalidParamsError("BC rank must equal q")
        pair, short, double = 2, 2 * (p - q), 1
    else:
        # multiplicities of e_i - e_j and e_i + e_j, of e_i and of 2e_i (0: no root)
        pair, short, double = {
            "A": (1, 0, 0), "B": (1, short_mult, 0), "C": (1, 0, 1), "D": (1, 0, 0)
        }[family]

    # the A flat is the trace-zero hyperplane of R^(rank+1), with no e_i + e_j
    dim = rank + 1 if family == "A" else rank
    signs = (-1,) if family == "A" else (-1, 1)
    roots: list[Root] = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for sign in signs:
                coords = _unit(dim, i)
                coords[j] = sign
                roots.append(Root(tuple(coords), pair))
        for value, mult in ((1, short), (2, double)):
            if mult:
                roots.append(Root(tuple(_unit(dim, i, value)), mult))

    roots.sort(key=lambda r: _sort_key(r.coords))
    if len({r.coords for r in roots}) != len(roots):
        raise InvalidParamsError("duplicate root coordinates")
    return RootSystem(family, rank, tuple(roots))


def flat_row(v: Sequence[Rat], dim: int, traceless: bool) -> Sequence[int]:
    """The checks on one vector of the flat, shared by every layer that
    takes one; returns the integer row on the same ray.

    In order: the length is ``dim``; the entries are read by
    ``exact.integer_row`` (ints as they are, anything else through
    ``Fraction(x)``; an entry that is no rational number, such as nan,
    inf, None, ``"1/0"`` or a bool, raises ``NotInFlatError``); the vector is
    nonzero; and, when ``traceless`` (A family), its coordinates sum to
    zero.  A vector of ints is returned as it is, any other as a tuple.
    """
    if len(v) != dim:
        raise DimensionMismatchError(f"vector length {len(v)} != coordinate dimension {dim}")
    types = set(map(type, v))
    if bool in types:
        raise NotInFlatError("entry is a bool, not a rational number")
    try:
        row = v if types <= {int} else tuple(integer_row(v))
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise NotInFlatError(f"entry is not a rational number: {exc}") from exc
    if not any(row):
        raise ZeroVectorError("need a nonzero vector in the flat")
    if traceless and sum(row):
        raise NotInFlatError("A-family flat vectors must have zero coordinate sum")
    return row


@dataclass(frozen=True)
class SpaceDescriptor:
    """One catalogued symmetric space with exact dimension data."""

    name: str
    rank: int
    rootsys: RootSystem
    dim_x: int
    dim_k: int
    dim_m: int
    ktype: str
    excluded: bool
    params: tuple[tuple[str, int], ...]

    @property
    def columns(self) -> int:
        """Number of selection-matrix columns: dim X - rank."""
        return self.dim_x - self.rank

    @property
    def coord_dim(self) -> int:
        return self.rootsys.coord_dim

    def param(self, key: str) -> int:
        return dict(self.params)[key]


def dimension_errors(space: SpaceDescriptor) -> list[str]:
    """The dimension identities and column bound that ``space`` breaks, one message each."""
    name = space.name
    total = space.rootsys.total_multiplicity
    bound = space.rank * (space.rank + 1) // 2
    errors = []
    if space.dim_x != space.rank + total:
        errors.append(f"{name}: dim X != rank + sum of multiplicities")
    if space.dim_k != space.dim_m + total:
        errors.append(f"{name}: dim K != dim M + sum of multiplicities")
    if space.columns < bound:
        errors.append(f"{name}: column count below n(n+1)/2")
    if (space.columns == bound) != name.startswith("SL("):
        errors.append(f"{name}: column-count equality must single out SL(n+1,R)")
    return errors


def _descriptor(name, rootsys, dim_x, dim_k, dim_m, ktype, excluded, params):
    space = SpaceDescriptor(
        name=name,
        rank=rootsys.rank,
        rootsys=rootsys,
        dim_x=dim_x,
        dim_k=dim_k,
        dim_m=dim_m,
        ktype=ktype,
        excluded=excluded,
        params=tuple(sorted(params.items())),
    )
    errors = dimension_errors(space)
    if errors:
        raise RuntimeError("; ".join(errors))
    return space


# Catalogue extent.  Ranks are capped at 8 (the verification sweep range)
# and SU at p <= 6.  SO(2,2) and SO(3,3) are deliberately absent: the
# former splits into rank-one factors, the latter is SL(4,R) in disguise
# and would break the column-count equality marker.
_MAX_RANK = 8
_MAX_SU_P = 6


@functools.lru_cache(maxsize=1)
def catalogue() -> tuple[SpaceDescriptor, ...]:
    """All catalogued spaces, each validated by its dimension identities."""
    spaces: list[SpaceDescriptor] = []

    for n in range(2, _MAX_RANK + 1):
        m = n + 1
        spaces.append(
            _descriptor(
                f"SL({m},R)",
                build_root_system("A", n),
                dim_x=(m - 1) * (m + 2) // 2,
                dim_k=m * (m - 1) // 2,
                dim_m=0,
                ktype=KTYPE_SO,
                excluded=(m == 3),
                params={"m": m},
            )
        )

    for r in range(0, 4):
        start = 4 if r == 0 else 2
        for n in range(start, _MAX_RANK + 1):
            rootsys = (
                build_root_system("D", n)
                if r == 0
                else build_root_system("B", n, short_mult=r)
            )
            dim_so = lambda k: k * (k - 1) // 2
            spaces.append(
                _descriptor(
                    f"SO({n},{n + r})",
                    rootsys,
                    dim_x=dim_so(2 * n + r) - dim_so(n) - dim_so(n + r),
                    dim_k=dim_so(n) + dim_so(n + r),
                    dim_m=dim_so(r),
                    ktype=KTYPE_SO_PAIR,
                    excluded=False,
                    params={"n": n, "r": r},
                )
            )

    for n in range(2, _MAX_RANK + 1):
        spaces.append(
            _descriptor(
                f"Sp({2 * n},R)",
                build_root_system("C", n),
                dim_x=n * (n + 1),
                dim_k=n * n,
                dim_m=0,
                ktype=KTYPE_OTHER,
                excluded=False,
                params={"n": n},
            )
        )

    for qq in range(2, _MAX_SU_P + 1):
        for pp in range(qq, _MAX_SU_P + 1):
            spaces.append(
                _descriptor(
                    f"SU({pp},{qq})",
                    build_root_system("BC", qq, p=pp, q=qq),
                    dim_x=2 * pp * qq,
                    dim_k=pp * pp + qq * qq - 1,
                    dim_m=(pp - qq) ** 2 + qq - 1,
                    ktype=KTYPE_OTHER,
                    excluded=False,
                    params={"p": pp, "q": qq},
                )
            )

    return tuple(spaces)


@functools.lru_cache(maxsize=1)
def _space_map() -> Mapping[str, SpaceDescriptor]:
    return {s.name: s for s in catalogue()}


def space(name: str) -> SpaceDescriptor:
    """Look a space up by its catalogue name, e.g. ``"SL(4,R)"``."""
    try:
        return _space_map()[name]
    except KeyError:
        raise UnknownSpaceError(f"unknown space {name!r}") from None
