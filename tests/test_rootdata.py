import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rootmatch.chamber import stabilizer_codim
from rootmatch.errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NotInFlatError,
    UnknownFamilyError,
    UnknownSpaceError,
    ZeroVectorError,
)
from rootmatch.framematrix import make_frame
from rootmatch.modelgeom import ModelSpace, pipeline_flat, q_subspace
from rootmatch.rootdata import (
    KTYPE_OTHER,
    KTYPE_SO,
    KTYPE_SO_PAIR,
    Root,
    RootSystem,
    build_root_system,
    catalogue,
    dimension_errors,
    flat_row,
    space,
)

from oracles import evaluate_root


def test_a3_positive_roots_enumeration():
    rs = build_root_system("A", 3)
    expected = set()
    for i, j in itertools.combinations(range(4), 2):
        v = [0, 0, 0, 0]
        v[i], v[j] = 1, -1
        expected.add(tuple(v))
    assert {r.coords for r in rs.positives} == expected
    assert len(rs.positives) == 6
    assert all(r.multiplicity == 1 for r in rs.positives)


def test_c2_positive_roots():
    rs = build_root_system("C", 2)
    assert {r.coords for r in rs.positives} == {(1, -1), (1, 1), (2, 0), (0, 2)}
    assert all(r.multiplicity == 1 for r in rs.positives)


def test_su31_bc_roots():
    rs = build_root_system("BC", 1, p=3, q=1)
    got = {(r.coords, r.multiplicity) for r in rs.positives}
    assert got == {((1,), 4), ((2,), 1)}
    # cross-check against dim SU(3,1)/S(U(3)xU(1)) = 6
    assert rs.rank + rs.total_multiplicity == 6


def test_b_family_short_multiplicity():
    rs = build_root_system("B", 3, short_mult=2)
    shorts = [r for r in rs.positives if sum(abs(c) for c in r.coords) == 1]
    assert len(shorts) == 3
    assert all(r.multiplicity == 2 for r in shorts)


def test_zero_masks_for_bc():
    # SU(4,2): columns of e1 (multiplicity 2(p - q) = 4), 2e1, e1 - e2 and
    # e1 + e2 (2 each), then e2 (4) and 2e2
    rs = space("SU(4,2)").rootsys
    assert [r.coords for r in rs.positives] == [(1, 0), (2, 0), (1, -1), (1, 1), (0, 1), (0, 2)]
    minus, plus, axis = rs.zero_masks
    assert minus == ((0, 0b11 << 5), (0b11 << 5, 0))
    assert plus == ((0, 0b11 << 7), (0b11 << 7, 0))
    assert axis == (0b11111, 0b11111 << 9)


def test_zero_masks_reject_other_roots():
    for coords in ((1, 2), (1, 1, -1)):
        rs = RootSystem("A", 1, (Root(coords, 1),))
        with pytest.raises(InvalidParamsError):
            rs.zero_masks


def test_family_and_param_errors():
    with pytest.raises(UnknownFamilyError):
        build_root_system("E", 8)
    with pytest.raises(InvalidParamsError):
        build_root_system("A", 0)
    with pytest.raises(InvalidParamsError):
        build_root_system("BC", 2, p=1, q=2)
    with pytest.raises(InvalidParamsError):
        build_root_system("BC", 3, p=4, q=2)  # rank != q
    with pytest.raises(InvalidParamsError):
        build_root_system("C", 2, short_mult=3)
    with pytest.raises(InvalidParamsError):
        Root((0, 0), 1)
    with pytest.raises(InvalidParamsError):
        Root((1, 0), 0)


@pytest.mark.parametrize(
    "family, rank, params",
    [
        ("A", 3, {"short_mult": 5}),
        ("A", 3, {"short_mult": 0}),
        ("BC", 2, {"p": 3, "q": 2, "short_mult": 5}),
        ("A", 3, {"p": 3, "q": 2}),
        ("C", 3, {"p": 3, "q": 2}),
    ],
    ids=["A-short_mult", "A-short_mult-0", "BC-short_mult", "A-p-q", "C-p-q"],
)
def test_parameters_of_another_family_are_refused(family, rank, params):
    # short_mult belongs to B and (p, q) to BC; elsewhere they are errors
    with pytest.raises(InvalidParamsError):
        build_root_system(family, rank, **params)


def test_evaluate_root_examples():
    a3 = build_root_system("A", 3)
    e12 = next(r for r in a3.positives if r.coords == (1, -1, 0, 0))
    e14 = next(r for r in a3.positives if r.coords == (1, 0, 0, -1))
    assert evaluate_root(e12, (1, 1, -1, -1)) == 0
    assert evaluate_root(e14, (1, 1, -1, -1)) == 2
    c2 = build_root_system("C", 2)
    long1 = next(r for r in c2.positives if r.coords == (2, 0))
    assert evaluate_root(long1, (Fraction(3, 2), 0)) == 3
    with pytest.raises(DimensionMismatchError):
        evaluate_root(e12, (1, 0, 0))


def test_catalogue_lookups():
    sl4 = space("SL(4,R)")
    assert (sl4.dim_x, sl4.dim_k, sl4.dim_m, sl4.rank) == (9, 6, 0, 3)
    sp4 = space("Sp(4,R)")
    assert (sp4.dim_x, sp4.dim_k, sp4.dim_m, sp4.rank) == (6, 4, 0, 2)
    su22 = space("SU(2,2)")
    assert (su22.dim_x, su22.dim_k, su22.dim_m, su22.rank) == (8, 7, 1, 2)
    with pytest.raises(UnknownSpaceError):
        space("SO(2,2)")
    with pytest.raises(UnknownSpaceError):
        space("E8")


def test_exclusion_marker():
    assert space("SL(3,R)").excluded
    assert sum(1 for s in catalogue() if s.excluded) == 1


def test_ktype_tags():
    assert space("SL(5,R)").ktype == KTYPE_SO
    assert space("SO(4,6)").ktype == KTYPE_SO_PAIR
    assert space("Sp(6,R)").ktype == KTYPE_OTHER
    assert space("SU(4,3)").ktype == KTYPE_OTHER


def test_catalogue_dimension_identities():
    for s in catalogue():
        total = s.rootsys.total_multiplicity
        assert s.dim_x == s.rank + total, s.name
        assert s.dim_k == s.dim_m + total, s.name


def test_column_bound_equality_only_for_sl():
    for s in catalogue():
        bound = s.rank * (s.rank + 1) // 2
        assert s.columns >= bound, s.name
        assert (s.columns == bound) == s.name.startswith("SL("), s.name


def test_dimension_errors_name_each_broken_identity():
    sl4 = space("SL(4,R)")
    assert dimension_errors(sl4) == []
    for broken, message in (
        (replace(sl4, dim_x=10), "SL(4,R): dim X != rank + sum of multiplicities"),
        (replace(sl4, dim_k=7), "SL(4,R): dim K != dim M + sum of multiplicities"),
        (replace(sl4, dim_x=8), "SL(4,R): column count below n(n+1)/2"),
        (
            replace(sl4, name="PGL(4,R)"),
            "PGL(4,R): column-count equality must single out SL(n+1,R)",
        ),
    ):
        assert message in dimension_errors(broken)


def test_catalogue_extent():
    names = {s.name for s in catalogue()}
    assert {"SL(3,R)", "SL(9,R)", "Sp(16,R)", "SO(8,11)", "SU(6,6)"} <= names
    for n, r in itertools.product(range(2, 9), range(4)):
        if (n, r) in ((2, 0), (3, 0)):
            assert f"SO({n},{n + r})" not in names
        else:
            assert f"SO({n},{n + r})" in names


def _signed_permutation_image(coords, perm, signs):
    return tuple(signs[j] * coords[perm[j]] for j in range(len(coords)))


def test_weyl_stability_sampled():
    rng = np.random.default_rng(7)
    for name in ("SL(5,R)", "SO(3,5)", "Sp(6,R)", "SU(4,2)", "SO(4,4)"):
        rs = space(name).rootsys
        pos = {r.coords for r in rs.positives}
        dim = rs.coord_dim
        for _ in range(20):
            perm = list(rng.permutation(dim))
            if rs.family == "A":
                signs = [1] * dim
            else:
                signs = [int(s) for s in rng.choice((-1, 1), size=dim)]
            image = {
                _signed_permutation_image(r.coords, perm, signs)
                for r in rs.positives
            }
            assert len(image) == len(pos)
            for w in image:
                neg = tuple(-x for x in w)
                assert w in pos or neg in pos


def test_flat_row_returns_the_integer_row_on_the_same_ray():
    ints = (1, 1, 1, -3)
    assert flat_row(ints, 4, traceless=True) is ints
    assert flat_row((Fraction(1, 2), "1/2", 0.5, np.int64(-3) / 2), 4, True) == ints
    assert flat_row([2, 0, 0], 3, traceless=False) == [2, 0, 0]


# Every layer that takes one vector of the SL(4,R) flat gives it one
# outcome: the checks of flat_row, in its order.
FLAT_VECTORS = [
    (("0", "0", "0", "0"), ZeroVectorError),
    ((1, 0, 0, 0), NotInFlatError),
    (("1", "1", "1", "-3"), None),
    ((1, -1, 0), DimensionMismatchError),
    # entries that are no rational number
    ((float("nan"), 1, 0, -1), NotInFlatError),
    ((float("inf"), 1, 0, -1), NotInFlatError),
    (("abc", 1, 0, -1), NotInFlatError),
    ((None, 1, 0, -1), NotInFlatError),
    (("1/0", 1, 0, -1), NotInFlatError),
    ((True, 1, 1, -3), NotInFlatError),
]


def _first_of_a_frame(v):
    return pipeline_flat(ModelSpace(4), [v, (-3, 1, 1, 1), (1, -1, 1, -1)])


@pytest.mark.parametrize(
    "entry",
    [
        lambda v: make_frame(space("SL(4,R)"), [v]),
        lambda v: q_subspace(ModelSpace(4), v),
        lambda v: stabilizer_codim(space("SL(4,R)"), v),
        _first_of_a_frame,
    ],
    ids=["make_frame", "q_subspace", "stabilizer_codim", "pipeline_flat"],
)
@pytest.mark.parametrize(
    "v, error",
    FLAT_VECTORS,
    ids=["zero", "off_flat", "strings", "short", "nan", "inf", "abc", "none", "one_over_zero", "bool"],
)
def test_every_layer_checks_a_flat_vector_the_same_way(entry, v, error):
    if error is None:
        entry(v)
    else:
        with pytest.raises(error):
            entry(v)
