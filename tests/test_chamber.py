import hashlib

import pytest

from rootmatch.chamber import (
    enumerate_faces,
    fundamental_coweights,
    integer_coweights,
    simple_system,
    stabilizer_codim,
    verify_codim_bounds,
)
from rootmatch.errors import ExcludedSpaceError, ZeroVectorError
from rootmatch.rootdata import catalogue, space

from oracles import evaluate_root


def _face(space_, subset):
    return next(
        f for f in enumerate_faces(space_) if f.simple_subset == tuple(subset)
    )


def test_simple_systems():
    assert [r.coords for r in simple_system(space("SL(4,R)").rootsys)] == [
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 0, 1, -1),
    ]
    assert [r.coords for r in simple_system(space("Sp(6,R)").rootsys)] == [
        (1, -1, 0),
        (0, 1, -1),
        (0, 0, 2),
    ]
    assert [r.coords for r in simple_system(space("SO(3,5)").rootsys)] == [
        (1, -1, 0),
        (0, 1, -1),
        (0, 0, 1),
    ]
    assert [r.coords for r in simple_system(space("SO(4,4)").rootsys)] == [
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 0, 1, -1),
        (0, 0, 1, 1),
    ]
    # SU(p,p) has no short roots; the last simple root is long
    assert [r.coords for r in simple_system(space("SU(2,2)").rootsys)] == [
        (1, -1),
        (0, 2),
    ]
    assert [r.coords for r in simple_system(space("SU(3,2)").rootsys)] == [
        (1, -1),
        (0, 1),
    ]


def test_coweights_are_dual_to_simples():
    for name in ("SL(5,R)", "SO(3,5)", "Sp(8,R)", "SU(4,3)", "SO(5,5)"):
        rs = space(name).rootsys
        simples = simple_system(rs)
        rows, det = integer_coweights(rs)
        assert det > 0 and all(type(x) is int for row in rows for x in row)
        for i, w in enumerate(fundamental_coweights(rs)):
            for j, s in enumerate(simples):
                value = evaluate_root(s, w)
                assert (value != 0) == (i == j)
            if rs.family == "A":
                assert sum(w) == 0


def test_derivations_are_shared_across_multiplicities():
    # SO(3,4) and SO(3,5) are B3 with short multiplicities 1 and 2, and
    # SU(4,3) has the same roots with other multiplicities plus 2e_i
    a, b, c = (space(name).rootsys for name in ("SO(3,4)", "SO(3,5)", "SU(4,3)"))
    assert a != b and [r.coords for r in a.positives] == [r.coords for r in b.positives]
    for rs in (a, b, c):
        simples = simple_system(rs)
        # each space gets its own roots, with its own multiplicities
        assert all(any(r is p for p in rs.positives) for r in simples)
        assert [r.coords for r in simples] == [(1, -1, 0), (0, 1, -1), (0, 0, 1)]
    assert [r.multiplicity for r in simple_system(a)] == [1, 1, 1]
    assert [r.multiplicity for r in simple_system(b)] == [1, 1, 2]
    # one integer inverse per set of simple roots
    assert integer_coweights(a) is integer_coweights(b) is integer_coweights(c)
    assert fundamental_coweights(a) == fundamental_coweights(b) == fundamental_coweights(c)


def test_sl4_regular_face():
    face = _face(space("SL(4,R)"), ())
    assert face.vanishing == ()
    assert face.codim == 6


def test_sl4_wall_face():
    face = _face(space("SL(4,R)"), (0, 1))
    assert {r.coords for r in face.vanishing} == {
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (1, 0, -1, 0),
    }
    assert face.codim == 3
    assert face.witness == (1, 1, 1, -3)


def test_sp6_c2_subwall():
    face = _face(space("Sp(6,R)"), (1, 2))
    assert face.codim == 5
    assert face.vanishing_count == 4


def test_face_count_and_distinct_vanishing():
    for name in ("SL(4,R)", "Sp(6,R)", "SO(3,5)", "SU(3,3)"):
        s = space(name)
        faces = enumerate_faces(s)
        assert len(faces) == 2 ** s.rank
        vanishing_sets = {tuple(r.coords for r in f.vanishing) for f in faces}
        assert len(vanishing_sets) == len(faces)


def test_witness_vanishing_pattern():
    for name in ("SL(5,R)", "Sp(6,R)", "SO(3,5)", "SU(4,2)", "SO(4,4)"):
        s = space(name)
        for face in enumerate_faces(s):
            vanish = {r.coords for r in face.vanishing}
            for root in s.rootsys.positives:
                value = evaluate_root(root, face.witness)
                assert (value == 0) == (root.coords in vanish), (name, face.simple_subset)


def test_witness_codim_agreement():
    # independent oracle: the multiplicities of the roots that do not
    # vanish on the witness, each evaluated on its own
    spaces = [s for s in catalogue() if not s.excluded and 2 <= s.rank <= 8]
    assert len(spaces) == 54
    for s in spaces:
        for face in enumerate_faces(s):
            if any(face.witness):
                expected = sum(
                    root.multiplicity
                    for root in s.rootsys.positives
                    if evaluate_root(root, face.witness) != 0
                )
                assert stabilizer_codim(s, face.witness) == expected == face.codim


def test_vanishing_sets_match_span_membership():
    # independent oracle: rational span membership by row reduction (a
    # root is in the span when adding it leaves the rank as it is),
    # against the roots that vanish on the witness's row mask
    from rootmatch.exact import exact_rank

    for name in ("SL(4,R)", "Sp(6,R)", "SO(3,5)", "SU(3,2)"):
        s = space(name)
        simples = simple_system(s.rootsys)
        for face in enumerate_faces(s):
            span_basis = [simples[i].coords for i in face.simple_subset]
            base = exact_rank(span_basis)
            expected = {
                r.coords
                for r in s.rootsys.positives
                if exact_rank(span_basis + [r.coords]) == base
            }
            assert {r.coords for r in face.vanishing} == expected


def test_enumerate_faces_pinned():
    # digest of every face (subset, vanishing coords, codim, witness) of
    # every non-excluded space of rank 2..8, taken when the support masks
    # came from per-root rational solves and the witnesses from Fraction sums
    faces = [
        (
            s.name,
            [
                (f.simple_subset, tuple(r.coords for r in f.vanishing), f.codim, f.witness)
                for f in enumerate_faces(s)
            ],
        )
        for s in catalogue()
        if not s.excluded and 2 <= s.rank <= 8
    ]
    assert len(faces) == 54
    assert hashlib.sha256(repr(faces).encode()).hexdigest()[:16] == "33cef94377ec531f"


def test_coweights_and_faces_pinned_on_every_space():
    # digests over all 55 catalogue spaces, the excluded SL(3,R) included:
    # the fundamental coweights as Fractions, and every face (subset,
    # vanishing coords, codim, witness); taken when the coweights came
    # from a rational solve and the witnesses from an lcm rescale of them
    spaces = catalogue()
    assert len(spaces) == 55
    coweights = [(s.name, fundamental_coweights(s.rootsys)) for s in spaces]
    faces = [
        (
            s.name,
            [
                (f.simple_subset, tuple(r.coords for r in f.vanishing), f.codim, f.witness)
                for f in enumerate_faces(s)
            ],
        )
        for s in spaces
    ]
    assert sum(len(f) for _name, f in faces) == 3264
    assert hashlib.sha256(repr(coweights).encode()).hexdigest()[:16] == "5b6ce0b869d8e4af"
    assert hashlib.sha256(repr(faces).encode()).hexdigest()[:16] == "7cf5f102ffba4ca0"


def test_monotonicity():
    s = space("SO(3,5)")
    faces = {f.simple_subset: f for f in enumerate_faces(s)}
    for small, f_small in faces.items():
        for large, f_large in faces.items():
            if set(small) <= set(large):
                v_small = {r.coords for r in f_small.vanishing}
                v_large = {r.coords for r in f_large.vanishing}
                assert v_small <= v_large
                assert f_small.codim >= f_large.codim


def test_regular_face_codim_is_columns():
    for s in catalogue():
        face = next(f for f in enumerate_faces(s) if f.simple_subset == ())
        assert face.codim == s.dim_x - s.rank


def test_stabilizer_codim_examples():
    assert stabilizer_codim(space("SL(4,R)"), (1, 1, 1, -3)) == 3
    assert stabilizer_codim(space("SO(4,4)"), (1, 0, 0, 0)) == 6
    assert stabilizer_codim(space("Sp(6,R)"), (1, 0, 0)) == 5
    with pytest.raises(ZeroVectorError):
        stabilizer_codim(space("SL(4,R)"), (0, 0, 0, 0))


def test_stabilizer_codim_reads_entries_by_fraction():
    sl4 = space("SL(4,R)")
    assert stabilizer_codim(sl4, ("1", "1", "1", "-3")) == 3
    assert stabilizer_codim(sl4, ("1/2", "1/2", "1/2", "-3/2")) == 3


def test_bounds_pass_all_spaces():
    for s in catalogue():
        if s.excluded:
            continue
        report = verify_codim_bounds(s)
        assert report.passed, (s.name, [e for e in report.entries if not e.ok])


def test_sl_faces_at_rank_are_the_two_maximal_walls():
    for m in range(4, 10):
        s = space(f"SL({m},R)")
        n = s.rank
        report = verify_codim_bounds(s)
        walls = {e.simple_subset for e in report.faces_at_rank}
        assert walls == {tuple(range(1, n)), tuple(range(n - 1))}
        for e in report.faces_at_rank:
            # a maximal wall kills a full A_(n-1) subsystem
            assert e.vanishing_count == n * (n - 1) // 2


def test_so_minimum_codim():
    for n in range(2, 9):
        for r in range(4):
            if (n, r) in ((2, 0), (3, 0)):
                continue
            report = verify_codim_bounds(space(f"SO({n},{n + r})"))
            assert report.min_codim == 2 * n - 2 + r, (n, r)


def test_sp_su_minimum_codim():
    for n in range(2, 9):
        report = verify_codim_bounds(space(f"Sp({2 * n},R)"))
        assert report.min_codim == 2 * n - 1
    for name in ("SU(2,2)", "SU(4,2)", "SU(3,3)", "SU(6,4)"):
        s = space(name)
        report = verify_codim_bounds(s)
        assert report.min_codim >= 2 * s.rank - 1


def test_excluded_space_rejected():
    with pytest.raises(ExcludedSpaceError):
        verify_codim_bounds(space("SL(3,R)"))


def test_sl4_example_report():
    report = verify_codim_bounds(space("SL(4,R)"))
    assert report.passed
    assert {e.simple_subset for e in report.faces_at_rank} == {(0, 1), (1, 2)}
