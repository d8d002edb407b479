import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest

from rootmatch import checks, modelgeom
from rootmatch.errors import (
    BNotInQError,
    CheckFailedError,
    DimensionMismatchError,
    EpsilonTooLargeError,
    InvalidParamsError,
    NotInFlatError,
    UnknownSpaceError,
    ZeroVectorError,
)
from rootmatch.framematrix import random_frames
from rootmatch.modelgeom import (
    ModelSpace,
    _align_rotation,
    _exp_skew,
    _haar_batch,
    _MIN_LINEAR_COEFFICIENT,
    first_order_gram_coefficient,
    min_bracket_gain,
    pipeline_flat,
    pipeline_perturbed,
    q_subspace,
    random_perturbation_case,
    ratio_angles,
    sample_ratio,
    sample_ratios,
    snap_to_singular,
    stabilizer_generators,
    trace_inner,
)
from rootmatch.rootdata import space

from oracles import (
    align_rotation_by_eigh,
    angle_to_subspace,
    expm_by_taylor,
    first_order_coefficient_by_commutators,
    gram_deviation_by_trace,
    haar_batch_by_lapack_qr,
    helmert_rows,
    set_partitions,
    snap_by_numpy_blocks,
    stabilizer_projection,
)

MODEL4 = ModelSpace(4)


def haar_rotation(n, seed):
    """One Haar-random orthogonal matrix from O(n), reproducible from the
    seed: the first of a seeded ``_haar_batch``."""
    return _haar_batch(np.random.default_rng(seed), n, 1)[0]


def random_rationals(rng, n):
    return [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, size=n), rng.integers(1, 7, size=n))]


def _bracket(model, i, j, t):
    """[k_ij, diag(t)] in numpy object arrays of ints and Fractions."""
    k = model.k_matrix(i, j).astype(object)
    d = np.diag(t)
    return k @ d - d @ k


def test_bracket_identity_exact_all_sizes():
    rng = np.random.default_rng(3)
    for n in range(3, 9):
        model = ModelSpace(n)
        t = random_rationals(rng, n)
        for i in range(n):
            for j in range(i + 1, n):
                want = (t[j] - t[i]) * abs(model.k_matrix(i, j).astype(object))
                assert (_bracket(model, i, j, t) == want).all()


def test_bracket_vanishes_inside_stabilizer():
    t = [Fraction(1), Fraction(1), Fraction(1), Fraction(-3)]
    assert (_bracket(MODEL4, 0, 1, t) == 0).all()


def test_bracket_stays_exact():
    # integer generators and Fraction diagonals: no float enters criterion 6
    for n in (3, 6):
        model = ModelSpace(n)
        t = random_rationals(np.random.default_rng(n), n)
        for i, j in model.pairs:
            k = model.k_matrix(i, j)
            assert np.issubdtype(k.dtype, np.integer)
            assert k[i, j] == 1 and k[j, i] == -1 and np.count_nonzero(k) == 2
            assert all(type(x) in (int, Fraction) for x in _bracket(model, i, j, t).flat)


def test_b_matrix_is_the_scaled_generator():
    for i, j in MODEL4.pairs:
        want = np.zeros((4, 4))
        want[i, j] = want[j, i] = 1.0 / np.sqrt(2.0)
        assert MODEL4.b_matrix(i, j).tobytes() == want.tobytes()


def test_criterion_6_catches_a_symmetric_generator(monkeypatch):
    # a planted fault: k_ij = E_ij + E_ji commutes wrongly with diag(t)
    def symmetric(self, i, j):
        m = np.zeros((self.n, self.n), dtype=int)
        m[i, j] = m[j, i] = 1
        return m

    monkeypatch.setattr(ModelSpace, "k_matrix", symmetric)
    with pytest.raises(CheckFailedError, match=r"n=3, pair \(0, 1\)"):
        checks.bracket_identity_exact(checks.Inputs())


def test_criterion_6_catches_a_non_unit_generator(monkeypatch):
    # a planted fault: |k_01| holds a 2, so its Gram entry is 4, not 2
    original = ModelSpace.k_matrix

    def scaled(self, i, j):
        m = original(self, i, j)
        m[i, j] *= 1 + ((i, j) == (0, 1))
        return m

    monkeypatch.setattr(ModelSpace, "k_matrix", scaled)
    with pytest.raises(CheckFailedError, match=r"^n=3: the Gram matrix of the \|k_ij\| is not 2I$"):
        checks.fperp_gram_identity(checks.Inputs())


def test_fperp_gram_and_count():
    for n in range(3, 7):
        model = ModelSpace(n)
        basis = model.fperp_basis()
        sl = space(f"SL({n},R)")
        assert len(basis) == sl.dim_x - sl.rank
        for a in range(len(basis)):
            for b in range(len(basis)):
                expected = 1.0 if a == b else 0.0
                assert abs(trace_inner(basis[a], basis[b]) - expected) <= 1e-14
        flat = model.flat_basis()
        assert len(flat) == model.rank
        for f in flat:
            for b in basis:
                assert trace_inner(f, b) == 0.0


def test_angle_examples():
    flat = MODEL4.flat_basis()
    inside = np.diag([1.0, 0.0, 0.0, -1.0])
    assert angle_to_subspace(inside, flat) == pytest.approx(0.0, abs=1e-12)
    perp = MODEL4.b_matrix(0, 1)
    assert angle_to_subspace(perp, flat) == pytest.approx(np.pi / 2, abs=1e-12)
    w = np.diag(np.array([1, 0, 0, -1]) / np.sqrt(2))
    u = MODEL4.b_matrix(0, 1)
    mixed = (w + u) / np.sqrt(2)
    assert angle_to_subspace(mixed, flat) == pytest.approx(np.pi / 4, abs=1e-12)


def test_angle_errors():
    flat = MODEL4.flat_basis()
    with pytest.raises(ZeroVectorError):
        angle_to_subspace(np.zeros((4, 4)), flat)
    skewed = [flat[0], flat[0] + 1e-5 * flat[1]]
    with pytest.raises(ValueError):
        angle_to_subspace(MODEL4.b_matrix(0, 1), skewed)


def test_haar_rotation_contract():
    for n in (3, 4, 6):
        r = haar_rotation(n, 17)
        assert np.abs(r @ r.T - np.eye(n)).max() <= 1e-12
        assert abs(np.linalg.det(r)) == pytest.approx(1.0, abs=1e-10)
    assert np.array_equal(haar_rotation(5, 9), haar_rotation(5, 9))
    assert not np.array_equal(haar_rotation(5, 9), haar_rotation(5, 10))


class _FixedDraws:
    """A stand-in ``Generator`` whose ``standard_normal`` returns given matrices."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z.copy()


def _assert_q_factors(q, z, want):
    """``q`` agrees with ``want``, is orthogonal, and q^T z is upper
    triangular with a positive diagonal: the Q factors of ``z``."""
    assert np.abs(q - want).max() <= 1e-13
    assert np.abs(np.einsum("bki,bkj->bij", q, q) - np.eye(z.shape[-1])).max() <= 1e-14
    r = np.einsum("bki,bkj->bij", q, z)
    assert np.abs(np.tril(r, -1)).max() <= 1e-13
    assert (np.einsum("bii->bi", r) > 0).all()


@pytest.mark.parametrize("count", [1, 7, 2000])
@pytest.mark.parametrize("n", range(2, 9))
def test_haar_batch_matches_lapack_qr(n, count):
    for seed in (1, 2, 3, 4, 5):  # the default seeds of rootmatch verify
        z = np.random.default_rng(seed).standard_normal((count, n, n))
        q = _haar_batch(np.random.default_rng(seed), n, count)
        _assert_q_factors(q, z, haar_batch_by_lapack_qr(np.random.default_rng(seed), n, count))


def test_haar_batch_matches_lapack_qr_on_ill_conditioned_draws():
    z = np.random.default_rng(0).standard_normal((50_000, 8, 8))
    worst = z[np.argsort(np.linalg.cond(z))[-7:]]
    assert np.linalg.cond(worst).min() > 1e5
    q = _haar_batch(_FixedDraws(worst), 8, 7)
    _assert_q_factors(q, worst, haar_batch_by_lapack_qr(_FixedDraws(worst), 8, 7))


def test_haar_statistics():
    rng = np.random.default_rng(1)
    batch = _haar_batch(rng, 4, 10_000)
    assert np.abs(batch.mean(axis=0)).max() <= 0.05
    # left invariance, distributionally: the empirical quantiles of an
    # entry of L @ R match those of the same entry of R
    left = haar_rotation(4, 99)
    shifted = np.einsum("ij,bjk->bik", left, batch)
    assert np.abs(shifted.mean(axis=0)).max() <= 0.05
    plain = np.sort(batch[:, 0, 0])
    moved = np.sort(shifted[:, 0, 0])
    assert np.abs(plain - moved).max() <= 0.05
    # rotation-invariant moments: tr R is centered with unit second moment
    traces = np.einsum("bii->b", batch)
    assert abs(traces.mean()) <= 0.05
    assert abs((traces**2).mean() - 1.0) <= 0.1


def test_q_subspace_examples():
    pairs_of = lambda mats: {
        tuple(int(i) for i in np.argwhere(m > 0)[0]) for m in mats
    }
    assert pairs_of(q_subspace(MODEL4, (1, 1, -1, -1))) == {
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
    }
    assert len(q_subspace(MODEL4, (6, 2, -3, -5))) == 6
    assert pairs_of(q_subspace(MODEL4, (1, 1, 1, -3))) == {(0, 3), (1, 3), (2, 3)}
    with pytest.raises(ZeroVectorError):
        q_subspace(MODEL4, (0, 0, 0, 0))
    with pytest.raises(NotInFlatError):
        q_subspace(MODEL4, (1, 0, 0, 0))


def test_q_subspace_matches_selection_matrix_row():
    # the b's of Q_v are exactly the 1-columns of the one-row selection
    # matrix built from v
    from rootmatch.framematrix import build_matrix, make_frame
    from rootmatch.rootdata import space as lookup

    sl4 = lookup("SL(4,R)")
    for v in ((1, 1, 1, -3), (1, 1, -1, -1), (6, 2, -3, -5), (1, -1, 1, -1)):
        matrix = build_matrix(make_frame(sl4, [v]))
        selected = {
            matrix.col_labels[j][0].support
            for j in range(matrix.cols)
            if matrix.entries[0][j]
        }
        q_pairs = {
            tuple(int(i) for i in np.argwhere(b > 0)[0])
            for b in q_subspace(MODEL4, v)
        }
        assert q_pairs == selected


def _pair_of(matrix):
    return tuple(int(i) for i in np.argwhere(matrix > 0)[0])


@pytest.mark.parametrize("n", range(3, 10))
def test_model_pairs_are_the_sl_columns(n):
    # column c of SL(n,R)'s selection matrix is the model's pairs[c]; Q_v
    # takes the pairs of the 1-bits of v's row, the stabilizer the rest
    from rootmatch.framematrix import build_matrix

    model = ModelSpace(n)
    sl = space(f"SL({n},R)")
    assert model.space is sl
    assert model.pairs == tuple(root.support for root, _slot in sl.rootsys.column_labels)
    for frame in random_frames(sl, 20, seed=n):
        for v, row in zip(frame.vectors, build_matrix(frame).entries):
            q_pairs = tuple(p for p, bit in zip(model.pairs, row) if bit)
            stabilizer_pairs = tuple(p for p, bit in zip(model.pairs, row) if not bit)
            assert tuple(map(_pair_of, q_subspace(model, v))) == q_pairs
            assert tuple(map(_pair_of, stabilizer_generators(model, v))) == stabilizer_pairs


@pytest.mark.parametrize("n", [2, 10])
def test_model_needs_a_catalogue_sl(n):
    with pytest.raises(UnknownSpaceError):
        ModelSpace(n)


def test_stabilizer_generators_examples():
    gens = stabilizer_generators(MODEL4, (1, 1, -1, -1))
    assert len(gens) == 2
    assert stabilizer_generators(MODEL4, (3, 1, -2, -2)) != []
    assert stabilizer_generators(MODEL4, (6, 2, -3, -5)) == []
    assert len(stabilizer_generators(MODEL4, (1, 1, 1, -3))) == 3


def _rotation_deriving_generators(model, v, coefficients):
    """exp of a coefficient combination of the stabilizer generators of v."""
    gens = stabilizer_generators(model, v)
    if not gens:
        return np.eye(model.n)
    return _exp_skew(sum(c * g for c, g in zip(coefficients, gens)))


def test_stabilizer_exponentials_fix_vector():
    v = (1, 1, 1, -3)
    vm = np.diag(np.asarray(v, dtype=float))
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = _rotation_deriving_generators(MODEL4, v, rng.uniform(-2, 2, size=3))
        assert np.abs(h @ vm @ h.T - vm).max() <= 1e-12


def test_criterion_7_catches_a_generator_across_blocks(monkeypatch):
    # a planted fault: face (0,) of SL(4) also lists a root that does not
    # vanish on its witness, so one generator joins two blocks of v
    original = checks.enumerate_faces

    def planted(sp):
        faces = original(sp)
        face = faces[1]
        extra = next(r for r in sp.rootsys.positives if r not in face.vanishing)
        return [faces[0], dataclasses.replace(face, vanishing=face.vanishing + (extra,)), *faces[2:]]

    monkeypatch.setattr(checks, "enumerate_faces", planted)
    with pytest.raises(CheckFailedError, match=r"^n=4 face \(0,\): a rotation moves v$"):
        checks.stabilizer_zero_case(checks.Inputs())


def test_stabilizer_rotations_keep_q_in_fperp():
    # the zero-denominator case of the ratio inequality, tested directly
    v = (1, 1, 1, -3)
    for b in q_subspace(MODEL4, v):
        for s in np.arange(0.1, 3.01, 0.1):
            for k in stabilizer_generators(MODEL4, v):
                h = expm_by_taylor(s * k)
                moved = h @ b @ h.T
                flat_norm = np.linalg.norm(np.diag(moved))
                assert np.arcsin(min(1.0, flat_norm)) <= 1e-9


def test_ratio_angles_identity_is_degenerate():
    v = np.asarray([1, 1, 1, -3], float)
    v /= np.linalg.norm(v)
    hs = np.eye(4)[None, :, :]
    num, den = ratio_angles(0, 3, v, hs, hs * hs)
    assert num[0] <= 1e-12
    assert den[0] <= 1e-12  # would be skipped and counted


def test_ratio_angles_match_angle_to_subspace():
    rng = np.random.default_rng(2)
    v = np.asarray([1, 1, 1, -3], float)
    v /= np.linalg.norm(v)
    b = MODEL4.b_matrix(0, 3)
    hs = _haar_batch(rng, 4, 8)
    num, den = ratio_angles(0, 3, v, hs, hs * hs)
    fperp = MODEL4.fperp_basis()
    flat = MODEL4.flat_basis()
    for k, h in enumerate(hs):
        assert num[k] == pytest.approx(
            angle_to_subspace(h @ b @ h.T, fperp), abs=1e-9
        )
        assert den[k] == pytest.approx(
            angle_to_subspace(h @ np.diag(v) @ h.T, flat), abs=1e-9
        )


def _ratio_angles_full_conjugates(num_mat, den_mat, rotations):
    """``ratio_angles`` through whole conjugates h @ mat @ h.T, as first written."""
    x = np.einsum("bij,jk,blk->bil", rotations, num_mat, rotations)
    y = np.einsum("bij,jk,blk->bil", rotations, den_mat, rotations)
    x_diag = np.einsum("bii->bi", x)
    y_diag = np.einsum("bii->bi", y)
    num = np.arcsin(np.clip(np.linalg.norm(x_diag, axis=1), 0.0, 1.0))
    den_proj = np.sqrt(np.clip(1.0 - np.einsum("bi,bi->b", y_diag, y_diag), 0.0, 1.0))
    return num, np.arcsin(den_proj)


def test_ratio_angles_match_full_conjugates():
    for n in range(4, 9):
        model = ModelSpace(n)
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        v -= v.mean()
        v /= np.linalg.norm(v)
        hs = _haar_batch(rng, n, 500)
        for i, j in ((0, n - 1), (1, 2)):
            got = ratio_angles(i, j, v, hs, hs * hs)
            want = _ratio_angles_full_conjugates(model.b_matrix(i, j), np.diag(v), hs)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


def test_sample_ratio_contract():
    c14, c12 = MODEL4.pairs.index((0, 3)), MODEL4.pairs.index((0, 1))
    est = sample_ratio(MODEL4, (1, 1, 1, -3), c14, 4000, 1)
    assert np.isfinite(est.max_ratio)
    assert est.max_ratio > 0
    longer = sample_ratio(MODEL4, (1, 1, 1, -3), c14, 8000, 1)
    assert longer.max_ratio >= est.max_ratio  # prefix property
    with pytest.raises(BNotInQError):
        sample_ratio(MODEL4, (1, 1, -1, -1), c12, 100, 1)


def _verify_pairs(n):
    """The (v, c) pairs ``rootmatch verify`` scores: each vector of a
    seeded singular frame with the columns of both of its doubled members."""
    model = ModelSpace(n)
    frame = random_frames(space(f"SL({n},R)"), 1, seed=1, singular_fraction=1.0)[0].vectors
    flat = pipeline_flat(model, frame)
    pairs = [(v, c) for v, row_pair in zip(frame, flat.match.pairs) for c in row_pair]
    return model, pairs


@pytest.mark.parametrize("samples", [700, 4500])  # 4500: two full chunks and a partial one
@pytest.mark.parametrize("n", [4, 8])
def test_sample_ratios_equal_lone_calls(n, samples):
    model, pairs = _verify_pairs(n)
    shared = sample_ratios(model, pairs, samples, 3)
    assert len(shared) == len(pairs) == 2 * (n - 1)
    for (v, c), est in zip(pairs, shared):
        alone = sample_ratio(model, v, c, samples, 3)
        assert est.max_ratio == alone.max_ratio
        assert est.zero_denominator_count == alone.zero_denominator_count
        assert (est.samples, est.seed) == (samples, 3)


@pytest.mark.parametrize("n", [4, 8])
def test_sample_ratios_ignore_column_signs(monkeypatch, n):
    # ratio_angles reads products h_ki.h_kj and squares h_kl^2, so O(n)
    # draws give the estimates of SO(n) draws bit for bit
    model, pairs = _verify_pairs(n)
    plain = sample_ratios(model, pairs, 2500, 4)
    signs = np.random.default_rng(n)

    def flipped(rng, n, count):
        hs = _haar_batch(rng, n, count)
        return hs * signs.choice([-1.0, 1.0], size=(count, 1, n))

    monkeypatch.setattr(modelgeom, "_haar_batch", flipped)
    assert sample_ratios(model, pairs, 2500, 4) == plain


@pytest.mark.parametrize("samples", [0, -5, 2.5, True, "100"])
def test_sample_ratios_refuse_zero_evidence(monkeypatch, samples):
    draws = []
    monkeypatch.setattr(modelgeom, "_haar_batch", lambda *args: draws.append(args))
    with pytest.raises(InvalidParamsError):
        sample_ratio(MODEL4, (1, 1, 1, -3), MODEL4.pairs.index((0, 3)), samples, 1)
    with pytest.raises(InvalidParamsError):
        sample_ratios(MODEL4, _verify_pairs(4)[1], samples, 1)
    assert draws == []


@pytest.mark.parametrize("seed", [-1, 2.5, "x", True])
def test_sample_ratios_refuse_a_bad_seed_before_drawing(monkeypatch, seed):
    draws = []
    monkeypatch.setattr(modelgeom, "_haar_batch", lambda *args: draws.append(args))
    with pytest.raises(InvalidParamsError):
        sample_ratio(MODEL4, (1, 1, 1, -3), MODEL4.pairs.index((0, 3)), 100, seed)
    with pytest.raises(InvalidParamsError):
        sample_ratios(MODEL4, _verify_pairs(4)[1], 100, seed)
    assert draws == []


def test_sample_ratios_take_numpy_integers():
    c14 = MODEL4.pairs.index((0, 3))
    plain = sample_ratio(MODEL4, (1, 1, 1, -3), c14, 300, 1)
    from_numpy = sample_ratio(
        MODEL4, (1, 1, 1, -3), np.int64(c14), np.int32(300), np.int64(1)
    )
    assert from_numpy == plain
    assert type(from_numpy.samples) is int
    assert type(from_numpy.seed) is int


_BAD_PAIRS = [
    (((1, 1, -1, -1), MODEL4.pairs.index((0, 1))), BNotInQError),
    (((1, 1, 1, -3), 6), InvalidParamsError),
    (((1, 1, 1, -3), 99), InvalidParamsError),
    (((1, 1, 1, -3), -1), InvalidParamsError),
    (((1, 1, 1, -3), 2.0), InvalidParamsError),
    (((1, 1, 1, -3), True), InvalidParamsError),
]


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_sample_ratios_check_every_pair_before_drawing(monkeypatch, position):
    # b_c outside Q_v, a column out of range, a float and a bool column
    _model, pairs = _verify_pairs(4)
    at = {"first": 0, "middle": len(pairs) // 2, "last": len(pairs)}[position]
    draws = []
    monkeypatch.setattr(modelgeom, "_haar_batch", lambda *args: draws.append(args))
    for bad, error in _BAD_PAIRS:
        with pytest.raises(error):
            sample_ratios(MODEL4, pairs[:at] + [bad] + pairs[at:], 100, 1)
    assert draws == []


def _sample_ratios_by_matrices(model, pairs, samples, seed):
    """``sample_ratios`` from the definition: each pair scored as h b_c h^T
    and h diag(v_hat) h^T by ``_ratio_angles_full_conjugates`` on the same
    seeded ``_haar_batch`` chunks; (max ratio, zero denominators) per pair."""
    basis = model.fperp_basis()
    mats = []
    for v, c in pairs:
        w = np.asarray([float(Fraction(x)) for x in v])
        mats.append((basis[c], np.diag(w / np.linalg.norm(w))))
    rng = np.random.default_rng(seed)
    best, zeros = [0.0] * len(mats), [0] * len(mats)
    for start in range(0, samples, modelgeom._CHUNK):
        hs = _haar_batch(rng, model.n, min(modelgeom._CHUNK, samples - start))
        for k, (b, d) in enumerate(mats):
            num, den = _ratio_angles_full_conjugates(b, d, hs)
            keep = den >= 1e-6
            zeros[k] += int((~keep).sum())
            if keep.any():
                best[k] = max(best[k], float((num[keep] / den[keep]).max()))
    return list(zip(best, zeros))


@pytest.mark.parametrize("n", range(4, 9))
def test_sample_ratios_equal_the_matrix_definition(n):
    # 2,500 samples: one full chunk and a partial one
    model, pairs = _verify_pairs(n)
    got = sample_ratios(model, pairs, 2500, 1)
    want = _sample_ratios_by_matrices(model, pairs, 2500, 1)
    for est, (max_ratio, zeros) in zip(got, want):
        assert est.max_ratio == pytest.approx(max_ratio, rel=1e-12, abs=0)
        assert est.zero_denominator_count == zeros


def test_snap_regular_unchanged():
    w = np.asarray([0.8, 0.1, -0.35, -0.55])
    w /= np.linalg.norm(w)
    assert np.allclose(snap_to_singular(MODEL4, w), w, atol=1e-15)


def test_snap_near_wall():
    w = np.asarray([1.0, 1.0 + 1e-4, -1.0, -1.0 - 1e-4])
    w /= np.linalg.norm(w)
    snapped = snap_to_singular(MODEL4, w)
    assert snapped[0] == snapped[1]
    assert snapped[2] == snapped[3]
    expected = np.asarray([0.5, 0.5, -0.5, -0.5])
    assert np.abs(snapped - expected).max() <= 1e-4


def test_snap_on_wall_is_fixed():
    w = np.asarray([0.5, 0.5, -0.5, -0.5])
    snapped = snap_to_singular(MODEL4, w)
    assert np.array_equal(snapped, w)


def test_snap_below_radius_one_never_returns_the_origin():
    # the all-equal face lies at distance |w| = 1; below it, the most
    # singular face within reach still wins
    w = np.asarray([3.0, 1.0, -1.0, -3.0]) / np.sqrt(20.0)
    want = np.asarray([1.0, 1.0, 1.0, -3.0]) / np.sqrt(12.0)
    assert np.allclose(snap_to_singular(MODEL4, w, 0.99), want, atol=1e-15)
    # short of unit norm by less than the tolerance, the all-equal face
    # comes within a radius below 1, and is still passed over
    short = snap_to_singular(MODEL4, w * (1.0 - 5e-10), 1.0 - 1e-10)
    assert np.allclose(short, want, atol=1e-15)


@pytest.mark.parametrize(
    "w, error",
    [
        ([0.6, -0.8], DimensionMismatchError),
        ([0.5, 0.5, -0.5, -0.5, 0.0], DimensionMismatchError),
        ([1, 2, 3, 4], NotInFlatError),
        ([float("nan"), 0, 0, 0], NotInFlatError),
        ([2, -2, 0, 0], InvalidParamsError),
    ],
    ids=["short", "long", "nonzero-sum", "nan", "not-unit"],
)
def test_snap_refuses_what_is_no_unit_flat_vector(w, error):
    with pytest.raises(error):
        snap_to_singular(MODEL4, w)


def _face(w, part):
    """(vanishing count, distance, projection) of w onto the face of a partition."""
    proj = w.copy()
    for block in part:
        idx = list(block)
        proj[idx] = w[idx].mean()
    vanishing = sum(len(b) * (len(b) - 1) // 2 for b in part)
    return vanishing, float(np.linalg.norm(w - proj)), proj


def _bell_snap(faces, radius):
    """Reference snap by full enumeration: the first face minimizing
    (-vanishing, distance) within the radius, and its normalized projection."""
    best = None
    for vanishing, dist, proj in faces:
        if dist <= radius and (best is None or (-vanishing, dist) < best[0]):
            best = ((-vanishing, dist), proj)
    return best[0], best[1] / np.linalg.norm(best[1])


def _unit_flat(raw):
    w = np.asarray(raw, dtype=float)
    w -= w.mean()
    return w / np.linalg.norm(w)


SNAP_VECTORS = {4: 40, 5: 40, 6: 30, 7: 15, 8: 6}


@pytest.mark.parametrize("n", sorted(SNAP_VECTORS))
def test_snap_matches_bell_enumeration(n):
    model = ModelSpace(n)
    rng = np.random.default_rng(100 + n)
    for t in range(SNAP_VECTORS[n]):
        if t % 2:
            w = _unit_flat(rng.standard_normal(n))
        else:
            # a few clusters with small spread, so every radius finds walls
            centers = rng.standard_normal(3)
            w = _unit_flat(rng.choice(centers, n) + 0.03 * rng.standard_normal(n))
        faces = [_face(w, part) for part in set_partitions(n)]
        for radius in (model.epsilon_zero, 0.2, 0.5):
            _key, want = _bell_snap(faces, radius)
            got = snap_to_singular(model, w, radius)
            assert got.tobytes() == want.tobytes(), (n, t, radius)


@pytest.mark.parametrize("n", sorted(SNAP_VECTORS))
def test_snap_with_repeated_coordinates(n):
    # Repeated coordinates make several faces tie; the enumeration order
    # picks among them, so only the vanishing count and distance must agree.
    model = ModelSpace(n)
    rng = np.random.default_rng(200 + n)
    for _ in range(SNAP_VECTORS[n]):
        k = rng.integers(2, n)  # distinct values, each used at least once
        slots = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        w = _unit_flat(rng.standard_normal(k)[rng.permutation(slots)])
        faces = [_face(w, part) for part in set_partitions(n)]
        for radius in (model.epsilon_zero, 0.2, 0.5):
            (neg_vanishing, want_dist), _want = _bell_snap(faces, radius)
            got = snap_to_singular(model, w, radius)
            part = tuple(tuple(np.flatnonzero(got == x)) for x in dict.fromkeys(got))
            vanishing, dist, _proj = _face(w, part)
            assert vanishing == -neg_vanishing
            assert abs(dist - want_dist) <= 1e-15


@pytest.mark.parametrize("n", range(4, 9))
def test_snap_matches_numpy_block_sums(n):
    # 2,000 vectors per n: random, exactly tied, and tied but for moves of
    # at most 1e-9, each at a radius drawn from [0, 1)
    model = ModelSpace(n)
    rng = np.random.default_rng(300 + n)
    for t in range(2000):
        if t % 3 == 0:
            w = _unit_flat(rng.standard_normal(n))
        else:
            k = rng.integers(2, n)  # distinct values, one used at least twice
            slots = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
            w = rng.standard_normal(k)[rng.permutation(slots)]
            if t % 3 == 2:
                w += rng.uniform(-5e-10, 5e-10, size=n)
            w = _unit_flat(w)
        radius = model.epsilon_zero if t % 10 == 0 else rng.uniform(0.0, 1.0)
        got = snap_to_singular(model, w, radius)
        assert np.array_equal(got, snap_by_numpy_blocks(w, radius)), (n, t, radius)


@pytest.mark.parametrize("n", range(2, 10))
def test_exp_skew_matches_expm(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        s = rng.standard_normal((n, n))
        a = s - s.T
        assert np.abs(_exp_skew(a) - expm_by_taylor(a)).max() <= 1e-12


@pytest.mark.parametrize("n", range(3, 10))
def test_flat_basis_is_helmert(n):
    rows = np.stack([np.diag(b) for b in ModelSpace(n).flat_basis()])
    assert rows.tobytes() == helmert_rows(n).tobytes()


def test_pipeline_flat_regular():
    out = pipeline_flat(MODEL4, [(1, 2, 3, -6), (1, -1, 2, -2), (5, 1, -2, -4)])
    members = out.members()
    assert len(members) == 6
    assert out.gram_deviation <= 1e-15
    for m in members:
        assert trace_inner(m, m) == pytest.approx(1.0, abs=1e-14)


def test_pipeline_flat_matches_selection():
    out = pipeline_flat(MODEL4, [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    members = out.members()
    got = [
        (tuple(int(i) for i in np.argwhere(p > 0)[0]), tuple(int(i) for i in np.argwhere(q > 0)[0]))
        for p, q in zip(members[::2], members[1::2])
    ]
    assert got == [((0, 3), (1, 3)), ((0, 1), (0, 2)), ((1, 2), (2, 3))]


def test_pipeline_flat_members_perp_to_flat():
    sl5 = space("SL(5,R)")
    model = ModelSpace(5)
    flat = model.flat_basis()
    for frame in random_frames(sl5, 10, seed=3):
        out = pipeline_flat(model, frame.vectors)
        for member in out.members():
            assert max(abs(trace_inner(member, f)) for f in flat) <= 1e-12
            sym_dev = np.abs(member - member.T).max()
            assert sym_dev == 0.0
            assert abs(np.trace(member)) <= 1e-14


def test_pipeline_flat_needs_spanning():
    with pytest.raises(InvalidParamsError):
        pipeline_flat(MODEL4, [(1, -1, 0, 0), (2, -2, 0, 0), (0, 0, 1, -1)])


def test_perturbed_zero_eps_reduces_to_flat():
    ints = [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)]
    floats = [np.asarray(v, float) / np.linalg.norm(v) for v in ints]
    u = np.zeros((4, 4))
    u[0, 1], u[1, 0] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    out = pipeline_perturbed(MODEL4, floats, u, 0.0)
    flat = pipeline_flat(MODEL4, ints)
    assert out.match.pairs == flat.match.pairs
    for a, b in zip(out.members(), flat.members()):
        assert np.array_equal(a, b)
    assert out.gram_deviation == flat.gram_deviation == 0.0


def test_perturbed_parameter_validation():
    frame, u = random_perturbation_case(MODEL4, 1)
    with pytest.raises(EpsilonTooLargeError):
        pipeline_perturbed(MODEL4, frame, u, 1 / 16)
    with pytest.raises(InvalidParamsError):
        pipeline_perturbed(MODEL4, frame, np.eye(4), 1e-3)
    with pytest.raises(InvalidParamsError):
        pipeline_perturbed(MODEL4, frame, 3.0 * u, 1e-3)
    with pytest.raises(DimensionMismatchError):
        pipeline_perturbed(MODEL4, [np.append(frame[0], 0.0), *frame[1:]], u, 1e-3)


@pytest.mark.parametrize(
    "call",
    [
        lambda frame, u: pipeline_perturbed(MODEL4, frame, u, float("nan")),
        lambda frame, u: snap_to_singular(MODEL4, frame[0], -0.1),
        lambda frame, u: snap_to_singular(MODEL4, frame[0], float("nan")),
        lambda frame, u: snap_to_singular(MODEL4, frame[0], 1.0),
        lambda frame, u: snap_to_singular(MODEL4, frame[0], 1.5),
        lambda frame, u: snap_to_singular(MODEL4, frame[0], float("inf")),
    ],
    ids=["eps-nan", "radius-negative", "radius-nan", "radius-one", "radius-1.5", "radius-inf"],
)
def test_bad_perturbation_sizes_are_refused(call):
    # nan passes neither eps < 0 nor eps > 0, so it must be refused as
    # "not eps >= 0" rather than run as a zero perturbation
    frame, u = random_perturbation_case(MODEL4, 1)
    with pytest.raises(InvalidParamsError):
        call(frame, u)


def test_perturbed_gram_scales_linearly():
    frame, u = random_perturbation_case(MODEL4, 2)
    quotients = [
        pipeline_perturbed(MODEL4, frame, u, eps).gram_deviation / eps
        for eps in (1e-2, 1e-3, 1e-4)
    ]
    assert max(quotients) / min(quotients) <= 10.0


def test_perturbed_members_structure():
    frame, u = random_perturbation_case(MODEL4, 4)
    h = expm_by_taylor(1e-3 * u)
    out = pipeline_perturbed(MODEL4, frame, u, 1e-3)
    assert len(out.members()) == 6
    for member in out.members():
        assert np.abs(member - member.T).max() <= 1e-12
        assert abs(np.trace(member)) <= 1e-12
        assert trace_inner(member, member) == pytest.approx(1.0, abs=1e-12)
    # outputs are orthogonal to their own perturbed vector
    members = out.members()
    for i, w in enumerate(frame):
        v_i = h @ np.diag(w) @ h.T
        for member in members[2 * i : 2 * i + 2]:
            assert abs(trace_inner(member, v_i)) <= 1e-10


def test_perturbed_snap_recovers_wall():
    frame, u = random_perturbation_case(MODEL4, 6)
    out = pipeline_perturbed(MODEL4, frame, u, 1e-4)
    snapped = out.snapped_frame[0]
    values = sorted(set(snapped))
    assert len(values) == 3  # one doubled coordinate survives the snap
    raw = sorted(set(np.round(frame[0], 12)))
    for got, expected in zip(values, raw):
        assert float(got) == pytest.approx(expected, abs=1e-6)


@functools.lru_cache(maxsize=None)
def _perturbation_case(n, seed):
    return random_perturbation_case(ModelSpace(n), seed)


@pytest.mark.parametrize("n", range(4, 9))
def test_perturbation_case_postconditions(n):
    eps0 = ModelSpace(n).epsilon_zero
    for seed in range(1, 31):
        frame, u = _perturbation_case(n, seed)
        first = frame[0]
        ties = [(i, j) for i in range(n) for j in range(i + 1, n) if first[i] == first[j]]
        assert len(ties) == 1, (seed, first)
        values = np.sort(np.unique(first))
        assert len(values) == n - 1
        assert np.diff(values).min() > 3.0 * eps0, (seed, first)
        assert np.array_equal(u, -u.T)
        assert trace_inner(u, u.T) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("n", range(4, 9))
def test_align_rotation_matches_the_eigendecomposition(n, eps):
    # the columns of h, turned within each tied block, against the eigh
    # frame of h.diag(w).h^T paired with the snapped target in sorted order
    model = ModelSpace(n)
    for seed in range(1, 11):
        frame, u = _perturbation_case(n, seed)
        h = _exp_skew(eps * u)
        targets = pipeline_perturbed(model, frame, u, eps).snapped_frame
        for w, target in zip(frame, targets):
            want = align_rotation_by_eigh(h @ np.diag(w) @ h.T, target)
            assert np.abs(_align_rotation(h, target) - want).max() <= 1e-12, (seed, target)


def test_conjugation_preserves_trace_form():
    rng = np.random.default_rng(8)
    x = MODEL4.b_matrix(0, 2)
    y = np.diag([1.0, -1.0, 2.0, -2.0])
    for seed in range(5):
        h = haar_rotation(4, seed)
        lhs = trace_inner(h @ x @ h.T, h @ y @ h.T)
        assert lhs == pytest.approx(trace_inner(x, y), abs=1e-12)


def _least_gap(a):
    """float of the least nonzero gap |a_i - a_j|, taken in Fractions."""
    exact = [Fraction(x) for x in a]
    return float(min(abs(x - y) for i, x in enumerate(exact) for y in exact[i + 1 :] if x != y))


def test_min_bracket_gain_matches_gap_formula():
    # independent oracle: singular values of the bracket map are the
    # coordinate gaps, so the smallest is the least cross-block gap
    a = (1, 1, 1, -3)
    assert min_bracket_gain(MODEL4, a) == 4.0
    b = (5, 2, -3, -4)
    assert min_bracket_gain(MODEL4, b) == _least_gap(b) == 1.0
    assert min_bracket_gain(MODEL4, (1, 1, -1, -1)) == 2.0
    third = Fraction(1, 3)
    assert min_bracket_gain(MODEL4, (third, third, third, -1)) == 4 / 3
    assert min_bracket_gain(MODEL4, ("1/7", "1/7", "-3/14", "-1/14")) == 1 / 7
    rng = np.random.default_rng(13)
    for t in range(200):
        n = 3 + t % 6
        # few numerators, so repeated entries (clear bits) are common
        tops, bottoms = rng.integers(-3, 4, size=n), rng.integers(1, 5, size=n)
        raw = [Fraction(int(p), int(q)) for p, q in zip(tops, bottoms)]
        if len(set(raw)) == 1:
            raw[0] += 1
        mean = sum(raw) / n
        a = [x - mean for x in raw]
        assert min_bracket_gain(ModelSpace(n), a) == _least_gap(a), (t, a)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_stabilizer_projection_matches_generator_sum(n):
    # the rule first_order_gram_coefficient reads: the skew part of u at
    # the entries of the clear bits, 0 at the set ones
    model = ModelSpace(n)
    rng = np.random.default_rng(40 + n)
    s = rng.standard_normal((n, n))
    u = (s - s.T) / 2.0
    skew = (u - u.T) / 2.0
    for mask in range(1 << len(model.pairs)):
        got = np.zeros((n, n))
        for c, (i, j) in enumerate(model.pairs):
            if not mask >> c & 1:
                got[i, j], got[j, i] = skew[i, j], skew[j, i]
        assert np.abs(got - stabilizer_projection(model, mask, u)).max() <= 1e-15, mask


def test_first_order_coefficient_predicts_slope():
    # the coefficient of the frame the pipeline doubles, as snapped
    frame, u = random_perturbation_case(MODEL4, 5)
    coefficient = first_order_gram_coefficient(pipeline_perturbed(MODEL4, frame, u, 0.0), u)
    eps = 1e-5
    out = pipeline_perturbed(MODEL4, frame, u, eps)
    assert out.gram_deviation / eps == pytest.approx(coefficient, rel=0.05)
    # the doubling at eps snaps to the same faces, so it gives the same coefficient
    assert first_order_gram_coefficient(out, u) == coefficient


def _perturbed_with(model, v):
    """``pipeline_perturbed`` on a seeded case whose first vector is ``v``."""
    frame, u = _perturbation_case(model.n, 1)
    return pipeline_perturbed(model, [v, *frame[1:]], u, 1e-3)


@pytest.mark.parametrize(
    "entry",
    [
        q_subspace,
        stabilizer_generators,
        min_bracket_gain,
        pytest.param(_perturbed_with, id="pipeline_perturbed"),
    ],
)
def test_a_short_vector_is_a_dimension_mismatch(entry):
    with pytest.raises(DimensionMismatchError):
        entry(MODEL4, (1, -1, 0))


@pytest.mark.parametrize("n", range(4, 9))
def test_gram_deviation_matches_the_dense_trace_products(n):
    model = ModelSpace(n)
    for seed in range(1, 11):
        frame, u = _perturbation_case(n, seed)
        for eps in (1e-2, 1e-4):
            out = pipeline_perturbed(model, frame, u, eps)
            want = gram_deviation_by_trace(out.members())
            assert out.gram_deviation == pytest.approx(want, rel=1e-12, abs=1e-15), (seed, eps)


@pytest.mark.parametrize("n", range(4, 9))
def test_first_order_coefficient_matches_the_commutators(n):
    model = ModelSpace(n)
    for seed in range(1, 11):
        frame, u = _perturbation_case(n, seed)
        doubled = pipeline_perturbed(model, frame, u, 0.0)
        want = first_order_coefficient_by_commutators(model, doubled.snapped_frame, u)
        assert abs(first_order_gram_coefficient(doubled, u) - want) <= 1e-15, seed


@pytest.mark.parametrize("n", range(4, 9))
def test_perturbation_cases_are_linear_on_the_snapped_frame(n):
    # the screen reads the frame as the pipeline snaps it, so no accepted
    # case doubles a snapped frame without a first-order term
    model = ModelSpace(n)
    for seed in range(1, 41):
        frame, u = _perturbation_case(n, seed)
        coefficient = first_order_gram_coefficient(pipeline_perturbed(model, frame, u, 0.0), u)
        assert coefficient >= _MIN_LINEAR_COEFFICIENT, (seed, coefficient)
