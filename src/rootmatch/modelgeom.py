"""Explicit matrix model of the symmetric space SL(n,R)/SO(n).

Tangent vectors are traceless symmetric n x n matrices under the trace
form <X,Y> = tr(XY).  The flat is the diagonal subspace; its orthogonal
complement is spanned by the unit matrices b_ij = (E_ij + E_ji)/sqrt(2).
Rotations act by conjugation.  The two frame pipelines double a frame in
(or near) the flat into b-vectors selected by the greedy column
matching, and the sampling utilities bound the supremum of the angle
ratio from below over Haar-random rotations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BNotInQError,
    DimensionMismatchError,
    EpsilonTooLargeError,
    InvalidParamsError,
    MatchFailedError,
    NoMatchingError,
    NotInFlatError,
)
from .exact import Rat, as_int
from .framematrix import build_matrix, make_frame
from .matcher import AlgoTrace, MatchResult, greedy_match
from .rootdata import flat_row, space as catalogue_space


def trace_inner(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", x, y))


class ModelSpace:
    """Bases and bookkeeping for one model size n: the catalogue's
    SL(n,R), n = 3..9, is ``space``; any other n is an ``UnknownSpaceError``."""

    def __init__(self, n: int):
        self.n = as_int(n, "model size")
        self.space = catalogue_space(f"SL({self.n},R)")
        self.rank = self.space.rank
        # column c of the space's selection matrices is pairs[c] and fperp_basis()[c]
        self.pairs: tuple[tuple[int, int], ...] = tuple(
            root.support for root, _slot in self.space.rootsys.column_labels
        )

    @property
    def epsilon_zero(self) -> float:
        return 1.0 / (self.rank + 1) ** 2

    def k_matrix(self, i: int, j: int) -> np.ndarray:
        """Rotation generator E_ij - E_ji (unnormalized), as integers."""
        m = np.zeros((self.n, self.n), dtype=int)
        m[i, j], m[j, i] = 1, -1
        return m

    def b_matrix(self, i: int, j: int) -> np.ndarray:
        """Unit symmetric b_ij = |k_ij| / sqrt(2)."""
        return np.abs(self.k_matrix(i, j)) / np.sqrt(2.0)

    def flat_basis(self) -> list[np.ndarray]:
        """Orthonormal basis of the diagonal traceless subspace (Helmert rows)."""
        k = np.arange(1, self.n)
        rows = np.tril(np.ones((self.n, self.n)), -1)[1:] - np.diag(np.arange(self.n))[1:]
        return [np.diag(row) for row in rows / np.sqrt(k * (k + 1))[:, None]]

    def fperp_basis(self) -> list[np.ndarray]:
        return [self.b_matrix(i, j) for i, j in self.pairs]


# ---------------------------------------------------------------------------
# Haar sampling.


def _haar_batch(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` Haar-random matrices from O(n): the Q factors of Gaussian
    matrices whose R has a positive diagonal, by classical Gram-Schmidt
    with one reorthogonalization (CGS2) over the whole batch, column by
    column.  No determinant is fixed, since ``ratio_angles`` reads only
    products h_ki.h_kj and squares h_kl^2, which no column sign changes,
    not even in the last bit."""
    # cols[k, :, b] is column k of matrix b, so each step runs over the batch
    cols = np.ascontiguousarray(rng.standard_normal((count, n, n)).T)
    for k in range(n):
        v, prev = cols[k], cols[:k]
        for _ in range(2 if k else 0):
            v -= np.einsum("kb,kib->ib", np.einsum("kib,ib->kb", prev, v), prev)
        v /= np.sqrt(np.einsum("ib,ib->b", v, v))
    return np.ascontiguousarray(cols.T)


# ---------------------------------------------------------------------------
# Invariant complements and stabilizers of flat vectors.


def _row_mask(model: ModelSpace, v: Sequence[Rat]) -> int:
    """The columns (bit c for ``model.pairs[c]``) of the roots e_i - e_j
    not vanishing on a vector that passes ``flat_row`` for the model."""
    return model.space.rootsys.row_masks([flat_row(v, model.n, traceless=True)])[0]


def q_subspace(model: ModelSpace, v: Sequence[Rat]) -> list[np.ndarray]:
    """Orthonormal basis {b_ij : v_i != v_j} of the complement Q_v."""
    mask = _row_mask(model, v)
    return [b for c, b in enumerate(model.fperp_basis()) if mask >> c & 1]


def stabilizer_generators(model: ModelSpace, v: Sequence[Rat]) -> list[np.ndarray]:
    """Rotation generators {k_ij : v_i = v_j} of the stabilizer of v."""
    mask = _row_mask(model, v)
    return [model.k_matrix(i, j) for c, (i, j) in enumerate(model.pairs) if not mask >> c & 1]


def _exp_skew(a: np.ndarray) -> np.ndarray:
    """exp of a real skew-symmetric matrix from the eigenbasis of Hermitian 1j*a."""
    lam, vecs = np.linalg.eigh(1j * a)
    return ((vecs * np.exp(-1j * lam)) @ vecs.conj().T).real


# ---------------------------------------------------------------------------
# Angle-ratio sampling.


@dataclass(frozen=True)
class RatioEstimate:
    """A sampled lower bound of one pair's angle-ratio supremum: the
    largest ratio over ``samples`` Haar draws of ``seed``, less the
    ``zero_denominator_count`` draws it excludes."""

    max_ratio: float
    zero_denominator_count: int
    samples: int
    seed: int


_CHUNK = 2000


def ratio_angles(
    i: int, j: int, v_hat: np.ndarray, rotations: np.ndarray, squares: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Angles of h.b_ij to Fperp and of h.diag(v_hat) to F for each rotation
    h, ``v_hat`` a unit vector: the arcsin of the complementary projection
    norm, accurate near zero.  The flat parts are the conjugates' diagonals,
    sqrt(2) h_ki h_kj and sum_l h_kl^2 v_hat_l; ``squares`` is
    ``rotations * rotations``, taken once for many calls.
    """
    x_diag = rotations[:, :, i] * rotations[:, :, j]
    y_diag = squares @ v_hat
    num = np.arcsin(np.clip(np.sqrt(2.0) * np.linalg.norm(x_diag, axis=1), 0.0, 1.0))
    den = np.arcsin(np.sqrt(np.clip(1.0 - np.einsum("bi,bi->b", y_diag, y_diag), 0.0, 1.0)))
    return num, den


def sample_ratios(
    model: ModelSpace,
    pairs: Sequence[tuple[Sequence[Rat], int]],
    samples: int,
    seed: int,
) -> list[RatioEstimate]:
    """Sampled lower bounds of the supremum over rotations h of
    angle(h.b_c, Fperp) / angle(h.v, F), the least C of the angle
    inequality, one per (v, c) pair, every pair scored on the same Haar
    rotations.

    Each ``v`` is an exact flat vector and ``c`` a column of the SL(n)
    selection matrix (b_c is ``fperp_basis()[c]``) set in v's row mask,
    so b_c lies in Q_v; every pair is checked before any draw.  Samples
    whose denominator angle falls below 1e-6 are excluded and counted
    separately.  ``samples`` is an integer of at least 1: no estimate
    rests on zero draws.  ``seed`` is a nonnegative integer, stored as an
    int in each estimate.

    Chunks of fixed size keep the sample stream a prefix of any longer
    run on the same seed, so estimates are nondecreasing in the sample
    count.  Each pair goes through its own ``ratio_angles`` call on each
    chunk, so its estimate is bit for bit the one it gets alone.
    """
    samples = as_int(samples, "sample count", 1)
    seed = as_int(seed, "seed", 0)
    units = []
    for v, c in pairs:
        c = as_int(c, "column")
        if c not in range(len(model.pairs)):
            raise InvalidParamsError(f"column {c} is not one of the {len(model.pairs)} columns")
        if not _row_mask(model, v) >> c & 1:
            raise BNotInQError(f"b_{model.pairs[c]} lies outside Q_v")
        w = np.asarray([float(Fraction(x)) for x in v])
        units.append((*model.pairs[c], w / np.linalg.norm(w)))
    rng = np.random.default_rng(seed)
    best, zeros = [0.0] * len(units), [0] * len(units)
    for start in range(0, samples, _CHUNK):
        hs = _haar_batch(rng, model.n, min(_CHUNK, samples - start))
        squares = hs * hs
        for k, (i, j, v_hat) in enumerate(units):
            num, den = ratio_angles(i, j, v_hat, hs, squares)
            keep = den >= 1e-6
            zeros[k] += int((~keep).sum())
            if keep.any():
                best[k] = max(best[k], float((num[keep] / den[keep]).max()))
    return [RatioEstimate(m, z, samples, seed) for m, z in zip(best, zeros)]


def sample_ratio(
    model: ModelSpace,
    v: Sequence[Rat],
    c: int,
    samples: int,
    seed: int,
) -> RatioEstimate:
    """``sample_ratios`` for the one pair (v, c)."""
    return sample_ratios(model, [(v, c)], samples, seed)[0]


# ---------------------------------------------------------------------------
# Wall snapping.


def snap_to_singular(
    model: ModelSpace, w_hat: Sequence[float], eps0: float | None = None
) -> np.ndarray:
    """Most singular unit vector within eps0 of a unit flat vector (n
    finite entries of sum 0 and norm 1, both to 1e-9).

    Candidate faces are the coordinate-equality subspaces; among those
    whose distance to ``w_hat`` is at most eps0, in [0, 1), the one
    killing the most roots wins.  The all-equal face projects w_hat to 0
    at distance 1, so it is never chosen and a radius of 1 or more is
    refused.  The dynamic
    program below keeps one closest face per vanishing count, so the
    choice is read from its own squared distances.  The result is the
    normalized projection; a regular vector away from all walls comes
    back unchanged.
    """
    w = np.asarray([float(x) for x in w_hat], dtype=float)
    if len(w) != model.n:
        raise DimensionMismatchError(f"snap needs a vector of length {model.n}")
    if not np.isfinite(w).all() or abs(w.sum()) > 1e-9:
        raise NotInFlatError("snap needs a finite vector with zero coordinate sum")
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        raise InvalidParamsError("snap needs a unit vector")
    radius = model.epsilon_zero if eps0 is None else eps0
    if not 0 <= radius < 1:
        raise InvalidParamsError(f"snap radius must lie in [0, 1), got {radius}")
    # The closest face of each vanishing count groups the sorted coordinates
    # into intervals (Fisher 1958): per prefix of the sorted order and
    # vanishing count, keep the least squared distance and its blocks.
    # Blocks are extended one coordinate at a time, over plain floats; each
    # sum runs left to right, numpy's own order for fewer than 8 entries.
    xs = w.tolist()
    order = sorted(range(len(xs)), key=xs.__getitem__)
    ys = sorted(xs)
    best = [{0: (0.0, ())}] + [{} for _ in ys]
    for start in range(len(ys)):
        total = 0.0
        for end in range(start + 1, len(ys) + 1):
            total += ys[end - 1]
            mean = total / (end - start)
            cost = 0.0
            for y in ys[start:end]:
                cost += (y - mean) * (y - mean)
            pairs = (end - start) * (end - start - 1) // 2
            for vanishing, (sq, blocks) in best[start].items():
                if sq + cost < best[end].get(vanishing + pairs, (np.inf,))[0]:
                    best[end][vanishing + pairs] = (sq + cost, blocks + ((start, end),))
    # the regular face has sq == 0.0 exactly, so some face is always in reach;
    # the all-equal face (the origin) is skipped, as the unit tolerance lets
    # it come within a radius just below 1
    vanishing = max(
        k for k, (sq, _) in best[-1].items() if np.sqrt(sq) <= radius and k < len(model.pairs)
    )
    proj = w.copy()
    for start, end in best[-1][vanishing][1]:
        idx = sorted(order[start:end])
        proj[idx] = w[idx].mean()
    return proj / np.linalg.norm(proj)


# ---------------------------------------------------------------------------
# Frame pipelines.


@dataclass(frozen=True, eq=False)
class DoubledFrame:
    """2k near-orthonormal vectors, two per frame vector: the members of
    row a are r.b_c.r^T for its rotation r = ``rotations[a]`` and the
    columns c of ``match.pairs[a]``."""

    model: ModelSpace
    rotations: tuple[np.ndarray, ...]
    gram_deviation: float
    match: MatchResult
    trace: AlgoTrace
    snapped_frame: tuple[tuple[Fraction, ...], ...]

    def members(self) -> list[np.ndarray]:
        """The members as n x n matrices, row by row in column order."""
        pairs = self.model.pairs
        return [
            r @ self.model.b_matrix(*pairs[c]) @ r.T
            for r, row_pair in zip(self.rotations, self.match.pairs)
            for c in row_pair
        ]


def _doubled(
    model: ModelSpace,
    rotations: Sequence[np.ndarray],
    match: MatchResult,
    trace: AlgoTrace,
    snapped_frame: tuple[tuple[Fraction, ...], ...],
) -> DoubledFrame:
    """The doubled frame of a matching carried by one rotation per row,
    with its Gram deviation: the largest
    |<r.b_ij.r^T, s.b_kl.s^T>| between members of two rows, which with
    M = r^T.s is M_ik.M_jl + M_il.M_jk.  Members of one row share their
    rotation, so their inner product is exactly 0."""
    worst = 0.0
    rows = [[model.pairs[c] for c in row_pair] for row_pair in match.pairs]
    for a, b in itertools.combinations(range(len(rows)), 2):
        m = rotations[a].T @ rotations[b]
        for i, j in rows[a]:
            for k, l in rows[b]:
                worst = max(worst, abs(m[i, k] * m[j, l] + m[i, l] * m[j, k]))
    return DoubledFrame(model, tuple(rotations), float(worst), match, trace, snapped_frame)


def _matched(
    model: ModelSpace, frame: Sequence[Sequence[Rat]]
) -> tuple[MatchResult, AlgoTrace, tuple[tuple[Fraction, ...], ...]]:
    """The greedy matching of an exact spanning frame of the flat, its
    trace, and the frame as Fractions: the one step both pipelines
    double."""
    frame_spec = make_frame(model.space, frame)
    vectors = frame_spec.vectors
    if len(vectors) != model.rank or not frame_spec.spanning:
        raise InvalidParamsError("flat pipeline needs a spanning frame of rank vectors")
    try:
        result, trace = greedy_match(build_matrix(frame_spec))
    except NoMatchingError as exc:
        raise MatchFailedError(f"no column matching: {exc}") from exc
    return result, trace, tuple(tuple(Fraction(x) for x in v) for v in vectors)


def pipeline_flat(
    model: ModelSpace,
    frame: Sequence[Sequence[Rat]],
) -> DoubledFrame:
    """Double an exact spanning frame of the flat into b-vectors.

    Builds the selection matrix, runs the greedy matching, and maps the
    chosen columns to their b_ij matrices, each row by the identity
    rotation.  The members are exactly orthonormal and orthogonal to the
    flat.
    """
    match, trace, exact = _matched(model, frame)
    return _doubled(model, (np.eye(model.n),) * len(exact), match, trace, exact)


def _rationalize_flat(vec: np.ndarray) -> tuple[Fraction, ...]:
    """Exact dyadic image of a float flat vector, re-centered to trace zero.

    Equal float coordinates stay equal, so the face structure of a
    snapped vector is preserved exactly.
    """
    fr = [Fraction(float(x)) for x in vec]
    mean = sum(fr) / len(fr)
    return tuple(x - mean for x in fr)


def _align_rotation(h: np.ndarray, target: Sequence[Fraction]) -> np.ndarray:
    """The rotation carrying the flat onto h.diag(w).h^T, aligned with the
    exact snapped target of w: h, with the columns of each block B of
    equal target values turned by the orthogonal polar factor of h[B, B].

    The eigenvectors of h.diag(w).h^T are the columns of h, and any
    eigenbasis h[:, B].O of a block turns to the same columns, since
    polar(A.O) = polar(A).O.  A block of one stays as it is: eps*|u| <
    1/n^2 keeps each h_ii positive, so its polar factor is 1.
    """
    fr = [Fraction(x) for x in target]
    rot = h.copy()
    positions = sorted(range(len(fr)), key=lambda i: (fr[i], i))
    for _value, group in itertools.groupby(positions, key=lambda i: fr[i]):
        block = list(group)
        if len(block) > 1:
            u, _s, vt = np.linalg.svd(h[np.ix_(block, block)])
            rot[:, block] = h[:, block] @ (u @ vt).T
    return rot


def pipeline_perturbed(
    model: ModelSpace,
    frame: Sequence[Sequence[float]],
    u: np.ndarray,
    eps: float,
) -> DoubledFrame:
    """Double a frame conjugated off the flat by exp(eps * u).

    With h = exp(eps * u), each perturbed vector h.diag(w).h^T is
    projected back to the flat as its diagonal sum_l h_kl^2 w_l, snapped
    to the most singular direction in its eps0-ball, and doubled through
    the flat pipeline; its members are carried back by
    ``_align_rotation(h, snapped)``, so no perturbed vector is built or
    decomposed.  The Gram deviation of the members scales linearly with
    eps.
    """
    if any(len(w) != model.n for w in frame):
        raise DimensionMismatchError(f"perturbed pipeline needs vectors of length {model.n}")
    if not eps >= 0:
        raise InvalidParamsError("eps must be nonnegative")
    if eps >= model.epsilon_zero:
        raise EpsilonTooLargeError(
            f"eps must be below 1/(rank+1)^2 = {model.epsilon_zero}"
        )
    u = np.asarray(u, dtype=float)
    if u.shape != (model.n, model.n):
        raise InvalidParamsError("u must be an n x n rotation generator")
    if np.abs(u + u.T).max() > 1e-8:
        raise InvalidParamsError("u must be skew-symmetric")
    norm_u = np.sqrt(trace_inner(u, u.T))
    if abs(norm_u - 1.0) > 1e-6:
        raise InvalidParamsError("u must have unit norm")

    h = _exp_skew(eps * u) if eps > 0 else np.eye(model.n)
    weights = h * h

    snapped_exact: list[tuple[Fraction, ...]] = []
    for w in frame:
        d = weights @ np.asarray([float(x) for x in w], dtype=float)
        d -= d.mean()
        norm_d = float(np.linalg.norm(d))
        if norm_d < 1e-12:
            raise MatchFailedError("projection of a perturbed vector to the flat collapsed")
        snapped = snap_to_singular(model, d / norm_d)
        snapped_exact.append(_rationalize_flat(snapped))

    try:
        match, trace, exact = _matched(model, snapped_exact)
    except InvalidParamsError as exc:
        raise MatchFailedError(f"snapped frame degenerated: {exc}") from exc
    rotations = [_align_rotation(h, target) for target in exact]
    return _doubled(model, rotations, match, trace, exact)


def min_bracket_gain(model: ModelSpace, a: Sequence[Rat]) -> float:
    """Smallest stretch of u -> [u, diag(a)] off the stabilizer algebra:
    the least gap |a_i - a_j| over the set bits of the row mask of a.

    The bracket identity [k_ij/sqrt(2), diag(a)] = (a_j - a_i) b_ij maps
    the normalized generators with a_i != a_j to orthogonal images of
    norm |a_i - a_j|, so the least singular value of the map is the
    least of those gaps, taken exactly.  Reported only; no bound is
    asserted.
    """
    mask = _row_mask(model, a)
    exact = [Fraction(x) for x in a]
    gaps = (abs(exact[i] - exact[j]) for c, (i, j) in enumerate(model.pairs) if mask >> c & 1)
    return float(min(gaps))


def first_order_gram_coefficient(doubled: DoubledFrame, u: np.ndarray) -> float:
    """Leading coefficient in eps of the Gram deviation of a doubled
    frame carried off the flat by exp(eps * u), read from its row masks
    (``doubled.trace.rows``) and matched columns.

    Each doubled member is carried by exp(eps * (u - P_a u)) with P_a u
    the stabilizer projection of its row a: the skew part of u at the
    entries of the clear bits of a's mask, 0 at the set ones.  Members
    of rows a and b sharing one index t, with other indices p and q,
    move apart at the rate |(P_a u)_pq - (P_b u)_pq|, nonzero only
    where bit (p, q) is clear in exactly one of the two masks; members
    sharing no index, or one row, stay orthogonal to first order.  The
    maximum predicts whether the deviation scales linearly or
    degenerates to quadratic.
    """
    pairs = doubled.model.pairs
    skew = (u - u.T) / 2.0
    column = {pair: c for c, pair in enumerate(pairs)}
    rows = list(zip(doubled.trace.rows, doubled.match.pairs))
    worst = 0.0
    for (mask_a, cols_a), (mask_b, cols_b) in itertools.combinations(rows, 2):
        for x in (set(pairs[c]) for c in cols_a):
            for y in (set(pairs[c]) for c in cols_b):
                if len(x & y) == 1:
                    p, q = sorted(x ^ y)
                    if (mask_a ^ mask_b) >> column[p, q] & 1:
                        worst = max(worst, abs(float(skew[p, q])))
    return worst


_MIN_LINEAR_COEFFICIENT = 0.02


def random_perturbation_case(
    model: ModelSpace, seed: int
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A seeded (frame, u) pair exercising the perturbed pipeline.

    The first frame vector sits exactly on a wall: two coordinates
    share one of n-1 jittered equispaced values.  A draw is kept only if
    those values stay more than three snap radii apart after
    normalization, so every other wall is out of the snap's reach.  The
    remaining vectors are completed orthonormally, one Gaussian draw
    each (a draw of norm at most 1e-6 after projection rejects the
    case), and u is a unit rotation generator.  Draws whose first-order
    Gram coefficient, taken on the eps = 0 doubling of the perturbed
    pipeline, is below ``_MIN_LINEAR_COEFFICIENT`` are rejected: a wall
    vector whose doubled members span a stabilizer-invariant plane sees
    no linear term, and a fully regular frame degenerates to quadratic,
    so such cases say nothing about linear scaling.
    """
    rng = np.random.default_rng(seed)
    n = model.n
    for _ in range(1000):
        values = np.arange(n - 1, dtype=float) + rng.uniform(-0.2, 0.2, size=n - 1)
        pair = rng.choice(n, size=2, replace=False)
        order = rng.permutation(n - 1)
        raw = np.empty(n)
        raw[pair[0]] = raw[pair[1]] = values[order[0]]
        rest = [c for c in range(n) if c not in pair]
        for slot, coord in enumerate(rest):
            raw[coord] = values[order[slot + 1]]
        raw -= raw.mean()
        norm_raw = np.linalg.norm(raw)
        if np.diff(np.sort(values)).min() <= 3.0 * model.epsilon_zero * norm_raw:
            continue
        basis = [raw / norm_raw]
        for _k in range(model.rank - 1):
            cand = rng.standard_normal(n)
            cand -= cand.mean()
            for prev in basis:
                cand -= np.dot(cand, prev) * prev
            norm = np.linalg.norm(cand)
            if norm <= 1e-6:
                break
            basis.append(cand / norm)
        if len(basis) < model.rank:
            continue
        s = rng.standard_normal((n, n))
        u = (s - s.T) / 2.0
        u /= np.sqrt(trace_inner(u, u.T))
        try:
            coefficient = first_order_gram_coefficient(pipeline_perturbed(model, basis, u, 0.0), u)
        except MatchFailedError:
            continue
        if coefficient < _MIN_LINEAR_COEFFICIENT:
            continue
        return tuple(basis), u
    raise RuntimeError("could not sample a perturbation case")
