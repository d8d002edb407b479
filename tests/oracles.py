"""Reference computations the tests compare the package against."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from rootmatch.chamber import fundamental_coweights
from rootmatch.errors import DimensionMismatchError, ZeroVectorError
from rootmatch.exact import exact_rank, primitive_integer
from rootmatch.modelgeom import pipeline_flat, trace_inner


def evaluate_root(root, v):
    """Exact value of the root functional on a vector of the flat: the
    oracle that ``RootSystem.row_masks`` is checked against."""
    if len(v) != len(root.coords):
        raise DimensionMismatchError(
            f"vector has length {len(v)}, root expects {len(root.coords)}"
        )
    return sum(c * x for c, x in zip(root.coords, v) if c)


def fraction_inverse(rows):
    """The inverse of a square rational matrix as lists of Fractions, by
    plain Gauss-Jordan on ``[rows | I]``, or None when it is singular:
    the oracle for ``exact.integer_inverse``."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = aug[c][c]
        aug[c] = [a / lead for a in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


@functools.lru_cache(maxsize=None)
def set_partitions(n):
    """Every set partition of range(n), each block ascending and the blocks
    ordered by their least element: Bell(n) of them, the flats of SL(n)."""
    out = []
    blocks = []

    def rec(i):
        if i == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1)
            b.pop()
        blocks.append([i])
        rec(i + 1)
        blocks.pop()

    rec(0)
    return tuple(out)


def helmert_rows(n):
    """Rows 1..n-1 of the n x n Helmert matrix from its definition: row k
    is k ones, then -k, then zeros, each entry divided by sqrt(k(k+1)):
    the oracle of ``ModelSpace.flat_basis``."""
    rows = np.zeros((n - 1, n))
    for k in range(1, n):
        rows[k - 1, :k] = 1 / math.sqrt(k * (k + 1))
        rows[k - 1, k] = -k / math.sqrt(k * (k + 1))
    return rows


def expm_by_taylor(a):
    """exp of a square matrix by scaling and squaring (Higham 2005): a
    scaled by 2**-s to a max-row-sum norm of at most 1/2, its Taylor
    series summed until a term adds nothing, then squared s times: the
    oracle of ``modelgeom._exp_skew``."""
    norm = float(np.abs(a).sum(axis=1).max())
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm else 0
    scaled = a / 2.0**s
    term = result = np.eye(len(a))
    for k in range(1, 40):
        term = term @ scaled / k
        if not np.any(result + term != result):
            break
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def angle_to_subspace(v, basis):
    """Angle arccos(|proj| / |v|) between a vector and a subspace, for the
    trace form: the oracle of ``modelgeom.ratio_angles``.

    ``basis`` must be orthonormal to within 1e-10; a skewed one raises
    ``ValueError``.
    """
    norm = np.sqrt(trace_inner(v, v))
    if norm < 1e-12:
        raise ZeroVectorError("angle of the zero vector is undefined")
    basis = list(basis)
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            expected = 1.0 if a == b else 0.0
            if abs(trace_inner(basis[a], basis[b]) - expected) > 1e-10:
                raise ValueError(f"basis Gram deviates at pair {(a, b)}")
    proj_sq = sum(trace_inner(v, w) ** 2 for w in basis)
    ratio = min(1.0, np.sqrt(max(proj_sq, 0.0)) / norm)
    return float(np.arccos(ratio))


def stabilizer_projection(model, mask, u):
    """Component of a rotation generator inside the stabilizer algebra of a
    vector with row mask ``mask``, as the sum of its inner products with
    the normalized generators k_ij/sqrt(2) of the clear bits: the oracle
    of the skew part that ``modelgeom.first_order_gram_coefficient``
    reads at the clear bits."""
    proj = np.zeros((model.n, model.n))
    for c, (i, j) in enumerate(model.pairs):
        if not mask >> c & 1:
            khat = model.k_matrix(i, j) / np.sqrt(2.0)
            proj += float(np.sum(u * khat)) * khat
    return proj


def gram_deviation_by_trace(members):
    """Largest |tr(x y)| over pairs of distinct dense members: the oracle
    of ``DoubledFrame.gram_deviation``."""
    return max(
        abs(trace_inner(x, y)) for a, x in enumerate(members) for y in members[a + 1 :]
    )


def first_order_coefficient_by_commutators(model, frame, u):
    """Largest |<[P_a u, x], y> + <x, [P_b u, y]>| over members x of row a
    and y of row b > a of the flat pipeline's doubling of an exact frame,
    P the ``stabilizer_projection`` of each row: the oracle of
    ``modelgeom.first_order_gram_coefficient``."""
    flat = pipeline_flat(model, frame)
    members = flat.members()
    projections = [stabilizer_projection(model, mask, u) for mask in flat.trace.rows]
    comm = lambda a, b: a @ b - b @ a
    worst = 0.0
    for i, j in itertools.combinations(range(len(projections)), 2):
        for x in members[2 * i : 2 * i + 2]:
            for y in members[2 * j : 2 * j + 2]:
                c = trace_inner(comm(projections[i], x), y) + trace_inner(
                    x, comm(projections[j], y)
                )
                worst = max(worst, abs(c))
    return worst


def align_rotation_by_eigh(v_mat, target):
    """Orthogonal alignment of the eigenframe of a perturbed vector v_mat
    onto the coordinate axes of its exact snapped target: the oracle of
    ``modelgeom._align_rotation``.

    Eigenvalues from ``eigh`` are paired with the target coordinates in
    sorted order; within each block of equal target values the residual
    block rotation is removed through its orthogonal polar factor.
    """
    n = len(target)
    _lam, vecs = np.linalg.eigh(v_mat)
    fr = [Fraction(x) for x in target]
    positions = sorted(range(n), key=lambda i: (fr[i], i))
    m = np.empty((n, n))
    for eig_index, pos in enumerate(positions):
        m[:, pos] = vecs[:, eig_index]
    rot = m.copy()
    for _value, group in itertools.groupby(positions, key=lambda i: fr[i]):
        block = sorted(group)
        u, _s, vt = np.linalg.svd(m[np.ix_(block, block)])
        rot[:, block] = m[:, block] @ (u @ vt).T
    return rot


def haar_batch_by_lapack_qr(rng, n, count):
    """The Q factors of ``count`` Gaussian n x n matrices by LAPACK's QR,
    each column signed so R has a positive diagonal: the oracle of
    ``modelgeom._haar_batch``, drawing the same matrices from ``rng``."""
    z = rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    signs = np.where(np.einsum("bii->bi", r) < 0, -1.0, 1.0)
    return q * signs[:, None, :]


def snap_by_numpy_blocks(w, radius):
    """The snap of a unit flat vector ``w`` (a float array) within
    ``radius``, by the dynamic program of ``modelgeom.snap_to_singular``
    with one numpy reduction per (start, end) block: the oracle of its
    plain-float sums."""
    order = np.argsort(w, kind="stable")
    best = [{0: (0.0, ())}] + [{} for _ in w]
    for end in range(1, len(w) + 1):
        for start in range(end):
            block = w[order[start:end]]
            cost = float(((block - block.mean()) ** 2).sum())
            pairs = (end - start) * (end - start - 1) // 2
            for vanishing, (sq, blocks) in best[start].items():
                if sq + cost < best[end].get(vanishing + pairs, (np.inf,))[0]:
                    idx = np.sort(order[start:end])
                    best[end][vanishing + pairs] = (sq + cost, blocks + (idx,))
    all_equal = len(w) * (len(w) - 1) // 2
    vanishing = max(
        k for k, (sq, _) in best[-1].items() if np.sqrt(sq) <= radius and k < all_equal
    )
    proj = w.copy()
    for idx in best[-1][vanishing][1]:
        proj[idx] = w[idx].mean()
    return proj / np.linalg.norm(proj)


def random_frames_by_attempt(space, count, seed, *, singular_fraction=0.5, max_attempts=200):
    """The fuzz sampler's word layout read one attempt at a time: the
    attempt's raw PCG64 words drawn by one ``random_raw`` call, each half
    decoded by plain int arithmetic, and each attempt tested by exact rank.
    Returns the frames' vectors, or raises ``RuntimeError`` after
    ``max_attempts`` rejected attempts in a row: the oracle of the numpy
    build in ``framematrix.random_frames``."""
    bitgen = np.random.PCG64(seed)
    k, dim, family = space.rank, space.coord_dim, space.rootsys.family
    coweights = [primitive_integer(w) for w in fundamental_coweights(space.rootsys)]
    used = 2 + k * (1 + k + dim + 4)

    def attempt():
        halves = []
        for word in bitgen.random_raw((used + 1) // 2).tolist():
            halves += [word % 2**32, word >> 32]
        read = iter(halves).__next__
        singular, size = read(), read()
        n_singular = 1 + size * k // 2**32 if singular < math.ceil(singular_fraction * 2**32) else 0
        vectors = []
        for slot in range(k):
            mask = 1 + read() * (2**k - 2) // 2**32
            coefficients = [1 + read() // 2**30 for _ in range(k)]
            v = [-9 + read() * 19 // 2**32 for _ in range(dim)]
            collide, pick_i, pick_j, choice = read(), read(), read(), read()
            if slot < n_singular:
                face = [0] * dim
                for i, c in enumerate(coefficients):
                    if not mask >> i & 1:
                        face = [a + c * x for a, x in zip(face, coweights[i])]
                vectors.append(face)
                continue
            if dim >= 2 and collide < math.ceil(0.3 * 2**32):
                i = pick_i * dim // 2**32
                j = (i + 1 + pick_j * (dim - 1) // 2**32) % dim
                if family == "A" or choice < 2**31:
                    v[j] = v[i]
                elif choice < math.ceil(0.8 * 2**32):
                    v[j] = -v[i]
                else:
                    v[j] = 0
            if family == "A":
                total = sum(v)
                v = [dim * x - total for x in v]
            vectors.append(v)
        return vectors

    frames = []
    while len(frames) < count:
        for _ in range(max_attempts):
            vectors = attempt()
            if exact_rank(vectors) == k:
                frames.append(tuple(map(tuple, vectors)))
                break
        else:
            raise RuntimeError(f"could not sample a spanning frame for {space.name}")
    return frames
