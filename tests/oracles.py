"""Reference computations the tests compare the package against."""

import numpy as np

from rootmatch.errors import DimensionMismatchError, ZeroVectorError
from rootmatch.modelgeom import trace_inner


def evaluate_root(root, v):
    """Exact value of the root functional on a vector of the flat: the
    oracle that ``RootSystem.row_masks`` is checked against."""
    if len(v) != len(root.coords):
        raise DimensionMismatchError(
            f"vector has length {len(v)}, root expects {len(root.coords)}"
        )
    return sum(c * x for c, x in zip(root.coords, v) if c)


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
    of ``modelgeom._stabilizer_projection``."""
    proj = np.zeros((model.n, model.n))
    for c, (i, j) in enumerate(model.pairs):
        if not mask >> c & 1:
            khat = model.k_matrix(i, j) / np.sqrt(2.0)
            proj += float(np.sum(u * khat)) * khat
    return proj
