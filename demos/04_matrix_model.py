"""The symmetric-matrices model: bases, brackets, and invariant angles.

Tangent vectors at the base point are traceless symmetric matrices under
the trace form; the flat is the diagonal subspace.  The off-diagonal
units b_ij form an orthonormal basis of its complement, each spanned by
a bracket [k_ij, a] of a rotation generator against the flat.  For a
flat vector v, the complement Q_v collects the b_ij with v_i != v_j and
is invariant under the stabilizer of v; Haar sampling then estimates the
constant in the angle-ratio inequality.
"""

from fractions import Fraction

import numpy as np

from rootmatch import ModelSpace, q_subspace, sample_ratio, stabilizer_generators
from rootmatch.modelgeom import stabilizer_rotation, trace_inner

model = ModelSpace(4)

# Exact bracket: [k_ij, diag(t)] = (t_j - t_i)(E_ij + E_ji), decided in
# object arrays of the integer generator and Fractions, no floating point
# involved.
t = [Fraction(5, 2), Fraction(-1, 3), Fraction(7, 6), Fraction(-10, 3)]
k, d = model.k_matrix(0, 1).astype(object), np.diag(t)
bracket = k @ d - d @ k
print("[k_01, diag(t)] =")
for row in bracket:
    print("  ", [str(x) for x in row])
print("expected factor t_1 - t_0 =", t[1] - t[0])
print()

basis = model.fperp_basis()
gram = np.array([[trace_inner(a, b) for b in basis] for a in basis])
print("Gram deviation of the b basis:", np.abs(gram - np.eye(len(basis))).max())
print()

v = (1, 1, 1, -3)
print("flat vector", v)
print("  Q_v has", len(q_subspace(model, v)), "basis vectors")
gens = stabilizer_generators(model, v)
print("  stabilizer has", len(gens), "generators")

# Stabilizer rotations keep Q_v inside the complement of the flat: the
# degenerate case of the ratio inequality, checked directly.
worst = 0.0
for coeffs in 1.3 * np.eye(len(gens)):
    h = stabilizer_rotation(model, gens, coeffs)  # exp(1.3 k) of one generator k
    for b in q_subspace(model, v):
        moved = h @ b @ h.T
        worst = max(worst, float(np.linalg.norm(np.diag(moved))))
print("  worst flat component under stabilizer rotations:", worst)
print()

est = sample_ratio(model, v, model.pairs.index((0, 3)), samples=20_000, seed=1)
print(
    f"sampled angle-ratio bound for b_14: max {est.max_ratio:.4f}"
    f" over {est.samples} rotations ({est.zero_denominator_count} degenerate skipped)"
)
