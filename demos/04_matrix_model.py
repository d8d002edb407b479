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
from rootmatch.exact import cayley
from rootmatch.modelgeom import trace_inner

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
# degenerate case of the ratio inequality, decided exactly.  The Cayley
# rotation h = num / det of (13/10) k, k one generator, is rational, and
# the flat part of h b_ij h^T is its diagonal, sqrt(2) h_ki h_kj.
q_pairs = [(i, j) for i, j in model.pairs if v[i] != v[j]]
worst = Fraction(0)
for k in gens:
    num, det = cayley(13 * k, 10)
    for i, j in q_pairs:
        worst = max(worst, *(Fraction(abs(row[i] * row[j]), det * det) for row in num))
print("  worst flat component under stabilizer rotations:", worst, "(exact)")
print()

est = sample_ratio(model, v, model.pairs.index((0, 3)), samples=20_000, seed=1)
print(
    f"sampled angle-ratio bound for b_14: max {est.max_ratio:.4f}"
    f" over {est.samples} rotations ({est.zero_denominator_count} degenerate skipped)"
)
