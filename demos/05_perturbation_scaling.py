"""Doubling frames near the flat: wall snapping and linear eps-scaling.

A frame conjugated off the flat by exp(eps * u) is projected back,
snapped to the most singular direction within the safety radius, doubled
through the flat pipeline, and carried back by each vector's aligning
rotation.  The pairwise Gram deviation of the 2k outputs then grows
linearly in eps; the demo prints deviation/eps across three decades.
"""

import numpy as np

from rootmatch import ModelSpace, pipeline_flat, pipeline_perturbed
from rootmatch.modelgeom import first_order_gram_coefficient, random_perturbation_case

model = ModelSpace(4)

# Exact flat input: the doubled frame is exactly orthonormal.
flat = pipeline_flat(model, [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
print("flat pipeline gram deviation:", flat.gram_deviation)
print()

frame, u = random_perturbation_case(model, seed=1)
print("frame vector on a wall:", np.round(frame[0], 4))

for eps in (1e-2, 1e-3, 1e-4):
    out = pipeline_perturbed(model, frame, u, eps)
    print(
        f"eps {eps:7.0e}: gram deviation {out.gram_deviation:.6e}"
        f"  deviation/eps {out.gram_deviation / eps:.6f}"
    )

predicted = first_order_gram_coefficient(pipeline_perturbed(model, frame, u, 1e-4), u)
print()
print(f"first-order coefficient of the snapped frame, from its row masks: {predicted:.6f}")
print("the quotients above converge to this value as eps shrinks")
