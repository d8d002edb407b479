"""Reference checks, computed apart from rootmatch.

Every check takes the program's outputs as plain data and recomputes
the answer with its own arithmetic: integer or ``Fraction`` dot
products for matrix entries, bitmasks for the five properties, modular
and rational elimination for spanning, a direct recount for face
codimensions.  A disagreement raises ``CheckError``.  The module
imports nothing from rootmatch, so it adds nothing to the timed
``import rootmatch``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# A nonzero minor mod p is nonzero over Q.  A prime below 2**15 keeps every
# product inside one machine word; a rare spurious rank drop only costs
# the rational fallback.
_PRIME = 32749


class CheckError(Exception):
    """A program output disagrees with the reference computation."""


def _integer_rows(rows):
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        scale = math.lcm(*(f.denominator for f in fracs))
        out.append([int(f * scale) for f in fracs])
    return out


def _rank_mod_p(rows) -> int:
    work = [[x % _PRIME for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], -1, _PRIME)
        for i in range(rank + 1, len(work)):
            f = work[i][c] * inv % _PRIME
            if f:
                work[i] = [(a - f * b) % _PRIME for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _rank_rational(rows) -> int:
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def rank(rows) -> int:
    """Exact rank of a rational matrix.

    Full rank modulo a prime proves full rank over Q; any other answer
    is recomputed by plain rational elimination.
    """
    ints = _integer_rows(rows)
    r = _rank_mod_p(ints)
    if r == min(len(ints), len(ints[0]) if ints else 0):
        return r
    return _rank_rational(rows)


# ---------------------------------------------------------------------------
# Selection matrices.


class MatrixChecker:
    """Recomputes selection matrices and their five properties.

    Column layouts are validated once per space and kept: each run of
    equal column labels must be one positive root with slots 1..m, every
    positive root must appear exactly once, and the column count must be
    dim X - rank.
    """

    def __init__(self):
        self._layouts = {}

    def _layout(self, space, labels):
        cached = self._layouts.get(space.name)
        if cached is not None and cached[0] is labels:
            return cached[1]
        runs = []
        seen = set()
        j = 0
        while j < len(labels):
            root, slot = labels[j]
            if slot != 1:
                raise CheckError(f"{space.name}: column {j} starts a root at slot {slot}")
            for k in range(root.multiplicity):
                if j + k >= len(labels) or labels[j + k] != (root, k + 1):
                    raise CheckError(f"{space.name}: root {root.coords} not expanded by multiplicity")
            if root.coords in seen:
                raise CheckError(f"{space.name}: root {root.coords} labels two column runs")
            seen.add(root.coords)
            support = [(i, c) for i, c in enumerate(root.coords) if c]
            if len(support) > 2:
                raise CheckError(f"{space.name}: root {root.coords} has more than two coordinates")
            if len(support) == 1:
                support.append((support[0][0], 0))  # a zero second term
            (i, a), (k, b) = support
            runs.append((i, a, k, b, j, root.multiplicity))
            j += root.multiplicity
        if seen != {r.coords for r in space.rootsys.positives}:
            raise CheckError(f"{space.name}: column labels do not cover the positive roots")
        if len(labels) != space.dim_x - space.rank:
            raise CheckError(f"{space.name}: {len(labels)} columns, expected dim X - rank")
        self._layouts[space.name] = (labels, runs)
        return runs

    def entries(self, space, vectors, matrix) -> list[int]:
        """Check every entry; return the rows as column bitmasks.

        Rational vectors are first scaled to integer vectors on the same
        ray, which leaves every root's vanishing unchanged.
        """
        runs = self._layout(space, matrix.col_labels)
        vectors = _integer_rows(vectors)
        if matrix.rows != len(vectors) or len(matrix.entries) != len(vectors):
            raise CheckError(f"{space.name}: {matrix.rows} rows for {len(vectors)} vectors")
        if matrix.cols != len(matrix.col_labels):
            raise CheckError(f"{space.name}: cols field disagrees with the labels")
        masks = []
        for r, v in enumerate(vectors):
            row = bytearray(matrix.cols)
            mask = 0
            for i, a, k, b, pos, mult in runs:
                if a * v[i] + b * v[k]:
                    row[pos : pos + mult] = b"\x01" * mult
                    mask |= ((1 << mult) - 1) << pos
            got = matrix.entries[r]
            if len(got) != len(row) or bytes(got) != row:
                j = next((j for j in range(len(row)) if j >= len(got) or got[j] != row[j]), len(row))
                raise CheckError(f"{space.name}: entry ({r}, {j}) differs from the root's value")
            masks.append(mask)
        return masks

    @staticmethod
    def properties(space, masks, cols, report) -> None:
        """Re-derive the five properties and require the program's verdicts."""
        n = space.rank
        weights = [m.bit_count() for m in masks]
        union = 0
        for m in masks:
            union |= m
        so_type = space.name.startswith("SL(")  # K = SO(n+1) exactly for SL(n+1,R)
        light = [i for i, w in enumerate(weights) if w < 2 * n - 2]
        pairs = range(len(masks))
        want = (
            union == (1 << cols) - 1,
            min(weights) >= n,
            so_type or not light,
            all(
                weights[i] >= 2 * n - 1
                for i in pairs
                for j in pairs
                if i < j and masks[i] == masks[j]
            ),
            all((masks[i] & masks[j]).bit_count() <= 1 for i in light for j in light if i < j),
        )
        if tuple(report.verdicts) != want:
            raise CheckError(f"{space.name}: property verdicts {report.verdicts}, reference {want}")
        if not all(want):
            raise CheckError(f"{space.name}: a spanning frame fails the properties {want}")


def check_matching(masks, cols, pairs) -> None:
    """Two 1-entries per row, all 2n columns distinct."""
    if len(pairs) != len(masks):
        raise CheckError(f"matching has {len(pairs)} pairs for {len(masks)} rows")
    used = set()
    for i, (j, k) in enumerate(pairs):
        for c in (j, k):
            if not (type(c) is int and 0 <= c < cols and masks[i] >> c & 1):
                raise CheckError(f"row {i}: column {c} is not a 1-entry")
        used.update((j, k))
        if j == k:
            raise CheckError(f"row {i}: both choices are column {j}")
    if len(used) != 2 * len(masks):
        raise CheckError(f"matching reuses a column: {len(used)} distinct of {2 * len(masks)}")


# ---------------------------------------------------------------------------
# Codimension bounds.


def _bound_rule(space):
    """(bound, ok) for the space's type of K, read from its name."""
    n = space.rank
    if space.name.startswith("SL("):
        return 2 * n - 2, lambda d: d >= 2 * n - 2 or d == n
    so = re.fullmatch(r"SO\((\d+),(\d+)\)", space.name)
    if so:
        bound = 2 * n - 2 + int(so.group(2)) - int(so.group(1))
        return bound, lambda d: d >= bound
    return 2 * n - 1, lambda d: d >= 2 * n - 1


def check_codim(space, report, faces) -> int:
    """Recount each face's codimension from its witness; return the face count."""
    n = space.rank
    witness = {f.simple_subset: f.witness for f in faces}
    bound, rule = _bound_rule(space)
    if len(report.entries) != 2**n - 2:
        raise CheckError(f"{space.name}: {len(report.entries)} faces, expected {2**n - 2}")
    for e in report.entries:
        w = witness.get(e.simple_subset)
        if w is None or not any(w):
            raise CheckError(f"{space.name}: face {e.simple_subset} has no nonzero witness")
        d = sum(
            r.multiplicity
            for r in space.rootsys.positives
            if sum(c * x for c, x in zip(r.coords, w)) != 0
        )
        if e.codim != d or e.bound != bound or e.ok != rule(d):
            raise CheckError(
                f"{space.name}: face {e.simple_subset} codim {e.codim} bound {e.bound} "
                f"ok {e.ok}; reference {d}, {bound}, {rule(d)}"
            )
        if not rule(d):
            raise CheckError(f"{space.name}: face {e.simple_subset} violates the bound")
    if report.passed is not True:
        raise CheckError(f"{space.name}: report not passed although every face holds")
    return len(report.entries)


# ---------------------------------------------------------------------------
# The model: verify reports and snapped vectors.


def check_verify_report(code: int, text: str) -> None:
    if code != 0:
        raise CheckError(f"verify exited {code}")
    report = json.loads(text)
    if report["flat_gram_deviation"] != 0:
        raise CheckError(f"flat Gram deviation {report['flat_gram_deviation']} != 0")
    quotients = []
    for eps, dev in report["gram_deviation_by_epsilon"].items():
        if not dev > 0:
            raise CheckError(f"Gram deviation {dev} at eps {eps} is not above 0")
        quotients.append(dev / float(eps))
    if not quotients or max(quotients) > 10 * min(quotients):
        raise CheckError(f"deviation / eps spread beyond 10x: {quotients}")
    ratios = [
        report["flat_ratio_estimate"],
        *report["max_ratio_per_pair"].values(),
        *report["max_ratio_by_seed"],
    ]
    if not all(math.isfinite(r) and r > 0 for r in ratios):
        raise CheckError(f"ratio estimates not finite and positive: {ratios}")
    if report["passed"] is not True:
        raise CheckError("verify report not passed")


def _equal_pairs(x) -> int:
    return sum(1 for i in range(len(x)) for j in range(i + 1, len(x)) if x[i] == x[j])


def check_snap(w, radius, out) -> None:
    """A snapped vector is unit, the normalized projection of its input
    onto its own coordinate-equality face within ``radius``, and at least
    as singular as the input."""
    w = [float(x) for x in w]
    out = [float(x) for x in out]
    if abs(math.sqrt(sum(x * x for x in out)) - 1.0) > 1e-12:
        raise CheckError("snapped vector is not unit")
    blocks = {}
    for i, x in enumerate(out):
        blocks.setdefault(x, []).append(i)
    proj = list(w)
    for idx in blocks.values():
        mean = sum(w[i] for i in idx) / len(idx)
        for i in idx:
            proj[i] = mean
    dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(w, proj)))
    norm = math.sqrt(sum(x * x for x in proj))
    if dist > radius + 1e-12 or norm == 0:
        raise CheckError(f"snapped face lies {dist} from the input, radius {radius}")
    if max(abs(p / norm - o) for p, o in zip(proj, out)) > 1e-12:
        raise CheckError("snapped vector is not on its coordinate-equality face")
    if _equal_pairs(out) < _equal_pairs(w):
        raise CheckError("snapping lost an equal coordinate pair")
