"""The acceptance checks, one function each, shared by ``rootmatch all``,
``rootmatch verify`` and ``tests/test_acceptance.py``.

Every check takes the four inputs of ``rootmatch all`` and returns a
line of evidence; on the first failure it raises ``CheckFailedError``
with the failing detail.  ``--seeds`` picks the fuzz corpus (its first
seed) and the ratio-sample seeds; every other random instance is fixed
below, so the defaults run exactly the acceptance suite.  The model's
identities (criteria 6, 7 and 9) are integer decisions.  The checks of
criteria 8-10 judge each instance through a ``judge_*`` function, which
``rootmatch verify`` calls on its own instance, and ``run`` runs named
checks for both commands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

import numpy as np

from .chamber import enumerate_faces, verify_codim_bounds
from .errors import CheckFailedError, NoMatchingError
from .exact import cayley
from .framematrix import build_matrix, make_frame, random_frames, verify_properties
from .matcher import AlgoTrace, DeferralRecord, greedy_match, oracle_match, validate
from .modelgeom import (
    DoubledFrame,
    ModelSpace,
    RatioEstimate,
    pipeline_flat,
    pipeline_perturbed,
    random_perturbation_case,
    sample_ratio,
)
from .rootdata import KTYPE_SO_PAIR, catalogue, dimension_errors, space

MATRIX_SEED = 99  # unconstrained random matrices
ALGEBRA_SEED = 6  # rational diagonals of the bracket identity
ZERO_CASE_SEED = 7  # stabilizer rotation coefficients
PIPELINE_SEED = 9  # flat-pipeline frames
EPS_CASES = range(1, 11)  # perturbation cases of the eps sweep


@dataclass(frozen=True)
class Inputs:
    """The inputs of ``rootmatch all``; the defaults are its defaults."""

    fuzz_count: int = 1000
    samples: int = 10_000
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    epsilons: tuple[float, ...] = (1e-2, 1e-3, 1e-4)


def catalogue_identities(inputs: Inputs) -> str:
    """Criterion 1: dimension identities and the column bound, every space."""
    spaces = catalogue()
    errors = [e for s in spaces for e in dimension_errors(s)]
    if errors:
        raise CheckFailedError("; ".join(errors))
    return f"{len(spaces)} spaces"


def codim_bounds_rank_2_to_8(inputs: Inputs) -> str:
    """Criterion 2: codimension bounds, per-ktype minimum and SL end walls."""
    checked = faces = 0
    for s in catalogue():
        if s.excluded:
            continue
        n = s.rank
        if not 2 <= n <= 8:
            raise CheckFailedError(f"{s.name}: rank {n} outside 2..8")
        report = verify_codim_bounds(s)
        if not report.passed:
            raise CheckFailedError(f"{s.name}: codimension bound violated")
        if s.name.startswith("SL("):
            walls = {e.simple_subset for e in report.faces_at_rank}
            if walls != {tuple(range(n - 1)), tuple(range(1, n))}:
                raise CheckFailedError(f"{s.name}: rank attained on {sorted(walls)}")
        elif s.ktype == KTYPE_SO_PAIR:
            if report.min_codim != 2 * n - 2 + s.param("r"):
                raise CheckFailedError(f"{s.name}: min codim {report.min_codim} != 2n - 2 + r")
        elif report.min_codim < 2 * n - 1:
            raise CheckFailedError(f"{s.name}: min codim {report.min_codim} < 2n - 1")
        checked += 1
        faces += len(report.entries)
    return f"{checked} spaces, {faces} faces"


def fuzz_properties_and_matching(inputs: Inputs) -> str:
    """Criteria 3 and 4: the five properties and a validated, oracle-confirmed
    matching on every fuzz frame of every space of rank 2..6.  Every pair
    Hall's guard deferred, 368 on the default corpus, has its witness
    checked (``_check_witness``); the evidence counts the runs in which the
    guard deferred a pair, and the pairs."""
    checked = singular = equal_row_pairs = deferring = deferred = 0
    for s in catalogue():
        if s.excluded or not 2 <= s.rank <= 6:
            continue
        frames = random_frames(s, inputs.fuzz_count, seed=inputs.seeds[0])
        if len(frames) != inputs.fuzz_count:
            raise CheckFailedError(f"{s.name}: {len(frames)} frames drawn, not {inputs.fuzz_count}")
        regular_weight = s.dim_x - s.rank
        for index, frame in enumerate(frames):
            where = f"{s.name} frame {index}"
            matrix = build_matrix(frame)
            report = verify_properties(matrix, s)
            if not report.passed:
                raise CheckFailedError(f"{where}: properties failed: {report.witnesses}")
            try:
                result, trace = greedy_match(matrix)
            except NoMatchingError:
                raise CheckFailedError(f"{where}: greedy found no matching") from None
            if not validate(matrix, result):
                raise CheckFailedError(f"{where}: greedy pairs fail validation")
            if oracle_match(matrix) is None:
                raise CheckFailedError(f"{where}: oracle found no matching")
            for d in trace.repairs:
                _check_witness(trace, d, where)
            checked += 1
            equal_row_pairs += len(report.equal_row_pairs)
            singular += any(w < regular_weight for w in matrix.row_weights)
            deferring += bool(trace.repairs)
            deferred += len(trace.repairs)
    if singular <= checked // 10:
        raise CheckFailedError(f"only {singular} of {checked} frames are singular, not over 10%")
    return (
        f"{checked} frames ({singular} singular, {equal_row_pairs} equal-row pairs,"
        f" {deferring} deferring runs, {deferred} deferred pairs)"
    )


def _check_witness(trace: AlgoTrace, d: DeferralRecord, where: str) -> None:
    """Hall's witness of a deferred pair: none of its blocking rows S is
    the top row of a stage up to the deferral's, and once the earlier
    stages' pairs and the deferred pair are taken, the rows of S hold
    fewer than 2|S| of the columns left, so S is not empty."""
    taken = 1 << d.pair[0] | 1 << d.pair[1]
    for _top, (a, b) in trace.picks[: d.stage - 1]:
        taken |= 1 << a | 1 << b
    held = 0
    for i in d.blocking_rows:
        held |= trace.rows[i]
    done = {top for top, _pair in trace.picks[: d.stage]}
    short = (held & ~taken).bit_count() < 2 * len(d.blocking_rows)
    if done.intersection(d.blocking_rows) or not short:
        raise CheckFailedError(f"{where}: the pair deferred at stage {d.stage} has no Hall witness")


def unconstrained_matching(inputs: Inputs) -> str:
    """Criterion 4 beyond selection matrices: on 1,000 random 0/1 matrices,
    every greedy matching validates and the oracle confirms it."""
    rng = np.random.default_rng(MATRIX_SEED)
    matched = 0
    for index in range(1000):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 18))
        matrix = (rng.random((rows, cols)) < rng.uniform(0.15, 0.95)).astype(int).tolist()
        try:
            result, _trace = greedy_match(matrix)
        except NoMatchingError:
            continue
        if not validate(matrix, result) or oracle_match(matrix) is None:
            raise CheckFailedError(f"matrix {index}: greedy pairs fail validation or the oracle")
        matched += 1
    if matched <= 100:
        raise CheckFailedError(f"only {matched} of 1000 matrices matched")
    return f"{matched} of 1000 random matrices matched"


def hand_derived_instance(inputs: Inputs) -> str:
    """Criterion 5: the hand-derived SL(4,R) frame, its matrix and exact greedy trace."""
    sl4 = space("SL(4,R)")
    frame = make_frame(sl4, [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    matrix = build_matrix(frame)
    if matrix.entries != ((0, 0, 1, 0, 1, 1), (1, 1, 1, 0, 0, 0), (1, 0, 1, 1, 0, 1)):
        raise CheckFailedError(f"matrix {matrix.entries}")
    if not verify_properties(matrix, sl4).passed:
        raise CheckFailedError("properties failed")
    try:
        result, trace = greedy_match(matrix)
    except NoMatchingError:
        raise CheckFailedError("greedy found no matching") from None
    labels = [
        ["".join(str(i + 1) for i in matrix.col_labels[c][0].support) for c in pair]
        for pair in result.pairs
    ]
    if labels != [["14", "24"], ["12", "13"], ["23", "34"]]:
        raise CheckFailedError(f"pairs {labels}")
    if trace.picks != ((0, (2, 4)), (1, (0, 1)), (2, (3, 5))) or trace.repairs:
        raise CheckFailedError(f"trace {trace.picks}, deferred {trace.repairs}")
    return "SL(4,R) wall frame: matrix, pairs and trace exact"


def bracket_identity_exact(inputs: Inputs) -> str:
    """Criterion 6: [k_ij, diag(t)] = (t_j - t_i) p_ij exactly, n = 3..8,
    with p_ij = |k_ij|: numpy object arrays of the integer generator and
    Fraction diagonals, so every product is exact."""
    rng = np.random.default_rng(ALGEBRA_SEED)
    checked = 0
    for n in range(3, 9):
        model = ModelSpace(n)
        t = [
            Fraction(int(p), int(q))
            for p, q in zip(rng.integers(-9, 10, size=n), rng.integers(1, 7, size=n))
        ]
        d = np.diag(t)
        for i, j in itertools.combinations(range(n), 2):
            k = model.k_matrix(i, j).astype(object)
            if not ((k @ d - d @ k) == (t[j] - t[i]) * abs(k)).all():
                raise CheckFailedError(f"bracket identity fails at n={n}, pair ({i}, {j})")
            checked += 1
    return f"{checked} index pairs at n=3..8"


def fperp_gram_identity(inputs: Inputs) -> str:
    """Criterion 6: one Fperp member b_ij = |k_ij| / sqrt(2) per column,
    and the integer |k_ij| have Gram matrix exactly 2I, n = 3..8."""
    members = 0
    for n in range(3, 9):
        model = ModelSpace(n)
        if len(model.pairs) != model.space.columns:
            raise CheckFailedError(f"n={n}: {len(model.pairs)} basis members, not one per column")
        p = np.array([np.abs(model.k_matrix(i, j)) for i, j in model.pairs])
        if not np.array_equal(np.einsum("aij,bji->ab", p, p), 2 * np.eye(len(p), dtype=int)):
            raise CheckFailedError(f"n={n}: the Gram matrix of the |k_ij| is not 2I")
        members += len(p)
    return f"{members} members at n=3..8, Gram matrix of the |k_ij| exactly 2I"


def stabilizer_zero_case(inputs: Inputs) -> str:
    """Criterion 7: 50 stabilizer rotations per proper face keep Q_v
    exactly perpendicular to the flat, n = 4, 5.  Each is the ``cayley``
    rotation h of p/q times the k_ij of the roots the face's witness v
    kills (p in [-20, 20], q in [1, 10]): h_ab = 0 wherever v_a != v_b,
    and h_ki.h_kj = 0 for every k and every other column's b_ij."""
    rng = np.random.default_rng(ZERO_CASE_SEED)
    checked = 0
    for n in (4, 5):
        model = ModelSpace(n)
        full = tuple(range(model.rank))
        for face in enumerate_faces(model.space):
            if not face.simple_subset or face.simple_subset == full:
                continue
            where, v = f"n={n} face {face.simple_subset}", face.witness
            gens = [root.support for root in face.vanishing]
            if not gens:
                raise CheckFailedError(f"{where}: no stabilizer")
            members = [pair for pair in model.pairs if pair not in gens]
            ps = rng.integers(-20, 21, size=(50, len(gens))).tolist()
            for p, q in zip(ps, rng.integers(1, 11, size=(50, len(gens))).tolist()):
                d = lcm(*q)
                skew = [[0] * n for _ in range(n)]
                for (i, j), a, b in zip(gens, p, q):
                    skew[i][j], skew[j][i] = a * d // b, -a * d // b
                h, _det = cayley(skew, d)
                if any(h[a][b] for a in range(n) for b in range(n) if v[a] != v[b]):
                    raise CheckFailedError(f"{where}: a rotation moves v")
                for i, j in members:
                    if any(row[i] * row[j] for row in h):
                        raise CheckFailedError(f"{where}: b_{i}{j} leaves Fperp")
                    checked += 1
    return f"{checked} rotated Q_v members"


def ratio_estimate(samples: int, seed: int) -> RatioEstimate:
    """Criterion 8's sampled lower bound of the angle-ratio supremum:
    direction b_14 at the SL(4,R) wall vector (1, 1, 1, -3)."""
    model = ModelSpace(4)
    return sample_ratio(model, (1, 1, 1, -3), model.pairs.index((0, 3)), samples, seed)


def judge_seed_spread(estimates: Sequence[float], samples: int) -> str:
    """Criterion 8's verdict on one sampled lower bound per seed: all
    finite and positive, and the largest below twice the smallest."""
    if not all(np.isfinite(e) and e > 0 for e in estimates):
        raise CheckFailedError(f"estimates {estimates}")
    lo, hi = min(estimates), max(estimates)
    if hi >= 2.0 * lo:
        raise CheckFailedError(f"estimates [{lo:.3f}, {hi:.3f}] spread 2x or more")
    return f"{len(estimates)} seeds x {samples} samples in [{lo:.3f}, {hi:.3f}]"


def ratio_stability(inputs: Inputs) -> str:
    """Criterion 8: the sampled lower bound of the angle-ratio supremum is
    finite, positive and within 2x across seeds."""
    estimates = [ratio_estimate(inputs.samples, s).max_ratio for s in inputs.seeds]
    return judge_seed_spread(estimates, inputs.samples)


def judge_doubled_frame(model: ModelSpace, out: DoubledFrame) -> str:
    """Criterion 9's verdict on one doubled frame of the flat pipeline:
    2k members of distinct columns, Gram deviation exactly 0, and every
    rotation exactly the identity, so that the members are the b_c of
    their columns, exactly orthonormal and perpendicular to the flat."""
    n = model.n
    members = 2 * min(len(out.rotations), len(out.match.pairs))
    columns = {c for row_pair in out.match.pairs for c in row_pair}
    if members != 2 * model.rank or len(columns) != 2 * model.rank:
        raise CheckFailedError(f"n={n}: {members} members, not 2k distinct")
    if out.gram_deviation != 0:
        raise CheckFailedError(f"n={n}: Gram deviation {out.gram_deviation:.3e}")
    if not all(np.array_equal(r, np.eye(n)) for r in out.rotations):
        raise CheckFailedError(f"n={n}: member not unit or not perp to the flat")
    return f"{members} members, Gram deviation {out.gram_deviation:.1e}"


def flat_pipeline(inputs: Inputs) -> str:
    """Criterion 9: every doubled frame passes ``judge_doubled_frame``, on
    30 frames at each n = 4, 5, 6, regular and singular frames among them."""
    frames = 0
    for n in (4, 5, 6):
        model = ModelSpace(n)
        weights = set()
        for frame in random_frames(model.space, 30, seed=PIPELINE_SEED):
            judge_doubled_frame(model, pipeline_flat(model, frame.vectors))
            weights.add(min(build_matrix(frame).row_weights))
            frames += 1
        if len(weights) < 2:
            raise CheckFailedError(f"n={n}: regular and singular frames must both occur")
    return f"{frames} frames at n=4,5,6"


def judge_quotients(quotients: Sequence[float], where: str) -> float:
    """Criterion 10's verdict on one perturbation case's Gram deviation / eps
    quotients: none zero, and a spread of at most 10x, which it returns."""
    if min(quotients) <= 0:
        raise CheckFailedError(f"{where}: zero Gram deviation")
    spread = max(quotients) / min(quotients)
    if spread > 10.0:
        raise CheckFailedError(f"{where}: quotient spread {spread:.2f}")
    return spread


def eps_linear_scaling(inputs: Inputs) -> str:
    """Criterion 10: Gram deviation / eps spreads at most 10x over the
    epsilons, on ten perturbation cases."""
    model = ModelSpace(4)
    worst = 0.0
    for seed in EPS_CASES:
        frame, u = random_perturbation_case(model, seed)
        quotients = [
            pipeline_perturbed(model, frame, u, eps).gram_deviation / eps for eps in inputs.epsilons
        ]
        worst = max(worst, judge_quotients(quotients, f"case {seed}"))
    return f"{len(EPS_CASES)} cases, worst quotient spread {worst:.2f}"


def run(named: Iterable[tuple[str, Callable[[], str]]]) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for each named check, in order: its evidence,
    or the detail of its ``CheckFailedError``; a failure does not stop the
    checks after it."""
    results = []
    for name, check in named:
        try:
            results.append((name, True, check()))
        except CheckFailedError as exc:
            results.append((name, False, str(exc)))
    return results


ALL = (
    catalogue_identities,
    codim_bounds_rank_2_to_8,
    fuzz_properties_and_matching,
    unconstrained_matching,
    hand_derived_instance,
    bracket_identity_exact,
    fperp_gram_identity,
    stabilizer_zero_case,
    ratio_stability,
    flat_pipeline,
    eps_linear_scaling,
)
