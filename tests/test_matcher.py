import dataclasses
import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmatch import checks
from rootmatch.errors import CheckFailedError, MalformedMatrixError, NoMatchingError
from rootmatch.exact import exact_rank
from rootmatch.framematrix import (
    build_matrix,
    make_frame,
    masks_from_rows,
    random_frames,
    verify_properties,
)
from rootmatch.matcher import (
    AlgoTrace,
    DeferralRecord,
    StageRecord,
    _pass,
    _two_per_row,
    deficient_rows,
    greedy_match,
    oracle_match,
    validate,
)
from rootmatch.rootdata import catalogue, space

from oracles import set_partitions

SL4 = space("SL(4,R)")
ALL_ONES = [[1] * 6 for _ in range(3)]
PIGEONHOLE = [[1, 1, 0], [1, 1, 0]]


def _wall_matrix():
    frame = make_frame(SL4, [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    return build_matrix(frame)


def brute_force_exists(rows):
    """Exhaustive search for two distinct columns per row, all distinct."""
    options = [
        list(itertools.combinations([c for c, x in enumerate(row) if x], 2))
        for row in rows
    ]
    if any(not opts for opts in options):
        return False
    for combo in itertools.product(*options):
        used = [c for pair in combo for c in pair]
        if len(set(used)) == 2 * len(rows):
            return True
    return False


def test_all_ones_canonical_pairs():
    result, trace = greedy_match(ALL_ONES)
    assert result.pairs == ((0, 1), (2, 3), (4, 5))
    assert trace.repairs == ()
    assert validate(ALL_ONES, result)


def test_wall_matrix_traced_run():
    m = _wall_matrix()
    result, trace = greedy_match(m)
    assert result.pairs == ((2, 4), (0, 1), (3, 5))
    assert [s.top_row for s in trace.stages] == [0, 1, 2]
    assert [s.chosen for s in trace.stages] == [(2, 4), (0, 1), (3, 5)]
    assert [s.phase for s in trace.stages] == [1, 1, 2]
    assert trace.repairs == ()
    labels = [
        ["".join(str(i + 1) for i in m.col_labels[c][0].support) for c in pair]
        for pair in result.pairs
    ]
    assert labels == [["14", "24"], ["12", "13"], ["23", "34"]]


def test_pigeonhole_no_matching():
    with pytest.raises(NoMatchingError) as err:
        greedy_match(PIGEONHOLE)
    assert err.value.trace is not None
    assert oracle_match(PIGEONHOLE) is None
    # the message and the stranded plain pass, also after a phase-1 row
    for rows in (PIGEONHOLE, [[1, 1, 1, 0, 0], [0, 1, 1, 0, 0], [1, 0, 1, 0, 0]]):
        with pytest.raises(NoMatchingError) as err:
            greedy_match(rows)
        assert str(err.value) == (
            "greedy selection failed at stage 2: no matching exists,"
            " rows [0, 1] hold fewer than 4 columns"
        )
        assert err.value.trace.picks == ((0, (0, 1)),)


def test_oracle_all_ones():
    result = oracle_match(ALL_ONES)
    assert result is not None
    assert validate(ALL_ONES, result)


def test_validate_examples():
    good, _ = greedy_match(ALL_ONES)
    assert validate(ALL_ONES, good)
    from rootmatch.matcher import MatchResult

    assert not validate(ALL_ONES, MatchResult(pairs=((0, 1), (0, 3), (4, 5))))
    assert not validate(ALL_ONES, MatchResult(pairs=((0, 0), (2, 3), (4, 5))))
    assert not validate(ALL_ONES, MatchResult(pairs=((0, 1), (2, 3))))
    assert not validate(ALL_ONES, MatchResult(pairs=((0, 9), (2, 3), (4, 5))))


def test_malformed_matrices():
    with pytest.raises(MalformedMatrixError):
        greedy_match([])
    with pytest.raises(MalformedMatrixError):
        greedy_match([[]])
    with pytest.raises(MalformedMatrixError):
        greedy_match([[1, 0], [1]])
    with pytest.raises(MalformedMatrixError):
        greedy_match([[1, 2], [0, 1]])


def _assert_deferrals(rows, trace):
    """Every deferred pair is a live pair of its stage's top row that
    comes before the pair taken, and its blocking rows S, all still
    pending, have fewer than 2|S| of the columns left once the pair is
    taken: Hall's condition fails in that residual."""
    stages = {s.stage: s for s in trace.stages}
    for d in trace.repairs:
        assert d.kind == "deferred"
        stage = stages[d.stage]
        taken = {c for s in trace.stages if s.stage < d.stage for c in s.chosen}
        done = {s.top_row for s in trace.stages if s.stage <= d.stage}
        assert d.row == stage.top_row and d.pair < stage.chosen
        assert all(rows[d.row][c] and c not in taken for c in d.pair)
        assert d.blocking_rows and not done & set(d.blocking_rows)
        left = {c for c in range(len(rows[0])) if c not in taken and c not in d.pair}
        union = {j for i in d.blocking_rows for j in left if rows[i][j]}
        assert len(union) < 2 * len(d.blocking_rows)


@pytest.mark.parametrize("pending", [False, True])
def test_fuzz_check_catches_a_deferral_with_no_hall_witness(monkeypatch, pending):
    # a planted deferral of the first stage's pair, blocked by no row or by
    # every pending row, which still have a matching once that pair is taken
    def planted(matrix):
        result, trace = greedy_match(matrix)
        top, pair = trace.picks[0]
        rows = tuple(i for i in range(matrix.rows) if pending and i != top)
        return result, dataclasses.replace(trace, repairs=(DeferralRecord(1, top, pair, rows),))

    monkeypatch.setattr(checks, "greedy_match", planted)
    with pytest.raises(CheckFailedError) as err:
        checks.fuzz_properties_and_matching(checks.Inputs(fuzz_count=2))
    assert str(err.value) == (
        "SL(4,R) frame 0: the pair deferred at stage 1 has no Hall witness"
    )


def test_stages_refuse_picks_that_break_the_stage_rule():
    # two phase-2 rows of weights 3 and 4: the stage rule takes row 0
    # first, so a trace whose first pick is the heavier row 1 has no
    # stage records
    trace = AlgoTrace((0b0111, 0b1111), 4, ((1, (2, 3)), (0, (0, 1))), ())
    with pytest.raises(RuntimeError, match="picks do not follow the stage rule"):
        trace.stages


def test_hall_witness_refuses_a_row_already_matched():
    # row 0, the top row of stage 1, is left no column once stage 2 takes
    # its pair, but it is no pending row that could block that pair
    rows = (0b000011, 0b001100, 0b110000)
    deferral = DeferralRecord(2, 1, (2, 3), (0,))
    trace = AlgoTrace(rows, 6, ((0, (0, 1)), (1, (2, 3)), (2, (4, 5))), (deferral,))
    with pytest.raises(CheckFailedError, match="the pair deferred at stage 2 has no Hall witness"):
        checks._check_witness(trace, deferral, "here")


def test_hall_guard_defers_on_three_maximal_walls():
    # three maximal walls: the leftmost pass strands the last phase-1
    # row, so the first row skips the pair it would have taken
    frame = make_frame(SL4, [(-3, 1, 1, 1), (1, -3, 1, 1), (1, 1, -3, 1)])
    m = build_matrix(frame)
    result, trace = greedy_match(m)
    assert validate(m, result)
    assert trace.repairs
    _assert_deferrals(m.entries, trace)


def test_hall_guard_defers_a_phase2_pair():
    rows = [
        [1, 1, 0, 0, 1, 0, 1, 0, 0],
        [1, 0, 1, 1, 0, 0, 0, 0, 1],
        [1, 1, 1, 1, 0, 0, 0, 0, 0],
    ]
    result, trace = greedy_match(rows)
    assert validate(rows, result)
    assert trace.repairs
    _assert_deferrals(rows, trace)


def test_hall_guard_keeps_a_column_exclusive_to_the_last_row():
    # Tight case: six columns, one of them exclusive to the last row.
    frame = make_frame(SL4, [(12, -4, -4, -4), (13, -3, -5, -5), (-42, 26, -10, 26)])
    m = build_matrix(frame)
    result, trace = greedy_match(m)
    assert validate(m, result)
    assert trace.repairs
    _assert_deferrals(m.entries, trace)


def test_no_matching_raises_no_matching_error():
    # three identical rows on two columns: no matching exists, so the
    # greedy pass raises instead of deferring
    rows = [
        [1, 1, 0, 0],
        [1, 1, 0, 0],
        [1, 1, 0, 0],
    ]
    with pytest.raises(NoMatchingError):
        greedy_match(rows)


def test_determinism():
    m = _wall_matrix()
    a = greedy_match(m)
    b = greedy_match(m)
    assert a == b
    assert oracle_match(m) == oracle_match(m)


def test_trace_sanity_on_catalogue_matrix():
    m = _wall_matrix()
    _result, trace = greedy_match(m)
    assert len(trace.stages) <= m.rows
    n = m.rows
    weights = m.row_weights
    counts_by_stage = {s.stage: dict(s.counts) for s in trace.stages}
    # phase-1 rows lose at most one live entry per stage
    for stage in trace.stages:
        nxt = counts_by_stage.get(stage.stage + 1)
        if nxt is None:
            continue
        for row, count in stage.counts:
            if weights[row] == n and row in nxt:
                assert nxt[row] >= count - 1


def _eager_staged(rows, m, guarded):
    """One staged pass that builds every stage record as it goes: the
    reference for the records ``AlgoTrace.stages`` derives from the
    picks.  Returns ``(assigned, stages, deferrals)``, with ``assigned``
    None when a top row has fewer than two live entries."""
    n = len(rows)
    surviving = (1 << m) - 1
    assigned, stages, deferrals = {}, [], []
    pending = {
        1: [i for i in range(n) if rows[i].bit_count() == n],
        2: [i for i in range(n) if rows[i].bit_count() != n],
    }
    t = 1
    phase = 1 if pending[1] else 2
    while pending[1] or pending[2]:
        if phase == 1 and not pending[1]:
            phase = 2
        pool = pending[phase]
        counts = {i: (rows[i] & surviving).bit_count() for i in pool}
        order = sorted(pool, key=counts.__getitem__)
        top = order[0]
        pool.remove(top)
        live = rows[top] & surviving
        if not guarded:
            low = live & -live
            live ^= low
            if not live:
                return None, stages, deferrals
            chosen = (low.bit_length() - 1, (live & -live).bit_length() - 1)
        else:
            others = pending[1] + pending[2]
            for chosen in itertools.combinations([c for c in range(m) if live >> c & 1], 2):
                rest = surviving & ~(1 << chosen[0]) & ~(1 << chosen[1])
                held, reached = _two_per_row([rows[i] & rest for i in others], m)
                if held is not None:
                    break
                blocking = tuple(sorted(i for b, i in enumerate(others) if reached >> b & 1))
                deferrals.append(DeferralRecord(t, top, chosen, blocking))
            else:
                raise AssertionError("Hall's guard rejected every pair")
        stages.append(StageRecord(t, phase, tuple(order), top, tuple(counts.items()), chosen))
        assigned[top] = chosen
        surviving &= ~(1 << chosen[0]) & ~(1 << chosen[1])
        t += 1
    return assigned, stages, deferrals


def _eager_greedy(rows):
    """``greedy_match`` with eager stage records: ``(pairs, stages,
    deferrals)``, pairs None and the stranded plain pass's records when
    no matching exists."""
    masks, m = masks_from_rows(rows)
    assigned, stages, deferrals = _eager_staged(masks, m, guarded=False)
    if assigned is None:
        if _two_per_row(masks, m)[0] is None:
            return None, tuple(stages), ()
        assigned, stages, deferrals = _eager_staged(masks, m, guarded=True)
    pairs = tuple(assigned[i] for i in range(len(masks)))
    return pairs, tuple(stages), tuple(deferrals)


def test_soundness_on_random_matrices():
    # greedy against the oracle, and its trace, failed passes included,
    # against the eager stage records
    rng = np.random.default_rng(123)
    greedy_wins = failed_stages = deferring = 0
    for _ in range(300):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 16))
        rows = (rng.random((n, m)) < rng.uniform(0.2, 0.9)).astype(int).tolist()
        oracle = oracle_match(rows)
        if oracle is not None:
            assert validate(rows, oracle)
        try:
            result, trace = greedy_match(rows)
            pairs = result.pairs
        except NoMatchingError as exc:
            trace, pairs = exc.trace, None
            failed_stages += bool(trace.stages)
        assert (pairs, trace.stages, trace.repairs) == _eager_greedy(rows), rows
        if pairs is None:
            continue
        greedy_wins += 1
        deferring += bool(trace.repairs)
        assert validate(rows, result)
        assert oracle is not None
    assert greedy_wins > 50
    assert (failed_stages, deferring) == (78, 8)


def test_two_per_row_pinned_short_rows():
    # rows 1 and 3 run short of free columns, and each takes one by an
    # augmenting path through the rows before it
    assert _two_per_row([58, 12, 159, 197], 9) == ([48, 12, 130, 65], 0)


def test_sl3_frames_have_no_matching():
    # SL(3,R) is excluded: its 2 rows share 3 columns, fewer than the 4
    # that Hall's condition asks of both rows together
    frames = random_frames(space("SL(3,R)"), 50, seed=1)
    assert len(frames) == 50
    for frame in frames:
        m = build_matrix(frame)
        assert (m.rows, m.cols) == (2, 3)
        with pytest.raises(NoMatchingError):
            greedy_match(m)
        assert oracle_match(m) is None
        assert deficient_rows(m) == (0, 1)


def test_oracle_against_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        rows = (rng.random((n, m)) < 0.5).astype(int).tolist()
        oracle = oracle_match(rows)
        assert (oracle is not None) == brute_force_exists(rows)
        if oracle is not None:
            assert validate(rows, oracle)


def _sl4_wall_frames():
    """One spanning SL(4,R) frame per realizable ordered triple of the 14
    wall patterns (set partitions of the 4 coordinates into >= 2 blocks).

    Each row gives its blocks the distinct values of a permutation of
    0..b-1, re-centred to trace zero; the first permutation triple (in
    itertools order) that spans is kept.
    """
    parts = [p for p in set_partitions(4) if len(p) >= 2]

    def vector(part, values):
        v = [0] * 4
        for block, value in zip(part, values):
            for i in block:
                v[i] = value
        return tuple(4 * x - sum(v) for x in v)

    for triple in itertools.product(parts, repeat=3):
        for perms in itertools.product(*(itertools.permutations(range(len(p))) for p in triple)):
            vectors = [vector(p, values) for p, values in zip(triple, perms)]
            if exact_rank(vectors) == 3:
                yield vectors
                break


def test_greedy_decisions_pinned_on_sl4_wall_patterns():
    # Pairs, stage records and deferral records of every run, failures
    # marked.  ``clean`` hashes pairs and stages of the runs that defer
    # nothing; its digest was taken before Hall's guard replaced the two
    # repair moves, on the runs that needed no repair, and shows that
    # the guard leaves those runs as they were.
    digest, clean = hashlib.sha256(), hashlib.sha256()
    frames = failures = clean_runs = 0
    kinds = set()
    for vectors in _sl4_wall_frames():
        frames += 1
        m = build_matrix(make_frame(SL4, vectors))
        try:
            result, trace = greedy_match(m)
            record = (result.pairs, trace.stages, trace.repairs)
        except NoMatchingError as exc:
            failures += 1
            trace = exc.trace
            record = (None, trace.stages, trace.repairs)
        kinds.update(r.kind for r in trace.repairs)
        _assert_deferrals(m.entries, trace)
        digest.update(repr(record).encode())
        if not trace.repairs:
            clean_runs += 1
            clean.update(repr((result.pairs, trace.stages)).encode())
    assert frames == 2260
    assert failures == 0
    assert kinds == {"deferred"}
    assert digest.hexdigest()[:16] == "23a1568556c807cd"
    assert clean_runs == 1903
    assert clean.hexdigest()[:16] == "7b4a4c99c9a51ea8"


def _certify_digests(frames):
    """sha256 prefixes of the four certify outputs over ``frames``:
    the masks, the ``PropertyReport`` fields, the greedy pairs, picks and
    repairs (the message, picks and repairs of a failure), and the oracle
    pairs."""
    digests = {key: hashlib.sha256() for key in ("masks", "report", "greedy", "oracle")}
    for frame in frames:
        m = build_matrix(frame)
        report = verify_properties(m, frame.space)
        try:
            result, trace = greedy_match(m)
            greedy = (result.pairs, trace.picks, trace.repairs)
        except NoMatchingError as exc:
            greedy = (str(exc), exc.trace.picks, exc.trace.repairs)
        oracle = oracle_match(m)
        digests["masks"].update(repr(m.masks).encode())
        digests["report"].update(
            repr((report.space, report.verdicts, report.witnesses, report.equal_row_pairs)).encode()
        )
        digests["greedy"].update(repr(greedy).encode())
        digests["oracle"].update(repr(oracle and oracle.pairs).encode())
    return {key: d.hexdigest()[:16] for key, d in digests.items()}


@functools.lru_cache(maxsize=None)
def _fuzz_frames():
    """The first 100 seed-1 frames of each space that `rootmatch all` fuzzes."""
    spaces = [s for s in catalogue() if not s.excluded and 2 <= s.rank <= 6]
    assert len(spaces) == 42
    return tuple(f for s in spaces for f in random_frames(s, 100, seed=1))


def test_certify_outputs_pinned_on_fuzz_frames():
    frames = _fuzz_frames()
    assert _certify_digests(frames) == {
        "masks": "235ba9420931f250",
        "report": "83b288c87481e100",
        "greedy": "a2b01ed79233b39d",
        "oracle": "4e971dd02cb12166",
    }


def test_certify_outputs_pinned_on_sl4_wall_patterns():
    frames = [make_frame(SL4, vectors) for vectors in _sl4_wall_frames()]
    assert _certify_digests(frames) == {
        "masks": "db6a64af52a21ed5",
        "report": "43c3d0ef0512a240",
        "greedy": "ac4d5b13ff002c95",
        "oracle": "292f1f5b1918e724",
    }


def test_guard_keeps_every_completed_plain_pass():
    # greedy runs Hall's guard only when the plain pass strands a row; a
    # completed plain pass is a matching of every residual, so the guarded
    # pass takes the same pairs and defers none
    frames = _fuzz_frames() + tuple(make_frame(SL4, vectors) for vectors in _sl4_wall_frames())
    completed = 0
    for frame in frames:
        m = build_matrix(frame)
        pairs, picks, deferrals = _pass(m.masks, m.cols, False)
        if len(picks) < m.rows:
            continue
        completed += 1
        assert _pass(m.masks, m.cols, True) == (pairs, picks, [])
    assert (len(frames), completed) == (6460, 6074)


def _hall_condition(rows) -> bool:
    """|N(S)| >= 2|S| for every nonempty set S of rows."""
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    for size in range(1, len(masks) + 1):
        for subset in itertools.combinations(masks, size):
            union = 0
            for mask in subset:
                union |= mask
            if union.bit_count() < 2 * size:
                return False
    return True


def _assert_certificate(rows, deficient, oracle):
    """``deficient_rows`` is None exactly when the oracle matches, and
    otherwise names rows S whose columns number fewer than 2|S|."""
    assert (deficient is None) == (oracle is not None)
    if deficient is None:
        return
    assert deficient and list(deficient) == sorted(set(deficient))
    assert 0 <= deficient[0] and deficient[-1] < len(rows)
    union = {j for i in deficient for j, x in enumerate(rows[i]) if x}
    assert len(union) < 2 * len(deficient)


def _exhaustive_matrices():
    """Every row-sorted 3 x 6 0/1 matrix (the SL(4,R) shape), and every
    matrix of 1 or 2 rows and 1 to 6 columns."""
    bits = lambda m, mask: [mask >> j & 1 for j in range(m)]
    for masks in itertools.combinations_with_replacement(range(64), 3):
        yield [bits(6, mask) for mask in masks]
    for m in range(1, 7):
        for n in (1, 2):
            for masks in itertools.product(range(1 << m), repeat=n):
                yield [bits(m, mask) for mask in masks]


def _assert_greedy_complete(rows, oracle):
    """Greedy finds a valid matching exactly when the oracle does, and
    certifies every pair it defers."""
    try:
        greedy, trace = greedy_match(rows)
    except NoMatchingError:
        assert oracle is None, rows
        return
    assert oracle is not None and validate(rows, greedy), rows
    _assert_deferrals(rows, trace)


def test_oracle_exhaustive_on_small_shapes():
    count = 0
    for rows in _exhaustive_matrices():
        count += 1
        oracle = oracle_match(rows)
        assert (oracle is not None) == _hall_condition(rows), rows
        if oracle is not None:
            assert validate(rows, oracle), rows
        _assert_certificate(rows, deficient_rows(rows), oracle)
        _assert_greedy_complete(rows, oracle)
    assert count == 45760 + sum(2**m + 4**m for m in range(1, 7))


@st.composite
def _binary_matrices(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 16))
    return draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=n, max_size=n))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_binary_matrices())
def test_oracle_matches_exactly_when_hall_condition_holds(rows):
    hall = _hall_condition(rows)
    oracle = oracle_match(rows)
    assert (oracle is not None) == hall
    if oracle is not None:
        assert validate(rows, oracle)
    _assert_certificate(rows, deficient_rows(rows), oracle)
    _assert_greedy_complete(rows, oracle)
