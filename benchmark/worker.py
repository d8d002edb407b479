"""One round of one workload in a fresh interpreter.

Usage: python3 benchmark/worker.py --workload NAME --seed N --trace 0|1
       [--spans PATH] [--selftest 0|1]

Times set-up (``import rootmatch`` plus the catalogue), then runs the
workload once, checking every output with ``reference`` between the
timed calls, and prints one JSON object as the last line of stdout.
``run.py`` starts one worker per round so that every round pays the
import and the lazy caches, as a command-line user does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402  (pure Python, no rootmatch import)
from reference import CheckError  # noqa: E402
from tracing import Tracer  # noqa: E402

clock = time.perf_counter

# `rootmatch all` defaults: seed 1, 1,000 frames per space.  The corpus
# stays at seed 1 whatever --seed says: greedy_match fails on one frame
# of the seed-6 and seed-12 corpora, and a failure that comes and goes
# with the seed cannot be counted the same way in every run.
FUZZ_SEED = 1
FUZZ_PER_SPACE = 1000
SL5_FRAMES = 8098  # spanning SL(5,R) wall frames: 10,000 frames per round
VERIFY_ARGV = ["verify", "--n", "8", "--json"]  # every other flag at its default


class Round:
    """Timings and outcomes of one round."""

    def __init__(self):
        self.busy = 0.0  # seconds spent inside rootmatch calls
        self.op_us: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.matrices = reference.MatrixChecker()


def certify(rm, space, frame, ints, rnd: Round) -> None:
    """build_matrix + verify_properties + greedy_match + oracle_match, timed
    together (a failing greedy until it raises), then checked.

    ``ints`` is the frame scaled to integer vectors on the same rays.
    """
    t0 = clock()
    matrix = rm.build_matrix(frame)
    report = rm.verify_properties(matrix, space)
    try:
        greedy = rm.greedy_match(matrix)[0]
    except rm.errors.NoMatchingError:
        greedy = None
    oracle = rm.oracle_match(matrix)
    dt = clock() - t0
    rnd.busy += dt
    rnd.op_us.append(dt * 1e6)
    rnd.attempted += 1

    masks = rnd.matrices.entries(space, ints, matrix)
    rnd.matrices.properties(space, masks, matrix.cols, report)
    if oracle is None:
        raise CheckError(f"{space.name}: oracle found no matching for {frame.vectors}")
    reference.check_matching(masks, matrix.cols, oracle.pairs)
    if greedy is None:
        rnd.failed += 1
    else:
        reference.check_matching(masks, matrix.cols, greedy.pairs)


# ---------------------------------------------------------------------------
# Workloads.


def fuzz_corpus(rm, seed: int, rnd: Round) -> None:
    for space in rm.catalogue():
        if space.excluded or not 2 <= space.rank <= 6:
            continue
        t0 = clock()
        frames = rm.random_frames(space, FUZZ_PER_SPACE, seed=FUZZ_SEED)
        rnd.busy += clock() - t0
        if len(frames) != FUZZ_PER_SPACE or not all(f.spanning for f in frames):
            raise CheckError(f"{space.name}: sampler returned a short or non-spanning corpus")
        for frame in frames:
            if reference.rank(frame.vectors) != space.rank:
                raise CheckError(f"{space.name}: sampled frame {frame.vectors} does not span")
            certify(rm, space, frame, frame.vectors, rnd)
    for space in rm.catalogue():
        if space.excluded or not 2 <= space.rank <= 8:
            continue
        t0 = clock()
        report = rm.verify_codim_bounds(space)
        rnd.busy += clock() - t0
        reference.check_codim(space, report, rm.chamber.enumerate_faces(space))


def _set_partitions(n: int):
    """Set partitions of range(n), blocks ordered by their least element."""
    if n == 0:
        yield []
        return
    for part in _set_partitions(n - 1):
        for b in range(len(part)):
            yield part[:b] + [part[b] + [n - 1]] + part[b + 1 :]
        yield part + [[n - 1]]


def _pattern_vectors(parts, n: int):
    """Block k takes the value k; the vector is re-centred to trace zero.

    Returns (frame-file JSON text, Fraction vector, integer vector on the
    same ray) per pattern.
    """
    out = []
    for part in parts:
        ints = [0] * n
        for k, block in enumerate(part):
            for i in block:
                ints[i] = k
        total = sum(ints)
        fracs = tuple(Fraction(x) - Fraction(total, n) for x in ints)
        out.append((json.dumps([str(x) for x in fracs]), fracs, tuple(n * x - total for x in ints)))
    return out


def wall_frames(seed: int):
    """Yield (space name, frame-file text, Fraction frame, integer frame)
    for every wall-pattern frame of a round, one at a time so that the
    inputs add nothing to the round's peak memory.

    All ordered triples of the 14 SL(4,R) patterns (partitions of 4
    coordinates into at least two blocks), then ordered 4-tuples of the
    15 SL(5,R) (2,2,1) patterns in a seeded shuffled order, keeping only
    tuples that span (by ``reference.rank``) until SL5_FRAMES are found.
    """
    p4 = _pattern_vectors([p for p in _set_partitions(4) if len(p) >= 2], 4)
    p5 = _pattern_vectors(
        [p for p in _set_partitions(5) if sorted(len(b) for b in p) == [1, 2, 2]], 5
    )
    sl4 = list(itertools.product(p4, repeat=3))
    order = list(range(len(p5) ** 4))
    random.Random(seed).shuffle(order)
    sl5 = (tuple(p5[code // len(p5) ** k % len(p5)] for k in range(4)) for code in order)
    for name, tuples, limit in (("SL(4,R)", sl4, None), ("SL(5,R)", sl5, SL5_FRAMES)):
        kept = 0
        for tup in tuples:
            ints = tuple(p[2] for p in tup)
            if reference.rank(ints) == len(tup):
                text = "[" + ",".join(p[0] for p in tup) + "]"
                yield name, text, tuple(p[1] for p in tup), ints
                kept += 1
                if kept == limit:
                    break


def wall_patterns(rm, seed: int, rnd: Round) -> None:
    spaces = {name: rm.space(name) for name in ("SL(4,R)", "SL(5,R)")}
    for name, text, fracs, ints in wall_frames(seed):
        space = spaces[name]
        t0 = clock()
        frame = rm.make_frame(space, rm.framematrix.parse_frame_vectors(text))
        rnd.busy += clock() - t0
        if frame.vectors != fracs or frame.spanning is not True:
            raise CheckError(f"{name}: frame file {text} parsed to {frame}")
        certify(rm, space, frame, ints, rnd)


def verify_n8(rm, seed: int, rnd: Round) -> None:
    out = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out):
        code = rm.cli.main(VERIFY_ARGV)
    dt = clock() - t0
    rnd.busy += dt
    rnd.op_us.append(dt * 1e6)
    rnd.attempted += 1
    reference.check_verify_report(code, out.getvalue())


WORKLOADS = {
    "setup": lambda rm, seed, rnd: None,  # set-up alone, for more setup_s samples
    "fuzz-corpus": fuzz_corpus,
    "wall-patterns": wall_patterns,
    "verify-n8": verify_n8,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--selftest", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    t0 = clock()
    import rootmatch as rm
    import rootmatch.cli  # noqa: F401  (the `rootmatch` command's entry module)

    if tracer:
        tracer.install()
    rm.catalogue()
    setup_s = clock() - t0

    rnd = Round()
    result = {"setup_s": setup_s, "correct": True, "error": None}
    try:
        WORKLOADS[args.workload](rm, args.seed, rnd)
        if tracer:
            for w, radius, out in tracer.snaps:
                reference.check_snap(w, radius, out)
        if args.selftest:
            import selftest

            selftest.run(rm)
    except CheckError as exc:
        result["correct"] = False
        result["error"] = str(exc)
    result.update(
        wall_s=rnd.busy,
        op_us=rnd.op_us,
        attempted=rnd.attempted,
        failed=rnd.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["snaps_checked"] = len(tracer.snaps)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
