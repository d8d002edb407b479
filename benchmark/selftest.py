"""Planted faults: each reference checker must reject a wrong output.

Usage: python3 benchmark/selftest.py   (exit 0 when every checker bites)

Plants one wrong matrix entry, one repeated matching column and one
wrong face codimension into genuine rootmatch outputs, and requires the
unmodified outputs to pass.  ``worker.py --selftest 1`` runs the same
function after its timed round.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

from reference import CheckError, MatrixChecker, check_codim, check_matching


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckError:
        return True
    return False


def run(rm) -> None:
    sl4 = rm.space("SL(4,R)")
    frame = rm.make_frame(sl4, [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    matrix = rm.build_matrix(frame)
    checker = MatrixChecker()
    masks = checker.entries(sl4, frame.vectors, matrix)

    rows = [list(r) for r in matrix.entries]
    rows[1][2] ^= 1
    planted = dataclasses.replace(matrix, entries=tuple(tuple(r) for r in rows))
    if not _rejects(checker.entries, sl4, frame.vectors, planted):
        raise CheckError("self-test: a wrong matrix entry was accepted")

    pairs = list(rm.oracle_match(matrix).pairs)
    check_matching(masks, matrix.cols, pairs)
    # hand row k a column that another row already holds and that is a
    # 1-entry of row k, so only the distinctness check can object
    k, j = next(
        (k, j)
        for i in range(len(pairs))
        for k in range(len(pairs))
        for j in pairs[i]
        if k != i and masks[k] >> j & 1
    )
    pairs[k] = (j, pairs[k][1])
    if not _rejects(check_matching, masks, matrix.cols, pairs):
        raise CheckError("self-test: a repeated matching column was accepted")

    report = rm.verify_codim_bounds(sl4)
    faces = rm.chamber.enumerate_faces(sl4)
    check_codim(sl4, report, faces)
    wrong = dataclasses.replace(report.entries[0], codim=report.entries[0].codim + 1)
    planted_report = dataclasses.replace(report, entries=(wrong,) + report.entries[1:])
    if not _rejects(check_codim, sl4, planted_report, faces):
        raise CheckError("self-test: a wrong face codimension was accepted")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import rootmatch

    run(rootmatch)
    print("self-test: planted entry, column and codim faults all rejected")
