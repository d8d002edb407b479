"""Command-line front door.

Subcommands: ``catalogue``, ``codim``, ``matrix``, ``match``, ``verify``,
``all``.  Exit codes: 0 success, 1 check failure, 2 configuration error.
All machine output is deterministic for a fixed configuration: reports
carry the tool version, a digest of their inputs, and the seeds used.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys

from . import __version__, checks
from .chamber import verify_codim_bounds
from .errors import (
    EpsilonTooLargeError,
    ExcludedSpaceError,
    FrameFileError,
    MalformedMatrixError,
    NoMatchingError,
    RootmatchError,
    UnknownSpaceError,
)
from .framematrix import build_matrix, load_frame, random_frames
from .matcher import deficient_rows, greedy_match, validate
from .modelgeom import (
    ModelSpace,
    min_bracket_gain,
    pipeline_flat,
    pipeline_perturbed,
    random_perturbation_case,
    sample_ratio,
    sample_ratios,
)
from .rootdata import Root, catalogue, space as lookup_space


def root_label(root: Root) -> str:
    parts = []
    for idx, c in enumerate(root.coords):
        if not c:
            continue
        mag = abs(c)
        head = "" if mag == 1 else str(mag)
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{head}e{idx + 1}")
    return "".join(parts)


def column_label(root: Root, slot: int) -> str:
    base = root_label(root)
    return f"{base}[{slot}]" if root.multiplicity > 1 else base


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit(text: str, output: str | None) -> bool:
    """Write a report to the ``--output`` file or, without one, to stdout.
    False, after an error line on stderr, when the file cannot be written."""
    if not output:
        sys.stdout.write(text)
        return True
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output file {output!r}: {exc.strerror or exc}\n")
        return False
    return True


def _json_report(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _checks_report(obj: dict, results, lines: list[str], as_json: bool) -> tuple[int, str]:
    """Finish a report from ``checks.run`` results: a ``checks`` list of
    name, passed and detail and the overall ``passed`` in JSON, or one
    ``PASS  name  (detail)`` line per check after ``lines`` in text."""
    obj["checks"] = [{"name": name, "passed": ok, "detail": detail} for name, ok, detail in results]
    obj["passed"] = passed = all(ok for _name, ok, _detail in results)
    code = 0 if passed else 1
    if as_json:
        return code, _json_report(obj)
    lines += [f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})" for name, ok, detail in results]
    lines.append("PASS" if passed else "FAIL")
    return code, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# catalogue


def cmd_catalogue(args) -> tuple[int, str]:
    spaces = catalogue()
    if args.json:
        lines = []
        for s in spaces:
            entry = {
                "name": s.name,
                "rank": s.rank,
                "dim_x": s.dim_x,
                "dim_k": s.dim_k,
                "dim_m": s.dim_m,
                "columns": s.columns,
                "excluded": s.excluded,
            }
            lines.append(json.dumps(entry))
        return 0, "\n".join(lines) + "\n"
    header = f"{'name':<12}{'rank':>5}{'dimX':>6}{'dimK':>6}{'dimM':>6}{'#roots':>8}{'sum_m':>7}  excluded"
    rows = [header, "-" * len(header)]
    for s in spaces:
        rows.append(
            f"{s.name:<12}{s.rank:>5}{s.dim_x:>6}{s.dim_k:>6}{s.dim_m:>6}"
            f"{len(s.rootsys.positives):>8}{s.columns:>7}  {'yes' if s.excluded else 'no'}"
        )
    return 0, "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# codim


def cmd_codim(args) -> tuple[int, str]:
    space = lookup_space(args.space)
    report = verify_codim_bounds(space)
    if args.json:
        obj = {
            "subcommand": "codim",
            "version": __version__,
            "inputs_digest": _digest({"space": args.space}),
            "space": report.space,
            "ktype": report.ktype,
            "rank": report.rank,
            "passed": report.passed,
            "min_codim": report.min_codim,
            "faces": [
                {
                    "simple_subset": list(e.simple_subset),
                    "vanishing_count": e.vanishing_count,
                    "codim": e.codim,
                    "bound": e.bound,
                    "ok": e.ok,
                    "attains_rank": e.attains_rank,
                }
                for e in report.entries
            ],
        }
        return (0 if report.passed else 1), _json_report(obj)
    lines = [
        f"codimension bounds for {report.space} (rank {report.rank}, ktype {report.ktype})"
    ]
    for e in report.entries:
        subset = ",".join(str(i + 1) for i in e.simple_subset)
        status = "ok" if e.ok else "FAIL"
        lines.append(
            f"  S={{{subset}}}  vanishing={e.vanishing_count:>3}  codim={e.codim:>4}"
            f"  bound>={e.bound}  {status}"
        )
    lines.append(f"min codim: {report.min_codim}")
    lines.append("PASS" if report.passed else "FAIL")
    return (0 if report.passed else 1), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# matrix


def cmd_matrix(args) -> tuple[int, str]:
    space = lookup_space(args.space)
    frame = load_frame(args.frame, space)
    matrix = build_matrix(frame)
    if args.json:
        obj = {
            "subcommand": "matrix",
            "version": __version__,
            "inputs_digest": _digest(
                {"space": args.space, "frame": [[str(x) for x in v] for v in frame.vectors]}
            ),
            "spanning": frame.spanning,
            "rows": matrix.rows,
            "cols": matrix.cols,
            "entries": [list(r) for r in matrix.entries],
            "col_labels": [
                {"root": list(root.coords), "slot": slot, "label": column_label(root, slot)}
                for root, slot in matrix.col_labels
            ],
        }
        return 0, _json_report(obj)
    labels = [column_label(root, slot) for root, slot in matrix.col_labels]
    lines = [f"selection matrix for {space.name}: {matrix.rows} x {matrix.cols}"]
    lines.append(f"frame spans: {'yes' if frame.spanning else 'no'}")
    lines.append("columns: " + " ".join(labels))
    for i, row in enumerate(matrix.entries):
        lines.append(f"row {i}: " + " ".join(str(x) for x in row))
    return 0, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# match


def _load_matrix_file(path: str) -> list[list[int]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FrameFileError(f"cannot read matrix file {path!r}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and numbers past int's digit limit
        raise FrameFileError(f"matrix file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FrameFileError("matrix file nests arrays or objects too deeply to read") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise FrameFileError('matrix file must be an object with an "entries" key')
    entries = data["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise FrameFileError("entries must be a list of rows")
    if "rows" in data and (type(data["rows"]) is not int or len(entries) != data["rows"]):
        raise FrameFileError("rows field must be the JSON integer count of rows")
    if "cols" in data and (
        type(data["cols"]) is not int or any(len(r) != data["cols"] for r in entries)
    ):
        raise FrameFileError("cols field must be the JSON integer length of every row")
    if any(type(x) is not int or x not in (0, 1) for r in entries for x in r):
        raise MalformedMatrixError("matrix entries must be the JSON integers 0 or 1")
    return entries


def _trace_payload(trace) -> dict:
    return {
        "stages": [
            {
                "stage": s.stage,
                "phase": s.phase,
                "order": list(s.order),
                "top_row": s.top_row,
                "counts": [list(c) for c in s.counts],
                "chosen": [c + 1 for c in s.chosen],
            }
            for s in trace.stages
        ],
        "deferred": [
            {
                "stage": d.stage,
                "row": d.row,
                "pair": [c + 1 for c in d.pair],
                "blocking_rows": list(d.blocking_rows),
            }
            for d in trace.repairs
        ],
    }


def cmd_match(args) -> tuple[int, str]:
    entries = _load_matrix_file(args.input)
    obj: dict = {
        "subcommand": "match",
        "version": __version__,
        "inputs_digest": _digest(entries),
    }
    greedy_found = False
    try:
        result, trace = greedy_match(entries)
        obj["pairs"] = [[j + 1, k + 1] for j, k in result.pairs]
        obj["valid"] = greedy_found = validate(entries, result)
        if args.trace:
            obj["trace"] = _trace_payload(trace)
    except NoMatchingError as exc:
        obj["pairs"] = None
        obj["error"] = "no matching found"
        if args.trace and exc.trace is not None:
            obj["trace"] = _trace_payload(exc.trace)
    agrees = True
    if args.oracle:
        deficient = deficient_rows(entries)
        obj["oracle_found"] = deficient is None
        obj["oracle_agrees"] = agrees = obj["oracle_found"] == greedy_found
        if deficient is not None:
            obj["oracle_deficient_rows"] = list(deficient)
    status = 0 if greedy_found and agrees else 1
    return status, _json_report(obj)


# ---------------------------------------------------------------------------
# verify


def _comma_list(text: str, convert, accept, what: str) -> list:
    try:
        values = [convert(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(accept(x) for x in values):
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    if len(set(values)) < 2:  # the spread checks compare values with each other
        raise argparse.ArgumentTypeError(
            f"expected at least two distinct values to take a spread over, got {text!r}"
        )
    return values


def _seed_list(text: str) -> list[int]:
    return _comma_list(text, int, lambda x: x >= 0, "comma-separated non-negative integers")


def _epsilon_list(text: str) -> list[float]:
    return _comma_list(
        text, float, lambda x: math.isfinite(x) and x > 0, "comma-separated positive numbers"
    )


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _check_epsilons(epsilons: list[float], model: ModelSpace) -> None:
    """Reject perturbation sizes the perturbed pipeline would refuse, before any work."""
    if max(epsilons) >= model.epsilon_zero:
        raise EpsilonTooLargeError(
            f"--epsilon values must be below 1/n^2 = {model.epsilon_zero:g} for n = {model.n}"
        )


def cmd_verify(args) -> tuple[int, str]:
    seeds = args.seeds
    epsilons = args.epsilon
    model = ModelSpace(args.n)
    _check_epsilons(epsilons, model)
    space = model.space
    if args.frame:
        loaded = load_frame(args.frame, space)
        if len(loaded.vectors) != space.rank or not loaded.spanning:
            raise FrameFileError(
                f"frame in {args.frame!r} does not span the flat: "
                f"verify needs {space.rank} independent vectors"
            )
        frame = loaded.vectors
    else:
        frame = random_frames(space, 1, seed=seeds[0], singular_fraction=1.0)[0].vectors

    flat = pipeline_flat(model, frame)
    # every pair is scored on the same seeds[0] rotations; the first,
    # (v1, v1_prime), is also the first seed's entry of the seed spread
    pairs = [(v, c) for v, row_pair in zip(frame, flat.match.pairs) for c in row_pair]
    tags = [f"v{i + 1}_{tag}" for i in range(len(frame)) for tag in ("prime", "double_prime")]
    estimates = sample_ratios(model, pairs, args.samples, seeds[0])
    ratio_per_pair = {tag: est.max_ratio for tag, est in zip(tags, estimates)}
    ratio_by_seed = [ratio_per_pair["v1_prime"]]
    for s in seeds[1:]:
        ratio_by_seed.append(sample_ratio(model, *pairs[0], args.samples, s).max_ratio)

    pframe, u = random_perturbation_case(model, seeds[0])
    gram_by_eps = {}
    quotients = []
    for eps in epsilons:
        per = pipeline_perturbed(model, pframe, u, eps)
        gram_by_eps[repr(eps)] = per.gram_deviation
        quotients.append(per.gram_deviation / eps)
    slope = max(quotients)

    gains = [min_bracket_gain(model, v) for v in flat.snapped_frame]

    case = f"case {seeds[0]}"
    results = checks.run(
        [
            ("flat_pipeline", lambda: checks.judge_doubled_frame(model, flat)),
            ("ratio_stability", lambda: checks.judge_seed_spread(ratio_by_seed, args.samples)),
            (
                "eps_linear_scaling",
                lambda: f"{case}, quotient spread {checks.judge_quotients(quotients, case):.3f}",
            ),
        ]
    )
    obj = {
        "subcommand": "verify",
        "version": __version__,
        "inputs_digest": _digest(
            {
                "n": args.n,
                "frame": [[str(x) for x in v] for v in frame],
                "samples": args.samples,
                "seeds": seeds,
                "epsilon": epsilons,
            }
        ),
        "n": args.n,
        "seeds": seeds,
        "samples": args.samples,
        "flat_gram_deviation": flat.gram_deviation,
        "flat_ratio_estimate": max(ratio_per_pair.values()),
        "max_ratio_per_pair": ratio_per_pair,
        "max_ratio_by_seed": ratio_by_seed,
        "gram_deviation_by_epsilon": gram_by_eps,
        "linear_slope_estimate": slope,
        "min_bracket_gain": gains,
    }
    lines = [f"model n={args.n} verification"]
    lines.append(f"  flat gram deviation: {flat.gram_deviation:.3e}")
    for pair, value in ratio_per_pair.items():
        lines.append(f"  max ratio {pair}: {value:.4f}")
    lines.append(f"  max ratio by seed: {', '.join(f'{r:.4f}' for r in ratio_by_seed)}")
    for eps, dev in gram_by_eps.items():
        lines.append(f"  gram deviation @ eps={eps}: {dev:.3e}")
    lines.append(f"  linear slope estimate: {slope:.4f}")
    return _checks_report(obj, results, lines, args.json)


# ---------------------------------------------------------------------------
# all


def cmd_all(args) -> tuple[int, str]:
    _check_epsilons(args.epsilon, ModelSpace(4))
    inputs = checks.Inputs(args.fuzz_count, args.samples, tuple(args.seeds), tuple(args.epsilon))
    results = checks.run((check.__name__, functools.partial(check, inputs)) for check in checks.ALL)
    obj = {
        "subcommand": "all",
        "version": __version__,
        "inputs_digest": _digest(dataclasses.asdict(inputs)),
    }
    return _checks_report(obj, results, [], args.json)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootmatch",
        description="selection matrices, column matching, and model verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalogue", help="print the space catalogue")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_catalogue)

    p = sub.add_parser("codim", help="verify stabilizer codimension bounds")
    p.add_argument("--space", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_codim)

    p = sub.add_parser("matrix", help="build a selection matrix from a frame file")
    p.add_argument("--space", required=True)
    p.add_argument("--frame", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("match", help="run the greedy matching on a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("verify", help="numeric pipelines on the SL(n,R) model")
    p.add_argument("--n", type=int, choices=range(4, 9), required=True)
    p.add_argument("--frame")
    p.add_argument("--samples", type=_positive_int, default=2000)
    p.add_argument("--seeds", type=_seed_list, default="1,2,3,4,5")
    p.add_argument("--epsilon", type=_epsilon_list, default="1e-2,1e-3,1e-4")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("all", help="full verification sweep")
    p.add_argument("--fuzz-count", type=_positive_int, default=1000)
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--seeds", type=_seed_list, default="1,2,3,4,5")
    p.add_argument("--epsilon", type=_epsilon_list, default="1e-2,1e-3,1e-4")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    output = getattr(args, "output", None)
    try:
        code, text = args.func(args)
    except (
        UnknownSpaceError,
        ExcludedSpaceError,
        FrameFileError,
        MalformedMatrixError,
        EpsilonTooLargeError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RootmatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code if _emit(text, output) else 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
