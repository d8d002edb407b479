"""rootmatch benchmark: one command, three workloads, reference-checked.

Usage (from the repository root):
    python3 benchmark/run.py --workload fuzz-corpus|wall-patterns|verify-n8
                             --seed N --seconds S --trace 0|1

Runs whole rounds of the workload one after another, each in a fresh
interpreter (``worker.py``), until S seconds have passed, and prints one
JSON object as the last line of stdout.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced rounds and reports per-layer self times and counts, plus the
tracing overhead.  Exits 1 when a reference check fails or a round
cannot run, and 2 when there are no rootmatch sources under src/.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 7  # set-up-only interpreters top up the rounds' own set-ups to this many

# Workload and metric names, with their units, come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class RoundFailed(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: rounds run one at a time and the model's matrices are 8 x 8
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_round(args, traced: bool, selftest: bool, started: float, workload=None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload or args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
        "--selftest", "1" if selftest else "0",
    ]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.csv")]
    timeout = DEADLINE_S - (time.perf_counter() - started)
    if timeout <= 0:
        raise RoundFailed("time budget spent before the round could start")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round exceeded the {DEADLINE_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile, or the mean below 1,000 samples.

    With fewer samples p99 would have under ten samples beyond it and
    measure single outliers (verify-n8 times a handful of commands).
    """
    if len(values) < 1000:
        return statistics.mean(values)
    return sorted(values)[math.ceil(0.99 * len(values)) - 1]


# Times from several rounds are averaged, not reduced to their median: a
# shared machine can alternate between two speeds about 2x apart (the
# reference machine does, see README.md), and a median of a few samples
# jumps from one to the other.  Set-up keeps the median of its samples,
# which are taken within seconds of each other.


def _end_to_end(rounds: list[dict], setups: list[float]) -> dict[str, float]:
    ops = [x for r in rounds for x in r["op_us"]]
    return {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "wall_s": statistics.mean(r["wall_s"] for r in rounds),
        "certify_mean_us": statistics.mean(ops),
        "certify_p99_us": _p99(ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def _per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.mean(r["layers"].get(name, 0) for r in traced) for name in PER_LAYER}
    out["trace.overhead_s"] = statistics.mean(r["wall_s"] for r in traced) - statistics.mean(
        r["wall_s"] for r in plain
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rootmatch" / "__init__.py").is_file():
        print(f"error: no rootmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # an installed package is byte-compiled once; do the same before timing
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    OUT.mkdir(exist_ok=True)

    started = time.perf_counter()
    rounds = []
    try:
        while True:
            rounds.append(_run_round(args, False, not rounds, started))
            if args.trace:
                rounds.append(_run_round(args, True, False, started))
            if time.perf_counter() - started >= args.seconds or not rounds[-1]["correct"]:
                break
        probes = 0 if args.trace else max(0, SETUP_SAMPLES - len(rounds))
        setups = [_run_round(args, False, False, started, "setup")["setup_s"] for _ in range(probes)]
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    if args.trace:
        values, units = _per_layer(plain, traced), PER_LAYER
    else:
        values, units = _end_to_end(plain, setups), END_TO_END
    errors = [r["error"] for r in rounds if not r["correct"]]
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "args": vars(args),
        "setup_probes_s": setups,
        "rounds": [{k: v for k, v in r.items() if k != "op_us"} for r in rounds],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, **detail}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
