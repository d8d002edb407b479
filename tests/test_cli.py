import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import rootmatch
from rootmatch import checks, cli, modelgeom
from rootmatch.cli import main
from rootmatch.errors import CheckFailedError
from rootmatch.matcher import MatchResult

WALL_FRAME = '[["1","1","1","-3"],["-3","1","1","1"],["1","-1","1","-1"]]'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalogue_human(capsys):
    code, out, _err = run(capsys, "catalogue")
    assert code == 0
    assert "SL(4,R)" in out
    assert "SU(6,6)" in out


def test_catalogue_json(capsys):
    code, out, _err = run(capsys, "catalogue", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(
        list(entry) == ["name", "rank", "dim_x", "dim_k", "dim_m", "columns", "excluded"]
        for entry in lines
    )
    sl4 = next(e for e in lines if e["name"] == "SL(4,R)")
    assert sl4 == {
        "name": "SL(4,R)",
        "rank": 3,
        "dim_x": 9,
        "dim_k": 6,
        "dim_m": 0,
        "columns": 6,
        "excluded": False,
    }
    sl3 = next(e for e in lines if e["name"] == "SL(3,R)")
    assert sl3["excluded"] is True


def test_codim_pass(capsys):
    code, out, _err = run(capsys, "codim", "--space", "SL(4,R)", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["min_codim"] == 3


def test_codim_excluded_space_is_config_error(capsys):
    code, _out, err = run(capsys, "codim", "--space", "SL(3,R)")
    assert code == 2
    assert "excluded" in err


def test_codim_unknown_space(capsys):
    code, _out, err = run(capsys, "codim", "--space", "SO(2,2)")
    assert code == 2
    assert "unknown" in err


def test_matrix_subcommand(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(WALL_FRAME)
    code, out, _err = run(
        capsys, "matrix", "--space", "SL(4,R)", "--frame", str(frame), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 3
    assert payload["cols"] == 6
    assert payload["entries"] == [
        [0, 0, 1, 0, 1, 1],
        [1, 1, 1, 0, 0, 0],
        [1, 0, 1, 1, 0, 1],
    ]
    assert payload["col_labels"][0]["label"] == "e1-e2"


def test_matrix_reports_its_inputs_and_whether_the_frame_spans(tmp_path, capsys):
    reports = {}
    for name, text, spans in (
        ("wall", WALL_FRAME, True),
        ("parallel", '[["1","-1","0","0"],["2","-2","0","0"]]', False),
    ):
        frame = tmp_path / f"{name}.json"
        frame.write_text(text)
        argv = ["matrix", "--space", "SL(4,R)", "--frame", str(frame)]
        code, out, _err = run(capsys, *argv, "--json")
        assert code == 0
        payload = reports[name] = json.loads(out)
        assert payload["subcommand"] == "matrix"
        assert payload["version"] == rootmatch.__version__
        assert payload["spanning"] is spans
        code, out, _err = run(capsys, *argv)
        assert code == 0
        assert f"frame spans: {'yes' if spans else 'no'}" in out.splitlines()
    assert reports["parallel"]["rows"] == 2
    assert reports["wall"]["inputs_digest"] != reports["parallel"]["inputs_digest"]


def test_matrix_bad_frame_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _out, err = run(
        capsys, "matrix", "--space", "SL(4,R)", "--frame", str(missing)
    )
    assert code == 2
    assert "frame" in err


BAD_FRAMES = {
    "wrong_length": '[["1","-1","0"]]',
    "nonzero_sum": '[["1","1","1","1"]]',
    "zero_vector": '[["0","0","0","0"]]',
    "too_many_vectors": '[["1","-1","0","0"],["0","1","-1","0"],["0","0","1","-1"],["1","0","0","-1"]]',
    "no_vectors": "[]",
    # past int()'s digit limit when written out; Fraction alone would
    # spend minutes building 10**100000000
    "huge_exponent": '[["1e100000000","0","0","0"]]',
    # past the decoder's recursion limit
    "deep_nesting": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize(
    "command", [["matrix", "--space", "SL(4,R)"], ["verify", "--n", "4"]], ids=["matrix", "verify"]
)
@pytest.mark.parametrize("kind", sorted(BAD_FRAMES))
def test_malformed_frame_file_is_config_error(tmp_path, capsys, command, kind):
    frame = tmp_path / "frame.json"
    frame.write_text(BAD_FRAMES[kind])
    code, out, err = run(capsys, *command, "--frame", str(frame))
    assert code == 2
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [["matrix", "--space", "SL(4,R)", "--frame"], ["verify", "--n", "4", "--frame"], ["match", "--input"]],
    ids=["matrix", "verify", "match"],
)
@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe[[1]]",
        b"[[" + b"1" * 5000 + b",0,0,0]]",
        b'{"entries": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ],
    ids=["not_utf8", "digit_limit", "deep_nesting"],
)
def test_unreadable_input_file_is_config_error(tmp_path, capsys, command, content):
    # bytes that are not UTF-8, and a JSON number past int's 4300-digit
    # string limit, raise ValueErrors other than JSONDecodeError; nesting
    # past the decoder's recursion limit raises RecursionError
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        '[["1","-1","0","0"],["2","-2","0","0"],["3","-3","0","0"]]',
        '[["1","-1","0","0"]]',
    ],
    ids=["dependent", "one_vector"],
)
def test_verify_non_spanning_frame_is_config_error(tmp_path, capsys, text):
    frame = tmp_path / "frame.json"
    frame.write_text(text)
    code, out, err = run(capsys, "verify", "--n", "4", "--frame", str(frame))
    assert code == 2
    assert out == ""
    assert "does not span" in err
    assert "Traceback" not in err


def test_match_subcommand(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(
        json.dumps(
            {
                "rows": 3,
                "cols": 6,
                "entries": [
                    [0, 0, 1, 0, 1, 1],
                    [1, 1, 1, 0, 0, 0],
                    [1, 0, 1, 1, 0, 1],
                ],
            }
        )
    )
    code, out, _err = run(
        capsys, "match", "--input", str(matrix), "--trace", "--oracle"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == [[3, 5], [1, 2], [4, 6]]
    assert payload["valid"] is True
    assert payload["oracle_agrees"] is True
    assert [s["chosen"] for s in payload["trace"]["stages"]] == [
        [3, 5],
        [1, 2],
        [4, 6],
    ]


def test_match_no_matching(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"entries": [[1, 1, 0], [1, 1, 0]]}))
    code, out, _err = run(capsys, "match", "--input", str(matrix), "--oracle")
    assert code == 1
    payload = json.loads(out)
    assert payload["pairs"] is None
    assert payload["oracle_found"] is False
    assert payload["oracle_agrees"] is True
    # the certificate: a row set S whose columns number fewer than 2|S|
    rows = [[1, 1, 0], [1, 1, 0]]
    deficient = payload["oracle_deficient_rows"]
    assert deficient and set(deficient) <= set(range(len(rows)))
    union = {j for i in deficient for j, x in enumerate(rows[i]) if x}
    assert len(union) < 2 * len(deficient)


def test_match_trace_of_a_failed_pass(tmp_path, capsys):
    # the plain pass gives row 0 columns 1 and 2 and strands row 1; the
    # trace holds the one completed stage
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"entries": [[1, 1, 0, 0, 1], [1, 1, 0, 0, 0], [1, 1, 1, 0, 0]]}))
    code, out, _err = run(capsys, "match", "--input", str(matrix), "--trace", "--oracle")
    assert code == 1
    assert json.loads(out) == {
        "subcommand": "match",
        "version": rootmatch.__version__,
        "inputs_digest": "2add884c2077a3d9",
        "pairs": None,
        "error": "no matching found",
        "trace": {
            "stages": [
                {
                    "stage": 1,
                    "phase": 1,
                    "order": [0, 2],
                    "top_row": 0,
                    "counts": [[0, 3], [2, 3]],
                    "chosen": [1, 2],
                }
            ],
            "deferred": [],
        },
        "oracle_found": False,
        "oracle_agrees": True,
        "oracle_deficient_rows": [0, 1],
    }


def test_match_greedy_oracle_disagreement_is_reported(tmp_path, capsys):
    # Selection matrices on which the leftmost greedy pass strands a row
    # although a matching exists: the spanning SL(4,R) frame
    # (-8,8,-8,8), (6,-6,-6,6), (-2,-2,2,2), and (3,3,-3,-3),
    # (10,2,2,-14), (14,-14,-14,14), which the former sampler, built on
    # numpy Generator calls, drew as frame 991 of the seed-6 SL(4,R)
    # corpus; the matrices are explicit inputs, since today's corpora hold
    # other frames.  Greedy defers a pair, finds a matching and agrees
    # with the oracle.
    matrix = tmp_path / "matrix.json"
    for entries in (
        [[1, 0, 1, 1, 0, 1], [1, 1, 0, 0, 1, 1], [0, 1, 1, 1, 1, 0]],
        [[0, 1, 1, 1, 1, 0], [1, 1, 1, 0, 1, 1], [1, 1, 0, 0, 1, 1]],
    ):
        matrix.write_text(json.dumps({"entries": entries}))
        code, out, _err = run(capsys, "match", "--input", str(matrix), "--oracle", "--trace")
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["oracle_found"] is True
        assert payload["oracle_agrees"] is True
        assert "oracle_deficient_rows" not in payload
        deferred = payload["trace"]["deferred"]
        assert deferred
        for d in deferred:
            # pair is 1-based like chosen; blocking_rows 0-based like top_row
            assert all(entries[d["row"]][c - 1] for c in d["pair"])
            assert d["row"] not in d["blocking_rows"]
            assert set(d["blocking_rows"]) <= set(range(len(entries)))
    assert payload["pairs"] == [[2, 4], [3, 6], [1, 5]]


NON_BINARY = [1.7, 1.0, True, "1", None, 2, -1]


@pytest.mark.parametrize(
    "document",
    [{"entries": [[1, 1, 0, 0], [0, 0, 1, x]]} for x in NON_BINARY]
    + [{"entries": [[1, 1, 1]], "rows": True}, {"entries": [[1, 1, 1]], "cols": 3.0}],
    ids=[str(x) for x in NON_BINARY] + ["rows_true", "cols_3.0"],
)
def test_match_rejects_non_binary_entries(tmp_path, capsys, document):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(document))
    code, out, err = run(capsys, "match", "--input", str(matrix))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_subcommand(capsys):
    code, out, _err = run(
        capsys,
        "verify",
        "--n",
        "4",
        "--samples",
        "2000",
        "--seeds",
        "1,2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
        ("flat_pipeline", True),
        ("ratio_stability", True),
        ("eps_linear_scaling", True),
    ]


@pytest.mark.parametrize("n, seeds", [("5", "14,15"), ("6", "30,130"), ("8", "29,129")])
def test_verify_passes_where_a_drawn_frame_snaps_to_no_linear_term(capsys, n, seeds):
    # each first seed draws frames whose completion vectors snap onto
    # walls; a case screened on the drawn frame, not the snapped one, can
    # have no first-order term, and the spread judge then compares rounding
    code, out, _err = run(capsys, "verify", "--n", n, "--seeds", seeds)
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_draws_each_seed_once(capsys, monkeypatch):
    # every (v, b) pair is scored on the first seed's rotations, and that
    # seed's entry of the seed spread is the (v1, v1_prime) pair's estimate
    batches = []
    original = modelgeom._haar_batch

    def counting(rng, n, count):
        batches.append(count)
        return original(rng, n, count)

    monkeypatch.setattr(modelgeom, "_haar_batch", counting)
    code, out, _err = run(capsys, "verify", "--n", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    expected = len(payload["seeds"]) * math.ceil(payload["samples"] / modelgeom._CHUNK)
    assert len(batches) == expected == 5
    assert payload["max_ratio_by_seed"][0] == payload["max_ratio_per_pair"]["v1_prime"]


def test_verify_reports_every_epsilon(capsys):
    # 1e-3 and 0.0010000001 print alike under "%g" but are two sweep points
    code, out, _err = run(
        capsys, "verify", "--n", "4", "--samples", "200", "--epsilon", "1e-3,0.0010000001", "--json"
    )
    payload = json.loads(out)
    assert list(payload["gram_deviation_by_epsilon"]) == ["0.001", "0.0010000001"]
    assert code == (0 if payload["passed"] else 1)


def test_verify_judges_a_zero_gram_deviation_and_runs_the_rest(capsys, monkeypatch):
    def flat_deviation(model, frame, u, eps):
        return SimpleNamespace(gram_deviation=0.0)

    monkeypatch.setattr(cli, "pipeline_perturbed", flat_deviation)
    code, out, _err = run(capsys, "verify", "--n", "4", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
        ("flat_pipeline", True),
        ("ratio_stability", True),
        ("eps_linear_scaling", False),
    ]
    assert payload["checks"][2]["detail"] == "case 1: zero Gram deviation"


def test_verify_judges_the_seed_spread(capsys, monkeypatch):
    # every seed's estimate is the first seed's, and the last seed's is 3x
    original = cli.sample_ratio

    def planted(model, v, c, samples, seed):
        first = original(model, v, c, samples, 1)
        return dataclasses.replace(first, max_ratio=first.max_ratio * (3 if seed == 3 else 1))

    monkeypatch.setattr(cli, "sample_ratio", planted)
    code, out, _err = run(
        capsys, "verify", "--n", "4", "--samples", "500", "--seeds", "1,2,3", "--json"
    )
    assert code == 1
    checks_by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks_by_name["ratio_stability"]["passed"] is False
    assert checks_by_name["ratio_stability"]["detail"].endswith("spread 2x or more")
    assert checks_by_name["flat_pipeline"]["passed"] is True
    assert checks_by_name["eps_linear_scaling"]["passed"] is True


def _pairs(pairs):
    """A planted ``match`` of a doubled frame: its columns, row by row."""
    return {"match": MatchResult(pairs)}


def _repeat_a_column(pairs):
    """The row pairs with row 0's first column replaced by row 1's."""
    (_a, b), (c, d), *rest = pairs
    return ((c, b), (c, d), *rest)


@pytest.mark.parametrize(
    "plant, detail",
    [
        (lambda out: {"rotations": (2.0 * out.rotations[0],) + out.rotations[1:]}, "member not unit"),
        (lambda out: _pairs(_repeat_a_column(out.match.pairs)), "6 members, not 2k"),
        (lambda out: _pairs(out.match.pairs[:-1]), "4 members, not 2k"),
        (lambda out: {"gram_deviation": 1e-9}, "Gram deviation 1.000e-09"),
    ],
    ids=["non_unit", "repeated", "short", "gram"],
)
def test_flat_judge_rejects_a_planted_member(plant, detail):
    model = modelgeom.ModelSpace(4)
    out = modelgeom.pipeline_flat(model, [(1, 1, 1, -3), (-3, 1, 1, 1), (1, -1, 1, -1)])
    assert checks.judge_doubled_frame(model, out) == "6 members, Gram deviation 0.0e+00"
    with pytest.raises(CheckFailedError, match=f"^n=4: {detail}"):
        checks.judge_doubled_frame(model, dataclasses.replace(out, **plant(out)))


def test_verify_text_ends_with_the_check_lines_of_all(capsys):
    argv = ["verify", "--n", "4", "--samples", "500", "--seeds", "1,2"]
    code, text, _err = run(capsys, *argv)
    _code, out, _err = run(capsys, *argv, "--json")
    assert code == 0
    report = json.loads(out)["checks"]
    tail = [f"PASS  {c['name']}  ({c['detail']})" for c in report] + ["PASS"]
    assert text.splitlines()[-len(tail):] == tail


def test_verify_bad_n(capsys):
    code, _out, err = run(capsys, "verify", "--n", "3")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "4", "--seeds", ","],
        ["all", "--seeds", ","],
        ["verify", "--n", "4", "--seeds", "-1"],
        ["verify", "--n", "4", "--seeds", "1.5"],
        ["verify", "--n", "4", "--epsilon", "0"],
        ["verify", "--n", "4", "--epsilon", "nan"],
        ["verify", "--n", "4", "--epsilon", "0.5"],
        ["all", "--epsilon", "0.1"],
        ["verify", "--n", "4", "--samples", "0"],
        ["all", "--samples", "0"],
        ["all", "--fuzz-count", "0"],
        ["verify", "--n", "9"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_numeric_options_fail_cleanly(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--n", "4", "--seeds", "1"], "--seeds"),
        (["verify", "--n", "4", "--epsilon", "1e-3"], "--epsilon"),
        (["all", "--fuzz-count", "5", "--seeds", "1"], "--seeds"),
        (["all", "--fuzz-count", "5", "--epsilon", "1e-3,0.001"], "--epsilon"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else x,
)
def test_spread_lists_need_two_distinct_values(capsys, argv, flag):
    # a spread over one value is 1 whatever the model does: no evidence
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: expected at least two distinct values" in err
    assert "Traceback" not in err


def test_verify_with_frame_file(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(WALL_FRAME)
    code, out, _err = run(
        capsys,
        "verify",
        "--n",
        "4",
        "--frame",
        str(frame),
        "--samples",
        "1000",
        "--seeds",
        "1,2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["max_ratio_per_pair"]) == 6


def test_reports_are_byte_identical(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(WALL_FRAME)
    argv = ["matrix", "--space", "SL(4,R)", "--frame", str(frame), "--json"]
    _code, out1, _ = run(capsys, *argv)
    _code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv = ["verify", "--n", "4", "--samples", "500", "--seeds", "1,2", "--json"]
    _code, out1, _ = run(capsys, *argv)
    _code, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _err = run(
        capsys, "catalogue", "--json", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert "SL(4,R)" in target.read_text()


@pytest.mark.parametrize(
    "argv",
    [("catalogue",), ("verify", "--n", "4", "--samples", "200", "--seeds", "1,2")],
    ids=["catalogue", "verify"],
)
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_output_flag_unwritable_path_is_config_error(tmp_path, capsys, argv, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write output file {str(target)!r}: ")
    assert "Traceback" not in err


def test_all_quick_sweep(capsys):
    code, out, _err = run(
        capsys,
        "all",
        "--fuzz-count",
        "5",
        "--samples",
        "2000",
        "--seeds",
        "1,2",
        "--json",
    )
    assert code == 0, out
    payload = json.loads(out)
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == [check.__name__ for check in checks.ALL]
    assert {
        "catalogue_identities",
        "codim_bounds_rank_2_to_8",
        "fuzz_properties_and_matching",
        "bracket_identity_exact",
        "fperp_gram_identity",
        "stabilizer_zero_case",
        "ratio_stability",
        "eps_linear_scaling",
        "flat_pipeline",
    } <= set(names)


def test_all_reports_a_failing_check_and_runs_the_rest(monkeypatch, capsys):
    seen = []

    def passing(inputs):
        seen.append(inputs)
        return "evidence"

    def planted(inputs):
        raise CheckFailedError("planted counterexample")

    monkeypatch.setattr(checks, "ALL", (planted, passing))
    code, out, _err = run(capsys, "all", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"] == [
        {"name": "planted", "passed": False, "detail": "planted counterexample"},
        {"name": "passing", "passed": True, "detail": "evidence"},
    ]
    # the defaults of `all` are the inputs the acceptance suite runs on
    assert seen == [checks.Inputs()]


def test_import_does_not_load_scipy():
    src = str(Path(rootmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, rootmatch, rootmatch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
