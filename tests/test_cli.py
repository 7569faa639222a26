"""End-to-end tests for the command line interface.

Each test drives ``main(argv)`` in process and inspects stdout, stderr, and
the exit status.  Documents are written to temporary files and passed with
``-i`` except where the stdin default is the point.
"""

import argparse
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperforest
from hyperforest import ForestShape, encode_forest, sample_forest
from hyperforest import cli
from hyperforest.cli import main
from perfbench.tracing import CLI_SPANS, Tracer
from conftest import (
    WORKED_BLOCKS,
    WORKED_EDGES,
    WORKED_FINAL_ROOT,
    WORKED_LINKS,
    WORKED_ROOTS,
    run_capped,
)

WORKED_FOREST_DOC = {
    "n": 22,
    "b": 3,
    "edges": [list(e) for e in WORKED_EDGES],
    "roots": list(WORKED_ROOTS),
}

WORKED_CODE_DOC = {
    "b": 3,
    "s": 9,
    "k": 3,
    "R": list(WORKED_ROOTS),
    "r": WORKED_FINAL_ROOT,
    "P": [list(blk) for blk in WORKED_BLOCKS],
    "N": list(WORKED_LINKS),
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestValidate:
    def test_valid_forest_document(self, capsys, tmp_path):
        path = write_doc(tmp_path, "forest.json", WORKED_FOREST_DOC)
        status, out, err = run_cli(capsys, ["validate", "-i", path])
        assert status == 0
        assert err == ""
        doc = json.loads(out)
        assert doc == {
            "kind": "forest",
            "valid": True,
            "s": 9,
            "k": 3,
            "violations": [],
        }

    def test_valid_code_document(self, capsys, tmp_path):
        path = write_doc(tmp_path, "code.json", WORKED_CODE_DOC)
        status, out, _ = run_cli(capsys, ["validate", "-i", path])
        assert status == 0
        assert json.loads(out)["kind"] == "code"

    def test_invalid_forest_exits_one(self, capsys, tmp_path):
        bad = {
            "n": 3,
            "b": 2,
            "edges": [[1, 2], [2, 3], [1, 3]],
            "roots": [1],
        }
        path = write_doc(tmp_path, "bad.json", bad)
        status, out, _ = run_cli(capsys, ["validate", "-i", path])
        assert status == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["violations"]

    def test_declared_size_is_one_violation_in_bounded_memory(self, capsys, tmp_path):
        # one edge and one root cannot fill n = 200,000; analysing the
        # declared labels would add a "has 0 roots" line per vertex
        path = tmp_path / "declared.json"
        path.write_bytes(b'{"n":200000,"b":2,"edges":[[1,2]],"roots":[1]}')
        violation = "vertex count n=200000 differs from s(b-1)+k+1=2"
        tracemalloc.start()
        try:
            validated = run_cli(capsys, ["validate", "-i", str(path)])
            encoded = run_cli(capsys, ["encode", "-i", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert validated[0] == 1
        assert json.loads(validated[1])["violations"] == [violation]
        assert encoded[0] == 1
        assert json.loads(encoded[2]) == {
            "error": "invalid-structure",
            "message": f"invalid forest: {violation}",
        }
        assert peak < 4 * 2**20

    def test_unrecognised_document(self, capsys, tmp_path):
        path = write_doc(tmp_path, "odd.json", {"foo": 1})
        status, out, err = run_cli(capsys, ["validate", "-i", path])
        assert status == 1
        assert json.loads(err)["error"] == "invalid-document"

    def test_non_json_input(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json", encoding="utf-8")
        status, _, err = run_cli(capsys, ["validate", "-i", str(path)])
        assert status == 1
        assert json.loads(err)["error"] == "invalid-document"

    def test_non_json_input_keeps_its_message(self, capsys, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json", encoding="utf-8")
        _, _, err = run_cli(capsys, ["validate", "-i", str(path)])
        assert json.loads(err)["message"].startswith("input is not valid JSON: ")

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested-200000-deep"),
            pytest.param(
                b'{"n": ' + b"7" * 5000 + b', "b": 2, "edges": [], "roots": [1]}',
                id="integer-of-5000-digits",
            ),
            pytest.param(b'{"n": 2, "b": 2, "edges": [[1, 2]], "roots": [\xff1]}',
                         id="non-utf8-byte"),
        ],
    )
    def test_unreadable_input_is_one_error_line(self, capsys, tmp_path, content):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        status, out, err = run_cli(capsys, ["validate", "-i", str(path)])
        assert status == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "invalid-document"


class TestEncodeDecode:
    def test_encode_worked_forest(self, capsys, tmp_path):
        path = write_doc(tmp_path, "forest.json", WORKED_FOREST_DOC)
        status, out, _ = run_cli(capsys, ["encode", "-i", path])
        assert status == 0
        assert json.loads(out) == WORKED_CODE_DOC

    def test_decode_worked_code(self, capsys, tmp_path):
        path = write_doc(tmp_path, "code.json", WORKED_CODE_DOC)
        status, out, _ = run_cli(capsys, ["decode", "-i", path])
        assert status == 0
        assert json.loads(out) == WORKED_FOREST_DOC

    def test_decode_then_encode_is_byte_identical(self, capsys, tmp_path):
        code_path = write_doc(tmp_path, "code.json", WORKED_CODE_DOC)
        status, decoded, _ = run_cli(capsys, ["decode", "-i", code_path])
        assert status == 0
        forest_path = tmp_path / "decoded.json"
        forest_path.write_text(decoded, encoding="utf-8")
        status, encoded, _ = run_cli(capsys, ["encode", "-i", str(forest_path)])
        assert status == 0
        assert encoded == json.dumps(WORKED_CODE_DOC, indent=2) + "\n"

    def test_encode_reads_stdin_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(WORKED_FOREST_DOC))
        )
        status, out, _ = run_cli(capsys, ["encode"])
        assert status == 0
        assert json.loads(out) == WORKED_CODE_DOC

    def test_decode_rejects_broken_code(self, capsys, tmp_path):
        broken = dict(WORKED_CODE_DOC, N=list(WORKED_LINKS[:7]))
        path = write_doc(tmp_path, "broken.json", broken)
        status, _, err = run_cli(capsys, ["decode", "-i", path])
        assert status == 1
        assert json.loads(err)["error"] == "invalid-structure"

    def test_encode_rejects_missing_key(self, capsys, tmp_path):
        doc = {k: v for k, v in WORKED_FOREST_DOC.items() if k != "roots"}
        path = write_doc(tmp_path, "partial.json", doc)
        status, _, err = run_cli(capsys, ["encode", "-i", path])
        assert status == 1
        assert json.loads(err)["error"] == "invalid-document"


FOREST_DOC = {"n": 3, "b": 2, "edges": [[1, 2], [2, 3]], "roots": [1]}
CODE_DOC = {"b": 2, "s": 2, "k": 0, "R": [3], "r": 3, "P": [[1], [2]], "N": [3]}
NOT_INTEGERS = {"true": True, "float": 1.0, "string": "1", "null": None, "list": [1]}


def _intake_cases():
    """(command, document, message) for every place a document holds integers,
    then for a document or key of the wrong JSON type."""
    for name, bad in NOT_INTEGERS.items():
        yield pytest.param("encode", dict(FOREST_DOC, edges=[[1, 2], [2, bad]]),
                           "each edge must be a list of integers", id=f"edge-{name}")
        yield pytest.param("encode", dict(FOREST_DOC, roots=[bad]),
                           "roots must be a list of integers", id=f"root-{name}")
        yield pytest.param("decode", dict(CODE_DOC, P=[[1], [bad]]),
                           "each block must be a list of integers", id=f"block-{name}")
        yield pytest.param("decode", dict(CODE_DOC, R=[bad]),
                           "R must be a list of integers", id=f"R-{name}")
        yield pytest.param("decode", dict(CODE_DOC, N=[bad]),
                           "N must be a list of integers", id=f"N-{name}")
    yield pytest.param("encode", dict(FOREST_DOC, edges=[[1, 2], 3]),
                       "each edge must be a list of integers", id="edge-not-a-list")
    yield pytest.param("decode", dict(CODE_DOC, P=[[1], 2]),
                       "each block must be a list of integers", id="block-not-a-list")
    yield pytest.param("validate", dict(FOREST_DOC, edges=["12"]),
                       "each edge must be a list of integers", id="edge-a-string")
    # precedence: edges before roots; R before r; N before the shape and
    # the blocks; the shape before the blocks
    yield pytest.param("encode", dict(FOREST_DOC, edges=[[1, True], [2, 3]], roots=["1"]),
                       "each edge must be a list of integers", id="edge-and-roots")
    yield pytest.param("decode", dict(CODE_DOC, R=[None], r="x"),
                       "R must be a list of integers", id="R-and-r")
    yield pytest.param("decode", dict(CODE_DOC, P=[[1], [None]], N=[None]),
                       "N must be a list of integers", id="block-and-N")
    yield pytest.param("decode", dict(CODE_DOC, N=[1.5], b=1),
                       "N must be a list of integers", id="N-and-shape")
    yield pytest.param("decode", dict(CODE_DOC, P=[[1], [None]], b=1),
                       "code document shape is invalid: edge size b=1 must be at least 2",
                       id="block-and-shape")
    yield pytest.param("encode", [FOREST_DOC], "forest document must be a JSON object",
                       id="forest-not-an-object")
    yield pytest.param("decode", [CODE_DOC], "code document must be a JSON object",
                       id="code-not-an-object")
    yield pytest.param("rank", 3, "code document must be a JSON object", id="rank-not-an-object")
    for name, bad in NOT_INTEGERS.items():
        yield pytest.param("encode", dict(FOREST_DOC, n=bad),
                           "forest document key 'n' must be an integer", id=f"n-{name}")
        yield pytest.param("decode", dict(CODE_DOC, s=bad),
                           "code document key 's' must be an integer", id=f"s-{name}")
        if bad is not None:  # r is null when s is 0
            yield pytest.param("decode", dict(CODE_DOC, r=bad),
                               "code document key 'r' must be an integer or null",
                               id=f"final-root-{name}")
    for name, bad in {"integer": 3, "object": {"1": 2}, "string": "12", "null": None}.items():
        yield pytest.param("encode", dict(FOREST_DOC, edges=bad),
                           "forest document key 'edges' must be a list", id=f"edges-{name}")
        yield pytest.param("encode", dict(FOREST_DOC, roots=bad),
                           "forest document key 'roots' must be a list", id=f"roots-{name}")
        yield pytest.param("decode", dict(CODE_DOC, R=bad),
                           "code document key 'R' must be a list", id=f"R-is-{name}")
        yield pytest.param("decode", dict(CODE_DOC, N=bad),
                           "code document key 'N' must be a list", id=f"N-is-{name}")


class TestDocumentIntake:
    @pytest.mark.parametrize("command,doc,message", _intake_cases())
    def test_error_line_is_byte_exact(self, capsys, tmp_path, command, doc, message):
        path = write_doc(tmp_path, "doc.json", doc)
        status, out, err = run_cli(capsys, [command, "-i", path])
        assert status == 1
        assert out == ""
        assert err == '{"error":"invalid-document","message":"' + message + '"}\n'


JSON_INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64), min_value=-(2**200)),
)
JSON_SCALARS = st.one_of(JSON_INTS, st.booleans(), st.none(), st.text(), st.floats())


def json_arrays(elements, **sizes):
    """Lists or tuples of the elements: json prints both as arrays, and the
    CLI's documents hold the values' own tuples."""
    return st.one_of(st.lists(elements, **sizes), st.lists(elements, **sizes).map(tuple))


JSON_DOCUMENTS = st.recursive(
    st.one_of(
        JSON_SCALARS,
        json_arrays(JSON_INTS),
        json_arrays(json_arrays(JSON_INTS)),
        json_arrays(json_arrays(st.one_of(JSON_INTS, st.booleans(), st.none(), st.text()))),
    ),
    lambda children: st.one_of(
        json_arrays(children, max_size=4), st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=30,
)


class TestPrettyPrinter:
    @settings(max_examples=500, deadline=None)
    @given(JSON_DOCUMENTS)
    def test_equals_indented_json_dumps(self, doc):
        assert cli._pretty(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("b,s,k", [(2, 19_998, 1), (3, 9_999, 1)])
    def test_large_round_trip_prints_indented_json(self, capsys, tmp_path, b, s, k):
        forest = sample_forest(ForestShape(b=b, s=s, k=k), 11)
        assert forest.n == 20_000
        code = encode_forest(forest)
        forest_doc = {"n": forest.n, "b": b, "edges": [list(e) for e in forest.edges],
                      "roots": list(forest.roots)}
        code_doc = {"b": b, "s": s, "k": k, "R": list(code.roots), "r": code.final_root,
                    "P": [list(blk) for blk in code.blocks], "N": list(code.links)}

        path = write_doc(tmp_path, "forest.json", forest_doc)
        status, out, _ = run_cli(capsys, ["encode", "-i", path])
        assert status == 0
        assert out == json.dumps(code_doc, indent=2) + "\n"

        code_path = tmp_path / "code.json"
        code_path.write_text(out, encoding="utf-8")
        status, out, _ = run_cli(capsys, ["decode", "-i", str(code_path)])
        assert status == 0
        assert out == json.dumps(forest_doc, indent=2) + "\n"


class TestCount:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["count", "--kind", "forests", "--b", "3", "--s", "2", "--k", "0"], "75"),
            (["count", "--kind", "hypertrees", "--b", "2", "--s", "3"], "64"),
            (["count", "--kind", "hypercycles", "--b", "3", "--s", "2"], "12"),
            (
                [
                    "count",
                    "--kind",
                    "hypercycles",
                    "--b",
                    "3",
                    "--s",
                    "2",
                    "--form",
                    "sum",
                ],
                "12",
            ),
            (
                [
                    "count",
                    "--kind",
                    "hypercycle-class",
                    "--b",
                    "3",
                    "--s",
                    "2",
                    "--j",
                    "2",
                ],
                "48",
            ),
        ],
    )
    def test_counts(self, capsys, argv, expected):
        status, out, _ = run_cli(capsys, argv)
        assert status == 0
        doc = json.loads(out)
        assert doc["count"] == expected
        assert isinstance(doc["count"], str)

    @pytest.mark.parametrize(
        "argv,keys",
        [
            (
                ["--kind", "forests", "--b", "3", "--s", "9", "--k", "3"],
                '"kind": "forests",\n  "b": 3,\n  "s": 9,\n  "k": 3,\n  "n": 22,\n'
                '  "count": "55330398076865079168000"',
            ),
            (
                ["--kind", "hypertrees", "--b", "2", "--s", "3"],
                '"kind": "hypertrees",\n  "b": 2,\n  "s": 3,\n  "n": 4,\n'
                '  "count": "64"',
            ),
            (
                ["--kind", "hypercycles", "--b", "3", "--s", "2"],
                '"kind": "hypercycles",\n  "b": 3,\n  "s": 2,\n  "n": 4,\n'
                '  "form": "closed",\n  "count": "12"',
            ),
            (
                ["--kind", "hypercycles", "--b", "3", "--s", "3", "--form", "sum"],
                '"kind": "hypercycles",\n  "b": 3,\n  "s": 3,\n  "n": 6,\n'
                '  "form": "sum",\n  "count": "1080"',
            ),
            (
                ["--kind", "hypercycle-class", "--b", "3", "--s", "2", "--j", "2"],
                '"kind": "hypercycle-class",\n  "b": 3,\n  "s": 2,\n  "n": 4,\n'
                '  "j": 2,\n  "count": "48"',
            ),
        ],
    )
    def test_count_documents_are_byte_exact(self, capsys, argv, keys):
        # key order is part of the output contract, not only the values
        status, out, _ = run_cli(capsys, ["count"] + argv)
        assert status == 0
        assert out == "{\n  " + keys + "\n}\n"

    def test_count_reports_n(self, capsys):
        status, out, _ = run_cli(
            capsys, ["count", "--kind", "forests", "--b", "3", "--s", "9", "--k", "3"]
        )
        assert status == 0
        assert json.loads(out)["n"] == 22

    def test_forests_require_k(self, capsys):
        status, _, err = run_cli(
            capsys, ["count", "--kind", "forests", "--b", "3", "--s", "2"]
        )
        assert status == 2
        assert json.loads(err)["error"] == "usage"

    def test_bad_parameters_exit_two(self, capsys):
        status, _, err = run_cli(
            capsys, ["count", "--kind", "hypercycles", "--b", "3", "--s", "1"]
        )
        assert status == 2
        assert json.loads(err)["error"] == "range"


class TestEnumerate:
    def test_codes_small_space(self, capsys):
        status, out, _ = run_cli(
            capsys, ["enumerate", "--kind", "codes", "--b", "2", "--s", "2", "--k", "0"]
        )
        assert status == 0
        lines = out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert len(docs) == 10
        assert docs[-1] == {
            "summary": {"kind": "codes", "b": 2, "s": 2, "k": 0, "count": "9"}
        }
        assert all(set(d) == {"b", "s", "k", "R", "r", "P", "N"} for d in docs[:-1])

    def test_forests_small_space(self, capsys):
        status, out, _ = run_cli(
            capsys,
            ["enumerate", "--kind", "forests", "--b", "2", "--s", "2", "--k", "0"],
        )
        assert status == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert docs[-1]["summary"]["count"] == "9"
        assert all(d["n"] == 3 for d in docs[:-1])

    def test_hypercycles_set_and_multiset(self, capsys):
        status, out, _ = run_cli(
            capsys, ["enumerate", "--kind", "hypercycles", "--b", "3", "--s", "2"]
        )
        assert status == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert docs[-1]["summary"]["count"] == "6"
        assert docs[-1]["summary"]["multiset"] is False

        status, out, _ = run_cli(
            capsys,
            [
                "enumerate",
                "--kind",
                "hypercycles",
                "--b",
                "2",
                "--s",
                "3",
                "--multiset",
            ],
        )
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert docs[-1]["summary"]["count"] == "7"
        assert docs[-1]["summary"]["multiset"] is True

    @pytest.mark.parametrize(
        "argv,lines",
        [
            (
                ["--kind", "forests", "--b", "2", "--s", "1", "--k", "0"],
                [
                    '{"n":2,"b":2,"edges":[[1,2]],"roots":[1]}',
                    '{"n":2,"b":2,"edges":[[1,2]],"roots":[2]}',
                    '{"summary":{"kind":"forests","b":2,"s":1,"k":0,"count":"2"}}',
                ],
            ),
            (
                ["--kind", "codes", "--b", "2", "--s", "1", "--k", "0"],
                [
                    '{"b":2,"s":1,"k":0,"R":[1],"r":1,"P":[[2]],"N":[]}',
                    '{"b":2,"s":1,"k":0,"R":[2],"r":2,"P":[[1]],"N":[]}',
                    '{"summary":{"kind":"codes","b":2,"s":1,"k":0,"count":"2"}}',
                ],
            ),
            (
                ["--kind", "hypercycles", "--b", "3", "--s", "2"],
                [
                    '{"n":4,"b":3,"edges":[[1,2,3],[1,2,4]]}',
                    '{"n":4,"b":3,"edges":[[1,2,3],[1,3,4]]}',
                    '{"n":4,"b":3,"edges":[[1,2,3],[2,3,4]]}',
                    '{"n":4,"b":3,"edges":[[1,2,4],[1,3,4]]}',
                    '{"n":4,"b":3,"edges":[[1,2,4],[2,3,4]]}',
                    '{"n":4,"b":3,"edges":[[1,3,4],[2,3,4]]}',
                    '{"summary":{"kind":"hypercycles","b":3,"s":2,'
                    '"multiset":false,"count":"6"}}',
                ],
            ),
            (
                ["--kind", "hypercycles", "--b", "2", "--s", "2", "--multiset"],
                [
                    '{"n":2,"b":2,"edges":[[1,2],[1,2]]}',
                    '{"summary":{"kind":"hypercycles","b":2,"s":2,'
                    '"multiset":true,"count":"1"}}',
                ],
            ),
        ],
    )
    def test_output_is_byte_exact(self, capsys, argv, lines):
        status, out, _ = run_cli(capsys, ["enumerate"] + argv)
        assert status == 0
        assert out == "".join(line + "\n" for line in lines)

    def test_budget_env_refusal(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERFOREST_BUDGET", "2")
        status, out, err = run_cli(
            capsys, ["enumerate", "--kind", "forests", "--b", "2", "--s", "2", "--k", "0"]
        )
        assert status == 2
        assert json.loads(err)["error"] == "budget"

    def test_budget_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERFOREST_BUDGET", "lots")
        status, _, err = run_cli(
            capsys, ["enumerate", "--kind", "forests", "--b", "2", "--s", "2", "--k", "0"]
        )
        assert status == 2
        assert json.loads(err)["error"] == "range"

    def test_budget_env_must_be_non_negative(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERFOREST_BUDGET", "-1")
        status, out, err = run_cli(
            capsys, ["enumerate", "--kind", "forests", "--b", "2", "--s", "2", "--k", "0"]
        )
        assert (status, out) == (2, "")
        assert err == '{"error":"range","message":"HYPERFOREST_BUDGET must be non-negative"}\n'

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "forests", "--b", "3", "--s", "2000", "--k", "0"],
            ["--kind", "hypercycles", "--b", "3", "--s", "1000"],
        ],
        ids=["forests", "hypercycles"],
    )
    def test_refusal_past_4300_digits_is_one_budget_line(self, capsys, argv):
        # the candidate count has thousands of digits, more than str() of an
        # int may write, and the refusal still reads as the contract says
        status, out, err = run_cli(capsys, ["enumerate"] + argv)
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "budget"
        count = error["message"].split()[2]
        assert count.isdigit() and len(count) > 4300


class TestAudit:
    def test_worked_audit(self, capsys):
        status, out, _ = run_cli(capsys, ["audit", "--b", "3", "--s", "2"])
        assert status == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[0] == {"j": 2, "count": "48"}
        summary = lines[-1]["summary"]
        assert summary["closed_form_count"] == "12"
        assert summary["cycle_length_total"] == "48"
        assert summary["set_count"] == "6"
        assert summary["multiset_count"] == "6"
        assert "no equality across families" in summary["notes"]

    def test_audit_over_budget_reports_null_counts(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERFOREST_BUDGET", "1")
        status, out, _ = run_cli(capsys, ["audit", "--b", "3", "--s", "2"])
        assert status == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["set_count"] is None
        assert summary["multiset_count"] is None
        assert summary["closed_form_count"] == "12"


class TestSample:
    ARGV = ["sample", "--b", "2", "--s", "3", "--k", "1", "--seed", "5", "--m", "4"]

    def test_draws_forest_documents(self, capsys):
        status, out, _ = run_cli(capsys, self.ARGV)
        assert status == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(docs) == 4
        assert all(d["n"] == 5 and d["b"] == 2 for d in docs)
        assert all(len(d["roots"]) == 2 for d in docs)

    def test_same_seed_same_output(self, capsys):
        _, first, _ = run_cli(capsys, self.ARGV)
        _, second, _ = run_cli(capsys, self.ARGV)
        assert first == second

    def test_seed_out_of_range(self, capsys):
        self.assert_refused(capsys, ["--seed", str(1 << 64)])

    def test_negative_m(self, capsys):
        self.assert_refused(capsys, ["--seed", "1", "--m", "-1"])

    @staticmethod
    def assert_refused(capsys, flags):
        # the stream checks the seed and m before its first draw
        status, out, err = run_cli(capsys, ["sample", "--b", "2", "--s", "2", "--k", "0", *flags])
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "range"

    def test_memory_does_not_grow_with_m(self, tmp_path):
        # each forest is printed once drawn, so m = 1000 peaks where m = 50
        # does; stdout goes to a file, which holds no output in memory
        def peak(m):
            path = tmp_path / f"m{m}.jsonl"
            argv = ["sample", "--b", "3", "--s", "200", "--k", "3", "--seed", "9", "--m", str(m)]
            with open(path, "w", encoding="utf-8") as handle, redirect_stdout(handle):
                tracemalloc.start()
                try:
                    status = main(argv)
                    _, top = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert status == 0
            assert path.read_bytes().count(b"\n") == m
            return top

        peak(1)  # the parser is built once per process, outside the peaks
        assert peak(1000) < 2 * peak(50)


class TestRankUnrank:
    def test_rank_worked_code(self, capsys, tmp_path):
        path = write_doc(tmp_path, "code.json", WORKED_CODE_DOC)
        status, out, _ = run_cli(capsys, ["rank", "-i", path])
        assert status == 0
        doc = json.loads(out)
        assert set(doc) == {"b", "s", "k", "index"}
        index = int(doc["index"])

        status, out, _ = run_cli(
            capsys,
            [
                "unrank",
                "--index",
                str(index),
                "--b",
                "3",
                "--s",
                "9",
                "--k",
                "3",
            ],
        )
        assert status == 0
        assert json.loads(out) == WORKED_CODE_DOC

    def test_unrank_small_space_last_index(self, capsys):
        status, out, _ = run_cli(
            capsys, ["unrank", "--index", "8", "--b", "2", "--s", "2", "--k", "0"]
        )
        assert status == 0
        assert json.loads(out) == {
            "b": 2,
            "s": 2,
            "k": 0,
            "R": [3],
            "r": 3,
            "P": [[1], [2]],
            "N": [3],
        }

    def test_unrank_out_of_range(self, capsys):
        status, _, err = run_cli(
            capsys, ["unrank", "--index", "9", "--b", "2", "--s", "2", "--k", "0"]
        )
        assert status == 2
        assert json.loads(err)["error"] == "range"

    def test_unrank_refusal_past_the_decimal_limit(self, capsys):
        # the code count of this shape has over 13,000 digits, past the
        # interpreter's default int_max_str_digits
        argv = ["unrank", "--index", "-1", "--b", "3", "--s", "2000", "--k", "2"]
        status, out, err = run_cli(capsys, argv)
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "range"
        assert error["message"].startswith("index -1 outside 0..")


class TestIds:
    def test_full_space_identifiers(self, capsys):
        status, out, _ = run_cli(
            capsys, ["ids", "--b", "2", "--s", "2", "--k", "0", "--m", "9"]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert len(set(lines)) == 9

    def test_lines_are_the_unranked_documents(self, capsys):
        # 500 codes with two links on 1..5: the 60 ids pass two carries
        shape = ["--b", "2", "--s", "3", "--k", "1"]
        status, out, _ = run_cli(capsys, ["ids", *shape, "--m", "60"])
        assert status == 0
        lines = []
        for i in range(60):
            _, doc, _ = run_cli(capsys, ["unrank", *shape, "--index", str(i)])
            lines.append(json.dumps(json.loads(doc), separators=(",", ":")) + "\n")
        assert out == "".join(lines)

    def test_lines_past_two_carries_at_b5(self, capsys):
        # two links on 1..13, so the 400 ids pass two carries; each block
        # digit's last three members are closed forms
        shape = ["--b", "5", "--s", "3", "--k", "0"]
        status, out, _ = run_cli(capsys, ["ids", *shape, "--m", "400"])
        assert status == 0
        lines = []
        for i in range(400):
            _, doc, _ = run_cli(capsys, ["unrank", *shape, "--index", str(i)])
            lines.append(json.dumps(json.loads(doc), separators=(",", ":")) + "\n")
        assert out == "".join(lines)

    def test_too_many_identifiers(self, capsys):
        # 9 codes in the space: the stream refuses before its first code
        status, out, err = run_cli(
            capsys, ["ids", "--b", "2", "--s", "2", "--k", "0", "--m", "10"]
        )
        assert status == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "range"


# b past what the C-level math functions take: the size rule refuses each
# count before any of them could raise an OverflowError
TOO_LARGE = "100000000000000000000000000000"
# s whose n no sieve or label list fits in memory: a MemoryError, reported
# the same way
TOO_MANY = "100000000000000000"


class TestParametersTooLargeToCompute:
    # the size rule refuses first wherever it can; an OverflowError or a
    # MemoryError that a layer raises all the same is worded the same way
    @pytest.mark.parametrize("error", [OverflowError, MemoryError])
    def test_a_late_error_is_one_range_line(self, capsys, monkeypatch, error):
        def count(**params):
            raise error("from the layer")

        monkeypatch.setattr(cli, "count_forests", count)
        status, out, err = run_cli(capsys, ["count", "--kind", "forests", "--b", "3",
                                            "--s", "2", "--k", "0"])
        assert (status, out) == (2, "")
        assert err == '{"error":"range","message":"parameters too large to compute"}\n'

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--kind", "forests", "--b", TOO_LARGE, "--s", "10", "--k", "0"],
            ["count", "--kind", "hypertrees", "--b", TOO_LARGE, "--s", "10"],
            ["count", "--kind", "hypercycles", "--b", TOO_LARGE, "--s", "10"],
            ["count", "--kind", "hypercycle-class", "--b", TOO_LARGE, "--s", "10", "--j", "2"],
            ["audit", "--b", TOO_LARGE, "--s", "10"],
            ["count", "--kind", "forests", "--b", "3", "--s", "10", "--k", TOO_LARGE],
            ["count", "--kind", "forests", "--b", "3", "--s", TOO_MANY, "--k", "0"],
            ["count", "--kind", "hypertrees", "--b", "3", "--s", TOO_MANY],
            ["sample", "--b", "3", "--s", TOO_MANY, "--k", "0", "--seed", "1"],
        ],
        ids=["forests", "hypertrees", "hypercycles", "hypercycle-class", "audit", "forests-k",
             "forests-s", "hypertrees-s", "sample-s"],
    )
    def test_is_one_range_line(self, capsys, argv):
        status, out, err = run_cli(capsys, argv)
        assert (status, out) == (2, "")
        assert err == '{"error":"range","message":"parameters too large to compute"}\n'

    # n fits the C long that math.factorial takes, yet no int could hold the
    # count: the refusal comes before the factorial, which would run for hours
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--kind", "hypercycles", "--b", "3", "--s", str(2**63)],
            ["count", "--kind", "hypercycles", "--b", "3", "--s", str(2**63), "--form", "sum"],
            ["count", "--kind", "hypercycle-class", "--b", "3", "--s", str(2**61), "--j", "2"],
        ],
        ids=["hypercycles", "hypercycles-sum", "hypercycle-class"],
    )
    def test_huge_hypercycle_counts_are_refused_within_seconds(self, argv):
        _assert_refused_within_seconds(argv)

    # a lower bound on each count, its prime sieve or its candidate count
    # passes a terabyte: the refusal comes before the sieve, the factorial or
    # comb(), which would run for hours or fill memory
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--kind", "hypercycles", "--b", "3", "--s", str(2**40)],
            ["count", "--kind", "hypercycles", "--b", "3", "--s", str(2**40), "--form", "sum"],
            ["count", "--kind", "hypercycle-class", "--b", "3", "--s", str(2**40), "--j", "2"],
            ["audit", "--b", "3", "--s", TOO_MANY],
            ["enumerate", "--kind", "forests", "--b", "2", "--s", TOO_MANY, "--k", "0"],
            ["enumerate", "--kind", "hypercycles", "--b", "3", "--s", TOO_MANY],
            ["count", "--kind", "forests", "--b", "2", "--s", "1", "--k", str(10**12)],
        ],
        ids=["hypercycles", "hypercycles-sum", "hypercycle-class", "audit",
             "enumerate-forests", "enumerate-hypercycles", "forests-sieve"],
    )
    def test_counts_and_enumerations_past_memory_are_refused_within_seconds(self, argv):
        _assert_refused_within_seconds(argv)

    # n passes sys.maxsize, so no list could hold a code's labels: the refusal
    # comes before the radices are built or the k+1 roots are unranked
    @pytest.mark.parametrize(
        "argv",
        [
            ["unrank", "--index", "5", "--b", "2", "--s", "1", "--k", str(10**20)],
            ["ids", "--b", "2", "--s", "1", "--k", str(10**20), "--m", "1"],
            ["unrank", "--index", "0", "--b", "2", "--s", str(10**19), "--k", "0"],
            ["ids", "--b", "2", "--s", str(10**19), "--k", "0", "--m", "1"],
        ],
        ids=["unrank-k", "ids-k", "unrank-s", "ids-s"],
    )
    def test_codes_past_a_list_are_refused_within_seconds(self, argv):
        _assert_refused_within_seconds(argv)

    # n is below sys.maxsize, but its label slots pass any physical memory:
    # the refusal comes before the radices are built
    @pytest.mark.parametrize(
        "argv",
        [
            ["unrank", "--index", "0", "--b", "2", "--s", TOO_MANY, "--k", "0"],
            ["ids", "--b", "2", "--s", TOO_MANY, "--k", "0", "--m", "1"],
        ],
        ids=["unrank", "ids"],
    )
    def test_codes_past_memory_are_refused_within_seconds(self, argv):
        _assert_refused_within_seconds(argv)


def _assert_refused_within_seconds(argv):
    """A fresh process with a capped address space, so that a call that runs
    without bound fails on the timeout and not by exhausting the test
    runner's memory."""
    done = run_capped("-m", "hyperforest.cli", *argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == '{"error":"range","message":"parameters too large to compute"}\n'


# code documents whose shape makes n, or k + 1, pass the 4300 digits that
# str() of an int may write; each key has at most 4300 digits, which json reads
PAST_THE_LIMIT = {
    "n": (
        {"b": 10**4299, "s": 20, "k": 0, "R": [0], "r": 0, "P": [], "N": []},
        ["root 0 outside 1..1" + "9" * 4298 + "81", "expected 20 blocks, found 0",
         "blocks do not cover every non-root label exactly once",
         "expected 19 links, found 0"],
    ),
    "k-plus-one": (
        {"b": 3, "s": 0, "k": 10**4300 - 1, "R": [1], "r": None, "P": [], "N": []},
        ["expected 1" + "0" * 4300 + " roots, found 1",
         "blocks do not cover every non-root label exactly once"],
    ),
}


class TestCodeShapePastTheDecimalLimit:
    @pytest.mark.parametrize("name", list(PAST_THE_LIMIT))
    def test_validate_reports(self, capsys, tmp_path, name):
        doc, violations = PAST_THE_LIMIT[name]
        status, out, err = run_cli(capsys, ["validate", "-i", write_doc(tmp_path, "c.json", doc)])
        assert (status, err) == (1, "")
        report = json.loads(out)
        assert (report["valid"], report["violations"]) == (False, violations)

    @pytest.mark.parametrize("command", ["decode", "rank"])
    @pytest.mark.parametrize("name", list(PAST_THE_LIMIT))
    def test_refusal_is_one_line(self, capsys, tmp_path, command, name):
        doc, violations = PAST_THE_LIMIT[name]
        status, out, err = run_cli(capsys, [command, "-i", write_doc(tmp_path, "c.json", doc)])
        assert (status, out) == (1, "")
        message = "invalid code: " + "; ".join(violations)
        assert err == '{"error":"invalid-structure","message":"' + message + '"}\n'


def _decimal(value: int) -> str:
    """The decimal text of an int of any size: the interpreter's digit limit
    is lifted for this one str() call and then restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _cli_output(*argv: str) -> str:
    """What a fresh CLI process prints, once it has exited 0 with no error line."""
    done = run_capped("-m", "hyperforest.cli", *argv)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


# str() and int() stop at 4300 digits: each call below ends in a ValueError
# traceback with exit 1, or for --index in a usage error that echoes the digits
PAST_4300_DIGITS = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: the CLI's decimal text stops at 4300 digits"
)
BIG_SHAPE = ForestShape(b=3, s=2000, k=2)  # 13,548-digit code space


class TestValuesPastTheDigitLimit:
    """The README contract at any size: exit 0, and each printed decimal is
    the exact value."""

    @PAST_4300_DIGITS
    def test_forest_count(self):
        out = _cli_output("count", "--kind", "forests", "--b", "3", "--s", "2000", "--k", "0")
        assert json.loads(out)["count"] == _decimal(hyperforest.count_forests(3, 2000, 0))

    @PAST_4300_DIGITS
    def test_hypercycle_count(self):
        out = _cli_output("count", "--kind", "hypercycles", "--b", "3", "--s", "2000")
        assert json.loads(out)["count"] == _decimal(hyperforest.count_hypercycles(3, 2000))

    @PAST_4300_DIGITS
    def test_audit(self):
        *lines, summary = map(json.loads, _cli_output("audit", "--b", "3", "--s", "1000").splitlines())
        report = hyperforest.audit_hypercycles(3, 1000)
        assert [(line["j"], line["count"]) for line in lines] == [
            (j, _decimal(value)) for j, value in report.count_by_cycle_length
        ]
        for key in ("closed_form_count", "cycle_length_total", "set_count", "multiset_count"):
            value = getattr(report, key)
            assert summary["summary"][key] == (None if value is None else _decimal(value))

    @PAST_4300_DIGITS
    def test_rank(self, tmp_path):
        index = hyperforest.code_space_size(BIG_SHAPE) * 2 // 3
        doc = cli.code_to_document(hyperforest.unrank_code(index, BIG_SHAPE))
        out = _cli_output("rank", "-i", write_doc(tmp_path, "code.json", doc))
        assert json.loads(out)["index"] == _decimal(index)

    @PAST_4300_DIGITS
    def test_unrank(self):
        index = 7 * (10**5000 - 1) // 9  # 5,000 sevens
        out = _cli_output("unrank", "--index", _decimal(index), "--b", "3", "--s", "2000", "--k", "2")
        doc = cli.code_to_document(hyperforest.unrank_code(index, BIG_SHAPE))
        assert out == json.dumps(doc, indent=2) + "\n"


class TestUsageAndErrors:
    def test_no_arguments(self, capsys):
        status, _, err = run_cli(capsys, [])
        assert status == 2
        assert json.loads(err)["error"] == "usage"

    def test_unknown_subcommand(self, capsys):
        status, _, err = run_cli(capsys, ["fold"])
        assert status == 2
        assert json.loads(err)["error"] == "usage"

    def test_missing_required_flag(self, capsys):
        status, _, err = run_cli(capsys, ["count", "--kind", "forests", "--b", "3"])
        assert status == 2
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["count", "--kind", "forests", "--b", "3", "--s", "2"],
                "count --kind forests requires --k",
            ),
            (
                ["count", "--kind", "hypercycle-class", "--b", "3", "--s", "2"],
                "count --kind hypercycle-class requires --j",
            ),
            (
                ["enumerate", "--kind", "forests", "--b", "2", "--s", "1"],
                "enumerate --kind forests requires --k",
            ),
            (
                ["enumerate", "--kind", "codes", "--b", "2", "--s", "1"],
                "enumerate --kind codes requires --k",
            ),
            (["sample", "--b", "2", "--s", "2", "--seed", "1"], "this command requires --k"),
            (["unrank", "--index", "0", "--b", "2", "--s", "2"], "this command requires --k"),
            (["ids", "--b", "2", "--s", "2", "--m", "1"], "this command requires --k"),
        ],
    )
    def test_kind_specific_flag_missing(self, capsys, argv, message):
        status, out, err = run_cli(capsys, argv)
        assert status == 2
        assert out == ""
        assert err == '{"error":"usage","message":"' + message + '"}\n'

    def test_missing_input_file(self, capsys, tmp_path):
        status, _, err = run_cli(
            capsys, ["encode", "-i", str(tmp_path / "absent.json")]
        )
        assert status == 2
        assert json.loads(err)["error"] == "io"

    def test_help_exits_zero(self, capsys):
        status, out, _ = run_cli(capsys, ["--help"])
        assert status == 0
        assert "usage" in out

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # the parser is built once per process; each call must still print
        # what the same call prints in a fresh process
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=str(Path(hyperforest.__file__).parents[1]))
        script = "import sys; from hyperforest.cli import main; sys.exit(main(sys.argv[1:]))"
        calls = [
            ["sample", "--b", "2", "--s", "3", "--k", "1", "--seed", "5", "--m", "2"],
            ["sample", "--b", "2", "--s", "3", "--seed", "5", "--m", "two"],
            ["--help"],
            ["--help"],
        ]
        for argv in calls:
            fresh = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
            assert run_cli(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


# one call per way out of main: success, each error code of cli._ERRORS,
# --help, and an exception outside _ERRORS (from a count patched to raise)
EXITS = {
    "success": (["count", "--kind", "forests", "--b", "3", "--s", "2", "--k", "0"], 0, None),
    "usage": (["fold"], 2, "usage"),
    "invalid-document": (["validate", "-i", "{dir}/not-json.json"], 1, "invalid-document"),
    "invalid-structure": (["encode", "-i", "{dir}/cycle.json"], 1, "invalid-structure"),
    "budget": (["enumerate", "--kind", "forests", "--b", "3", "--s", "9", "--k", "0"], 2, "budget"),
    "range": (["count", "--kind", "forests", "--b", "1", "--s", "2", "--k", "0"], 2, "range"),
    "io": (["encode", "-i", "{dir}/absent.json"], 2, "io"),
    "help": (["--help"], 0, None),
    "uncaught": (["count", "--kind", "forests", "--b", "3", "--s", "2", "--k", "0"], None, None),
}


def _raise_value_error(**params):
    raise ValueError("outside cli._ERRORS")


class TestCollectorState:
    """main pauses the cyclic collector while it runs and leaves it as the
    caller had it, on every way out."""

    def test_every_error_code_has_a_call(self):
        assert {code for _, _, code in EXITS.values()} - {None} == {
            code for code, _ in cli._ERRORS.values()
        }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("exit_name", list(EXITS))
    def test_state_is_restored(self, capsys, monkeypatch, tmp_path, exit_name, enabled):
        argv, status, code = EXITS[exit_name]
        (tmp_path / "not-json.json").write_text("{", encoding="utf-8")
        write_doc(tmp_path, "cycle.json", {"n": 3, "b": 2, "edges": [[1, 2], [2, 3], [1, 3]],
                                           "roots": [1]})
        argv = [arg.format(dir=tmp_path) for arg in argv]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if status is None:
                monkeypatch.setattr(cli, "count_forests", _raise_value_error)
                with pytest.raises(ValueError, match="^outside cli._ERRORS$"):
                    main(argv)
            else:
                assert main(argv) == status
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        err = capsys.readouterr().err
        if code is not None:
            assert json.loads(err)["error"] == code

    def test_collector_is_paused_during_the_call(self, capsys, monkeypatch, tmp_path):
        seen = []
        load = cli._load_json

        def spy(path):
            seen.append(gc.isenabled())
            return load(path)

        monkeypatch.setattr(cli, "_load_json", spy)
        path = write_doc(tmp_path, "forest.json", WORKED_FOREST_DOC)
        assert gc.isenabled()
        status, _, _ = run_cli(capsys, ["encode", "-i", path])
        assert (status, seen, gc.isenabled()) == (0, [False], True)


# subcommands in --help order, each with its help and, per argument other
# than -h, (option strings, required, default, choices, type, nargs, help)
INPUT = (("-i", "--input"), False, None, None, None, None,
         "input JSON document (default: standard input)")
B = (("--b",), True, None, None, "int", None, "vertices per hyperedge")
S = (("--s",), True, None, None, "int", None, "number of hyperedges")
K = (("--k",), False, None, None, "int", None, "number of trees minus one")
INTERFACE = [
    ("validate", "validate a forest or code document", [INPUT]),
    ("encode", "forest document to code document", [INPUT]),
    ("decode", "code document to forest document", [INPUT]),
    ("count", "exact counts from the closed formulas", [
        (("--kind",), True, None, ["forests", "hypertrees", "hypercycles", "hypercycle-class"],
         None, None, None),
        B, S, K,
        (("--j",), False, None, None, "int", None, "cycle length class"),
        (("--form",), False, "closed", ["closed", "sum"], None, None, None),
    ]),
    ("enumerate", "exhaustive desk-scale enumeration", [
        (("--kind",), True, None, ["forests", "codes", "hypercycles"], None, None, None),
        B, S, K,
        (("--multiset",), False, False, None, None, 0, "hypercycles only: allow repeated edges"),
    ]),
    ("audit", "hypercycle counts side by side", [B, S]),
    ("sample", "uniform random forests, seeded", [
        B, S, K,
        (("--seed",), True, None, None, "int", None, "64-bit unsigned seed"),
        (("--m",), False, 1, None, "int", None, "number of draws"),
    ]),
    ("rank", "canonical index of a code document", [INPUT]),
    ("unrank", "code document at a canonical index", [
        (("--index",), True, None, None, "int", None, None), B, S, K,
    ]),
    ("ids", "the first m codes, as unique identifiers", [
        B, S, K, (("--m",), True, None, None, "int", None, "number of identifiers"),
    ]),
]

# (error code, exit status, argv, document written to {doc} or None, budget)
ERROR_CASES = [
    ("usage", 2, ["fold"], None, None),
    ("invalid-document", 1, ["validate", "-i", "{doc}"], {"foo": 1}, None),
    ("invalid-structure", 1, ["decode", "-i", "{doc}"],
     dict(WORKED_CODE_DOC, N=list(WORKED_LINKS[:7])), None),
    ("budget", 2, ["enumerate", "--kind", "forests", "--b", "2", "--s", "2", "--k", "0"],
     None, "2"),
    ("range", 2, ["unrank", "--index", "9", "--b", "2", "--s", "2", "--k", "0"], None, None),
    ("io", 2, ["encode", "-i", "{doc}"], None, None),
]


class TestInterface:
    def test_parser_is_pinned(self):
        # read from the parser's actions, not from --help, so that neither
        # the Python version nor the terminal width changes what is compared
        parser = cli._build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        helps = {choice.dest: choice.help for choice in sub._choices_actions}
        found = [
            (name, helps[name], [
                (tuple(a.option_strings), a.required, a.default, a.choices,
                 a.type and a.type.__name__, a.nargs, a.help)
                for a in command._actions if not isinstance(a, argparse._HelpAction)
            ])
            for name, command in sub.choices.items()
        ]
        assert found == INTERFACE

    @pytest.mark.parametrize("code,status,argv,doc,budget", ERROR_CASES,
                             ids=[case[0] for case in ERROR_CASES])
    def test_error_code_sets_exit_status(self, capsys, tmp_path, monkeypatch,
                                         code, status, argv, doc, budget):
        path = tmp_path / "doc.json"
        if doc is not None:
            path.write_text(json.dumps(doc), encoding="utf-8")
        if budget is not None:
            monkeypatch.setenv("HYPERFOREST_BUDGET", budget)
        argv = [str(path) if arg == "{doc}" else arg for arg in argv]
        exit_status, out, err = run_cli(capsys, argv)
        assert exit_status == status
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == code

    def test_traced_run_opens_every_cli_span(self, capsys, tmp_path):
        # the benchmark's per-layer view wraps these module globals; a
        # handler that bound one of them early would drop its span
        forest = write_doc(tmp_path, "forest.json", WORKED_FOREST_DOC)
        code = write_doc(tmp_path, "code.json", WORKED_CODE_DOC)
        tracer = Tracer()
        with tracer.wrapping(cli, CLI_SPANS):
            for argv in (
                ["encode", "-i", forest],
                ["decode", "-i", code],
                ["sample", "--b", "2", "--s", "3", "--k", "1", "--seed", "5", "--m", "2"],
                ["ids", "--b", "2", "--s", "2", "--k", "0", "--m", "2"],
            ):
                assert run_cli(capsys, argv)[0] == 0
        assert {span[0] for span in tracer.spans} == set(CLI_SPANS.values())
