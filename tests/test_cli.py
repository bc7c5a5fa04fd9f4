import argparse
import copy
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import groupoid_homology
from groupoid_homology import checks, cli, errors, kgraph, serialize
from groupoid_homology.cli import main

ROOT = Path(__file__).resolve().parent.parent

TWO_VERTEX = {
    "kind": "kgraph",
    "k": 1,
    "vertices": ["v", "w"],
    "matrices": [[5, 2, 2, 3]],
}
RANK2 = {"kind": "kgraph", "k": 2, "vertices": ["v"], "matrices": [[3], [5]]}
RANK3 = {"kind": "kgraph", "k": 3, "vertices": ["v"], "matrices": [[3], [3], [3]]}
ACTION = {"kind": "zk_action", "k": 1, "points": 3, "permutations": [[1, 2, 0]]}

TWO_VERTEX_HOMOLOGY = """\
{
  "k": 1,
  "homology": [
    {
      "rank": 0,
      "torsion": [
        2,
        2
      ]
    },
    {
      "rank": 0,
      "torsion": []
    }
  ],
  "notes": [
    "rank-1 vertex-matrix complex on 2 vertices"
  ]
}
"""


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- happy paths -----------------------------------------------------------

def test_validate_reports_clean_instances(capsys, tmp_path):
    rc, out, _ = run(capsys, ["validate", write(tmp_path, "g.json", TWO_VERTEX)])
    assert rc == 0
    assert json.loads(out) == {"kind": "kgraph", "valid": True, "findings": []}


def test_homology_output_is_byte_stable(capsys, tmp_path):
    rc, out, _ = run(capsys, ["homology", write(tmp_path, "g.json", TWO_VERTEX)])
    assert rc == 0
    assert out == TWO_VERTEX_HOMOLOGY


def test_output_key_order_is_fixed(capsys, tmp_path):
    rc, out, _ = run(capsys, ["hk-report", write(tmp_path, "g.json", RANK2)])
    assert rc == 0
    payload = json.loads(out)
    assert list(payload) == ["k", "homology", "ktheory", "notes"]
    assert list(payload["ktheory"]) == ["k0", "k1", "method"]


def test_ktheory_rank2(capsys, tmp_path):
    rc, out, _ = run(capsys, ["ktheory", write(tmp_path, "g.json", RANK2)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ktheory"] == {
        "k0": {"rank": 0, "torsion": [2]},
        "k1": {"rank": 0, "torsion": [2]},
        "method": "rank2",
    }
    assert payload["notes"] == ["k-theory status: verified-structurally"]


def test_homology_of_an_action_instance(capsys, tmp_path):
    rc, out, _ = run(capsys, ["homology", write(tmp_path, "a.json", ACTION)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["homology"] == [
        {"rank": 1, "torsion": []},
        {"rank": 1, "torsion": []},
    ]


def test_single_vertex_command_cross_checks(capsys):
    rc, out, _ = run(capsys, ["single-vertex", "--edges", "3,5"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["homology"] == [
        {"rank": 0, "torsion": [2]},
        {"rank": 0, "torsion": [2]},
        {"rank": 0, "torsion": []},
    ]
    assert any("cross-check" in note for note in payload["notes"])


def test_text_rendering(capsys, tmp_path):
    rc, out, _ = run(
        capsys, ["homology", write(tmp_path, "g.json", TWO_VERTEX), "--text"]
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k = 1"
    assert lines[1] == "H_0 = Z_2 (+) Z_2"
    assert lines[2] == "H_1 = 0"


@pytest.mark.parametrize("argv, instance, text", [
    (["ktheory"], TWO_VERTEX, """\
k = 1
K_0 = Z_2 (+) Z_2  [rank1]
K_1 = 0  [rank1]
notes:
  - k-theory status: verified-structurally
"""),
    (["ktheory"], RANK2, """\
k = 2
K_0 = Z_2  [rank2]
K_1 = Z_2  [rank2]
notes:
  - k-theory status: verified-structurally
"""),
    (["hk-report"], TWO_VERTEX, """\
k = 1
H_0 = Z_2 (+) Z_2
H_1 = 0
K_0 = Z_2 (+) Z_2  [rank1]
K_1 = 0  [rank1]
notes:
  - rank-1 vertex-matrix complex on 2 vertices
  - K_0 = Z_2 (+) Z_2 vs (+) H_even = Z_2 (+) Z_2: agree
  - K_1 = 0 vs (+) H_odd = 0: agree
  - H_0: underlying graph Z vs groupoid Z_2 (+) Z_2
  - H_1: underlying graph Z^11 vs groupoid 0
"""),
    (["hk-report"], RANK2, """\
k = 2
H_0 = Z_2
H_1 = Z_2
H_2 = 0
K_0 = Z_2  [rank2]
K_1 = Z_2  [rank2]
notes:
  - rank-2 vertex-matrix complex on 1 vertices
  - K_0 = Z_2 vs (+) H_even = Z_2: agree
  - K_1 = Z_2 vs (+) H_odd = Z_2: agree
"""),
], ids=["ktheory-rank1", "ktheory-rank2", "hk-report-rank1", "hk-report-rank2"])
def test_ktheory_text_rendering(capsys, tmp_path, argv, instance, text):
    rc, out, err = run(capsys, argv + [write(tmp_path, "g.json", instance), "--text"])
    assert (rc, out, err) == (0, text, "")


def test_product_output_reparses_and_matches_composition(capsys, tmp_path):
    a = write(tmp_path, "a.json", TWO_VERTEX)
    b = write(tmp_path, "b.json", RANK2)
    out_path = str(tmp_path / "prod.json")
    rc, _, _ = run(capsys, ["product", a, b, "-o", out_path])
    assert rc == 0
    assert json.load(open(out_path))["k"] == 3

    rc, direct_out, _ = run(capsys, ["homology", out_path])
    assert rc == 0
    rc, composed_out, _ = run(capsys, ["kunneth", a, b])
    assert rc == 0
    direct = json.loads(direct_out)["homology"]
    composed = json.loads(composed_out)["homology"]
    assert direct == composed
    assert composed[1] == {"rank": 0, "torsion": [2, 2, 2, 2]}


def test_product_prints_the_instance_it_would_write(capsys, tmp_path):
    a = write(tmp_path, "a.json", TWO_VERTEX)
    b = write(tmp_path, "b.json", RANK2)
    out_path = tmp_path / "prod.json"
    rc, _, _ = run(capsys, ["product", a, b, "-o", str(out_path)])
    assert rc == 0
    rc, out, err = run(capsys, ["product", a, b])
    assert rc == 0 and err == ""
    assert out == out_path.read_text(encoding="utf-8")


def test_product_with_colliding_labels_writes_nothing(capsys, tmp_path):
    # ("a", "b,c") and ("a,b", "c") both render as the label "(a,b,c)"
    a = write(tmp_path, "a.json", {**TWO_VERTEX, "vertices": ["a", "a,b"]})
    b = write(tmp_path, "b.json", {**TWO_VERTEX, "vertices": ["b,c", "c"]})
    out_path = tmp_path / "prod.json"
    rc, out, err = run(capsys, ["product", a, b, "-o", str(out_path)])
    assert rc == 1 and out == "" and not out_path.exists()
    assert json.loads(err)["error"]["message"] == "vertices[3]: duplicate label '(a,b,c)'"


def test_cubical_as_json_and_text(capsys, tmp_path):
    path = write(tmp_path, "g.json", TWO_VERTEX)
    rc, out, _ = run(capsys, ["cubical", path])
    assert rc == 0
    assert json.loads(out) == {
        "k": 1,
        "homology": [{"rank": 1, "torsion": []}, {"rank": 11, "torsion": []}],
        "notes": ["underlying directed graph: 2 vertices, 12 edges"],
    }
    rc, out, _ = run(capsys, ["cubical", path, "--text"])
    assert rc == 0
    assert out.splitlines() == [
        "k = 1", "H_0 = Z", "H_1 = Z^11", "notes:",
        "  - underlying directed graph: 2 vertices, 12 edges",
    ]


def test_validate_text_on_actions(capsys, tmp_path):
    rc, out, _ = run(capsys, ["validate", write(tmp_path, "a.json", ACTION), "--text"])
    assert (rc, out) == (0, "zk_action: valid\n")
    bad = {"kind": "zk_action", "k": 2, "points": 2,
           "permutations": [[0, 0], [1, 0]]}
    rc, out, _ = run(capsys, ["validate", write(tmp_path, "b.json", bad), "--text"])
    assert rc == 1
    assert out.splitlines() == [
        "zk_action: invalid",
        "  - permutations[0] is not a bijection: value 1 is never hit (a self-map "
        "of a finite set is bijective exactly when it is surjective)",
    ]


def test_homology_notes_sources_on_a_relaxed_skeleton(capsys, tmp_path):
    relaxed = {"kind": "kgraph", "k": 1, "vertices": ["v", "w"],
               "matrices": [[1, 1, 0, 0]], "allow_sources": True}
    rc, out, _ = run(capsys, ["homology", write(tmp_path, "g.json", relaxed)])
    assert rc == 0
    assert json.loads(out)["notes"] == [
        "rank-1 vertex-matrix complex on 2 vertices",
        "warning: sources present (some vertex emits no edge in some "
        "coordinate); structural results assume none",
    ]


def test_text_is_an_option_of_every_command_that_prints_a_payload():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == ["check", "cubical", "hk-report", "homology", "ktheory",
                                "kunneth", "product", "single-vertex", "validate"]
    for name, sub in commands.items():
        has_text = "--text" in sub._option_string_actions
        assert has_text == (name not in ("product", "check")), name


# --- exit codes --------------------------------------------------------------

def test_missing_file_is_a_schema_failure(capsys, tmp_path):
    rc, _, err = run(capsys, ["homology", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error" in json.loads(err)


def test_malformed_instance_is_a_schema_failure(capsys, tmp_path):
    path = write(tmp_path, "g.json", {"kind": "kgraph", "vertices": ["v"]})
    rc, _, err = run(capsys, ["homology", path])
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("command, files", [
    ("ktheory", 1), ("product", 2), ("kunneth", 2), ("cubical", 1), ("hk-report", 1),
], ids=["ktheory", "product", "kunneth", "cubical", "hk-report"])
def test_wrong_instance_kind_is_a_schema_failure(capsys, tmp_path, command, files):
    # every command that needs a kgraph refuses an action by its own name;
    # the last file is the action, so a two-file command loads a kgraph first
    paths = [write(tmp_path, "g.json", TWO_VERTEX)] * (files - 1)
    paths.append(write(tmp_path, "a.json", ACTION))
    rc, out, err = run(capsys, [command, *paths])
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": {
        "type": "SchemaError",
        "message": f"{command} expects a kgraph instance, got zk_action",
    }}


def test_duplicate_vertex_labels_are_a_schema_failure(capsys, tmp_path):
    dup = {"kind": "kgraph", "k": 1, "vertices": ["v", "w", "v"],
           "matrices": [[1, 1, 0, 0, 1, 1, 1, 0, 1]]}
    rc, out, err = run(capsys, ["homology", write(tmp_path, "g.json", dup)])
    assert rc == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "SchemaError"
    assert payload["message"].startswith("vertices[2]: duplicate label 'v'")


def test_overlong_integer_literal_is_a_schema_failure(capsys, tmp_path):
    # 5,001 digits is past the interpreter's 4,300-digit parsing limit
    path = tmp_path / "g.json"
    path.write_text('{"kind": "kgraph", "k": 1, "vertices": ["v"], '
                    '"matrices": [[' + "7" * 5001 + ']]}')
    rc, out, err = run(capsys, ["homology", str(path)])
    assert rc == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "SchemaError"
    assert payload["message"] == (
        f"{path}: an integer literal has more than {sys.get_int_max_str_digits()} digits"
    )
    # a syntax error keeps its own message
    path.write_text('{"kind": "kgraph",,}')
    rc, _, err = run(capsys, ["homology", str(path)])
    assert rc == 2
    assert json.loads(err)["error"]["message"].startswith(f"{path}: invalid JSON at line 1")


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"kind": "kgraph", "k": 1, "vertices": ["v"], "matrices": '
    + "[" * 100000 + "]" * 100000 + "}",
], ids=["bare-array", "kgraph-matrices"])
def test_deeply_nested_json_is_a_schema_failure(capsys, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    rc, out, err = run(capsys, ["homology", str(path)])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "SchemaError", "message": f"{path}: JSON nested too deeply"}


def test_label_that_is_not_utf8_is_a_schema_failure(tmp_path):
    # "\ud800" parses to a lone surrogate, which no UTF-8 output can hold;
    # it is refused before anything is written, so OUT is never created
    path = tmp_path / "surrogate.json"
    path.write_text('{"kind": "kgraph", "k": 1, "vertices": ["v", "\\ud800"],'
                    ' "matrices": [[2, 0, 0, 2]]}')
    out_path = tmp_path / "out.json"
    src = str(Path(groupoid_homology.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "groupoid_homology", "product", str(path), str(path),
         "-o", str(out_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == {
        "type": "SchemaError",
        "message": "vertices[1]: label '\\ud800' cannot be written as UTF-8"}
    assert not out_path.exists()


@pytest.mark.parametrize("entry, shown", [
    (2.5, "2.5"), (True, "True"), ("3", "'3'"), (None, "None"), ([1], "[1]"),
])
def test_non_integer_matrix_entry_is_a_schema_failure(capsys, tmp_path, entry, shown):
    # the first entry that is not an int is named, not a later float
    bad = {"kind": "kgraph", "k": 2, "vertices": ["v", "w"],
           "matrices": [[1, 0, 0, 1], [1, 0, entry, 2.0]]}
    rc, out, err = run(capsys, ["homology", write(tmp_path, "g.json", bad)])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "SchemaError",
        "message": f"matrices[1][2]: expected an integer, got {shown}",
    }


@pytest.mark.parametrize("image, message", [
    (2.0, "expected an integer, got 2.0"),
    (True, "expected an integer, got True"),
    ("2", "expected an integer, got '2'"),
    (3, "value 3 outside 0..2"),
    (-1, "value -1 outside 0..2"),
])
def test_bad_permutation_image_is_a_schema_failure(capsys, tmp_path, image, message):
    # the first bad image in reading order is named, not a later float
    # or the short permutation after it
    bad = {"kind": "zk_action", "k": 3, "points": 3,
           "permutations": [[1, 2, 0], [0, image, 1.5], [0, 1]]}
    rc, out, err = run(capsys, ["homology", write(tmp_path, "a.json", bad)])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "SchemaError",
        "message": f"permutations[1][1]: {message}",
    }


@pytest.mark.parametrize("edges", ["a,b", "3,,3", "3,3,", ""])
def test_malformed_edge_list_is_a_schema_failure(capsys, edges):
    # an empty field is not skipped: "3,,3" is not the k = 2 list "3,3",
    # and "" is no list at all rather than a closed form with no count
    rc, out, err = run(capsys, ["single-vertex", "--edges", edges])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "SchemaError",
        "message": f"--edges wants a comma-separated list, got {edges!r}",
    }


ZK = {"kind": "zk_action", "k": 1, "points": 3}


@pytest.mark.parametrize("instance, message", [
    ([TWO_VERTEX], "top level: expected an object, got list"),
    ({**TWO_VERTEX, "kind": "graph"}, "kind: expected 'kgraph' or 'zk_action', got 'graph'"),
    ({**TWO_VERTEX, "colors": 1}, "colors: unexpected field in a kgraph instance"),
    ({**ACTION, "vertices": []}, "vertices: unexpected field in a zk_action instance"),
    ({**TWO_VERTEX, "vertices": []}, "vertices: need at least one vertex label"),
    ({**TWO_VERTEX, "vertices": ["v", 7]}, "vertices[1]: expected a string, got 7"),
    ({**TWO_VERTEX, "matrices": [[5, 2, 2, 3]] * 2},
     "matrices: expected 1 matrices for k=1, got 2"),
    ({**TWO_VERTEX, "matrices": [[5, 2, 2]]},
     "matrices[0]: expected 4 row-major entries for 2 vertices, got 3"),
    ({**TWO_VERTEX, "matrices": [5]}, "matrices[0]: expected a list, got int"),
    ({**TWO_VERTEX, "allow_sources": 1}, "allow_sources: expected true or false, got 1"),
    ({**TWO_VERTEX, "k": -1}, "k: expected an integer >= 1, got -1"),
    ({**ACTION, "k": -1}, "k: expected an integer >= 0, got -1"),
    ({**ACTION, "points": -2}, "points: expected an integer >= 0, got -2"),
    ({**ZK, "permutations": {"0": [1, 2, 0]}}, "permutations: expected a list, got dict"),
    ({**ZK, "permutations": []}, "permutations: expected 1 permutations for k=1, got 0"),
    ({**ZK, "permutations": ["120"]}, "permutations[0]: expected a list, got str"),
    ({**ZK, "permutations": [[1, 2]]}, "permutations[0]: expected 3 images, got 2"),
    ({**ZK, "permutations": [[1, 2, [0]]]}, "permutations[0][2]: expected an integer, got [0]"),
    # with no points an empty object or string is still not an image list
    ({**ZK, "points": 0, "permutations": [{}]}, "permutations[0]: expected a list, got dict"),
    ({**ZK, "points": 0, "permutations": [""]}, "permutations[0]: expected a list, got str"),
    # the label rules are KGraphSkeleton's; the parser passes its finding on
    ({**TWO_VERTEX, "vertices": ["v", "\ud800"]},
     "vertices[1]: label '\\ud800' cannot be written as UTF-8"),
    # they run when the record is made, so a bad matrix is named first
    ({**TWO_VERTEX, "vertices": ["v", "v"], "matrices": [[5, 2, 2]]},
     "matrices[0]: expected 4 row-major entries for 2 vertices, got 3"),
])
def test_schema_failures_name_their_field(capsys, tmp_path, instance, message):
    rc, out, err = run(capsys, ["homology", write(tmp_path, "i.json", instance)])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "SchemaError", "message": message}


def test_non_utf8_instance_is_a_schema_failure(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"kind": "kgraph", "k": 1, "vertices": ["v\xff"], "matrices": [[2]]}')
    rc, out, err = run(capsys, ["homology", str(path)])
    assert rc == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "SchemaError"
    assert payload["message"] == f"{path}: not UTF-8: byte 0xff at offset 42"


def test_results_longer_than_the_parsing_limit_print_exactly(capsys, tmp_path):
    # H_0 of [[A, 1], [1, A]] is Z_{det(1 - M)} = Z_{A(A - 2)}; with
    # A = 10^2500 that order is 10^5000 - 2 * 10^2500, 5,000 digits
    a = 10**2500
    path = tmp_path / "big.json"
    path.write_text('{"kind": "kgraph", "k": 1, "vertices": ["u", "v"], '
                    f'"matrices": [[{a}, 1, 1, {a}]]}}')
    order = "9" * 2499 + "8" + "0" * 2500
    limit = sys.get_int_max_str_digits()
    rc, out, _ = run(capsys, ["homology", str(path)])
    assert rc == 0
    assert json.loads(out, parse_int=str)["homology"] == [
        {"rank": "0", "torsion": [order]}, {"rank": "0", "torsion": []}]
    rc, out, _ = run(capsys, ["homology", str(path), "--text"])
    assert rc == 0
    assert out.splitlines()[1] == f"H_0 = Z_{order}"
    rc, out, _ = run(capsys, ["hk-report", str(path)])
    assert rc == 0
    assert json.loads(out, parse_int=str)["ktheory"]["k0"]["torsion"] == [order]
    # emission lifts the limit only while it prints
    assert sys.get_int_max_str_digits() == limit


def test_invalid_skeleton_fails_with_findings(capsys, tmp_path):
    bad = {"kind": "kgraph", "k": 1, "vertices": ["v"], "matrices": [[-2]]}
    path = write(tmp_path, "g.json", bad)
    rc, out, _ = run(capsys, ["validate", path])
    assert rc == 1
    assert json.loads(out)["valid"] is False

    rc, _, err = run(capsys, ["homology", path])
    assert rc == 1
    payload = json.loads(err)["error"]
    assert payload["type"] == "SkeletonInvalid"
    assert payload["findings"] == ["matrices[0] entry (0,0) is negative: -2"]


def test_hypothesis_violations_fail_with_code_1(capsys):
    rc, _, err = run(capsys, ["single-vertex", "--edges", "1,3"])
    assert rc == 1
    assert json.loads(err)["error"]["type"] == "HypothesisViolated"


def test_single_vertex_disagreement_is_a_broken_complex(capsys, monkeypatch):
    # a closed form that disagrees with the engine fails the command, exit 1
    monkeypatch.setattr(cli, "single_vertex_closed_form",
                        lambda counts: kgraph.single_vertex_closed_form([4, 7]))
    rc, out, err = run(capsys, ["single-vertex", "--edges", "3,5"])
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "BrokenComplex",
        "message": "closed form H_0 = Z_3, H_1 = Z_3, H_2 = 0 disagrees with the "
                   "vertex-matrix computation H_0 = Z_2, H_1 = Z_2, H_2 = 0",
    }


def test_rank_gates_use_their_own_exit_code(capsys, tmp_path):
    path = write(tmp_path, "g.json", RANK3)
    rc, _, err = run(capsys, ["ktheory", path])
    assert rc == 3
    assert json.loads(err)["error"]["type"] == "RankUnsupported"

    rc, _, _ = run(capsys, ["cubical", write(tmp_path, "h.json", RANK2)])
    assert rc == 3


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, BaseException)
     and c.__module__ == errors.__name__),
    key=lambda c: c.__name__,
)


@pytest.mark.parametrize("exc_type", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_type_exits_with_its_documented_code(capsys, monkeypatch, exc_type):
    assert issubclass(exc_type, errors.GroupoidHomologyError)
    exc = exc_type(["first finding", "second"]) if exc_type is errors.SkeletonInvalid \
        else exc_type("boom")

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_homology", raise_it)
    rc, out, err = run(capsys, ["homology", "unused.json"])
    assert rc == {"SchemaError": 2, "RankUnsupported": 3}.get(exc_type.__name__, 1)
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == exc_type.__name__
    assert payload["message"] == str(exc)
    if exc_type is errors.SkeletonInvalid:
        assert payload["findings"] == ["first finding", "second"]
    else:
        assert "findings" not in payload


# --- hostile input -------------------------------------------------------------

HOSTILE_ATOMS = [0, 1, -1, 10**30, -10**30, 1.5, True, None, "3", "", "\ud800", [], {},
                 float("nan"), 1e308]
HOSTILE_SEEDS = [
    TWO_VERTEX, RANK2, RANK3, ACTION,
    {"kind": "kgraph", "k": 2, "vertices": ["a", "b", "c"], "allow_sources": False,
     "matrices": [[0, 1, 1, 1, 0, 1, 1, 1, 0], [1, 2, 2, 2, 1, 2, 2, 2, 1]]},
    {"kind": "zk_action", "k": 2, "points": 6,
     "permutations": [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]]},
]


def _paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key in value if isinstance(value, dict) else range(len(value)):
            yield from _paths(value[key], path + (key,))


def _mutate(rng, instance):
    """A copy of instance with one seeded change at a node drawn from all of
    its nodes: an atom in place of it, a dropped key, an append or a pop."""
    root = [copy.deepcopy(instance)]
    parent, key = root, 0
    for step in rng.choice(list(_paths(root[0]))):
        parent, key = parent[key], step
    value = parent[key]
    move = rng.choice(["atom", "drop", "append", "pop"])
    if move == "drop" and isinstance(value, dict) and value:
        del value[rng.choice(list(value))]
    elif move == "append" and isinstance(value, list):
        value.append(copy.deepcopy(rng.choice(HOSTILE_ATOMS + value)))
    elif move == "pop" and isinstance(value, list) and value:
        value.pop()
    else:
        parent[key] = rng.choice(HOSTILE_ATOMS)
    return root[0]


def test_seeded_hostile_inputs_exit_cleanly(capsys, tmp_path):
    # 2,000 mutated instances through every reading command: only the
    # package's own errors may leave a command, each with its exit code,
    # and all that is printed or written back can be encoded as UTF-8
    rng = random.Random(11)
    good = write(tmp_path, "good.json", TWO_VERTEX)
    path = str(tmp_path / "hostile.json")
    commands = [["validate", path], ["homology", path], ["homology", path, "--text"],
                ["ktheory", path], ["ktheory", path, "--allow-conjectural"],
                ["cubical", path], ["hk-report", path], ["product", path, good]]
    names = {c.__name__ for c in ERROR_CLASSES}
    codes = set()
    for case in range(2000):
        instance = rng.choice(HOSTILE_SEEDS)
        for _ in range(rng.choice([1, 1, 2])):
            instance = _mutate(rng, instance)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(instance, fh)
        argv = commands[case % len(commands)]
        rc, out, err = run(capsys, argv)
        where = f"case {case}: {argv[0]} on {instance!r}"
        assert rc in (0, 1, 2, 3), where
        out.encode("utf-8")
        err.encode("utf-8")
        if rc == 0 and "--text" not in argv:
            json.loads(out)
        if err:
            assert json.loads(err)["error"]["type"] in names, where
        codes.add(rc)
        # whatever the parser accepts can be written back
        try:
            inst = serialize.load_instance(path)
        except errors.SchemaError:
            continue
        serialize.dumps(serialize.instance_to_dict(inst)).encode("utf-8")
    # the net reaches every outcome, not only the parser's refusals
    assert codes == {0, 1, 2, 3}


def test_conjectural_opt_in_unlocks_higher_rank(capsys, tmp_path):
    path = write(tmp_path, "g.json", RANK3)
    rc, out, _ = run(capsys, ["ktheory", path, "--allow-conjectural"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ktheory"]["method"] == "conjectural-k>=3"
    assert payload["notes"] == ["k-theory status: conjectural"]


# --- self-check command --------------------------------------------------------

def test_check_is_deterministic_for_a_seed(capsys):
    rc1, out1, _ = run(capsys, ["check", "--seed", "5", "--cases", "3"])
    rc2, out2, _ = run(capsys, ["check", "--seed", "5", "--cases", "3"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.strip().endswith("check: PASS (seed 5)")


def test_check_fails_on_kunneth_findings(capsys, monkeypatch):
    def one_finding(rng, cases):
        return checks.NetResult("kunneth", cases, findings=["pair 0: planted"])

    monkeypatch.setattr(checks, "kunneth_net", one_finding)
    rc, out, _ = run(capsys, ["check", "--seed", "5", "--cases", "3"])
    assert rc == 1
    assert "kunneth: 3 pairs, 0 failures, 1 findings" in out
    assert out.strip().splitlines()[-1] == "check: FAIL (seed 5)"


def test_check_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOMOLOGY_SEED", "9")
    rc, out, _ = run(capsys, ["check", "--seed", "5", "--cases", "3"])
    assert rc == 0
    assert "check: PASS (seed 9)" in out


def test_check_rejects_garbage_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("HOMOLOGY_SEED", "not-a-seed")
    rc, _, err = run(capsys, ["check", "--seed", "5", "--cases", "3"])
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "SchemaError"


def test_check_rejects_a_negative_case_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--cases", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--cases: must be at least 0, got -1" in captured.err
    # and so is a count that is not an int
    with pytest.raises(SystemExit) as exc:
        main(["check", "--cases", "x"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--cases: invalid int value: 'x'" in captured.err
    # zero cases is still a valid, empty run
    rc, out, _ = run(capsys, ["check", "--cases", "0"])
    assert rc == 0 and out.splitlines()[0] == "snf: 0 cases, 0 failures"


def test_check_perf_prints_its_report_before_the_verdict(capsys):
    rc, out, _ = run(capsys, ["check", "--seed", "0", "--cases", "0", "--perf"])
    assert rc == 0
    lines = out.splitlines()
    perf = [line for line in lines if line.startswith("perf: ")]
    assert lines[-6:-1] == perf
    assert perf[0] == "perf: rank-2 skeleton on 100 vertices"
    assert perf[1].startswith("perf: homology in ") and perf[1].endswith(" s (budget 60 s)")
    assert perf[2].startswith("perf: peak entry bits ")
    assert perf[3].startswith("perf: worst reduction growth ") and "(budget 64x)" in perf[3]
    assert perf[4] == "perf: PASS"
    assert lines[-1] == "check: PASS (seed 0)"


# --- output pipe closed early ---------------------------------------------------

def test_closed_stdout_exits_quietly_with_sigpipe_code(tmp_path):
    # a 256-vertex product prints far more than a pipe buffer holds, so the
    # write after the reader goes away must fail
    n = 16
    ring = [1 if (w - v) % n in (0, 1) else 0 for v in range(n) for w in range(n)]
    path = write(tmp_path, "ring.json", {
        "kind": "kgraph", "k": 1, "vertices": [f"v{i}" for i in range(n)],
        "matrices": [ring],
    })
    src = str(Path(groupoid_homology.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "groupoid_homology", "product", path, path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "kind"'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# --- standard library only ------------------------------------------------------

# numpy is made unimportable, so any import of it anywhere in a call fails it
WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None
from groupoid_homology.cli import main
sys.exit(main(sys.argv[1:]))
"""
Z2_ACTION = {"kind": "zk_action", "k": 2, "points": 4,
             "permutations": [[1, 0, 3, 2], [2, 3, 0, 1]]}


def test_cli_needs_no_numpy(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("HOMOLOGY_SEED", raising=False)
    src = str(Path(groupoid_homology.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["homology", write(tmp_path, "g.json", TWO_VERTEX)],
                 ["homology", write(tmp_path, "a.json", Z2_ACTION)],
                 ["check", "--cases", "1", "--seed", "0"]):
        proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


# --- start-up -------------------------------------------------------------------

# runs `python -m groupoid_homology ARGS`, then lists the loaded modules on stderr
LIST_MODULES = """\
import runpy, sys
try:
    runpy.run_module("groupoid_homology", run_name="__main__")
finally:
    print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""


def test_startup_loads_no_dataclasses_and_no_check_nets(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("HOMOLOGY_SEED", raising=False)
    src = str(Path(groupoid_homology.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-c", LIST_MODULES, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, set(proc.stderr.split())

    argv = ["homology", write(tmp_path, "g.json", TWO_VERTEX)]
    rc, out, modules = fresh(argv)
    assert (rc, out) == (0, run(capsys, argv)[1])
    assert not {"dataclasses", "inspect", "groupoid_homology.checks"} & modules
    assert "groupoid_homology.cli" in modules
    # the check command still finds its nets
    rc, out, modules = fresh(["check", "--cases", "0", "--seed", "0"])
    assert rc == 0 and out.splitlines()[-1] == "check: PASS (seed 0)"
    assert "groupoid_homology.checks" in modules


# --- benchmark tracer -----------------------------------------------------------

def test_benchmark_tracer_wraps_names_that_exist(monkeypatch):
    # perfbench/tracing.py replaces these module attributes by name; a
    # refactor that moves or drops one would break traced benchmark runs
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.WRAPPED
    for module, attr, *_ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
