import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupoid_homology
from groupoid_homology import checks
from groupoid_homology.cli import main

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


def test_wrong_instance_kind_is_a_schema_failure(capsys, tmp_path):
    rc, _, err = run(capsys, ["cubical", write(tmp_path, "a.json", ACTION)])
    assert rc == 2
    assert "kgraph" in json.loads(err)["error"]["message"]


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


def test_rank_gates_use_their_own_exit_code(capsys, tmp_path):
    path = write(tmp_path, "g.json", RANK3)
    rc, _, err = run(capsys, ["ktheory", path])
    assert rc == 3
    assert json.loads(err)["error"]["type"] == "RankUnsupported"

    rc, _, _ = run(capsys, ["cubical", write(tmp_path, "h.json", RANK2)])
    assert rc == 3


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
    # zero cases is still a valid, empty run
    rc, out, _ = run(capsys, ["check", "--cases", "0"])
    assert rc == 0 and out.splitlines()[0] == "snf: 0 cases, 0 failures"


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
