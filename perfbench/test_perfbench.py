"""Self-tests of the benchmark: seeding, the checker and the tracer.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def _snapshot(calls):
    return [(c.id, c.argv, c.kind, c.exit, c.files) for c in calls]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_instance_bytes(name):
    generate = workloads.WORKLOADS[name]
    assert _snapshot(generate(7)) == _snapshot(generate(7))
    assert _snapshot(generate(7)) != _snapshot(generate(8))


def test_small_batch_mixes_every_command_and_failure_class():
    calls = workloads.small_batch(3)
    assert len(calls) == workloads.SMALL_BATCH_CALLS
    assert {c.argv[0] for c in calls} >= set(workloads.SMALL_COMMANDS)
    assert sorted(c.exit for c in calls if c.exit) == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3]


@pytest.fixture
def small_outputs(tmp_path):
    calls = workloads.small_batch(5)
    argvs = run.write_instances(calls, tmp_path)
    return calls, argvs, [tracing.run_cli(a) for a in argvs]


def test_checker_accepts_correct_outputs(small_outputs):
    calls, _, outputs = small_outputs
    checker = verify.Checker()
    assert [c.id for c, o in zip(calls, outputs) if checker.failure(c, *o)] == []


def test_checker_counts_a_mutated_torsion_entry(small_outputs):
    calls, _, outputs = small_outputs
    for call, (code, out) in zip(calls, outputs):
        payload = json.loads(out) if call.kind == "homology" else {}
        groups = [g for g in payload.get("homology", []) if g["torsion"]]
        if groups:
            break
    else:
        pytest.fail("no homology output with torsion in this batch")
    groups[0]["torsion"][-1] *= 2
    mutated = (code, json.dumps(payload, indent=2))
    reasons = run._judge([call], [[mutated]], verify.Checker())
    assert len(reasons) == 1 and "homology" in reasons[0]


def test_checker_counts_a_wrong_exit_code(small_outputs):
    calls, _, outputs = small_outputs
    idx = next(i for i, c in enumerate(calls) if c.kind == "error")
    code, out = outputs[idx]
    reasons = run._judge([calls[idx]], [[(code + 1, out)]], verify.Checker())
    assert len(reasons) == 1 and "exit code" in reasons[0]


def test_checker_counts_drift_between_passes(small_outputs):
    calls, _, outputs = small_outputs
    second = list(outputs)
    second[0] = (second[0][0], second[0][1] + " ")
    assert len(run._judge(calls, [outputs, second], verify.Checker())) == 1


def test_golden_bytes_are_enforced_at_the_default_seed():
    calls = workloads.zk_orbits(workloads.DEFAULT_SEED)
    golden = verify.load_golden("zk-orbits", workloads.DEFAULT_SEED,
                                workloads.DEFAULT_SEED)
    want = golden[calls[0].id]
    checker = verify.Checker(golden)
    assert checker.failure(calls[0], want["exit"], want["stdout"]) is None
    assert checker.failure(calls[0], want["exit"], want["stdout"] + "\n")


def test_traced_stdout_equals_the_real_cli(small_outputs):
    calls, argvs, plain = small_outputs
    tracer = tracing.Tracer()
    originals = [getattr(m, a) for m, a, *_ in tracing.WRAPPED]
    _, traced, _ = tracing.run_pass(calls, argvs, tracer)
    assert [getattr(m, a) for m, a, *_ in tracing.WRAPPED] == originals
    assert traced == plain
    for argv, want in list(zip(argvs, traced))[:12]:
        assert run.run_cli_subprocess(argv)[1:] == want
    names = {s["name"] for s in tracer.spans}
    assert {"cli.main", "serialize.load", "serialize.emit", "koszul.build",
            "koszul.homology", "exact_linalg.kernel_basis"} <= names
    assert all(s["call"] and s["end"] >= s["start"] for s in tracer.spans)


def test_layer_self_times_partition_the_traced_wall(small_outputs):
    calls, argvs, _ = small_outputs
    tracer = tracing.Tracer()
    walls, _, stats = tracing.run_pass(calls, argvs, tracer)
    metrics = tracing.layer_metrics(tracer.spans, stats)
    self_total = sum(v for k, v in metrics.items() if tracing.is_time(k))
    main_total = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "cli.main")
    assert self_total == pytest.approx(main_total, rel=1e-9)
    assert main_total <= sum(walls)
    assert metrics["exact_linalg.reductions"] > 0


def test_wrapped_names_exist():
    for module, attr, *_ in tracing.WRAPPED:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


def test_self_check_seed_filter_matches_snf_net(monkeypatch):
    """_first_snf_shape copies snf_net's draws; `ghom check` must agree with it."""
    from groupoid_homology import checks

    shapes = []

    def recording_snf(a):
        shapes.append((a.rows, a.cols))
        return snf(a)

    snf = checks.snf
    monkeypatch.setattr(checks, "snf", recording_snf)
    picked = int(workloads.self_check(0)[0].argv[2])
    for check_seed in (picked, 1):
        shapes.clear()
        code, out = tracing.run_cli(["check", "--seed", str(check_seed), "--cases", "1"])
        assert code == 0 and "check: PASS" in out
        assert shapes[0] == workloads._first_snf_shape(check_seed)
    assert workloads._first_snf_shape(picked) == workloads.SELF_CHECK_SHAPE
    assert workloads._first_snf_shape(1) != workloads.SELF_CHECK_SHAPE
