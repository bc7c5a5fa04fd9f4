"""Benchmark of the ghom CLI: time to answer, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each was chosen): circulant-ladder,
zk-orbits, small-batch, self-check. The seed generates the instances;
the CLI receives only the instance files.

--trace 0 runs every call as `python -m groupoid_homology ...` in a fresh
subprocess, one at a time (a serial closed-loop client). It repeats
whole passes over the workload's calls while they fit in --seconds (at
least one pass) and reports the end-to-end metrics. --trace 1 runs the
same calls in this process through cli.main, each call untraced and
traced back to back, and reports per-layer self times, entry bits and the
tracing overhead; spans go to .bench_work/trace-<workload>-<seed>.jsonl.

Outputs are checked after timing (see verify.py). The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
README.md in this directory describes every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from math import ceil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# setup probes per run, spread over the whole run so that one slow or
# fast stretch of the machine does not decide the median
SETUP_PROBES = 15
# least number of traced passes in a traced run
TRACE_MIN_PASSES = 3
# a run stops waiting for CLI calls this long after it starts, so a hung
# call fails and the run still ends inside 180 s
RUN_LIMIT_S = 170


def nearest_rank(values, q: float) -> float:
    """The sample at rank ceil(q * n); never interpolates between calls."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def _subprocess_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("HOMOLOGY_SEED", None)  # it would override the check seeds of a workload
    return env


def _run_subprocess(argv, env, deadline=None) -> tuple[float, int, str]:
    """Run the interpreter on argv; (wall seconds, exit code, stdout)."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
            encoding="utf-8",
            timeout=None if deadline is None else max(1.0, deadline - time.perf_counter()),
        )
        code, out = p.returncode, p.stdout
    except subprocess.TimeoutExpired:
        code, out = -1, ""
    return time.perf_counter() - t0, code, out


def write_instances(calls, directory: Path) -> list[list[str]]:
    """Write every call's instance files; return argvs with their paths."""
    for call in calls:
        for name, text in call.files.items():
            (directory / name).write_text(text, encoding="utf-8")
    return [[str(directory / a) if a in call.files else a for a in call.argv]
            for call in calls]


def run_cli_subprocess(argv, env=None, deadline=None) -> tuple[float, int, str]:
    """Time one `python -m groupoid_homology` call; see _run_subprocess."""
    return _run_subprocess(["-m", "groupoid_homology", *argv],
                           env or _subprocess_env(), deadline)


def _another_pass(start: float, passes: int, seconds: float) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def _judge(calls, passes, checker) -> list[str]:
    """Failures: the first pass against expectations, later passes against it."""
    failures = []
    first = passes[0]
    for outputs in passes:
        for call, got, ref in zip(calls, outputs, first):
            reason = checker.failure(call, *got) if outputs is first else (
                None if got == ref else "output differs from the first pass")
            if reason:
                failures.append(f"{call.id}: {reason}")
    return failures


def timed_run(calls, argvs, seconds: float, checker, deadline: float) -> dict:
    env = _subprocess_env()
    run_cli_subprocess(argvs[0], env, deadline)  # warm-up: .pyc compilation is not timed
    setup = []

    def probe_setup():
        setup.append(_run_subprocess(["-c", "import groupoid_homology.cli"],
                                     env, deadline)[0])

    walls = [[] for _ in calls]
    passes = []
    start = time.perf_counter()
    while not passes or _another_pass(start, len(passes), seconds):
        outputs = []
        for i, argv in enumerate(argvs):
            # the k-th setup probe goes before the first call after k/SETUP_PROBES
            # of --seconds has passed
            if (len(setup) < SETUP_PROBES and time.perf_counter() - start
                    >= len(setup) * seconds / SETUP_PROBES):
                probe_setup()
            wall, code, out = run_cli_subprocess(argv, env, deadline)
            walls[i].append(wall)
            outputs.append((code, out))
        passes.append(outputs)
    while len(setup) < SETUP_PROBES:
        probe_setup()
    reasons = _judge(calls, passes, checker)
    # a call's latency is its median over the passes, so a stall in one pass is dropped
    latency = [statistics.median(samples) for samples in walls]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": sum(latency),
        "setup_s": statistics.median(setup),
        "call_p50_s": nearest_rank(latency, 0.5),
        "call_p90_s": nearest_rank(latency, 0.9),
        "peak_rss_mb": rss_kb / 1024,
    }
    attempted = len(calls) * len(passes)
    notes = [f"{len(passes)} passes of {len(calls)} calls, {SETUP_PROBES} setup probes",
             f"fail_frac {len(reasons) / attempted:.4f} ratio"]
    return {"metrics": metrics, "attempted": attempted, "reasons": reasons,
            "notes": notes}


def traced_run(calls, argvs, seconds: float, checker, trace_path: Path) -> dict:
    import tracing

    tracing.run_call(calls[0], argvs[0])  # warm-up
    # per call, traced minus untraced wall of each back-to-back pair
    overhead = [[] for _ in calls]
    per_pass, passes, all_spans = [], [], []
    reasons = []
    start = time.perf_counter()
    while len(passes) < TRACE_MIN_PASSES or _another_pass(start, len(passes), seconds):
        tracer = tracing.Tracer()
        traced, stats = [], []
        for i, (call, argv) in enumerate(zip(calls, argvs)):
            # each call runs untraced and traced back to back; which goes
            # first alternates, so a warm-up or a change in machine speed
            # does not count for or against the tracer
            if (len(passes) + i) % 2:
                t_wall, t_out, st = tracing.run_call(call, argv, tracer)
                u_wall, u_out, _ = tracing.run_call(call, argv)
            else:
                u_wall, u_out, _ = tracing.run_call(call, argv)
                t_wall, t_out, st = tracing.run_call(call, argv, tracer)
            overhead[i].append(t_wall - u_wall)
            traced.append(t_out)
            stats.append(st)
            if t_out != u_out:
                reasons.append(f"{call.id}: traced stdout or exit code differs from untraced")
        per_pass.append(tracing.layer_metrics(tracer.spans, tracing.merge_stats(stats)))
        for span in tracer.spans:
            span["pass"] = len(passes)
        all_spans.extend(tracer.spans)
        passes.append(traced)
    reasons += _judge(calls, passes, checker)
    with open(trace_path, "w", encoding="utf-8") as fh:
        for span in all_spans:
            fh.write(json.dumps(span) + "\n")
    metrics = {}
    for key in set().union(*per_pass):
        values = [m.get(key, 0) for m in per_pass]
        metrics[key] = statistics.median(values) if tracing.is_time(key) else values[-1]
    metrics["trace.overhead_s"] = sum(statistics.median(d) for d in overhead)
    attempted = len(calls) * len(passes)
    notes = [f"{len(passes)} traced passes of {len(calls)} calls in process, each call "
             f"paired with an untraced run of it",
             f"spans: {trace_path.relative_to(ROOT)}"]
    return {"metrics": metrics, "attempted": attempted, "reasons": reasons,
            "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "groupoid_homology" / "cli.py").is_file():
        print(f"perfbench: no groupoid_homology package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import verify
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    calls = workloads.WORKLOADS[args.workload](args.seed)
    golden = verify.load_golden(args.workload, args.seed, workloads.DEFAULT_SEED)
    checker = verify.Checker(golden)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        argvs = write_instances(calls, scratch)
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
            result = traced_run(calls, argvs, args.seconds, checker, trace_path)
        else:
            result = timed_run(calls, argvs, args.seconds, checker, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    unknown = set(result["metrics"]) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # the result line carries every declared metric; a layer this workload
    # never reaches spent exactly 0 s in it
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in result["notes"]:
        print(f"  {line}")
    for name, m in metrics.items():
        reached = "" if name in result["metrics"] else " (not reached)"
        print(f"  {name} {m['value']:.6g} {m['unit']}{reached}")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")
    print(json.dumps({"correct": not result["reasons"],
                      "attempted": result["attempted"],
                      "failed": len(result["reasons"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
