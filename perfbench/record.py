"""Record sets of benchmark runs and their spread into one JSON file.

Run from the repository root:

    python3 perfbench/record.py --out perfbench/baseline.json

Each of two sets runs every workload once per seed (seeds 1..10) with the
run_seconds of BENCHMARK.json, then one traced run per workload at the
default seed. For every end-to-end metric the file keeps each run's
value, the median, and the quartile spread (third minus first quartile
of statistics.quantiles(values, n=4), as a share of the median), so a
later change can be compared against it metric by metric. The exit code
is 1 when a spread, or the gap between the two sets' medians, exceeds
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(p.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "spread": (q3 - q1) / med, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    record = {"python": platform.python_version(), "cpus": os.cpu_count(),
              "run_seconds": seconds, "seeds": list(SEEDS),
              "sets": [], "traced": {}}
    for _ in range(SETS):
        sets = {}
        for w in spec["workloads"]:
            runs = []
            for seed in record["seeds"]:
                t0 = time.perf_counter()
                res = bench(w["name"], seed, seconds, 0)
                values = " ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"{w['name']} seed {seed}: correct {res['correct']}, "
                      f"{time.perf_counter() - t0:.1f} s: {values}", flush=True)
                runs.append(res)
            sets[w["name"]] = {
                "all_correct": all(r["correct"] for r in runs),
                "metrics": summarize(runs),
            }
        record["sets"].append(sets)
    for w in spec["workloads"]:
        res = bench(w["name"], 0, seconds, 1)
        record["traced"][w["name"]] = {
            "correct": res["correct"],
            "metrics": {k: v["value"] for k, v in res["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return report(spec, record)


def report(spec: dict, record: dict) -> int:
    """Print each spread and the gap between the set medians against the bound.

    The gap is max/min - 1 of the set medians, so a fast set after a slow
    one counts as much as a slow set after a fast one.
    """
    bad = 0
    for m in spec["end_to_end"]:
        for w in spec["workloads"]:
            sets = [s[w["name"]]["metrics"][m["name"]] for s in record["sets"]]
            medians = [s["median"] for s in sets]
            gap = max(medians) / min(medians) - 1
            spread = max(s["spread"] for s in sets)
            ok = gap <= m["bound"] and spread <= m["bound"]
            bad += not ok
            print(f"{w['name']:17} {m['name']:12} median {medians[0]:.4g} {m['unit']:3} "
                  f"spread {spread:.3f} gap {gap:.3f} bound {m['bound']} "
                  f"{'ok' if ok else 'OUT OF BOUND'}"
                  f"{'' if spread <= m['bound'] / 3 else ' (spread above bound/3)'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
