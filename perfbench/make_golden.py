"""Rewrite golden.json from the real CLI at the default seed.

Run from the repository root:

    python3 perfbench/make_golden.py

Every call of every workload runs once as a subprocess. Its exit code
and stdout are first judged by the independent expectations in
verify.py; if any call fails them, nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, WORK, run_cli_subprocess, write_instances

sys.path.insert(0, str(SRC))

import verify  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    golden, failures = {}, []
    WORK.mkdir(exist_ok=True)
    for name, generate in workloads.WORKLOADS.items():
        calls = generate(workloads.DEFAULT_SEED)
        scratch = tempfile.mkdtemp(prefix="golden-", dir=WORK)
        try:
            argvs = write_instances(calls, Path(scratch))
            checker = verify.Checker()
            golden[name] = {}
            for call, argv in zip(calls, argvs):
                _, code, out = run_cli_subprocess(argv)
                reason = checker.failure(call, code, out)
                if reason:
                    failures.append(f"{name}/{call.id}: {reason}")
                golden[name][call.id] = {"exit": code, "stdout": out}
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    verify.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"wrote {verify.GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
