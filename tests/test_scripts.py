import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import groupoid_homology

ROOT = Path(__file__).resolve().parent.parent


def test_rank3_hunt_runs_and_reports_its_tally():
    src = str(Path(groupoid_homology.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rank3_hunt.py"),
         "--cases", "3", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert re.fullmatch(r"hunt: 3 products, \d+ candidates \(seed 0\)", last)


def test_benchmark_tracer_wraps_names_that_exist(monkeypatch):
    # perfbench/tracing.py replaces these module attributes by name; a
    # refactor that moves or drops one would break traced benchmark runs
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.WRAPPED
    for module, attr, *_ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
