"""In-process traced CLI runs with per-layer spans.

The tracer replaces public functions at the module attributes their
callers look them up by (cli.load_instance, kgraph.build, ...) with
wrappers that record a span each: name, start, end, parent span and the
id of the benchmark call. Nothing in the package changes; every name is
put back when the call ends. Inside a koszul.homology span the
degree of a kernel_basis, solve_columns or cokernel call is its position
among the calls of that function in the span; degrees 4 and up share
the metric suffix p4up.
"""

from __future__ import annotations

import functools
import io
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from groupoid_homology import checks, cli, dr_finite, kgraph, koszul
from groupoid_homology.exact_linalg import EntryGrowthStats, track_entry_growth

HOMOLOGY = "koszul.homology"


def _in_homology(tracer, args) -> bool:
    return bool(tracer.stack) and tracer.stack[-1]["name"] == HOMOLOGY


def _rank1(tracer, args) -> bool:
    return args[0].k == 1


# (module, attribute, span name, record only when, record result bits)
WRAPPED = [
    (cli, "load_instance", "serialize.load", None, False),
    (cli, "dumps", "serialize.emit", None, False),
    (cli, "validate", "kgraph.validate", None, False),
    (kgraph, "validate", "kgraph.validate", None, False),
    (cli, "validate_action", "dr_finite.validate", None, False),
    (cli, "to_koszul", "dr_finite.to_koszul", None, False),
    (kgraph, "build", "koszul.build", None, False),
    (dr_finite, "build", "koszul.build", None, False),
    (checks, "build", "koszul.build", None, False),
    (kgraph, "homology", HOMOLOGY, None, False),
    (cli, "homology", HOMOLOGY, None, False),
    (dr_finite, "homology", HOMOLOGY, None, False),
    (checks, "homology", HOMOLOGY, None, False),
    (checks, "to_koszul", "dr_finite.to_koszul", None, False),
    # complex_net calls checks.kernel_basis outside any homology span, to test
    # the shift identity; those spans have no degree
    (checks, "kernel_basis", "exact_linalg.kernel_basis", None, False),
    (koszul, "kernel_basis", "exact_linalg.kernel_basis", _in_homology, True),
    (koszul, "solve_columns", "exact_linalg.solve", _in_homology, True),
    (koszul, "cokernel", "exact_linalg.cokernel", _in_homology, False),
    (cli, "ktheory", "kgraph.ktheory_rank1", _rank1, False),
    (cli, "cubical_homology_rank1", "kgraph.cubical", None, False),
    (kgraph, "cubical_homology_rank1", "kgraph.cubical", None, False),
    (checks, "snf", "exact_linalg.snf", None, False),
    (checks, "det", "exact_linalg.det", None, False),
] + [
    (checks, net, f"checks.{net}", None, False)
    for net in ("snf_net", "complex_net", "single_vertex_net", "kunneth_net",
                "zk_net", "point_net")
]

# spans whose self time is reported under another layer metric
METRIC_BASE = {"cli.main": "cli.self", "dr_finite.to_koszul": "dr_finite.validate"}


class Tracer:
    """Span recorder; spans stay in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.call_id: str | None = None
        self._seen: dict[tuple[int, str], int] = defaultdict(int)

    def open(self, name: str) -> dict:
        parent = self.stack[-1] if self.stack else None
        span = {"id": len(self.spans), "name": name, "call": self.call_id,
                "parent": parent["id"] if parent else None}
        if parent is not None and parent["name"] == HOMOLOGY:
            key = (parent["id"], name)
            span["degree"] = self._seen[key]
            self._seen[key] += 1
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, when, bits):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(self, args):
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if bits:
                span["bits"] = result.max_bit_length()
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, when, bits in WRAPPED:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, when, bits))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def run_cli(argv) -> tuple[int, str]:
    """cli.main in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # an uncaught error exits 1, as in a subprocess
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    return code, out.getvalue()


def run_call(call, argv, tracer: Tracer | None = None):
    """One call through cli.main; returns (wall seconds, (exit code, stdout), growth stats).

    A traced call installs the wrappers and runs inside
    track_entry_growth(); its wall includes that set-up, so that traced
    minus untraced wall is the whole cost of tracing. An untraced call
    returns None for the stats.
    """
    t0 = time.perf_counter()
    if tracer is None:
        output = run_cli(argv)
        return time.perf_counter() - t0, output, None
    tracer.call_id = call.id
    with tracer.installed(), track_entry_growth() as stats:
        span = tracer.open("cli.main")
        output = run_cli(argv)
        tracer.close(span)
    return time.perf_counter() - t0, output, stats


def merge_stats(parts) -> EntryGrowthStats:
    """The growth stats of several calls as if they had run in one context."""
    return EntryGrowthStats(peak_bits=max((s.peak_bits for s in parts), default=0),
                            reductions=[r for s in parts for r in s.reductions])


def run_pass(calls, argvs, tracer: Tracer | None = None):
    """One pass over the calls; returns (per-call walls, outputs, merged growth stats)."""
    walls, outputs, stats = [], [], []
    for call, argv in zip(calls, argvs):
        wall, output, st = run_call(call, argv, tracer)
        walls.append(wall)
        outputs.append(output)
        stats.append(st)
    return walls, outputs, merge_stats(stats) if tracer else None


def is_time(metric: str) -> bool:
    return metric.endswith("_s") or "_s." in metric


# degrees from this one up share one metric; only the check nets reach them
TOP_DEGREE = 4


def degree_label(degree: int) -> str:
    return f"p{degree}" if degree < TOP_DEGREE else f"p{TOP_DEGREE}up"


def layer_metrics(spans, stats) -> dict[str, float]:
    """Self time per layer metric, max result bits per degree, growth counts."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        base = METRIC_BASE.get(s["name"], s["name"])
        degree = f".{degree_label(s['degree'])}" if "degree" in s else ""
        out[f"{base}_s{degree}"] += s["end"] - s["start"] - covered[s["id"]]
        if "bits" in s:
            key = f"{base}_bits{degree}"
            out[key] = max(out.get(key, 0), s["bits"])
    out["exact_linalg.peak_bits"] = stats.peak_bits
    out["exact_linalg.worst_growth"] = stats.worst_ratio
    out["exact_linalg.reductions"] = len(stats.reductions)
    out["exact_linalg.reduced_entries"] = sum(r[0] * r[1] for r in stats.reductions)
    return dict(out)
