"""Command-line driver.

Subcommands take instance files (see serialize for the schema), print a
deterministic JSON payload on stdout (or a plain-text report with
--text), and reserve stderr for a single JSON error object. Exit codes:
0 success, and for a package error its type's exit_code (see errors):
1 validation findings or a failed computation, 2 malformed input files
(and unreadable ones, OSError), 3 rank gates. 141 (128 + SIGPIPE) with
nothing on stderr when the reader of stdout goes away early, as in
`ghom ... | head`. The HOMOLOGY_SEED environment variable overrides
--seed for the check nets.
"""

from __future__ import annotations

import argparse
import os
import sys

# perfbench/tracing.py wraps load_instance, dumps, validate, validate_action,
# to_koszul, homology, ktheory and cubical_homology_rank1 at these names (its
# WRAPPED list), so keep them imported here by name. None comes from checks,
# which _cmd_check imports for itself.
from .dr_finite import to_koszul, validate_action
from .errors import BrokenComplex, GroupoidHomologyError, SchemaError, SkeletonInvalid
from .kgraph import (
    KGraphSkeleton,
    cubical_homology_rank1,
    groupoid_homology,
    hk_report,
    ktheory,
    kunneth,
    product,
    single_vertex_closed_form,
    single_vertex_skeleton,
    validate,
)
from .koszul import homology
from .serialize import (
    dumps,
    instance_to_dict,
    load_instance,
    output_dict,
    render_output_text,
)

def _emit(payload: dict, text: bool) -> None:
    if text:
        print(render_output_text(payload))
    else:
        print(dumps(payload))


def _load_kgraph(path: str, command: str) -> KGraphSkeleton:
    inst = load_instance(path)
    if not isinstance(inst, KGraphSkeleton):
        raise SchemaError(f"{command} expects a kgraph instance, got zk_action")
    return inst


def _cmd_validate(args) -> int:
    inst = load_instance(args.file)
    if isinstance(inst, KGraphSkeleton):
        kind, findings = "kgraph", validate(inst)
    else:
        kind, findings = "zk_action", validate_action(inst)
    if args.text:
        print(f"{kind}: {'valid' if not findings else 'invalid'}")
        for f in findings:
            print(f"  - {f}")
    else:
        print(dumps({"kind": kind, "valid": not findings, "findings": findings}))
    return 0 if not findings else 1


def _cmd_homology(args) -> int:
    inst = load_instance(args.file)
    if isinstance(inst, KGraphSkeleton):
        prof = groupoid_homology(inst)
    else:
        prof = homology(to_koszul(inst))
    _emit(output_dict(prof.k, profile=prof, notes=prof.notes), args.text)
    return 0


def _cmd_ktheory(args) -> int:
    inst = _load_kgraph(args.file, "ktheory")
    kt = ktheory(inst, allow_conjectural=args.allow_conjectural)
    notes = [f"k-theory status: {kt.hk_status}"]
    _emit(output_dict(inst.k, ktheory=kt, notes=notes), args.text)
    return 0


def _cmd_single_vertex(args) -> int:
    try:
        counts = [int(part) for part in args.edges.split(",") if part.strip()]
    except ValueError:
        raise SchemaError(f"--edges wants a comma-separated list, got {args.edges!r}")
    prof = single_vertex_closed_form(counts)
    direct = groupoid_homology(single_vertex_skeleton(counts))
    if direct.groups != prof.groups:
        raise BrokenComplex(
            f"closed form {prof.describe()} disagrees with the vertex-matrix "
            f"computation {direct.describe()}"
        )
    notes = list(prof.notes)
    notes.append("cross-check: vertex-matrix computation agrees")
    _emit(output_dict(prof.k, profile=prof, notes=notes), args.text)
    return 0


def _cmd_product(args) -> int:
    a = _load_kgraph(args.a, "product")
    b = _load_kgraph(args.b, "product")
    body = dumps(instance_to_dict(product(a, b)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    else:
        print(body)
    return 0


def _cmd_kunneth(args) -> int:
    a = _load_kgraph(args.a, "kunneth")
    b = _load_kgraph(args.b, "kunneth")
    prof = kunneth(groupoid_homology(a), groupoid_homology(b))
    _emit(output_dict(prof.k, profile=prof, notes=prof.notes), args.text)
    return 0


def _cmd_cubical(args) -> int:
    inst = _load_kgraph(args.file, "cubical")
    prof = cubical_homology_rank1(inst)
    _emit(output_dict(prof.k, profile=prof, notes=prof.notes), args.text)
    return 0


def _cmd_hk_report(args) -> int:
    inst = _load_kgraph(args.file, "hk-report")
    rep = hk_report(inst)
    _emit(
        output_dict(inst.k, profile=rep.profile, ktheory=rep.ktheory, notes=rep.notes),
        args.text,
    )
    return 0


def _cmd_check(args) -> int:
    # only this command runs the nets, so no other command compiles them
    from .checks import perf_workload, run_all

    seed = args.seed
    env = os.environ.get("HOMOLOGY_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise SchemaError(f"HOMOLOGY_SEED must be an integer, got {env!r}")
    results = run_all(seed, args.cases)
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.passed
    if args.perf:
        rep = perf_workload(seed)
        for line in rep.lines():
            print(line)
        ok = ok and rep.ok
    print(f"check: {'PASS' if ok else 'FAIL'} (seed {seed})")
    return 0 if ok else 1


def _case_count(text: str) -> int:
    """argparse type of --cases: an int that is at least 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghom",
        description="Homology and K-theory of finitely presented ample groupoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "check an instance file for findings")
    p.add_argument("file")
    p.add_argument("--text", action="store_true")

    p = add("homology", _cmd_homology, "homology profile of an instance")
    p.add_argument("file")
    p.add_argument("--text", action="store_true")

    p = add("ktheory", _cmd_ktheory, "C*-algebra K-theory of a kgraph instance")
    p.add_argument("file")
    p.add_argument("--allow-conjectural", action="store_true",
                   help="permit the unproven rank >= 3 formula, clearly labeled")
    p.add_argument("--text", action="store_true")

    p = add("single-vertex", _cmd_single_vertex,
            "closed-form homology of a one-vertex skeleton")
    p.add_argument("--edges", required=True, metavar="N1,N2,...",
                   help="edge counts per color, each at least 2")
    p.add_argument("--text", action="store_true")

    p = add("product", _cmd_product, "product skeleton as a new instance file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", metavar="OUT",
                   help="write the instance here instead of stdout")

    p = add("kunneth", _cmd_kunneth, "homology of a product from factor profiles")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--text", action="store_true")

    p = add("cubical", _cmd_cubical, "cube-complex homology of a rank-1 skeleton")
    p.add_argument("file")
    p.add_argument("--text", action="store_true")

    p = add("hk-report", _cmd_hk_report,
            "homology, K-theory, and their comparison in one report")
    p.add_argument("file")
    p.add_argument("--text", action="store_true")

    p = add("check", _cmd_check, "run the randomized verification nets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_case_count, default=None, metavar="N",
                   help="run N cases in every net instead of the defaults")
    p.add_argument("--perf", action="store_true",
                   help="also time the 100-vertex rank-2 reference workload")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed by its reader; send the interpreter's last flush
        # to devnull so that it does not raise again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (GroupoidHomologyError, OSError) as exc:
        body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, SkeletonInvalid):
            body["error"]["findings"] = list(exc.findings)
        print(dumps(body), file=sys.stderr)
        # an OSError is an unreadable input file, a schema failure
        return getattr(exc, "exit_code", SchemaError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
