"""Seeded instance generators, one per benchmark workload.

Each generator returns the list of CLI calls that make up one pass of
its workload. A call carries its arguments, the instance files it reads
(as the exact bytes the CLI will receive) and what the checker needs to
judge its output. The same seed always gives the same calls and bytes;
the CLI sees only the files.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from groupoid_homology import checks, kgraph, serialize
from groupoid_homology.dr_finite import ZkAction
from groupoid_homology.exact_linalg import IntMatrix
from groupoid_homology.kgraph import KGraphSkeleton

DEFAULT_SEED = 0


@dataclass
class Call:
    """One CLI invocation of a workload.

    argv names instance files by their keys in files; the runner writes
    them to a scratch directory and substitutes the paths. kind tells
    the checker which expectation applies, insts holds the instances in
    argument order, and exit is the exit code a correct CLI returns.
    """

    id: str
    argv: list[str]
    kind: str
    exit: int = 0
    files: dict[str, str] = field(default_factory=dict)
    insts: tuple = ()


def instance_text(inst) -> str:
    return serialize.dumps(serialize.instance_to_dict(inst)) + "\n"


def _file_call(cid: str, command: str, insts, kind: str, flags=()) -> Call:
    names = [f"{cid}-{i}.json" for i in range(len(insts))]
    return Call(
        id=cid,
        argv=[command, *names, *flags],
        kind=kind,
        files={n: instance_text(x) for n, x in zip(names, insts)},
        insts=tuple(insts),
    )


def circulant(rng: random.Random, n: int, terms: int, hi: int) -> IntMatrix:
    """Sum of `terms` distinct powers of the n-cycle shift, coefficients 1..hi.

    Polynomials in one shift commute, and a positive coefficient puts a
    nonzero entry in every row, so any family of these is a valid skeleton.
    """
    entries = [0] * (n * n)
    for e in rng.sample(range(n), min(terms, n)):
        c = rng.randint(1, hi)
        for v in range(n):
            entries[v * n + (v + e) % n] += c
    return IntMatrix(n, n, entries)


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


# ---------------------------------------------------------------------------
# circulant-ladder: one connected block whose reductions grow entry bits

# (vertices, perf_skeleton seed) of the rank-2 rungs. With three small
# rungs among seven calls, the nearest-rank median is the fastest of the
# four large calls, not the slowest of the small ones, which one slow
# call in a noisy run would move
LADDER_RUNGS = ((40, 0), (40, 1), (40, 2), (55, 0), (55, 1))


def rename(sk: KGraphSkeleton, rng: random.Random) -> KGraphSkeleton:
    """The same skeleton with its vertex names permuted at random.

    Only the names move; the matrices keep their row and column order,
    so the reductions see the same input and do the same work.
    """
    names = list(sk.vertices)
    rng.shuffle(names)
    return KGraphSkeleton(tuple(names), sk.matrices)


def circulant_ladder(seed: int) -> list[Call]:
    """Fixed perf skeletons whose vertex names are drawn from the seed.

    perf_skeleton's coefficients move its homology time by 2x between its
    own seeds, and permuting the vertices changes the pivot order, which
    moved one call (the 200-vertex rank-1 circulant) by 1.5x between
    benchmark seeds. So the matrices are fixed here and the benchmark
    seed only renames vertices: the bytes change, the work does not.
    """
    rng = random.Random(f"{seed}/circulant-ladder")
    calls = [
        _file_call(f"perf{n}-{s}", "homology",
                   [rename(checks.perf_skeleton(s, n), rng)], "homology")
        for n, s in LADDER_RUNGS
    ]
    fixed = random.Random("circulant-ladder")
    c3 = KGraphSkeleton(_labels(3), (circulant(fixed, 3, 2, 3),))
    rank3 = kgraph.product(checks.perf_skeleton(0, 12), c3)
    calls.append(_file_call("rank3", "ktheory", [rename(rank3, rng)], "ktheory",
                            flags=["--allow-conjectural"]))
    rank1 = KGraphSkeleton(_labels(200), (circulant(fixed, 200, 2, 3),))
    calls.append(_file_call("rank1-200", "ktheory", [rename(rank1, rng)], "ktheory"))
    return calls


# ---------------------------------------------------------------------------
# zk-orbits: many small independent orbits, entries stay +-1

ZK_SIZES = ((2, 180), (3, 90))


def torus_orbits(rng: random.Random, k: int, points: int) -> ZkAction:
    """Disjoint union of torus orbits Z/a_1 x .. x Z/a_k, sides 1..6.

    Generator i shifts coordinate i cyclically. Orbits are drawn until
    the points are used up exactly, then the points are relabeled by a
    random permutation so orbits interleave.
    """
    orbits = []
    left = points
    while left:
        sides = [rng.randint(1, 6) for _ in range(k)]
        if math.prod(sides) > left:
            sides = [min(6, left)] + [1] * (k - 1)
        orbits.append(sides)
        left -= math.prod(sides)
    labels = list(range(points))
    rng.shuffle(labels)
    perms = [[0] * points for _ in range(k)]
    base = 0
    for sides in orbits:
        coords = list(itertools.product(*(range(s) for s in sides)))
        index = {c: labels[base + j] for j, c in enumerate(coords)}
        for c, x in index.items():
            for i in range(k):
                d = list(c)
                d[i] = (d[i] + 1) % sides[i]
                perms[i][x] = index[tuple(d)]
        base += len(coords)
    return ZkAction(points, tuple(tuple(p) for p in perms))


def zk_orbits(seed: int) -> list[Call]:
    rng = random.Random(f"{seed}/zk-orbits")
    return [
        _file_call(f"z{k}-{n}", "homology", [torus_orbits(rng, k, n)], "homology")
        for k, n in ZK_SIZES
    ]


# ---------------------------------------------------------------------------
# small-batch: tiny instances, so start-up, parse and emit dominate

SMALL_BATCH_CALLS = 100
SMALL_COMMANDS = ("validate", "homology", "ktheory", "hk-report", "cubical",
                  "kunneth", "product")


def tiny_skeleton(rng: random.Random, k: int | None = None) -> KGraphSkeleton:
    """1-4 vertices, rank 1-3; a rank-1 skeleton may be any matrix without zero rows."""
    n = rng.randint(1, 4)
    if k is None:
        k = rng.randint(1, 3)
    if k == 1 and rng.random() < 0.5:
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        for row in rows:
            if not any(row):
                row[rng.randrange(n)] = rng.randint(1, 3)
        return KGraphSkeleton(_labels(n), (IntMatrix.from_rows(rows),))
    return KGraphSkeleton(
        _labels(n), tuple(circulant(rng, n, rng.randint(1, 2), 3) for _ in range(k))
    )


def _valid_small_call(rng: random.Random, idx: int) -> Call:
    command = SMALL_COMMANDS[idx % len(SMALL_COMMANDS)]
    cid = f"{idx:03d}-{command}"
    if command in ("kunneth", "product"):
        a = tiny_skeleton(rng, rng.randint(1, 2))
        b = tiny_skeleton(rng, rng.randint(1, 2))
        return _file_call(cid, command, [a, b], command)
    if command == "cubical":
        return _file_call(cid, command, [tiny_skeleton(rng, 1)], command)
    sk = tiny_skeleton(rng)
    flags = ["--allow-conjectural"] if command == "ktheory" and sk.k >= 3 else []
    return _file_call(cid, command, [sk], command, flags=flags)


def _raw_call(cid: str, command: str, text: str, exit: int) -> Call:
    name = f"{cid}-0.json"
    return Call(id=cid, argv=[command, name], kind="error", exit=exit,
                files={name: text})


def _non_commuting_pair(rng: random.Random) -> KGraphSkeleton:
    n = rng.randint(2, 3)
    while True:
        a, b = (IntMatrix.from_rows([[rng.randint(1, 3) for _ in range(n)]
                                     for _ in range(n)]) for _ in range(2))
        if a @ b != b @ a:
            return KGraphSkeleton(_labels(n), (a, b))


def _invalid_small_calls(rng: random.Random) -> list[Call]:
    """One call per failure class: exit 2 schema, exit 1 findings, exit 3 rank gates."""
    sk = tiny_skeleton(rng, 2)
    text = instance_text(sk)
    d = serialize.instance_to_dict(sk)
    short = dict(d, matrices=[m[:-1] for m in d["matrices"]])
    negative = dict(d, matrices=[[-x for x in d["matrices"][0]], d["matrices"][1]])
    zero_row = tiny_skeleton(rng, 1)
    zrow = serialize.instance_to_dict(zero_row)
    n = len(zero_row.vertices)
    zrow["matrices"][0][:n] = [0] * n
    action = torus_orbits(rng, 2, rng.randint(2, 8))
    broken = serialize.instance_to_dict(action)
    broken["permutations"][0][0] = broken["permutations"][0][1]
    return [
        _raw_call("bad-truncated", "homology", text[: len(text) // 2], 2),
        _raw_call("bad-short-matrix", "validate", serialize.dumps(short), 2),
        _raw_call("bad-kind", "homology", serialize.dumps(dict(d, kind="graph")), 2),
        _raw_call("bad-zk-ktheory", "ktheory", instance_text(action), 2),
        _raw_call("bad-negative", "homology", serialize.dumps(negative), 1),
        _raw_call("bad-noncommuting", "ktheory",
                  instance_text(_non_commuting_pair(rng)), 1),
        Call(id="bad-source", argv=["validate", "bad-source-0.json"],
             kind="invalid-validate", exit=1,
             files={"bad-source-0.json": serialize.dumps(zrow)}),
        _raw_call("bad-not-bijective", "homology", serialize.dumps(broken), 1),
        _raw_call("bad-rank3-ktheory", "ktheory", instance_text(tiny_skeleton(rng, 3)), 3),
        _raw_call("bad-rank2-cubical", "cubical", instance_text(tiny_skeleton(rng, 2)), 3),
    ]


def small_batch(seed: int) -> list[Call]:
    rng = random.Random(f"{seed}/small-batch")
    invalid = _invalid_small_calls(rng)
    calls = [_valid_small_call(rng, i) for i in range(SMALL_BATCH_CALLS - len(invalid))]
    for call in invalid:
        calls.insert(rng.randrange(1, len(calls) + 1), call)
    return calls


# ---------------------------------------------------------------------------
# self-check: the randomized nets, which reach snf and det with transforms

SELF_CHECK_CALLS = 10
SELF_CHECK_SHAPE = (32, 32)


def _first_snf_shape(check_seed: int) -> tuple[int, int]:
    # snf_net draws rows, then cols, first from Random(f"{seed}/snf")
    rng = random.Random(f"{check_seed}/snf")
    return rng.randint(1, 50), rng.randint(1, 50)


def self_check(seed: int) -> list[Call]:
    """`ghom check --cases 1` on check seeds drawn from the benchmark seed.

    The cost of a check run is dominated by its SNF case, whose shape is
    random (1..50 per side) and moves the time by 5x between check seeds.
    Only check seeds whose SNF case has the fixed shape SELF_CHECK_SHAPE
    are taken, so the seed varies the entries but not the work size.
    """
    rng = random.Random(f"{seed}/self-check")
    calls = []
    while len(calls) < SELF_CHECK_CALLS:
        s = rng.randrange(10**9)
        if _first_snf_shape(s) == SELF_CHECK_SHAPE:
            calls.append(Call(id=f"check-{s}",
                              argv=["check", "--seed", str(s), "--cases", "1"],
                              kind="check"))
    return calls


WORKLOADS = {
    "circulant-ladder": circulant_ladder,
    "zk-orbits": zk_orbits,
    "small-batch": small_batch,
    "self-check": self_check,
}
