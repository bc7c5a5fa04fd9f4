"""Randomized self-check nets shared by the CLI and the acceptance tests.

Every net takes an explicit random.Random so a fixed seed reproduces the
exact same cases on any platform. Failures are hard errors (a property
that must hold was violated). Findings are disagreements listed for
review, currently only product-versus-composition comparisons; Kunneth
holds for these complexes as a theorem, so a finding is a bug in the
engine, not a counterexample, and fails the net too.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from math import comb

from .abelian import FgAbGroup

# perfbench/tracing.py wraps build, homology, to_koszul, kernel_basis, snf and
# det at these names (its WRAPPED list), so keep them imported here by name
from .dr_finite import ZkAction, _perm_matrix, orbit_oracle, to_koszul
from .exact_linalg import IntMatrix, det, kernel_basis, snf, track_entry_growth
from .kgraph import (
    KGraphSkeleton,
    groupoid_homology,
    kunneth,
    product,
    single_vertex_closed_form,
    single_vertex_skeleton,
    validate,
)
from .koszul import build, homology, verify_shift_identity


class NetResult:
    """What one net found: failures are hard errors, findings disagreements."""

    __slots__ = ("name", "cases", "failures", "findings")

    def __init__(self, name: str, cases: int, failures: list[str] | None = None,
                 findings: list[str] | None = None):
        self.name = name
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.findings = [] if findings is None else findings

    @property
    def passed(self) -> bool:
        return not self.failures and not self.findings

    def line(self) -> str:
        unit = "pairs" if self.name == "kunneth" else "cases"
        bits = [f"{self.name}: {self.cases} {unit}, {len(self.failures)} failures"]
        if self.name == "kunneth":
            bits.append(f"{len(self.findings)} findings")
        return ", ".join(bits)


DEFAULT_CASES = {
    "snf": 500,
    "complex": 60,
    "single-vertex": 200,
    "kunneth": 50,
    "zk-action": 100,
}


# the largest entry of a random skeleton's vertex matrices
MAX_ENTRY = 3


def _random_matrix(rng: random.Random, rows: int, cols: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def _random_diagonal(rng: random.Random, n: int, lo: int, hi: int) -> IntMatrix:
    """An n x n diagonal matrix, its entries drawn from lo..hi top to bottom."""
    return IntMatrix(n, n, [rng.randint(lo, hi) if i % (n + 1) == 0 else 0
                            for i in range(n * n)])


def _random_sourceless(rng: random.Random, n: int) -> IntMatrix:
    """An n x n matrix over 0..MAX_ENTRY with no zero row (no source): all
    rows are drawn first, then each zero row gets one entry in
    1..MAX_ENTRY at a random column."""
    rows = [[rng.randint(0, MAX_ENTRY) for _ in range(n)] for _ in range(n)]
    for row in rows:
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, MAX_ENTRY)
    return IntMatrix.from_rows(rows)


def _shift_poly(n: int, terms) -> IntMatrix:
    """The polynomial sum c * S^e over the (e, c) terms, S the n x n cyclic
    shift, whose power S^e has its ones at (v, v + e mod n); the powers
    are written down by index instead of multiplied out."""
    entries = [0] * (n * n)
    for e, c in terms:
        for v in range(n):
            entries[v * n + (v + e) % n] += c
    return IntMatrix(n, n, entries)


def _random_permutation(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _perm_power(p: list[int], e: int) -> tuple[int, ...]:
    q = list(range(len(p)))
    for _ in range(e):
        q = [p[x] for x in q]
    return tuple(q)


# ---------------------------------------------------------------------------
# Smith normal form properties

# acceptance criterion 08: each snf_net case is rows x cols, both drawn from
# 1..SNF_MAX_DIM, with entries drawn from -SNF_MAX_ENTRY..SNF_MAX_ENTRY
SNF_MAX_DIM = 50
SNF_MAX_ENTRY = 100


def snf_net(rng: random.Random, cases: int) -> NetResult:
    """u @ a @ v = diag(d), unimodularity, and the divisibility chain."""
    out = NetResult("snf", cases)
    for idx in range(cases):
        rows = rng.randint(1, SNF_MAX_DIM)
        cols = rng.randint(1, SNF_MAX_DIM)
        a = _random_matrix(rng, rows, cols, -SNF_MAX_ENTRY, SNF_MAX_ENTRY)
        r = snf(a)

        def fail(msg):
            out.failures.append(f"case {idx} ({rows}x{cols}): {msg}")

        if len(r.d) != min(rows, cols):
            fail(f"diagonal has length {len(r.d)}")
            continue
        if any(x < 0 for x in r.d):
            fail("negative invariant factor")
        nz = [x for x in r.d if x]
        if list(r.d[: len(nz)]) != nz:
            fail("zero entries interleave nonzero ones")
        for s, t in zip(nz, nz[1:]):
            if t % s:
                fail(f"divisibility breaks: {s} does not divide {t}")
        if r.rank != len(nz):
            fail(f"rank {r.rank} != {len(nz)} nonzero factors")
        diag = [[r.d[i] if i == j and i < len(r.d) else 0 for j in range(cols)]
                for i in range(rows)]
        if (r.u @ a @ r.v) != IntMatrix.from_rows(diag):
            fail("u @ a @ v is not the diagonal form")
        if abs(det(r.u)) != 1:
            fail(f"u has determinant {det(r.u)}")
        if abs(det(r.v)) != 1:
            fail(f"v has determinant {det(r.v)}")
    return out


# ---------------------------------------------------------------------------
# complexes from random commuting families

def _random_commuting_family(rng: random.Random, k: int, m: int) -> list[IntMatrix]:
    style = rng.choice(["poly", "perm", "diag"])
    if style == "poly":
        # polynomials in one integer matrix commute pairwise
        b = _random_matrix(rng, m, m, -2, 2)
        b2 = b @ b
        ident = IntMatrix.identity(m)
        fam = []
        for _ in range(k):
            c0, c1, c2 = (rng.randint(-2, 2) for _ in range(3))
            fam.append(c0 * ident + c1 * b + c2 * b2)
        return fam
    if style == "perm":
        base = _random_permutation(rng, m)
        return [_perm_matrix(_perm_power(base, rng.randint(0, m)), m)
                for _ in range(k)]
    return [_random_diagonal(rng, m, -3, 3) for _ in range(k)]


def complex_net(rng: random.Random, cases: int) -> NetResult:
    """Boundary composition, Euler characteristic, and shift identities.

    For every sampled complex: consecutive boundaries compose to zero
    (the run-time check of KoszulComplex.boundary's assembly); homology
    free ranks have alternating sum 0; and for every kernel-basis cycle
    in every degree and endomorphism index, the shifted cycle differs by
    a boundary.
    """
    out = NetResult("complex", cases)
    for idx in range(cases):
        k = rng.randint(1, 3)
        m = rng.randint(1, 4)
        fam = _random_commuting_family(rng, k, m)
        c = build(k, fam)
        for p in range(2, k + 1):
            if not (c.boundary(p - 1) @ c.boundary(p)).is_zero():
                out.failures.append(f"case {idx}: boundary composition nonzero at {p}")
        profile = homology(c)
        if profile.euler_characteristic() != 0:
            out.failures.append(f"case {idx}: euler characteristic nonzero")
        for p in range(k + 1):
            kb = kernel_basis(c.boundary(p))
            cycles = kb.transpose().to_rows()
            for i in range(k):
                if not verify_shift_identity(c, i, p, cycles):
                    out.failures.append(
                        f"case {idx}: shift identity fails in degree {p}, index {i}"
                    )
    return out


# ---------------------------------------------------------------------------
# single-vertex closed form against the chain engine

def single_vertex_net(rng: random.Random, cases: int) -> NetResult:
    out = NetResult("single-vertex", cases)
    for idx in range(cases):
        k = rng.randint(1, 4)
        counts = [rng.randint(2, 7) for _ in range(k)]
        closed = single_vertex_closed_form(counts)
        engine = groupoid_homology(single_vertex_skeleton(counts))
        if closed.groups != engine.groups:
            out.failures.append(
                f"case {idx}: counts {counts}: closed form {closed.describe()} "
                f"vs engine {engine.describe()}"
            )
    return out


# ---------------------------------------------------------------------------
# product skeletons against composed profiles

def _random_skeleton(rng: random.Random, max_vertices: int = 3,
                     max_k: int = 2) -> KGraphSkeleton:
    k = rng.randint(1, max_k)
    n = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(n))
    if k == 1:
        return KGraphSkeleton(vertices, (_random_sourceless(rng, n),))
    # commuting pair strategies; retry until validate finds nothing, which
    # only a shift polynomial whose coefficients are all 0 can fail
    for _ in range(200):
        style = rng.choice(["shift-poly", "equal", "identity", "diag"])
        if style == "shift-poly":
            mats = [_shift_poly(n, [(-e, rng.randint(0, MAX_ENTRY)) for e in range(n)])
                    for _ in range(2)]
        elif style == "equal":
            mats = [_random_sourceless(rng, n)] * 2
        elif style == "identity":
            mats = [_random_sourceless(rng, n), IntMatrix.identity(n)]
        else:
            mats = [_random_diagonal(rng, n, 1, MAX_ENTRY) for _ in range(2)]
        sk = KGraphSkeleton(vertices, tuple(mats))
        if not validate(sk):
            return sk
    # dependable fallback: a one-vertex pair always qualifies
    return KGraphSkeleton(("v",), tuple(_random_diagonal(rng, 1, 1, MAX_ENTRY)
                                        for _ in range(2)))


def kunneth_net(rng: random.Random, cases: int) -> NetResult:
    """Direct product homology versus the tensor/Tor composition.

    Disagreements are listed as findings, each with its pair. Kunneth is
    a theorem for these tensor-product complexes, so a finding is a bug
    in the engine, not a counterexample; any finding fails the net.
    """
    out = NetResult("kunneth", cases)
    for idx in range(cases):
        a = _random_skeleton(rng)
        b = _random_skeleton(rng)
        direct = groupoid_homology(product(a, b))
        composed = kunneth(groupoid_homology(a), groupoid_homology(b))
        if direct.groups != composed.groups:
            out.findings.append(
                f"pair {idx}: product of ({len(a.vertices)}v k={a.k}) and "
                f"({len(b.vertices)}v k={b.k}): direct {direct.describe()} "
                f"vs composed {composed.describe()}"
            )
    return out


# ---------------------------------------------------------------------------
# finite actions against the orbit oracle

def zk_net(rng: random.Random, cases: int) -> NetResult:
    out = NetResult("zk-action", cases)
    for idx in range(cases):
        points = rng.randint(1, 12)
        k = rng.randint(1, 3)
        if rng.random() < 0.5:
            base = _random_permutation(rng, points)
            perms = tuple(_perm_power(base, rng.randint(0, points)) for _ in range(k))
        else:
            # disjoint supports: each generator shuffles only its own block
            owner = [rng.randrange(k) for _ in range(points)]
            perms = []
            for i in range(k):
                block = [x for x in range(points) if owner[x] == i]
                images = _random_permutation(rng, len(block))
                p = list(range(points))
                for pos, x in enumerate(block):
                    p[x] = block[images[pos]]
                perms.append(tuple(p))
            perms = tuple(perms)
        action = ZkAction(points, perms)
        direct = homology(to_koszul(action))
        oracle = orbit_oracle(action)
        if direct.groups != oracle.groups:
            out.failures.append(
                f"case {idx}: {points} points, k={k}: engine {direct.describe()} "
                f"vs orbits {oracle.describe()}"
            )
        if any(g.torsion for g in direct.groups):
            out.failures.append(f"case {idx}: torsion in a finite-action profile")
    return out


def point_net() -> NetResult:
    """The one-point action for k <= 5: H_n must be Z^C(k,n)."""
    out = NetResult("point-actions", 6)
    for k in range(6):
        action = ZkAction(1, tuple((0,) for _ in range(k)))
        profile = homology(to_koszul(action))
        expected = tuple(FgAbGroup.free(comb(k, n)) for n in range(k + 1))
        if profile.groups != expected:
            out.failures.append(f"k={k}: got {profile.describe()}")
    return out


# ---------------------------------------------------------------------------
# orchestration

def run_all(seed: int, cases: int | None = None) -> list[NetResult]:
    """Every net on its own stream of the seed, with its DEFAULT_CASES count
    unless cases gives one count for all. The nets are read by their
    module-level names on each call, so a wrapper put there is used."""
    nets = (snf_net, complex_net, single_vertex_net, kunneth_net, zk_net)
    return [
        net(random.Random(f"{seed}/{name}"),
            DEFAULT_CASES[name] if cases is None else cases)
        for name, net in zip(DEFAULT_CASES, nets)
    ] + [point_net()]


# ---------------------------------------------------------------------------
# performance workload

# acceptance criterion 10: homology time and worst per-reduction growth
TIME_BUDGET_S = 60.0
RATIO_BUDGET = 64


class PerfReport(namedtuple("PerfReport", "vertices k elapsed_s stats")):
    """Timing of the reference workload, with its EntryGrowthStats.

    Growth is judged per diagonal reduction: each reduction's peak is
    compared with the entries it was given, which is what the pivoting
    strategy actually controls.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.elapsed_s < TIME_BUDGET_S and self.stats.worst_ratio < RATIO_BUDGET

    def lines(self) -> list[str]:
        worst = self.stats.worst_reduction()
        if worst is None:
            growth = "perf: no reductions recorded"
        else:
            rows, cols, inp, peak = worst
            growth = (f"perf: worst reduction growth {self.stats.worst_ratio:.1f}x "
                      f"(budget {RATIO_BUDGET}x): {rows}x{cols} matrix, "
                      f"input {inp} bits, peak {peak} bits")
        return [
            f"perf: rank-{self.k} skeleton on {self.vertices} vertices",
            f"perf: homology in {self.elapsed_s:.2f} s (budget {TIME_BUDGET_S:.0f} s)",
            f"perf: peak entry bits {self.stats.peak_bits}",
            growth,
            f"perf: {'PASS' if self.ok else 'FAIL'}",
        ]


def perf_skeleton(seed: int, vertices: int = 100) -> KGraphSkeleton:
    """A deterministic rank-2 skeleton with single-digit entries.

    Both vertex matrices are integer polynomials in the same cyclic
    shift, each with four distinct exponents, so they commute, every row
    has positive entries, and every entry is one of the chosen
    coefficients (at most 9).
    """
    rng = random.Random(f"{seed}/perf")
    mats = [_shift_poly(vertices, [(e, rng.randint(1, 9))
                                   for e in rng.sample(range(vertices), 4)])
            for _ in range(2)]
    return KGraphSkeleton(tuple(f"v{i}" for i in range(vertices)), tuple(mats))


def perf_workload(seed: int) -> PerfReport:
    """Time the reference homology computation and record entry growth."""
    sk = perf_skeleton(seed)
    start = time.perf_counter()
    with track_entry_growth() as stats:
        groupoid_homology(sk)
    elapsed = time.perf_counter() - start
    return PerfReport(len(sk.vertices), sk.k, elapsed, stats)
