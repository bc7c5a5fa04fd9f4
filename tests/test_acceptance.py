"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Verdict lines are written to the real stdout so they appear in plain
pytest runs; each test also fails loudly if its criterion does not hold
at the stated tolerance.
"""

import random
import sys
import time
from math import comb

from groupoid_homology.abelian import TRIVIAL, Z, FgAbGroup, direct_sum
from groupoid_homology.checks import (
    SNF_MAX_DIM,
    SNF_MAX_ENTRY,
    complex_net,
    kunneth_net,
    perf_workload,
    point_net,
    single_vertex_net,
    snf_net,
    zk_net,
)
from groupoid_homology.dr_finite import ZkAction, to_koszul
from groupoid_homology.exact_linalg import IntMatrix
from groupoid_homology.kgraph import (
    KGraphSkeleton,
    cubical_homology_rank1,
    groupoid_homology,
    ktheory,
    product,
    single_vertex_closed_form,
    validate,
)
from groupoid_homology.koszul import homology


def _say(text: str):
    print(text, file=sys.__stdout__)


def _verdict(label: str, ok: bool) -> bool:
    _say(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_two_vertex_graph_both_homologies_under_one_second():
    sk = KGraphSkeleton(("v", "w"), (IntMatrix.from_rows([[5, 2], [2, 3]]),))
    t0 = time.perf_counter()
    groupoid = groupoid_homology(sk)
    graph = cubical_homology_rank1(sk)
    elapsed = time.perf_counter() - t0
    ok = (
        groupoid.groups == (FgAbGroup.from_orders(0, [2, 2]), TRIVIAL)
        and graph.groups == (Z, FgAbGroup.free(11))
        and elapsed < 1.0
    )
    assert _verdict("01 two-vertex graph homologies in < 1 s", ok)


def test_criterion_02_two_edge_loop_graph_is_completely_trivial():
    sk = KGraphSkeleton(("v",), (IntMatrix(1, 1, [2]),))
    prof = groupoid_homology(sk)
    kt = ktheory(sk)
    ok = (
        all(g.is_trivial for g in prof.groups)
        and kt.k0.is_trivial
        and kt.k1.is_trivial
    )
    assert _verdict("02 one-vertex two-edge graph trivial throughout", ok)


def test_criterion_03_closed_form_matches_engine_on_200_random_cases():
    t0 = time.perf_counter()
    net = single_vertex_net(random.Random(0), cases=200)
    elapsed = time.perf_counter() - t0
    ok = net.failures == [] and elapsed < 30.0
    assert _verdict(
        f"03 closed form vs engine, 200 cases in {elapsed:.1f} s", ok
    ), net.failures[:3]


def test_criterion_04_product_homology_matches_composition_on_50_pairs():
    net = kunneth_net(random.Random(0), cases=50)
    ok = net.failures == [] and net.findings == []
    assert _verdict("04 product vs composed homology, 50 pairs", ok), (
        net.failures[:3] + net.findings[:3]
    )


def test_criterion_05_boundary_and_shift_identities_on_random_complexes():
    net = complex_net(random.Random(0), cases=60)
    ok = net.failures == []
    assert _verdict("05 boundary composition and shift identities", ok), (
        net.failures[:3]
    )


def test_criterion_06_euler_characteristic_vanishes_on_mixed_instances():
    profiles = [
        groupoid_homology(
            KGraphSkeleton(("v", "w"), (IntMatrix.from_rows([[5, 2], [2, 3]]),))
        ),
        groupoid_homology(KGraphSkeleton(("v",), (IntMatrix(1, 1, [1]),))),
        single_vertex_closed_form([3, 5]),
        single_vertex_closed_form([3, 3, 3]),
        groupoid_homology(
            product(
                KGraphSkeleton(("v",), (IntMatrix(1, 1, [3]), IntMatrix(1, 1, [5]))),
                KGraphSkeleton(("v", "w"), (IntMatrix.from_rows([[5, 2], [2, 3]]),)),
            )
        ),
        homology(to_koszul(ZkAction(3, ((1, 2, 0),)))),
        homology(to_koszul(ZkAction(4, ((1, 0, 3, 2), (0, 1, 2, 3))))),
        homology(to_koszul(ZkAction(1, ((0,), (0,), (0,))))),
    ]
    ok = all(p.euler_characteristic() == 0 for p in profiles)
    assert _verdict("06 euler characteristic zero on mixed instances", ok)


def test_criterion_07_action_homology_matches_orbit_oracle():
    net = zk_net(random.Random(0), cases=100)
    points = point_net()
    binomials_ok = True
    for k in range(1, 6):
        prof = homology(to_koszul(ZkAction(1, tuple((0,) for _ in range(k)))))
        ranks = [g.free_rank for g in prof.groups]
        if ranks != [comb(k, p) for p in range(k + 1)]:
            binomials_ok = False
    ok = net.failures == [] and points.failures == [] and binomials_ok
    assert _verdict("07 orbit oracle on 100 actions plus point actions", ok), (
        net.failures[:3] + points.failures[:3]
    )


def test_criterion_08_diagonalization_properties_on_500_random_matrices():
    assert (SNF_MAX_DIM, SNF_MAX_ENTRY) == (50, 100)
    net = snf_net(random.Random(0), cases=500)
    ok = net.failures == []
    assert _verdict("08 diagonalization property suite, 500 matrices", ok), (
        net.failures[:3]
    )


def test_criterion_09_rank2_ktheory_is_exactly_the_homology_rewiring():
    rng = random.Random(0)
    checked = 0
    ok = True
    while checked < 25:
        n = rng.randint(1, 3)
        base = IntMatrix.from_rows(
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        )
        mats = tuple(
            rng.randint(1, 3) * IntMatrix.identity(n) + rng.randint(0, 2) * base
            for _ in range(2)
        )
        sk = KGraphSkeleton(tuple(f"v{i}" for i in range(n)), mats)
        if validate(sk):
            continue
        prof = groupoid_homology(sk)
        kt = ktheory(sk)
        h0, h1, h2 = prof.groups
        if kt.k0 != direct_sum(h0, h2) or kt.k1 != h1 or kt.method != "rank2":
            ok = False
        checked += 1
    assert _verdict("09 rank-2 k-theory equals (H_0 + H_2, H_1), 25 cases", ok)


def test_criterion_10_reference_workload_time_and_entry_growth():
    report = perf_workload(0)
    for line in report.lines():
        _say(line)
    ok = report.ok and report.elapsed_s < 60.0 and report.stats.worst_ratio < 64
    assert _verdict("10 hundred-vertex rank-2 workload within budgets", ok)
