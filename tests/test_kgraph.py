import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupoid_homology import checks, exact_linalg, kgraph
from groupoid_homology.abelian import TRIVIAL, FgAbGroup, Z, direct_sum
from groupoid_homology.errors import (
    HypothesisViolated,
    RankUnsupported,
    SkeletonInvalid,
)
from groupoid_homology.exact_linalg import IntMatrix, cokernel, kernel_basis
from groupoid_homology.kgraph import (
    KGraphSkeleton,
    cubical_homology_rank1,
    groupoid_homology,
    hk_report,
    ktheory,
    kunneth,
    product,
    single_vertex_closed_form,
    validate,
)

TWO_VERTEX = KGraphSkeleton(("v", "w"), (IntMatrix.from_rows([[5, 2], [2, 3]]),))
O2 = KGraphSkeleton(("v",), (IntMatrix(1, 1, [2]),))
RANK2_35 = KGraphSkeleton(("v",), (IntMatrix(1, 1, [3]), IntMatrix(1, 1, [5])))


# --- validation -------------------------------------------------------------

def test_valid_skeleton_has_no_findings():
    assert validate(TWO_VERTEX) == []
    assert validate(RANK2_35) == []


def test_negative_entry_is_a_finding():
    sk = KGraphSkeleton(("v",), (IntMatrix(1, 1, [-2]),))
    findings = validate(sk)
    assert len(findings) == 1 and "negative" in findings[0]


def test_noncommuting_pair_is_a_finding():
    a = IntMatrix.from_rows([[1, 1], [0, 1]])
    b = IntMatrix.from_rows([[1, 0], [1, 1]])
    sk = KGraphSkeleton(("v", "w"), (a, b))
    findings = validate(sk)
    assert any("commute" in f for f in findings)


def test_zero_row_is_a_source_finding_unless_allowed():
    m = IntMatrix.from_rows([[0, 0], [1, 1]])
    sk = KGraphSkeleton(("v", "w"), (m,))
    assert any("source" in f for f in validate(sk))
    relaxed = KGraphSkeleton(("v", "w"), (m,), allow_sources=True)
    assert validate(relaxed) == []


def test_findings_keep_their_text_and_order():
    sk = KGraphSkeleton(("a", "b", "c"), (
        IntMatrix.from_rows([[0, -1, 0], [0, 0, 0], [2, 0, -3]]),
        IntMatrix.from_rows([[-4, 0, 0], [0, 0, 0], [0, 5, 0]]),
    ))
    assert validate(sk) == [
        "matrices[0] entry (0,1) is negative: -1",
        "matrices[0] entry (2,2) is negative: -3",
        "matrices[1] entry (0,0) is negative: -4",
        "matrices[0] and matrices[1] do not commute: products differ at (0,1)",
        "matrices[0] row 1 is zero: vertex 'b' is a source in coordinate 0",
        "matrices[1] row 1 is zero: vertex 'b' is a source in coordinate 1",
    ]


def test_commutation_findings_name_the_first_differing_entry_of_the_products():
    # validate multiplies sparse rows; the witness is the first (v, w) in
    # row-major order where the dense products M_i M_j and M_j M_i differ
    rng = random.Random("commutation-witness")
    witnessed = 0
    for _ in range(150):
        n, k = rng.randint(1, 4), rng.randint(2, 3)
        mats = [IntMatrix(n, n, [rng.choice((0, 0, 1, 2)) for _ in range(n * n)])
                for _ in range(k)]
        expected = []
        for i in range(k):
            for j in range(i + 1, k):
                p, q = (mats[i] @ mats[j]).to_rows(), (mats[j] @ mats[i]).to_rows()
                at = [(v, w) for v in range(n) for w in range(n) if p[v][w] != q[v][w]]
                if at:
                    expected.append(f"matrices[{i}] and matrices[{j}] do not commute: "
                                    f"products differ at ({at[0][0]},{at[0][1]})")
        sk = KGraphSkeleton(tuple(f"v{v}" for v in range(n)), mats, allow_sources=True)
        assert validate(sk) == expected
        witnessed += bool(expected)
    assert witnessed > 50


def test_homology_refuses_invalid_skeletons():
    sk = KGraphSkeleton(("v",), (IntMatrix(1, 1, [-1]),))
    with pytest.raises(SkeletonInvalid):
        groupoid_homology(sk)


# --- groupoid homology ------------------------------------------------------

def test_two_vertex_graph_homology():
    prof = groupoid_homology(TWO_VERTEX)
    assert prof.groups == (FgAbGroup.from_orders(0, [2, 2]), TRIVIAL)


def test_two_edge_single_vertex_graph_is_acyclic():
    prof = groupoid_homology(O2)
    assert prof.groups == (TRIVIAL, TRIVIAL)


def test_rank2_single_vertex_homology():
    prof = groupoid_homology(RANK2_35)
    assert [g.describe() for g in prof.groups] == ["Z_2", "Z_2", "0"]


@given(st.permutations(range(3)))
def test_homology_invariant_under_vertex_relabeling(perm):
    rows = [[1, 2, 0], [0, 1, 2], [2, 0, 1]]
    sk = KGraphSkeleton(("a", "b", "c"), (IntMatrix.from_rows(rows),))
    relabeled_rows = [[rows[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
    sk2 = KGraphSkeleton(("a", "b", "c"), (IntMatrix.from_rows(relabeled_rows),))
    assert groupoid_homology(sk).groups == groupoid_homology(sk2).groups


def _disjoint_union(parts):
    """One skeleton whose vertex matrices are the parts' direct sums."""
    n = sum(len(p.vertices) for p in parts)
    vertices, mats, start = [], [[[0] * n for _ in range(n)] for _ in parts[0].matrices], 0
    for idx, p in enumerate(parts):
        vertices += [f"{idx}.{v}" for v in p.vertices]
        for grid, m in zip(mats, p.matrices):
            for i, row in enumerate(m.to_rows()):
                grid[start + i][start:start + len(row)] = row
        start += len(p.vertices)
    return KGraphSkeleton(tuple(vertices), tuple(IntMatrix.from_rows(g) for g in mats))


def test_homology_of_a_disjoint_union_is_the_direct_sum():
    rng = random.Random(3)
    tested = 0
    while tested < 40:
        parts = [checks._random_skeleton(rng) for _ in range(rng.randint(2, 3))]
        if len({p.k for p in parts}) != 1:
            continue
        expected = groupoid_homology(parts[0]).groups
        for p in parts[1:]:
            expected = tuple(map(direct_sum, expected, groupoid_homology(p).groups))
        assert groupoid_homology(_disjoint_union(parts)).groups == expected
        tested += 1


# --- K-theory ---------------------------------------------------------------

def test_rank1_ktheory_matches_adjacency_cokernel():
    kt = ktheory(TWO_VERTEX)
    m = TWO_VERTEX.matrices[0]
    target = cokernel(IntMatrix.identity(2) - m.transpose())
    assert kt.k0 == target
    assert kt.k1 == FgAbGroup.free(
        kernel_basis(IntMatrix.identity(2) - m.transpose()).cols
    )
    assert kt.method == "rank1" and kt.hk_status == "verified-structurally"


def test_rank2_ktheory_is_wired_from_the_profile():
    kt = ktheory(RANK2_35)
    prof = groupoid_homology(RANK2_35)
    assert kt.k0 == prof.even_sum()
    assert kt.k1 == prof.odd_sum()
    assert kt.method == "rank2" and kt.hk_status == "verified-structurally"


def test_rank3_needs_opt_in():
    sk = KGraphSkeleton(("v",), tuple(IntMatrix(1, 1, [3]) for _ in range(3)))
    with pytest.raises(RankUnsupported):
        ktheory(sk)
    kt = ktheory(sk, allow_conjectural=True)
    assert kt.method == "conjectural-k>=3" and kt.hk_status == "conjectural"
    assert kt.k0 == FgAbGroup.from_orders(0, [2, 2])
    assert kt.k1 == FgAbGroup.from_orders(0, [2, 2])


def test_rank3_gate_fires_before_any_reduction(monkeypatch):
    def no_reductions(*args, **kwargs):
        raise AssertionError("the rank gate must come before any reduction")

    monkeypatch.setattr(exact_linalg, "_smithify", no_reductions)
    # cokernel eliminates the 1x1 [3] boundaries without _smithify
    monkeypatch.setattr(exact_linalg, "_eliminate", no_reductions)
    sk = KGraphSkeleton(("v",), tuple(IntMatrix(1, 1, [3]) for _ in range(3)))
    with pytest.raises(RankUnsupported):
        ktheory(sk)
    # findings still take precedence over the gate
    bad = KGraphSkeleton(("v",), tuple(IntMatrix(1, 1, [-1]) for _ in range(3)))
    with pytest.raises(SkeletonInvalid):
        ktheory(bad)


def test_ktheory_validates_once(monkeypatch):
    calls = []

    def counting_validate(s):
        calls.append(s)
        return validate(s)

    monkeypatch.setattr(kgraph, "validate", counting_validate)
    for sk in (TWO_VERTEX, RANK2_35):
        calls.clear()
        ktheory(sk)
        assert len(calls) == 1


# --- single-vertex closed form ----------------------------------------------

def test_closed_form_small_cases():
    assert [g.describe() for g in single_vertex_closed_form([3, 5]).groups] == \
        ["Z_2", "Z_2", "0"]
    # gcd(1, 2, 3) = 1 forces every group to vanish
    assert all(g.is_trivial for g in single_vertex_closed_form([2, 3, 4]).groups)
    prof = single_vertex_closed_form([3, 3, 3])
    assert [g.describe() for g in prof.groups] == ["Z_2", "Z_2 (+) Z_2", "Z_2", "0"]


def test_closed_form_refuses_non_integral_edge_counts():
    with pytest.raises(TypeError):
        single_vertex_closed_form([2.9, 3])
    with pytest.raises(TypeError):
        single_vertex_closed_form([3, 3.0])


def test_closed_form_rejects_small_edge_counts():
    with pytest.raises(HypothesisViolated):
        single_vertex_closed_form([])
    with pytest.raises(HypothesisViolated):
        single_vertex_closed_form([3, 1])


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=3))
def test_closed_form_agrees_with_engine(counts):
    closed = single_vertex_closed_form(counts)
    sk = KGraphSkeleton(("v",), tuple(IntMatrix(1, 1, [n]) for n in counts))
    assert closed.groups == groupoid_homology(sk).groups


# --- products and the composition formula ------------------------------------

def test_product_shape_and_labels():
    p = product(TWO_VERTEX, RANK2_35)
    assert p.k == 3
    assert p.vertices == ("(v,v)", "(w,v)")
    assert all(m.shape == (2, 2) for m in p.matrices)
    # first factor matrices act on the first coordinate only
    assert p.matrices[0] == TWO_VERTEX.matrices[0].kron(IntMatrix.identity(1))


def test_product_carries_source_tolerance():
    m = IntMatrix.from_rows([[0, 0], [1, 1]])
    relaxed = KGraphSkeleton(("v", "w"), (m,), allow_sources=True)
    assert product(relaxed, O2).allow_sources
    assert not product(TWO_VERTEX, O2).allow_sources


def test_product_homology_matches_composition():
    direct = groupoid_homology(product(TWO_VERTEX, RANK2_35))
    composed = kunneth(groupoid_homology(TWO_VERTEX), groupoid_homology(RANK2_35))
    assert direct.groups == composed.groups
    assert [g.describe() for g in composed.groups] == [
        "Z_2 (+) Z_2",
        "Z_2 (+) Z_2 (+) Z_2 (+) Z_2",
        "Z_2 (+) Z_2",
        "0",
    ]


def test_composition_of_free_profiles_by_hand():
    circle = groupoid_homology(KGraphSkeleton(("v",), (IntMatrix(1, 1, [1]),)))
    assert [g.describe() for g in circle.groups] == ["Z", "Z"]
    torus = kunneth(circle, circle)
    assert [g.describe() for g in torus.groups] == ["Z", "Z^2", "Z"]


# --- rank-1 cube-complex homology ---------------------------------------------

def test_cubical_two_vertex_graph():
    prof = cubical_homology_rank1(TWO_VERTEX)
    assert prof.groups == (Z, FgAbGroup.free(11))


def test_cubical_counts_loops_as_circles():
    prof = cubical_homology_rank1(O2)
    assert prof.groups == (Z, FgAbGroup.free(2))


def test_cubical_cost_does_not_grow_with_edge_multiplicity():
    sk = KGraphSkeleton(("v", "w"), (IntMatrix.from_rows([[1, 20000], [3, 2]]),))
    start = time.perf_counter()
    prof = cubical_homology_rank1(sk)
    assert time.perf_counter() - start < 0.5
    assert prof.groups == (Z, FgAbGroup.free(20005))
    assert prof.notes == ("underlying directed graph: 2 vertices, 20006 edges",)


def test_cubical_with_loops_parallel_edges_and_both_directions():
    # M[v][w] counts edges w -> v: a loop pair at a, three edges b -> a,
    # one a -> b, a loop at c and two edges c -> d. Components {a, b} and
    # {c, d}; the incidence has rank 2, so H_1 = Z^(9 - 2).
    m = IntMatrix.from_rows([[2, 3, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 2, 0]])
    prof = cubical_homology_rank1(KGraphSkeleton(("a", "b", "c", "d"), (m,)))
    assert prof.groups == (FgAbGroup.free(2), FgAbGroup.free(7))
    assert prof.notes == ("underlying directed graph: 4 vertices, 9 edges",)


def test_cubical_gate_for_higher_rank():
    with pytest.raises(RankUnsupported):
        cubical_homology_rank1(RANK2_35)


def test_cubical_refuses_only_negative_entries():
    # row 1 is zero (a source), which the underlying graph tolerates
    m = IntMatrix.from_rows([[0, -1, 0], [0, 0, 0], [-2, 1, 1]])
    with pytest.raises(SkeletonInvalid) as exc:
        cubical_homology_rank1(KGraphSkeleton(("a", "b", "c"), (m,)))
    assert exc.value.findings == [
        "matrices[0] entry (0,1) is negative: -1",
        "matrices[0] entry (2,0) is negative: -2",
    ]


def test_cubical_counts_components():
    two_loops = IntMatrix.from_rows([[1, 0], [0, 1]])
    prof = cubical_homology_rank1(KGraphSkeleton(("v", "w"), (two_loops,)))
    assert prof.groups == (FgAbGroup.free(2), FgAbGroup.free(2))


# --- combined report ----------------------------------------------------------

def test_report_includes_comparison_lines():
    rep = hk_report(RANK2_35)
    assert rep.ktheory.method == "rank2"
    assert any("agree" in line for line in rep.notes)
    assert rep.cubical is None


def test_report_notes_are_pinned():
    # the K-vs-H lines render K_0 and K_1 against the equal homology sums
    assert hk_report(RANK2_35).notes == (
        "rank-2 vertex-matrix complex on 1 vertices",
        "K_0 = Z_2 vs (+) H_even = Z_2: agree",
        "K_1 = Z_2 vs (+) H_odd = Z_2: agree",
    )
    assert hk_report(TWO_VERTEX).notes == (
        "rank-1 vertex-matrix complex on 2 vertices",
        "K_0 = Z_2 (+) Z_2 vs (+) H_even = Z_2 (+) Z_2: agree",
        "K_1 = 0 vs (+) H_odd = 0: agree",
        "H_0: underlying graph Z vs groupoid Z_2 (+) Z_2",
        "H_1: underlying graph Z^11 vs groupoid 0",
    )


def test_rank1_report_includes_graph_homology():
    rep = hk_report(TWO_VERTEX)
    assert rep.cubical is not None
    assert any("underlying graph" in line for line in rep.notes)


def test_rank3_report_is_labeled_conjectural():
    sk = KGraphSkeleton(("v",), tuple(IntMatrix(1, 1, [3]) for _ in range(3)))
    rep = hk_report(sk)
    assert rep.ktheory.hk_status == "conjectural"
    assert any("conjectural" in line for line in rep.notes)
