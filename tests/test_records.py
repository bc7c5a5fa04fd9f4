"""Semantics of the package's record types, pinned independently of how
the records are implemented: value equality and hashing, immutability of
the frozen records, defaults, constructor normalisation, constructor
errors (type and text), and fresh lists in the mutable records."""

import pytest

from groupoid_homology.abelian import Z, FgAbGroup, HomologyProfile
from groupoid_homology.checks import RATIO_BUDGET, TIME_BUDGET_S, NetResult, PerfReport
from groupoid_homology.dr_finite import ZkAction
from groupoid_homology.errors import DimensionMismatch, NonCommuting, SkeletonInvalid
from groupoid_homology.exact_linalg import EntryGrowthStats, IntMatrix, SnfResult, snf
from groupoid_homology.kgraph import (
    HkReport,
    KGraphSkeleton,
    KTheoryResult,
    hk_report,
    ktheory,
    single_vertex_closed_form,
    single_vertex_skeleton,
)
from groupoid_homology.koszul import KoszulComplex, build, verify_shift_identity

ONE = IntMatrix.from_rows([[2]])
TWO = IntMatrix.from_rows([[1, 1], [0, 1]])
THREE = IntMatrix.from_rows([[3]])
FIVE = IntMatrix.from_rows([[5]])


def _frozen_examples():
    """(record, a second record built from equal fields, a record that differs)."""
    prof = HomologyProfile((Z, Z), 1)
    sk = KGraphSkeleton(("v",), (IntMatrix.from_rows([[3]]),))
    return [
        (FgAbGroup(2, (3,)), FgAbGroup(2, [3]), FgAbGroup(2, (6,))),
        (prof, HomologyProfile([Z, Z], 1, []), HomologyProfile((Z, Z), 1, ("n",))),
        (ZkAction(2, ((1, 0),)), ZkAction(2, [[1, 0]]), ZkAction(2, ((0, 1),))),
        (sk, KGraphSkeleton(["v"], [IntMatrix.from_rows([[3]])]),
         KGraphSkeleton(("v",), sk.matrices, allow_sources=True)),
        (KTheoryResult(Z, Z, "rank1"), KTheoryResult(Z, Z, "rank1"),
         KTheoryResult(Z, Z, "rank2")),
        (hk_report(sk), hk_report(KGraphSkeleton(("v",), sk.matrices)),
         HkReport(prof, ktheory(sk), None, ())),
        (build(1, [ONE]), build(1, [IntMatrix.from_rows([[2]])]), build(1, [TWO])),
        (snf(TWO), SnfResult((1, 1), snf(TWO).u, snf(TWO).v, 2),
         SnfResult((1, 1), snf(TWO).u, snf(TWO).v, 1)),
    ]


@pytest.mark.parametrize("a, b, other", _frozen_examples(),
                         ids=lambda r: type(r).__name__)
def test_frozen_records_compare_and_hash_by_value(a, b, other):
    assert type(a) is type(b) is type(other)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("rec", [a for a, _, _ in _frozen_examples()],
                         ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(rec):
    field = {"FgAbGroup": "free_rank", "HomologyProfile": "k", "ZkAction": "points",
             "KGraphSkeleton": "allow_sources", "KTheoryResult": "method",
             "HkReport": "notes", "KoszulComplex": "m", "SnfResult": "rank"}
    name = field[type(rec).__name__]
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, before)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert getattr(rec, name) == before


def test_fields_and_defaults():
    assert FgAbGroup(3).torsion == ()
    assert FgAbGroup(free_rank=1, torsion=(2, 4)).torsion == (2, 4)
    assert HomologyProfile((Z,), 0).notes == ()
    sk = KGraphSkeleton(("v",), (ONE,))
    assert sk.allow_sources is False
    assert sk.k == 1
    kt = KTheoryResult(k0=Z, k1=FgAbGroup(0), method="conjectural-k>=3")
    assert (kt.k0, kt.k1, kt.method, kt.hk_status) == (Z, FgAbGroup(0), "conjectural-k>=3",
                                                        "conjectural")
    assert KTheoryResult(Z, Z, "rank2").hk_status == "verified-structurally"
    c = KoszulComplex(k=1, m=1, endos=(ONE,))
    assert (c.k, c.m, c.endos) == (1, 1, (ONE,))
    assert KoszulComplex._fields == ("k", "m", "endos")
    assert c.boundary(1) == IntMatrix.from_rows([[-1]])
    r = SnfResult(d=(1,), u=ONE, v=ONE, rank=1)
    assert (r.d, r.u, r.v, r.rank) == ((1,), ONE, ONE, 1)
    rep = HkReport(profile=HomologyProfile((Z, Z), 1), ktheory=kt, cubical=None,
                   notes=("x",))
    assert (rep.cubical, rep.notes) == (None, ("x",))
    assert ZkAction(points=3, perms=((1, 2, 0),)).k == 1


def test_reprs():
    assert repr(FgAbGroup(1, (2,))) == "FgAbGroup(1, (2,))"
    assert repr(HomologyProfile((Z,), 0)) == (
        "HomologyProfile(groups=(FgAbGroup(1, ()),), k=0, notes=())")
    assert repr(KTheoryResult(Z, Z, "rank1")) == (
        "KTheoryResult(k0=FgAbGroup(1, ()), k1=FgAbGroup(1, ()), method='rank1')")


def test_constructors_normalise():
    g = FgAbGroup(True + 1, [2, 4])
    assert g.torsion == (2, 4) and type(g.torsion) is tuple
    p = HomologyProfile([Z], 0, ["a"])
    assert p.groups == (Z,) and p.notes == ("a",)
    a = ZkAction(3, [[1, 2, 0]])
    assert a.points == 3 and a.perms == ((1, 2, 0),)
    # a numeric string is refused, as IntMatrix refuses it
    with pytest.raises(TypeError):
        ZkAction("3", [[1, 2, 0]])
    sk = KGraphSkeleton([0, 1], [TWO], allow_sources=1)
    assert sk.vertices == ("0", "1") and sk.matrices == (TWO,)
    assert sk.allow_sources is True
    # notes given as a list are kept as a tuple, so the report hashes
    rep = HkReport(HomologyProfile((Z, Z), 1), KTheoryResult(Z, Z, "rank1"), None, ["a"])
    assert rep.notes == ("a",) and hash(rep) == hash(rep._replace(notes=("a",)))
    # m defaults to the first endomorphism's size, and endos become a tuple
    c = KoszulComplex(True + 1, None, [THREE, FIVE])
    assert (c.k, c.m, c.endos) == (2, 1, (THREE, FIVE))
    # negative indices count from the end by Python's rules, and a degree
    # outside the complex has rank 0 and no boundary
    assert (TWO[-1, -1], TWO[0, -1]) == (1, 1)
    assert c.dim(-1) == 0
    with pytest.raises(ValueError, match="degree -1 outside 0..3"):
        c.boundary(-1)


@pytest.mark.parametrize("make, exc, text", [
    (lambda: FgAbGroup(-1), ValueError, "free rank must be non-negative, got -1"),
    (lambda: FgAbGroup(0, (1,)), ValueError, "invariant factor must be >= 2, got 1"),
    (lambda: FgAbGroup(0, (4, 6)), ValueError, "torsion (4, 6) is not a divisibility chain"),
    (lambda: FgAbGroup(1.5), TypeError, "'float' object cannot be interpreted as an integer"),
    (lambda: FgAbGroup(0, (2.0,)), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: FgAbGroup(True), TypeError, "expected integers, got a bool"),
    (lambda: HomologyProfile((Z,), 1), ValueError, "profile for k=1 needs 2 groups, got 1"),
    # k is an exact int and every group an FgAbGroup, not a tuple equal to one
    pytest.param(lambda: HomologyProfile((Z, Z), 1.0), TypeError,
                 "'float' object cannot be interpreted as an integer",
                 id="HomologyProfile-float-k"),
    pytest.param(lambda: HomologyProfile((Z, Z), True), TypeError,
                 "expected integers, got a bool", id="HomologyProfile-bool-k"),
    pytest.param(lambda: HomologyProfile((Z, (1, ())), 1), TypeError,
                 "H_1 is a tuple, not an FgAbGroup", id="HomologyProfile-tuple-group"),
    # notes are a list or tuple of lines, never a string's characters
    pytest.param(lambda: HomologyProfile((Z,), 0, "closed form"), TypeError,
                 "notes is a str, not a list or tuple", id="HomologyProfile-str-notes"),
    # groups, like notes, are a list or tuple: a set would order H_p by hash
    *[pytest.param(lambda g=g: HomologyProfile(g(), 1), TypeError,
                   f"groups is a {kind}, not a list or tuple", id=f"HomologyProfile-{kind}-groups")
      for kind, g in [("set", lambda: {Z, FgAbGroup(0, (2,))}),
                      ("generator", lambda: (g for g in (Z, Z)))]],
    (lambda: ZkAction(-1, ()), DimensionMismatch, "negative point count -1"),
    (lambda: ZkAction(3, ((1, 0),)), DimensionMismatch,
     "permutation 0 has 2 images for 3 points"),
    (lambda: ZkAction(2, ((1, 0), (0, 2))), DimensionMismatch,
     "permutation 1 maps to 2, outside 0..1"),
    pytest.param(lambda: ZkAction(2, (("x", 0),)), TypeError,
                 "'str' object cannot be interpreted as an integer",
                 id="ZkAction-str-image"),
    # an image list is a list or tuple at any point count, never a dict's
    # keys, a set's members or a string's characters
    *[pytest.param(lambda p=p, images=images: ZkAction(p, (images,)), TypeError,
                   f"permutation 0 is a {type(images).__name__}, not a list or tuple",
                   id=f"ZkAction-{type(images).__name__}-images-{p}-points")
      for images, p in [({1: "x", 0: "y"}, 2), ({}, 0), ({1, 0}, 2), (set(), 0),
                        ("10", 2), ("", 0), (b"\x01\x00", 2), (b"", 0)]],
    # so is the list of image lists, and a generator is refused unread
    *[pytest.param(lambda p=p, perms=perms: ZkAction(p, perms()), TypeError,
                   f"perms is a {kind}, not a list or tuple", id=f"ZkAction-{kind}-perms")
      for kind, perms, p in [("dict", lambda: {(1, 0): "x"}, 2), ("set", lambda: {(1, 0)}, 2),
                             ("str", lambda: "", 0), ("bytes", lambda: b"", 0),
                             ("generator", lambda: ((1, 0) for _ in range(1)), 2)]],
    (lambda: KGraphSkeleton((), (ONE,)), DimensionMismatch,
     "a skeleton needs at least one vertex"),
    (lambda: KGraphSkeleton(("v",), ()), DimensionMismatch,
     "a skeleton needs at least one vertex matrix"),
    (lambda: KGraphSkeleton(("v", "w"), (TWO, ONE)), DimensionMismatch,
     "matrices[1] has shape (1, 1), expected (2, 2)"),
    pytest.param(lambda: KGraphSkeleton(["a"], [[[2]]]), TypeError,
                 "matrices[0] is a list, not an IntMatrix", id="KGraphSkeleton-list-matrix"),
    # vertices and matrices are a list or tuple, never a string's characters,
    # a set in hash order or a generator
    *[pytest.param(lambda v=v: KGraphSkeleton(v(), (ONE,)), TypeError,
                   f"vertices is a {kind}, not a list or tuple", id=f"KGraphSkeleton-{kind}-vertices")
      for kind, v in [("str", lambda: "abc"), ("set", lambda: {"v"}),
                      ("generator", lambda: (c for c in "v"))]],
    *[pytest.param(lambda m=m: KGraphSkeleton(("v",), m()), TypeError,
                   f"matrices is a {kind}, not a list or tuple", id=f"KGraphSkeleton-{kind}-matrices")
      for kind, m in [("set", lambda: {ONE}), ("generator", lambda: (x for x in (ONE,)))]],
    # labels are compared after str(), so 0 and "0" collide
    pytest.param(lambda: KGraphSkeleton((0, "0"), (TWO,)), SkeletonInvalid,
                 "vertices[1]: duplicate label '0'", id="KGraphSkeleton-duplicate-label"),
    # a label that no UTF-8 output can hold is refused where it is made
    pytest.param(lambda: KGraphSkeleton(("\ud800",), (ONE,)), SkeletonInvalid,
                 "vertices[0]: label '\\ud800' cannot be written as UTF-8",
                 id="KGraphSkeleton-surrogate-label"),
    # a bool shape is refused, not read as 1; explicit ids keep the
    # FgAbGroup case's id above free of a numeric suffix
    pytest.param(lambda: IntMatrix(2, True, [1, 2]), TypeError,
                 "expected integers, got a bool", id="IntMatrix-bool-cols"),
    pytest.param(lambda: IntMatrix(True, 2, [1, 2]), TypeError,
                 "expected integers, got a bool", id="IntMatrix-bool-rows"),
    pytest.param(lambda: IntMatrix.zeros(True, 2), TypeError,
                 "expected integers, got a bool", id="zeros-bool-rows"),
    pytest.param(lambda: IntMatrix.zeros(2, True), TypeError,
                 "expected integers, got a bool", id="zeros-bool-cols"),
    pytest.param(lambda: IntMatrix.identity(True), TypeError,
                 "expected integers, got a bool", id="identity-bool"),
    # the factories keep the constructor's shape rule
    pytest.param(lambda: IntMatrix.identity(-1), DimensionMismatch,
                 "bad shape (-1, -1)", id="identity-negative"),
    pytest.param(lambda: IntMatrix.zeros(-2, 3), DimensionMismatch,
                 "bad shape (-2, 3)", id="zeros-negative-rows"),
    pytest.param(lambda: IntMatrix.zeros(2, -3), DimensionMismatch,
                 "bad shape (2, -3)", id="zeros-negative-cols"),
    # entries, rows and edge counts are a list or tuple too: a set would be
    # read in hash order ([[3, 5]] from {5, 3}) or collapse a repeated count
    *[pytest.param(lambda e=e: IntMatrix(1, 2, e()), TypeError,
                   f"entries is a {kind}, not a list or tuple", id=f"IntMatrix-{kind}-entries")
      for kind, e in [("set", lambda: {5, 3}), ("str", lambda: "53"),
                      ("generator", lambda: (x for x in (5, 3)))]],
    pytest.param(lambda: IntMatrix.from_rows([[1, 2], {5, 3}]), TypeError,
                 "row 1 is a set, not a list or tuple", id="from_rows-set-row"),
    *[pytest.param(lambda r=r: IntMatrix.from_rows(r()), TypeError,
                   f"rows is a {kind}, not a list or tuple", id=f"from_rows-{kind}-rows")
      for kind, r in [("set", lambda: {(5, 3)}), ("generator", lambda: (r for r in [[5, 3]]))]],
    # so are a complex's endomorphisms and the cycles checked on it
    *[pytest.param(lambda e=e: build(2, e()), TypeError,
                   f"endos is a {kind}, not a list or tuple", id=f"build-{kind}-endos")
      for kind, e in [("set", lambda: {ONE, THREE}), ("generator", lambda: (x for x in (ONE, ONE)))]],
    pytest.param(lambda: verify_shift_identity(build(1, [ONE]), 0, 0, (z for z in [[1]])),
                 TypeError, "cycles is a generator, not a list or tuple",
                 id="verify_shift_identity-generator-cycles"),
    # the endomorphism index is an exact int, as the degree is: True is not 1
    pytest.param(lambda: verify_shift_identity(build(2, [THREE, FIVE]), True, 1, [(2, -1)]),
                 TypeError, "expected integers, got a bool", id="verify_shift_identity-bool-index"),
    # a complex holds its own rules: the record refuses what build refuses,
    # and a negative rank m
    pytest.param(lambda: KoszulComplex(0, -1, ()), DimensionMismatch,
                 "negative module rank -1", id="KoszulComplex-negative-m"),
    pytest.param(lambda: build(0, [], m=-1), DimensionMismatch,
                 "negative module rank -1", id="build-negative-m"),
    pytest.param(lambda: KoszulComplex(2, 1, "ab"), TypeError,
                 "endos is a str, not a list or tuple", id="KoszulComplex-str-endos"),
    pytest.param(lambda: KoszulComplex(2, 1, (ONE, [[3]])), TypeError,
                 "endos[1] is a list, not an IntMatrix", id="KoszulComplex-list-endo"),
    pytest.param(lambda: KoszulComplex(2, 1, (ONE,)), DimensionMismatch,
                 "expected 2 endomorphisms, got 1", id="KoszulComplex-wrong-count"),
    pytest.param(lambda: KoszulComplex(1, 1, (IntMatrix.from_rows([[1, 2]]),)),
                 DimensionMismatch, "endomorphisms must all be square of one size; got (1, 2)",
                 id="KoszulComplex-non-square"),
    pytest.param(lambda: KoszulComplex(2, 1, (ONE, TWO)), DimensionMismatch,
                 "endomorphisms must all be square of one size; got (2, 2)",
                 id="KoszulComplex-mixed-sizes"),
    pytest.param(lambda: KoszulComplex(1, 2, (ONE,)), DimensionMismatch,
                 "m=2 disagrees with endomorphism size 1", id="KoszulComplex-m-disagrees"),
    pytest.param(lambda: KoszulComplex(0, None, ()), DimensionMismatch,
                 "a rank-0 complex needs an explicit rank m", id="KoszulComplex-rank0-no-m"),
    pytest.param(lambda: KoszulComplex(3, 2, (TWO, TWO, TWO.transpose())), NonCommuting,
                 "endomorphisms 0 and 2 do not commute", id="KoszulComplex-non-commuting"),
    # indices are exact ints: True is not 1
    pytest.param(lambda: TWO[True, 0], TypeError, "expected integers, got a bool",
                 id="IntMatrix-bool-row-index"),
    pytest.param(lambda: TWO[0, True], TypeError, "expected integers, got a bool",
                 id="IntMatrix-bool-col-index"),
    pytest.param(lambda: build(1, [ONE]).dim(True), TypeError, "expected integers, got a bool",
                 id="KoszulComplex-bool-dim"),
    pytest.param(lambda: build(1, [ONE]).boundary(True), TypeError,
                 "expected integers, got a bool", id="KoszulComplex-bool-boundary"),
    # the K-theory record and the report check their fields like every record
    pytest.param(lambda: KTheoryResult("x", Z, "rank1"), TypeError,
                 "k0 is a str, not an FgAbGroup", id="KTheoryResult-str-k0"),
    pytest.param(lambda: KTheoryResult(Z, (1, ()), "rank1"), TypeError,
                 "k1 is a tuple, not an FgAbGroup", id="KTheoryResult-tuple-k1"),
    pytest.param(lambda: KTheoryResult(Z, Z, "nonsense"), ValueError,
                 "method 'nonsense' is not one of ('rank1', 'rank2', 'conjectural-k>=3')",
                 id="KTheoryResult-unknown-method"),
    pytest.param(lambda: HkReport((Z, Z), KTheoryResult(Z, Z, "rank1"), None, ()), TypeError,
                 "profile is a tuple, not a HomologyProfile", id="HkReport-tuple-profile"),
    pytest.param(lambda: HkReport(HomologyProfile((Z, Z), 1), (Z, Z, "rank1"), None, ()),
                 TypeError, "ktheory is a tuple, not a KTheoryResult", id="HkReport-tuple-ktheory"),
    pytest.param(lambda: HkReport(HomologyProfile((Z, Z), 1), KTheoryResult(Z, Z, "rank1"),
                                  (Z, Z), ()),
                 TypeError, "cubical is a tuple, not a HomologyProfile or None",
                 id="HkReport-tuple-cubical"),
    pytest.param(lambda: HkReport(HomologyProfile((Z, Z), 1), KTheoryResult(Z, Z, "rank1"),
                                  None, "ab"),
                 TypeError, "notes is a str, not a list or tuple", id="HkReport-str-notes"),
    *[pytest.param(lambda f=f: f({3, 3}), TypeError, "edge_counts is a set, not a list or tuple",
                   id=f"{f.__name__}-set-counts")
      for f in (single_vertex_closed_form, single_vertex_skeleton)],
    # so are a group's torsion and orders: {2, 2} would give Z_2 where [2, 2]
    # gives Z_2 (+) Z_2, a dict would pass its keys, and {8, 2} would be a
    # chain or not by hash order
    *[pytest.param(lambda t=t: FgAbGroup(0, t()), TypeError,
                   f"torsion is a {kind}, not a list or tuple", id=f"FgAbGroup-{kind}-torsion")
      for kind, t in [("set", lambda: {2, 6}), ("dict", lambda: {2: "a", 6: "b"}),
                      ("generator", lambda: (x for x in (2, 6)))]],
    *[pytest.param(lambda o=o: FgAbGroup.from_orders(0, o()), TypeError,
                   f"orders is a {kind}, not a list or tuple", id=f"from_orders-{kind}-orders")
      for kind, o in [("set", lambda: {2, 2}), ("dict", lambda: {3: "a", 2: "b"}),
                      ("str", lambda: "22"), ("generator", lambda: (x for x in (2, 2)))]],
])
def test_constructor_errors_keep_type_and_text(make, exc, text):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc
    assert str(info.value) == text


def test_entry_growth_stats_defaults_and_fresh_lists():
    a, b = EntryGrowthStats(), EntryGrowthStats()
    assert (a.peak_bits, a.reductions) == (0, [])
    assert a.worst_reduction() is None and a.worst_ratio == 0.0
    a.begin_reduction(2, 3, 255)
    assert a.reductions == [[2, 3, 8, 8]] and b.reductions == []
    a.peak_bits = 9
    assert a.peak_bits == 9
    c = EntryGrowthStats(peak_bits=5, reductions=[[1, 1, 2, 5]])
    assert (c.peak_bits, c.reductions) == (5, [[1, 1, 2, 5]])
    assert c.worst_reduction() == (1, 1, 2, 5) and c.worst_ratio == 2.5
    # a record with no input bits is skipped, and the first of equal ratios wins
    d = EntryGrowthStats(7, [[1, 1, 0, 7], [2, 2, 2, 4], [3, 3, 1, 2]])
    assert d.worst_reduction() == (2, 2, 2, 4) and d.worst_ratio == 2.0


def test_net_result_defaults_and_fresh_lists():
    a, b = NetResult("snf", 3), NetResult("snf", 3)
    assert (a.name, a.cases, a.failures, a.findings) == ("snf", 3, [], [])
    a.failures.append("x")
    a.findings.append("y")
    assert b.failures == [] and b.findings == []
    assert not a.passed and b.passed
    c = NetResult("kunneth", 2, findings=["f"])
    assert c.failures == [] and c.findings == ["f"]
    assert c.line() == "kunneth: 2 pairs, 0 failures, 1 findings"
    assert NetResult(name="zk-action", cases=1, failures=["z"]).line() == (
        "zk-action: 1 cases, 1 failures")


def test_perf_report_defaults():
    assert (TIME_BUDGET_S, RATIO_BUDGET) == (60.0, 64)
    r = PerfReport(4, 2, 0.5, EntryGrowthStats(9, [[2, 2, 3, 9]]))
    assert r.ok and r.lines() == [
        "perf: rank-2 skeleton on 4 vertices",
        "perf: homology in 0.50 s (budget 60 s)",
        "perf: peak entry bits 9",
        "perf: worst reduction growth 3.0x (budget 64x): 2x2 matrix, input 3 bits, peak 9 bits",
        "perf: PASS",
    ]
    r = r._replace(elapsed_s=61.0)
    assert not r.ok and r.lines()[4] == "perf: FAIL"
    assert r.lines()[1] == "perf: homology in 61.00 s (budget 60 s)"
    s = PerfReport(vertices=4, k=2, elapsed_s=0.5, stats=EntryGrowthStats(9))
    assert s.ok
    assert s.lines()[3] == "perf: no reductions recorded"
    assert not PerfReport(4, 2, 0.5, EntryGrowthStats(9, [[2, 2, 1, 64]])).ok
