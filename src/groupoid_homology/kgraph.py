"""Higher-rank graph skeletons and their groupoid invariants.

A rank-k graph with finitely many vertices is presented by its skeleton:
k vertex matrices M_1 .. M_k, where M_i[v][w] counts the edges of color
i with range v and source w. The matrices must be non-negative, pairwise
commuting, and (unless sources are explicitly allowed) have no zero row.

The homology of the associated ample groupoid is the homology of the
chain complex built on the transposed matrices; K-theory of the reduced
groupoid C*-algebra is wired to that homology for ranks 1 and 2, and
only conjecturally beyond.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import comb

from .abelian import (FgAbGroup, HomologyProfile, _exact_ints, _list_or_tuple, direct_sum,
                      tensor, tor)
from .errors import (
    BrokenComplex,
    DimensionMismatch,
    HypothesisViolated,
    RankUnsupported,
    SkeletonInvalid,
)
from .exact_linalg import IntMatrix, cokernel
# perfbench/tracing.py wraps build and homology at this module by name
from .koszul import build, homology


class KGraphSkeleton(namedtuple("KGraphSkeleton", "vertices matrices allow_sources")):
    """Vertex labels plus k square vertex matrices of matching size.

    Construction checks that vertices and matrices are each a list or
    tuple, so no string is split into labels and no set is read in hash
    order, that every matrix is an IntMatrix, and shapes. It holds the
    label rules: as strings, labels can be written as UTF-8 (not
    "\\ud800") and are distinct, or SkeletonInvalid names the bad one.
    Non-negative entries, commutation and no zero rows are left to validate.
    """

    __slots__ = ()

    def __new__(cls, vertices, matrices, allow_sources: bool = False):
        vertices = tuple(str(v) for v in _list_or_tuple(vertices, "vertices"))
        matrices = tuple(_list_or_tuple(matrices, "matrices"))
        n = len(vertices)
        if n == 0:
            raise DimensionMismatch("a skeleton needs at least one vertex")
        first = {}
        for j, v in enumerate(vertices):
            try:
                v.encode()
            except UnicodeEncodeError:
                raise SkeletonInvalid(
                    [f"vertices[{j}]: label {v!r} cannot be written as UTF-8"]) from None
            if first.setdefault(v, j) != j:
                raise SkeletonInvalid([f"vertices[{j}]: duplicate label {v!r}"])
        if not matrices:
            raise DimensionMismatch("a skeleton needs at least one vertex matrix")
        for i, m in enumerate(matrices):
            if not isinstance(m, IntMatrix):
                raise TypeError(f"matrices[{i}] is a {type(m).__name__}, not an IntMatrix")
            if m.shape != (n, n):
                raise DimensionMismatch(
                    f"matrices[{i}] has shape {m.shape}, expected ({n}, {n})"
                )
        return super().__new__(cls, vertices, matrices, bool(allow_sources))

    @property
    def k(self) -> int:
        return len(self.matrices)


def validate(s: KGraphSkeleton) -> list[str]:
    """Semantic findings, one per violation.

    Checks, in order: negative entries, non-commuting pairs (with a
    witness position), and zero rows. A zero row in M_i means the vertex
    has no color-i edge with that range (a source); those findings are
    suppressed when the skeleton allows sources.
    """
    findings = _negative_findings(s)
    for i in range(s.k):
        for j in range(i + 1, s.k):
            p = s.matrices[i] @ s.matrices[j]
            q = s.matrices[j] @ s.matrices[i]
            if p != q:
                v, a, b = next((v, a, b) for v, (a, b) in enumerate(zip(p.data, q.data))
                               if a != b)
                w = min(w for w in a.keys() | b.keys() if a.get(w) != b.get(w))
                findings.append(
                    f"matrices[{i}] and matrices[{j}] do not commute: "
                    f"products differ at ({v},{w})"
                )
    if not s.allow_sources:
        findings += [
            f"matrices[{i}] row {v} is zero: vertex "
            f"{s.vertices[v]!r} is a source in coordinate {i}"
            for i, m in enumerate(s.matrices)
            for v in _zero_rows(m)
        ]
    return findings


def _negative_findings(s: KGraphSkeleton) -> list[str]:
    return [
        f"matrices[{i}] entry ({v},{w}) is negative: {x}"
        for i, m in enumerate(s.matrices)
        for v, row in enumerate(m.data)
        for w, x in sorted(row.items()) if x < 0
    ]


def _zero_rows(m: IntMatrix) -> list[int]:
    return [v for v, row in enumerate(m.data) if not row]


def _require_valid(s: KGraphSkeleton) -> None:
    findings = validate(s)
    if findings:
        raise SkeletonInvalid(findings)


def groupoid_homology(s: KGraphSkeleton) -> HomologyProfile:
    """Homology of the path groupoid of the skeleton.

    The degree-p chains are spanned by p-subsets of colors with a vertex
    attached, and the boundary uses id - M_i^t; the profile has entries
    H_0 .. H_k. Raises SkeletonInvalid if validate(s) reports anything.
    """
    _require_valid(s)
    return _homology_of_valid(s)


def _homology_of_valid(s: KGraphSkeleton) -> HomologyProfile:
    endos = [m.transpose() for m in s.matrices]
    notes = [f"rank-{s.k} vertex-matrix complex on {len(s.vertices)} vertices"]
    if s.allow_sources and any(_zero_rows(m) for m in s.matrices):
        notes.append(
            "warning: sources present (some vertex emits no edge in some "
            "coordinate); structural results assume none"
        )
    c = build(s.k, endos, m=len(s.vertices))
    return homology(c, notes)


class KTheoryResult(namedtuple("KTheoryResult", "k0 k1 method")):
    """K_0 and K_1 (FgAbGroup each) of the groupoid C*-algebra, with provenance.

    method records which wiring produced the answer, one of METHODS:
    "rank1" and "rank2" are backed by structural results;
    "conjectural-k>=3" extrapolates the even/odd homology pattern.
    hk_status is derived from method, so the two cannot disagree.
    """

    __slots__ = ()
    METHODS = ("rank1", "rank2", "conjectural-k>=3")

    def __new__(cls, k0, k1, method):
        for name, g in (("k0", k0), ("k1", k1)):
            if not isinstance(g, FgAbGroup):
                raise TypeError(f"{name} is a {type(g).__name__}, not an FgAbGroup")
        if method not in cls.METHODS:
            raise ValueError(f"method {method!r} is not one of {cls.METHODS}")
        return super().__new__(cls, k0, k1, method)

    @property
    def hk_status(self) -> str:
        """conjectural for the conjectural-k>=3 method, else verified-structurally."""
        if self.method == "conjectural-k>=3":
            return "conjectural"
        return "verified-structurally"


def ktheory_from_profile(profile: HomologyProfile) -> KTheoryResult:
    """Wire a homology profile into K-theory: K_0 is the sum of the even
    homology groups and K_1 the sum of the odd ones.

    k = 1: (K_0, K_1) = (H_0, H_1). k = 2: K_0 = H_0 (+) H_2 and
    K_1 = H_1 (both splittings are unconditional). For k >= 3 the same
    even/odd pattern is only a conjecture, so it is marked as such; ktheory
    computes it only on request.
    """
    method = {1: "rank1", 2: "rank2"}.get(profile.k, "conjectural-k>=3")
    return KTheoryResult(profile.even_sum(), profile.odd_sum(), method)


def ktheory(s: KGraphSkeleton, allow_conjectural: bool = False) -> KTheoryResult:
    """K-theory of the skeleton's groupoid C*-algebra.

    The skeleton is validated once, then higher ranks are gated behind
    allow_conjectural before any reduction runs, so findings take
    precedence over the gate. The answer is ktheory_from_profile of the
    homology profile; for rank 1 that is K_0 = coker(id - M_1^t) and
    K_1 = ker(id - M_1^t).
    """
    _require_valid(s)
    if s.k >= 3 and not allow_conjectural:
        raise RankUnsupported(
            f"K-theory wiring is established for k = 1 and k = 2 only; "
            f"k = {s.k} requires allow_conjectural"
        )
    return ktheory_from_profile(_homology_of_valid(s))


def single_vertex_closed_form(edge_counts) -> HomologyProfile:
    """Closed-form homology of a one-vertex skeleton.

    With edge counts n_1 .. n_k, all at least 2, every homology group is
    elementary: H_p = (Z_g)^C(k-1, p) where g = gcd of the n_i - 1
    (a gcd with any zero argument is the gcd of the rest). Counts below
    2 fall outside the hypotheses and raise HypothesisViolated.
    """
    counts = _exact_ints(_list_or_tuple(edge_counts, "edge_counts"))
    if not counts:
        raise HypothesisViolated("need at least one edge count")
    for n in counts:
        if n < 2:
            raise HypothesisViolated(
                f"closed form requires every edge count >= 2, got {n}"
            )
    k = len(counts)
    g = math.gcd(*(n - 1 for n in counts))
    groups = tuple(
        FgAbGroup.from_orders(0, [g] * comb(k - 1, p)) for p in range(k + 1)
    )
    return HomologyProfile(
        groups,
        k,
        (f"closed form: H_p = (Z_{g})^C({k - 1},p), g = gcd of edge counts - 1",),
    )


def single_vertex_skeleton(edge_counts) -> KGraphSkeleton:
    """The one-vertex skeleton that single_vertex_closed_form describes."""
    counts = _list_or_tuple(edge_counts, "edge_counts")
    return KGraphSkeleton(("v",), tuple(IntMatrix(1, 1, [n]) for n in counts))


def product(a: KGraphSkeleton, b: KGraphSkeleton) -> KGraphSkeleton:
    """Cartesian product skeleton on the product vertex set.

    Colors of a come first and act as M_i (x) id; colors of b follow as
    id (x) M_j. Vertex (u, v) gets index u * |V_b| + v, matching the
    Kronecker block layout.
    """
    ia = IntMatrix.identity(len(a.vertices))
    ib = IntMatrix.identity(len(b.vertices))
    vertices = tuple(
        f"({u},{v})" for u in a.vertices for v in b.vertices
    )
    matrices = tuple(m.kron(ib) for m in a.matrices) + tuple(
        ia.kron(m) for m in b.matrices
    )
    return KGraphSkeleton(
        vertices, matrices, allow_sources=a.allow_sources or b.allow_sources
    )


def kunneth(pa: HomologyProfile, pb: HomologyProfile) -> HomologyProfile:
    """Compose two homology profiles into the profile of a product.

    groups[n] collects tensor(pa[i], pb[j]) over i + j = n plus
    tor(pa[i], pb[j]) over i + j = n - 1. For finitely generated groups
    the underlying exact sequence splits, so this is an equality of
    isomorphism classes, not just a constraint.
    """
    k = pa.k + pb.k

    def terms(op, n):
        """op(pa[i], pb[j]) over i + j = n."""
        return [op(g, pb.groups[n - i])
                for i, g in enumerate(pa.groups) if 0 <= n - i <= pb.k]

    groups = [direct_sum(*terms(tensor, n), *terms(tor, n - 1)) for n in range(k + 1)]
    return HomologyProfile(
        tuple(groups), k, ("composed from factor homologies (tensor and Tor terms)",)
    )


def cubical_homology_rank1(s: KGraphSkeleton) -> HomologyProfile:
    """Homology of the underlying directed graph of a rank-1 skeleton.

    Computed as cokernel and kernel of the edge incidence map (each edge
    contributes source minus range), not from a formula, so vertex and
    edge counting stays an independent cross-check. H_0 is free on the
    weakly connected components; H_1 is free as a kernel, of rank
    (edges) - (incidence rank). Parallel edges give equal columns and
    loops give zero columns, so the reduced matrix has one column per
    pair v != w joined by an edge, and its size does not grow with the
    edge multiplicities. The no-sources hypothesis is irrelevant here,
    so sources are accepted.
    """
    if s.k != 1:
        raise RankUnsupported(
            f"the underlying-graph computation applies to k = 1 only, got k = {s.k}"
        )
    negative = _negative_findings(s)
    if negative:
        raise SkeletonInvalid(negative)
    m = s.matrices[0]
    n = len(s.vertices)
    edges = sum(sum(row.values()) for row in m.data)
    # one column per ordered pair v != w with an edge, in row-major order
    pairs = [(v, w) for v, row in enumerate(m.data) for w in sorted(row) if v != w]
    incidence = [{} for _ in range(n)]
    for col, (v, w) in enumerate(pairs):
        incidence[w][col] = 1
        incidence[v][col] = -1
    h0 = cokernel(IntMatrix._wrap(incidence, len(pairs)))
    if h0.torsion:
        raise BrokenComplex("graph incidence cokernel acquired torsion")
    h1 = FgAbGroup.free(edges - (n - h0.free_rank))
    return HomologyProfile(
        (h0, h1),
        1,
        (f"underlying directed graph: {n} vertices, {edges} edges",),
    )


class HkReport(namedtuple("HkReport", "profile ktheory cubical notes")):
    """Everything the hk-report command surfaces for one skeleton.

    profile is the HomologyProfile and ktheory the KTheoryResult. notes
    carries the rendered comparison lines, a list or tuple kept as a
    tuple; for k = 1 the underlying-graph homology is included as
    cubical (a HomologyProfile, else None) so the two invariants can be
    read side by side. Construction checks each of these.
    """

    __slots__ = ()

    def __new__(cls, profile, ktheory, cubical, notes):
        if not isinstance(profile, HomologyProfile):
            raise TypeError(f"profile is a {type(profile).__name__}, not a HomologyProfile")
        if not isinstance(ktheory, KTheoryResult):
            raise TypeError(f"ktheory is a {type(ktheory).__name__}, not a KTheoryResult")
        if not isinstance(cubical, (HomologyProfile, type(None))):
            raise TypeError(f"cubical is a {type(cubical).__name__}, not a HomologyProfile or None")
        return super().__new__(cls, profile, ktheory, cubical,
                               tuple(_list_or_tuple(notes, "notes")))


def hk_report(s: KGraphSkeleton) -> HkReport:
    """Homology, K-theory, and their even/odd comparison for a skeleton.

    For k >= 3 the K-theory half is computed in the conjectural mode and
    the notes say so explicitly. For k = 1 the report also includes the
    homology of the underlying directed graph, which is generally very
    different from the groupoid homology.

    The two K-vs-H notes are rendered from kt alone: ktheory_from_profile
    returns exactly the even and odd homology sums, so each note states
    that equality and always reads "agree".
    """
    profile = groupoid_homology(s)
    kt = ktheory_from_profile(profile)
    notes = list(profile.notes)
    if kt.hk_status == "conjectural":
        notes.append(
            "K-theory for k >= 3 extrapolates the even/odd homology pattern "
            "and is conjectural"
        )
    for name, g, parity in (("K_0", kt.k0, "even"), ("K_1", kt.k1, "odd")):
        d = g.describe()
        notes.append(f"{name} = {d} vs (+) H_{parity} = {d}: agree")
    cubical = None
    if s.k == 1:
        cubical = cubical_homology_rank1(s)
        for p in range(2):
            notes.append(
                f"H_{p}: underlying graph {cubical.groups[p].describe()} vs "
                f"groupoid {profile.groups[p].describe()}"
            )
    return HkReport(profile, kt, cubical, notes)
