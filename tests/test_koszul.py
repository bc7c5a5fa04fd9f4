import gc
import random
from itertools import combinations
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupoid_homology import abelian, checks, dr_finite, koszul
from groupoid_homology.abelian import FgAbGroup
from groupoid_homology.dr_finite import ZkAction, to_koszul
from groupoid_homology.errors import (
    DimensionMismatch,
    NoIntegerSolution,
    NonCommuting,
    NotACycle,
)
from groupoid_homology.exact_linalg import (
    IntMatrix,
    _blocks,
    cokernel,
    kernel_basis,
    solve_columns,
)
from groupoid_homology.kgraph import KGraphSkeleton, product
from groupoid_homology.koszul import (
    KoszulComplex,
    build,
    homology,
    verify_shift_identity,
)


def one_by_one(*values):
    return [IntMatrix(1, 1, [v]) for v in values]


# --- boundary matrices ----------------------------------------------------

def test_rank1_boundary_is_one_minus_endo():
    c = build(1, one_by_one(2))
    assert c.boundary(1).to_rows() == [[-1]]
    assert c.boundary(0).shape == (0, 1)
    assert c.boundary(2).shape == (1, 0)


def test_rank2_boundaries_by_hand():
    # with S_1 = [3], S_2 = [5]: degree-1 columns carry 1 - S_i,
    # the degree-2 column is (-(1 - S_2), 1 - S_1) by the sign rule
    c = build(2, one_by_one(3, 5))
    assert c.boundary(1).to_rows() == [[-2, -4]]
    assert c.boundary(2).to_rows() == [[4], [-2]]


def test_identity_endos_give_zero_boundaries():
    c = build(2, [IntMatrix.identity(3), IntMatrix.identity(3)])
    for p in range(1, 3):
        assert c.boundary(p).is_zero()


def test_dims_follow_binomials():
    c = build(3, [IntMatrix.identity(2)] * 3)
    assert [c.dim(p) for p in range(4)] == [2, 6, 6, 2]


def test_boundaries_compose_to_zero():
    s1 = IntMatrix.from_rows([[1, 1], [0, 1]])
    c = build(2, [s1, s1 @ s1])
    assert (c.boundary(1) @ c.boundary(2)).is_zero()


# --- construction errors ---------------------------------------------------

def test_wrong_family_size_rejected():
    with pytest.raises(DimensionMismatch):
        build(2, one_by_one(2))


def test_nonsquare_endo_rejected():
    with pytest.raises(DimensionMismatch):
        build(1, [IntMatrix.zeros(2, 3)])


def test_noncommuting_pair_rejected():
    a = IntMatrix.from_rows([[1, 1], [0, 1]])
    b = IntMatrix.from_rows([[1, 0], [1, 1]])
    with pytest.raises(NonCommuting):
        build(2, [a, b])


def test_noncommuting_family_names_the_first_pair():
    rng = random.Random(7)
    tested = 0
    while tested < 40:
        k, m = rng.randint(2, 4), rng.randint(1, 4)
        fam = checks._random_commuting_family(rng, k, m)
        fam[rng.randrange(k)] = checks._random_matrix(rng, m, m, -2, 2)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)
                 if fam[i] @ fam[j] != fam[j] @ fam[i]]
        if not pairs:
            continue
        i, j = pairs[0]
        with pytest.raises(NonCommuting) as exc:
            build(k, fam)
        assert str(exc.value) == f"endomorphisms {i} and {j} do not commute"
        tested += 1


def _direct_sum(a, b):
    rows = [r + [0] * b.cols for r in a.to_rows()]
    rows += [[0] * a.cols + r for r in b.to_rows()]
    return IntMatrix.from_rows(rows)


def _dense_boundaries(fam):
    """Every boundary of the family, written out dense by the sign rule of
    build: column block t (a p-subset) holds (-1)^jj (id - S_{t_jj}) in
    row block t minus its jj-th index."""
    k, m = len(fam), fam[0].rows
    d = [(IntMatrix.identity(m) - s).to_rows() for s in fam]
    zero = [[0] * m for _ in range(m)]
    out = []
    for p in range(1, k + 1):
        tuples = list(combinations(range(k), p))
        cells = {(t[:jj] + t[jj + 1:], t): d[i] if jj % 2 == 0
                 else [[-x for x in row] for row in d[i]]
                 for t in tuples for jj, i in enumerate(t)}
        out.append(IntMatrix.from_rows([
            sum((cells.get((b, t), zero)[r] for t in tuples), [])
            for b in combinations(range(k), p - 1) for r in range(m)
        ], cols=len(tuples) * m))
    return out


def test_blockwise_commutation_check_names_the_dense_pair():
    # direct sums of two families whose non-commuting pairs differ: the
    # degree-2 boundary splits into blocks, and build must name the pair
    # of the first nonzero column block of the dense d_1 d_2
    rng = random.Random(11)
    tested = 0
    while tested < 30:
        k = 3
        parts = []
        for _ in range(2):
            m = rng.randint(1, 3)
            fam = checks._random_commuting_family(rng, k, m)
            fam[rng.randrange(k)] = checks._random_matrix(rng, m, m, -2, 2)
            parts.append(fam)
        bad = [{(i, j) for i, j in combinations(range(k), 2)
                if fam[i] @ fam[j] != fam[j] @ fam[i]} for fam in parts]
        fam = [_direct_sum(a, b) for a, b in zip(*parts)]
        d1, d2 = _dense_boundaries(fam)[:2]
        if (not bad[0] or not bad[1] or bad[0] == bad[1]
                or len(_blocks(d2.data)) < 2):
            continue
        first = min(c for row in (d1 @ d2).to_rows() for c, x in enumerate(row) if x)
        i, j = list(combinations(range(k), 2))[first // fam[0].rows]
        with pytest.raises(NonCommuting) as exc:
            build(k, fam)
        assert str(exc.value) == f"endomorphisms {i} and {j} do not commute"
        tested += 1


def test_dense_degree2_boundaries_match_build():
    rng = random.Random(5)
    for _ in range(10):
        fam = checks._random_commuting_family(rng, 3, rng.randint(1, 3))
        c = build(3, fam)
        assert _dense_boundaries(fam)[:2] == [c.boundary(1), c.boundary(2)]


def _families_up_to_rank6():
    """Commuting families of every kind the engine builds, k = 1 .. 6."""
    rng = random.Random("sparse-vs-dense")
    for _ in range(40):
        k = rng.randint(1, 4)
        yield checks._random_commuting_family(rng, k, rng.randint(1, 3))
    for sk in (checks.perf_skeleton(0, 8), checks.perf_skeleton(1, 12),
               product(checks.perf_skeleton(2, 4), checks.perf_skeleton(3, 5))):
        yield [m.transpose() for m in sk.matrices]
    for _ in range(20):
        a = _random_action(rng, max_k=4)
        yield [dr_finite._perm_matrix(p, a.points) for p in a.perms]
    # one-vertex families of rank 5 and 6; an edge count of 1 makes a whole
    # block id - S_i vanish
    for k in (5, 5, 6, 6):
        yield one_by_one(*(rng.choice((-2, 0, 1, 2, 3)) for _ in range(k)))


def _any_endomorphisms():
    """(k, m, endos) drawn with no regard to commutation, identities among
    them so that whole diagonals cancel."""
    rng = random.Random("direct-records")
    for _ in range(40):
        k, m = rng.randint(1, 5), rng.randint(1, 3)
        yield k, m, tuple(
            IntMatrix.identity(m) if rng.random() < 0.25
            else checks._random_matrix(rng, m, m, -2, 2) for _ in range(k))


def test_build_matches_the_dense_assembly_in_every_degree():
    ranks = set()
    for fam in _families_up_to_rank6():
        c = build(len(fam), fam)
        assert KoszulComplex(c.k, fam[0].rows, fam) == c
        assert [c.boundary(p) for p in range(1, c.k + 1)] == _dense_boundaries(fam)
        ranks.add(c.k)
    assert ranks == {1, 2, 3, 4, 5, 6}
    # the record refuses endomorphisms that do not commute, naming the first
    # pair, so every record's boundaries compose to zero; those it accepts
    # follow the sign rule, and equal rows also mean that no 0 is stored
    refused = accepted = 0
    for k, m, endos in _any_endomorphisms():
        pairs = [(i, j) for i, j in combinations(range(k), 2)
                 if endos[i] @ endos[j] != endos[j] @ endos[i]]
        if pairs:
            with pytest.raises(NonCommuting) as exc:
                KoszulComplex(k, m, endos)
            assert str(exc.value) == "endomorphisms %d and %d do not commute" % pairs[0]
            refused += 1
        else:
            c = KoszulComplex(k, m, endos)
            assert [c.boundary(p) for p in range(1, k + 1)] == _dense_boundaries(list(endos))
            accepted += 1
    assert refused >= 20 and accepted >= 5


def _slip(q):
    """koszul.combinations with the row blocks of the degree-q boundary
    listed in reverse: the (q - 1)-subsets listed right after the
    q-subsets, wherever build's other listings (the pairs of the
    commutation check among them) fall."""
    real = combinations
    last = [None]

    def slipped(items, r):
        out = list(real(items, r))
        if r == q - 1 and last[0] == q:
            out.reverse()
        last[0] = r
        return out

    return slipped


def _first_bad_composite(boundaries):
    """First degree p whose composite d_(p-1) d_p is not zero, or None."""
    return next((p for p in range(2, len(boundaries) + 1)
                 if not (boundaries[p - 2] @ boundaries[p - 1]).is_zero()), None)


def _reversed_row_blocks(d, m):
    rows = d.to_rows()
    blocks = [rows[i:i + m] for i in range(0, len(rows), m)]
    return IntMatrix.from_rows(sum(blocks[::-1], []), cols=d.cols)


def _complex_net_on(monkeypatch, families):
    """Run checks.complex_net with one case per given rank-3 family."""
    class Rank3(random.Random):
        def randint(self, a, b):  # complex_net's rank draw
            return 3 if (a, b) == (1, 3) else super().randint(a, b)

    queue = list(families)
    monkeypatch.setattr(checks, "_random_commuting_family", lambda rng, k, m: queue.pop(0))
    return checks.complex_net(Rank3(0), len(families))


@pytest.mark.parametrize("k, q", [(3, 3), (4, 3), (4, 4)])
def test_slipped_assembly_names_the_degrees_of_the_dense_composite(monkeypatch, k, q):
    # build no longer composes its boundaries, so a slip in the assembly is
    # caught where the assembly is checked: for k <= 3 by complex_net's
    # d o d test, which names the first degree whose dense composite is not
    # 0, and for k = 4 by the comparison with the dense assembly, which
    # names degree q
    rng = random.Random(f"slip/{k}/{q}")
    families = []
    while len(families) < 10:
        fam = checks._random_commuting_family(rng, k, rng.randint(1, 3))
        dense = _dense_boundaries(fam)
        dense[q - 1] = _reversed_row_blocks(dense[q - 1], fam[0].rows)
        if _first_bad_composite(dense) is not None:
            families.append((fam, dense))
    monkeypatch.setattr(koszul, "combinations", _slip(q))
    if k <= 3:
        out = _complex_net_on(monkeypatch, [fam for fam, _ in families])
        for idx, (_, dense) in enumerate(families):
            assert (f"case {idx}: boundary composition nonzero at "
                    f"{_first_bad_composite(dense)}") in out.failures
        return
    for fam, dense in families:
        c = build(k, fam)
        built = [c.boundary(p) for p in range(1, k + 1)]
        assert built == dense
        assert [p for p, d in enumerate(_dense_boundaries(fam), 1)
                if d != built[p - 1]] == [q]


def test_degree3_composite_guards_the_assembly(monkeypatch):
    # simulate an indexing slip: the degree-3 boundary lists its rows (the
    # 2-subsets) in reverse, so d_1 d_2 = 0 but d_2 d_3 != 0; build takes no
    # composite, and complex_net's d o d test reports degree 3
    # the diagonal family's boundaries split into one block per base
    # coordinate, a second support pattern for the same check
    split = [IntMatrix.from_rows([[a, 0], [0, b]]) for a, b in ((2, 7), (3, 11), (5, 13))]
    assert len(_blocks(build(3, split).boundary(3).data)) == 2
    monkeypatch.setattr(koszul, "combinations", _slip(3))
    out = _complex_net_on(monkeypatch, [one_by_one(2, 3, 5), split])
    for idx in range(2):
        assert f"case {idx}: boundary composition nonzero at 3" in out.failures
    assert not any("nonzero at 2" in f for f in out.failures)


def test_build_multiplies_only_the_endomorphism_pairs(monkeypatch):
    # commutation is checked on the m x m endomorphisms, two products per
    # pair; no boundary composite is taken
    real = IntMatrix.__matmul__
    shapes = []

    def recorded(a, b):
        shapes.append((a.shape, b.shape))
        return real(a, b)

    rng = random.Random("products")
    fam = checks._random_commuting_family(rng, 4, 3)
    monkeypatch.setattr(IntMatrix, "__matmul__", recorded)
    build(4, fam)
    assert shapes == [((3, 3), (3, 3))] * (2 * comb(4, 2))


def test_rank0_needs_explicit_dimension():
    with pytest.raises(DimensionMismatch):
        build(0, [])
    c = build(0, [], m=3)
    prof = homology(c)
    assert prof.groups == (FgAbGroup.free(3),)


def test_homology_writes_no_zero_map_above_the_top(monkeypatch):
    # nothing bounds degree k, so H_k = Z^(n_k - r_k) is read without
    # reducing the n_k x 0 zero map; a rank-0 complex on 10^9 coordinates
    # then allocates nothing
    def refused(rows, cols):
        raise AssertionError(f"a {rows}x{cols} zero map was written")

    monkeypatch.setattr(IntMatrix, "zeros", refused)
    assert homology(build(0, [], m=10**9)).groups == (FgAbGroup.free(10**9),)
    assert [g.describe() for g in homology(build(2, one_by_one(3, 5))).groups] == [
        "Z_2", "Z_2", "0"]


def test_homology_holds_one_boundary_at_a_time(monkeypatch):
    # each boundary is written when its degree is reached and dropped after
    # its cokernel; with k = 4 and m = 1 no boundary has an endomorphism's
    # 1 x 1 shape, so while a boundary is reduced it is the only live
    # matrix of any boundary's shape beyond those alive before homology
    c = build(4, one_by_one(2, 3, 5, 7))
    shapes = {c.boundary(p).shape for p in range(1, 5)}
    assert len(shapes) == 4 and (1, 1) not in shapes

    def live():
        return sum(1 for o in gc.get_objects()
                   if isinstance(o, IntMatrix) and o.shape in shapes)

    gc.collect()
    before = live()
    alive = []
    real = koszul.cokernel

    def counted(d):
        alive.append(live() - before)
        return real(d)

    monkeypatch.setattr(koszul, "cokernel", counted)
    homology(c)
    assert alive == [1] * 4


def test_build_refuses_a_non_integral_rank():
    # int(1.9) would build a rank-1 complex from a rank-1.9 request
    with pytest.raises(TypeError):
        build(1.9, one_by_one(3))
    with pytest.raises(TypeError):
        build(True, one_by_one(3))


def test_build_refuses_a_non_integral_module_rank():
    with pytest.raises(TypeError):
        build(0, [], m=2.5)
    with pytest.raises(TypeError):
        build(1, one_by_one(3), m=1.0)


# --- homology -------------------------------------------------------------

def test_rank1_two_fold_cover_is_acyclic():
    prof = homology(build(1, one_by_one(2)))
    assert all(g.is_trivial for g in prof.groups)


def test_rank2_torsion_profile():
    prof = homology(build(2, one_by_one(3, 5)))
    assert [g.describe() for g in prof.groups] == ["Z_2", "Z_2", "0"]


def test_homology_normalizes_torsion_once_per_degree(monkeypatch):
    # cokernel renormalizes each degree's orders, and homology takes that
    # torsion as the chain it already is: one chain call per boundary, k
    # in all, and none for the top degree, which nothing bounds
    calls = []
    real = abelian._divisibility_chain

    def counted(orders):
        calls.append(orders)
        return real(orders)

    monkeypatch.setattr(abelian, "_divisibility_chain", counted)
    for k in range(1, 5):
        calls.clear()
        profile = homology(build(k, one_by_one(*[3] * k)))
        assert len(calls) == k
        assert all(g.torsion == (2,) * len(g.torsion) for g in profile.groups)


def test_zero_boundaries_return_chain_groups():
    prof = homology(build(2, one_by_one(1, 1)))
    assert [g.describe() for g in prof.groups] == ["Z", "Z^2", "Z"]


def test_profile_has_exactly_k_plus_one_groups():
    for k in range(4):
        endos = [IntMatrix.identity(2)] * k
        prof = homology(build(k, endos, m=2))
        assert len(prof.groups) == k + 1


def test_hand_built_complex_of_int_matrices_gives_its_homology():
    # a single vertex with counts 3 and 5: the record holds only its
    # endomorphisms, and each boundary it writes is the one written here
    # by hand: H_0 = H_1 = Z_2 and H_2 = 0
    endos = tuple(one_by_one(3, 5))
    d1, d2 = IntMatrix.from_rows([[-2, -4]]), IntMatrix.from_rows([[4], [-2]])
    c = KoszulComplex(2, 1, endos)
    assert c == build(2, endos)
    assert [c.boundary(p) for p in range(4)] == [
        IntMatrix.zeros(0, 1), d1, d2, IntMatrix.zeros(1, 0)]
    assert cokernel(c.boundary(2)) == FgAbGroup(1, (2,))
    assert homology(c).groups == (FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), FgAbGroup(0))


def test_broken_hand_built_complex_is_refused():
    # endomorphisms that do not commute, so d_1 d_2 != 0: the record refuses
    # them where it is made, as build does; a record forced past the
    # constructor with _replace still fails loudly, as r_1 + r_2 exceeds
    # the chain rank 6 and FgAbGroup refuses the negative free rank
    endos = tuple(IntMatrix.from_rows(rows) for rows in (
        [[2, -2], [0, -2]], [[1, 1], [1, 1]], [[-1, -2], [1, -2]]))
    for make in (lambda: build(3, endos), lambda: KoszulComplex(3, 2, endos)):
        with pytest.raises(NonCommuting, match="endomorphisms 0 and 1 do not commute"):
            make()
    c = build(3, [IntMatrix.identity(2)] * 3)._replace(endos=endos)
    assert not (c.boundary(1) @ c.boundary(2)).is_zero()
    with pytest.raises(ValueError, match="free rank must be non-negative"):
        homology(c)


def _kernel_solve_cokernel(c):
    """H_p by the transform route: rewrite the incoming boundary in a
    kernel basis of the outgoing one, then take the cokernel."""
    return tuple(
        cokernel(solve_columns(kernel_basis(c.boundary(p)), c.boundary(p + 1)))
        for p in range(c.k + 1)
    )


def _skeleton_complex(s):
    return build(s.k, [m.transpose() for m in s.matrices], m=len(s.vertices))


def _random_action(rng, max_k=3):
    points = rng.randint(1, 8)
    base = list(range(points))
    rng.shuffle(base)
    perms = []
    for _ in range(rng.randint(1, max_k)):
        q = list(range(points))
        for _ in range(rng.randint(0, points)):
            q = [base[x] for x in q]
        perms.append(tuple(q))
    return ZkAction(points, tuple(perms))


def test_homology_matches_the_kernel_solve_cokernel_route():
    rng = random.Random("homology-cross-check")
    for idx in range(120):
        kind = idx % 4
        if kind == 0:
            k = rng.randint(1, 3)
            c = build(k, checks._random_commuting_family(rng, k, rng.randint(1, 4)))
        elif kind == 1:
            c = _skeleton_complex(checks._random_skeleton(rng))
        elif kind == 2:
            a = checks._random_skeleton(rng, max_vertices=2, max_k=1)
            b = checks._random_skeleton(rng, max_vertices=2)
            c = _skeleton_complex(product(a, b))
        else:
            c = to_koszul(_random_action(rng))
        assert homology(c).groups == _kernel_solve_cokernel(c), f"case {idx}"


# --- the shift identity ----------------------------------------------------

def test_shift_identity_on_hand_cycle():
    # (2, -1) generates the degree-1 kernel; shifting by S_1 moves it by
    # the boundary of 1: (id x S_1)(2,-1) - (2,-1) = (4,-2)
    c = build(2, one_by_one(3, 5))
    assert verify_shift_identity(c, 0, 1, [(2, -1)])
    assert verify_shift_identity(c, 1, 1, [(2, -1)])


def test_shift_identity_refuses_a_non_integral_degree():
    c = build(2, one_by_one(3, 5))
    with pytest.raises(TypeError):
        verify_shift_identity(c, 0, 1.5, [(2, -1)])


def test_shift_identity_rejects_non_cycles():
    c = build(2, one_by_one(3, 5))
    with pytest.raises(NotACycle):
        verify_shift_identity(c, 0, 1, [(1, 0)])


def test_shift_identity_names_the_first_non_cycle():
    c = build(2, one_by_one(3, 5))
    with pytest.raises(NotACycle, match=r"^input 1 is not a degree-1 cycle$"):
        verify_shift_identity(c, 0, 1, [(2, -1), (1, 0), (0, 1)])


def test_shift_identity_refuses_non_integral_cycles():
    c = build(1, one_by_one(1))
    for cycle in ([2.7], [True], ["2"]):
        with pytest.raises(TypeError):
            verify_shift_identity(c, 0, 0, [cycle])


def test_shift_identity_trivial_for_identity_endos():
    c = build(2, [IntMatrix.identity(2)] * 2)
    cycles = [(1, 0), (0, 1)]
    assert verify_shift_identity(c, 0, 0, cycles)
    assert verify_shift_identity(c, 1, 2, cycles)


def test_shift_identity_agrees_with_integer_solving_on_random_spans():
    # verify_shift_identity decides whether the moved cycles lie in the
    # integer column span of A by comparing the span indices of A and of
    # [A | b]; solving A x = b decides the same question. (On a complex
    # written from commuting endomorphisms the answer is always yes, so
    # the decision is tested on random spans directly.)
    rng = random.Random("span-membership")
    outcomes = set()
    for _ in range(150):
        m = rng.randint(1, 4)
        r = rng.randint(0, m)
        base = checks._random_matrix(rng, m, r, -3, 3)
        a = rng.choice([1, 2, 3]) * base @ checks._random_matrix(rng, r, m, -2, 2)
        if rng.random() < 0.3:
            b = checks._random_matrix(rng, m, m, -4, 4)
        else:
            b = base @ checks._random_matrix(rng, r, m, -3, 3)
        for j in range(m):
            column = IntMatrix(m, 1, [b[i, j] for i in range(m)])
            augmented = IntMatrix.from_rows(
                [x + y for x, y in zip(a.to_rows(), column.to_rows())], cols=m + 1)
            try:
                solve_columns(a, column)
                expected = True
            except NoIntegerSolution:
                expected = False
            assert (koszul._span_index(a) == koszul._span_index(augmented)) is expected
            outcomes.add(expected)
    assert outcomes == {True, False}


# --- randomized properties -------------------------------------------------

@st.composite
def commuting_families(draw):
    k = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    base = IntMatrix(m, m, draw(st.lists(st.integers(-2, 2),
                                         min_size=m * m, max_size=m * m)))
    ident = IntMatrix.identity(m)
    fam = []
    for _ in range(k):
        c0 = draw(st.integers(-2, 2))
        c1 = draw(st.integers(-2, 2))
        fam.append(c0 * ident + c1 * base)
    return k, fam


@settings(deadline=None, max_examples=40)
@given(commuting_families())
def test_random_complexes_have_zero_euler_characteristic(kf):
    k, fam = kf
    prof = homology(build(k, fam))
    assert prof.euler_characteristic() == 0


@settings(deadline=None, max_examples=25)
@given(commuting_families())
def test_shift_identity_for_every_kernel_cycle(kf):
    k, fam = kf
    c = build(k, fam)
    for p in range(k + 1):
        kb = kernel_basis(c.boundary(p))
        cycles = [tuple(int(kb[r, j]) for r in range(kb.rows))
                  for j in range(kb.cols)]
        for i in range(k):
            assert verify_shift_identity(c, i, p, cycles)


@settings(deadline=None, max_examples=25)
@given(commuting_families())
def test_homology_invariant_under_basis_change(kf):
    k, fam = kf
    m = fam[0].rows
    g = IntMatrix.identity(m)
    if m >= 2:
        entries = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        entries[0][m - 1] += 2  # elementary shear, determinant 1
        g = IntMatrix.from_rows(entries)
        ginv_rows = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        ginv_rows[0][m - 1] -= 2
        ginv = IntMatrix.from_rows(ginv_rows)
    else:
        ginv = g
    conjugated = [g @ s @ ginv for s in fam]
    assert homology(build(k, fam)).groups == homology(build(k, conjugated)).groups


def _rank_mod(a, q):
    """Rank of a over F_q, q prime, by sparse elimination on its rows: each
    row is cleared from its least column by the pivot row found there, or
    becomes the pivot row of that column."""
    pivots = {}
    for row in a.data:
        r = {c: x % q for c, x in row.items() if x % q}
        while r:
            c = min(r)
            if c not in pivots:
                inv = pow(r[c], -1, q)
                pivots[c] = {j: x * inv % q for j, x in r.items()}
                break
            f = r[c]
            for j, x in pivots[c].items():
                y = (r.get(j, 0) - f * x) % q
                if y:
                    r[j] = y
                else:
                    del r[j]
    return len(pivots)


@pytest.mark.parametrize("make", [
    lambda: _skeleton_complex(checks.perf_skeleton(0, 100)),
    lambda: _skeleton_complex(product(checks.perf_skeleton(0, 20), KGraphSkeleton(
        ("a", "b", "c"), (IntMatrix.from_rows([[0, 2, 2], [2, 0, 2], [2, 2, 0]]),)))),
    # one orbit: Z^2 on the 60 x 60 torus by the two unit shifts
    lambda: to_koszul(ZkAction(3600, [[x - x % 60 + (x + 1) % 60 for x in range(3600)],
                                      [(x + 60) % 3600 for x in range(3600)]])),
], ids=["perf-100", "rank3-product", "torus-60x60"])
def test_cokernels_agree_with_their_ranks_mod_q(make):
    # coker(a) (x) F_q = coker(a mod q), as tensoring is right exact: rows
    # less the rank mod q counts the free rank and the factors q divides;
    # the Z^2 orbit and the skeletons are rungs too large for the dense path
    c = make()
    for p in range(c.k + 2):
        a = c.boundary(p)
        g = cokernel(a)
        for q in (2, 3, 5, 7):
            assert a.rows - _rank_mod(a, q) == g.free_rank + sum(t % q == 0 for t in g.torsion)
