import hashlib
import itertools
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupoid_homology.checks import perf_skeleton
from groupoid_homology.abelian import FgAbGroup
from groupoid_homology.errors import DimensionMismatch, NoIntegerSolution
from groupoid_homology.exact_linalg import (
    IntMatrix,
    _blocks,
    cokernel,
    det,
    invariant_factors,
    is_unimodular,
    kernel_basis,
    rank,
    snf,
    solve_columns,
    track_entry_growth,
    xgcd,
)
from groupoid_homology.kgraph import groupoid_homology


@st.composite
def matrices(draw, max_dim=5, max_entry=40):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.integers(-max_entry, max_entry),
                            min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, entries)


# --- construction ---------------------------------------------------------

def test_entry_count_must_match_shape():
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, [1, 2, 3])


def test_non_integral_entries_are_refused_not_truncated():
    for entries in ([2.7, 1], [2, True], [Fraction(4, 2), 1]):
        with pytest.raises(TypeError):
            IntMatrix(1, 2, entries)


def test_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)


def test_equality_and_hash():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix(2, 2, [1, 2, 3, 4])
    assert a == b and hash(a) == hash(b)
    assert a != IntMatrix(2, 2, [1, 2, 3, 5])


def test_arithmetic_matches_hand_computation():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert (a + b).to_rows() == [[1, 3], [4, 4]]
    assert (a - b).to_rows() == [[1, 1], [2, 4]]
    assert (2 * a).to_rows() == [[2, 4], [6, 8]]
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]


def test_non_integral_scalars_are_refused_not_truncated():
    a = IntMatrix(1, 1, [2])
    for scalar in (2.5, True, Fraction(4, 2)):
        with pytest.raises(TypeError):
            scalar * a


def test_kron_block_layout():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[3], [4]])
    assert a.kron(b).to_rows() == [[3, 6], [4, 8]]


def test_huge_entries_stay_exact():
    big = 10 ** 40
    a = IntMatrix.from_rows([[big, 1], [0, big]])
    sq = a @ a
    assert sq[0, 0] == big * big and sq[0, 1] == 2 * big


# --- xgcd ----------------------------------------------------------------

@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g >= 0
    assert x * a + y * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


# --- smith normal form ----------------------------------------------------

def test_snf_small_examples():
    # gcd of entries is 2 and the determinant is 8, so d = (2, 4)
    assert snf(IntMatrix.from_rows([[2, 4], [6, 8]])).d == (2, 4)
    assert snf(IntMatrix.identity(2)).d == (1, 1)
    # gcd 2 with |det| = 4
    assert snf(IntMatrix.from_rows([[-4, -2], [-2, -2]])).d == (2, 2)


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        r = snf(IntMatrix.zeros(*shape))
        assert r.d == () and r.rank == 0
        assert r.u.shape == (shape[0], shape[0])
        assert r.v.shape == (shape[1], shape[1])


def _diag_matrix(d, rows, cols):
    return IntMatrix(rows, cols,
                     [d[i] if i == j and i < len(d) else 0
                      for i in range(rows) for j in range(cols)])


@settings(deadline=None)
@given(matrices())
def test_snf_transform_identity(a):
    r = snf(a)
    assert (r.u @ a @ r.v) == _diag_matrix(r.d, a.rows, a.cols)
    assert is_unimodular(r.u) and is_unimodular(r.v)
    nonzero = [x for x in r.d if x]
    assert all(x >= 0 for x in r.d)
    assert list(r.d[:len(nonzero)]) == nonzero
    assert all(b % a0 == 0 for a0, b in zip(nonzero, nonzero[1:]))
    assert r.rank == len(nonzero)


@settings(deadline=None)
@given(matrices())
def test_snf_is_deterministic(a):
    first, second = snf(a), snf(a)
    assert first.d == second.d and first.u == second.u and first.v == second.v


def _pinned_matrix(seed, rows, cols, kind):
    rng = random.Random(f"snf-pin/{seed}")
    draw = {
        "dense": lambda: rng.randint(-100, 100),
        "sparse": lambda: rng.randint(-9, 9) if rng.random() < 0.2 else 0,
        "unit": lambda: rng.choice((-1, 1)) if rng.random() < 0.3 else 0,
        "huge": lambda: rng.randint(-10**30, 10**30),
    }[kind]
    return IntMatrix(rows, cols, [draw() for _ in range(rows * cols)])


# sha256 of the diagonal, both transforms, the kernel basis (the V-only
# reduction) and the growth records, as the original row-by-row clearing
# loop computed them; the reduction must reproduce every bit
SNF_DIGESTS = {
    (0, 6, 6, "dense"): "86f1b8a5be746e17a7272bd8d1d2aba41688ee69875099564b8e78b7bc5afdea",
    (1, 9, 4, "dense"): "f9d277b89f81839417ea6db10134d9de7550ca9022261b70552fc583c471099d",
    (2, 4, 9, "dense"): "1a6d3d430d3ba174d024f7926d2934ef1ccb83e2df307d255cc108d2bbdd6e1e",
    (3, 20, 20, "dense"): "0ab85f1bd882add67995624b0b6867a0878926a47d7c2bdbaa4bb5768c350955",
    (4, 12, 12, "sparse"): "7c2100d78db672563b2ab3488800b758d60f64142604089f22e2f3a7fae3d0a1",
    (5, 15, 10, "sparse"): "be89098c8ebed06ffc06c03d2f9101c28a9325c64ac57fa6478a0e16bf9f9200",
    (6, 14, 14, "unit"): "d96e092ee762e08aff0208883b463c37d0c53912827d9a1fa36533f123473e26",
    (7, 10, 16, "unit"): "6aa24785263b87c9c321fedfe20bf1d4950cb195bd2bea7ad3489e888efbbb5e",
    (8, 5, 5, "huge"): "72ff13dd99d9974a025e5d5bb3c01f9fffb216d9b89c77a4bf1b2ab8027c8822",
    (9, 1, 7, "dense"): "1288315a9f9ac55f3bc23eac2caaede84182deab8be1017b784a761cbbd89a1d",
    (10, 8, 1, "huge"): "b4965104052c50186cfa7cadfe69b774e3a0b3b10584bcffdb40d6dea15e7f39",
    (11, 0, 0, "dense"): "42f4e92c03966b3ec824b33d917025266cdedcad2a6b115fc539a55755145dd3",
    (12, 0, 4, "dense"): "41e461f68fab0b8fdc3de45069fb9ab8ee042424da90a6d2e19d649219d4b39b",
    (13, 3, 0, "dense"): "b759d377284c2fe7a5fbf94f0d68d231268b92d36b2d86a4f030912d1410e46b",
}


def _snf_digest(a):
    with track_entry_growth() as stats:
        res = snf(a)
        kernel = kernel_basis(a)
    record = (res.d, res.u.entries, res.v.entries, kernel.entries, stats.reductions)
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(SNF_DIGESTS))
def test_snf_reproduces_pinned_transforms(case):
    assert _snf_digest(_pinned_matrix(*case)) == SNF_DIGESTS[case]


def test_invariant_factors_agree_with_snf():
    a = IntMatrix.from_rows([[6, 10], [10, 6]])
    assert invariant_factors(a) == snf(a).d


def test_invariant_factors_agree_with_sympy():
    # sympy is a test-only oracle; the package never imports it
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix
    from sympy.polys.domains import ZZ

    rng = random.Random("sympy-oracle")
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(rows, cols))
        left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
        a = IntMatrix(rows, rank, sum(left, [])) @ IntMatrix(rank, cols, sum(right, []))
        theirs = normalforms.invariant_factors(Matrix(a.to_rows()), domain=ZZ)
        assert invariant_factors(a) == tuple(int(x) for x in theirs)


# --- kernels --------------------------------------------------------------

def test_kernel_of_single_relation():
    # -2x - 4y = 0 exactly when (x, y) is a multiple of (2, -1)
    k = kernel_basis(IntMatrix.from_rows([[-2, -4]]))
    assert k.shape == (2, 1)
    assert (k[0, 0], k[1, 0]) in ((2, -1), (-2, 1))


def test_kernel_of_invertible_matrix_is_empty():
    assert kernel_basis(IntMatrix.from_rows([[-4, -2], [-2, -2]])).cols == 0


def test_kernel_of_zero_matrix_is_everything():
    k = kernel_basis(IntMatrix.zeros(2, 2))
    assert k.shape == (2, 2) and is_unimodular(k)


@settings(deadline=None)
@given(matrices())
def test_kernel_annihilates_and_counts(a):
    k = kernel_basis(a)
    assert k.rows == a.cols
    assert (a @ k).is_zero()
    assert k.cols + rank(a) == a.cols


@settings(deadline=None)
@given(matrices(max_dim=4, max_entry=9), st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_kernel_is_primitive(a, coefficients):
    # any integer kernel vector must be an integer combination of the basis
    k = kernel_basis(a)
    if k.cols == 0:
        return
    coef = IntMatrix(k.cols, 1, coefficients[:k.cols] + [0] * max(0, k.cols - 4))
    target = k @ coef
    y = solve_columns(k, target)
    assert (k @ y) == target


# --- cokernels ------------------------------------------------------------

def test_cokernel_examples():
    c = cokernel(IntMatrix.from_rows([[-4, -2], [-2, -2]]))
    assert c.free_rank == 0 and c.torsion == (2, 2)
    assert cokernel(IntMatrix.from_rows([[-1]])).is_trivial
    free = cokernel(IntMatrix.zeros(2, 0))
    assert free.free_rank == 2 and free.torsion == ()


@settings(deadline=None)
@given(matrices(max_dim=4, max_entry=9), st.data())
def test_cokernel_invariant_under_elementary_ops(a, data):
    before = cokernel(a)
    rows = a.to_rows()
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["row", "col", "swap", "negate"]))
        if a.rows >= 2 and kind == "row":
            i = data.draw(st.integers(0, a.rows - 1))
            j = data.draw(st.integers(0, a.rows - 1))
            if i != j:
                c = data.draw(st.integers(-3, 3))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif a.cols >= 2 and kind == "col":
            i = data.draw(st.integers(0, a.cols - 1))
            j = data.draw(st.integers(0, a.cols - 1))
            if i != j:
                c = data.draw(st.integers(-3, 3))
                for r in rows:
                    r[i] += c * r[j]
        elif a.rows >= 2 and kind == "swap":
            rows[0], rows[-1] = rows[-1], rows[0]
        elif a.rows >= 1 and a.cols >= 1 and kind == "negate":
            rows[0] = [-x for x in rows[0]]
    assert cokernel(IntMatrix.from_rows(rows, cols=a.cols)) == before


# entries for the split-cokernel net: units, small primes, and values
# far beyond a machine word
BLOCK_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([1, -1, 2, 3, 5, 7, 10**30, -10**30, 10**30 + 1, 3 * 10**30]),
)


@st.composite
def split_matrices(draw):
    """Block-diagonal matrices, with zero rows and columns, in shuffled
    row and column order."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=4))
    zero_rows, zero_cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rows = sum(r for r, _ in shapes) + zero_rows
    cols = sum(c for _, c in shapes) + zero_cols
    grid = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for r, c in shapes:
        for i in range(r):
            grid[r0 + i][c0:c0 + c] = draw(st.lists(BLOCK_ENTRIES, min_size=c, max_size=c))
        r0, c0 = r0 + r, c0 + c
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return IntMatrix.from_rows(
        [[grid[i][j] for j in col_order] for i in row_order], cols=cols
    )


@settings(deadline=None, max_examples=150)
@given(split_matrices())
def test_split_cokernel_matches_the_whole_matrix_reduction(a):
    diag = invariant_factors(a)
    rank_a = sum(1 for x in diag if x)
    whole = FgAbGroup.from_orders(a.rows - rank_a, [x for x in diag if x > 1])
    assert cokernel(a) == whole


def test_blocks_are_the_support_components():
    a = IntMatrix.from_rows([
        [0, 2, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [3, 0, 0, 1, 0],
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ])
    blocks = [(list(r), list(c)) for r, c in _blocks(a)]
    # row 1 and column 2 are zero; column 4 is zero too
    assert blocks == [([0, 3], [1]), ([2, 4], [0, 3])]
    assert _blocks(IntMatrix.zeros(3, 0)) == []
    assert _blocks(IntMatrix.zeros(2, 2)) == []


def test_split_cokernel_renormalizes_torsion_across_blocks():
    # Z_2 from one block and Z_3 from the other: Z_6, one reduction each
    a = IntMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 3, 0]])
    with track_entry_growth() as stats:
        c = cokernel(a)
    assert c == FgAbGroup(1, (6,))
    assert stats.reductions == [[1, 1, 2, 2], [1, 1, 2, 2]]


# --- integer solving ------------------------------------------------------

def test_solve_scalar_multiple():
    a = IntMatrix.from_rows([[2], [-1]])
    b = IntMatrix.from_rows([[4], [-2]])
    assert solve_columns(a, b).to_rows() == [[2]]


def test_solve_identity_returns_rhs():
    b = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert solve_columns(IntMatrix.identity(3), b) == b


def test_solve_detects_missing_divisibility():
    with pytest.raises(NoIntegerSolution):
        solve_columns(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]]))


@settings(deadline=None)
@given(matrices(max_dim=4, max_entry=9), st.lists(st.integers(-5, 5), min_size=16, max_size=16))
def test_solve_recovers_some_preimage(a, flat):
    y0 = IntMatrix(a.cols, 4, flat[: a.cols * 4])
    b = a @ y0
    y = solve_columns(a, b)
    assert (a @ y) == b


# --- determinants ---------------------------------------------------------

def test_det_small_cases():
    assert det(IntMatrix.zeros(0, 0)) == 1
    assert det(IntMatrix.from_rows([[7]])) == 7
    assert det(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert det(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 4]])) == 24
    with pytest.raises(DimensionMismatch):
        det(IntMatrix.zeros(2, 3))


@settings(deadline=None)
@given(matrices(max_dim=4, max_entry=9), matrices(max_dim=4, max_entry=9))
def test_det_is_multiplicative(a, b):
    if a.rows != a.cols or b.rows != b.cols or a.cols != b.rows:
        return
    assert det(a @ b) == det(a) * det(b)


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_det_matches_the_permutation_sum():
    rng = random.Random(17)
    for idx in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(n)]
        if idx % 3 == 0:
            # a zero leading pivot forces the row swap (and its sign)
            rows[0][0] = 0
        if idx % 7 == 0 and n > 1:
            rows[-1] = list(rows[0])
        assert det(IntMatrix.from_rows(rows)) == _leibniz(rows), rows


# --- growth tracking ------------------------------------------------------

def test_growth_tracker_records_reductions():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    with track_entry_growth() as stats:
        snf(a)
        kernel_basis(a)
    assert stats.peak_bits >= 4
    assert len(stats.reductions) == 2
    assert all(inp <= peak for _, _, inp, peak in stats.reductions)
    assert stats.worst_ratio >= 1.0


def test_growth_records_of_the_perf_skeleton_are_pinned():
    # [rows, cols, input bits, peak bits] of each boundary's reduction
    with track_entry_growth() as stats:
        groupoid_homology(perf_skeleton(0, 40))
    assert stats.reductions == [[40, 80, 4, 77], [80, 40, 4, 75], [40, 0, 0, 0]]
    assert stats.peak_bits == 77
