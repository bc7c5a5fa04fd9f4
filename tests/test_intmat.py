import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupoid_homology.errors import DimensionMismatch, NoIntegerSolution
from groupoid_homology.exact_linalg import (
    IntMatrix,
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
