import hashlib
import itertools
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupoid_homology import checks, exact_linalg
from groupoid_homology.checks import perf_skeleton, snf_net
from groupoid_homology.abelian import FgAbGroup
from groupoid_homology.dr_finite import ZkAction, orbit_count
from groupoid_homology.errors import DimensionMismatch, NoIntegerSolution
from groupoid_homology.exact_linalg import (
    IntMatrix,
    _blocks,
    _components,
    cokernel,
    det,
    invariant_factors,
    kernel_basis,
    snf,
    solve_columns,
    track_entry_growth,
    xgcd,
)
from groupoid_homology.kgraph import KGraphSkeleton, cubical_homology_rank1, groupoid_homology
from groupoid_homology.koszul import build


def rank(a: IntMatrix) -> int:
    return sum(1 for x in invariant_factors(a) if x)


def is_unimodular(a: IntMatrix) -> bool:
    return a.rows == a.cols and det(a) in (1, -1)


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
    # a matrix never equals a scalar, not even a 1x1 one: its __eq__ leaves
    # the comparison to the other operand
    assert IntMatrix.identity(1).__eq__(1) is NotImplemented
    assert (IntMatrix.identity(1) == 1) is False


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


# sha256 of the diagonal, the kernel basis (the V-only reduction) and the
# kernel basis's growth records, as the original row-by-row clearing loop
# computed them; invariant factors and kernel bases must keep every bit
KEPT_DIGESTS = {
    (0, 6, 6, "dense"): "b39748d82ce5c17b7546e15e0b57ba3e3c13a4ec863638cc1ab4d3a959867932",
    (1, 9, 4, "dense"): "a3fafb54b40fe5bf48c318a3309305d03353c7929461dfaf38702c1a408ddb75",
    (2, 4, 9, "dense"): "96011cbf30d4ddf9c166ae4bd2061d3a8d40df9a8a2622551fd6560d3db06f98",
    (3, 20, 20, "dense"): "53469a06b5fb6f243891585aa5daafb11877e24c2f9dfa96275758f1722bb57a",
    (4, 12, 12, "sparse"): "db240af6e5ec94e0b54d4f7e0509b30c8c82fb423bee9fc028c19ed1629aaa7a",
    (5, 15, 10, "sparse"): "1ef3cb7f3116b13dea1ba4367a2c465bac7b51155dca250d7712f95999e69759",
    (6, 14, 14, "unit"): "f1c760398a6018a4d54fa301cdeaa852c65ca5d7d6117622b8bd8644389eaa98",
    (7, 10, 16, "unit"): "7b1327262ad09a9d79dc3e1079b0faa2c284e7ecc7676115e99d25ed3113742c",
    (8, 5, 5, "huge"): "2ce197fde6b9c57d488e311d9a3d441f2a867cffe4dcc92d03a77ce0b4bfc01a",
    (9, 1, 7, "dense"): "f84109e77ffa4f99b59ff511ab3bac81f34f7ccfa63bc814db2b30b59f5fce33",
    (10, 8, 1, "huge"): "2be404d58e273f5b01f91863588f7605efda1ce9cd40e4f7dd6102acd0bf92a5",
    (11, 0, 0, "dense"): "9d894e7508a8dfc8986146f5f850ea8cd859dfe9cd79110f06acbc7078517167",
    (12, 0, 4, "dense"): "eeb7c837f96e1a080e0fb997aa1cdbbedda5a1b137368b6f47c868f301259641",
    (13, 3, 0, "dense"): "8a837ef6c305a0213b8bb0fac26d6d2dc13b2ac7e319c567a37e573e81f62950",
}

# sha256 of snf's two transforms and its growth records (the Hermite stage's
# and the Smith stage's), pinned when snf gained its Hermite stage
SNF_DIGESTS = {
    (0, 6, 6, "dense"): "85f8513bb039de1935454d8e31868b67561625f402e59f2bad3bf411e875f715",
    (1, 9, 4, "dense"): "dc1100b01e9f28ec40e0e00b9e48b917027eee0fe9fac21f4a1b16edc1b130f5",
    (2, 4, 9, "dense"): "d0edc1f3b0d5ff007f8a3c54a6464d02dd218888ac834e9e6eb1d92a4839a0c0",
    (3, 20, 20, "dense"): "cdf777e1f2b2cb6608080b55dbbf4d9b8249eabfd21e995e24d2ac7b82ea3626",
    (4, 12, 12, "sparse"): "08e14e7332828d1ff02dafac92e48eca6721d896ce02d0d803b3da513b64ba05",
    (5, 15, 10, "sparse"): "71e885d891006fdf34992de146d3fb2649ff24a6f3ca8c71ed5f42a5b14c7a83",
    (6, 14, 14, "unit"): "6fa20243c22de8f7e7b7109f52f7f64242765ca849a4678644b965af05c9b7be",
    (7, 10, 16, "unit"): "041349e5b3534f33c27af4565311651ab98170dd74ff8c76d05a562c59e3405c",
    (8, 5, 5, "huge"): "7c3e42c6d4d97c70e9958ffd8456723413ccbd1b058481e2509dab669323628d",
    (9, 1, 7, "dense"): "0292e42376e623a3a65b5840fe4747a1251554f0d9878ada86898b900baf62ac",
    (10, 8, 1, "huge"): "396dbecd0756eaab87ebd293199df5ccf762c381cbbc4b94f8e0978dd8a37975",
    (11, 0, 0, "dense"): "31ec4de4596f0a15e842124ddff808504df83172d994c8bac27da553f82d3bc3",
    (12, 0, 4, "dense"): "04b4a5f6882a2ef8dcbb608dacbf6141db74f9ef8e3d45dca3b67f335516e873",
    (13, 3, 0, "dense"): "d3312fca8342e291dfe634771f88a9d18f9782541c62b0de7cbc3ed047aac5a3",
}


def _kept_digest(a):
    with track_entry_growth() as stats:
        kernel = kernel_basis(a)
    record = (snf(a).d, kernel.entries, stats.reductions)
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _snf_digest(a):
    with track_entry_growth() as stats:
        res = snf(a)
    record = (res.u.entries, res.v.entries, stats.reductions)
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(KEPT_DIGESTS))
def test_snf_keeps_pinned_factors_and_kernel_bases(case):
    assert _kept_digest(_pinned_matrix(*case)) == KEPT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(SNF_DIGESTS))
def test_snf_reproduces_pinned_transforms(case):
    assert _snf_digest(_pinned_matrix(*case)) == SNF_DIGESTS[case]


def _snf_cross_cases():
    rng = random.Random("snf-cross")

    def draw(rows, cols, entry):
        return IntMatrix(rows, cols, [entry() for _ in range(rows * cols)])

    def dense():
        return rng.randint(-100, 100)

    def unit():
        return rng.choice((-1, 1, 1, 0))

    cases = [draw(50, 5, dense), draw(5, 50, dense)]
    cases += [draw(n, n + 3, unit) for n in (6, 17, 30)]
    for rows, cols in ((8, 6), (6, 8)):
        # zero rows and zero columns
        a = draw(rows, cols, dense).to_rows()
        a[2] = [0] * cols
        for row in a:
            row[1] = row[-1] = 0
        cases.append(IntMatrix.from_rows(a))
    cases += [IntMatrix.zeros(*shape) for shape in ((0, 0), (0, 5), (5, 0), (3, 4))]
    cases += [draw(n, n, lambda: rng.randint(-10**30, 10**30)) for n in (3, 8, 12)]
    cases.append(draw(12, 9, lambda: rng.randint(-10**30, 10**30)))
    return cases


def _cross_checked_snf(a):
    r = snf(a)
    assert r.d == invariant_factors(a)
    assert r.u @ a @ r.v == _diag_matrix(r.d, a.rows, a.cols)
    assert abs(det(r.u)) == 1 and abs(det(r.v)) == 1
    nonzero = [x for x in r.d if x]
    assert list(r.d[:len(nonzero)]) == nonzero and r.rank == len(nonzero)
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    return r


@pytest.mark.parametrize("a", _snf_cross_cases(), ids=lambda a: "x".join(map(str, a.shape)))
def test_snf_cross_checks_against_the_plain_reduction(a):
    _cross_checked_snf(a)


def test_snf_of_low_rank_products_keeps_their_built_in_factors():
    rng = random.Random("snf-low-rank")
    for rows, cols in ((9, 7), (12, 12), (7, 15)):
        left = IntMatrix(rows, 2, [rng.randint(-9, 9) for _ in range(rows * 2)])
        right = IntMatrix(2, cols, [rng.randint(-9, 9) for _ in range(2 * cols)])
        # every entry is even and the rank is at most 2
        r = _cross_checked_snf(left @ _diag_matrix((2, 6), 2, 2) @ right)
        assert r.rank <= 2 and all(x % 2 == 0 for x in r.d)


def test_snf_makes_no_matrix_product(monkeypatch):
    # the Hermite rows [H | W] ride through the Smith reduction whole, so
    # u comes out of it directly and no U2 is multiplied by W
    a = IntMatrix.from_rows([[2, 4, 6, 8], [1, 3, 5, 7], [3, 7, 11, 15]])

    def no_product(*args):
        raise AssertionError("snf multiplied two matrices")

    with monkeypatch.context() as m:
        m.setattr(IntMatrix, "__matmul__", no_product)
        r = snf(a)
    assert r.d == (1, 2, 0) and r.rank == 2
    assert r.u @ a @ r.v == _diag_matrix(r.d, 3, 4)
    assert is_unimodular(r.u) and is_unimodular(r.v)


def test_snf_transforms_stay_small_on_the_criterion_08_matrices(monkeypatch):
    # the first 100 cases of criterion 08 peak at 746 bits (U) and 328
    # (V); reducing the matrices directly gave U up to 9,933 bits. snf_net
    # looks snf up by its module name, so a wrapper there sees every call
    bits = []

    def measured_snf(a):
        r = snf(a)
        bits.append(max(r.u.max_bit_length(), r.v.max_bit_length()))
        return r

    monkeypatch.setattr(checks, "snf", measured_snf)
    net = snf_net(random.Random(0), cases=100)
    assert net.failures == []
    assert len(bits) == 100 and 0 < max(bits) <= 1024


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


def _whole(a: IntMatrix) -> FgAbGroup:
    """The cokernel from the invariant factors of the whole matrix."""
    diag = invariant_factors(a)
    r = sum(1 for x in diag if x)
    return FgAbGroup.from_orders(a.rows - r, [x for x in diag if x > 1])


@settings(deadline=None, max_examples=150)
@given(split_matrices())
def test_split_cokernel_matches_the_whole_matrix_reduction(a):
    assert cokernel(a) == _whole(a)


def _shuffled_blocks(rng, blocks, zero_rows=0, zero_cols=0) -> IntMatrix:
    """The blocks on a diagonal, plus zero rows and columns, shuffled."""
    rows = sum(len(b) for b in blocks) + zero_rows
    cols = sum(len(b[0]) if b else 0 for b in blocks) + zero_cols
    grid = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            grid[r0 + i][c0:c0 + len(row)] = row
        r0, c0 = r0 + len(b), c0 + (len(b[0]) if b else 0)
    row_order, col_order = list(range(rows)), list(range(cols))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return IntMatrix.from_rows([[grid[i][j] for j in col_order] for i in row_order],
                               cols=cols)


# entries of the seeded cokernel net: mostly units, all +-2 (no unit
# pivot, but divisible ones), gcd 1 without units, and beyond a word
NET_ENTRIES = {
    "units": (0, 0, 0, 1, -1, 1, -1, 2, 3),
    "twos": (0, 0, 2, -2),
    "mixed": (0, 0, 1, -1, 2, -3, 4, 6, 10, 15),
    "huge": (0, 0, 1, -1, 10**30, -10**30, 10**30 + 1, 2 * 10**30),
}


@pytest.mark.parametrize("kind", sorted(NET_ENTRIES))
def test_eliminating_cokernel_matches_the_whole_matrix_reduction(kind):
    rng = random.Random(f"cokernel-net/{kind}")
    values = NET_ENTRIES[kind]
    for _ in range(150):
        blocks = [[[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
                  for rows, cols in ((rng.randint(0, 6), rng.randint(1, 6))
                                     for _ in range(rng.randint(1, 3)))]
        a = _shuffled_blocks(rng, blocks, rng.randint(0, 2), rng.randint(0, 2))
        assert cokernel(a) == _whole(a), a
    for shape in ((0, 0), (0, 3), (3, 0), (2, 2)):
        a = IntMatrix.zeros(*shape)
        assert cokernel(a) == _whole(a) == FgAbGroup(shape[0], ())


def test_cokernel_without_a_divisible_pivot_reduces_every_block(monkeypatch):
    # gcd 1 with no unit entry, or a row gcd that no entry equals; the
    # last two are rank deficient, so Hermite meets a kernel row
    no_pivot = ([[2, 3], [3, 2]], [[6, 10, 15]], [[6], [10], [15]], [[4, 6], [6, 4]],
                [[2, 3], [4, 6]], [[6, 10, 15], [12, 20, 30]])
    cores = []
    real = exact_linalg._blocks

    def recording(rows):
        # the core: the rows left nonempty, the columns they still hold
        cores.append((sum(1 for row in rows if row), len(set().union(*rows))))
        return real(rows)

    monkeypatch.setattr(exact_linalg, "_blocks", recording)
    rng = random.Random("cokernel-no-pivot")
    for _ in range(40):
        blocks = [rng.choice(no_pivot) for _ in range(rng.randint(1, 4))]
        a = _shuffled_blocks(rng, blocks, rng.randint(0, 2), rng.randint(0, 2))
        cores.clear()
        assert cokernel(a) == _whole(a), a
        # a pivot would have emptied its row, so none was taken
        assert cores == [(sum(map(len, blocks)), sum(len(b[0]) for b in blocks))]


def test_cokernel_matches_the_whole_reduction_on_perf_skeleton_boundaries():
    for seed, n in ((0, 8), (1, 12), (2, 20)):
        sk = perf_skeleton(seed, n)
        c = build(sk.k, [m.transpose() for m in sk.matrices], m=n)
        for p in range(1, c.k + 1):
            assert cokernel(c.boundary(p)) == _whole(c.boundary(p))


# --- IntMatrix against nested lists ----------------------------------------

# mostly zeros and units, so rows are sparse and sums cancel, plus
# entries beyond a machine word
ORACLE_ENTRIES = st.one_of(st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
                           st.integers(-10**20, 10**20))


def _grid(data, rows, cols):
    return [data.draw(st.lists(ORACLE_ENTRIES, min_size=cols, max_size=cols))
            for _ in range(rows)]


def _agrees(m: IntMatrix, rows, cols):
    """m holds exactly rows, and equals and hashes like the matrix
    built from them."""
    assert m.shape == (len(rows), cols)
    assert m.to_rows() == rows
    assert m.entries == tuple(x for row in rows for x in row)
    built = IntMatrix.from_rows(rows, cols=cols)
    assert m == built and hash(m) == hash(built)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_int_matrix_matches_nested_lists(data):
    r, n, c, p, q = (data.draw(st.integers(0, 4)) for _ in range(5))
    A, A2, B, K = _grid(data, r, n), _grid(data, r, n), _grid(data, n, c), _grid(data, p, q)
    s = data.draw(ORACLE_ENTRIES)
    a, a2, b, k = (IntMatrix(len(g), w, [x for row in g for x in row])
                   for g, w in ((A, n), (A2, n), (B, c), (K, q)))
    _agrees(a, A, n)
    for i in range(-r - 1, r + 1):
        for j in range(-n - 1, n + 1):
            if -r <= i < r and -n <= j < n:
                assert a[i, j] == A[i][j]
            else:
                with pytest.raises(IndexError):
                    a[i, j]
    _agrees(a.transpose(), [[A[i][j] for i in range(r)] for j in range(n)], r)
    _agrees(a @ b, [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(c)]
                    for i in range(r)], c)
    _agrees(a + a2, [[x + y for x, y in zip(u, v)] for u, v in zip(A, A2)], n)
    _agrees(a - a2, [[x - y for x, y in zip(u, v)] for u, v in zip(A, A2)], n)
    _agrees(s * a, [[s * x for x in row] for row in A], n)
    _agrees(a.kron(k), [[A[i][j] * K[t][u] for j in range(n) for u in range(q)]
                        for i in range(r) for t in range(p)], n * q)
    assert a.is_zero() is (not any(map(any, A)))
    assert a.max_bit_length() == max((abs(x) for row in A for x in row),
                                     default=0).bit_length()
    # equality and hash across construction routes
    for same in (a + a2 - a2, a.transpose().transpose(), 1 * a,
                 a @ IntMatrix.identity(n), IntMatrix.from_rows(A, cols=n)):
        assert same == a and hash(same) == hash(a)
    assert (a == a2) is (A == A2)
    assert (0 * a == IntMatrix.zeros(r, n)) and (a - a).is_zero()


def test_int_matrix_products_and_sums_drop_cancelled_entries():
    prod = IntMatrix.from_rows([[1, 1]]) @ IntMatrix.from_rows([[1], [-1]])
    assert prod.data == ({},) and prod == IntMatrix.zeros(1, 1)
    a = IntMatrix.from_rows([[2, 0, -1]])
    assert (a + (-1) * a).data == ({},)
    assert IntMatrix.zeros(0, 1) != IntMatrix.zeros(0, 2)
    with pytest.raises(DimensionMismatch):
        IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)
    with pytest.raises(DimensionMismatch):
        IntMatrix.zeros(2, 3) + IntMatrix.zeros(3, 2)


def test_blocks_are_the_support_components():
    a = IntMatrix.from_rows([
        [0, 2, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [3, 0, 0, 1, 0],
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ])
    blocks = [(list(r), list(c)) for r, c in _blocks(a.data)]
    # row 1 and column 2 are zero; column 4 is zero too
    assert blocks == [([0, 3], [1]), ([2, 4], [0, 3])]
    assert _blocks(IntMatrix.zeros(3, 0).data) == []
    assert _blocks(IntMatrix.zeros(2, 2).data) == []


# --- connected components -------------------------------------------------

def _bfs_partition(n: int, edges) -> list[list[int]]:
    """Components of the graph on 0 .. n-1, by breadth-first search: each
    ascending, in order of least node."""
    adjacent = [[] for _ in range(n)]
    for x, y in edges:
        adjacent[x].append(y)
        adjacent[y].append(x)
    seen, parts = set(), []
    for start in range(n):
        if start not in seen:
            seen.add(start)
            queue = [start]
            for x in queue:
                for y in adjacent[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            parts.append(sorted(queue))
    return parts


def test_components_match_a_breadth_first_partition():
    rng = random.Random("components")
    for _ in range(500):
        n = rng.randint(0, 12)
        groups = [[rng.randrange(n) for _ in range(rng.randint(1, 4))]
                  for _ in range(rng.randint(0, 8) if n else 0)]
        roots = _components(n, groups)
        parts = {}
        for x, r in enumerate(roots):
            parts.setdefault(r, []).append(x)
        expected = _bfs_partition(n, [(g[0], x) for g in groups for x in g])
        assert list(parts.values()) == expected, (n, groups)
        # each root is a node of its own component
        assert all(roots[r] == r for r in roots)


def test_orbit_count_matches_a_breadth_first_partition_on_any_self_maps():
    # self-maps that need not be bijections, and k = 0
    rng = random.Random("orbit-count")
    for _ in range(500):
        points, k = rng.randint(0, 12), rng.randint(0, 3)
        perms = [[rng.randrange(points) for _ in range(points)] for _ in range(k)]
        edges = [(x, p[x]) for p in perms for x in range(points)]
        assert orbit_count(ZkAction(points, perms)) == len(_bfs_partition(points, edges))


def test_cubical_h0_matches_a_breadth_first_partition():
    # sources allowed, so isolated vertices occur, and loops on the diagonal
    rng = random.Random("cubical-components")
    for _ in range(500):
        n = rng.randint(1, 12)
        density = rng.random() / 2
        m = IntMatrix.from_rows([[rng.randint(1, 3) if rng.random() < density else 0
                                  for _ in range(n)] for _ in range(n)])
        sk = KGraphSkeleton([str(v) for v in range(n)], (m,), allow_sources=True)
        edges = [(v, w) for v, row in enumerate(m.data) for w in row]
        components = len(_bfs_partition(n, edges))
        h0, h1 = cubical_homology_rank1(sk).groups
        assert h0 == FgAbGroup.free(components), m
        assert h1 == FgAbGroup.free(sum(m.entries) - n + components), m


def test_split_cokernel_renormalizes_torsion_across_blocks():
    # Z_2 from one pivot and Z_3 from the other: Z_6. Both entries are
    # eliminated, so the elimination is the only reduction
    a = IntMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 3, 0]])
    with track_entry_growth() as stats:
        c = cokernel(a)
    assert c == FgAbGroup(1, (6,))
    assert stats.reductions == [[3, 3, 2, 2]]
    # two blocks with no divisible pivot, Z_5 and Z_7: Z_35, a Hermite
    # and then a Smith reduction each after the elimination
    a = IntMatrix.from_rows([[2, 3, 0, 0], [0, 0, 3, 4], [3, 2, 0, 0], [0, 0, 4, 3]])
    with track_entry_growth() as stats:
        c = cokernel(a)
    assert c == FgAbGroup(0, (35,))
    assert stats.reductions == [[4, 4, 3, 3], [2, 2, 2, 3], [2, 2, 3, 3],
                                [2, 2, 3, 3], [2, 2, 3, 3]]


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
    # snf's Hermite and Smith stages, then kernel_basis's reduction
    assert len(stats.reductions) == 3
    assert all(inp <= peak for _, _, inp, peak in stats.reductions)
    assert stats.worst_ratio >= 1.0


def test_growth_records_of_the_perf_skeleton_are_pinned():
    # [rows, cols, input bits, peak bits] of each boundary's elimination,
    # then of its core's Hermite stage, with the wide side as rows, then
    # of the Smith stage on the Hermite rows; the top degree has no
    # boundary above it, so nothing is reduced there
    with track_entry_growth() as stats:
        groupoid_homology(perf_skeleton(0, 40))
    assert stats.reductions == [[40, 80, 4, 31], [16, 56, 31, 146], [16, 56, 125, 125],
                                [80, 40, 4, 35], [16, 56, 35, 154], [16, 56, 125, 127]]
    assert stats.peak_bits == 154
