"""Chain complexes built from commuting integer endomorphisms.

Given commuting m x m integer matrices S_1 .. S_k acting on Z^m, the
complex has degree-p chain group Z^(C(k,p) * m): one block of m base
coordinates per strictly increasing p-tuple of indices from {1..k},
tuples ordered lexicographically, base coordinate fastest-varying. The
boundary drops one index at a time and applies id - S_i with an
alternating sign. Homology of this complex is what the rest of the
package computes for groupoid presentations.

The complex lives in one form, SparseMatrix rows, from build to
cokernel: build turns each dense endomorphism it is given into rows
once, writes the {col: value} rows of the blocks +-(id - S_i) from
them, checks d o d = 0 row by row, and homology hands the stored
boundaries to cokernel as they are. A column of the degree-p boundary
holds the nonzeros of p such blocks, at most 2p for a Z^k action by
permutations. boundary(p) gives the dense IntMatrix that the reference
functions and the checks take.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb, prod

from .abelian import FgAbGroup, HomologyProfile, _exact_ints
from .errors import BrokenComplex, DimensionMismatch, NonCommuting, NotACycle
from .exact_linalg import IntMatrix, SparseMatrix, cokernel, invariant_factors
# unused here, but perfbench/tracing.py wraps these two at this module by name
from .exact_linalg import kernel_basis, solve_columns  # noqa: F401


class KoszulComplex(namedtuple("KoszulComplex", "k m endos boundaries")):
    """The assembled complex: endomorphisms plus stored boundaries.

    k and m are ints, endos a tuple of k m x m SparseMatrix, and
    boundaries[p - 1] the degree-p boundary for 1 <= p <= k, a
    SparseMatrix mapping Z^(C(k,p) * m) -> Z^(C(k,p-1) * m).
    """

    __slots__ = ()

    def dim(self, p: int) -> int:
        """Rank of the degree-p chain group."""
        if not 0 <= p <= self.k:
            return 0
        return comb(self.k, p) * self.m

    def boundary(self, p: int) -> IntMatrix:
        """Boundary map out of degree p as an IntMatrix; zero maps close
        both ends."""
        if 1 <= p <= self.k:
            return self.boundaries[p - 1].dense()
        if p == 0:
            return IntMatrix.zeros(0, self.dim(0))
        if p == self.k + 1:
            return IntMatrix.zeros(self.dim(self.k), 0)
        raise ValueError(f"degree {p} outside 0..{self.k + 1}")


def build(k: int, endos, m: int | None = None) -> KoszulComplex:
    """Assemble the complex for commuting endomorphisms of Z^m.

    The degree-p boundary sends a generator (i_1 < ... < i_p, v) to the
    sum over j of (-1)^(j+1) times (i_1 .. i_p with i_j removed,
    (id - S_{i_j}) v); for p = 1 this is just (id - S_{i_1}) v. The
    composition of consecutive boundaries is verified to vanish before
    returning. In degree 2 this is the commutation check: column block
    (i, j) of the composite is S_j S_i - S_i S_j, and the first nonzero
    block is raised as NonCommuting. In higher degrees it guards the
    assembly against sign and indexing mistakes (BrokenComplex). An
    IntMatrix endomorphism is turned into SparseMatrix rows once; the
    boundaries are written from those rows and the composite is taken
    row by row, so the check costs about the nonzeros of the lower
    boundary times those of a row of the upper one.

    k = 0 is allowed and gives the bare module Z^m with no boundaries;
    m must then be passed explicitly.
    """
    k = _exact_ints([k])[0]
    m = None if m is None else _exact_ints([m])[0]
    endos = tuple(s if isinstance(s, SparseMatrix) else SparseMatrix.from_dense(s)
                  for s in endos)
    if len(endos) != k:
        raise DimensionMismatch(f"expected {k} endomorphisms, got {len(endos)}")
    if k == 0:
        if m is None:
            raise DimensionMismatch("a rank-0 complex needs an explicit rank m")
        return KoszulComplex(0, m, (), ())
    m0 = endos[0].rows
    for s in endos:
        if s.rows != s.cols or s.rows != m0:
            raise DimensionMismatch(
                f"endomorphisms must all be square of one size; got {s.shape}"
            )
    if m is not None and m != m0:
        raise DimensionMismatch(f"m={m} disagrees with endomorphism size {m0}")

    diffs = [_diff_rows(s) for s in endos]
    boundaries = []
    for p in range(1, k + 1):
        col_index = {t: ci for ci, t in enumerate(combinations(range(k), p))}
        rows = []
        for rest in combinations(range(k), p - 1):
            # one block per index i added to rest, at position jj of t
            blocks = []
            for i in range(k):
                if i not in rest:
                    t = tuple(sorted((*rest, i)))
                    jj = t.index(i)
                    blocks.append((col_index[t] * m0, diffs[i][jj % 2]))
            for r in range(m0):
                row = {}
                for off, blk in blocks:
                    for c, x in blk[r].items():
                        row[off + c] = x
                rows.append(row)
        boundaries.append(SparseMatrix(tuple(rows), len(col_index) * m0))

    for p in range(2, k + 1):
        composite = boundaries[p - 2] @ boundaries[p - 1]
        bad = min((c for row in composite.data for c in row), default=None)
        if bad is not None and p == 2:
            i, j = list(combinations(range(k), 2))[bad // m0]
            raise NonCommuting(f"endomorphisms {i} and {j} do not commute")
        if bad is not None:
            raise BrokenComplex(
                f"boundaries in degrees {p - 1} and {p} do not compose to zero"
            )
    return KoszulComplex(k, m0, endos, tuple(boundaries))


def _diff_rows(s: SparseMatrix):
    """Rows of id - s and of s - id, as {col: value} dicts of nonzeros."""
    plus, minus = [], []
    for r, row in enumerate(s.data):
        d = {c: -x for c, x in row.items()}
        d[r] = 1 - row.get(r, 0)
        if not d[r]:
            del d[r]
        plus.append(d)
        minus.append({c: -x for c, x in d.items()})
    return plus, minus


def _first_nonzero_column(a: IntMatrix) -> int | None:
    """Index of the first column of a with a nonzero entry, or None."""
    return min((j for row in a._data if any(row) for j, x in enumerate(row) if x),
               default=None)


def homology(c: KoszulComplex, notes=()) -> HomologyProfile:
    """Homology groups H_0 .. H_k of the complex, exactly.

    The chain groups are free, so with n_p = dim(p) and r_p = rank of
    the degree-p boundary, H_p = Z^(n_p - r_p - r_{p+1}) (+) the
    invariant factors > 1 of the degree-(p+1) boundary (Munkres,
    Elements of Algebraic Topology, section 11): the kernel of a map
    between free modules is a direct summand, so all torsion of
    Z^(n_p) / image sits inside kernel / image. Each boundary is
    therefore reduced exactly once, with no transforms: the cokernel of
    the stored degree-(p+1) boundary (empty n_k x 0 rows above the top)
    gives the torsion, already a chain, and n_p - r_{p+1}, and r_p is
    carried over from the previous degree. A negative free rank can only
    come from a hand-built complex whose boundaries do not compose to
    zero, and raises BrokenComplex.
    """
    groups = []
    r_p = 0
    for p in range(c.k + 1):
        d = c.boundaries[p] if p < c.k else SparseMatrix(
            tuple({} for _ in range(c.dim(p))), 0)
        coker = cokernel(d)
        free = coker.free_rank - r_p
        if free < 0:
            raise BrokenComplex(
                f"boundary ranks around degree {p} exceed the chain rank "
                f"{d.rows}: the boundaries do not compose to zero"
            )
        groups.append(FgAbGroup(free, coker.torsion))
        r_p = d.rows - coker.free_rank
    profile = HomologyProfile(tuple(groups), c.k, tuple(notes))
    if c.k >= 1 and profile.euler_characteristic() != 0:
        raise BrokenComplex("alternating sum of homology free ranks is nonzero")
    return profile


def _as_column_matrix(vectors, n: int) -> IntMatrix:
    cols = []
    for z in vectors:
        z = _exact_ints(z)
        if len(z) != n:
            raise DimensionMismatch(f"cycle has length {len(z)}, expected {n}")
        cols.append(z)
    return IntMatrix.from_rows(cols, cols=n).transpose()


def verify_shift_identity(c: KoszulComplex, i: int, degree: int, cycles) -> bool:
    """Check that base-shifting cycles by S_i only moves them by boundaries.

    Each element of cycles must be a degree-`degree` cycle z, given as a
    flat integer vector (NotACycle otherwise). The check applies S_i to
    every base block of z and asks whether (id (x) S_i) z - z lies in
    the integer column span of the next boundary; True means it does for
    all of the given cycles. The degree is explicit because different
    degrees can share the same chain rank.

    Membership is decided without transforms: the span of A is contained
    in the span of [A | B], and the two are equal exactly when they have
    equal rank and equal products of nonzero invariant factors. Equal
    ranks give both lattices the same saturation, and that product is
    the index of a lattice in its saturation.
    """
    p = _exact_ints([degree])[0]
    if not 0 <= p <= c.k:
        raise ValueError(f"degree {p} outside 0..{c.k}")
    if not 0 <= i < c.k:
        raise ValueError(f"endomorphism index {i} outside 0..{c.k - 1}")
    Z = _as_column_matrix(cycles, c.dim(p))
    if Z.cols == 0:
        return True
    bad = _first_nonzero_column(c.boundary(p) @ Z)
    if bad is not None:
        raise NotACycle(f"input {bad} is not a degree-{p} cycle")
    # (id (x) S_i) z - z for every cycle z; the product skips the zeros
    moved = IntMatrix.identity(comb(c.k, p)).kron(c.endos[i].dense()) @ Z - Z
    a = c.boundary(p + 1)
    augmented = [x + y for x, y in zip(a._data, moved._data)]
    return _span_index(a) == _span_index(IntMatrix._wrap(augmented, a.cols + Z.cols))


def _span_index(a: IntMatrix) -> tuple[int, int]:
    """Rank of the column span, and its index in its saturation."""
    nonzero = [x for x in invariant_factors(a) if x]
    return len(nonzero), prod(nonzero)
