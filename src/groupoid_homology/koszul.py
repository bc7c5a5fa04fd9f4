"""Chain complexes built from commuting integer endomorphisms.

Given commuting m x m integer matrices S_1 .. S_k acting on Z^m, the
complex has degree-p chain group Z^(C(k,p) * m): one block of m base
coordinates per strictly increasing p-tuple of indices from {1..k},
tuples ordered lexicographically, base coordinate fastest-varying. The
boundary drops one index at a time and applies id - S_i with an
alternating sign. Homology of this complex is what the rest of the
package computes for groupoid presentations.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb, prod

from .abelian import FgAbGroup, HomologyProfile, _exact_ints
from .errors import BrokenComplex, DimensionMismatch, NonCommuting, NotACycle
from .exact_linalg import IntMatrix, cokernel, invariant_factors
# unused here, but perfbench/tracing.py wraps these two at this module by name
from .exact_linalg import kernel_basis, solve_columns  # noqa: F401


class KoszulComplex(namedtuple("KoszulComplex", "k m endos boundaries")):
    """The assembled complex: endomorphisms plus materialized boundaries.

    k and m are ints, endos a tuple of k m x m IntMatrix, and
    boundaries[p - 1] the degree-p boundary matrix for 1 <= p <= k,
    mapping Z^(C(k,p) * m) -> Z^(C(k,p-1) * m).
    """

    __slots__ = ()

    def dim(self, p: int) -> int:
        """Rank of the degree-p chain group."""
        if not 0 <= p <= self.k:
            return 0
        return comb(self.k, p) * self.m

    def boundary(self, p: int) -> IntMatrix:
        """Boundary map out of degree p; zero maps close both ends."""
        if 1 <= p <= self.k:
            return self.boundaries[p - 1]
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
    assembly against sign and indexing mistakes (BrokenComplex). The
    product skips zero entries of its left factor, so a composite of
    sparse boundaries costs about nnz times the row length.

    k = 0 is allowed and gives the bare module Z^m with no boundaries;
    m must then be passed explicitly.
    """
    k = _exact_ints([k])[0]
    m = None if m is None else _exact_ints([m])[0]
    endos = tuple(endos)
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

    diffs = [IntMatrix.identity(m0) - s for s in endos]
    neg_diffs = [-d for d in diffs]
    boundaries = []
    for p in range(1, k + 1):
        col_tuples = list(combinations(range(k), p))
        row_index = {t: idx for idx, t in enumerate(combinations(range(k), p - 1))}
        B = [[0] * (len(col_tuples) * m0) for _ in range(len(row_index) * m0)]
        for ci, t in enumerate(col_tuples):
            for jj, idx in enumerate(t):
                rest = t[:jj] + t[jj + 1:]
                ri = row_index[rest]
                blk = diffs[idx] if jj % 2 == 0 else neg_diffs[idx]
                for r, row in enumerate(blk._data):
                    B[ri * m0 + r][ci * m0:(ci + 1) * m0] = row
        boundaries.append(IntMatrix._wrap(B, len(col_tuples) * m0))

    c = KoszulComplex(k, m0, endos, tuple(boundaries))
    for p in range(2, k + 1):
        bad = _first_nonzero_column(c.boundary(p - 1) @ c.boundary(p))
        if bad is not None and p == 2:
            i, j = list(combinations(range(k), 2))[bad // m0]
            raise NonCommuting(f"endomorphisms {i} and {j} do not commute")
        if bad is not None:
            raise BrokenComplex(
                f"boundaries in degrees {p - 1} and {p} do not compose to zero"
            )
    return c


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
    the degree-(p+1) boundary gives the torsion and n_p - r_{p+1}, and
    r_p is carried over from the previous degree. A negative free rank
    can only come from a hand-built complex whose boundaries do not
    compose to zero, and raises BrokenComplex.
    """
    groups = []
    r_p = 0
    for p in range(c.k + 1):
        d = c.boundary(p + 1)
        coker = cokernel(d)
        free = coker.free_rank - r_p
        if free < 0:
            raise BrokenComplex(
                f"boundary ranks around degree {p} exceed the chain rank "
                f"{d.rows}: the boundaries do not compose to zero"
            )
        groups.append(FgAbGroup.from_orders(free, coker.torsion))
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
    moved = IntMatrix.identity(comb(c.k, p)).kron(c.endos[i]) @ Z - Z
    a = c.boundary(p + 1)
    augmented = [x + y for x, y in zip(a._data, moved._data)]
    return _span_index(a) == _span_index(IntMatrix._wrap(augmented, a.cols + Z.cols))


def _span_index(a: IntMatrix) -> tuple[int, int]:
    """Rank of the column span, and its index in its saturation."""
    nonzero = [x for x in invariant_factors(a) if x]
    return len(nonzero), prod(nonzero)
