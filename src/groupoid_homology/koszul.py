"""Chain complexes built from commuting integer endomorphisms.

Given commuting m x m integer matrices S_1 .. S_k acting on Z^m, the
complex has degree-p chain group Z^(C(k,p) * m): one block of m base
coordinates per strictly increasing p-tuple of indices from {1..k},
tuples ordered lexicographically, base coordinate fastest-varying. The
boundary drops one index at a time and applies id - S_i with an
alternating sign. Homology of this complex is what the rest of the
package computes for groupoid presentations.

Endomorphisms and boundaries are IntMatrix, which keeps the
{col: value} rows of its nonzeros. A complex stores its endomorphisms
only, and refuses them when it is made unless they commute, so no
record holds a non-complex; boundary(p) writes each
block +-(id - S_i) straight from the rows of S_i each time it is
asked, and homology drops each boundary after its cokernel.
Commutation makes d o d = 0 (Eisenbud, Commutative Algebra, section
17.2), so no boundary composite is taken. A column of the degree-p
boundary holds the nonzeros of p such blocks, at most 2p for a Z^k
action by permutations.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb, prod

from .abelian import FgAbGroup, HomologyProfile, _exact_ints, _list_or_tuple
from .errors import DimensionMismatch, NonCommuting, NotACycle
from .exact_linalg import IntMatrix, cokernel
# unused here, but perfbench/tracing.py wraps these two at this module by name
from .exact_linalg import kernel_basis, solve_columns  # noqa: F401


class KoszulComplex(namedtuple("KoszulComplex", "k m endos")):
    """The complex of k commuting endomorphisms of Z^m, stored as them alone.

    Construction holds the complex's rules: k and m are exact ints, and
    endos a list or tuple (never a set in hash order) of k m x m
    IntMatrix, kept as given; m = None reads m from the first of them,
    so k = 0 needs m >= 0 passed. S_i S_j is compared with S_j S_i for
    every pair i < j in combinations order, the only products taken, and
    the first pair that differs is raised as NonCommuting. Commutation
    makes d o d = 0: column block (i, j) of d_1 d_2 is S_j S_i - S_i S_j,
    and the higher composites vanish by the sign rule. boundary(p)
    writes the degree-p boundary each time it is called.
    """

    __slots__ = ()

    def __new__(cls, k: int, m: int | None, endos):
        (k,) = _exact_ints([k])
        m = None if m is None else _exact_ints([m])[0]
        endos = tuple(_list_or_tuple(endos, "endos"))
        if len(endos) != k:
            raise DimensionMismatch(f"expected {k} endomorphisms, got {len(endos)}")
        for i, s in enumerate(endos):
            if not isinstance(s, IntMatrix):
                raise TypeError(f"endos[{i}] is a {type(s).__name__}, not an IntMatrix")
            if s.shape != (endos[0].rows,) * 2:
                raise DimensionMismatch(
                    f"endomorphisms must all be square of one size; got {s.shape}"
                )
        m0 = endos[0].rows if endos else m
        if m0 is None:
            raise DimensionMismatch("a rank-0 complex needs an explicit rank m")
        if m is not None and m != m0:
            raise DimensionMismatch(f"m={m} disagrees with endomorphism size {m0}")
        if m0 < 0:
            raise DimensionMismatch(f"negative module rank {m0}")
        for i, j in combinations(range(k), 2):
            if endos[i] @ endos[j] != endos[j] @ endos[i]:
                raise NonCommuting(f"endomorphisms {i} and {j} do not commute")
        return super().__new__(cls, k, m0, endos)

    def dim(self, p: int) -> int:
        """Rank of the degree-p chain group; p is an exact int."""
        (p,) = _exact_ints([p])
        if not 0 <= p <= self.k:
            return 0
        return comb(self.k, p) * self.m

    def boundary(self, p: int) -> IntMatrix:
        """Boundary map out of degree p; zero maps close both ends.

        The degree-p boundary sends a generator (i_1 < ... < i_p, v) to
        the sum over j of (-1)^(j+1) (i_1 .. i_p with i_j removed,
        (id - S_{i_j}) v), Z^(C(k,p) * m) -> Z^(C(k,p-1) * m). Column
        block t is written from the rows of each S_i, i in t, with the
        identity and the sign in the same write; a 0 diagonal is left out.
        p is an exact int, so boundary(True) is a TypeError, not d_1.
        """
        (p,) = _exact_ints([p])
        if 1 <= p <= self.k:
            k, m = self.k, self.m
            cols = combinations(range(k), p)  # listed before the (p - 1)-subsets
            row_at = {rest: b * m for b, rest in enumerate(combinations(range(k), p - 1))}
            rows = [{} for _ in range(len(row_at) * m)]
            for ci, t in enumerate(cols):
                off = ci * m
                for jj, i in enumerate(t):
                    sign = -1 if jj % 2 else 1
                    base = row_at[t[:jj] + t[jj + 1:]]
                    for r, s_row in enumerate(self.endos[i].data):
                        row = rows[base + r]
                        for c, x in s_row.items():
                            row[off + c] = -sign * x
                        diag = row.get(off + r, 0) + sign
                        if diag:
                            row[off + r] = diag
                        else:
                            del row[off + r]
            return IntMatrix._wrap(rows, self.dim(p))
        if p == 0:
            return IntMatrix.zeros(0, self.dim(0))
        if p == self.k + 1:
            return IntMatrix.zeros(self.dim(self.k), 0)
        raise ValueError(f"degree {p} outside 0..{self.k + 1}")


def build(k: int, endos, m: int | None = None) -> KoszulComplex:
    """KoszulComplex(k, m, endos), with m read from the first endomorphism
    unless it is passed; the record checks everything, commutation
    included. k = 0 gives the bare module Z^m and needs m.
    """
    return KoszulComplex(k, m, endos)


def homology(c: KoszulComplex, notes=()) -> HomologyProfile:
    """Homology groups H_0 .. H_k of the complex, exactly.

    The chain groups are free, so with n_p = dim(p) and r_p = rank of
    the degree-p boundary, H_p = Z^(n_p - r_p - r_{p+1}) (+) the
    invariant factors > 1 of the degree-(p+1) boundary (Munkres,
    Elements of Algebraic Topology, section 11): the kernel of a map
    between free modules is a direct summand, so all torsion of
    Z^(n_p) / image sits inside kernel / image. So d_1 .. d_k are each
    written, reduced once with no transforms and dropped in turn: the
    cokernel of d_{p+1} gives the torsion, already a chain, and
    n_p - r_{p+1}, and r_p is carried over. Nothing bounds degree k, so
    H_k = Z^(n_k - r_k), and no zero map is reduced. Every record
    commutes, so d o d = 0 and no free rank is negative.
    """
    groups = []
    r_p = 0
    for p in range(c.k):
        coker = cokernel(c.boundary(p + 1))
        groups.append(FgAbGroup(coker.free_rank - r_p, coker.torsion))
        r_p = c.dim(p) - coker.free_rank
    groups.append(FgAbGroup(c.dim(c.k) - r_p))
    return HomologyProfile(tuple(groups), c.k, notes)


def verify_shift_identity(c: KoszulComplex, i: int, degree: int, cycles) -> bool:
    """Check that base-shifting cycles by S_i only moves them by boundaries.

    cycles and each cycle z in it are lists or tuples, read as rows by
    IntMatrix.from_rows; z is a degree-`degree` cycle of exact ints
    (NotACycle otherwise), and i and degree are exact ints. The check
    applies S_i to every base block of z and asks whether
    (id (x) S_i) z - z lies in the integer column span of the next
    boundary, for every z; degree is explicit, as degrees share chain ranks.

    Membership is decided without transforms, by two cokernels: the
    span of A is contained in the span of [A | B], and the two are equal
    exactly when they have equal rank and equal products of nonzero
    invariant factors. Equal ranks give both lattices the same
    saturation, and that product is the index of a lattice in its
    saturation.
    """
    i, p = _exact_ints([i, degree])
    if not 0 <= p <= c.k:
        raise ValueError(f"degree {p} outside 0..{c.k}")
    if not 0 <= i < c.k:
        raise ValueError(f"endomorphism index {i} outside 0..{c.k - 1}")
    Z = IntMatrix.from_rows(_list_or_tuple(cycles, "cycles"), cols=c.dim(p)).transpose()
    if Z.cols == 0:
        return True
    bad = min((j for row in (c.boundary(p) @ Z).data for j in row), default=None)
    if bad is not None:
        raise NotACycle(f"input {bad} is not a degree-{p} cycle")
    # (id (x) S_i) z - z for every cycle z; the product skips the zeros
    moved = IntMatrix.identity(comb(c.k, p)).kron(c.endos[i]) @ Z - Z
    a = c.boundary(p + 1)
    augmented = [{**x, **{a.cols + j: v for j, v in y.items()}}
                 for x, y in zip(a.data, moved.data)]
    return _span_index(a) == _span_index(IntMatrix._wrap(augmented, a.cols + Z.cols))


def _span_index(a: IntMatrix) -> tuple[int, int]:
    """Rank of the column span, and its index in its saturation: rows
    less the free rank of the cokernel, and the product of its torsion."""
    g = cokernel(a)
    return a.rows - g.free_rank, prod(g.torsion)
