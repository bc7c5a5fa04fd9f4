"""Exact linear algebra over the integers.

Dense matrices of Python ints (so arbitrary precision everywhere), Smith
normal form with unimodular transforms, kernel and cokernel of integer
maps, and columnwise integer solving. No floating point is used at any
point; every result is exact.

One reduction, _smithify, serves every caller and carries only the
transforms its caller reads: none for invariant factors, ranks and
cokernels, which are all that homology of a complex of free modules
needs (Munkres, Elements of Algebraic Topology, section 11); the right
transform V for kernel bases; U and V for snf and solve_columns.
Matrices cache nothing, so solve_columns reduces its matrix on every
call.

Storage is a read-only numpy object array: entries stay honest Python
ints while row and column operations run as single vectorized calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .abelian import FgAbGroup
from .errors import DimensionMismatch, NoIntegerSolution


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _obj_zeros(rows: int, cols: int):
    return np.zeros((rows, cols), dtype=object)


def _obj_identity(n: int):
    a = np.zeros((n, n), dtype=object)
    for i in range(n):
        a[i, i] = 1
    return a


class IntMatrix:
    """An immutable dense matrix of arbitrary-precision integers.

    Entries are stored row-major. Arithmetic never overflows and never
    rounds; all operations return new matrices.
    """

    __slots__ = ("_a",)

    def __init__(self, rows: int, cols: int, entries):
        flat = [int(x) for x in entries]
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"bad shape ({rows}, {cols})")
        if len(flat) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(flat)}"
            )
        a = np.empty((rows, cols), dtype=object)
        if flat:
            a.ravel()[:] = flat
        a.flags.writeable = False
        self._a = a

    @classmethod
    def _wrap(cls, array) -> "IntMatrix":
        # Trusted path: array must be a 2-d object ndarray of Python ints.
        m = object.__new__(cls)
        array.flags.writeable = False
        m._a = array
        return m

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"rows have width {width}, expected {cols}")
            cols = width
        elif cols is None:
            cols = 0
        flat = [x for r in rows for x in r]
        return cls(len(rows), cols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._wrap(_obj_identity(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._wrap(_obj_zeros(rows, cols))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self):
        return self._a.shape

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(self._a.ravel(order="C"))

    def __getitem__(self, key) -> int:
        i, j = key
        return self._a[i, j]

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self._a]

    def _writable_copy(self):
        return np.array(self._a, dtype=object)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._wrap(np.array(self._a.T, dtype=object))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return IntMatrix._wrap(np.dot(self._a, other._a))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")
        return IntMatrix._wrap(self._a + other._a)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")
        return IntMatrix._wrap(self._a - other._a)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._wrap(-self._a)

    def __rmul__(self, scalar: int) -> "IntMatrix":
        return IntMatrix._wrap(int(scalar) * self._a)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix._wrap(np.kron(self._a, other._a))

    def is_zero(self) -> bool:
        return not (self._a != 0).any()

    def max_bit_length(self) -> int:
        """Bit length of the largest entry by absolute value (0 if empty)."""
        if self._a.size == 0:
            return 0
        return int(np.abs(self._a).max()).bit_length()

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and bool((self._a == other._a).all())

    def __hash__(self):
        return hash((self.shape, self.entries))

    def __repr__(self):
        if self._a.size <= 36:
            return f"IntMatrix.from_rows({self.to_rows()!r})"
        return f"<IntMatrix {self.rows}x{self.cols}>"


# ---------------------------------------------------------------------------
# entry-growth instrumentation

@dataclass
class EntryGrowthStats:
    """Peak entry bit-length observed inside integer reductions.

    Each diagonal reduction is recorded as [rows, cols, input_bits,
    peak_bits] so growth can be judged against what that reduction was
    actually given, not against the first matrix in a pipeline.
    """

    peak_bits: int = 0
    reductions: list[list[int]] = field(default_factory=list)

    def begin_reduction(self, a):
        bits = 0
        if a.size:
            bits = int(np.abs(a).max()).bit_length()
        self.reductions.append([a.shape[0], a.shape[1], bits, bits])
        if bits > self.peak_bits:
            self.peak_bits = bits

    def note_int(self, magnitude: int):
        b = magnitude.bit_length()
        if b > self.peak_bits:
            self.peak_bits = b
        if self.reductions and b > self.reductions[-1][3]:
            self.reductions[-1][3] = b

    def note_array(self, a):
        if a.size:
            self.note_int(int(np.abs(a).max()))

    def worst_reduction(self) -> tuple[int, int, int, int] | None:
        """The recorded reduction with the largest peak/input bit ratio."""
        worst = None
        worst_key = -1.0
        for rec in self.reductions:
            rows, cols, inp, peak = rec
            if inp == 0:
                continue
            key = peak / inp
            if key > worst_key:
                worst_key = key
                worst = (rows, cols, inp, peak)
        return worst

    @property
    def worst_ratio(self) -> float:
        rec = self.worst_reduction()
        if rec is None:
            return 0.0
        return rec[3] / rec[2]


_TRACK: ContextVar[EntryGrowthStats | None] = ContextVar(
    "entry_growth_stats", default=None
)


@contextmanager
def track_entry_growth():
    """Record the largest entry seen during reductions in this context.

    The performance check uses this to confirm that pivot selection keeps
    intermediate entries from exploding. Sampling happens once per
    reduction round, which brackets the true peak closely because every
    round rescans the active block.
    """
    stats = EntryGrowthStats()
    token = _TRACK.set(stats)
    try:
        yield stats
    finally:
        _TRACK.reset(token)


# ---------------------------------------------------------------------------
# Smith normal form

@dataclass(frozen=True)
class SnfResult:
    """d, u, v with u @ a @ v = diag(d) padded to a's shape.

    d has length min(rows, cols), entries non-negative, nonzero entries
    leading and each dividing the next. u and v are unimodular.
    """

    d: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix
    rank: int


def _pick_pivot(D, t, stats):
    """Position of the least nonzero |entry| in D[t:, t:], ties by (row, col)."""
    block = D[t:, t:]
    if block.size == 0:
        return None
    flat = np.abs(block.ravel(order="C"))
    if stats is not None:
        stats.note_int(int(flat.max()))
    mask = flat != 0
    if not mask.any():
        return None
    least = flat[mask].min()
    idx = int(np.flatnonzero(flat == least)[0])
    bcols = block.shape[1]
    return t + idx // bcols, t + idx % bcols


def _nearest_quotient(x: int, p: int) -> int:
    # p > 0; remainder x - q*p lies in [-p/2, p/2]
    return (x + (p >> 1)) // p


def _first_nondivisible_row(D, t, p):
    """First row > t whose block entries are not all divisible by p."""
    if p == 1:
        return None
    rows, cols = D.shape
    for i in range(t + 1, rows):
        if ((D[i, t + 1:] % p) != 0).any():
            return i
    return None


def _smithify(D, want_u: bool, want_v: bool):
    """Reduce D in place to Smith form; return (diagonal, U, V).

    Pivoting: the nonzero entry of least absolute value in the remaining
    block, ties broken by lowest (row, col). Row and column clearing use
    nearest-integer quotients so remainders stay at most half the pivot.
    Before a pivot is frozen it is forced to divide every entry of the
    remaining block, which yields the divisibility chain.
    """
    rows, cols = D.shape
    U = _obj_identity(rows) if want_u else None
    V = _obj_identity(cols) if want_v else None
    stats = _TRACK.get()
    if stats is not None:
        stats.begin_reduction(D)
    limit = min(rows, cols)
    t = 0
    while t < limit:
        pos = _pick_pivot(D, t, stats)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                D[[t, i], :] = D[[i, t], :]
                if want_u:
                    U[[t, i], :] = U[[i, t], :]
            if j != t:
                D[:, [t, j]] = D[:, [j, t]]
                if want_v:
                    V[:, [t, j]] = V[:, [j, t]]
            if D[t, t] < 0:
                D[t, :] = -D[t, :]
                if want_u:
                    U[t, :] = -U[t, :]
            p = int(D[t, t])
            dirty = False
            for i in range(t + 1, rows):
                x = int(D[i, t])
                if x:
                    q = _nearest_quotient(x, p)
                    if q:
                        D[i, t:] -= q * D[t, t:]
                        if want_u:
                            U[i, :] -= q * U[t, :]
                    if D[i, t]:
                        dirty = True
            for j in range(t + 1, cols):
                x = int(D[t, j])
                if x:
                    q = _nearest_quotient(x, p)
                    if q:
                        D[t:, j] -= q * D[t:, t]
                        if want_v:
                            V[:, j] -= q * V[:, t]
                    if D[t, j]:
                        dirty = True
            if dirty:
                pos = _pick_pivot(D, t, stats)
                continue
            off = _first_nondivisible_row(D, t, p)
            if off is None:
                break
            # Fold the offending row into the pivot row; the next clearing
            # pass leaves a remainder strictly smaller than the pivot.
            D[t, t:] += D[off, t:]
            if want_u:
                U[t, :] += U[off, :]
            pos = _pick_pivot(D, t, stats)
        t += 1
    if stats is not None and D.size:
        stats.note_array(D)
    diag = [int(D[i, i]) for i in range(limit)]
    return diag, U, V


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form of a with unimodular transforms.

    u @ a @ v equals diag(d) padded with zeros to a's shape, |det u| =
    |det v| = 1, every d_i >= 0, and each nonzero d_i divides d_{i+1}.
    The reduction is deterministic, so equal inputs give equal outputs.
    """
    D = a._writable_copy()
    diag, U, V = _smithify(D, True, True)
    rank = sum(1 for x in diag if x)
    return SnfResult(tuple(diag), IntMatrix._wrap(U), IntMatrix._wrap(V), rank)


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form only (no transforms; faster)."""
    D = a._writable_copy()
    diag, _, _ = _smithify(D, False, False)
    return tuple(diag)


def rank(a: IntMatrix) -> int:
    return sum(1 for x in invariant_factors(a) if x)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Primitive basis of the kernel lattice {x in Z^cols : a @ x = 0}.

    The result has a.cols rows; its columns are a basis, and every
    integer kernel vector is an integer combination of them (the columns
    extend to a basis of Z^cols, so no saturation step is needed). They
    are the columns of the unimodular right transform of the diagonal
    reduction that sit over zero diagonal entries: with u @ a @ v
    diagonal of rank r, a @ v has zero columns from r on, and v being
    invertible over Z makes those columns a basis of the whole kernel.

    Homology does not need this: its kernel ranks are cols - rank. This
    is a utility for callers that want explicit cycles.
    """
    D = a._writable_copy()
    diag, _, V = _smithify(D, False, True)
    r = sum(1 for x in diag if x)
    return IntMatrix._wrap(np.array(V[:, r:], dtype=object))


def cokernel(a: IntMatrix) -> FgAbGroup:
    """Z^rows modulo the column span of a.

    Free rank is rows - rank; the invariant factors > 1 are the torsion.
    """
    diag = invariant_factors(a)
    r = sum(1 for x in diag if x)
    return FgAbGroup.from_orders(a.rows - r, [x for x in diag if x > 1])


def solve_columns(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve a @ y = b over the integers, one column of b at a time.

    Returns an integer y (a.cols x b.cols) or raises NoIntegerSolution
    if some column of b is outside the integer column span of a.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(
            f"a has {a.rows} rows but b has {b.rows}"
        )
    res = snf(a)
    c = (res.u @ b)._writable_copy()
    d = res.d
    z = _obj_zeros(a.cols, b.cols)
    for i in range(a.rows):
        di = d[i] if i < len(d) else 0
        row = c[i, :]
        if di == 0:
            bad = np.flatnonzero(row != 0)
            if bad.size:
                j = int(bad[0])
                raise NoIntegerSolution(
                    f"column {j} of the right-hand side is not in the span"
                )
        else:
            rem = row % di
            bad = np.flatnonzero(rem != 0)
            if bad.size:
                j = int(bad[0])
                raise NoIntegerSolution(
                    f"column {j} of the right-hand side needs a non-integer "
                    f"multiple of invariant factor {di}"
                )
            z[i, :] = row // di
    return res.v @ IntMatrix._wrap(z)


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"determinant needs a square matrix, got {a.shape}")
    n = a.rows
    if n == 0:
        return 1
    M = a._writable_copy()
    sign = 1
    prev = 1
    for t in range(n - 1):
        if M[t, t] == 0:
            for i in range(t + 1, n):
                if M[i, t]:
                    M[[t, i], :] = M[[i, t], :]
                    sign = -sign
                    break
            else:
                return 0
        piv = M[t, t]
        for i in range(t + 1, n):
            f = M[i, t]
            M[i, t + 1:] = (piv * M[i, t + 1:] - f * M[t, t + 1:]) // prev
            M[i, t] = 0
        prev = piv
    return sign * int(M[n - 1, n - 1])


def is_unimodular(a: IntMatrix) -> bool:
    return a.rows == a.cols and det(a) in (1, -1)
