"""Exact linear algebra over the integers.

Dense matrices of Python ints (so arbitrary precision everywhere), Smith
normal form with unimodular transforms, kernel and cokernel of integer
maps, and columnwise integer solving. No floating point is used at any
point; every result is exact.

One Smith reduction, _smithify, serves every caller and carries only
the transforms its caller reads: none for invariant factors, ranks and
cokernels, which are all that homology of a complex of free modules
needs (Munkres, Elements of Algebraic Topology, section 11); the right
transform V for kernel bases; U and V for snf and solve_columns. snf
runs a Hermite stage, _hermite, before it: reduced echelon rows keep
the transforms to hundreds of bits where reducing a directly gives
thousands. Matrices cache nothing, so solve_columns reduces its matrix
on every call.

Storage is plain Python: an IntMatrix is a tuple of row tuples plus
its column count. Reductions work on row lists, with every row
operation one map over a row; _smithify keeps V transposed, so column
operations on V are row operations too. Products skip the zero entries
of their left factor.

A SparseMatrix keeps only the {col: value} dicts of its rows; its
product costs about the nonzeros of the left factor times those of a
row of the right one. It is the one form on the homology path: the
Koszul endomorphisms and boundaries are stored this way, and cokernel
takes nothing else. _eliminate first takes out pivots that divide their
row and column and hands back the rows it leaves; those are split into
the connected blocks of their support, and only each block is written
dense, with its wide side as rows, for _smithify. The boundaries of a
torus orbit and of a single vertex with every count 3 leave no block
at all. invariant_factors, snf, kernel_basis, solve_columns and det
reduce the whole dense matrix, which keeps them a reference for
cokernel.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from math import gcd
from operator import add, mul, neg, sub

from .abelian import FgAbGroup, _exact_ints
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


def _identity_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def _minus_multiple(row, q: int, other) -> list[int]:
    """row - q * other, entry by entry."""
    if q == 1:
        return list(map(sub, row, other))
    if q == -1:
        return list(map(add, row, other))
    return list(map(sub, row, map(mul, other, repeat(q))))


def _max_abs(rows) -> int:
    """Largest |entry| over a sequence of rows (0 if there is none)."""
    return max((max(map(abs, row), default=0) for row in rows), default=0)


class IntMatrix:
    """An immutable dense matrix of arbitrary-precision integers.

    Entries are stored as a tuple of row tuples. Arithmetic never
    overflows and never rounds; all operations return new matrices.
    """

    __slots__ = ("_data", "_ncols")

    def __init__(self, rows: int, cols: int, entries):
        flat = _exact_ints(entries)
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"bad shape ({rows}, {cols})")
        if len(flat) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(flat)}"
            )
        self._data = tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows))
        self._ncols = cols

    @classmethod
    def _wrap(cls, rows, cols: int) -> "IntMatrix":
        # Trusted path: rows must be sequences of cols Python ints each.
        m = object.__new__(cls)
        m._data = tuple(map(tuple, rows))
        m._ncols = cols
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
        return cls._wrap(_identity_rows(n), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._wrap(((0,) * cols,) * rows, cols)

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return self._ncols

    @property
    def shape(self):
        return len(self._data), self._ncols

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self._data))

    def __getitem__(self, key) -> int:
        i, j = key
        return self._data[i][j]

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self._data]

    def transpose(self) -> "IntMatrix":
        if not self._data:
            return IntMatrix.zeros(self._ncols, 0)
        return IntMatrix._wrap(zip(*self._data), self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # one scaled row of other per nonzero entry of self
        zero = (0,) * other._ncols
        out = []
        for row in self._data:
            acc = zero
            for x, orow in zip(row, other._data):
                if x:
                    acc = _minus_multiple(acc, -x, orow)
            out.append(acc)
        return IntMatrix._wrap(out, other._ncols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")
        return IntMatrix._wrap(
            (map(add, r, s) for r, s in zip(self._data, other._data)), self._ncols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")
        return IntMatrix._wrap(
            (map(sub, r, s) for r, s in zip(self._data, other._data)), self._ncols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._wrap((map(neg, row) for row in self._data), self._ncols)

    def __rmul__(self, scalar: int) -> "IntMatrix":
        (scalar,) = _exact_ints((scalar,))
        return IntMatrix._wrap(([scalar * x for x in row] for row in self._data),
                               self._ncols)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix._wrap(
            ([x * y for x in ra for y in rb] for ra in self._data for rb in other._data),
            self._ncols * other._ncols,
        )

    def is_zero(self) -> bool:
        return not any(map(any, self._data))

    def max_bit_length(self) -> int:
        """Bit length of the largest entry by absolute value (0 if empty)."""
        return _max_abs(self._data).bit_length()

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self._data == other._data

    def __hash__(self):
        return hash((self._ncols, self._data))

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix.from_rows({self.to_rows()!r})"
        return f"<IntMatrix {self.rows}x{self.cols}>"


class SparseMatrix(namedtuple("SparseMatrix", "data cols")):
    """An integer matrix kept as the {col: value} dicts of its rows.

    data is a tuple with one dict per row holding its nonzero entries;
    cols is the column count. koszul.build stores its endomorphisms and
    boundaries this way and cokernel eliminates them as they are.
    dense() gives the IntMatrix that the reference functions take.
    """

    __slots__ = ()

    @classmethod
    def from_dense(cls, a: IntMatrix) -> "SparseMatrix":
        return cls(tuple(dict(compress(enumerate(row), row)) for row in a._data), a.cols)

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self):
        return len(self.data), self.cols

    def __hash__(self):
        return hash((self.cols, tuple(frozenset(row.items()) for row in self.data)))

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """Product row by row: each nonzero x of a row adds x times one
        row of other. Zero sums are dropped."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for row in self.data:
            acc = {}
            for j, x in row.items():
                for c, y in other.data[j].items():
                    acc[c] = acc.get(c, 0) + x * y
            out.append({c: v for c, v in acc.items() if v})
        return SparseMatrix(tuple(out), other.cols)

    def dense(self) -> IntMatrix:
        return IntMatrix._wrap(([row.get(j, 0) for j in range(self.cols)]
                                for row in self.data), self.cols)


# ---------------------------------------------------------------------------
# entry-growth instrumentation

class EntryGrowthStats:
    """Peak entry bit-length observed inside integer reductions.

    Each diagonal reduction and each elimination of cokernel is recorded
    as [rows, cols, input_bits, peak_bits] so growth can be judged
    against what that reduction was actually given, not against the
    first matrix in a pipeline.
    transform_bits is the bit length of the largest entry of any U or V
    that snf returned.
    """

    __slots__ = ("peak_bits", "reductions", "transform_bits")

    def __init__(self, peak_bits: int = 0, reductions: list[list[int]] | None = None,
                 transform_bits: int = 0):
        self.peak_bits = peak_bits
        self.reductions = [] if reductions is None else reductions
        self.transform_bits = transform_bits

    def begin_reduction(self, rows: int, cols: int, magnitude: int):
        bits = magnitude.bit_length()
        self.reductions.append([rows, cols, bits, bits])
        if bits > self.peak_bits:
            self.peak_bits = bits

    def note_int(self, magnitude: int):
        b = magnitude.bit_length()
        if b > self.peak_bits:
            self.peak_bits = b
        if self.reductions and b > self.reductions[-1][3]:
            self.reductions[-1][3] = b

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

class SnfResult(namedtuple("SnfResult", "d u v rank")):
    """d, u, v with u @ a @ v = diag(d) padded to a's shape.

    d is a tuple of length min(rows, cols), entries non-negative, nonzero
    entries leading and each dividing the next. u and v are unimodular
    IntMatrix; rank counts the nonzero entries of d.
    """

    __slots__ = ()


def _pick_pivot(A, stats):
    """Position of the least nonzero |entry| in the block A, ties by (row, col).

    The search stops at the first row holding a +-1, since nothing is
    smaller. The block maximum that growth tracking samples is taken in
    a pass of its own, so stopping early never changes the records.
    """
    if stats is not None:
        stats.note_int(_max_abs(A))
    least, at = 0, None
    for i, row in enumerate(A):
        m = min(map(abs, filter(None, row)), default=0)
        if m and (m < least or not least):
            least, at = m, i
            if m == 1:
                break
    if at is None:
        return None
    row = A[at]
    return at, min(row.index(x) for x in (least, -least) if x in row)


def _smithify(a: IntMatrix, want_u: bool, want_v: bool):
    """Reduce a to Smith form; return (diagonal, U, V^t) as row lists.

    Pivoting: the nonzero entry of least absolute value in the remaining
    block, ties broken by lowest (row, col). Each clearing pass uses
    nearest-integer quotients q, so remainders stay at most half the
    pivot p: the row pass subtracts q times row t from each row below,
    the column pass q times column t from each column to the right. The
    row pass reads only row t and never writes it, and the column pass
    likewise for column t, so clearing order does not matter. Before a
    pivot is frozen it is forced to divide every entry of the remaining
    block, which yields the divisibility chain. A frozen pivot's row and
    column are zero apart from the pivot, so the working block A is the
    trailing (rows - t) x (cols - t) block at step t.
    """
    A, nrows, cols = a.to_rows(), a.rows, a.cols
    U = _identity_rows(nrows) if want_u else None
    Vt = _identity_rows(cols) if want_v else None
    stats = _TRACK.get()
    if stats is not None:
        stats.begin_reduction(nrows, cols, _max_abs(A))
    limit = min(nrows, cols)
    diag = []
    for t in range(limit):
        pos = _pick_pivot(A, stats)
        if pos is None:
            break
        while True:
            i, j = pos
            if i:
                A[0], A[i] = A[i], A[0]
                if want_u:
                    U[t], U[t + i] = U[t + i], U[t]
            if j:
                for row in A:
                    row[0], row[j] = row[j], row[0]
                if want_v:
                    Vt[t], Vt[t + j] = Vt[t + j], Vt[t]
            top = A[0]
            if top[0] < 0:
                A[0] = top = [-x for x in top]
                if want_u:
                    U[t] = [-x for x in U[t]]
            p = top[0]
            h = p >> 1
            # row pass: q_r times row t off each row r > t
            qs = [(row[0] + h) // p for row in A]
            qs[0] = 0
            if any(qs):
                A = [_minus_multiple(row, q, top) if q else row for row, q in zip(A, qs)]
                if want_u:
                    U[t:] = [_minus_multiple(row, q, U[t]) if q else row
                             for row, q in zip(U[t:], qs)]
            # column pass: q_j times column t off each column j > t
            qs = [(x + h) // p for x in A[0]]
            qs[0] = 0
            if any(qs):
                A = [_minus_multiple(row, row[0], qs) if row[0] else row for row in A]
                if want_v:
                    Vt[t:] = [_minus_multiple(row, q, Vt[t]) if q else row
                              for row, q in zip(Vt[t:], qs)]
            if any(A[0][1:]) or any(row[0] for row in A[1:]):
                pos = _pick_pivot(A, stats)
                continue
            if p == 1:  # divides everything; skips an O(n^2) test per pivot
                break
            off = next((r for r in range(1, len(A)) if any(x % p for x in A[r])), None)
            if off is None:
                break
            # Fold the first offending row into the pivot row; the next
            # clearing pass leaves a remainder strictly smaller than p.
            A[0] = list(map(add, A[0], A[off]))
            if want_u:
                U[t] = list(map(add, U[t], U[t + off]))
            pos = _pick_pivot(A, stats)
        diag.append(p)
        A = [row[1:] for row in A[1:]]
    diag += [0] * (limit - len(diag))
    if stats is not None and diag:
        stats.note_int(max(diag))
    return diag, U, Vt


def _hermite(a: IntMatrix):
    """Row echelon form H of a with W @ a = H; return (H rows, W rows).

    The rows of a are inserted one at a time into a basis of echelon
    rows (Kannan and Bachem, SIAM J. Comput. 8, 1979). Each row carries
    its row of W on its right, so one row operation updates both. An
    incoming row whose leading column already holds a pivot p loses its
    leading entry x: by the exact quotient x/p when p divides x, else by
    the unimodular 2x2 step that turns the pair into one row led by
    g = gcd(p, x) and one led by 0. A row that runs out of entries is a
    left-kernel row of W. After each insertion every entry above a
    pivot is reduced into [0, pivot), which keeps the entries of H and
    W small. H holds the nonzero rows in pivot-column order, and W their
    transforms followed by the kernel rows, so W is unimodular.
    """
    m, n = a.rows, a.cols
    stats = _TRACK.get()
    if stats is not None:
        stats.begin_reduction(m, n, _max_abs(a._data))
    basis = {}  # pivot column -> row of [H | W]
    kernel = []
    for i, row in enumerate(a._data):
        h = [*row, *[0] * i, 1, *[0] * (m - i - 1)]
        c = 0
        while True:
            c = next((j for j in range(c, n) if h[j]), None)
            if c is None:
                kernel.append(h[n:])
                break
            if c not in basis:
                basis[c] = [-x for x in h] if h[c] < 0 else h
                break
            top = basis[c]
            p, x = top[c], h[c]
            if x % p:
                g, s, t = xgcd(p, x)
                basis[c] = [s * y + t * z for y, z in zip(top, h)]
                h = [p // g * z - x // g * y for y, z in zip(top, h)]
            else:
                h = _minus_multiple(h, x // p, top)
            if stats is not None:
                stats.note_int(_max_abs((h, basis[c])))
        pivots = sorted(basis)
        for k, c in enumerate(pivots):
            top = basis[c]
            for above in pivots[:k]:
                q = basis[above][c] // top[c]
                if q:
                    basis[above] = _minus_multiple(basis[above], q, top)
        if stats is not None:
            stats.note_int(_max_abs(basis.values()))
    rows = [basis[c] for c in sorted(basis)]
    return [h[:n] for h in rows], [h[n:] for h in rows] + kernel


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form of a with unimodular transforms.

    u @ a @ v equals diag(d) padded with zeros to a's shape, |det u| =
    |det v| = 1, every d_i >= 0, and each nonzero d_i divides d_{i+1}.
    The reduction is deterministic, so equal inputs give equal outputs.

    Two stages: _hermite gives H = W @ a, then _smithify reduces the
    nonzero rows of H to U2 @ H @ v = diagonal, and u = U2 @ W on those
    rows. d is what _smithify(a) gives, since Smith forms are unique.
    """
    H, W = _hermite(a)
    r = len(H)
    diag, U, Vt = _smithify(IntMatrix._wrap(H, a.cols), True, True)
    top = IntMatrix._wrap(U, r) @ IntMatrix._wrap(W[:r], a.rows)
    u = IntMatrix._wrap([*top._data, *W[r:]], a.rows)
    v = IntMatrix._wrap(Vt, a.cols).transpose()
    stats = _TRACK.get()
    if stats is not None:
        stats.transform_bits = max(stats.transform_bits, u.max_bit_length(),
                                   v.max_bit_length())
    d = tuple(diag) + (0,) * (min(a.shape) - r)
    return SnfResult(d, u, v, r)


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form only (no transforms; faster)."""
    diag, _, _ = _smithify(a, False, False)
    return tuple(diag)


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
    diag, _, Vt = _smithify(a, False, True)
    r = sum(1 for x in diag if x)
    return IntMatrix._wrap(Vt[r:], a.cols).transpose()


def _blocks(rows) -> list[tuple[list[int], list[int]]]:
    """Connected components of the bipartite support graph of {col: value} rows.

    Rows and columns are the vertices and nonzero entries the edges.
    Each component is (row indices, column indices), both ascending;
    components come in order of first row. Empty rows and columns that
    no row holds belong to no component.
    """
    col_rows = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, []).append(i)
    placed = set()
    blocks = []
    for start, row in enumerate(rows):
        if not row or start in placed:
            continue
        found, cols, stack = {start}, set(), [start]
        while stack:
            for j in rows[stack.pop()]:
                if j not in cols:
                    cols.add(j)
                    new = [i for i in col_rows[j] if i not in found]
                    found.update(new)
                    stack += new
        placed |= found
        blocks.append((sorted(found), sorted(cols)))
    return blocks


def _eliminate(a: SparseMatrix):
    """Sparse elimination of divisible pivots; return (orders, rows).

    A pivot is an entry x that divides every entry of its row and of its
    column. Subtracting (a_kj / x) times row i from every other row k
    with a nonzero in column j clears the column; the column operations
    that clear row i only touch row i, so they are implied. Both steps
    are integral and unimodular and leave diag(x) (+) A', so coker(a) is
    Z_x (+) coker(A') (Kaczynski, Mrozek and Slusarek 1998; Dumas,
    Heckenbach, Saunders and Welker 2003). Units are the common case.

    The elimination works on copies of the {col: value} rows of a, and
    each column keeps the set of rows where it is nonzero. Rows wait in a
    lazy heap keyed by (gcd, length, index); the popped row pivots on its
    +-gcd entry whose column has the fewest nonzeros, among those that
    divide their column. A row with no such entry is taken up again only
    when an elimination changes it, so the core may keep a divisible
    entry; it is then reduced like the rest. orders holds |x| of each
    pivot; rows are the {col: value} rows left over, one per row of a,
    and the eliminated ones are empty.
    """
    rows = list(map(dict, a.data))
    stats = _TRACK.get()
    if stats is not None:
        stats.begin_reduction(a.rows, a.cols, _max_abs([row.values() for row in rows]))
    cols = [set() for _ in range(a.cols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    queued = {i: (gcd(*row.values()), len(row)) for i, row in enumerate(rows) if row}
    heap = [(*key, i) for i, key in queued.items()]
    heapify(heap)
    orders = []
    while heap:
        g, n, i = heappop(heap)
        if queued.get(i) != (g, n):
            continue
        del queued[i]
        row = rows[i]
        j = min((j for j, x in row.items() if abs(x) == g and (
            g == 1 or all(rows[k][j] % g == 0 for k in cols[j]))),
            key=lambda j: (len(cols[j]), j), default=None)
        if j is None:
            continue
        for c in row:
            cols[c].discard(i)
        x = row.pop(j)
        orders.append(g)
        rows[i] = {}
        touched, cols[j] = cols[j], set()
        for k in touched:
            rk = rows[k]
            q = rk.pop(j) // x
            for c, v in row.items():
                w = rk.pop(c, 0) - q * v
                if w:
                    rk[c] = w
                    cols[c].add(k)
                else:
                    cols[c].discard(k)
            if rk:
                key = (gcd(*rk.values()), len(rk))
                if queued.get(k) != key:
                    queued[k] = key
                    heappush(heap, (*key, k))
            else:
                queued.pop(k, None)
        if stats is not None:
            stats.note_int(_max_abs([rows[k].values() for k in touched]))
    return orders, rows


def cokernel(a: SparseMatrix) -> FgAbGroup:
    """Z^rows modulo the column span of a.

    Free rank is rows - rank; the invariant factors > 1 are the torsion.
    _eliminate takes out divisible pivots first. The rows it leaves are
    split into the connected blocks of their support (_blocks): up to
    row and column order they are block diagonal, so their cokernel is
    the direct sum of the blocks' cokernels and a Z per empty row. Each
    block is written dense with its wide side as rows and reduced by
    invariant_factors, since a matrix and its transpose have the same
    invariant factors and _smithify does one row operation per row per
    clearing pass. from_orders renormalizes the torsion of all pivots
    and blocks (Z_2 from one block and Z_3 from another give Z_6).
    """
    orders, rows = _eliminate(a)
    for ri, cj in _blocks(rows):
        if len(ri) > len(cj):
            block = [[rows[i].get(j, 0) for i in ri] for j in cj]
        else:
            block = [[rows[i].get(j, 0) for j in cj] for i in ri]
        orders += invariant_factors(IntMatrix._wrap(block, len(block[0])))
    r = sum(1 for x in orders if x)
    return FgAbGroup.from_orders(a.rows - r, [x for x in orders if x > 1])


def solve_columns(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve a @ y = b over the integers, one column of b at a time.

    Returns an integer y (a.cols x b.cols) or raises NoIntegerSolution
    if some column of b is outside the integer column span of a.

    Homology never calls this; it stays as the tests' solving oracle and
    because perfbench/tracing.py wraps koszul.solve_columns by name.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(
            f"a has {a.rows} rows but b has {b.rows}"
        )
    res = snf(a)
    d = res.d
    z = [[0] * b.cols for _ in range(a.cols)]
    for i, row in enumerate((res.u @ b)._data):
        di = d[i] if i < len(d) else 0
        if di == 0:
            j = next((j for j, x in enumerate(row) if x), None)
            if j is not None:
                raise NoIntegerSolution(
                    f"column {j} of the right-hand side is not in the span"
                )
        else:
            j = next((j for j, x in enumerate(row) if x % di), None)
            if j is not None:
                raise NoIntegerSolution(
                    f"column {j} of the right-hand side needs a non-integer "
                    f"multiple of invariant factor {di}"
                )
            z[i] = [x // di for x in row]
    return res.v @ IntMatrix._wrap(z, b.cols)


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"determinant needs a square matrix, got {a.shape}")
    if a.rows == 0:
        return 1
    M = a.to_rows()
    sign = prev = 1
    while len(M) > 1:
        if not M[0][0]:
            i = next((i for i, row in enumerate(M) if row[0]), None)
            if i is None:
                return 0
            M[0], M[i] = M[i], M[0]
            sign = -sign
        piv, rest = M[0][0], M[0][1:]
        M = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], rest)]
             for row in M[1:]]
        prev = piv
    return sign * M[0][0]
