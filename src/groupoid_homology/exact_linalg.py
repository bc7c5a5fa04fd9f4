"""Exact linear algebra over the integers.

Matrices of Python ints (so arbitrary precision everywhere), Smith
normal form with unimodular transforms, kernel and cokernel of integer
maps, and columnwise integer solving. No floating point is used at any
point; every result is exact.

One Smith reduction, _smithify, serves every caller. Like _hermite it
reduces a top-left block while appended rows and columns ride along, so
a caller gets a transform only by appending it: nothing for invariant
factors, ranks and cokernels, which are all that homology of a complex
of free modules needs (Munkres, Elements of Algebraic Topology, section
11); identity rows below for kernel bases; both for snf. cokernel's
cores and snf reach it by one route, through _hermite's echelon rows of
full row rank. Matrices cache nothing, so solve_columns reduces its
matrix on every call.

Storage is plain Python: an IntMatrix keeps the {col: value} dicts of
the nonzeros of its rows, plus its column count, so vertex matrices,
Koszul endomorphisms and boundaries are all one type. Its product goes
row by row and costs about the nonzeros of the left factor times those
of a row of the right one. The dense reductions write their input out
as dense row lists, with every row operation one map over a row.

_cokernel is the one reduction on the homology path, and the only one
that consumes the {col: value} rows it is given: cokernel hands it a
copy of a matrix's rows, koszul.homology the rows of each boundary it
has just written, which nothing else holds, so no stored row of a live
IntMatrix ever changes. It takes out pivots that divide their row and
column in place, splits the rows left into the connected blocks of
their support, and writes only each block dense, with its wide side as
rows, for _hermite and then _smithify. The boundaries of a torus orbit
and of a single vertex with every count 3 leave no block at all.
invariant_factors, kernel_basis and det reduce the whole matrix
written dense: they stay the plain references for cokernel.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from math import gcd
from operator import add, mul, sub

from .abelian import FgAbGroup, _exact_ints, _list_or_tuple
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


def _shape(rows, cols) -> list[int]:
    """rows and cols as exact ints, each at least 0: the one shape rule of
    IntMatrix and its factories."""
    rows, cols = shape = _exact_ints((rows, cols))
    if rows < 0 or cols < 0:
        raise DimensionMismatch(f"bad shape ({rows}, {cols})")
    return shape


class IntMatrix:
    """An immutable matrix of arbitrary-precision integers.

    data holds one {col: value} dict per row with the nonzero entries of
    that row, and cols is the column count. Arithmetic never overflows
    and never rounds; all operations return new matrices and no stored
    row is ever changed, so matrices may share rows. Entries, and rows in
    from_rows, are lists or tuples only: a set would be read in hash order.
    """

    __slots__ = ("data", "cols")

    def __init__(self, rows: int, cols: int, entries):
        flat = _exact_ints(_list_or_tuple(entries, "entries"))
        rows, cols = _shape(rows, cols)
        if len(flat) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(flat)}"
            )
        chunks = (flat[i * cols:(i + 1) * cols] for i in range(rows))
        self.data = tuple(dict(compress(enumerate(row), row)) for row in chunks)
        self.cols = cols

    @classmethod
    def _wrap(cls, data, cols: int) -> "IntMatrix":
        # Trusted path: data must be {col: value} dicts of nonzero Python
        # ints with 0 <= col < cols, one per row, never changed afterwards.
        m = object.__new__(cls)
        m.data = tuple(data)
        m.cols = cols
        return m

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = [list(_list_or_tuple(r, f"row {i}"))
                for i, r in enumerate(_list_or_tuple(rows, "rows"))]
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
        n, _ = _shape(n, n)
        return cls._wrap(({i: 1} for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        rows, cols = _shape(rows, cols)
        return cls._wrap(({} for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self):
        return len(self.data), self.cols

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.to_rows()))

    def __getitem__(self, key) -> int:
        """Entry (i, j) by Python's index rules: negative indices count
        from the end, and an index out of range raises IndexError. Both
        are exact ints, so a bool is a TypeError as in True * m."""
        i, j = _exact_ints(key)
        return self.data[i].get(range(self.cols)[j], 0)

    def to_rows(self) -> list[list[int]]:
        out = []
        for row in self.data:
            dense = [0] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def transpose(self) -> "IntMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row.items():
                out[j][i] = x
        return IntMatrix._wrap(out, self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
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
        return IntMatrix._wrap(out, other.cols)

    def _plus(self, other: "IntMatrix", sign: int) -> "IntMatrix":
        """self + sign * other, row by row."""
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")
        out = []
        for row, orow in zip(self.data, other.data):
            acc = dict(row)
            for c, y in orow.items():
                v = acc.pop(c, 0) + sign * y
                if v:
                    acc[c] = v
            out.append(acc)
        return IntMatrix._wrap(out, self.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, -1)

    def __rmul__(self, scalar: int) -> "IntMatrix":
        (scalar,) = _exact_ints((scalar,))
        return IntMatrix._wrap(({c: scalar * x for c, x in row.items()} if scalar else {}
                                for row in self.data), self.cols)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        n = other.cols
        return IntMatrix._wrap(
            ({ja * n + jb: x * y for ja, x in ra.items() for jb, y in rb.items()}
             for ra in self.data for rb in other.data),
            self.cols * n,
        )

    def is_zero(self) -> bool:
        return not any(self.data)

    def max_bit_length(self) -> int:
        """Bit length of the largest entry by absolute value (0 if empty)."""
        return _max_abs([row.values() for row in self.data]).bit_length()

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash((self.cols, tuple(frozenset(row.items()) for row in self.data)))

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix.from_rows({self.to_rows()!r})"
        return f"<IntMatrix {self.rows}x{self.cols}>"


# ---------------------------------------------------------------------------
# entry-growth instrumentation

class EntryGrowthStats:
    """Peak entry bit-length observed inside integer reductions.

    Each elimination of _cokernel, each Hermite stage and each Smith
    reduction is recorded as [rows, cols, input_bits, peak_bits], so
    growth is judged against what that stage was given, not against
    the first matrix in a pipeline.
    """

    __slots__ = ("peak_bits", "reductions")

    def __init__(self, peak_bits: int = 0, reductions: list[list[int]] | None = None):
        self.peak_bits = peak_bits
        self.reductions = [] if reductions is None else reductions

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
        """The first reduction with the largest peak/input bit ratio, if any has input bits."""
        return max((tuple(rec) for rec in self.reductions if rec[2]),
                   key=lambda rec: rec[3] / rec[2], default=None)

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


def _pick_pivot(A, h, w, stats):
    """Position of the least nonzero |entry| in the top-left h x w block
    of the rows A, ties by (row, col).

    The search stops at the first row holding a +-1, since nothing is
    smaller. The block maximum that growth tracking samples is taken in
    a pass of its own, so stopping early never changes the records.
    """
    block = [row[:w] for row in A[:h]]
    if stats is not None:
        stats.note_int(_max_abs(block))
    least, at = 0, None
    for i, row in enumerate(block):
        m = min(map(abs, filter(None, row)), default=0)
        if m and (m < least or not least):
            least, at = m, i
            if m == 1:
                break
    if at is None:
        return None
    row = block[at]
    return at, min(row.index(x) for x in (least, -least) if x in row)


def _smithify(A: list[list[int]], m: int, n: int):
    """Reduce the top-left m x n block of the dense rows A to Smith form;
    return (diagonal, U tails, V rows). A is overwritten.

    Rows from m on and columns from n on ride along: row operations act
    on whole rows among the first m, column operations on whole columns
    < n. So [a | I] over [I | 0] carries U right of a and V below it
    (rows from m on may stop at column n). The U tails are the pivot
    rows from column n on, in pivot order; the V rows are those from m on.

    Pivoting: the nonzero entry of least absolute value in the remaining
    block, ties broken by lowest (row, col). Each clearing pass uses
    nearest-integer quotients q, so remainders stay at most half the
    pivot p: the row pass subtracts q times row t from each row below,
    the column pass q times column t from each column to the right. The
    row pass reads only row t and never writes it, and the column pass
    likewise for column t, so clearing order does not matter. Before a
    pivot is frozen it is forced to divide every entry of the remaining
    block, which yields the divisibility chain. A frozen pivot's U tail
    and V column are saved, and its row and column dropped, so the
    working block is the top-left h x w = (m - t) x (n - t) at step t.
    """
    stats = _TRACK.get()
    if stats is not None:
        stats.begin_reduction(m, n, _max_abs(row[:n] for row in A[:m]))
    limit = min(m, n)
    diag, tails, vcols = [], [], []
    for t in range(limit):
        h, w = m - t, n - t
        pos = _pick_pivot(A, h, w, stats)
        if pos is None:
            break
        while True:
            i, j = pos
            if i:
                A[0], A[i] = A[i], A[0]
            if j:
                for row in A:
                    row[0], row[j] = row[j], row[0]
            top = A[0]
            if top[0] < 0:
                A[0] = top = [-x for x in top]
            p = top[0]
            half = p >> 1
            # row pass: q_r times row t off each row t < r < m
            qs = [(row[0] + half) // p for row in A[:h]]
            qs[0] = 0
            if any(qs):
                A[:h] = [_minus_multiple(row, q, top) if q else row for row, q in zip(A, qs)]
            # column pass: q_j times column t off each column t < j < n
            qs = [(x + half) // p for x in top[:w]]
            qs[0] = 0
            if any(qs):
                qs += [0] * (len(top) - w)  # so map keeps the tails from n on
                A = [_minus_multiple(row, row[0], qs) if row[0] else row for row in A]
            if any(A[0][1:w]) or any(row[0] for row in A[1:h]):
                pos = _pick_pivot(A, h, w, stats)
                continue
            if p == 1:  # divides everything; skips an O(n^2) test per pivot
                break
            off = next((r for r in range(1, h) if any(x % p for x in A[r][:w])), None)
            if off is None:
                break
            # Fold the first offending row into the pivot row; the next
            # clearing pass leaves a remainder strictly smaller than p.
            A[0] = list(map(add, A[0], A[off]))
            pos = _pick_pivot(A, h, w, stats)
        diag.append(p)
        tails.append(A[0][w:])
        vcols.append([row[0] for row in A[h:]])
        A = [row[1:] for row in A[1:]]
    V = [[col[k] for col in vcols] + row for k, row in enumerate(A[m - len(diag):])]
    diag += [0] * (limit - len(diag))
    if stats is not None and diag:
        stats.note_int(max(diag))
    return diag, tails, V


def _hermite(rows, n: int):
    """Echelon form of dense rows, pivoting in columns < n; return (H, kernel tails).

    Rows are inserted one at a time into a basis of echelon rows
    (Kannan and Bachem, SIAM J. Comput. 8, 1979). An incoming row whose
    leading column already holds a pivot p loses its leading entry x: by
    the exact quotient x/p when p divides x, else by the unimodular 2x2
    step that turns the pair into one row led by g = gcd(p, x) and one
    led by 0. A row with nothing left before column n is a kernel row,
    of which only the tail from n on is kept. After each insertion every
    entry above a pivot is reduced into [0, pivot), which keeps entries
    small. H holds the nonzero rows whole, in pivot-column order, so it
    has full row rank. Columns from n on only ride along: [a | I] gives
    H = [h | W] with W @ a = h; W's rows, then the tails, form a unimodular matrix.
    """
    stats = _TRACK.get()
    if stats is not None:
        stats.begin_reduction(len(rows), n, _max_abs(row[:n] for row in rows))
    basis = {}  # pivot column -> echelon row
    kernel = []
    for h in rows:
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
    return [basis[c] for c in sorted(basis)], kernel


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form of a with unimodular transforms.

    u @ a @ v equals diag(d) padded with zeros to a's shape, |det u| =
    |det v| = 1, every d_i >= 0, and each nonzero d_i divides d_{i+1}.
    The reduction is deterministic, so equal inputs give equal outputs.

    Two stages: _hermite takes the rows [a | I] to [H | W] plus kernel
    tails, so W @ a = H; _smithify then reduces [H | W] over [I | 0], so
    its U tails are U2 @ W for U2 @ H @ v diagonal, and v comes out below.
    u is those tails above the kernel tails. Smith forms are unique, so d
    is _smithify(a)'s.
    """
    n = a.cols
    H, kernel = _hermite(list(map(add, a.to_rows(), IntMatrix.identity(a.rows).to_rows())), n)
    r = len(H)
    diag, U, V = _smithify(H + IntMatrix.identity(n).to_rows(), r, n)
    u = IntMatrix.from_rows(U + kernel, cols=a.rows)
    v = IntMatrix.from_rows(V, cols=n)
    d = tuple(diag) + (0,) * (min(a.shape) - r)
    return SnfResult(d, u, v, r)


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form only (no transforms; faster)."""
    return tuple(_smithify(a.to_rows(), a.rows, a.cols)[0])


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Primitive basis of the kernel lattice {x in Z^cols : a @ x = 0}.

    The result has a.cols rows; its columns are a basis, and every
    integer kernel vector is an integer combination of them (the columns
    extend to a basis of Z^cols, so no saturation step is needed). They
    are the columns over zero diagonal entries of the unimodular v that
    _smithify carries below a, given a over I: with u @ a @ v diagonal
    of rank r, a @ v has zero columns from r on, and v being invertible
    over Z makes those columns a basis of the whole kernel.

    Homology does not need this: its kernel ranks are cols - rank. This
    is a utility for callers that want explicit cycles.
    """
    diag, _, V = _smithify(a.to_rows() + IntMatrix.identity(a.cols).to_rows(), a.rows, a.cols)
    r = sum(1 for x in diag if x)
    return IntMatrix.from_rows([row[r:] for row in V], cols=a.cols - r)


def _components(n: int, groups) -> list[int]:
    """Root of each node 0 .. n-1 once the nodes of each group are joined.

    groups holds nonempty iterables of nodes. A union-find with path
    halving links each node of a group to the root of its first, so two
    nodes share a root exactly when a chain of overlapping groups joins
    them. The package's one connected-components routine.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        group = iter(group)
        r = find(next(group))
        for x in group:
            x = find(x)
            if x != r:
                parent[x] = r
    return [find(x) for x in range(n)]


def _blocks(rows) -> list[tuple[list[int], list[int]]]:
    """Connected components of the bipartite support graph of {col: value} rows.

    Rows and columns are the vertices and nonzero entries the edges, so
    _components joins the columns of each row. Each component is (row
    indices, column indices), both ascending; components come in order
    of first row. Empty rows and unheld columns belong to no component.
    """
    held = [row for row in rows if row]
    root = _components(max((max(row) for row in held), default=-1) + 1, held)
    blocks = {}
    for i, row in enumerate(rows):
        if row:
            blocks.setdefault(root[next(iter(row))], ([], []))[0].append(i)
    for j, r in enumerate(root):
        if r in blocks:
            blocks[r][1].append(j)
    return list(blocks.values())


def _cokernel(rows, ncols: int) -> FgAbGroup:
    """Z^len(rows) modulo the column span of the {col: value} rows, which
    are consumed: entries and rows change in place.

    First a sparse elimination of divisible pivots. A pivot is an entry
    x that divides every entry of its row and of its column. Subtracting
    (a_kj / x) times row i from every other row k with a nonzero in
    column j clears the column; the column operations that clear row i
    only touch row i, so they are implied. Both steps are integral and
    unimodular and leave diag(x) (+) A', so the cokernel is Z_x (+)
    coker(A') (Kaczynski, Mrozek and Slusarek 1998; Dumas, Heckenbach,
    Saunders and Welker 2003). Units are the common case.

    Each column keeps the set of rows where it is nonzero. Rows wait in
    a lazy heap keyed by (gcd, length, index); the popped row pivots on
    its +-gcd entry whose column has the fewest nonzeros, among those
    that divide their column. The +-gcd entries are tried in order of
    (column length, column) and the first that divides its column is
    taken, so a column is scanned only until the pivot is found. A row
    with no such entry is taken up again only when an elimination
    changes it, so the core may keep a divisible entry; it is then
    reduced like the rest. An eliminated row is left empty.

    The rows left are split into the connected blocks of their support
    (_blocks): up to row and column order they are block diagonal, so
    their cokernel is the direct sum of the blocks' cokernels and a Z
    per empty row. Each block is written dense with its wide side as
    rows (a matrix and its transpose have the same invariant factors,
    and fewer rows mean fewer insertions into _hermite's echelon basis);
    _smithify reduces the rows of full row rank that _hermite gives, so
    no order is zero. from_orders renormalizes the torsion of all
    pivots and blocks (Z_2 from one block and Z_3 from another give Z_6).
    """
    stats = _TRACK.get()
    if stats is not None:
        stats.begin_reduction(len(rows), ncols, _max_abs([row.values() for row in rows]))
    cols = [set() for _ in range(ncols)]
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
        candidates = sorted((j for j, x in row.items() if abs(x) == g),
                            key=lambda j: (len(cols[j]), j))
        j = next((j for j in candidates
                  if g == 1 or all(rows[k][j] % g == 0 for k in cols[j])), None)
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
    for ri, cj in _blocks(rows):
        if len(ri) > len(cj):
            block = [[rows[i].get(j, 0) for i in ri] for j in cj]
        else:
            block = [[rows[i].get(j, 0) for j in cj] for i in ri]
        H = _hermite(block, len(block[0]))[0]
        orders += _smithify(H, len(H), len(block[0]))[0]
    return FgAbGroup.from_orders(len(rows) - len(orders), [x for x in orders if x > 1])


def cokernel(a: IntMatrix) -> FgAbGroup:
    """Z^rows modulo the column span of a: free rank rows - rank, and the
    invariant factors > 1 as torsion. _cokernel consumes its rows, so a's
    are copied; this is the one place that copies them."""
    return _cokernel(list(map(dict, a.data)), a.cols)


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
    for i, row in enumerate((res.u @ b).to_rows()):
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
    return res.v @ IntMatrix.from_rows(z, cols=b.cols)


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
