"""Finitely generated abelian groups in invariant-factor form.

Groups are recorded up to isomorphism as Z^r (+) Z_d1 (+) ... (+) Z_dn
with 2 <= d1 | d2 | ... | dn, the invariant-factor chain. Keeping every
instance canonical makes equality of instances the same thing as
isomorphism of groups, so homology computed along different routes can
be compared with ==.
"""

from __future__ import annotations

import math
import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field


def _exact_ints(values) -> list[int]:
    """values as Python ints. Anything non-integral, bool included, is a
    TypeError rather than being truncated or read as 0/1."""
    values = list(values)
    if bool in map(type, values):
        raise TypeError("expected integers, got a bool")
    return list(map(operator.index, values))


def _divisibility_chain(orders) -> tuple[int, ...]:
    """Renormalize cyclic orders into an ascending divisibility chain.

    Any pair (a, b) with a not dividing b is replaced by (gcd, lcm),
    which preserves the isomorphism class of the direct sum. The product
    of the list is invariant and each replacement strictly decreases the
    smaller member, so the passes terminate. Orders equal to 1 vanish.
    """
    t = []
    for x in _exact_ints(orders):
        if x < 1:
            raise ValueError(f"cyclic order must be a positive integer, got {x}")
        if x > 1:
            t.append(x)
    t.sort()
    changed = True
    while changed:
        changed = False
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                a, b = t[i], t[j]
                if b % a:
                    g = math.gcd(a, b)
                    t[i], t[j] = g, a * b // g
                    changed = True
        if changed:
            t.sort()
    return tuple(x for x in t if x > 1)


@contextmanager
def _all_digits():
    """Lift the int-to-string digit limit while output is rendered.

    Results can be longer than their inputs (a 5,000-digit order from
    2,500-digit entries), so only parsing keeps the limit. Pythons
    before 3.10.7 have no limit to lift.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group, canonically presented.

    free_rank is the rank of the free part; torsion is the invariant
    factor chain (each entry >= 2, each dividing the next). The
    constructor insists on canonical input; use from_orders to build
    from an arbitrary bag of cyclic orders.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        free_rank, *torsion = _exact_ints((self.free_rank, *self.torsion))
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tuple(torsion))
        if self.free_rank < 0:
            raise ValueError(f"free rank must be non-negative, got {self.free_rank}")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor must be >= 2, got {d}")
            if prev is not None and d % prev:
                raise ValueError(
                    f"torsion {self.torsion} is not a divisibility chain"
                )
            prev = d

    @classmethod
    def from_orders(cls, free_rank: int, orders=()) -> "FgAbGroup":
        """Build Z^free_rank plus the sum of cyclic groups of the given orders."""
        return cls(free_rank, _divisibility_chain(orders))

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, order: int) -> "FgAbGroup":
        """Z_order for order >= 2, the trivial group for order 1."""
        return cls.from_orders(0, (order,))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def describe(self) -> str:
        """Render as text: 0, Z, Z^2, Z_4, or Z^2 (+) Z_2 (+) Z_6."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        with _all_digits():
            parts.extend(f"Z_{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbGroup({self.free_rank}, {self.torsion!r})"


TRIVIAL = FgAbGroup(0, ())
Z = FgAbGroup(1, ())


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """a (+) b, renormalized so the torsion is again a chain."""
    return FgAbGroup.from_orders(a.free_rank + b.free_rank, a.torsion + b.torsion)


def tensor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """a (x) b over Z.

    Bilinear over direct sums, with Z (x) Z = Z, Z (x) Z_m = Z_m and
    Z_m (x) Z_n = Z_gcd(m,n).
    """
    orders = []
    orders.extend(list(a.torsion) * b.free_rank)
    orders.extend(list(b.torsion) * a.free_rank)
    orders.extend(math.gcd(s, t) for s in a.torsion for t in b.torsion)
    return FgAbGroup.from_orders(a.free_rank * b.free_rank, orders)


def tor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Tor_1(a, b): free parts contribute nothing, Tor(Z_m, Z_n) = Z_gcd(m,n)."""
    orders = [math.gcd(s, t) for s in a.torsion for t in b.torsion]
    return FgAbGroup.from_orders(0, orders)


@dataclass(frozen=True)
class HomologyProfile:
    """Homology groups of a length-k complex: exactly k + 1 entries.

    groups[p] is H_p. notes carries free-text provenance lines that the
    command-line tools surface verbatim.
    """

    groups: tuple[FgAbGroup, ...]
    k: int
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "notes", tuple(self.notes))
        if len(self.groups) != self.k + 1:
            raise ValueError(
                f"profile for k={self.k} needs {self.k + 1} groups, "
                f"got {len(self.groups)}"
            )

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * g.free_rank for p, g in enumerate(self.groups))

    def even_sum(self) -> FgAbGroup:
        acc = TRIVIAL
        for g in self.groups[0::2]:
            acc = direct_sum(acc, g)
        return acc

    def odd_sum(self) -> FgAbGroup:
        acc = TRIVIAL
        for g in self.groups[1::2]:
            acc = direct_sum(acc, g)
        return acc

    def describe(self) -> str:
        return ", ".join(f"H_{p} = {g.describe()}" for p, g in enumerate(self.groups))
