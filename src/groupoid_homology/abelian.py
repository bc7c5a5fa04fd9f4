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
from collections import namedtuple
from contextlib import contextmanager


def _exact_ints(values) -> list[int]:
    """values as Python ints. Anything non-integral, bool included, is a
    TypeError rather than being truncated or read as 0/1."""
    values = list(values)
    if bool in map(type, values):
        raise TypeError("expected integers, got a bool")
    return list(map(operator.index, values))


def _list_or_tuple(value, name: str):
    """value itself if it is a list or tuple; anything else (a set in hash
    order, a dict's keys, a string, a generator) is a TypeError naming it."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} is a {type(value).__name__}, not a list or tuple")
    return value


def _divisibility_chain(orders) -> tuple[int, ...]:
    """Renormalize cyclic orders into an ascending divisibility chain.

    The orders go in ascending, each inserted from the top of the chain:
    as Z_t (+) Z_x is Z_gcd (+) Z_lcm, the lcm moves up and the gcd is
    carried down until the entry below divides it, so every entry still
    divides the one above. A carry of 1 vanishes. Orders that already
    form a chain cost one divisibility test each.
    """
    t = []
    for x in sorted(_exact_ints(orders)):
        if x < 1:
            raise ValueError(f"cyclic order must be a positive integer, got {x}")
        i = len(t)
        t.append(x)
        while i and x > 1 and x % t[i - 1]:
            i -= 1
            g = math.gcd(t[i], x)
            t[i + 1], x = t[i] // g * x, g
        t[i:i + 1] = [x] if x > 1 else []
    return tuple(t)


def _record(name: str, fields: str):
    """A namedtuple base whose _make is cls(*values), so _make and _replace
    (which calls self._make) run the subclass's __new__ and its rules."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


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


class FgAbGroup(_record("FgAbGroup", "free_rank torsion")):
    """A finitely generated abelian group, canonically presented.

    free_rank is the rank of the free part; torsion is the invariant
    factor chain (each entry >= 2, each dividing the next). The
    constructor insists on canonical input; use from_orders to build
    from an arbitrary bag of cyclic orders. Both take the orders as a
    list or tuple, never a set, which would collapse a repeated order.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        free_rank, *torsion = _exact_ints((free_rank, *_list_or_tuple(torsion, "torsion")))
        torsion = tuple(torsion)
        if free_rank < 0:
            raise ValueError(f"free rank must be non-negative, got {free_rank}")
        prev = None
        for d in torsion:
            if d < 2:
                raise ValueError(f"invariant factor must be >= 2, got {d}")
            if prev is not None and d % prev:
                raise ValueError(f"torsion {torsion} is not a divisibility chain")
            prev = d
        return super().__new__(cls, free_rank, torsion)

    @classmethod
    def from_orders(cls, free_rank: int, orders=()) -> "FgAbGroup":
        """Build Z^free_rank plus the sum of cyclic groups of the given orders."""
        return cls(free_rank, _divisibility_chain(_list_or_tuple(orders, "orders")))

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

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


def direct_sum(*groups: FgAbGroup) -> FgAbGroup:
    """The direct sum of the groups, renormalized once into a chain; the
    trivial group when there are none."""
    return FgAbGroup.from_orders(
        sum(g.free_rank for g in groups), [d for g in groups for d in g.torsion]
    )


def tensor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """a (x) b over Z.

    Bilinear over direct sums, with Z (x) Z = Z, Z (x) Z_m = Z_m and
    Z_m (x) Z_n = Z_gcd(m,n), so the torsion-by-torsion part is tor(a, b).
    """
    mixed = a.torsion * b.free_rank + b.torsion * a.free_rank
    return FgAbGroup.from_orders(a.free_rank * b.free_rank, mixed + tor(a, b).torsion)


def tor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Tor_1(a, b): free parts contribute nothing, Tor(Z_m, Z_n) = Z_gcd(m,n)."""
    orders = [math.gcd(s, t) for s in a.torsion for t in b.torsion]
    return FgAbGroup.from_orders(0, orders)


class HomologyProfile(_record("HomologyProfile", "groups k notes")):
    """Homology groups of a length-k complex: exactly k + 1 entries.

    groups[p] is H_p, an FgAbGroup, and k an exact int; groups and notes
    (free-text provenance lines that the command-line tools surface
    verbatim) are each a list or tuple, never a set in hash order.
    """

    __slots__ = ()

    def __new__(cls, groups, k: int, notes=()):
        groups = tuple(_list_or_tuple(groups, "groups"))
        (k,) = _exact_ints((k,))
        notes = _list_or_tuple(notes, "notes")
        for p, g in enumerate(groups):
            if not isinstance(g, FgAbGroup):
                raise TypeError(f"H_{p} is a {type(g).__name__}, not an FgAbGroup")
        if len(groups) != k + 1:
            raise ValueError(
                f"profile for k={k} needs {k + 1} groups, got {len(groups)}"
            )
        return super().__new__(cls, groups, k, tuple(notes))

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * g.free_rank for p, g in enumerate(self.groups))

    def even_sum(self) -> FgAbGroup:
        return direct_sum(*self.groups[0::2])

    def odd_sum(self) -> FgAbGroup:
        return direct_sum(*self.groups[1::2])

    def describe(self) -> str:
        return ", ".join(f"H_{p} = {g.describe()}" for p, g in enumerate(self.groups))
