"""Actions of Z^k on a finite set by commuting permutations.

An action is stored as k image arrays: perms[i][x] is where the i-th
generator sends the point x. The transformation groupoid of such an
action is computed through the same chain complex as the graph case,
with the permutation matrices acting on the free module over the points,
each written as IntMatrix rows, one entry per row, straight from the
images.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb

from .abelian import FgAbGroup, HomologyProfile, _exact_ints, _list_or_tuple
from .errors import DimensionMismatch, NonCommuting, NotBijective
from .exact_linalg import IntMatrix
# perfbench/tracing.py wraps build and homology at this module by name
from .koszul import KoszulComplex, build, homology  # noqa: F401


class ZkAction(namedtuple("ZkAction", "points perms")):
    """k self-maps of {0, .., points-1}, intended to commute and be bijective.

    Construction only checks shapes, ranges and that every value is an
    int, refusing strings, floats and bools as IntMatrix does, and that
    perms and every image list in it are lists or tuples, so no dict,
    set, string or generator is read as one at any point count;
    bijectivity and commutativity are semantic findings reported by
    validate_action and enforced by to_koszul.
    """

    __slots__ = ()

    def __new__(cls, points: int, perms):
        (points,) = _exact_ints((points,))
        perms = _list_or_tuple(perms, "perms")
        for i, p in enumerate(perms):
            _list_or_tuple(p, f"permutation {i}")
        perms = tuple(tuple(_exact_ints(p)) for p in perms)
        if points < 0:
            raise DimensionMismatch(f"negative point count {points}")
        for i, p in enumerate(perms):
            if len(p) != points:
                raise DimensionMismatch(
                    f"permutation {i} has {len(p)} images for {points} points"
                )
            for v in p:
                if not 0 <= v < points:
                    raise DimensionMismatch(
                        f"permutation {i} maps to {v}, outside 0..{points - 1}"
                    )
        return super().__new__(cls, points, perms)

    @property
    def k(self) -> int:
        return len(self.perms)


def _bijectivity_finding(i: int, p: tuple[int, ...], points: int) -> str | None:
    if sorted(p) == list(range(points)):
        return None
    missing = sorted(set(range(points)) - set(p))[0]
    return (
        f"permutations[{i}] is not a bijection: value {missing} is never hit "
        "(a self-map of a finite set is bijective exactly when it is surjective)"
    )


def _commutation_finding(a: "ZkAction", i: int, j: int) -> str | None:
    pi, pj = a.perms[i], a.perms[j]
    for x in range(a.points):
        if pi[pj[x]] != pj[pi[x]]:
            return (
                f"permutations[{i}] and permutations[{j}] do not commute: "
                f"they disagree on point {x}"
            )
    return None


def _findings(a: ZkAction):
    """(exception type, finding) pairs, in validate_action's order."""
    bad = set()
    for i, p in enumerate(a.perms):
        f = _bijectivity_finding(i, p, a.points)
        if f:
            bad.add(i)
            yield NotBijective, f
    for i, j in combinations(range(a.k), 2):
        if i in bad or j in bad:
            continue
        f = _commutation_finding(a, i, j)
        if f:
            yield NonCommuting, f


def validate_action(a: ZkAction) -> list[str]:
    """Semantic findings: non-bijective maps, then non-commuting pairs
    of bijective maps."""
    return [f for _, f in _findings(a)]


def _perm_matrix(p: tuple[int, ...], n: int) -> IntMatrix:
    # p must be a bijection of range(n), so every row gets exactly one entry
    rows = [None] * n
    for y, img in enumerate(p):
        rows[img] = {y: 1}
    return IntMatrix._wrap(rows, n)


def to_koszul(a: ZkAction) -> KoszulComplex:
    """Chain complex of the action: permutation matrices as endomorphisms.

    Column y of the i-th endomorphism carries a single 1 in row
    perms[i][y], matching how a point mass at y is pushed forward.
    Raises the first finding of validate_action.
    """
    for exc, f in _findings(a):
        raise exc(f)
    endos = [_perm_matrix(p, a.points) for p in a.perms]
    return build(a.k, endos, m=a.points)


def orbit_count(a: ZkAction) -> int:
    """Number of orbits of the generated group on the points."""
    parent = list(range(a.points))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in a.perms:
        for x in range(a.points):
            rx, ry = find(x), find(p[x])
            if rx != ry:
                parent[rx] = ry
    return sum(1 for x in range(a.points) if find(x) == x)


def orbit_oracle(a: ZkAction) -> HomologyProfile:
    """Homology predicted from the orbit decomposition alone.

    The action restricted to one orbit is transitive, so its stabilizers
    are finite-index subgroups of Z^k and the orbit contributes exactly
    what a one-point system with the trivial action contributes, Z^C(k,p)
    in degree p (its boundaries are all zero). The total is the direct
    sum over orbits. This route never looks at which permutation sends
    which point where, only at the orbit partition, and shares no code
    with the chain engine, which makes it a useful cross-check.
    """
    n_orbits = orbit_count(a)
    return HomologyProfile(
        tuple(FgAbGroup(comb(a.k, p) * n_orbits) for p in range(a.k + 1)),
        a.k,
        (f"orbit decomposition: {n_orbits} orbits on {a.points} points",),
    )
