from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupoid_homology import exact_linalg, koszul
from groupoid_homology.abelian import FgAbGroup
from groupoid_homology.checks import perf_skeleton
from groupoid_homology.dr_finite import (
    ZkAction,
    orbit_count,
    orbit_oracle,
    to_koszul,
    validate_action,
)
from groupoid_homology.errors import DimensionMismatch, NonCommuting, NotBijective
from groupoid_homology.exact_linalg import _blocks, cokernel
from groupoid_homology.kgraph import groupoid_homology
from groupoid_homology.koszul import homology

THREE_CYCLE = ZkAction(3, ((1, 2, 0),))
TWO_SWAPS = ZkAction(4, ((1, 0, 3, 2),))


def test_constructor_refuses_non_integral_points_and_images():
    with pytest.raises(TypeError):
        ZkAction(3, [[0.7, 1, 2.9]])
    with pytest.raises(TypeError):
        ZkAction(2.0, [[1, 0]])
    with pytest.raises(TypeError):
        ZkAction(2, [[True, 0]])
    # numeric strings are refused, not parsed
    with pytest.raises(TypeError):
        ZkAction("2", [[1, 0]])
    with pytest.raises(TypeError):
        ZkAction(2, [["1", 0]])


def test_constructor_refuses_a_generator_of_image_lists_unread():
    perms = ((1, 0) for _ in range(1))
    with pytest.raises(TypeError):
        ZkAction(2, perms)
    assert next(perms) == (1, 0)


def perm_power(p, e):
    q = list(range(len(p)))
    for _ in range(e):
        q = [p[i] for i in q]
    return tuple(q)


# --- construction and validation ---------------------------------------------

def test_wrong_length_is_rejected():
    with pytest.raises(DimensionMismatch):
        ZkAction(3, ((1, 2),))


def test_out_of_range_image_is_rejected():
    with pytest.raises(DimensionMismatch):
        ZkAction(3, ((1, 2, 5),))


def test_valid_action_has_no_findings():
    assert validate_action(THREE_CYCLE) == []
    assert validate_action(TWO_SWAPS) == []


def test_non_bijective_map_is_explained():
    findings = validate_action(ZkAction(2, ((0, 0),)))
    assert len(findings) == 1
    assert "never hit" in findings[0] and "surjective" in findings[0]


def test_noncommuting_pair_names_a_witness_point():
    findings = validate_action(ZkAction(3, ((1, 2, 0), (1, 0, 2))))
    assert any("commute" in f and "point" in f for f in findings)


def test_findings_skip_pairs_with_a_non_bijective_map():
    # map 0 is not a bijection, so only the pair (1, 2) is compared
    action = ZkAction(3, ((0, 0, 1), (1, 2, 0), (1, 0, 2)))
    assert validate_action(action) == [
        "permutations[0] is not a bijection: value 2 is never hit "
        "(a self-map of a finite set is bijective exactly when it is surjective)",
        "permutations[1] and permutations[2] do not commute: "
        "they disagree on point 0",
    ]
    with pytest.raises(NotBijective, match=r"^permutations\[0\] is not"):
        to_koszul(action)


def test_complex_construction_refuses_bad_actions():
    with pytest.raises(NotBijective):
        to_koszul(ZkAction(2, ((0, 0),)))
    with pytest.raises(NonCommuting):
        to_koszul(ZkAction(3, ((1, 2, 0), (1, 0, 2))))


# --- frozen homology values ----------------------------------------------------

def test_single_three_cycle():
    prof = homology(to_koszul(THREE_CYCLE))
    assert [g.describe() for g in prof.groups] == ["Z", "Z"]


def test_two_disjoint_swaps():
    prof = homology(to_koszul(TWO_SWAPS))
    assert [g.describe() for g in prof.groups] == ["Z^2", "Z^2"]


def test_identity_action_sees_every_point():
    a = ZkAction(4, (tuple(range(4)),))
    prof = homology(to_koszul(a))
    assert [g.describe() for g in prof.groups] == ["Z^4", "Z^4"]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_one_point_action_gives_binomial_ranks(k):
    a = ZkAction(1, tuple((0,) for _ in range(k)))
    prof = homology(to_koszul(a))
    assert [g.free_rank for g in prof.groups] == [comb(k, p) for p in range(k + 1)]
    assert all(g.torsion == () for g in prof.groups)


# --- orbit counting -------------------------------------------------------------

def test_orbit_counts():
    assert orbit_count(THREE_CYCLE) == 1
    assert orbit_count(TWO_SWAPS) == 2
    assert orbit_count(ZkAction(4, (tuple(range(4)),))) == 4


def test_orbit_oracle_shape():
    prof = orbit_oracle(ZkAction(1, ((0,), (0,), (0,))))
    assert [g.describe() for g in prof.groups] == ["Z", "Z^3", "Z^3", "Z"]


# --- engine vs oracle ------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.data())
def test_engine_matches_orbit_oracle_on_cyclic_actions(data):
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 3))
    base = tuple(data.draw(st.permutations(range(n))))
    exps = data.draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))
    a = ZkAction(n, tuple(perm_power(base, e) for e in exps))
    engine = homology(to_koszul(a))
    oracle = orbit_oracle(a)
    assert engine.groups == oracle.groups
    assert all(g.torsion == () for g in engine.groups)


@st.composite
def multi_orbit_actions(draw):
    """Z^k on disjoint cycles plus fixed points, points in shuffled order.

    Each generator rotates each cycle by its own step, so the generators
    commute, and a cycle whose steps share a factor with its length
    splits into several orbits.
    """
    k = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    sizes += [1] * draw(st.integers(1, 3))
    n = sum(sizes)
    label = draw(st.permutations(range(n)))
    perms = [[0] * n for _ in range(k)]
    start = 0
    for size in sizes:
        for p in perms:
            step = draw(st.integers(0, size - 1))
            for x in range(size):
                p[label[start + x]] = label[start + (x + step) % size]
        start += size
    return ZkAction(n, tuple(tuple(p) for p in perms))


@settings(deadline=None, max_examples=60)
@given(multi_orbit_actions())
def test_engine_matches_orbit_oracle_on_multi_orbit_actions(a):
    assert homology(to_koszul(a)).groups == orbit_oracle(a).groups


def torus(n: int) -> ZkAction:
    """Z^2 on the n x n torus by the two unit shifts: one orbit."""
    return ZkAction(n * n, (
        tuple(x - x % n + (x + 1) % n for x in range(n * n)),
        tuple((x + n) % (n * n) for x in range(n * n)),
    ))


@pytest.mark.parametrize("n", [20, 25])
def test_engine_matches_orbit_oracle_on_a_single_large_orbit(n):
    a = torus(n)
    assert orbit_count(a) == 1
    assert homology(to_koszul(a)).groups == orbit_oracle(a).groups


def test_torus_boundaries_leave_no_core_for_the_dense_reduction(monkeypatch):
    # every boundary of one torus orbit is eliminated on unit pivots, so
    # _smithify never sees a nonempty matrix
    cells = []
    real = exact_linalg._smithify

    def counting(A, m, n):
        cells.append(m * n)
        return real(A, m, n)

    monkeypatch.setattr(exact_linalg, "_smithify", counting)
    c = to_koszul(torus(12))
    # both ranks are 143: Z^(144 - 143) and Z^(288 - 143), torsion-free
    assert [cokernel(c.boundary(p)) for p in (1, 2)] == [FgAbGroup(1, ()), FgAbGroup(145, ())]
    assert sum(cells) == 0


def test_homology_of_a_split_action_reduces_each_boundary_once(monkeypatch):
    # perfbench's tracer reads a cokernel call's degree from its position
    # among the calls of one homology, so splitting a boundary into blocks
    # must not add calls: exactly k for k generators, since nothing bounds
    # the top degree
    a = ZkAction(7, ((1, 2, 0, 4, 3, 5, 6),
                     (2, 0, 1, 3, 4, 5, 6),
                     (0, 1, 2, 4, 3, 5, 6)))
    c = to_koszul(a)
    assert len(_blocks(c.boundary(1).data)) == 2
    oracle = orbit_oracle(a)
    shapes = []
    real = koszul.cokernel

    def counted(d):
        shapes.append(d.shape)
        return real(d)

    monkeypatch.setattr(koszul, "cokernel", counted)
    assert homology(c).groups == oracle.groups
    assert shapes == [c.boundary(p).shape for p in range(1, 4)]


def test_homology_path_never_goes_dense(monkeypatch):
    # from validate to cokernel every matrix is read as its {col: value}
    # rows: nothing writes out dense rows or reads single entries, and
    # only the blocks that the elimination leaves are written dense, for
    # _smithify; a torus orbit leaves none
    sk = perf_skeleton(0, 40)
    orbit = torus(30)
    expected = groupoid_homology(sk), homology(to_koszul(orbit))

    def dense(*args):
        raise AssertionError("the homology path went dense")

    monkeypatch.setattr(exact_linalg.IntMatrix, "to_rows", dense)
    monkeypatch.setattr(exact_linalg.IntMatrix, "__getitem__", dense)
    assert groupoid_homology(sk) == expected[0]
    monkeypatch.setattr(exact_linalg, "_smithify", dense)
    assert homology(to_koszul(orbit)) == expected[1]
